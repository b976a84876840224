// ledgerdb_cli — operate a file-backed ledger from the shell.
//
// Every invocation reopens the ledger from its on-disk streams (full
// crash-recovery path) and replays integrity checks, so the tool doubles
// as a recovery/fsck driver.
//
//   ledgerdb_cli init   <dir> <uri>              create a ledger directory
//   ledgerdb_cli append <dir> <payload> [clue..] append a signed journal
//                                                (receipt checked)
//   ledgerdb_cli get    <dir> <jsn>              print one verified journal
//   ledgerdb_cli verify <dir> <jsn>              client-side journal check
//   ledgerdb_cli lineage <dir> <clue>            list + verify a clue
//   ledgerdb_cli anchor <dir>                    TSA time anchor
//   ledgerdb_cli occult <dir> <jsn>              hide a journal (DBA+regulator)
//   ledgerdb_cli purge  <dir> <before_jsn>       purge history
//   ledgerdb_cli audit  <dir>                    full Dasein-complete audit
//   ledgerdb_cli status <dir>                    audited roots & counters
//   ledgerdb_cli checkpoint <dir>                write an audited checkpoint
//   ledgerdb_cli fsck   <dir> [--json]           stream + checkpoint integrity
//                                                check
//   ledgerdb_cli receipt <dir> <jsn> <file>      export a receipt (hex)
//   ledgerdb_cli verify-receipt <dir> <file>     client-side receipt check
//                                                (exit 0 valid, 2 forged)
//   ledgerdb_cli stats  <dir> [--format json|prom] [--exercise]
//                       [--spans] [--slow]
//                       [--watch <secs>] [--ticks <n>]
//                                                observability snapshot
//   ledgerdb_cli serve  <dir> [--unix <path>|--port <n>] [--workers <n>]
//                       [--queue-depth <n>] [--request-timeout-us <n>]
//                       [--drain-deadline-us <n>] [--ticks <n>]
//                                                host the ledger over a socket
//
// Client commands: `append`, `get`, `verify`, `lineage`, `status` and
// `verify-receipt` run one body against a LedgerTransport and a
// LedgerClient over it, so a ledger read from disk is accepted by exactly
// the checks a remote client applies: roots are pinned by an audited
// refresh, and journals, lineages and receipts are verified by
// LedgerClient. The transport is a LocalTransport over the recovered
// ledger, or, with `--remote <addr>` ("unix:<path>" or
// "tcp:<ipv4>:<port>"), a SocketTransport to a running `serve` process; then
// <dir> supplies only the seed-derived identities and uri.
//
// `stats` opens the ledger through the instrumented recovery path and
// prints the process-wide metrics registry (counters, gauges, histogram
// quantiles) as JSON (default) or Prometheus exposition text. With
// `--exercise` it first drives a representative workload — verified client
// appends through a fault-injecting transport (retries, dedup replays),
// a trusted-root refresh, fam proof builds, a twice-run client batch audit
// (the repeat is served from the proof cache, so the proofcache hit/miss
// counters and resident-bytes gauge move), and a full Dasein audit — so
// every verification-plane stage lights up. `--watch` re-prints (and with
// `--exercise`, re-drives) every <secs> seconds; `--ticks` bounds the
// number of rounds (0 = until interrupted). NOTE: --exercise appends real
// journals to the ledger.
//
// `stats --spans` exports the sampled span ring (stage, start, duration,
// thread, trace_id/parent_span for cross-process traces) as a JSON array;
// `stats --slow` exports the per-request event log filtered to requests
// flagged slow (queue + exec at or above the server's slow threshold).
// Both replace the registry snapshot for that tick and are JSON-only.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/dasein_auditor.h"
#include "client/ledger_client.h"
#include "ledger/ledger.h"
#include "net/byzantine_transport.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace ledgerdb;

namespace {

/// Fam height and block capacity of every ledger this tool creates, opens
/// or verifies: clients derive proof positions from the same height.
LedgerOptions CliLedgerOptions() {
  LedgerOptions options;
  options.fractal_height = 10;
  options.block_capacity = 16;
  return options;
}

struct CliContext {
  std::string dir;
  std::string uri;
  SystemClock clock;
  std::unique_ptr<CertificateAuthority> ca;
  std::unique_ptr<MemberRegistry> registry;
  KeyPair lsp, user, dba, regulator, tsa_key;
  KeyPair exercise;  // signer of `stats --exercise` rounds
  std::unique_ptr<TsaService> tsa;
  std::unique_ptr<FileStreamStore> journal_stream, block_stream;
  std::unique_ptr<CheckpointStore> ckpt_store;
  std::unique_ptr<Ledger> ledger;
  RecoveryInfo recovery;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int FailStatus(const std::string& what, const Status& status) {
  return Fail(what + ": " + status.ToString());
}

bool ReadFileString(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::getline(in, *out);
  return true;
}

bool WriteFileString(const std::string& path, const std::string& value) {
  std::ofstream out(path);
  if (!out) return false;
  out << value << "\n";
  return true;
}

/// Derives the fixed cast of identities from the ledger's seed file.
void DeriveIdentities(CliContext* ctx, const std::string& seed) {
  ctx->ca = std::make_unique<CertificateAuthority>(
      KeyPair::FromSeedString(seed + ":ca"));
  ctx->registry = std::make_unique<MemberRegistry>(ctx->ca.get());
  ctx->lsp = KeyPair::FromSeedString(seed + ":lsp");
  ctx->user = KeyPair::FromSeedString(seed + ":user");
  ctx->dba = KeyPair::FromSeedString(seed + ":dba");
  ctx->regulator = KeyPair::FromSeedString(seed + ":regulator");
  ctx->tsa_key = KeyPair::FromSeedString(seed + ":tsa");
  ctx->exercise = KeyPair::FromSeedString(seed + ":stats");
  ctx->registry->Register(ctx->ca->Certify("lsp", ctx->lsp.public_key(), Role::kLsp));
  ctx->registry->Register(ctx->ca->Certify("user", ctx->user.public_key(), Role::kUser));
  ctx->registry->Register(ctx->ca->Certify("dba", ctx->dba.public_key(), Role::kDba));
  ctx->registry->Register(
      ctx->ca->Certify("regulator", ctx->regulator.public_key(), Role::kRegulator));
  ctx->registry->Register(ctx->ca->Certify("tsa", ctx->tsa_key.public_key(), Role::kTsa));
  ctx->registry->Register(ctx->ca->Certify(
      "stats-exercise", ctx->exercise.public_key(), Role::kUser));
  ctx->tsa = std::make_unique<TsaService>(ctx->tsa_key, &ctx->clock);
}

/// Reads the directory's seed + uri and derives its identities. Enough for
/// a client command with `--remote`: the `serve` process owns the streams,
/// and a second recovery against live files would race it.
int OpenIdentities(CliContext* ctx, const std::string& dir) {
  ctx->dir = dir;
  std::string seed;
  if (!ReadFileString(dir + "/seed", &seed) ||
      !ReadFileString(dir + "/uri", &ctx->uri)) {
    return Fail("not a ledger directory (run `init` first): " + dir);
  }
  DeriveIdentities(ctx, seed);
  return 0;
}

/// Opens an existing ledger directory: reads seed + uri, reopens the
/// streams, and recovers the full ledger state from disk.
int OpenLedger(CliContext* ctx, const std::string& dir) {
  int rc = OpenIdentities(ctx, dir);
  if (rc != 0) return rc;
  Status s = FileStreamStore::Open(dir + "/journals.log", &ctx->journal_stream);
  if (!s.ok()) return FailStatus("open journals", s);
  s = FileStreamStore::Open(dir + "/blocks.log", &ctx->block_stream);
  if (!s.ok()) return FailStatus("open blocks", s);
  ctx->ckpt_store =
      std::make_unique<CheckpointStore>(Env::Default(), dir + "/ckpt");
  LedgerStorage storage{ctx->journal_stream.get(), ctx->block_stream.get(),
                        ctx->ckpt_store.get()};
  s = Ledger::Recover(ctx->uri, CliLedgerOptions(), &ctx->clock, ctx->lsp,
                      ctx->registry.get(), storage, &ctx->ledger,
                      &ctx->recovery);
  if (!s.ok()) return FailStatus("recover (ledger may be tampered)", s);
  ctx->ledger->AttachDirectTsa(ctx->tsa.get());
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void HandleServeSignal(int) { g_serve_stop = 1; }

/// Hosts the recovered ledger behind the socket wire protocol until
/// SIGINT/SIGTERM, then drains gracefully. `--ticks <n>` (tests) exits on
/// its own after n seconds instead of waiting for a signal.
int CmdServe(CliContext* ctx, const std::vector<std::string>& args) {
  LedgerServer::Options opts;
  opts.unix_path = ctx->dir + "/ledgerdb.sock";
  int ticks = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--unix" && i + 1 < args.size()) {
      opts.unix_path = args[++i];
    } else if (args[i] == "--port" && i + 1 < args.size()) {
      opts.unix_path.clear();
      opts.tcp_port = static_cast<uint16_t>(std::atoi(args[++i].c_str()));
    } else if (args[i] == "--workers" && i + 1 < args.size()) {
      opts.num_workers = std::atoi(args[++i].c_str());
    } else if (args[i] == "--queue-depth" && i + 1 < args.size()) {
      opts.queue_depth = static_cast<size_t>(std::atoi(args[++i].c_str()));
    } else if (args[i] == "--request-timeout-us" && i + 1 < args.size()) {
      opts.request_timeout_us = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--drain-deadline-us" && i + 1 < args.size()) {
      opts.drain_deadline_us = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--ticks" && i + 1 < args.size()) {
      ticks = std::atoi(args[++i].c_str());
    } else {
      return Fail("unknown serve option: " + args[i]);
    }
  }
  LedgerServer server(ctx->ledger.get(), opts);
  Status s = server.Start();
  if (!s.ok()) return FailStatus("serve", s);
  std::printf("serving %s at %s (%d workers, queue depth %zu)\n",
              ctx->uri.c_str(), server.address().c_str(), opts.num_workers,
              opts.queue_depth);
  std::fflush(stdout);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  int elapsed = 0;
  while (!g_serve_stop && (ticks == 0 || elapsed < ticks)) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    ++elapsed;
  }
  std::printf("draining...\n");
  server.Stop();
  const LedgerServer::Stats& st = server.stats();
  std::printf("served: %llu completed, %llu shed, %llu frame errors, "
              "%llu deadline-expired, %llu drain-failed\n",
              (unsigned long long)st.completed.load(),
              (unsigned long long)st.shed.load(),
              (unsigned long long)st.frame_errors.load(),
              (unsigned long long)st.deadline_expired.load(),
              (unsigned long long)st.drain_failed.load());
  return 0;
}

/// The one client every client command runs: a LedgerClient over
/// `transport` whose nonce space starts past the ledger's current journal
/// count, so a fresh process resumes the user identity without reusing a
/// nonce. The signed commitment is checked first, so a wrong directory or
/// an impostor server fails before any operation runs.
int MakeClient(CliContext* ctx, LedgerTransport* transport,
               std::unique_ptr<LedgerClient>* client) {
  SignedCommitment commitment;
  Status s = transport->GetCommitment(&commitment);
  if (!s.ok()) return FailStatus("connect", s);
  if (!commitment.Verify(ctx->lsp.public_key())) {
    return Fail("server commitment does not verify under this ledger's "
                "LSP key — wrong directory or impostor server");
  }
  LedgerClient::Options copts;
  copts.lsp_key = ctx->lsp.public_key();
  copts.fractal_height = CliLedgerOptions().fractal_height;
  copts.start_nonce = commitment.journal_count;
  copts.retry.max_attempts = 4;
  copts.retry.decorrelated_jitter = true;
  *client = std::make_unique<LedgerClient>(transport, ctx->user, copts);
  return 0;
}

int CmdInit(const std::string& dir, const std::string& uri) {
  std::string probe;
  if (ReadFileString(dir + "/uri", &probe)) {
    return Fail("ledger directory already initialized: " + dir);
  }
  // Seed from the system clock; identities derive deterministically.
  SystemClock clock;
  std::string seed = "ledgerdb-" + std::to_string(clock.Now());
  if (!WriteFileString(dir + "/seed", seed) ||
      !WriteFileString(dir + "/uri", uri)) {
    return Fail("cannot write to directory (does it exist?): " + dir);
  }
  CliContext ctx;
  ctx.uri = uri;
  DeriveIdentities(&ctx, seed);
  Status s = FileStreamStore::Open(dir + "/journals.log", &ctx.journal_stream);
  if (!s.ok()) return FailStatus("create journals", s);
  s = FileStreamStore::Open(dir + "/blocks.log", &ctx.block_stream);
  if (!s.ok()) return FailStatus("create blocks", s);
  LedgerStorage storage{ctx.journal_stream.get(), ctx.block_stream.get()};
  Ledger ledger(uri, CliLedgerOptions(), &ctx.clock, ctx.lsp,
                ctx.registry.get(), storage);
  ledger.SealBlock();
  std::printf("initialized %s (uri %s)\n", dir.c_str(), uri.c_str());
  std::printf("genesis fam root: %s\n", ledger.FamRoot().ToHex().c_str());
  return 0;
}

std::string PayloadText(const Journal& journal) {
  return journal.occulted
             ? "<erased>"
             : std::string(journal.payload.begin(), journal.payload.end());
}

int CmdAppend(CliContext*, LedgerClient* client,
              const std::vector<std::string>& args) {
  uint64_t jsn = 0;
  Receipt receipt;
  Status s = client->AppendVerified(StringToBytes(args[0]),
                                    {args.begin() + 1, args.end()}, &jsn,
                                    &receipt);
  if (!s.ok()) return FailStatus("append", s);
  std::printf("jsn:        %llu\n", (unsigned long long)jsn);
  std::printf("tx-hash:    %s\n", receipt.tx_hash.ToHex().c_str());
  std::printf("block-hash: %s\n", receipt.block_hash.ToHex().c_str());
  std::printf("receipt:    %s\n", ToHex(receipt.Serialize()).c_str());
  return 0;
}

uint64_t ParseJsn(const std::string& arg) {
  return std::strtoull(arg.c_str(), nullptr, 10);
}

/// Prints journal `jsn` as FetchAndVerifyJournal accepts it against an
/// audited root.
int CmdGet(CliContext*, LedgerClient* client,
           const std::vector<std::string>& args) {
  const uint64_t jsn = ParseJsn(args[0]);
  Status s = client->RefreshTrustedRoots();
  if (!s.ok()) return FailStatus("refresh trusted roots", s);
  Journal journal;
  s = client->FetchAndVerifyJournal(jsn, &journal);
  if (!s.ok()) return FailStatus("get", s);
  std::printf("jsn:      %llu\n", (unsigned long long)jsn);
  std::printf("type:     %d%s\n", static_cast<int>(journal.type),
              journal.occulted ? " (occulted)" : "");
  std::printf("payload:  %s\n", PayloadText(journal).c_str());
  std::printf("digest:   %s\n", journal.payload_digest.ToHex().c_str());
  for (const std::string& clue : journal.clues) {
    std::printf("clue:     %s\n", clue.c_str());
  }
  return 0;
}

int CmdVerify(CliContext*, LedgerClient* client,
              const std::vector<std::string>& args) {
  Status s = client->RefreshTrustedRoots();
  if (!s.ok()) return FailStatus("refresh trusted roots", s);
  Journal journal;
  s = client->FetchAndVerifyJournal(ParseJsn(args[0]), &journal);
  std::printf("fam root:  %s\n", client->trusted_fam_root().ToHex().c_str());
  std::printf("result:    %s\n", s.ok() ? "VALID" : "INVALID");
  if (!s.ok()) std::printf("reason:    %s\n", s.ToString().c_str());
  return s.ok() ? 0 : 1;
}

int CmdLineage(CliContext*, LedgerClient* client,
               const std::vector<std::string>& args) {
  Status s = client->RefreshTrustedRoots();
  if (!s.ok()) return FailStatus("refresh trusted roots", s);
  std::vector<Journal> journals;
  s = client->FetchAndVerifyLineage(args[0], &journals);
  if (!s.ok()) return FailStatus("lineage", s);
  for (const Journal& journal : journals) {
    std::printf("jsn %-8llu %s\n", (unsigned long long)journal.jsn,
                PayloadText(journal).c_str());
  }
  std::printf("%zu records; lineage VALID\n", journals.size());
  return 0;
}

int CmdAnchor(CliContext* ctx) {
  uint64_t jsn = 0;
  Status s = ctx->ledger->AnchorTime(&jsn);
  if (!s.ok()) return FailStatus("anchor", s);
  const TimeEvidence& ev = ctx->ledger->time_journals().back().evidence;
  std::printf("time journal jsn: %llu\n", (unsigned long long)jsn);
  std::printf("TSA timestamp:    %lld us\n",
              (long long)ev.attestation.timestamp);
  std::printf("attested digest:  %s\n", ev.ledger_digest.ToHex().c_str());
  return 0;
}

int CmdOccult(CliContext* ctx, uint64_t jsn) {
  Digest request = Ledger::OccultRequestHash(ctx->uri, jsn);
  std::vector<Endorsement> sigs = {
      {ctx->dba.public_key(), ctx->dba.Sign(request)},
      {ctx->regulator.public_key(), ctx->regulator.Sign(request)}};
  uint64_t oj = 0;
  Status s = ctx->ledger->Occult(jsn, sigs, &oj);
  if (!s.ok()) return FailStatus("occult", s);
  ctx->ledger->ReorganizeOcculted();
  std::printf("occulted jsn %llu (occult journal %llu)\n",
              (unsigned long long)jsn, (unsigned long long)oj);
  return 0;
}

int CmdPurge(CliContext* ctx, uint64_t before) {
  Digest request = Ledger::PurgeRequestHash(ctx->uri, before);
  std::vector<Endorsement> sigs = {
      {ctx->dba.public_key(), ctx->dba.Sign(request)},
      {ctx->user.public_key(), ctx->user.Sign(request)}};
  uint64_t pj = 0;
  Status s = ctx->ledger->Purge(before, sigs, {}, &pj);
  if (!s.ok()) return FailStatus("purge", s);
  std::printf("purged journals before %llu (purge journal %llu)\n",
              (unsigned long long)before, (unsigned long long)pj);
  return 0;
}

int CmdAudit(CliContext* ctx) {
  Receipt receipt;
  Status s = ctx->ledger->GetReceipt(ctx->ledger->NumJournals() - 1, &receipt);
  if (!s.ok()) return FailStatus("receipt", s);
  DaseinAuditor::Context context;
  context.ledger = ctx->ledger.get();
  context.members = ctx->registry.get();
  context.tsa_key = ctx->tsa->public_key();
  AuditReport report;
  s = DaseinAuditor(context).Audit(receipt, {}, &report);
  std::printf("journals replayed:    %llu\n",
              (unsigned long long)report.journals_replayed);
  std::printf("blocks verified:      %llu\n",
              (unsigned long long)report.blocks_verified);
  std::printf("time journals:        %llu\n",
              (unsigned long long)report.time_journals_verified);
  std::printf("signatures verified:  %llu\n",
              (unsigned long long)report.signatures_verified);
  std::printf("audit: %s\n",
              report.passed ? "PASSED"
                            : ("FAILED — " + report.failure_reason).c_str());
  return report.passed && s.ok() ? 0 : 1;
}

/// The roots come from an audited refresh; a recovered ledger (no
/// `--remote`) adds the lines only the ledger itself can tell.
int CmdStatus(CliContext* ctx, LedgerClient* client,
              const std::vector<std::string>&) {
  Status s = client->RefreshTrustedRoots();
  if (!s.ok()) return FailStatus("refresh trusted roots", s);
  std::printf("uri:             %s\n", ctx->uri.c_str());
  std::printf("journals:        %llu\n",
              (unsigned long long)client->mirror().journal_count());
  std::printf("fam root:        %s\n",
              client->trusted_fam_root().ToHex().c_str());
  std::printf("clue root:       %s\n",
              client->trusted_clue_root().ToHex().c_str());
  std::printf("state root:      %s\n",
              client->trusted_state_root().ToHex().c_str());
  if (ctx->ledger == nullptr) return 0;
  std::printf("purged boundary: %llu\n",
              (unsigned long long)ctx->ledger->PurgedBoundary());
  std::printf("occulted:        %llu\n",
              (unsigned long long)ctx->ledger->OccultedCount());
  std::printf("blocks:          %zu\n", ctx->ledger->blocks().size());
  std::printf("time journals:   %zu\n", ctx->ledger->time_journals().size());
  if (ctx->recovery.used_checkpoint) {
    std::printf("recovered via:   checkpoint (watermark %llu, tail %llu, "
                "%llu reconciled)\n",
                (unsigned long long)ctx->recovery.checkpoint_watermark,
                (unsigned long long)ctx->recovery.tail_journals,
                (unsigned long long)ctx->recovery.reconciled_records);
  } else {
    std::printf("recovered via:   full replay (%u checkpoint candidates "
                "rejected)\n",
                ctx->recovery.candidates_rejected);
  }
  return 0;
}

/// Writes one audited checkpoint covering the ledger's current state.
/// The next `Recover` of this directory loads it and tail-replays only
/// the journals appended afterwards.
int CmdCheckpoint(CliContext* ctx) {
  uint32_t slot = 0;
  Status s = ctx->ledger->WriteCheckpoint(&slot);
  if (!s.ok()) return FailStatus("checkpoint", s);
  std::printf("slot:       %u\n", slot);
  std::printf("watermark:  %llu\n",
              (unsigned long long)ctx->ledger->NumJournals());
  std::printf("blocks:     %zu\n", ctx->ledger->blocks().size());
  std::printf("fam root:   %s\n", ctx->ledger->FamRoot().ToHex().c_str());
  std::printf("checkpoint written to %s/ckpt.{ckpt,snap}.%u\n",
              ctx->dir.c_str(), slot);
  return 0;
}

int CmdReceipt(CliContext* ctx, uint64_t jsn, const std::string& out_path) {
  Receipt receipt;
  Status s = ctx->ledger->GetReceipt(jsn, &receipt);
  if (!s.ok()) return FailStatus("receipt", s);
  if (!WriteFileString(out_path, ToHex(receipt.Serialize()))) {
    return Fail("cannot write receipt file: " + out_path);
  }
  std::printf("receipt for jsn %llu written to %s\n", (unsigned long long)jsn,
              out_path.c_str());
  return 0;
}

/// Receipt verification: the receipt file is the client's retained π_s
/// evidence. The receipt must verify under the LSP key and name the
/// journal the ledger serves at its jsn, and that journal must verify
/// against audited roots. Exit 0 when the receipt binds, 2 when it is
/// forged or the ledger content diverged (threat-C), 1 on I/O problems.
int CmdVerifyReceipt(CliContext*, LedgerClient* client,
                     const std::vector<std::string>& args) {
  const std::string& receipt_path = args[0];
  std::string hex;
  if (!ReadFileString(receipt_path, &hex)) {
    return Fail("cannot read receipt file: " + receipt_path);
  }
  Bytes raw;
  Receipt receipt;
  if (!FromHex(hex, &raw) || !Receipt::Deserialize(raw, &receipt)) {
    std::printf("receipt: FORGED (undecodable)\n");
    return 2;
  }
  Status s = client->RefreshTrustedRoots();
  if (s.ok()) s = client->VerifyReceipt(receipt);
  std::printf("jsn:      %llu\n", (unsigned long long)receipt.jsn);
  std::printf("tx-hash:  %s\n", receipt.tx_hash.ToHex().c_str());
  if (s.IsVerificationFailed()) {
    std::printf("receipt: FORGED (%s)\n", s.message().c_str());
    return 2;
  }
  if (!s.ok()) return FailStatus("verify receipt", s);
  std::printf("receipt: VALID\n");
  return 0;
}

/// Stream-level integrity check plus the checkpoint inventory. Unlike
/// every other command this does NOT go through OpenLedger/Recover — it
/// must keep working (and stay informative) on images the ledger itself
/// refuses to load. Checkpoints are redundant state (recovery falls back
/// to full replay), so a damaged checkpoint is reported but does not make
/// the directory DAMAGED.
int CmdFsck(const std::string& dir, const std::vector<std::string>& args) {
  bool json = false;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else {
      return Fail("unknown fsck option: " + arg);
    }
  }

  bool healthy = true;
  bool repaired = false;
  std::string stream_json;
  for (const char* name : {"journals.log", "blocks.log"}) {
    std::string path = dir + "/" + name;
    if (!json) std::printf("%s:\n", name);
    std::unique_ptr<FileStreamStore> stream;
    Status s = FileStreamStore::Open(path, &stream);
    if (!s.ok()) {
      if (json) {
        if (!stream_json.empty()) stream_json += ",";
        stream_json += "{\"name\":\"" + std::string(name) +
                       "\",\"open\":" + obs::JsonString(s.ToString()) + "}";
      } else {
        std::printf("  open:        %s\n", s.ToString().c_str());
      }
      healthy = false;
      continue;
    }
    const FileStreamStore::RecoveryReport& report = stream->recovery_report();
    Status fsck = stream->Fsck();
    if (report.tail_quarantined) repaired = true;
    if (!fsck.ok()) healthy = false;
    if (json) {
      if (!stream_json.empty()) stream_json += ",";
      stream_json +=
          "{\"name\":\"" + std::string(name) +
          "\",\"frames\":" + std::to_string(report.frames) +
          ",\"watermark\":" + std::to_string(stream->DurableWatermark()) +
          ",\"torn_tail\":" + (report.tail_quarantined ? "true" : "false") +
          ",\"fsck\":" + obs::JsonString(fsck.ToString()) + "}";
    } else {
      std::printf("  frames:      %llu\n", (unsigned long long)report.frames);
      std::printf("  watermark:   %llu%s\n",
                  (unsigned long long)stream->DurableWatermark(),
                  report.watermark_missing ? " (sidecar was missing)" : "");
      if (report.tail_quarantined) {
        std::printf("  torn tail:   %llu bytes quarantined to %s.quarantine\n",
                    (unsigned long long)report.quarantined_bytes, path.c_str());
      }
      std::printf("  fsck:        %s\n", fsck.ToString().c_str());
    }
  }

  // Checkpoint inventory: frame + SHA binding always; the LSP signature
  // too when the seed file is readable (it derives the public key).
  std::string seed;
  bool have_seed = ReadFileString(dir + "/seed", &seed);
  KeyPair lsp;
  if (have_seed) lsp = KeyPair::FromSeedString(seed + ":lsp");
  CheckpointStore ckpt_store(Env::Default(), dir + "/ckpt");
  std::vector<CheckpointEntry> entries;
  Status list = ckpt_store.List(&entries);
  std::string ckpt_json;
  size_t ckpt_valid = 0;
  if (!json && (!entries.empty() || !list.ok())) {
    std::printf("checkpoints:\n");
  }
  for (const CheckpointEntry& entry : entries) {
    std::string verdict;
    uint64_t watermark = 0, height = 0;
    if (!entry.status.ok()) {
      verdict = entry.status.ToString();
    } else {
      watermark = entry.manifest.watermark;
      height = entry.manifest.block_height;
      Bytes snapshot;
      Status s = ckpt_store.ReadSnapshot(entry.manifest, entry.slot, &snapshot);
      if (!s.ok()) {
        verdict = s.ToString();
      } else if (have_seed && !entry.manifest.Verify(lsp.public_key())) {
        verdict = "Corruption: LSP signature invalid";
      } else {
        verdict = "OK";
        ++ckpt_valid;
      }
    }
    if (json) {
      if (!ckpt_json.empty()) ckpt_json += ",";
      ckpt_json += "{\"slot\":" + std::to_string(entry.slot) +
                   ",\"watermark\":" + std::to_string(watermark) +
                   ",\"block_height\":" + std::to_string(height) +
                   ",\"status\":" + obs::JsonString(verdict) + "}";
    } else {
      std::printf("  slot %u:      watermark %llu, blocks %llu — %s\n",
                  entry.slot, (unsigned long long)watermark,
                  (unsigned long long)height, verdict.c_str());
    }
  }

  // Classic fsck exit codes: 0 clean, 1 errors corrected, 2 uncorrected.
  // A damaged checkpoint slot is "corrected" (recovery falls back past
  // it, the next WriteCheckpoint overwrites it) — never CLEAN: operators
  // must see that the fast-recovery path lost a rung.
  const bool ckpt_damaged = ckpt_valid < entries.size();
  std::string result = !healthy      ? "DAMAGED"
                       : repaired    ? "REPAIRED"
                       : ckpt_damaged ? "CHECKPOINT-DAMAGED"
                                      : "CLEAN";
  if (json) {
    std::printf("{\"streams\":[%s],\"checkpoints\":[%s],"
                "\"checkpoints_valid\":%zu,\"result\":\"%s\"}\n",
                stream_json.c_str(), ckpt_json.c_str(), ckpt_valid,
                result.c_str());
  } else if (!healthy) {
    std::printf("fsck: DAMAGED\n");
  } else if (repaired) {
    std::printf("fsck: REPAIRED (torn tail quarantined)\n");
  } else if (ckpt_damaged) {
    std::printf("fsck: CHECKPOINT-DAMAGED (recovery falls back)\n");
  } else {
    std::printf("fsck: CLEAN\n");
  }
  return !healthy ? 2 : (repaired || ckpt_damaged) ? 1 : 0;
}

/// Drives one instrumented workload round against the recovered ledger:
/// client-verified appends through a Byzantine transport with scheduled
/// network faults (masked by retries and server-side dedup), an audited
/// trusted-root refresh, proof builds, and a full Dasein audit. Counters
/// for every stage of the verification plane move as a side effect.
int RunStatsExercise(CliContext* ctx) {
  LocalTransport local(ctx->ledger.get());
  ByzantineTransport byz(&local, /*seed=*/0x57A75);
  // Network-plane faults only — each is masked by the client's retry loop
  // or the server's idempotent dedup, so the round always converges while
  // the retry/dedup/fault counters move.
  byz.InjectFault(RpcOp::kAppendTx, 1, FaultKind::kTransientError);
  byz.InjectFault(RpcOp::kAppendTx, 3, FaultKind::kDelay);  // commits; retry dedups
  byz.InjectFault(RpcOp::kGetReceipt, 2, FaultKind::kDrop);
  byz.InjectFault(RpcOp::kGetCommitment, 0, FaultKind::kTransientError);

  LedgerClient::Options copts;
  copts.lsp_key = ctx->lsp.public_key();
  copts.fractal_height = CliLedgerOptions().fractal_height;
  // The exercise identity is derived from the ledger seed, so a reopened
  // directory registers it again and its earlier journals still audit.
  // Every earlier round consumed nonces below the journal count it left
  // behind, so starting there never collides with the identity's history,
  // while injected duplicate deliveries still converge via dedup.
  copts.start_nonce = ctx->ledger->NumJournals();
  LedgerClient client(&byz, ctx->exercise, copts);

  uint64_t last_jsn = 0;
  for (int i = 0; i < 4; ++i) {
    Bytes payload = StringToBytes("stats-exercise-" + std::to_string(i));
    Status s = client.AppendVerified(payload, {"stats-exercise"}, &last_jsn,
                                     nullptr);
    if (!s.ok()) return FailStatus("exercise append", s);
  }
  bool advanced = false;
  Status s = client.RefreshTrustedRoots(&advanced, nullptr);
  if (!s.ok()) return FailStatus("exercise refresh", s);

  FamProof proof;
  s = ctx->ledger->GetProof(last_jsn, &proof);
  if (!s.ok()) return FailStatus("exercise proof", s);

  // Batched proof plane, twice: the second round is served from the proof
  // cache (hit counters and the resident-bytes gauge move), and the
  // client-side batch audit verifies the whole range against the roots
  // refreshed above.
  for (int round = 0; round < 2; ++round) {
    std::vector<Journal> audited;
    s = client.BatchAuditRange("stats-exercise", 0,
                               ctx->clock.Now() + 1, &audited);
    if (!s.ok()) return FailStatus("exercise batch audit", s);
  }

  Receipt receipt;
  s = ctx->ledger->GetReceipt(ctx->ledger->NumJournals() - 1, &receipt);
  if (!s.ok()) return FailStatus("exercise receipt", s);
  DaseinAuditor::Context context;
  context.ledger = ctx->ledger.get();
  context.members = ctx->registry.get();
  context.tsa_key = ctx->tsa->public_key();
  AuditReport report;
  s = DaseinAuditor(context).Audit(receipt, {}, &report);
  if (!s.ok() || !report.passed) return FailStatus("exercise audit", s);
  return 0;
}

int CmdStats(CliContext* ctx, const std::vector<std::string>& args) {
  std::string format = "json";
  bool exercise = false;
  bool spans = false;
  bool slow = false;
  int watch_secs = 0;
  int ticks = 1;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--format" && i + 1 < args.size()) {
      format = args[++i];
    } else if (args[i] == "--exercise") {
      exercise = true;
    } else if (args[i] == "--spans") {
      spans = true;
    } else if (args[i] == "--slow") {
      slow = true;
    } else if (args[i] == "--watch" && i + 1 < args.size()) {
      watch_secs = std::atoi(args[++i].c_str());
      ticks = 0;  // watch runs until interrupted unless --ticks bounds it
    } else if (args[i] == "--ticks" && i + 1 < args.size()) {
      ticks = std::atoi(args[++i].c_str());
    } else {
      return Fail("unknown stats option: " + args[i]);
    }
  }
  if (format != "json" && format != "prom") {
    return Fail("--format must be json or prom");
  }
  if ((spans || slow) && format == "prom") {
    return Fail("--spans/--slow emit JSON only (drop --format prom)");
  }

  for (int tick = 0; ticks == 0 || tick < ticks; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(watch_secs));
    }
    if (exercise) {
      int rc = RunStatsExercise(ctx);
      if (rc != 0) return rc;
    }
    if (spans || slow) {
      // Ring exports replace the registry snapshot: one JSON object per
      // tick with only the requested sections.
      std::string out = "{";
      if (spans) {
        out += "\"spans\": " +
               obs::SpanRecordsToJson(obs::SpanTracer::Default().Snapshot());
      }
      if (slow) {
        if (spans) out += ", ";
        out += "\"slow_requests\": " +
               obs::RequestRecordsToJson(
                   obs::RequestLog::Default().SlowSnapshot());
      }
      out += "}";
      std::printf("%s\n", out.c_str());
    } else {
      obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Default().Snapshot();
      if (format == "json") {
        std::printf("%s\n", snapshot.ToJson().c_str());
      } else {
        std::printf("%s", snapshot.ToPrometheus().c_str());
      }
    }
    std::fflush(stdout);
    if (watch_secs == 0 && ticks == 0) break;  // --ticks 0 without --watch
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ledgerdb_cli <init|append|get|verify|lineage|anchor|"
               "occult|purge|audit|status|checkpoint|stats|fsck|receipt|"
               "verify-receipt|serve> <dir> [args...]\n"
               "       append/get/verify/lineage/status/verify-receipt also "
               "accept --remote <unix:path|tcp:host:port>\n");
  return 2;
}

/// The client commands: each runs one body against a LedgerClient, over
/// the recovered ledger or a `serve` process. `main` and RunClientCommand
/// both read this one table.
struct ClientCommand {
  const char* name;
  size_t min_args;
  size_t max_args;
  int (*run)(CliContext* ctx, LedgerClient* client,
             const std::vector<std::string>& args);
};

constexpr ClientCommand kClientCommands[] = {
    {"append", 1, SIZE_MAX, CmdAppend},
    {"get", 1, 1, CmdGet},
    {"verify", 1, 1, CmdVerify},
    {"lineage", 1, 1, CmdLineage},
    {"status", 0, 0, CmdStatus},
    {"verify-receipt", 1, 1, CmdVerifyReceipt},
};

const ClientCommand* FindClientCommand(const std::string& name) {
  for (const ClientCommand& command : kClientCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

/// Runs one client command over the recovered ledger (LocalTransport) or,
/// with `remote` set, over a socket to a `serve` process. Either way the
/// same body and the same LedgerClient checks run.
int RunClientCommand(CliContext* ctx, const ClientCommand& command,
                     const std::vector<std::string>& args,
                     const std::string& remote) {
  if (args.size() < command.min_args || args.size() > command.max_args) {
    return Usage();
  }
  std::unique_ptr<LedgerTransport> transport;
  if (remote.empty()) {
    transport = std::make_unique<LocalTransport>(ctx->ledger.get());
  } else {
    transport = std::make_unique<SocketTransport>(remote, ctx->uri);
  }
  std::unique_ptr<LedgerClient> client;
  int rc = MakeClient(ctx, transport.get(), &client);
  if (rc != 0) return rc;
  return command.run(ctx, client.get(), args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string command = argv[1];
  std::string dir = argv[2];

  // Strip a global `--remote <addr>` pair anywhere after <dir>; when
  // present, the client commands go over the socket instead of reopening
  // the ledger streams.
  std::string remote;
  std::vector<std::string> rest;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--remote") == 0 && i + 1 < argc) {
      remote = argv[++i];
    } else {
      rest.emplace_back(argv[i]);
    }
  }

  if (command == "init") {
    if (rest.size() != 1) return Usage();
    return CmdInit(dir, rest[0]);
  }
  if (command == "fsck") return CmdFsck(dir, rest);

  const ClientCommand* client_command = FindClientCommand(command);
  if (!remote.empty() && client_command == nullptr) return Usage();
  CliContext ctx;
  int rc = remote.empty() ? OpenLedger(&ctx, dir) : OpenIdentities(&ctx, dir);
  if (rc != 0) return rc;
  if (client_command != nullptr) {
    return RunClientCommand(&ctx, *client_command, rest, remote);
  }

  if (command == "serve") return CmdServe(&ctx, rest);
  if (command == "anchor") return CmdAnchor(&ctx);
  if (command == "occult" && rest.size() == 1) {
    return CmdOccult(&ctx, ParseJsn(rest[0]));
  }
  if (command == "purge" && rest.size() == 1) {
    return CmdPurge(&ctx, ParseJsn(rest[0]));
  }
  if (command == "audit") return CmdAudit(&ctx);
  if (command == "checkpoint") return CmdCheckpoint(&ctx);
  if (command == "stats") return CmdStats(&ctx, rest);
  if (command == "receipt" && rest.size() == 2) {
    return CmdReceipt(&ctx, ParseJsn(rest[0]), rest[1]);
  }
  return Usage();
}
