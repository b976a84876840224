// The repository benchmark: verified answers over a real socket.
//
// One process starts a LedgerServer on a unix socket and drives it through
// LedgerClient over SocketTransport from a few closed-loop client threads
// (each waits for its verified answer before sending the next request, as
// ledger clients do). An operation ends only when the client holds a
// verified answer:
//   append       LedgerClient::AppendVerified (sign π_c, AppendTx,
//                GetReceipt, verify π_s)
//   point_read   FetchAndVerifyJournal (π_c + fam proof against the pinned
//                root), with any stale-root refresh and retry
//   range_audit  BatchAuditRange over one clue's whole lineage, with any
//                stale-root refresh and retry
//
//   ledger_bench --workload ingest|audit|mixed --seed N --seconds S
//                --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice on fresh set-ups (untraced, then traced) and prints the per-layer
// metrics plus the tracing overhead. The last stdout line is the result
// JSON object. perfbench/README.md documents workloads and metrics.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "client/ledger_client.h"
#include "common/random.h"
#include "net/mirror.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench/stats.h"
#include "perfbench/timed_transport.h"
#include "storage/env.h"
#include "storage/stream_store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace ledgerdb;
using namespace ledgerdb::perfbench;
using ledgerdb::bench::LatencySampler;
namespace names = ledgerdb::obs::names;

namespace {

constexpr int kFractalHeight = 10;
constexpr uint64_t kNumClues = 1024;
constexpr size_t kPayloadBytes = 128;
constexpr int kServerWorkers = 2;
/// Set-ups per untraced run (setup_s is their median): at least
/// kMinSetups, more while they have taken under kSetupBudgetSeconds, so a
/// cheap set-up is repeated often enough for a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetSeconds = 2.0;
constexpr double kWarmupSeconds = 1.0;
/// Advancing refreshes a read may need before it is given up as stale.
constexpr int kMaxStaleRounds = 16;
/// Point reads on `mixed` pick among this many most recent journals.
constexpr uint64_t kRecentWindow = 256;
/// Responses kept per client for the verifier replay of the traced run.
constexpr size_t kReplaySamples = 64;
/// Preload transactions committed per group.
constexpr size_t kPreloadGroup = 256;
constexpr int kPreloadWriters = 4;
constexpr Timestamp kClockStartUs = 1000ull * 1'000'000;
constexpr size_t kMaxTraceLines = 200'000;

enum OpClass : int { kAppend = 0, kPointRead, kRangeAudit, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"append", "point_read",
                                                  "range_audit"};

/// Why each workload exists is in perfbench/README.md.
struct Workload {
  const char* name;
  /// Journal and block streams through FileStreamStore on a MemEnv: the
  /// whole storage code path, framing to syncs, without a device.
  bool streams;
  /// Closed-loop clients (capped at nproc). `ingest` runs enough of them
  /// to keep the server busy: with two, each append waits on thread
  /// wake-ups, whose cost on a shared VM swings its throughput 2x from run
  /// to run. The read workloads verify on the client and use two, leaving
  /// the other cores to the server.
  int clients;
  uint64_t preload;     ///< journals committed before the clients start
  int percent[kNumClasses];
  bool recent_reads;    ///< point reads among the newest journals only
  /// Appends pick their clue uniformly instead of by Zipf, so lineages grow
  /// evenly and a range audit costs the same late in the window as early.
  bool uniform_append_clues;
};

constexpr Workload kWorkloads[] = {
    {"ingest", true, 4, 1024, {100, 0, 0}, false, false},
    {"audit", false, 2, 32768, {0, 80, 20}, false, false},
    {"mixed", true, 2, 16384, {50, 30, 20}, true, true},
};

/// RPCs the three op classes issue (including stale-root refreshes).
constexpr RpcOp kUsedRpcs[] = {RpcOp::kAppendTx,      RpcOp::kGetReceipt,
                               RpcOp::kGetJournal,    RpcOp::kGetProof,
                               RpcOp::kGetCommitment, RpcOp::kGetDelta,
                               RpcOp::kProveClueRange};

std::string ClueName(uint64_t rank) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "clue-%04" PRIu64, rank);
  return buf;
}

double Median(const std::vector<double>& v) {
  LatencySampler s;
  for (double x : v) s.Add(x);
  return s.PercentileUs(50);
}

// ---------------------------------------------------------------------------
// Set-up: identities, ledger (+ streams), preload, server, pinned clients
// ---------------------------------------------------------------------------

struct Client {
  std::unique_ptr<SocketTransport> socket;
  std::unique_ptr<TimedTransport> timed;  ///< traced runs only
  std::unique_ptr<LedgerClient> sdk;
};

/// Removes the server's socket file when the plant goes away (declared
/// first in Plant, so it runs after the server has stopped).
struct SocketFile {
  std::string path;
  ~SocketFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

class Plant {
 public:
  Plant(const Workload& workload, uint64_t seed, int index, int clients,
        bool traced)
      : workload_(workload), seed_(seed), num_clients_(clients),
        traced_(traced) {
    socket_.path = "s-" + std::to_string(::getpid()) + "-" +
                   std::to_string(index) + ".sock";
  }

  Plant(const Plant&) = delete;
  Plant& operator=(const Plant&) = delete;

  Status Start() {
    for (int i = 0; i < kPreloadWriters; ++i) {
      writers_.push_back(
          KeyPair::FromSeedString("perfbench-writer-" + std::to_string(i)));
      registry_.Register(ca_.Certify("w" + std::to_string(i),
                                     writers_.back().public_key(),
                                     Role::kUser));
    }
    for (int c = 0; c < num_clients_; ++c) {
      identities_.push_back(
          KeyPair::FromSeedString("perfbench-client-" + std::to_string(c)));
      registry_.Register(ca_.Certify("c" + std::to_string(c),
                                     identities_.back().public_key(),
                                     Role::kUser));
    }
    options_.fractal_height = kFractalHeight;
    LedgerStorage storage;
    if (workload_.streams) {
      LEDGERDB_RETURN_IF_ERROR(
          FileStreamStore::Open(&mem_env_, "journals.log", &journal_stream_));
      LEDGERDB_RETURN_IF_ERROR(
          FileStreamStore::Open(&mem_env_, "blocks.log", &block_stream_));
      storage.journals = journal_stream_.get();
      storage.blocks = block_stream_.get();
    }
    ledger_ = std::make_unique<Ledger>("lg://perfbench", options_, &clock_,
                                       lsp_, &registry_, storage);
    LEDGERDB_RETURN_IF_ERROR(ledger_->init_status());
    LEDGERDB_RETURN_IF_ERROR(Preload(workload_.preload));
    if (ledger_->NumJournals() != 1 + workload_.preload) {
      return Status::Corruption("preload left an unexpected journal count");
    }
    last_jsn_.store(workload_.preload, std::memory_order_relaxed);

    LedgerServer::Options sopts;
    sopts.unix_path = socket_.path;
    sopts.num_workers = kServerWorkers;
    server_ = std::make_unique<LedgerServer>(ledger_.get(), sopts);
    LEDGERDB_RETURN_IF_ERROR(server_->Start());

    for (int c = 0; c < num_clients_; ++c) {
      auto client = std::make_unique<Client>();
      SocketTransport::Options topts;
      topts.trace_sample_every = traced_ ? 1 : 0;
      client->socket = std::make_unique<SocketTransport>(
          server_->address(), ledger_->uri(), topts);
      LedgerTransport* transport = client->socket.get();
      if (traced_) {
        client->timed = std::make_unique<TimedTransport>(client->socket.get());
        transport = client->timed.get();
      }
      client->sdk = std::make_unique<LedgerClient>(
          transport, identities_[static_cast<size_t>(c)], ClientOptions());
      LEDGERDB_RETURN_IF_ERROR(client->sdk->RefreshTrustedRoots());
      clients_.push_back(std::move(client));
    }
    return Status::OK();
  }

  LedgerClient::Options ClientOptions() const {
    LedgerClient::Options copts;
    copts.lsp_key = lsp_.public_key();
    copts.fractal_height = kFractalHeight;
    return copts;
  }

  void NoteAppend(uint64_t jsn) {
    acked_appends_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = last_jsn_.load(std::memory_order_relaxed);
    while (jsn > prev && !last_jsn_.compare_exchange_weak(
                             prev, jsn, std::memory_order_relaxed)) {
    }
  }
  void NoteFailedAppend() {
    failed_appends_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t last_jsn() const {
    return last_jsn_.load(std::memory_order_relaxed);
  }
  uint64_t acked_appends() const {
    return acked_appends_.load(std::memory_order_relaxed);
  }
  uint64_t failed_appends() const {
    return failed_appends_.load(std::memory_order_relaxed);
  }

  /// Bytes of the journal and block stream files (0 without streams).
  uint64_t StoredBytes() {
    if (!workload_.streams) return 0;
    uint64_t total = 0;
    for (const char* name : {"journals.log", "blocks.log"}) {
      std::unique_ptr<File> file;
      uint64_t size = 0;
      if (mem_env_.OpenFile(name, &file).ok() &&
          file->Size(&size).ok()) {
        total += size;
      }
    }
    return total;
  }

  const Workload& workload() const { return workload_; }
  LedgerServer* server() { return server_.get(); }
  Client& client(int c) { return *clients_[static_cast<size_t>(c)]; }
  int num_clients() const { return num_clients_; }
  const KeyPair& identity(int c) const {
    return identities_[static_cast<size_t>(c)];
  }
  const PublicKey& lsp_key() const { return lsp_.public_key(); }
  const std::string& uri() const { return ledger_->uri(); }

 private:
  /// Commits `n` signed journals, clues round-robin over kNumClues, through
  /// the ledger's own batched path: π_c checks run in parallel
  /// (PrevalidateBatch is const), commits go in groups of kPreloadGroup.
  Status Preload(uint64_t n) {
    std::vector<ClientTransaction> txs(n);
    std::vector<Ledger::PrevalidatedTx> prepared(n);
    std::vector<Status> statuses(n);
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const uint64_t lo = n * t / threads;
        const uint64_t hi = n * (t + 1) / threads;
        for (uint64_t i = lo; i < hi; ++i) {
          Random rng(seed_ * 0x9E3779B97F4A7C15ull + i);
          ClientTransaction& tx = txs[i];
          tx.ledger_uri = ledger_->uri();
          tx.clues = {ClueName(i % kNumClues)};
          tx.payload = rng.NextBytes(kPayloadBytes);
          tx.nonce = i / kPreloadWriters;
          tx.Sign(writers_[i % kPreloadWriters]);
        }
        constexpr uint64_t kChunk = 64;
        for (uint64_t i = lo; i < hi; i += kChunk) {
          const uint64_t end = std::min(hi, i + kChunk);
          std::vector<const ClientTransaction*> ptrs;
          for (uint64_t k = i; k < end; ++k) ptrs.push_back(&txs[k]);
          ledger_->PrevalidateBatch(ptrs, &prepared[i], &statuses[i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (const Status& st : statuses) LEDGERDB_RETURN_IF_ERROR(st);
    for (uint64_t i = 0; i < n; i += kPreloadGroup) {
      const uint64_t end = std::min(n, i + kPreloadGroup);
      std::vector<Ledger::PrevalidatedTx> group;
      for (uint64_t k = i; k < end; ++k) group.push_back(std::move(prepared[k]));
      std::vector<uint64_t> jsns;
      std::vector<Status> group_statuses;
      LEDGERDB_RETURN_IF_ERROR(ledger_->CommitPrevalidatedGroup(
          std::move(group), &jsns, &group_statuses));
      for (const Status& st : group_statuses) LEDGERDB_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }

  // Declaration order is teardown order in reverse: clients close their
  // sockets, the server drains, the ledger and its streams close, and the
  // socket file goes last.
  SocketFile socket_;
  const Workload& workload_;
  uint64_t seed_;
  int num_clients_;
  bool traced_;
  SimulatedClock clock_{kClockStartUs};
  CertificateAuthority ca_{KeyPair::FromSeedString("perfbench-ca")};
  MemberRegistry registry_{&ca_};
  KeyPair lsp_{KeyPair::FromSeedString("perfbench-lsp")};
  std::vector<KeyPair> writers_;
  std::vector<KeyPair> identities_;
  LedgerOptions options_;
  MemEnv mem_env_;
  std::unique_ptr<FileStreamStore> journal_stream_;
  std::unique_ptr<FileStreamStore> block_stream_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<LedgerServer> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<uint64_t> last_jsn_{0};
  std::atomic<uint64_t> acked_appends_{0};
  std::atomic<uint64_t> failed_appends_{0};
};

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

struct PointSample {
  Journal journal;
  FamProof proof;
  Digest fam_root;
};

struct RangeSample {
  ClueRangeResult result;
  Digest clue_root;
  Digest fam_root;
};

/// One operation of the timed window. `id` carries the client index in
/// its top 16 bits; the rpc fields are filled on traced runs only.
struct OpRecord {
  uint64_t id;
  int cls;
  bool ok;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t verified_journals;  ///< journals behind the verified answer
  uint64_t sigs;               ///< signatures behind it, refreshes included
  uint64_t rpc_ns;             ///< time in the op's child RPC spans
  uint64_t rpcs;               ///< number of child RPC spans

  double latency_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// What the clients saw during the timed window.
struct ClientResult {
  std::vector<OpRecord> ops;
  // Failure reasons.
  uint64_t shed = 0, deadline = 0, transient = 0, stale = 0, other = 0;
  // Read-path verification work.
  uint64_t verify_attempts = 0;
  uint64_t stale_retries = 0;
  uint64_t refreshes = 0;
  LatencySampler refresh_us;
  // Traced runs only: responses kept for the verifier replay.
  std::vector<PointSample> points;
  std::vector<RangeSample> ranges;
  std::vector<Receipt> receipts;
  uint64_t seen_points = 0, seen_ranges = 0, seen_receipts = 0;
  std::string fatal;
};

/// Window boundary: clients park after their warm-up until the main thread
/// has reset the registry and taken its "before" readings.
struct Window {
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool open = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::atomic<bool> abort{false};
};

/// Reservoir sampling over a stream: true if the next item is kept, at
/// index `*slot` of a reservoir of `cap` items.
bool Reservoir(uint64_t* seen, size_t cap, Random* rng, size_t* slot) {
  const uint64_t n = (*seen)++;
  if (n < cap) {
    *slot = static_cast<size_t>(n);
    return true;
  }
  const uint64_t j = rng->Uniform(n + 1);
  if (j >= cap) return false;
  *slot = static_cast<size_t>(j);
  return true;
}

template <typename T>
void Keep(std::vector<T>* reservoir, size_t slot, T&& item) {
  if (slot == reservoir->size()) {
    reservoir->push_back(std::move(item));
  } else {
    (*reservoir)[slot] = std::move(item);
  }
}

/// Per-operation verification counters, folded into ClientResult only for
/// operations inside the timed window.
struct OpWork {
  uint64_t verify_attempts = 0;
  uint64_t stale_retries = 0;
  uint64_t refreshes = 0;
  uint64_t sigs = 0;
  std::vector<double> refresh_us;
  bool stale = false;
};

/// Runs a verified read. A VerificationFailed may only mean that the pinned
/// roots trail an append that raced the read, so the client re-pins through
/// an audited RefreshTrustedRoots and retries. A failure that persists
/// across two refreshes that did not advance is a breach: no write raced
/// it. A read still failing after kMaxStaleRounds advancing refreshes is
/// given up as stale and counted as failed (`work->stale`).
Status Audited(LedgerClient* sdk, OpWork* work,
               const std::function<Status()>& op) {
  ++work->verify_attempts;
  Status st = op();
  int quiescent = 0;
  for (int round = 0; st.IsVerificationFailed(); ++round) {
    if (round >= kMaxStaleRounds) {
      work->stale = true;
      return Status::Unavailable("read still stale after the retry cap");
    }
    bool advanced = false;
    const uint64_t t0 = NowNs();
    Status refresh = sdk->RefreshTrustedRoots(&advanced);
    work->refresh_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++work->refreshes;
    ++work->sigs;  // the commitment's LSP signature
    if (!refresh.ok()) return refresh;
    if (!advanced) {
      if (++quiescent >= 2) return st;
    } else {
      quiescent = 0;
    }
    ++work->stale_retries;
    ++work->verify_attempts;
    st = op();
  }
  return st;
}

void ClientLoop(Plant* plant, int c, uint64_t seed, bool traced,
                uint64_t warm_end_ns, Window* window, ClientResult* out) {
  const Workload& w = plant->workload();
  Client& client = plant->client(c);
  LedgerClient& sdk = *client.sdk;
  TimedTransport* timed = client.timed.get();
  Random rng(seed * 1'000'003 + static_cast<uint64_t>(c) + 1);
  Random sample_rng(seed * 7919 + static_cast<uint64_t>(c));
  const ZipfSampler zipf(kNumClues);
  const uint64_t history = plant->last_jsn();  // audit has no writes
  uint64_t op_seq = 0;

  auto one_op = [&](bool measured) {
    const int roll = static_cast<int>(rng.Uniform(100));
    int cls = kAppend;
    for (int k = 0, cum = 0; k < kNumClasses; ++k) {
      cum += w.percent[k];
      if (roll < cum) {
        cls = k;
        break;
      }
    }
    const std::string clue =
        ClueName(cls == kAppend && w.uniform_append_clues
                     ? rng.Uniform(kNumClues)
                     : zipf.Next(&rng));
    const uint64_t id = (static_cast<uint64_t>(c + 1) << 48) | ++op_seq;
    const size_t span_mark = timed != nullptr ? timed->spans().size() : 0;
    if (timed != nullptr) timed->set_parent(id);
    OpWork work;
    uint64_t verified = 0;
    const uint64_t t0 = NowNs();
    Status st;
    switch (cls) {
      case kAppend: {
        Bytes payload = rng.NextBytes(kPayloadBytes);
        uint64_t jsn = 0;
        Receipt receipt;
        st = sdk.AppendVerified(payload, {clue}, &jsn, &receipt);
        if (st.ok()) {
          plant->NoteAppend(jsn);
          verified = 1;
          work.sigs = 1;  // π_s on the receipt
          size_t slot = 0;
          if (measured && traced &&
              Reservoir(&out->seen_receipts, kReplaySamples, &sample_rng,
                        &slot)) {
            Keep(&out->receipts, slot, std::move(receipt));
          }
        } else {
          plant->NoteFailedAppend();
        }
        break;
      }
      case kPointRead: {
        uint64_t jsn = 0;
        if (w.recent_reads) {
          const uint64_t hi = plant->last_jsn();
          const uint64_t lo = hi > kRecentWindow ? hi - kRecentWindow + 1 : 1;
          jsn = lo + rng.Uniform(hi - lo + 1);
        } else {
          jsn = 1 + rng.Uniform(history);
        }
        size_t slot = 0;
        const bool capture =
            measured && traced &&
            Reservoir(&out->seen_points, kReplaySamples, &sample_rng, &slot);
        PointSample sample;
        st = Audited(&sdk, &work, [&] {
          if (capture) timed->CaptureNextProof(&sample.proof);
          return sdk.FetchAndVerifyJournal(jsn, &sample.journal);
        });
        if (timed != nullptr) timed->CaptureNextProof(nullptr);
        if (st.ok()) {
          verified = 1;
          work.sigs += 1;  // π_c of the journal
          if (capture) {
            sample.fam_root = sdk.trusted_fam_root();
            Keep(&out->points, slot, std::move(sample));
          }
        }
        break;
      }
      case kRangeAudit: {
        size_t slot = 0;
        const bool capture =
            measured && traced &&
            Reservoir(&out->seen_ranges, kReplaySamples, &sample_rng, &slot);
        std::vector<Journal> journals;
        RangeSample sample;
        st = Audited(&sdk, &work, [&] {
          return sdk.BatchAuditRange(clue, 0, INT64_MAX, &journals,
                                     capture ? &sample.result : nullptr);
        });
        if (st.ok()) {
          verified = journals.size();
          work.sigs += journals.size();  // π_c of every journal
          if (capture) {
            sample.clue_root = sdk.trusted_clue_root();
            sample.fam_root = sdk.trusted_fam_root();
            Keep(&out->ranges, slot, std::move(sample));
          }
        }
        break;
      }
    }
    const uint64_t t1 = NowNs();

    if (!st.ok() && (st.IsCorruption() || st.IsVerificationFailed())) {
      out->fatal = std::string(kClassNames[cls]) + ": " + st.ToString();
      window->abort.store(true);
      return;
    }
    if (!measured) return;
    OpRecord rec{id, cls, st.ok(), t0, t1, st.ok() ? verified : 0,
                 st.ok() ? work.sigs : 0, 0, 0};
    if (timed != nullptr) {
      const auto& spans = timed->spans();
      for (size_t i = span_mark; i < spans.size(); ++i) {
        rec.rpc_ns += spans[i].dur_ns;
      }
      rec.rpcs = spans.size() - span_mark;
    }
    out->ops.push_back(rec);
    out->verify_attempts += work.verify_attempts;
    out->stale_retries += work.stale_retries;
    out->refreshes += work.refreshes;
    for (double us : work.refresh_us) out->refresh_us.Add(us);
    if (!st.ok()) {
      if (work.stale) {
        out->stale++;
      } else if (st.IsUnavailable()) {
        out->shed++;
      } else if (st.IsDeadlineExceeded()) {
        out->deadline++;
      } else if (st.IsTransientIO() || st.IsIOError()) {
        out->transient++;
      } else {
        out->other++;
      }
    }
  };

  while (!window->abort.load() && NowNs() < warm_end_ns) one_op(false);
  uint64_t end_ns = 0;
  {
    std::unique_lock<std::mutex> lock(window->mu);
    window->parked++;
    window->cv.notify_all();
    window->cv.wait(lock, [&] { return window->open; });
    end_ns = window->end_ns;
  }
  while (!window->abort.load() && NowNs() < end_ns) one_op(true);
}

// ---------------------------------------------------------------------------
// One timed window on a plant
// ---------------------------------------------------------------------------

struct RunResult {
  ClientResult total;
  double elapsed_s = 0;
  uint64_t stored_bytes_delta = 0;
  uint64_t shed_delta = 0;
  uint64_t deadline_delta = 0;
  ProofCache::Stats cache_before, cache_after;
  obs::MetricsSnapshot registry;
  uint64_t window_start_ns = 0;
  std::string fatal;
};

void MergeInto(ClientResult* total, ClientResult& r) {
  total->ops.insert(total->ops.end(), r.ops.begin(), r.ops.end());
  total->shed += r.shed;
  total->deadline += r.deadline;
  total->transient += r.transient;
  total->stale += r.stale;
  total->other += r.other;
  total->verify_attempts += r.verify_attempts;
  total->stale_retries += r.stale_retries;
  total->refreshes += r.refreshes;
  total->refresh_us.Merge(r.refresh_us);
  for (auto& p : r.points) total->points.push_back(std::move(p));
  for (auto& g : r.ranges) total->ranges.push_back(std::move(g));
  for (auto& x : r.receipts) total->receipts.push_back(std::move(x));
  if (total->fatal.empty()) total->fatal = r.fatal;
}

ProofCache::Stats CacheStats(Plant* plant) {
  ProofCache::Stats s;
  plant->server()->WithLedger(
      [&](Ledger* ledger) { s = ledger->ProofCacheStats(); });
  return s;
}

RunResult Drive(Plant* plant, uint64_t seed, double seconds, bool traced) {
  RunResult result;
  Window window;
  const int n = plant->num_clients();
  std::vector<ClientResult> per_client(static_cast<size_t>(n));
  const uint64_t warm_end =
      NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back(ClientLoop, plant, c, seed, traced, warm_end,
                         &window, &per_client[static_cast<size_t>(c)]);
  }
  uint64_t stored_before = 0, shed_before = 0, deadline_before = 0;
  {
    std::unique_lock<std::mutex> lock(window.mu);
    window.cv.wait(lock, [&] { return window.parked == n; });
    obs::MetricsRegistry::Default().ResetAll();
    obs::SpanTracer::Default().Clear();
    result.cache_before = CacheStats(plant);
    stored_before = plant->StoredBytes();
    shed_before = plant->server()->stats().shed.load();
    deadline_before = plant->server()->stats().deadline_expired.load();
    window.start_ns = NowNs();
    window.end_ns =
        window.start_ns + static_cast<uint64_t>(seconds * 1e9);
    window.open = true;
  }
  window.cv.notify_all();
  for (std::thread& th : threads) th.join();

  result.window_start_ns = window.start_ns;
  result.registry = obs::MetricsRegistry::Default().Snapshot();
  result.cache_after = CacheStats(plant);
  result.stored_bytes_delta = plant->StoredBytes() - stored_before;
  result.shed_delta = plant->server()->stats().shed.load() - shed_before;
  result.deadline_delta =
      plant->server()->stats().deadline_expired.load() - deadline_before;
  for (ClientResult& r : per_client) MergeInto(&result.total, r);
  result.fatal = result.total.fatal;
  uint64_t end = window.end_ns;
  for (const OpRecord& op : result.total.ops) end = std::max(end, op.end_ns);
  result.elapsed_s = static_cast<double>(end - window.start_ns) / 1e9;
  return result;
}

// ---------------------------------------------------------------------------
// Correctness gate (outside the timed window)
// ---------------------------------------------------------------------------

/// The ledger holds exactly genesis + preload + acknowledged appends, and a
/// fresh client's audited refresh from zero reproduces the server's roots.
bool Gate(Plant* plant, std::string* report) {
  uint64_t count = 0;
  Digest fam, clue, state;
  plant->server()->WithLedger([&](Ledger* ledger) {
    count = ledger->NumJournals();
    fam = ledger->FamRoot();
    clue = ledger->ClueRoot();
    state = ledger->StateRoot();
  });
  const uint64_t expected =
      1 + plant->workload().preload + plant->acked_appends();
  // An append that failed after it committed leaves an unacknowledged
  // journal; only those may widen the expected count.
  const uint64_t slack = plant->failed_appends();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "journal count %" PRIu64 " vs genesis + preload %" PRIu64
                " + acknowledged appends %" PRIu64,
                count, plant->workload().preload, plant->acked_appends());
  *report = buf;
  if (count < expected || count > expected + slack) return false;

  SocketTransport transport(plant->server()->address(), plant->uri());
  LedgerClient fresh(&transport, KeyPair::FromSeedString("perfbench-auditor"),
                     plant->ClientOptions());
  Status st = fresh.RefreshTrustedRoots();
  if (!st.ok()) {
    *report += "; fresh audited refresh failed: " + st.ToString();
    return false;
  }
  if (fresh.mirror().journal_count() != count ||
      !(fresh.trusted_fam_root() == fam) ||
      !(fresh.trusted_clue_root() == clue) ||
      !(fresh.trusted_state_root() == state)) {
    *report += "; fresh client's roots differ from the server's";
    return false;
  }
  *report += "; fresh client reproduced the signed roots";
  return true;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

uint64_t Attempted(const ClientResult& r) { return r.ops.size(); }

uint64_t OkOps(const ClientResult& r, int cls = -1) {
  uint64_t n = 0;
  for (const OpRecord& op : r.ops) {
    if (op.ok && (cls < 0 || op.cls == cls)) ++n;
  }
  return n;
}

uint64_t Failed(const ClientResult& r) { return Attempted(r) - OkOps(r); }

uint64_t OpsOfClass(const ClientResult& r, int cls) {
  uint64_t n = 0;
  for (const OpRecord& op : r.ops) n += op.cls == cls ? 1 : 0;
  return n;
}

/// Traced split of one class's operations (failed ones included): the op
/// span, its child RPC time, and the client's own time in between.
struct OpBreakdown {
  LatencySampler op_us, rpc_us, self_us;
  double rpcs = 0;
  double sigs = 0;
};

OpBreakdown Breakdown(const ClientResult& r, int cls) {
  OpBreakdown b;
  for (const OpRecord& op : r.ops) {
    if (op.cls != cls) continue;
    const uint64_t op_ns = op.end_ns - op.start_ns;
    b.op_us.Add(op.latency_us());
    b.rpc_us.Add(static_cast<double>(op.rpc_ns) / 1e3);
    b.self_us.Add(static_cast<double>(op_ns - std::min(op_ns, op.rpc_ns)) / 1e3);
    b.rpcs += static_cast<double>(op.rpcs);
    b.sigs += static_cast<double>(op.sigs);
  }
  return b;
}

/// Latencies of one class's verified answers (every class's when `cls` is
/// negative) over the whole window.
LatencySampler OkLatencies(const ClientResult& r, int cls = -1) {
  LatencySampler s;
  for (const OpRecord& op : r.ops) {
    if (op.ok && (cls < 0 || op.cls == cls)) s.Add(op.latency_us());
  }
  return s;
}

uint64_t VerifiedJournals(const ClientResult& r) {
  uint64_t n = 0;
  for (const OpRecord& op : r.ops) n += op.verified_journals;
  return n;
}

void PrintLine(const std::string& name, double value, const char* unit,
               const std::string& note = "") {
  std::printf("  %-40s %14.3f %-10s%s\n", name.c_str(), value, unit,
              note.empty() ? "" : ("  " + note).c_str());
}

std::string CountNote(uint64_t n, double q) {
  char buf[64];
  if (q <= 0.5) {
    std::snprintf(buf, sizeof(buf), "(n=%" PRIu64 ")", n);
  } else {
    std::snprintf(buf, sizeof(buf), "(n=%" PRIu64 ", %" PRIu64 " beyond)", n,
                  SamplesBeyond(n, q));
  }
  return buf;
}

/// p50 and p99 of every op class present, each with its sample count; a
/// p99 with fewer than ten samples beyond it is withheld.
void PrintClassLatencies(const ClientResult& t) {
  for (int k = 0; k < kNumClasses; ++k) {
    const LatencySampler s = OkLatencies(t, k);
    if (s.count() == 0) continue;
    const std::string base = kClassNames[k];
    PrintLine(base + "_p50_us", s.PercentileUs(50), "us",
              CountNote(s.count(), 0.5));
    if (TailSupported(s.count(), 0.99)) {
      PrintLine(base + "_p99_us", s.PercentileUs(99), "us",
                CountNote(s.count(), 0.99));
    } else {
      std::printf("  %-40s %14s %-10s  (n=%zu: fewer than 10 beyond p99)\n",
                  (base + "_p99_us").c_str(), "-", "us", s.count());
    }
  }
}

void PrintOutcomes(const ClientResult& t) {
  uint64_t attempted[kNumClasses] = {}, failed[kNumClasses] = {};
  for (const OpRecord& op : t.ops) {
    ++attempted[op.cls];
    if (!op.ok) ++failed[op.cls];
  }
  for (int k = 0; k < kNumClasses; ++k) {
    if (attempted[k] == 0) continue;
    std::printf("  %-12s attempted %" PRIu64 "  failed %" PRIu64 "\n",
                kClassNames[k], attempted[k], failed[k]);
  }
  std::printf("  failures: shed %" PRIu64 "  deadline %" PRIu64
              "  transient %" PRIu64 "  stale %" PRIu64 "  other %" PRIu64
              "\n",
              t.shed, t.deadline, t.transient, t.stale, t.other);
}

const obs::HistogramSnapshot* FindHist(const obs::MetricsSnapshot& s,
                                       const std::string& name) {
  for (const obs::HistogramSnapshot& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t CounterOf(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

std::string Labeled(const char* base, RpcOp op) {
  return std::string(base) + "{op=\"" + RpcOpName(op) + "\"}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Wall time of one call of `fn`, in microseconds.
double TimeUs(const std::function<void()>& fn) {
  return bench::TimeSeconds(fn) * 1e6;
}

/// Histogram quantile from the registry, or 0 when the tail is not
/// supported by at least ten samples.
double RegistryQuantile(const obs::MetricsSnapshot& s, const std::string& name,
                        double q) {
  const obs::HistogramSnapshot* h = FindHist(s, name);
  if (h == nullptr || h->count == 0) return 0.0;
  if (q > 0.5 && !TailSupported(h->count, q)) return 0.0;
  return h->Quantile(q);
}

double SampleQuantile(const LatencySampler& s, double q) {
  if (q > 0.5 && !TailSupported(s.count(), q)) return 0.0;
  return s.PercentileUs(q * 100);
}

/// Server spans joined to the client's rpc spans by trace id.
struct JoinedRpc {
  RpcOp op;
  double rpc_us;
  double queue_us;
  double exec_us;
};

std::vector<JoinedRpc> JoinServerSpans(const RunResult& run, Plant* plant) {
  std::vector<obs::SpanRecord> records = obs::SpanTracer::Default().Snapshot();
  std::sort(records.begin(), records.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.trace_id < b.trace_id;
            });
  std::vector<JoinedRpc> joined;
  for (int c = 0; c < plant->num_clients(); ++c) {
    TimedTransport* timed = plant->client(c).timed.get();
    if (timed == nullptr) continue;
    for (const TimedTransport::RpcSpan& span : timed->spans()) {
      if (span.trace_id == 0 || span.start_ns < run.window_start_ns) continue;
      auto lo = std::lower_bound(
          records.begin(), records.end(), span.trace_id,
          [](const obs::SpanRecord& r, uint64_t id) { return r.trace_id < id; });
      double queue = -1, exec = -1;
      for (auto it = lo; it != records.end() && it->trace_id == span.trace_id;
           ++it) {
        if (std::strcmp(it->stage, obs::stages::kServerQueue.name) == 0) {
          queue = static_cast<double>(it->dur_us);
        } else if (std::strcmp(it->stage, obs::stages::kServerExecute.name) ==
                   0) {
          exec = static_cast<double>(it->dur_us);
        }
      }
      if (queue < 0 || exec < 0) continue;
      joined.push_back(
          {span.op, static_cast<double>(span.dur_ns) / 1e3, queue, exec});
    }
  }
  return joined;
}

/// Writes op spans and their rpc children (times in µs from the window
/// start) and the traced server spans still in the span rings, as JSON
/// lines.
void WriteTrace(const std::string& path, const RunResult& run, Plant* plant) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  size_t lines = 0;
  auto rel = [&](uint64_t ns) {
    return (static_cast<double>(ns) - static_cast<double>(run.window_start_ns)) /
           1e3;
  };
  for (const OpRecord& op : run.total.ops) {
    if (++lines > kMaxTraceLines) break;
    std::fprintf(f,
                 "{\"span\": \"op\", \"client\": %d, \"id\": %" PRIu64
                 ", \"class\": \"%s\", \"ok\": %s, \"start_us\": %.3f, "
                 "\"dur_us\": %.3f}\n",
                 static_cast<int>(op.id >> 48) - 1, op.id, kClassNames[op.cls],
                 op.ok ? "true" : "false", rel(op.start_ns), op.latency_us());
  }
  for (int c = 0; c < plant->num_clients() && lines < kMaxTraceLines; ++c) {
    TimedTransport* timed = plant->client(c).timed.get();
    if (timed == nullptr) continue;
    for (const TimedTransport::RpcSpan& s : timed->spans()) {
      if (s.start_ns < run.window_start_ns) continue;
      if (++lines > kMaxTraceLines) break;
      std::fprintf(f,
                   "{\"span\": \"rpc\", \"client\": %d, \"parent\": %" PRIu64
                   ", \"op\": \"%s\", \"trace_id\": %" PRIu64
                   ", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                   c, s.parent, RpcOpName(s.op), s.trace_id, rel(s.start_ns),
                   static_cast<double>(s.dur_ns) / 1e3);
    }
  }
  for (const obs::SpanRecord& r : obs::SpanTracer::Default().Snapshot()) {
    if (r.trace_id == 0 || ++lines > kMaxTraceLines) continue;
    std::fprintf(f,
                 "{\"span\": \"%s\", \"trace_id\": %" PRIu64
                 ", \"dur_us\": %" PRIu64 "}\n",
                 r.stage, r.trace_id, r.dur_us);
  }
  std::fclose(f);
}

/// Times the public verifiers on the responses sampled during the traced
/// window. Every replayed check must pass: each sample was accepted by the
/// client against the same roots.
struct Replay {
  LatencySampler fam_verify_us, fam_batch_us_per_journal,
      clue_verify_us_per_entry;
  LatencySampler fam_proof_bytes, clue_proof_bytes;
  LatencySampler pi_c_us, receipt_verify_us, tx_sign_us;
  double mirror_apply_us_per_journal = 0;
  bool ok = true;
};

Replay RunReplay(Plant* plant, ClientResult& t, uint64_t seed) {
  Replay r;
  for (const PointSample& p : t.points) {
    bool good = true;
    r.fam_verify_us.Add(TimeUs([&] {
      good = Ledger::VerifyJournalProof(p.journal, p.proof, p.fam_root);
    }));
    r.ok = r.ok && good;
    r.fam_proof_bytes.Add(static_cast<double>(p.proof.Serialize().size()));
    r.pi_c_us.Add(TimeUs([&] {
      good = VerifySignature(p.journal.client_key, p.journal.request_hash,
                             p.journal.client_sig);
    }));
    r.ok = r.ok && good;
  }
  for (const RangeSample& g : t.ranges) {
    const ClueRangeResult& res = g.result;
    if (res.journals.empty()) continue;
    std::vector<Digest> digests;
    std::vector<uint64_t> jsns;
    std::vector<Digest> fam_digests;
    for (const Journal& j : res.journals) {
      digests.push_back(j.TxHash());
      if (!jsns.empty() && j.jsn == jsns.back()) continue;
      jsns.push_back(j.jsn);
      fam_digests.push_back(digests.back());
    }
    bool good = true;
    r.clue_verify_us_per_entry.Add(
        TimeUs([&] {
          good = CmTree::VerifyClueProof(g.clue_root, digests, res.clue_proof);
        }) /
        static_cast<double>(digests.size()));
    r.ok = r.ok && good;
    r.fam_batch_us_per_journal.Add(
        TimeUs([&] {
          good = FamAccumulator::VerifyBatchProof(
              kFractalHeight, jsns, fam_digests, res.fam_batch, g.fam_root);
        }) /
        static_cast<double>(jsns.size()));
    r.ok = r.ok && good;
    r.clue_proof_bytes.Add(
        static_cast<double>(res.clue_proof.Serialize().size()));
    const Journal& j = res.journals.front();
    r.pi_c_us.Add(TimeUs([&] {
      good = VerifySignature(j.client_key, j.request_hash, j.client_sig);
    }));
    r.ok = r.ok && good;
  }
  for (const Receipt& receipt : t.receipts) {
    bool good = true;
    r.receipt_verify_us.Add(
        TimeUs([&] { good = receipt.Verify(plant->lsp_key()); }));
    r.ok = r.ok && good;
  }
  Random rng(seed);
  for (size_t i = 0; i < kReplaySamples; ++i) {
    ClientTransaction tx;
    tx.ledger_uri = plant->uri();
    tx.clues = {ClueName(i)};
    tx.payload = rng.NextBytes(kPayloadBytes);
    tx.nonce = i;
    r.tx_sign_us.Add(TimeUs([&] { tx.Sign(plant->identity(0)); }));
  }
  // Mirror replay of the whole history, as a client pinning from zero.
  std::vector<JournalDelta> deltas;
  plant->server()->WithLedger([&](Ledger* ledger) {
    (void)ledger->GetDelta(0, ledger->NumJournals(), &deltas);
  });
  LedgerMirror mirror(kFractalHeight, LedgerClient::Options().mpt_cache_depth);
  Status applied;
  const double total_us = TimeUs([&] {
    for (const JournalDelta& d : deltas) {
      applied = mirror.Apply(d);
      if (!applied.ok()) break;
    }
  });
  r.ok = r.ok && applied.ok();
  r.mirror_apply_us_per_journal =
      Ratio(total_us, static_cast<double>(deltas.size()));
  return r;
}

std::vector<Metric> PerLayerMetrics(RunResult& run, Plant* plant,
                                    double untraced_ops_per_s, uint64_t seed,
                                    bool* replay_ok) {
  ClientResult& t = run.total;
  const obs::MetricsSnapshot& reg = run.registry;
  std::vector<Metric> m;
  const double ops_per_s = Ratio(static_cast<double>(OkOps(t)), run.elapsed_s);
  const double appends = static_cast<double>(OkOps(t, kAppend));
  const double reads = static_cast<double>(Attempted(t)) -
                       static_cast<double>(OpsOfClass(t, kAppend));

  for (int k = 0; k < kNumClasses; ++k) {
    const std::string cls = kClassNames[k];
    OpBreakdown b = Breakdown(t, k);
    m.push_back({"op_us." + cls + ".p50", b.op_us.PercentileUs(50), "us"});
    m.push_back(
        {"client.self_us." + cls + ".p50", b.self_us.PercentileUs(50), "us"});
    m.push_back({"net.rpc_us_per_op." + cls + ".p50",
                 b.rpc_us.PercentileUs(50), "us"});
    m.push_back({"net.rpcs_per_op." + cls,
                 Ratio(b.rpcs, static_cast<double>(b.op_us.count())),
                 "count"});
    m.push_back({"crypto.sigs_verified_per_op." + cls,
                 Ratio(b.sigs, static_cast<double>(OkOps(t, k))), "count"});
  }

  // Client-side RPC spans of the window: per-op time, GetDelta sizes and
  // sampled response sizes.
  LatencySampler rpc_us[kNumRpcOps];
  double resp_sum[kNumRpcOps] = {};
  uint64_t resp_n[kNumRpcOps] = {};
  double delta_journals = 0;
  uint64_t delta_calls = 0;
  for (int c = 0; c < plant->num_clients(); ++c) {
    for (const TimedTransport::RpcSpan& s : plant->client(c).timed->spans()) {
      if (s.start_ns < run.window_start_ns) continue;
      const int i = static_cast<int>(s.op);
      rpc_us[i].Add(static_cast<double>(s.dur_ns) / 1e3);
      if (s.bytes != 0) {
        resp_sum[i] += static_cast<double>(s.bytes);
        ++resp_n[i];
      }
      if (s.op == RpcOp::kGetDelta) {
        delta_journals += static_cast<double>(s.deltas);
        ++delta_calls;
      }
    }
  }

  // client
  m.push_back({"client.refresh_us.p50", t.refresh_us.PercentileUs(50), "us"});
  m.push_back(
      {"client.refresh_us.p99", SampleQuantile(t.refresh_us, 0.99), "us"});
  m.push_back({"client.refreshes", static_cast<double>(t.refreshes), "count"});
  m.push_back({"client.refresh_journals",
               Ratio(delta_journals, static_cast<double>(delta_calls)),
               "journals"});
  m.push_back({"client.stale_retries_per_read",
               Ratio(static_cast<double>(t.stale_retries), reads), "ratio"});
  m.push_back({"client.useful_read_ratio",
               Ratio(static_cast<double>(OkOps(t, kPointRead) +
                                         OkOps(t, kRangeAudit)),
                     static_cast<double>(t.verify_attempts)),
               "ratio"});
  m.push_back({"client.verify_attempts", static_cast<double>(t.verify_attempts),
               "count"});

  // net: per-RPC client-side time, server queue/execute, derived wire time
  std::vector<JoinedRpc> joined = JoinServerSpans(run, plant);
  LatencySampler wire_us[kNumRpcOps];
  uint64_t within = 0;
  for (const JoinedRpc& j : joined) {
    wire_us[static_cast<int>(j.op)].Add(
        std::max(0.0, j.rpc_us - j.queue_us - j.exec_us));
    if (j.queue_us + j.exec_us <= j.rpc_us) ++within;
  }
  for (RpcOp op : kUsedRpcs) {
    const int i = static_cast<int>(op);
    const std::string name = RpcOpName(op);
    m.push_back(
        {"net.rpc_us." + name + ".p50", rpc_us[i].PercentileUs(50), "us"});
    m.push_back(
        {"net.rpc_us." + name + ".p99", SampleQuantile(rpc_us[i], 0.99), "us"});
    m.push_back({"net.response_bytes." + name,
                 Ratio(resp_sum[i], static_cast<double>(resp_n[i])), "bytes"});
    m.push_back({"net.wire_us." + name + ".p50", wire_us[i].PercentileUs(50),
                 "us"});
    const std::string exec = Labeled(names::kServerRequestUs, op);
    m.push_back({"server.execute_us." + name + ".p50",
                 RegistryQuantile(reg, exec, 0.5), "us"});
    m.push_back({"server.execute_us." + name + ".p99",
                 RegistryQuantile(reg, exec, 0.99), "us"});
  }
  m.push_back({"server.queue_wait_us.p50",
               RegistryQuantile(reg, names::kServerQueueWaitUs, 0.5), "us"});
  m.push_back({"server.queue_wait_us.p99",
               RegistryQuantile(reg, names::kServerQueueWaitUs, 0.99), "us"});
  m.push_back({"server.flush_us.p50",
               RegistryQuantile(reg, names::kServerFlushUs, 0.5), "us"});
  m.push_back({"server.shed", static_cast<double>(run.shed_delta), "count"});
  m.push_back({"server.deadline_expired",
               static_cast<double>(run.deadline_delta), "count"});
  m.push_back({"trace.joined_rpcs", static_cast<double>(joined.size()),
               "count"});
  m.push_back({"trace.server_within_rpc_ratio",
               Ratio(static_cast<double>(within),
                     static_cast<double>(joined.size())),
               "ratio"});

  // ledger
  for (const auto& [stage, metric] :
       {std::pair<const char*, const char*>{"prevalidate",
                                            names::kLedgerPrevalidateUs},
        {"commit", names::kLedgerCommitUs},
        {"seal", names::kLedgerSealUs},
        {"proof_build", names::kLedgerProofBuildUs}}) {
    m.push_back({std::string("ledger.") + stage + "_us.p50",
                 RegistryQuantile(reg, metric, 0.5), "us"});
    m.push_back({std::string("ledger.") + stage + "_us.p99",
                 RegistryQuantile(reg, metric, 0.99), "us"});
  }
  m.push_back({"ledger.journals_per_block",
               Ratio(appends, static_cast<double>(CounterOf(
                                  reg, names::kLedgerBlocksSealedTotal))),
               "journals"});

  // storage
  const double payload = appends * kPayloadBytes;
  m.push_back({"storage.fsyncs_per_append",
               Ratio(static_cast<double>(
                         CounterOf(reg, names::kStorageFsyncsTotal)),
                     appends),
               "count"});
  m.push_back({"storage.append_us.p50",
               RegistryQuantile(reg, names::kStorageAppendUs, 0.5), "us"});
  m.push_back({"storage.append_us.p99",
               RegistryQuantile(reg, names::kStorageAppendUs, 0.99), "us"});
  m.push_back({"storage.bytes_written_per_payload_byte",
               Ratio(static_cast<double>(
                         CounterOf(reg, names::kStorageAppendBytesTotal)),
                     payload),
               "ratio"});
  m.push_back({"storage.stored_bytes_per_user_byte",
               Ratio(static_cast<double>(run.stored_bytes_delta), payload),
               "ratio"});

  // accum: proof cache
  const double hits =
      static_cast<double>(run.cache_after.hits - run.cache_before.hits);
  const double misses =
      static_cast<double>(run.cache_after.misses - run.cache_before.misses);
  m.push_back({"proofcache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m.push_back({"proofcache.lookups", hits + misses, "count"});
  m.push_back({"proofcache.evictions",
               static_cast<double>(run.cache_after.evictions -
                                   run.cache_before.evictions),
               "count"});
  m.push_back({"proofcache.resident_bytes",
               static_cast<double>(run.cache_after.resident_bytes), "bytes"});

  // accum / cmtree / crypto / mirror: verifier replay
  Replay replay = RunReplay(plant, t, seed);
  *replay_ok = replay.ok;
  m.push_back({"accum.fam_verify_us", replay.fam_verify_us.PercentileUs(50),
               "us"});
  m.push_back({"accum.fam_batch_verify_us_per_journal",
               replay.fam_batch_us_per_journal.PercentileUs(50), "us"});
  m.push_back({"accum.fam_proof_bytes",
               replay.fam_proof_bytes.PercentileUs(50), "bytes"});
  m.push_back({"cmtree.clue_verify_us_per_entry",
               replay.clue_verify_us_per_entry.PercentileUs(50), "us"});
  m.push_back({"cmtree.clue_proof_bytes",
               replay.clue_proof_bytes.PercentileUs(50), "bytes"});
  m.push_back({"crypto.pi_c_verify_us", replay.pi_c_us.PercentileUs(50),
               "us"});
  m.push_back({"crypto.tx_sign_us", replay.tx_sign_us.PercentileUs(50),
               "us"});
  m.push_back({"crypto.receipt_verify_us",
               replay.receipt_verify_us.PercentileUs(50), "us"});
  m.push_back({"crypto.server_batch_verify_sigs",
               static_cast<double>(
                   CounterOf(reg, names::kCryptoBatchVerifySigsTotal)),
               "count"});
  m.push_back({"mirror.apply_us_per_journal",
               replay.mirror_apply_us_per_journal, "us"});

  // tracing overhead
  m.push_back({"trace.ops_per_s", ops_per_s, "ops/s"});
  m.push_back({"trace.untraced_ops_per_s", untraced_ops_per_s, "ops/s"});
  m.push_back({"trace.overhead_ratio", Ratio(untraced_ops_per_s, ops_per_s),
               "ratio"});
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if ((argc - 1) % 2 != 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = argv[i + 1];
    } else if (key == "--seed") {
      a->seed = std::strtoull(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0') return false;
    } else if (key == "--trace") {
      a->trace = std::atoi(argv[i + 1]);
    } else {
      return false;
    }
  }
  return a->seconds > 0 && a->seconds <= 120 &&
         (a->trace == 0 || a->trace == 1);
}

bool NamesValid(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!ValidMetricName(m.name)) {
      std::printf("invalid metric name: %s\n", m.name.c_str());
      return false;
    }
  }
  return true;
}

int Fail(const char* what, const std::string& detail) {
  std::fflush(stdout);
  std::fprintf(stderr, "ledger_bench: %s: %s\n", what, detail.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload ingest|audit|mixed --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Fail("unknown workload", args.workload);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int clients = std::min<int>(workload->clients, static_cast<int>(nproc));

  std::printf("workload %s  seed %" PRIu64 "  window %.1f s  trace %d\n",
              workload->name, args.seed, args.seconds, args.trace);
  std::printf(
      "facts {\"seed\": %" PRIu64 ", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"clients\": %d, \"server_workers\": %d, \"preload_journals\": %" PRIu64
      ", \"clues\": %" PRIu64 ", \"payload_bytes\": %zu, \"fractal_height\": "
      "%d, \"proof_cache_bytes\": %zu, \"storage\": \"%s\", "
      "\"flush_policy\": \"%s\", \"warmup_s\": %.1f, \"min_setups\": %d}\n",
      args.seed, nproc, PERFBENCH_BUILD_TYPE, clients, kServerWorkers,
      workload->preload, kNumClues, kPayloadBytes, kFractalHeight,
      LedgerOptions().proof_cache_bytes,
      workload->streams ? "FileStreamStore on MemEnv (no device)"
                        : "none (the ledger serves from memory)",
      workload->streams ? "ledger default: sync per committed journal + "
                          "watermark sync, sync per sealed block"
                        : "none",
      kWarmupSeconds, args.trace == 0 ? kMinSetups : 1);

  auto set_up = [&](int index, bool traced, double* seconds,
                    std::unique_ptr<Plant>* out) {
    const uint64_t t0 = NowNs();
    auto plant = std::make_unique<Plant>(*workload, args.seed, index, clients,
                                         traced);
    Status st = plant->Start();
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    *out = std::move(plant);
    return st;
  };

  if (args.trace == 0) {
    std::vector<double> setup_s;
    std::unique_ptr<Plant> plant;
    double spent = 0;
    for (int k = 0; k < kMaxSetups; ++k) {
      if (k >= kMinSetups && spent >= kSetupBudgetSeconds) break;
      plant.reset();
      double s = 0;
      Status st = set_up(k, /*traced=*/false, &s, &plant);
      if (!st.ok()) return Fail("set-up failed", st.ToString());
      setup_s.push_back(s);
      spent += s;
    }
    RunResult run = Drive(plant.get(), args.seed, args.seconds, false);
    std::string gate;
    const bool gate_ok = run.fatal.empty() && Gate(plant.get(), &gate);
    ClientResult& t = run.total;
    const uint64_t attempted = Attempted(t);
    const uint64_t failed = Failed(t);
    // Whole-window figures: every verified answer of the window counts.
    const LatencySampler latency = OkLatencies(t);
    const double ops_per_s =
        Ratio(static_cast<double>(latency.count()), run.elapsed_s);
    const double journals_per_s =
        Ratio(static_cast<double>(VerifiedJournals(t)), run.elapsed_s);

    std::printf("end-to-end (%d closed-loop clients, %.2f s window)\n",
                clients, run.elapsed_s);
    PrintLine("ops_per_s", ops_per_s, "ops/s");
    PrintLine("op_p50_us", latency.PercentileUs(50), "us",
              CountNote(latency.count(), 0.5));
    PrintLine("verified_journals_per_s", journals_per_s, "journals/s");
    std::printf("  per op class:\n");
    PrintClassLatencies(t);
    if (workload->streams) {
      PrintLine("stored_bytes_per_user_byte",
                Ratio(static_cast<double>(run.stored_bytes_delta),
                      static_cast<double>(OkOps(t, kAppend) * kPayloadBytes)),
                "ratio");
    }
    PrintLine("error_rate",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio");
    PrintLine("setup_s", Median(setup_s), "s",
              "(median of " + std::to_string(setup_s.size()) + " set-ups)");
    PrintOutcomes(t);
    std::printf("gate: %s\n", run.fatal.empty() ? gate.c_str()
                                                : ("breach: " + run.fatal).c_str());
    std::vector<Metric> metrics = {
        {"ops_per_s", ops_per_s, "ops/s"},
        {"op_p50_us", latency.PercentileUs(50), "us"},
        {"verified_journals_per_s", journals_per_s, "journals/s"},
        {"setup_s", Median(setup_s), "s"},
    };
    const bool correct =
        gate_ok && attempted > 0 && NamesValid(metrics);
    std::printf("%s\n",
                ResultJson(correct, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  // Traced run: an untraced window for the overhead baseline, then the
  // traced window on a fresh set-up.
  double untraced_ops_per_s = 0;
  {
    std::unique_ptr<Plant> plant;
    double s = 0;
    Status st = set_up(0, /*traced=*/false, &s, &plant);
    if (!st.ok()) return Fail("set-up failed", st.ToString());
    RunResult run = Drive(plant.get(), args.seed, args.seconds, false);
    std::string gate;
    if (!run.fatal.empty() || !Gate(plant.get(), &gate)) {
      std::printf("gate: %s\n", run.fatal.empty() ? gate.c_str()
                                                  : run.fatal.c_str());
      std::printf("%s\n", ResultJson(false, std::max<uint64_t>(
                                                1, Attempted(run.total)),
                                     Failed(run.total), {})
                              .c_str());
      return 1;
    }
    untraced_ops_per_s =
        Ratio(static_cast<double>(OkOps(run.total)), run.elapsed_s);
  }
  std::unique_ptr<Plant> plant;
  double s = 0;
  Status st = set_up(1, /*traced=*/true, &s, &plant);
  if (!st.ok()) return Fail("set-up failed", st.ToString());
  RunResult run = Drive(plant.get(), args.seed, args.seconds, true);
  std::string gate;
  const bool gate_ok = run.fatal.empty() && Gate(plant.get(), &gate);
  bool replay_ok = false;
  std::vector<Metric> metrics = PerLayerMetrics(
      run, plant.get(), untraced_ops_per_s, args.seed, &replay_ok);
  const std::string trace_path = std::string("traces/") + workload->name +
                                 "-seed" + std::to_string(args.seed) +
                                 ".jsonl";
  WriteTrace(trace_path, run, plant.get());
  std::printf("per-layer (traced window %.2f s; spans in %s)\n", run.elapsed_s,
              trace_path.c_str());
  for (const Metric& metric : metrics) {
    PrintLine(metric.name, metric.value, metric.unit.c_str());
  }
  for (int k = 0; k < kNumClasses; ++k) {
    OpBreakdown b = Breakdown(run.total, k);
    if (b.op_us.count() == 0) continue;
    std::printf("  %-12s op p50 %.1f us = client self p50 %.1f + rpc p50 %.1f "
                "(n=%zu)\n",
                kClassNames[k], b.op_us.PercentileUs(50),
                b.self_us.PercentileUs(50), b.rpc_us.PercentileUs(50),
                b.op_us.count());
  }
  PrintOutcomes(run.total);
  std::printf("gate: %s%s\n",
              run.fatal.empty() ? gate.c_str() : ("breach: " + run.fatal).c_str(),
              replay_ok ? "; verifier replay passed" : "; verifier replay FAILED");
  const uint64_t attempted = Attempted(run.total);
  const bool correct =
      gate_ok && replay_ok && attempted > 0 && NamesValid(metrics);
  std::printf("%s\n", ResultJson(correct, std::max<uint64_t>(1, attempted),
                                 Failed(run.total), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
