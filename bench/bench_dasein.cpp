// Figure 7 reproduction: latency breakdown of Dasein verification
// (what-when-who) over an audit of 1000 sequential journals.
//
//  - what: DaseinAuditor::Audit over a LocalTransport, payload sizes
//    256B - 256KB, one signature per journal and no time journals. The
//    per-journal cost is the auditor's audit_what stage — each journal's
//    fetch, its tx-hash binding and its payload digest, plus the header
//    chain — divided by the journal count. It grows with payload hashing
//    (~4x in paper).
//    A build with LEDGERDB_OBS_OFF compiles the stage out and reports 0.
//
// The when and who panels are bench-level loops over the same evidence
// the auditor checks, not the auditor itself:
//
//  - when: three timestamp configurations — direct TSA pegging, T-Ledger
//    with the audited ledger appending at 1 TPS (TL-1), and at 10 TPS
//    (TL-10). Direct TSA evidence is an RFC3161-style token whose
//    authority certificate chain must be validated per attestation; with
//    T-Ledger the TSA binding is one finalization shared by every
//    submission in its window, so its signature check amortizes (the
//    paper reports ~50x reduction for TL-10 vs TSA).
//    The auditor itself checks a direct-TSA journal with one signature
//    and no certificate chain, and a T-Ledger journal with its receipt
//    signature plus its window's finalization once per audit, so its own
//    when stage would still rank TL-1 above TSA.
//  - who: signature verification with 1-7 signers (TL-1, 256B). Linear in
//    the signer count (~12x from 256B to 256KB payloads is attributed to
//    who because the request-hash covers the payload). Ordinary journals
//    carry one signature, so the co-signers are attached here.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/dasein_auditor.h"
#include "bench/bench_util.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

namespace {

constexpr int kJournals = 1000;
constexpr int kFractalHeight = 10;

struct Fixture {
  SimulatedClock clock{0};
  CertificateAuthority ca{KeyPair::FromSeedString("bench-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp = KeyPair::FromSeedString("bench-lsp");
  KeyPair user = KeyPair::FromSeedString("bench-user");
  KeyPair tsa_key = KeyPair::FromSeedString("bench-tsa");
  Member tsa_member;
  TsaService tsa{tsa_key, &clock};
  std::unique_ptr<TLedger> tledger;
  std::unique_ptr<Ledger> ledger;
  uint64_t nonce = 0;

  Fixture() {
    registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
    registry.Register(ca.Certify("user", user.public_key(), Role::kUser));
    tsa_member = ca.Certify("tsa", tsa_key.public_key(), Role::kTsa);
    registry.Register(tsa_member);
    LedgerOptions options;
    options.fractal_height = kFractalHeight;
    ledger = std::make_unique<Ledger>("lg://bench", options, &clock, lsp,
                                      &registry);
  }

  uint64_t Append(size_t payload_bytes) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://bench";
    tx.payload = Bytes(payload_bytes, static_cast<uint8_t>(nonce));
    tx.nonce = nonce++;
    tx.client_ts = clock.Now();
    tx.Sign(user);
    uint64_t jsn = 0;
    ledger->Append(tx, &jsn);
    return jsn;
  }
};

/// when scenario: builds 1000 journals at `tps`, anchoring each journal,
/// then measures the per-journal cost of validating the time evidence.
double WhenLatencyUs(bool use_tledger, int tps) {
  Fixture fx;
  if (use_tledger) {
    TLedger::Options topt;
    topt.finalize_interval = kMicrosPerSecond;  // dt = 1s
    topt.tau_delta = kMicrosPerSecond;
    fx.tledger = std::make_unique<TLedger>(&fx.tsa, &fx.clock,
                                           KeyPair::FromSeedString("tl-lsp"),
                                           topt);
    fx.ledger->AttachTLedger(fx.tledger.get());
  } else {
    fx.ledger->AttachDirectTsa(&fx.tsa);
  }
  for (int i = 0; i < kJournals; ++i) {
    fx.Append(256);
    fx.ledger->AnchorTime(nullptr);
    fx.clock.Advance(kMicrosPerSecond / tps);
    if (use_tledger) fx.tledger->Tick();
  }
  if (use_tledger) fx.tledger->ForceFinalize();

  const auto& time_journals = fx.ledger->time_journals();
  // Cache of already-validated TSA finalizations (keyed by attested
  // digest): the T-Ledger audit shares one TSA check across its window.
  std::unordered_map<std::string, bool> attestation_cache;
  double secs = TimeSeconds([&] {
    for (const TimeJournalInfo& info : time_journals) {
      const TimeEvidence& ev = info.evidence;
      if (ev.mode == TimeNotaryMode::kDirectTsa) {
        // RFC3161-style validation: the token signature plus the TSA's CA
        // certificate chain, per attestation.
        if (!ev.attestation.Verify(fx.tsa.public_key())) std::abort();
        if (!fx.ca.Validate(fx.tsa_member)) std::abort();
      } else {
        TimeProof proof;
        if (!fx.tledger->GetTimeProof(ev.tledger_index, &proof).ok()) {
          std::abort();
        }
        std::string key = proof.finalization.digest.ToHex();
        auto it = attestation_cache.find(key);
        if (it == attestation_cache.end()) {
          bool ok = proof.finalization.Verify(fx.tsa.public_key());
          attestation_cache.emplace(key, ok);
          if (!ok) std::abort();
        }
        // Membership of this submission under the finalized root (cheap
        // hash path) always runs.
        if (proof.membership.tree_size != proof.finalized_size) std::abort();
        if (!ShrubsAccumulator::VerifyProof(ev.ledger_digest, proof.membership,
                                            proof.finalization.digest)) {
          std::abort();
        }
      }
    }
  });
  return secs * 1e6 / kJournals;
}

/// what scenario: one Dasein audit over a LocalTransport of 1000 journals
/// at a payload size; the per-journal cost is read from its audit_what
/// stage.
double WhatLatencyUs(size_t payload_bytes) {
  Fixture fx;
  for (int i = 0; i < kJournals; ++i) fx.Append(payload_bytes);
  Receipt receipt;
  if (!fx.ledger->GetReceipt(fx.ledger->NumJournals() - 1, &receipt).ok()) {
    std::abort();
  }
  LocalTransport transport(fx.ledger.get());
  LedgerClient::Options copts;
  copts.lsp_key = fx.lsp.public_key();
  copts.fractal_height = kFractalHeight;
  DaseinAuditor::Context context;
  context.members = &fx.registry;
  context.tsa_key = fx.tsa.public_key();
  DaseinAuditor auditor(&transport, copts, context);
  obs::Histogram* what =
      obs::MetricsRegistry::Default().GetHistogram(obs::names::kAuditWhatUs);
  what->Reset();
  AuditReport report;
  if (!auditor.Audit(receipt, {}, &report).ok()) std::abort();
  return static_cast<double>(what->Sum()) /
         static_cast<double>(report.journals_replayed);
}

/// who scenario: per-journal non-repudiation cost with `signers`
/// signatures (1 client + signers-1 co-signers).
double WhoLatencyUs(int signers) {
  Fixture fx;
  std::vector<KeyPair> cosigners;
  for (int s = 0; s < signers - 1; ++s) {
    cosigners.push_back(KeyPair::FromSeedString("cosigner-" + std::to_string(s)));
  }
  std::vector<Journal> journals;
  for (int i = 0; i < kJournals; ++i) {
    uint64_t jsn = fx.Append(256);
    Journal journal;
    fx.ledger->GetJournal(jsn, &journal);
    Digest msg = journal.EndorsementHash();
    for (const KeyPair& co : cosigners) {
      journal.endorsements.push_back({co.public_key(), co.Sign(msg)});
    }
    journals.push_back(std::move(journal));
  }
  double secs = TimeSeconds([&] {
    for (const Journal& journal : journals) {
      if (!VerifySignature(journal.client_key, journal.request_hash,
                           journal.client_sig)) {
        std::abort();
      }
      Digest msg = journal.EndorsementHash();
      for (const Endorsement& e : journal.endorsements) {
        if (!VerifySignature(e.key, msg, e.signature)) std::abort();
      }
    }
  });
  return secs * 1e6 / kJournals;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  Header("Figure 7 (left): when latency per journal, 256B, Sig-1, dt=1s");
  std::printf("%-8s %12s\n", "config", "us/journal");
  for (auto [name, every] : {std::pair<const char*, int>{"TSA", 0},
                             {"TL-1", 1}, {"TL-10", 10}}) {
    double us = WhenLatencyUs(every != 0, every == 0 ? 1 : every);
    std::printf("%-8s %12.1f\n", name, us);
    json.Add(std::string("when/") + name, 1e6 / us, us, us);
  }

  Header("Figure 7 (middle): what latency per journal vs payload (TL-1, Sig-1)");
  std::printf("%-8s %12s\n", "payload", "us/journal");
  for (size_t bytes : {256UL, 4096UL, 65536UL, 262144UL}) {
    double us = WhatLatencyUs(bytes);
    std::printf("%-8s %12.1f\n", VolumeLabel(1, bytes).c_str(), us);
    json.Add("what/" + VolumeLabel(1, bytes), 1e6 / us, us, us);
  }

  Header("Figure 7 (right): who latency per journal vs signers (TL-1, 256B)");
  std::printf("%-8s %12s\n", "signers", "us/journal");
  for (int signers : {1, 3, 5, 7}) {
    double us = WhoLatencyUs(signers);
    std::printf("Sig-%-4d %12.1f\n", signers, us);
    json.Add("who/sig-" + std::to_string(signers), 1e6 / us, us, us);
  }

  std::printf(
      "\nExpected paper shape: TL-10 when-latency ~50x below direct TSA;\n"
      "what grows ~4x and who ~12x from 256B to 256KB; who scales linearly\n"
      "with the signer count.\n");
  return 0;
}
