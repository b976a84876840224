// Verified checkpoints: audited snapshot + tail-replay recovery.
//
// The contract under test: recovery through a checkpoint is bit-identical
// to full stream replay in every reachable state — including states with
// post-checkpoint occults and purges rewriting records below the
// watermark — and a checkpoint damaged in ANY byte is rejected in favor
// of an older candidate or full replay, never silently trusted.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/dasein_auditor.h"
#include "client/ledger_client.h"
#include "ledger/ledger.h"
#include "ledger/sharded.h"
#include "storage/checkpoint.h"
#include "storage/fault_env.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

constexpr char kUri[] = "lg://ckpt";
constexpr char kJournalPath[] = "journals.log";
constexpr char kBlockPath[] = "blocks.log";
constexpr char kCkptBase[] = "ckpt";

Bytes ReadWholeFile(Env* env, const std::string& path) {
  std::unique_ptr<File> f;
  EXPECT_TRUE(env->OpenFile(path, &f).ok());
  uint64_t size = 0;
  EXPECT_TRUE(f->Size(&size).ok());
  Bytes out;
  if (size > 0) {
    EXPECT_TRUE(f->Read(0, size, &out).ok());
  }
  return out;
}

void WriteWholeFile(Env* env, const std::string& path, const Bytes& data) {
  std::unique_ptr<File> f;
  ASSERT_TRUE(env->OpenFile(path, &f).ok());
  ASSERT_TRUE(f->Truncate(0).ok());
  ASSERT_TRUE(f->Write(0, Slice(data)).ok());
  ASSERT_TRUE(f->Sync().ok());
}

struct Snapshot {
  Digest fam, clue, state;
};

/// Everything a recovered ledger exposes that must be bit-identical
/// between the checkpoint path and full replay.
struct StateFingerprint {
  uint64_t journals = 0;
  uint64_t purged_boundary = 0;
  uint64_t occulted = 0;
  size_t blocks = 0;
  Digest fam, clue, state, last_block;

  static StateFingerprint Of(const Ledger& ledger) {
    StateFingerprint fp;
    fp.journals = ledger.NumJournals();
    fp.purged_boundary = ledger.PurgedBoundary();
    fp.occulted = ledger.OccultedCount();
    fp.blocks = ledger.blocks().size();
    fp.fam = ledger.FamRoot();
    fp.clue = ledger.ClueRoot();
    fp.state = ledger.StateRoot();
    if (!ledger.blocks().empty()) fp.last_block = ledger.blocks().back().Hash();
    return fp;
  }

  void ExpectEq(const StateFingerprint& other) const {
    EXPECT_EQ(journals, other.journals);
    EXPECT_EQ(purged_boundary, other.purged_boundary);
    EXPECT_EQ(occulted, other.occulted);
    EXPECT_EQ(blocks, other.blocks);
    EXPECT_EQ(fam, other.fam);
    EXPECT_EQ(clue, other.clue);
    EXPECT_EQ(state, other.state);
    EXPECT_EQ(last_block, other.last_block);
  }
};

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : ca_(KeyPair::FromSeedString("ck-ca")),
        lsp_(KeyPair::FromSeedString("ck-lsp")),
        alice_(KeyPair::FromSeedString("ck-alice")),
        dba_(KeyPair::FromSeedString("ck-dba")),
        regulator_(KeyPair::FromSeedString("ck-reg")),
        tsa_key_(KeyPair::FromSeedString("ck-tsa")),
        registry_(&ca_) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(
        ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
    options_.sync_occult_erasure = true;
  }

  struct OpenedLedger {
    std::unique_ptr<FileStreamStore> jf, bf;
    std::unique_ptr<CheckpointStore> ckpt;
    std::unique_ptr<SimulatedClock> clock;
    std::unique_ptr<TsaService> tsa;
    std::unique_ptr<Ledger> ledger;
    RecoveryInfo info;
  };

  /// Builds a fresh ledger over `env` (genesis included) with a checkpoint
  /// store attached.
  Status Create(Env* env, OpenedLedger* out) {
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kJournalPath, &out->jf));
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kBlockPath, &out->bf));
    out->ckpt = std::make_unique<CheckpointStore>(env, kCkptBase);
    out->clock = std::make_unique<SimulatedClock>(1000 * kMicrosPerSecond);
    out->tsa = std::make_unique<TsaService>(tsa_key_, out->clock.get());
    out->ledger = std::make_unique<Ledger>(
        kUri, options_, out->clock.get(), lsp_, &registry_,
        LedgerStorage{out->jf.get(), out->bf.get(), out->ckpt.get()});
    LEDGERDB_RETURN_IF_ERROR(out->ledger->init_status());
    out->ledger->AttachDirectTsa(out->tsa.get());
    return Status::OK();
  }

  /// Recovers from `env`'s streams; `with_checkpoints` selects whether the
  /// checkpoint store is offered (full replay otherwise).
  Status Reopen(Env* env, bool with_checkpoints, OpenedLedger* out) {
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kJournalPath, &out->jf));
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kBlockPath, &out->bf));
    out->ckpt = std::make_unique<CheckpointStore>(env, kCkptBase);
    out->clock = std::make_unique<SimulatedClock>(1000 * kMicrosPerSecond);
    LedgerStorage storage{out->jf.get(), out->bf.get(),
                          with_checkpoints ? out->ckpt.get() : nullptr};
    return Ledger::Recover(kUri, options_, out->clock.get(), lsp_, &registry_,
                           storage, &out->ledger, &out->info);
  }

  Status Append(OpenedLedger* ctx, const std::string& payload,
                const std::string& clue) {
    return Append(ctx, payload, std::vector<std::string>{clue});
  }

  Status Append(OpenedLedger* ctx, const std::string& payload,
                std::vector<std::string> clues) {
    ClientTransaction tx;
    tx.ledger_uri = kUri;
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = ctx->clock->Now();
    tx.Sign(alice_);
    Status s = ctx->ledger->Append(tx, nullptr);
    ctx->clock->Advance(kMicrosPerSecond);
    return s;
  }

  Status Occult(OpenedLedger* ctx, uint64_t jsn) {
    Digest request = Ledger::OccultRequestHash(kUri, jsn);
    std::vector<Endorsement> sigs = {
        {dba_.public_key(), dba_.Sign(request)},
        {regulator_.public_key(), regulator_.Sign(request)}};
    return ctx->ledger->Occult(jsn, sigs, nullptr);
  }

  Status OccultByClue(OpenedLedger* ctx, const std::string& clue) {
    Digest request = Ledger::OccultClueRequestHash(kUri, clue);
    std::vector<Endorsement> sigs = {
        {dba_.public_key(), dba_.Sign(request)},
        {regulator_.public_key(), regulator_.Sign(request)}};
    return ctx->ledger->OccultByClue(clue, sigs, nullptr, nullptr);
  }

  Status Purge(OpenedLedger* ctx, uint64_t before) {
    Digest request = Ledger::PurgeRequestHash(kUri, before);
    std::vector<Endorsement> sigs = {
        {dba_.public_key(), dba_.Sign(request)},
        {alice_.public_key(), alice_.Sign(request)}};
    return ctx->ledger->Purge(before, sigs, {}, nullptr);
  }

  /// A fresh client's audited refresh replays the recovered ledger's
  /// deltas from an empty mirror and must reproduce its signed roots.
  void ExpectReplayReproduces(Ledger* ledger) {
    LocalTransport transport(ledger);
    LedgerClient::Options copts;
    copts.lsp_key = ledger->lsp_key();
    copts.fractal_height = options_.fractal_height;
    LedgerClient client(&transport, KeyPair::FromSeedString("ck-reader"),
                        copts);
    Status s = client.RefreshTrustedRoots();
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(client.mirror().journal_count(), ledger->NumJournals());
    EXPECT_EQ(client.mirror().fam_root(), ledger->FamRoot());
    EXPECT_EQ(client.mirror().clue_root(), ledger->ClueRoot());
    EXPECT_EQ(client.mirror().state_root(), ledger->StateRoot());
  }

  void ExpectAuditPasses(Ledger* ledger) {
    LocalTransport transport(ledger);
    LedgerClient::Options copts;
    copts.lsp_key = ledger->lsp_key();
    copts.fractal_height = options_.fractal_height;
    DaseinAuditor::Context context;
    context.members = &registry_;
    context.tsa_key = tsa_key_.public_key();
    Receipt receipt;
    ASSERT_TRUE(ledger->GetReceipt(ledger->NumJournals() - 1, &receipt).ok());
    AuditReport report;
    Status s =
        DaseinAuditor(&transport, copts, context).Audit(receipt, {}, &report);
    EXPECT_TRUE(s.ok()) << s.ToString() << " — " << report.failure_reason;
    EXPECT_TRUE(report.passed) << report.failure_reason;
  }

  CertificateAuthority ca_;
  KeyPair lsp_, alice_, dba_, regulator_, tsa_key_;
  MemberRegistry registry_;
  LedgerOptions options_;
  uint64_t nonce_ = 0;
};

// ---------------------------------------------------------------------------
// Roundtrip: checkpoint + tail replay ≡ full replay
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, TailReplayBitIdenticalToFullReplay) {
  MemEnv env;
  uint64_t watermark = 0;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(
          Append(&live, "pre-" + std::to_string(i), "acct-" + std::to_string(i % 3))
              .ok());
    }
    ASSERT_TRUE(live.ledger->AnchorTime(nullptr).ok());
    ASSERT_TRUE(Occult(&live, 2).ok());
    ASSERT_TRUE(Purge(&live, 4).ok());
    uint32_t slot = 99;
    ASSERT_TRUE(live.ledger->WriteCheckpoint(&slot).ok());
    EXPECT_EQ(slot, 0u);
    watermark = live.ledger->NumJournals();
    // Tail past the watermark: sealed blocks plus a pending suffix.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          Append(&live, "post-" + std::to_string(i), "acct-" + std::to_string(i % 3))
              .ok());
    }
  }

  OpenedLedger fast, slow;
  Status s = Reopen(&env, /*with_checkpoints=*/true, &fast);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(fast.info.used_checkpoint);
  EXPECT_EQ(fast.info.checkpoint_watermark, watermark);
  EXPECT_EQ(fast.info.tail_journals, fast.ledger->NumJournals() - watermark);
  EXPECT_EQ(fast.info.reconciled_records, 0u);
  EXPECT_EQ(fast.info.candidates_tried, 1u);
  EXPECT_EQ(fast.info.candidates_rejected, 0u);

  s = Reopen(&env, /*with_checkpoints=*/false, &slow);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(slow.info.used_checkpoint);

  StateFingerprint::Of(*fast.ledger).ExpectEq(StateFingerprint::Of(*slow.ledger));

  // The adopted fam tree must serve proofs that verify against the root —
  // and the external auditor must accept the checkpoint-recovered ledger.
  for (uint64_t jsn : {watermark - 1, fast.ledger->NumJournals() - 1}) {
    Journal journal;
    ASSERT_TRUE(fast.ledger->GetJournal(jsn, &journal).ok());
    FamProof proof;
    ASSERT_TRUE(fast.ledger->GetProof(jsn, &proof).ok());
    EXPECT_TRUE(
        Ledger::VerifyJournalProof(journal, proof, fast.ledger->FamRoot()));
  }
  ExpectAuditPasses(fast.ledger.get());
}

TEST_F(CheckpointTest, ReplayReproducesRecoveredLedger) {
  // Multi-clue journals, time journals and occult-by-clue on both sides of
  // the checkpoint, and a purge that prunes fam epochs after it (a
  // checkpoint written after a pruning purge is not loadable, so the purge
  // rewrites records below the watermark instead).
  options_.prune_fam_on_purge = true;
  MemEnv env;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(Append(&live, "pre-" + std::to_string(i),
                         {"acct-" + std::to_string(i % 3), "shared"})
                      .ok());
    }
    ASSERT_TRUE(live.ledger->AnchorTime(nullptr).ok());
    ASSERT_TRUE(OccultByClue(&live, "acct-1").ok());
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
    ASSERT_TRUE(Purge(&live, 10).ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(Append(&live, "post-" + std::to_string(i),
                         {"acct-" + std::to_string(i % 3), "shared", "tail"})
                      .ok());
    }
    ASSERT_TRUE(OccultByClue(&live, "tail").ok());
    ASSERT_TRUE(live.ledger->AnchorTime(nullptr).ok());
  }

  OpenedLedger fast, slow;
  Status s = Reopen(&env, /*with_checkpoints=*/true, &fast);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(fast.info.used_checkpoint);
  EXPECT_GT(fast.info.tail_journals, 0u);
  EXPECT_GT(fast.info.reconciled_records, 0u);
  s = Reopen(&env, /*with_checkpoints=*/false, &slow);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(slow.info.used_checkpoint);
  StateFingerprint::Of(*fast.ledger).ExpectEq(StateFingerprint::Of(*slow.ledger));

  ExpectReplayReproduces(slow.ledger.get());
  ExpectReplayReproduces(fast.ledger.get());
  ExpectAuditPasses(fast.ledger.get());
}

TEST_F(CheckpointTest, PostCheckpointMutationsBelowWatermarkReconcile) {
  MemEnv env;
  uint64_t watermark = 0;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 11; ++i) {
      ASSERT_TRUE(
          Append(&live, "pre-" + std::to_string(i), "acct-" + std::to_string(i % 3))
              .ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
    watermark = live.ledger->NumJournals();
    // Rewrite records BELOW the watermark after the checkpoint: an occult
    // erases a payload in place, a purge replaces whole records with
    // tombstones. The snapshot's copies of those records are now stale.
    ASSERT_TRUE(Occult(&live, 5).ok());
    ASSERT_TRUE(Purge(&live, 3).ok());
    ASSERT_TRUE(Append(&live, "tail-0", "acct-0").ok());
    ASSERT_TRUE(Append(&live, "tail-1", "acct-1").ok());
  }

  OpenedLedger fast, slow;
  Status s = Reopen(&env, /*with_checkpoints=*/true, &fast);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(fast.info.used_checkpoint);
  EXPECT_EQ(fast.info.checkpoint_watermark, watermark);
  // The occulted record and the tombstoned ones diverge from the snapshot
  // and must be re-validated + adopted from the stream.
  EXPECT_GE(fast.info.reconciled_records, 4u);

  s = Reopen(&env, /*with_checkpoints=*/false, &slow);
  ASSERT_TRUE(s.ok()) << s.ToString();
  StateFingerprint::Of(*fast.ledger).ExpectEq(StateFingerprint::Of(*slow.ledger));
  ExpectAuditPasses(fast.ledger.get());
}

TEST_F(CheckpointTest, ErasedPayloadWithoutOccultFlagRejected) {
  MemEnv env;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 11; ++i) {
      ASSERT_TRUE(Append(&live, "pre-" + std::to_string(i), "acct-0").ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
  }
  // Below the watermark, cut journal 5's payload to nothing with the
  // occult flag clear. The record now diverges from the snapshot, so the
  // reconcile path re-validates it, and a clean full replay must not
  // adopt it either.
  {
    std::unique_ptr<FileStreamStore> jf;
    ASSERT_TRUE(FileStreamStore::Open(&env, kJournalPath, &jf).ok());
    Bytes raw;
    ASSERT_TRUE(jf->Read(5, &raw).ok());
    Journal journal;
    ASSERT_TRUE(Journal::Deserialize(raw, &journal));
    ASSERT_FALSE(journal.occulted);
    journal.payload.clear();
    ASSERT_TRUE(jf->Overwrite(5, Slice(journal.Serialize())).ok());
  }
  OpenedLedger reopened;
  Status s = Reopen(&env, /*with_checkpoints=*/true, &reopened);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("jsn 5"), std::string::npos) << s.ToString();
}

// ---------------------------------------------------------------------------
// Tamper rejection: any byte
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, EveryManifestByteFlipRejected) {
  MemEnv env;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(Append(&live, "m-" + std::to_string(i), "acct-0").ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
  }
  OpenedLedger reference;
  ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/false, &reference).ok());
  StateFingerprint want = StateFingerprint::Of(*reference.ledger);
  reference = OpenedLedger{};

  const std::string path = std::string(kCkptBase) + ".ckpt.0";
  const Bytes pristine = ReadWholeFile(&env, path);
  ASSERT_FALSE(pristine.empty());
  for (size_t i = 0; i < pristine.size(); ++i) {
    SCOPED_TRACE("manifest byte " + std::to_string(i));
    Bytes tampered = pristine;
    tampered[i] ^= 0x01;
    WriteWholeFile(&env, path, tampered);
    OpenedLedger again;
    Status s = Reopen(&env, /*with_checkpoints=*/true, &again);
    // A tampered manifest can never be loaded: either its frame fails and
    // it is not a candidate at all, or verification rejects it — recovery
    // falls back to full replay and lands bit-identical.
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(again.info.used_checkpoint);
    StateFingerprint::Of(*again.ledger).ExpectEq(want);
  }
  WriteWholeFile(&env, path, pristine);
}

TEST_F(CheckpointTest, SnapshotByteFlipSweepRejected) {
  MemEnv env;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(Append(&live, "s-" + std::to_string(i), "acct-1").ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
  }
  OpenedLedger reference;
  ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/false, &reference).ok());
  StateFingerprint want = StateFingerprint::Of(*reference.ledger);
  reference = OpenedLedger{};

  const std::string path = std::string(kCkptBase) + ".snap.0";
  const Bytes pristine = ReadWholeFile(&env, path);
  ASSERT_GT(pristine.size(), 200u);
  // Every byte position is protected by the manifest's SHA-256 binding;
  // sweep a spread of positions (including both ends) — each flip must
  // force the full-replay fallback with a bit-identical result.
  std::vector<size_t> positions = {0, 1, pristine.size() - 1};
  for (size_t i = 2; i + 1 < pristine.size(); i += pristine.size() / 61 + 1) {
    positions.push_back(i);
  }
  for (size_t pos : positions) {
    SCOPED_TRACE("snapshot byte " + std::to_string(pos));
    Bytes tampered = pristine;
    tampered[pos] ^= 0x80;
    WriteWholeFile(&env, path, tampered);
    OpenedLedger again;
    Status s = Reopen(&env, /*with_checkpoints=*/true, &again);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(again.info.used_checkpoint);
    EXPECT_EQ(again.info.candidates_rejected, 1u);
    StateFingerprint::Of(*again.ledger).ExpectEq(want);
  }
  WriteWholeFile(&env, path, pristine);
}

// ---------------------------------------------------------------------------
// Fallback ladder + slot rotation
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FallbackLadderNewestThenOlderThenFullReplay) {
  MemEnv env;
  uint64_t w1 = 0, w2 = 0;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Append(&live, "a-" + std::to_string(i), "acct-0").ok());
    }
    uint32_t slot = 99;
    ASSERT_TRUE(live.ledger->WriteCheckpoint(&slot).ok());
    EXPECT_EQ(slot, 0u);
    w1 = live.ledger->NumJournals();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Append(&live, "b-" + std::to_string(i), "acct-1").ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(&slot).ok());
    EXPECT_EQ(slot, 1u);  // two-slot rotation: the older slot is preserved
    w2 = live.ledger->NumJournals();
    ASSERT_TRUE(Append(&live, "tail", "acct-2").ok());
  }
  ASSERT_GT(w2, w1);

  // Intact: the newest checkpoint (slot 1, watermark w2) wins.
  {
    OpenedLedger again;
    ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/true, &again).ok());
    EXPECT_TRUE(again.info.used_checkpoint);
    EXPECT_EQ(again.info.checkpoint_watermark, w2);
    EXPECT_EQ(again.info.candidates_tried, 1u);
  }

  OpenedLedger reference;
  ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/false, &reference).ok());
  StateFingerprint want = StateFingerprint::Of(*reference.ledger);
  reference = OpenedLedger{};

  // Newest snapshot damaged → ladder falls back to the older checkpoint.
  const std::string newest = std::string(kCkptBase) + ".snap.1";
  Bytes pristine = ReadWholeFile(&env, newest);
  Bytes tampered = pristine;
  tampered[tampered.size() / 2] ^= 0xff;
  WriteWholeFile(&env, newest, tampered);
  {
    OpenedLedger again;
    ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/true, &again).ok());
    EXPECT_TRUE(again.info.used_checkpoint);
    EXPECT_EQ(again.info.checkpoint_watermark, w1);
    EXPECT_EQ(again.info.candidates_tried, 2u);
    EXPECT_EQ(again.info.candidates_rejected, 1u);
    StateFingerprint::Of(*again.ledger).ExpectEq(want);
  }

  // Both damaged → full replay, still bit-identical.
  const std::string older = std::string(kCkptBase) + ".snap.0";
  Bytes older_pristine = ReadWholeFile(&env, older);
  Bytes older_tampered = older_pristine;
  older_tampered[3] ^= 0x10;
  WriteWholeFile(&env, older, older_tampered);
  {
    OpenedLedger again;
    ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/true, &again).ok());
    EXPECT_FALSE(again.info.used_checkpoint);
    EXPECT_EQ(again.info.candidates_rejected, 2u);
    StateFingerprint::Of(*again.ledger).ExpectEq(want);
  }
}

TEST_F(CheckpointTest, SlotRotationAlternatesAndKeepsFallback) {
  MemEnv env;
  OpenedLedger live;
  ASSERT_TRUE(Create(&env, &live).ok());
  std::vector<uint32_t> slots;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(Append(&live, "r" + std::to_string(round) + "-" +
                                    std::to_string(i),
                         "acct-0")
                      .ok());
    }
    uint32_t slot = 99;
    ASSERT_TRUE(live.ledger->WriteCheckpoint(&slot).ok());
    slots.push_back(slot);
  }
  EXPECT_EQ(slots, (std::vector<uint32_t>{0, 1, 0}));
  // Both slots hold valid checkpoints; the overwritten one is the older.
  std::vector<CheckpointEntry> entries;
  ASSERT_TRUE(live.ckpt->List(&entries).ok());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].status.ok());
  EXPECT_TRUE(entries[1].status.ok());
  EXPECT_GT(entries[0].manifest.watermark, entries[1].manifest.watermark);
}

TEST_F(CheckpointTest, OptionsFingerprintMismatchRejected) {
  MemEnv env;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Append(&live, "o-" + std::to_string(i), "acct-0").ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
  }
  // Same streams, different block capacity: the checkpoint must be
  // rejected on its options fingerprint; full replay still succeeds
  // (sealed blocks on disk are self-describing).
  LedgerOptions other = options_;
  other.block_capacity = 8;
  std::unique_ptr<FileStreamStore> jf, bf;
  ASSERT_TRUE(FileStreamStore::Open(&env, kJournalPath, &jf).ok());
  ASSERT_TRUE(FileStreamStore::Open(&env, kBlockPath, &bf).ok());
  CheckpointStore ckpt(&env, kCkptBase);
  SimulatedClock clock(1000 * kMicrosPerSecond);
  std::unique_ptr<Ledger> recovered;
  RecoveryInfo info;
  Status s = Ledger::Recover(kUri, other, &clock, lsp_, &registry_,
                             {jf.get(), bf.get(), &ckpt}, &recovered, &info);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(info.used_checkpoint);
  EXPECT_EQ(info.candidates_rejected, 1u);
}

TEST_F(CheckpointTest, OlderFormatVersionRejectedEvenWhenSigned) {
  MemEnv env;
  {
    OpenedLedger live;
    ASSERT_TRUE(Create(&env, &live).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Append(&live, "f-" + std::to_string(i), "acct-0").ok());
    }
    ASSERT_TRUE(live.ledger->WriteCheckpoint(nullptr).ok());
    ASSERT_TRUE(Append(&live, "tail", "acct-1").ok());
  }
  OpenedLedger reference;
  ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/false, &reference).ok());
  StateFingerprint want = StateFingerprint::Of(*reference.ledger);
  reference = OpenedLedger{};

  std::vector<CheckpointEntry> entries;
  ASSERT_TRUE(CheckpointStore(&env, kCkptBase).List(&entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(entries[0].status.ok());
  const std::string path = std::string(kCkptBase) + ".ckpt.0";
  // Re-signs the manifest with `version`; everything else is unchanged,
  // so the snapshot's SHA-256 binding still holds.
  auto publish = [&](uint32_t version) {
    CheckpointManifest m = entries[0].manifest;
    m.format_version = version;
    m.lsp_sig = lsp_.Sign(m.MessageHash());
    ASSERT_TRUE(m.Verify(lsp_.public_key()));
    WriteWholeFile(&env, path, m.Serialize());
  };

  // Control: re-signed at the current version, the checkpoint loads.
  publish(kCheckpointFormatVersion);
  {
    OpenedLedger again;
    ASSERT_TRUE(Reopen(&env, /*with_checkpoints=*/true, &again).ok());
    EXPECT_TRUE(again.info.used_checkpoint);
    StateFingerprint::Of(*again.ledger).ExpectEq(want);
  }

  // Format version 1 carried the state MPT root and node set. A manifest
  // naming it is refused on its version alone, even with a valid LSP
  // signature, and recovery replays the streams in full.
  ASSERT_EQ(kCheckpointFormatVersion, 2u);
  publish(1);
  {
    OpenedLedger again;
    Status s = Reopen(&env, /*with_checkpoints=*/true, &again);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_FALSE(again.info.used_checkpoint);
    EXPECT_EQ(again.info.candidates_tried, 1u);
    EXPECT_EQ(again.info.candidates_rejected, 1u);
    StateFingerprint::Of(*again.ledger).ExpectEq(want);
  }
}

TEST_F(CheckpointTest, WriteCheckpointRequiresSealedBlockAndStore) {
  MemEnv env;
  OpenedLedger live;
  ASSERT_TRUE(Create(&env, &live).ok());
  // Genesis is pending (capacity 4, one journal): nothing sealed yet.
  EXPECT_TRUE(live.ledger->WriteCheckpoint(nullptr).IsInvalidArgument());
  // Without a checkpoint store the call is a usage error, not a crash.
  Ledger bare(kUri + std::string("-bare"), options_, live.clock.get(), lsp_,
              &registry_, LedgerStorage{});
  EXPECT_TRUE(bare.WriteCheckpoint(nullptr).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Crash-fault soak matrix over the checkpoint lifecycle
// ---------------------------------------------------------------------------

class CheckpointFaultMatrixTest : public CheckpointTest {
 protected:
  /// Canonical checkpoint-lifecycle workload: appends, a checkpoint,
  /// post-checkpoint occult + purge below the watermark, a second
  /// checkpoint (slot rotation), trailing appends. Every mutating Env op
  /// in here — including every write/sync/rename inside both
  /// WriteCheckpoint calls — is a numbered fault point.
  Status RunWorkload(Env* env, std::map<uint64_t, Snapshot>* trajectory) {
    nonce_ = 0;
    std::unique_ptr<FileStreamStore> jf, bf;
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kJournalPath, &jf));
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kBlockPath, &bf));
    CheckpointStore ckpt(env, kCkptBase);
    SimulatedClock clock(1000 * kMicrosPerSecond);
    Ledger ledger(kUri, options_, &clock, lsp_, &registry_,
                  {jf.get(), bf.get(), &ckpt});
    LEDGERDB_RETURN_IF_ERROR(ledger.init_status());
    uint64_t nonce = 0;
    auto append = [&](const std::string& payload, const std::string& clue) {
      ClientTransaction tx;
      tx.ledger_uri = kUri;
      tx.clues = {clue};
      tx.payload = StringToBytes(payload);
      tx.nonce = nonce++;
      tx.client_ts = clock.Now();
      tx.Sign(alice_);
      Status s = ledger.Append(tx, nullptr);
      clock.Advance(kMicrosPerSecond);
      return s;
    };
    auto snap = [&] {
      if (trajectory != nullptr) {
        (*trajectory)[ledger.NumJournals()] =
            Snapshot{ledger.FamRoot(), ledger.ClueRoot(), ledger.StateRoot()};
      }
    };
    snap();
    for (int i = 0; i < 7; ++i) {
      LEDGERDB_RETURN_IF_ERROR(
          append("pre-" + std::to_string(i), "acct-" + std::to_string(i % 3)));
      snap();
    }
    LEDGERDB_RETURN_IF_ERROR(ledger.WriteCheckpoint(nullptr));
    {
      Digest oreq = Ledger::OccultRequestHash(kUri, 2);
      std::vector<Endorsement> osigs = {
          {dba_.public_key(), dba_.Sign(oreq)},
          {regulator_.public_key(), regulator_.Sign(oreq)}};
      LEDGERDB_RETURN_IF_ERROR(ledger.Occult(2, osigs, nullptr));
      snap();
    }
    {
      Digest preq = Ledger::PurgeRequestHash(kUri, 4);
      std::vector<Endorsement> psigs = {
          {dba_.public_key(), dba_.Sign(preq)},
          {alice_.public_key(), alice_.Sign(preq)}};
      LEDGERDB_RETURN_IF_ERROR(ledger.Purge(4, psigs, {}, nullptr));
      snap();
    }
    LEDGERDB_RETURN_IF_ERROR(append("mid-0", "acct-0"));
    snap();
    LEDGERDB_RETURN_IF_ERROR(ledger.WriteCheckpoint(nullptr));
    LEDGERDB_RETURN_IF_ERROR(append("tail-0", "acct-1"));
    snap();
    LEDGERDB_RETURN_IF_ERROR(append("tail-1", "acct-2"));
    snap();
    return Status::OK();
  }
};

TEST_F(CheckpointFaultMatrixTest, CrashAtEveryCheckpointFaultPoint) {
  // Reference trajectory + fault-free op count.
  MemEnv ref_env;
  std::map<uint64_t, Snapshot> trajectory;
  ASSERT_TRUE(RunWorkload(&ref_env, &trajectory).ok());
  uint64_t total_ops = 0;
  {
    MemEnv dry_base;
    FaultEnv dry(&dry_base, 13);
    Status s = RunWorkload(&dry, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    total_ops = dry.ops();
  }
  ASSERT_GT(total_ops, 60u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("fault point " + std::to_string(k));
    StorageFaultKind kind =
        static_cast<StorageFaultKind>(k % kStorageFaultKindCount);
    MemEnv base;
    FaultEnv env(&base, 4242 + k);
    env.ScheduleFault(k, kind);
    Status run = RunWorkload(&env, nullptr);
    ASSERT_EQ(env.faults_injected(), 1);

    if (kind == StorageFaultKind::kTransientError) {
      // The retry layer (streams and checkpoint store alike) must absorb
      // a one-shot transient error without surfacing it.
      ASSERT_TRUE(run.ok()) << run.ToString();
      EXPECT_FALSE(env.crashed());
    } else {
      EXPECT_TRUE(env.crashed());
      if (run.ok()) {
        EXPECT_EQ(kind, StorageFaultKind::kDroppedSync);
      }
    }

    // Reopen the surviving image. Every verdict is acceptable EXCEPT
    // silent divergence: refuse with explicit Corruption, or recover to a
    // state bit-identical to the reference trajectory — whether the
    // checkpoint loaded, an older one loaded, or full replay ran.
    std::unique_ptr<FileStreamStore> jf, bf;
    Status jopen = FileStreamStore::Open(&base, kJournalPath, &jf);
    if (!jopen.ok()) {
      EXPECT_TRUE(jopen.IsCorruption()) << jopen.ToString();
      continue;
    }
    Status bopen = FileStreamStore::Open(&base, kBlockPath, &bf);
    if (!bopen.ok()) {
      EXPECT_TRUE(bopen.IsCorruption()) << bopen.ToString();
      continue;
    }
    CheckpointStore ckpt(&base, kCkptBase);
    SimulatedClock clock(1000 * kMicrosPerSecond);
    std::unique_ptr<Ledger> recovered;
    RecoveryInfo info;
    Status rs = Ledger::Recover(kUri, options_, &clock, lsp_, &registry_,
                                {jf.get(), bf.get(), &ckpt}, &recovered, &info);
    if (!rs.ok()) {
      EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
      continue;
    }
    uint64_t count = recovered->NumJournals();
    ASSERT_GE(count, 1u);
    auto it = trajectory.find(count);
    if (it != trajectory.end()) {
      EXPECT_EQ(recovered->FamRoot(), it->second.fam);
      EXPECT_EQ(recovered->ClueRoot(), it->second.clue);
      EXPECT_EQ(recovered->StateRoot(), it->second.state);
    }

    // Cross-check the recovery mode itself: a checkpoint-led recovery
    // must agree bit-for-bit with a forced full replay of the same image.
    std::unique_ptr<FileStreamStore> jf2, bf2;
    ASSERT_TRUE(FileStreamStore::Open(&base, kJournalPath, &jf2).ok());
    ASSERT_TRUE(FileStreamStore::Open(&base, kBlockPath, &bf2).ok());
    std::unique_ptr<Ledger> replayed;
    Status full = Ledger::Recover(kUri, options_, &clock, lsp_, &registry_,
                                  {jf2.get(), bf2.get()}, &replayed);
    ASSERT_TRUE(full.ok()) << full.ToString();
    StateFingerprint::Of(*recovered).ExpectEq(StateFingerprint::Of(*replayed));
  }
}

// ---------------------------------------------------------------------------
// Sharded group: checkpoints on the committer lanes + per-shard recovery
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ShardedGroupCheckpointsAndRecoversPerShard) {
  constexpr size_t kShards = 2;
  MemEnv env;
  std::vector<std::unique_ptr<FileStreamStore>> streams;
  std::vector<std::unique_ptr<CheckpointStore>> stores;
  auto make_storage = [&]() {
    std::vector<LedgerStorage> storage;
    streams.clear();
    stores.clear();
    for (size_t i = 0; i < kShards; ++i) {
      std::unique_ptr<FileStreamStore> jf, bf;
      EXPECT_TRUE(
          FileStreamStore::Open(&env, "j" + std::to_string(i) + ".log", &jf)
              .ok());
      EXPECT_TRUE(
          FileStreamStore::Open(&env, "b" + std::to_string(i) + ".log", &bf)
              .ok());
      stores.push_back(std::make_unique<CheckpointStore>(
          &env, "ckpt" + std::to_string(i)));
      storage.push_back(
          {jf.get(), bf.get(), stores.back().get()});
      streams.push_back(std::move(jf));
      streams.push_back(std::move(bf));
    }
    return storage;
  };

  SimulatedClock clock(1000 * kMicrosPerSecond);
  GroupCommitment before;
  {
    ShardedLedgerGroup group(kUri, kShards, options_, &clock, lsp_, &registry_,
                             make_storage());
    // Pipelined appends, then a checkpoint THROUGH the running pipeline:
    // the write rides each shard's committer lane between commit groups.
    std::vector<ClientTransaction> txs;
    for (int i = 0; i < 48; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = kUri;
      tx.clues = {"acct-" + std::to_string(i % 12)};
      tx.payload = StringToBytes("sharded-" + std::to_string(i));
      tx.nonce = nonce_++;
      tx.client_ts = clock.Now();
      tx.Sign(alice_);
      txs.push_back(std::move(tx));
    }
    std::vector<ShardedLedgerGroup::Location> locations;
    ASSERT_TRUE(group.AppendBatch(txs, &locations).ok());
    // 12 clue lineages over 2 shards: both shards must have sealed at
    // least one block, or CheckpointAll would have nothing to snapshot.
    for (size_t i = 0; i < kShards; ++i) {
      ASSERT_GE(group.shard(i)->NumJournals(), options_.block_capacity);
    }
    std::vector<Status> per_shard;
    Status s = group.CheckpointAll(&per_shard);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t i = 0; i < kShards; ++i) {
      EXPECT_TRUE(per_shard[i].ok()) << per_shard[i].ToString();
    }
    before = group.Commitment();
  }

  ShardedLedgerGroup::RecoverOutcome outcome;
  std::unique_ptr<ShardedLedgerGroup> recovered;
  Status s = ShardedLedgerGroup::Recover(kUri, kShards, options_, &clock, lsp_,
                                         &registry_, make_storage(), &recovered,
                                         &outcome);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(outcome.recovered, kShards);
  ASSERT_EQ(outcome.shard_info.size(), kShards);
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_TRUE(outcome.shard_info[i].used_checkpoint)
        << "shard " << i << " fell back to full replay";
  }
  EXPECT_EQ(recovered->Commitment().Combined(), before.Combined());
}

}  // namespace
}  // namespace ledgerdb
