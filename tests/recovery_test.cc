#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "ledger/ledger.h"

namespace ledgerdb {
namespace {

/// Removes a stream log and its durability sidecars (watermark,
/// quarantined tail) so reruns start from a clean slate.
void RemoveStream(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wm").c_str());
  std::remove((path + ".quarantine").c_str());
}

/// End-to-end persistence tests: a ledger backed by stream stores is
/// rebuilt from its streams and must be indistinguishable from the
/// original — same roots, same proofs, same mutation state — while any
/// tampering with the streams is detected at recovery time.
class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : clock_(1000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("rec-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("rec-lsp")),
        alice_(KeyPair::FromSeedString("rec-alice")),
        dba_(KeyPair::FromSeedString("rec-dba")),
        regulator_(KeyPair::FromSeedString("rec-reg")) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
    ledger_ = std::make_unique<Ledger>("lg://rec", options_, &clock_, lsp_,
                                       &registry_, Storage());
  }

  LedgerStorage Storage() {
    return LedgerStorage{&journal_stream_, &block_stream_};
  }

  uint64_t Append(const std::string& payload,
                  std::vector<std::string> clues = {}) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://rec";
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    uint64_t jsn = 0;
    EXPECT_TRUE(ledger_->Append(tx, &jsn).ok());
    clock_.Advance(kMicrosPerSecond);
    return jsn;
  }

  std::unique_ptr<Ledger> Reopen() {
    std::unique_ptr<Ledger> recovered;
    Status s = Ledger::Recover("lg://rec", options_, &clock_, lsp_, &registry_,
                               Storage(), &recovered);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return recovered;
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_, dba_, regulator_;
  LedgerOptions options_;
  MemoryStreamStore journal_stream_;
  MemoryStreamStore block_stream_;
  std::unique_ptr<Ledger> ledger_;
  uint64_t nonce_ = 0;
};

TEST_F(RecoveryTest, RootsMatchAfterRecovery) {
  for (int i = 0; i < 25; ++i) Append("p" + std::to_string(i), {"c" + std::to_string(i % 3)});
  ledger_->SealBlock();
  auto recovered = Reopen();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->NumJournals(), ledger_->NumJournals());
  EXPECT_EQ(recovered->FamRoot(), ledger_->FamRoot());
  EXPECT_EQ(recovered->ClueRoot(), ledger_->ClueRoot());
  EXPECT_EQ(recovered->StateRoot(), ledger_->StateRoot());
  EXPECT_EQ(recovered->blocks().size(), ledger_->blocks().size());
}

TEST_F(RecoveryTest, ProofsTransferAcrossRecovery) {
  std::vector<uint64_t> jsns;
  for (int i = 0; i < 20; ++i) jsns.push_back(Append("p" + std::to_string(i)));
  auto recovered = Reopen();
  for (uint64_t jsn : jsns) {
    Journal journal;
    ASSERT_TRUE(recovered->GetJournal(jsn, &journal).ok());
    FamProof proof;
    ASSERT_TRUE(recovered->GetProof(jsn, &proof).ok());
    // Proof from the recovered ledger verifies against the ORIGINAL root.
    EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, ledger_->FamRoot()));
  }
}

TEST_F(RecoveryTest, ClueProofsAfterRecovery) {
  std::vector<Digest> digests;
  for (int i = 0; i < 6; ++i) {
    uint64_t jsn = Append("rec" + std::to_string(i), {"asset"});
    Journal j;
    ledger_->GetJournal(jsn, &j);
    digests.push_back(j.TxHash());
  }
  auto recovered = Reopen();
  ClueProof proof;
  ASSERT_TRUE(recovered->GetClueProof("asset", 0, 0, &proof).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(recovered->ClueRoot(), digests, proof));
  std::vector<uint64_t> jsns;
  ASSERT_TRUE(recovered->ListTx("asset", &jsns).ok());
  EXPECT_EQ(jsns.size(), 6u);
}

TEST_F(RecoveryTest, ReceiptsRemainValidAfterRecovery) {
  uint64_t jsn = Append("receipt-me");
  Receipt original;
  ASSERT_TRUE(ledger_->GetReceipt(jsn, &original).ok());
  auto recovered = Reopen();
  Receipt again;
  ASSERT_TRUE(recovered->GetReceipt(jsn, &again).ok());
  // Block hash (the commitment point) must be identical.
  EXPECT_EQ(again.block_hash, original.block_hash);
  EXPECT_EQ(again.tx_hash, original.tx_hash);
}

TEST_F(RecoveryTest, DedupStateSurvivesRecovery) {
  // The (signer, nonce) dedup table is rebuilt during replay: a client
  // retrying a pre-crash submission against the recovered ledger must get
  // the original jsn back, not a second journal.
  ClientTransaction tx;
  tx.ledger_uri = "lg://rec";
  tx.payload = StringToBytes("pre-crash");
  tx.nonce = nonce_++;
  tx.client_ts = clock_.Now();
  tx.Sign(alice_);
  uint64_t jsn = 0;
  ASSERT_TRUE(ledger_->Append(tx, &jsn).ok());
  Append("other traffic");

  auto recovered = Reopen();
  uint64_t count = recovered->NumJournals();
  uint64_t replayed = 0;
  ASSERT_TRUE(recovered->Append(tx, &replayed).ok());
  EXPECT_EQ(replayed, jsn);
  EXPECT_EQ(recovered->NumJournals(), count);
  // And a conflicting reuse of the nonce is still rejected post-recovery.
  ClientTransaction forged = tx;
  forged.payload = StringToBytes("post-crash forgery");
  forged.Sign(alice_);
  uint64_t other = 0;
  EXPECT_TRUE(recovered->Append(forged, &other).IsAlreadyExists());
}

TEST_F(RecoveryTest, OccultStateSurvivesRecovery) {
  uint64_t target = Append("secret-pii");
  Append("other");
  Digest req = Ledger::OccultRequestHash("lg://rec", target);
  std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                   {regulator_.public_key(), regulator_.Sign(req)}};
  ASSERT_TRUE(ledger_->Occult(target, sigs, nullptr).ok());
  ledger_->ReorganizeOcculted();

  auto recovered = Reopen();
  Journal journal;
  ASSERT_TRUE(recovered->GetJournal(target, &journal).ok());
  EXPECT_TRUE(journal.occulted);
  EXPECT_TRUE(journal.payload.empty());
  // Protocol 2 still holds post-recovery.
  FamProof proof;
  ASSERT_TRUE(recovered->GetProof(target, &proof).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, recovered->FamRoot()));
}

TEST_F(RecoveryTest, PurgeStateSurvivesRecovery) {
  for (int i = 0; i < 10; ++i) Append("old" + std::to_string(i), {"trail"});
  Digest req = Ledger::PurgeRequestHash("lg://rec", 8);
  std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                   {alice_.public_key(), alice_.Sign(req)}};
  ASSERT_TRUE(ledger_->Purge(8, sigs, {}, nullptr).ok());
  Append("after-purge", {"trail"});

  auto recovered = Reopen();
  EXPECT_EQ(recovered->PurgedBoundary(), 8u);
  Journal journal;
  EXPECT_TRUE(recovered->GetJournal(3, &journal).IsNotFound());
  EXPECT_TRUE(recovered->GetJournal(9, &journal).ok());
  // fam root identical: tombstones preserved the digests.
  EXPECT_EQ(recovered->FamRoot(), ledger_->FamRoot());
  // Clue accumulators survived too (tombstones retain clue labels).
  EXPECT_EQ(recovered->ClueRoot(), ledger_->ClueRoot());
  uint64_t pg = 0;
  ASSERT_TRUE(recovered->LatestPseudoGenesis(&pg).ok());
  ASSERT_TRUE(recovered->GetJournal(pg, &journal).ok());
  EXPECT_EQ(journal.type, JournalType::kPseudoGenesis);
}

TEST_F(RecoveryTest, TimeJournalsSurviveRecovery) {
  TsaService tsa(KeyPair::FromSeedString("rec-tsa"), &clock_);
  ledger_->AttachDirectTsa(&tsa);
  Append("x");
  ASSERT_TRUE(ledger_->AnchorTime(nullptr).ok());
  auto recovered = Reopen();
  ASSERT_EQ(recovered->time_journals().size(), 1u);
  EXPECT_TRUE(recovered->time_journals()[0].evidence.attestation.Verify(
      tsa.public_key()));
}

TEST_F(RecoveryTest, PendingBlockJournalsRecovered) {
  // 6 journals with capacity 4: one sealed block + 3 pending (genesis +5).
  for (int i = 0; i < 5; ++i) Append("p" + std::to_string(i));
  auto recovered = Reopen();
  EXPECT_EQ(recovered->NumJournals(), 6u);
  EXPECT_EQ(recovered->blocks().size(), 1u);
  // Sealing after recovery picks up the pending journals.
  recovered->SealBlock();
  EXPECT_EQ(recovered->blocks().size(), 2u);
  EXPECT_EQ(recovered->blocks().back().journal_count, 2u);
}

/// Block stream whose next Append fails once armed: a block header write
/// lost at a boundary while the process keeps running.
class FailingBlockStream : public MemoryStreamStore {
 public:
  void FailNextAppend() { fail_next_ = true; }

  Status Append(Slice record, uint64_t* index) override {
    if (fail_next_) {
      fail_next_ = false;
      return Status::IOError("injected block header write failure");
    }
    return MemoryStreamStore::Append(record, index);
  }

 private:
  bool fail_next_ = false;
};

TEST_F(RecoveryTest, BoundarySealFailureKeepsJournalDurableAndRetries) {
  MemoryStreamStore journals;
  FailingBlockStream blocks;
  Ledger ledger("lg://rec", options_, &clock_, lsp_, &registry_,
                {&journals, &blocks});
  ASSERT_TRUE(ledger.init_status().ok());
  auto make_tx = [&](const std::string& payload) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://rec";
    tx.clues = {"seal-fail"};
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    clock_.Advance(kMicrosPerSecond);
    return tx;
  };
  // Genesis + two appends: the next append fills the 4-journal block.
  uint64_t jsn = 0;
  ASSERT_TRUE(ledger.Append(make_tx("a"), &jsn).ok());
  ASSERT_TRUE(ledger.Append(make_tx("b"), &jsn).ok());
  blocks.FailNextAppend();
  ClientTransaction boundary = make_tx("c");
  Status s = ledger.Append(boundary, &jsn);

  // The seal error surfaces, but the journal itself is durable.
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(jsn, 3u);
  EXPECT_EQ(ledger.NumJournals(), 4u);
  EXPECT_EQ(journals.Count(), 4u);
  EXPECT_TRUE(ledger.blocks().empty());
  EXPECT_EQ(blocks.Count(), 0u);

  // A client retrying after the error converges on the same jsn.
  uint64_t retried = 0;
  ASSERT_TRUE(ledger.Append(boundary, &retried).ok());
  EXPECT_EQ(retried, 3u);
  EXPECT_EQ(ledger.NumJournals(), 4u);

  // The next seal covers the whole pending set, jsn-contiguous.
  ASSERT_TRUE(ledger.SealBlock().ok());
  ASSERT_EQ(ledger.blocks().size(), 1u);
  EXPECT_EQ(ledger.blocks()[0].first_jsn, 0u);
  EXPECT_EQ(ledger.blocks()[0].journal_count, 4u);

  std::unique_ptr<Ledger> recovered;
  s = Ledger::Recover("lg://rec", options_, &clock_, lsp_, &registry_,
                      {&journals, &blocks}, &recovered);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(recovered->NumJournals(), 4u);
  EXPECT_EQ(recovered->FamRoot(), ledger.FamRoot());
  EXPECT_EQ(recovered->ClueRoot(), ledger.ClueRoot());
  EXPECT_EQ(recovered->StateRoot(), ledger.StateRoot());
  ASSERT_EQ(recovered->blocks().size(), 1u);
  EXPECT_EQ(recovered->blocks()[0].Hash(), ledger.blocks()[0].Hash());
}

TEST_F(RecoveryTest, TamperedJournalStreamDetected) {
  for (int i = 0; i < 8; ++i) Append("p" + std::to_string(i));
  ledger_->SealBlock();
  // Flip a payload byte of journal 3 in the stream.
  Bytes raw;
  ASSERT_TRUE(journal_stream_.Read(3, &raw).ok());
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(journal_stream_.Overwrite(3, Slice(raw)).ok());

  std::unique_ptr<Ledger> recovered;
  Status s = Ledger::Recover("lg://rec", options_, &clock_, lsp_, &registry_,
                             Storage(), &recovered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(RecoveryTest, TamperedBlockStreamDetected) {
  for (int i = 0; i < 8; ++i) Append("p" + std::to_string(i));
  ledger_->SealBlock();
  Bytes raw;
  ASSERT_TRUE(block_stream_.Read(0, &raw).ok());
  raw[20] ^= 0xff;
  ASSERT_TRUE(block_stream_.Overwrite(0, Slice(raw)).ok());
  std::unique_ptr<Ledger> recovered;
  Status s = Ledger::Recover("lg://rec", options_, &clock_, lsp_, &registry_,
                             Storage(), &recovered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(RecoveryTest, RecoverRequiresStorage) {
  std::unique_ptr<Ledger> recovered;
  Status s = Ledger::Recover("lg://rec", options_, &clock_, lsp_, &registry_,
                             {}, &recovered);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(RecoveryTest, FileBackedRoundTrip) {
  // Full durability path: file-backed streams, reopened from disk.
  std::string dir = ::testing::TempDir();
  RemoveStream(dir + "/rec_journals.log");
  RemoveStream(dir + "/rec_blocks.log");
  std::unique_ptr<FileStreamStore> jfile, bfile;
  ASSERT_TRUE(FileStreamStore::Open(dir + "/rec_journals.log", &jfile).ok());
  ASSERT_TRUE(FileStreamStore::Open(dir + "/rec_blocks.log", &bfile).ok());
  LedgerStorage storage{jfile.get(), bfile.get()};
  auto file_ledger = std::make_unique<Ledger>("lg://file", options_, &clock_,
                                              lsp_, &registry_, storage);
  std::vector<uint64_t> jsns;
  for (int i = 0; i < 12; ++i) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://file";
    tx.payload = StringToBytes("durable-" + std::to_string(i));
    tx.nonce = i;
    tx.Sign(alice_);
    uint64_t jsn;
    ASSERT_TRUE(file_ledger->Append(tx, &jsn).ok());
    jsns.push_back(jsn);
  }
  file_ledger->SealBlock();
  Digest root = file_ledger->FamRoot();
  file_ledger.reset();  // "crash"

  std::unique_ptr<Ledger> recovered;
  ASSERT_TRUE(Ledger::Recover("lg://file", options_, &clock_, lsp_, &registry_,
                              storage, &recovered)
                  .ok());
  EXPECT_EQ(recovered->FamRoot(), root);
  Journal journal;
  ASSERT_TRUE(recovered->GetJournal(jsns[5], &journal).ok());
  EXPECT_EQ(journal.payload, StringToBytes("durable-5"));
}

TEST_F(RecoveryTest, TrueCrossProcessRecovery) {
  // Unlike FileBackedRoundTrip (which keeps the stream objects alive),
  // this closes the files entirely and reopens them from disk — the real
  // process-restart path, exercising the frame-index rebuild.
  std::string dir = ::testing::TempDir();
  std::string jpath = dir + "/xproc_journals.log";
  std::string bpath = dir + "/xproc_blocks.log";
  RemoveStream(jpath);
  RemoveStream(bpath);

  Digest fam_root, clue_root;
  {
    std::unique_ptr<FileStreamStore> jfile, bfile;
    ASSERT_TRUE(FileStreamStore::Open(jpath, &jfile).ok());
    ASSERT_TRUE(FileStreamStore::Open(bpath, &bfile).ok());
    Ledger ledger("lg://xproc", options_, &clock_, lsp_, &registry_,
                  {jfile.get(), bfile.get()});
    for (int i = 0; i < 9; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://xproc";
      tx.clues = {"trail"};
      tx.payload = StringToBytes("x" + std::to_string(i));
      tx.nonce = i;
      tx.Sign(alice_);
      uint64_t jsn;
      ASSERT_TRUE(ledger.Append(tx, &jsn).ok());
    }
    // Occult one journal so an in-place rewrite is on disk too.
    Digest req = Ledger::OccultRequestHash("lg://xproc", 3);
    std::vector<Endorsement> sigs = {
        {dba_.public_key(), dba_.Sign(req)},
        {regulator_.public_key(), regulator_.Sign(req)}};
    ASSERT_TRUE(ledger.Occult(3, sigs, nullptr).ok());
    ledger.ReorganizeOcculted();
    ledger.SealBlock();
    fam_root = ledger.FamRoot();
    clue_root = ledger.ClueRoot();
  }  // ledger AND files destroyed — full process "exit"

  std::unique_ptr<FileStreamStore> jfile, bfile;
  ASSERT_TRUE(FileStreamStore::Open(jpath, &jfile).ok());
  ASSERT_TRUE(FileStreamStore::Open(bpath, &bfile).ok());
  std::unique_ptr<Ledger> recovered;
  ASSERT_TRUE(Ledger::Recover("lg://xproc", options_, &clock_, lsp_,
                              &registry_, {jfile.get(), bfile.get()},
                              &recovered)
                  .ok());
  EXPECT_EQ(recovered->FamRoot(), fam_root);
  EXPECT_EQ(recovered->ClueRoot(), clue_root);
  Journal journal;
  ASSERT_TRUE(recovered->GetJournal(3, &journal).ok());
  EXPECT_TRUE(journal.occulted);
  EXPECT_TRUE(journal.payload.empty());
  ASSERT_TRUE(recovered->GetJournal(5, &journal).ok());
  EXPECT_EQ(journal.payload, StringToBytes("x4"));
}

// ---------------------------------------------------------------------------
// Damaged-image recovery: file-backed ledgers reopened after torn tails,
// flipped bits and lost files.
// ---------------------------------------------------------------------------

class DamagedImageTest : public RecoveryTest {
 protected:
  /// Builds a durable ledger on fresh files and closes everything, leaving
  /// a cleanly-synced on-disk image of 9 journals + blocks. With
  /// `seal = false` the last journal stays outside any sealed block, so a
  /// torn tail there is reconcilable with the block stream.
  void WriteImage(const std::string& tag, bool seal = true) {
    jpath_ = ::testing::TempDir() + "/dmg_" + tag + "_journals.log";
    bpath_ = ::testing::TempDir() + "/dmg_" + tag + "_blocks.log";
    RemoveStream(jpath_);
    RemoveStream(bpath_);
    std::unique_ptr<FileStreamStore> jfile, bfile;
    ASSERT_TRUE(FileStreamStore::Open(jpath_, &jfile).ok());
    ASSERT_TRUE(FileStreamStore::Open(bpath_, &bfile).ok());
    Ledger ledger("lg://dmg", options_, &clock_, lsp_, &registry_,
                  {jfile.get(), bfile.get()});
    for (int i = 0; i < 8; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://dmg";
      tx.clues = {"trail"};
      tx.payload = StringToBytes("d" + std::to_string(i));
      tx.nonce = i;
      tx.Sign(alice_);
      uint64_t jsn;
      ASSERT_TRUE(ledger.Append(tx, &jsn).ok());
    }
    if (seal) ASSERT_TRUE(ledger.SealBlock().ok());
    fam_root_ = ledger.FamRoot();
  }

  Status RecoverImage(std::unique_ptr<Ledger>* recovered) {
    std::unique_ptr<FileStreamStore> jfile, bfile;
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(jpath_, &jfile));
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(bpath_, &bfile));
    Status s = Ledger::Recover("lg://dmg", options_, &clock_, lsp_, &registry_,
                               {jfile.get(), bfile.get()}, recovered);
    // The streams die with this frame; recovered ledgers are only used for
    // in-memory state checks.
    return s;
  }

  long FileSize(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fseek(f, 0, SEEK_END), 0);
    long size = std::ftell(f);
    std::fclose(f);
    return size;
  }

  std::string jpath_, bpath_;
  Digest fam_root_;
};

TEST_F(DamagedImageTest, CleanImageRecoversIdentically) {
  WriteImage("clean");
  std::unique_ptr<Ledger> recovered;
  ASSERT_TRUE(RecoverImage(&recovered).ok());
  EXPECT_EQ(recovered->NumJournals(), 9u);
  EXPECT_EQ(recovered->FamRoot(), fam_root_);
}

TEST_F(DamagedImageTest, TruncatedTailWithoutWatermarkRecoversPrefix) {
  // No final seal: journal 8 is pending, so only it can be torn away
  // without contradicting the sealed blocks.
  WriteImage("trunc_legacy", /*seal=*/false);
  // Legacy image: no watermark sidecar, tail chopped mid-frame — the torn
  // frame is quarantined and the surviving prefix replays.
  ASSERT_EQ(truncate(jpath_.c_str(), FileSize(jpath_) - 7), 0);
  std::remove((jpath_ + ".wm").c_str());
  std::unique_ptr<Ledger> recovered;
  Status s = RecoverImage(&recovered);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(recovered->NumJournals(), 8u);
}

TEST_F(DamagedImageTest, TruncatedTailBelowWatermarkIsCorruption) {
  WriteImage("trunc_acked");
  // Acknowledged bytes vanished: the watermark proves the full log was
  // durable, so a shorter file is data loss, not a torn tail.
  ASSERT_EQ(truncate(jpath_.c_str(), FileSize(jpath_) - 7), 0);
  std::unique_ptr<Ledger> recovered;
  Status s = RecoverImage(&recovered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DamagedImageTest, FlippedPayloadBitIsCorruption) {
  WriteImage("bitflip");
  // Flip one payload bit in the middle of the journal log.
  long pos = FileSize(jpath_) / 2;
  std::FILE* f = std::fopen(jpath_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
  uint8_t b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  b ^= 0x10;
  ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);
  std::unique_ptr<Ledger> recovered;
  Status s = RecoverImage(&recovered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DamagedImageTest, MissingJournalStreamIsCorruption) {
  WriteImage("lost_stream");
  // The journal log vanished (watermark sidecar survives): recovery must
  // refuse rather than serve an empty ledger.
  std::remove(jpath_.c_str());
  std::unique_ptr<Ledger> recovered;
  Status s = RecoverImage(&recovered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DamagedImageTest, EmptyStreamsAreCorruptionNotEmptyLedger) {
  // Both logs exist but hold nothing — e.g. a crash before genesis ever
  // synced. Recover must not fabricate a fresh ledger from it.
  jpath_ = ::testing::TempDir() + "/dmg_empty_journals.log";
  bpath_ = ::testing::TempDir() + "/dmg_empty_blocks.log";
  RemoveStream(jpath_);
  RemoveStream(bpath_);
  {
    std::unique_ptr<FileStreamStore> jfile, bfile;
    ASSERT_TRUE(FileStreamStore::Open(jpath_, &jfile).ok());
    ASSERT_TRUE(FileStreamStore::Open(bpath_, &bfile).ok());
  }
  std::unique_ptr<Ledger> recovered;
  Status s = RecoverImage(&recovered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace ledgerdb
