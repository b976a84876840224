// Golden bytes: the SHA-256 of a fixed, deterministic sample of every wire
// and on-disk encoding, pinned to constants. Any change to an encoder (or
// to a decoder's re-encoding of what it accepted) shows up here as a
// changed digest, so codec refactors must leave every byte where it was.
//
// The samples come from one scripted ledger run: signed appends, both
// time-anchoring modes, a single and a by-clue occult, a purge (purge and
// pseudo-genesis journals plus tombstones), a checkpoint, and one request
// and response frame per RPC op served by wire::Dispatch. Keys derive from
// seed strings, signatures use RFC-6979 nonces and the clock is simulated,
// so every run produces the same bytes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accum/fam.h"
#include "accum/shrubs.h"
#include "cmtree/cm_tree.h"
#include "ledger/ledger.h"
#include "net/transport.h"
#include "net/wire.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/stream_store.h"
#include "timestamp/t_ledger.h"
#include "timestamp/tsa.h"

namespace ledgerdb {
namespace {

constexpr char kUri[] = "lg://golden";

/// Format name -> hex SHA-256 of its sample encoding.
const std::map<std::string, std::string>& Golden() {
  static const std::map<std::string, std::string> golden = {
      {"BatchProof", "49e2ae83430e56ac2a30d4903582d598bb231ea01c53ce19807ea6799911619b"},
      {"BlockRecord/0", "f5953c5c957b31242be30757b2c24b07121271705067e3de45959b402f0ca803"},
      {"BlockRecord/1", "6b3f8cd1cd007d321c53f003f9987ba0e28ae0375629c25b8daa0c74edf45503"},
      {"BlockRecord/2", "8bece0efba25de019c7a957210b38e2d36aba9f19197adfdcf9d193053da3750"},
      {"BlockRecord/3", "870949ee169b5a6c1b1a7c4ec73d631d059419876bd71ca93f919e3af26007a8"},
      {"BlockRecord/4", "816c249919e3f43c1272398c2387a8903d001a4c33b0a56331c61492531a6e7b"},
      {"CheckpointManifest", "a704ceb023df2fb54b97fa24e427c737457f15876da4effeba0ee13e171aa16a"},
      {"ClientTransaction", "58b13d42174d94e7909d86188604e0c2e6f62c158cdd4038b70375c9cc0e580e"},
      {"ClueProof", "f09594a5ddf0729a57aa7c2d871d033314dd0089457aed8a69afd8ebeb100a82"},
      {"ClueRangeResult", "509ae6697fa58ead6970c693abe99f367abb78ee0d471db03c672fff3742e2f5"},
      {"FamBatchProof", "3339387ac232edba7498dfe26a78aae75e42264e1b7b05937b9de090ac203e91"},
      {"FamProof", "fd2e9f0249009237b0090705356aa0d38282b251b2e735b0476b8b1943b44942"},
      {"HelloAndFrame", "d879441433bee622d171531923b5859c365d126c897404b70b2397ab230a0475"},
      {"Journal", "ac3488daa995b54a5f141f74d7c597217c04f7c770522c1eea1c8e51cc9ef240"},
      {"JournalDelta", "cca514e9d047f384cda873973378253dc77b93b044b3fc0eb3edfd35654af21e"},
      {"JournalRecord/0", "47a7096d1e99e5e9439e38a5ea2cf76af60612632be87527c42accb434a3b795"},
      {"JournalRecord/1", "2e0df1af3947bae75469daf2b8cef504c92e9cbb7b16c18d189c7cbc82529685"},
      {"JournalRecord/10", "74cbdbefa3985e409a0d3c61dcc61b9d0c4f57af39d11ed76d77ee18e1bfd718"},
      {"JournalRecord/11", "f89bae4a3392500b6dd43e72815440dbedca540bd9fdb8b902857e6f09e902d8"},
      {"JournalRecord/12", "b125fdc107358c6a41aafc7428123b6365063c53ccac3bc12c3b7290d4ff7d8d"},
      {"JournalRecord/13", "e2ba95f9d18dc14b6c1db464442abe21a0967d9040fa8abc32a286ea29653275"},
      {"JournalRecord/14", "74a32a5e66c427cd9a02cff812173ee0d9a3e6e219348b7cb8c85a6feb326ac3"},
      {"JournalRecord/15", "c0b8d4a499563bc96afbdd19c81d31e42c3009141eeb0a13ba82f3f9615e59cd"},
      {"JournalRecord/16", "714e6af3a4f48b419d66c9b49550ec5bebd649910201491f90b892e37d07c760"},
      {"JournalRecord/17", "1549694eb1519e614724d4f5a2a794dc3a8ed113c2ab21c9e4d58b38f9f448a7"},
      {"JournalRecord/18", "47aead169820da5b6045a2e419399e4375e2ec89ce5db892fe74a1bfbb30cae6"},
      {"JournalRecord/19", "3199cc87291ceca77e34b0426c0e6ee32e3973594cb6180e35fecaa2945a212e"},
      {"JournalRecord/2", "5cddf27091d32f2c0a62e914a569d96f13e475ae2b323a6434cf40977f87bb3c"},
      {"JournalRecord/20", "0553ca7c2969400b558f0cbf4deb35a46904a3a138f33bfa24fa163b3e1fcba9"},
      {"JournalRecord/21", "b5e907d84389f313c4ea321f85b24c8c0ec856dbe9ee4f76035d444a4f2fd1bd"},
      {"JournalRecord/3", "d9510cfb4cbd3d5a2b9ac01f3a792f54a4fbe21ea76711d057d4c40cc5ad0c12"},
      {"JournalRecord/4", "ad4f6f0fec15d4061b600901029cca310c910640445c4c12dcc2765679e3f5fb"},
      {"JournalRecord/5", "a02ae651c026b5d2360add6f14351ac3896fc595a5b3f4311d7a188d6c735ade"},
      {"JournalRecord/6", "ac3488daa995b54a5f141f74d7c597217c04f7c770522c1eea1c8e51cc9ef240"},
      {"JournalRecord/7", "22896949fbb5d39d1350f039418e0fd4375e5debfd29c7d7ca71cf3dfbe800a4"},
      {"JournalRecord/8", "7b91de8bd9f92024fbedb68ad2edc933a36d2f1b66da0cfa6ca25849a7b2dae0"},
      {"JournalRecord/9", "1d8ebc88775bf9d480a47b3bea487efd11292b7b2e2b3b24890273882f32b15b"},
      {"MembershipProof", "34adc16aac6ca805fa4c84e609a569a99aea637576d845c2fae6c53b31854342"},
      {"MptProof", "d1e1de672dd5df14d1e5c729729dc8255daeda93f04eedc912e1ce73efca587c"},
      {"Receipt", "fa447c7b0cac098df43afb1c8fb6ef68826ace05146ba89d36fed25084fc99e5"},
      {"RequestFrame/AppendTx", "6266e55c446486c6bcf0a9f1da4e4f2344595d2e6da6667ecde908c3d3b365dd"},
      {"RequestFrame/GetClueProof", "87bde95eb237db8693d4eac575c45d190e679d2dd3b905519b0a04ea15f258eb"},
      {"RequestFrame/GetCommitment", "6d142707ceaa8d65d93d2d99a5c0514c9502bf9d6260d176ed524c202d584fc2"},
      {"RequestFrame/GetDelta", "0f724e6553a2440c1d51642b2ae6f064759bdae1c59d2580bc3dff244b24ff97"},
      {"RequestFrame/GetJournal", "8a5821c6d9486fdfb4b62b01b711a5f40e04a266a4767087c84cd4ec32abe94d"},
      {"RequestFrame/GetProof", "7817d501d3982f2a5a689e52bc0c6c8ff9f4cba7e040897eb182a00aea5ff13e"},
      {"RequestFrame/GetProofBatch", "8fa708425f0998f1f2161515ea17a738844adef68a3da2353cd19330d857a40f"},
      {"RequestFrame/GetReceipt", "59cd107fcaa25121d8727fe860ebb579cf0d9c7b1d15f4a8945cad0739597d0a"},
      {"RequestFrame/ListTx", "cd615c0c99a63c52fa9d13dd625199bce8710657ec8cdf2a18772168bbf89370"},
      {"RequestFrame/ProveClueRange", "74538798bbec7733902916227e17877c221d53bddd7aa0bead7938978eb975c3"},
      {"ResponseFrame/AppendTx", "1112bb508a55b4edf9d27a638f807de1fb576af5aac4b89ba59c8ce6fce73d1b"},
      {"ResponseFrame/GetClueProof", "775cd9b0848b75c190fb06e16dc9261b3c7f5ef346f0ec96092d174c173e2f8d"},
      {"ResponseFrame/GetCommitment", "685b5526461b21fa1b227bf388ade13822e17130687aeec64e3e3ea77547b2bb"},
      {"ResponseFrame/GetDelta", "df49b0e55df67efc8e287433821889f0fa177c295f64900fa06395ae772deffd"},
      {"ResponseFrame/GetJournal", "cc3e005668fd91d3fcfba97a4eca44cbd1c304c7103855084bf5009efa34ddef"},
      {"ResponseFrame/GetProof", "46f6dc1f491c5df73d3fc3cf8153d1169a487c8294270944c9d5588969b87c9a"},
      {"ResponseFrame/GetProofBatch", "7179876143d0f30978e3c7c1b01864673190d02fc5eb42cc5b61cc32aa3fcadf"},
      {"ResponseFrame/GetReceipt", "7edf87f8102539e149a3041d3ad4627b1e71771a78af2ce06bb82f8130a74432"},
      {"ResponseFrame/ListTx", "2d3d2dec55797afa32514d151420c04bdb1800d99fbbdf2136b535eacf5f9d8b"},
      {"ResponseFrame/ProveClueRange", "2d8debfe57e1bb4a47be0fc591c93d2acda89a04529d1444673c6eb2ffb2d541"},
      {"ResponseFrame/error", "8d42b56558a4e98129c9715ead8f8521c54c59b9e06e7dc4c9d61219f94a8a05"},
      {"SignedCommitment", "3ce6596ba4d24201b038d477db9dba77e0d81a0a88d5f32eb7374927a6410b23"},
      {"Snapshot", "778fdf15ea4514794f04ee768cd14626184cf24ead916dbbd6584210ecab15cc"},
      {"SnapshotSection/1", "771fafd8d7aa10e95359d7ae73bae35ec0c0ff6d6a5468b297f11506cb178532"},
      {"SnapshotSection/2", "bdb8e78f593627745e31ab222c136d8b63ebbdd9b513586f3c9da3dfdde92e2f"},
      {"SnapshotSection/3", "2b6b32e1fb8013d1c8490cabe92128cb803531dffe086f2af43343ec8e237c0b"},
      {"SnapshotSection/4", "750a303aac9428a25a41dc1830160e9ad80d73b9493baa26572627ed02050cb2"},
      {"SnapshotSection/5", "e25ab6e2f799d0f5d57a9fbd78cd3ab4945d06c32502a1519766b3ad0f640d71"},
      {"SnapshotSection/6", "495941a2d9113f472546cc5b976fe16c34e9b99cf8cd160ec85c73deab833afb"},
      {"TimeAttestation", "7e822d459574558d80ac01977f77b67662e6285193ed84ec2e178e7db30e91e6"},
      {"TimeEvidence/direct", "ab9e7c918eb78dd8ad1e1b7e4a38deff7001852ca93301fcd38ee80d32c91c6d"},
      {"TimeEvidence/tledger", "c4ba114bdba89ad1c3a2b73b36514c519b16bc1affdcf7eb3f6e74ede9c54a84"},
      {"TimeProof", "7a204c8566d7a4ab95e7c9c4b57590753e95b0f7da35acaeb9193bcec493bd2a"},
  };
  return golden;
}

/// Decodes `raw` as T and checks the re-encoding is bit-identical.
template <typename T>
void ExpectRoundTrip(const std::string& name, const Bytes& raw) {
  T decoded;
  ASSERT_TRUE(T::Deserialize(raw, &decoded)) << name;
  EXPECT_EQ(decoded.Serialize(), raw) << name << ": non-canonical";
}

class CodecGoldenTest : public ::testing::Test {
 protected:
  CodecGoldenTest()
      : clock_(1000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("golden-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("golden-lsp")),
        alice_(KeyPair::FromSeedString("golden-alice")),
        dba_(KeyPair::FromSeedString("golden-dba")),
        regulator_(KeyPair::FromSeedString("golden-reg")),
        tsa_key_(KeyPair::FromSeedString("golden-tsa")),
        tsa_(tsa_key_, &clock_),
        tledger_(&tsa_, &clock_, KeyPair::FromSeedString("golden-tlsp"), {}) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(
        ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
    options_.sync_occult_erasure = true;
  }

  ClientTransaction SignedTx(const std::string& payload,
                             std::vector<std::string> clues) {
    ClientTransaction tx;
    tx.ledger_uri = kUri;
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    return tx;
  }

  void Append(const std::string& payload, std::vector<std::string> clues) {
    ASSERT_TRUE(ledger_->Append(SignedTx(payload, std::move(clues)), nullptr)
                    .ok());
    clock_.Advance(kMicrosPerSecond);
  }

  std::vector<Endorsement> Endorse(const Digest& request,
                                   const KeyPair& second) {
    return {{dba_.public_key(), dba_.Sign(request)},
            {second.public_key(), second.Sign(request)}};
  }

  void Add(const std::string& name, const Bytes& raw) {
    ASSERT_TRUE(samples_.emplace(name, raw).second) << name;
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, alice_, dba_, regulator_, tsa_key_;
  TsaService tsa_;
  TLedger tledger_;
  LedgerOptions options_;
  MemEnv env_;
  std::unique_ptr<FileStreamStore> journals_, blocks_;
  std::unique_ptr<CheckpointStore> checkpoints_;
  std::unique_ptr<Ledger> ledger_;
  uint64_t nonce_ = 0;
  std::map<std::string, Bytes> samples_;
};

TEST_F(CodecGoldenTest, EveryEncodingMatchesItsRecordedDigest) {
  ASSERT_TRUE(FileStreamStore::Open(&env_, "journals.log", &journals_).ok());
  ASSERT_TRUE(FileStreamStore::Open(&env_, "blocks.log", &blocks_).ok());
  checkpoints_ = std::make_unique<CheckpointStore>(&env_, "ckpt");
  ledger_ = std::make_unique<Ledger>(
      kUri, options_, &clock_, lsp_, &registry_,
      LedgerStorage{journals_.get(), blocks_.get(), checkpoints_.get()});
  ASSERT_TRUE(ledger_->init_status().ok());
  ledger_->AttachDirectTsa(&tsa_);

  for (int i = 0; i < 9; ++i) {
    Append("pre-" + std::to_string(i), {"acct-" + std::to_string(i % 3)});
  }
  Append("two clues", {"acct-0", "asset"});
  uint64_t time_jsn = 0;
  ASSERT_TRUE(ledger_->AnchorTime(&time_jsn).ok());
  ledger_->AttachTLedger(&tledger_);
  uint64_t tledger_time_jsn = 0;
  ASSERT_TRUE(ledger_->AnchorTime(&tledger_time_jsn).ok());
  uint64_t occult_jsn = 0, occult_clue_jsn = 0, purge_jsn = 0;
  ASSERT_TRUE(ledger_
                  ->Occult(2, Endorse(Ledger::OccultRequestHash(kUri, 2),
                                      regulator_),
                           &occult_jsn)
                  .ok());
  size_t occulted = 0;
  ASSERT_TRUE(
      ledger_
          ->OccultByClue("acct-2",
                         Endorse(Ledger::OccultClueRequestHash(kUri, "acct-2"),
                                 regulator_),
                         &occulted, &occult_clue_jsn)
          .ok());
  ASSERT_TRUE(
      ledger_
          ->Purge(4, Endorse(Ledger::PurgeRequestHash(kUri, 4), alice_), {},
                  &purge_jsn)
          .ok());
  for (int i = 0; i < 5; ++i) {
    Append("post-" + std::to_string(i), {"acct-" + std::to_string(i % 3)});
  }
  ASSERT_TRUE(ledger_->WriteCheckpoint(nullptr).ok());

  // Journal and block streams, record by record.
  Bytes raw;
  for (uint64_t i = 0; i < journals_->Count(); ++i) {
    ASSERT_TRUE(journals_->Read(i, &raw).ok());
    Add("JournalRecord/" + std::to_string(i), raw);
  }
  for (uint64_t i = 0; i < blocks_->Count(); ++i) {
    ASSERT_TRUE(blocks_->Read(i, &raw).ok());
    Add("BlockRecord/" + std::to_string(i), raw);
    ExpectRoundTrip<BlockHeader>("BlockHeader", raw);
  }
  for (uint64_t jsn :
       {uint64_t{6}, time_jsn, tledger_time_jsn, occult_jsn, occult_clue_jsn,
        purge_jsn}) {
    Journal journal;
    ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
    ExpectRoundTrip<Journal>("Journal", journal.Serialize());
  }
  Journal time_journal;
  ASSERT_TRUE(ledger_->GetJournal(time_jsn, &time_journal).ok());
  Add("TimeEvidence/direct", time_journal.payload);
  ExpectRoundTrip<TimeEvidence>("TimeEvidence", time_journal.payload);
  ASSERT_TRUE(ledger_->GetJournal(tledger_time_jsn, &time_journal).ok());
  Add("TimeEvidence/tledger", time_journal.payload);
  ExpectRoundTrip<TimeEvidence>("TimeEvidence", time_journal.payload);

  // Checkpoint manifest, snapshot, and each snapshot section.
  std::vector<CheckpointEntry> entries;
  ASSERT_TRUE(checkpoints_->List(&entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(entries[0].status.ok());
  Add("CheckpointManifest", entries[0].manifest.Serialize());
  Bytes snapshot;
  ASSERT_TRUE(checkpoints_
                  ->ReadSnapshot(entries[0].manifest, entries[0].slot,
                                 &snapshot)
                  .ok());
  Add("Snapshot", snapshot);
  std::map<uint32_t, Slice> sections;
  ASSERT_TRUE(CheckpointParseSections(snapshot, &sections, true).ok());
  for (const auto& [tag, section] : sections) {
    Add("SnapshotSection/" + std::to_string(tag), section.ToBytes());
  }

  // Standalone accumulator proofs.
  ShrubsAccumulator acc;
  for (int i = 0; i < 6; ++i) {
    acc.Append(Sha256::Hash(StringToBytes("leaf-" + std::to_string(i))));
  }
  MembershipProof membership;
  ASSERT_TRUE(acc.GetProof(2, &membership).ok());
  Add("MembershipProof", membership.Serialize());
  BatchProof batch;
  ASSERT_TRUE(acc.GetBatchProof({1, 3, 4}, &batch).ok());
  Add("BatchProof", batch.Serialize());

  // Time-stamping evidence.
  Add("TimeAttestation",
      tsa_.Endorse(Sha256::Hash(StringToBytes("pegged"))).Serialize());
  tledger_.ForceFinalize();
  TimeProof time_proof;
  ASSERT_TRUE(tledger_.GetTimeProof(0, &time_proof).ok());
  Add("TimeProof", time_proof.Serialize());

  // Client-facing evidence, fetched through the frame loopback.
  LocalTransport transport(ledger_.get());
  Receipt receipt;
  ASSERT_TRUE(transport.GetReceipt(6, &receipt).ok());
  Add("Receipt", receipt.Serialize());
  SignedCommitment commitment;
  ASSERT_TRUE(transport.GetCommitment(&commitment).ok());
  Add("SignedCommitment", commitment.Serialize());
  Journal journal;
  ASSERT_TRUE(transport.GetJournal(6, &journal).ok());
  Add("Journal", journal.Serialize());
  FamProof fam_proof;
  ASSERT_TRUE(transport.GetProof(6, &fam_proof).ok());
  Add("FamProof", fam_proof.Serialize());
  FamBatchProof fam_batch;
  ASSERT_TRUE(transport.GetProofBatch({5, 6, 12}, &fam_batch).ok());
  Add("FamBatchProof", fam_batch.Serialize());
  ClueProof clue_proof;
  ASSERT_TRUE(transport.GetClueProof("acct-0", 0, 0, &clue_proof).ok());
  Add("ClueProof", clue_proof.Serialize());
  Add("MptProof", clue_proof.mpt.Serialize());
  std::vector<JournalDelta> deltas;
  ASSERT_TRUE(transport.GetDelta(1, 8, &deltas).ok());
  Add("JournalDelta", deltas[5].Serialize());
  ClueRangeResult range;
  ASSERT_TRUE(
      transport.ProveClueRange("acct-0", 0, clock_.Now() + 1, &range).ok());
  Add("ClueRangeResult", range.Serialize());
  Add("ClientTransaction", SignedTx("golden tx", {"acct-1"}).Serialize());

  // One request and one response frame per op, served by the dispatcher.
  // AppendTx runs last: it is the one op that changes the ledger.
  const std::vector<Bytes> bodies = {
      SignedTx("framed", {"asset"}).Serialize(),
      wire::EncodeJsnRequest(6),
      wire::EncodeJsnRequest(6),
      wire::EncodeJsnRequest(6),
      wire::EncodeClueWindowRequest("acct-0", 0, 0),
      wire::EncodeClueRequest("acct-0"),
      Bytes(),
      wire::EncodeRangeRequest(1, 8),
      wire::EncodeJsnList({5, 6, 12}),
      wire::EncodeClueWindowRequest("acct-0", 0,
                                    static_cast<uint64_t>(clock_.Now() + 1)),
  };
  for (int op = kNumRpcOps - 1; op >= 0; --op) {
    wire::RequestFrame request;
    request.op = static_cast<RpcOp>(op);
    request.request_id = 100 + static_cast<uint64_t>(op);
    request.body = bodies[static_cast<size_t>(op)];
    if (op % 2 == 1) {
      request.trace_id = 0x1000 + static_cast<uint64_t>(op);
      request.parent_span = 0x2000 + static_cast<uint64_t>(op);
    }
    const std::string name = RpcOpName(request.op);
    Bytes encoded = request.Encode();
    Add("RequestFrame/" + name, encoded);
    wire::RequestFrame decoded;
    ASSERT_TRUE(wire::RequestFrame::Decode(encoded, &decoded)) << name;
    wire::ResponseFrame response = wire::Dispatch(ledger_.get(), decoded);
    ASSERT_EQ(response.code, 0) << name << ": " << response.message;
    encoded = response.Encode();
    Add("ResponseFrame/" + name, encoded);
    wire::ResponseFrame back;
    ASSERT_TRUE(wire::ResponseFrame::Decode(encoded, &back)) << name;
    EXPECT_EQ(back.Encode(), encoded) << name;
  }
  Add("ResponseFrame/error",
      wire::ResponseFrame::From(RpcOp::kGetJournal, 7,
                                Status::NotFound("journal purged"))
          .Encode());
  Bytes framed = wire::EncodeHello();
  wire::AppendFrame(&framed, samples_.at("RequestFrame/GetJournal"));
  Add("HelloAndFrame", framed);

  for (const auto& [name, bytes] : samples_) {
    const std::string digest = Sha256::Hash(bytes).ToHex();
    auto it = Golden().find(name);
    if (it == Golden().end()) {
      ADD_FAILURE() << "no golden digest for " << name << ": {\"" << name
                    << "\", \"" << digest << "\"},";
    } else {
      EXPECT_EQ(digest, it->second) << name;
    }
  }
  for (const auto& [name, digest] : Golden()) {
    EXPECT_EQ(samples_.count(name), 1u) << "golden sample missing: " << name;
  }

  // The checkpoint just pinned must also restore: recovery through it
  // reproduces the live ledger's roots.
  std::unique_ptr<Ledger> recovered;
  RecoveryInfo info;
  SimulatedClock recovery_clock(clock_.Now());
  std::unique_ptr<FileStreamStore> rj, rb;
  ASSERT_TRUE(FileStreamStore::Open(&env_, "journals.log", &rj).ok());
  ASSERT_TRUE(FileStreamStore::Open(&env_, "blocks.log", &rb).ok());
  CheckpointStore rc(&env_, "ckpt");
  ASSERT_TRUE(Ledger::Recover(kUri, options_, &recovery_clock, lsp_,
                              &registry_,
                              LedgerStorage{rj.get(), rb.get(), &rc},
                              &recovered, &info)
                  .ok());
  EXPECT_TRUE(info.used_checkpoint);
  EXPECT_EQ(recovered->FamRoot(), ledger_->FamRoot());
  EXPECT_EQ(recovered->ClueRoot(), ledger_->ClueRoot());
  EXPECT_EQ(recovered->StateRoot(), ledger_->StateRoot());
}

}  // namespace
}  // namespace ledgerdb
