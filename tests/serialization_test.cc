#include <gtest/gtest.h>

#include "common/random.h"
#include "ledger/block.h"
#include "ledger/journal.h"
#include "ledger/ledger.h"
#include "ledger/receipt.h"
#include "timestamp/tsa.h"

namespace ledgerdb {
namespace {

Journal SampleJournal() {
  Journal journal;
  journal.jsn = 42;
  journal.type = JournalType::kNormal;
  journal.server_ts = 123456789;
  journal.clues = {"clue-a", "clue-b"};
  journal.payload = StringToBytes("sample payload");
  journal.payload_digest = Sha256::Hash(journal.payload);
  journal.request_hash = Sha256::Hash(std::string_view("request"));
  KeyPair client = KeyPair::FromSeedString("ser-client");
  journal.client_key = client.public_key();
  journal.client_sig = client.Sign(journal.request_hash);
  KeyPair co = KeyPair::FromSeedString("ser-cosigner");
  journal.endorsements.push_back({co.public_key(), co.Sign(journal.EndorsementHash())});
  return journal;
}

/// Decode-side edges of one hand-built encoding: it decodes and
/// re-encodes byte-identical, every proper prefix and a one-byte
/// extension are rejected, and random bytes never crash the decoder.
/// proof_fuzz_test runs the full every-byte pass on ledger-issued samples;
/// these samples reach fields those lack (clues, endorsements, a receipt
/// and an attestation built outside any ledger).
template <typename T>
void ExpectStrictDecode(const Bytes& valid, uint64_t seed) {
  T out;
  ASSERT_TRUE(T::Deserialize(valid, &out));
  EXPECT_EQ(out.Serialize(), valid);
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(cut));
    T sink;
    EXPECT_FALSE(T::Deserialize(truncated, &sink)) << "cut=" << cut;
  }
  Bytes extended = valid;
  extended.push_back(0x00);
  T sink;
  EXPECT_FALSE(T::Deserialize(extended, &sink));
  Random rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk = rng.NextBytes(rng.Uniform(3 * valid.size() + 4));
    T junk_out;
    (void)T::Deserialize(junk, &junk_out);  // must not crash
  }
}

TEST(SerializationFuzzTest, Journal) {
  ExpectStrictDecode<Journal>(SampleJournal().Serialize(), 101);
}

TEST(SerializationFuzzTest, Receipt) {
  Receipt receipt;
  receipt.jsn = 5;
  receipt.request_hash = Sha256::Hash(std::string_view("rq"));
  receipt.tx_hash = Sha256::Hash(std::string_view("tx"));
  receipt.block_hash = Sha256::Hash(std::string_view("blk"));
  receipt.timestamp = 777;
  receipt.lsp_sig = KeyPair::FromSeedString("ser-lsp").Sign(receipt.MessageHash());
  ExpectStrictDecode<Receipt>(receipt.Serialize(), 103);
}

TEST(SerializationFuzzTest, TimeAttestation) {
  SimulatedClock clock(1000);
  TsaService tsa(KeyPair::FromSeedString("ser-tsa"), &clock);
  TimeAttestation att = tsa.Endorse(Sha256::Hash(std::string_view("d")));
  ExpectStrictDecode<TimeAttestation>(att.Serialize(), 104);
}

TEST(SerializationFuzzTest, BitFlipsNeverValidateJournalHash) {
  // Any single-bit flip in a serialized journal either fails to decode or
  // decodes to a journal with a different tx-hash (so downstream proofs
  // catch it). It must never produce the same tx-hash from different bytes.
  Journal journal = SampleJournal();
  Bytes valid = journal.Serialize();
  Digest original = journal.TxHash();
  Random rng(106);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = valid;
    size_t pos = rng.Uniform(mutated.size());
    uint8_t bit = 1 << rng.Uniform(8);
    mutated[pos] ^= bit;
    Journal out;
    if (!Journal::Deserialize(mutated, &out)) continue;
    if (!(out.TxHash() == original)) continue;  // caught by any fam proof
    // Flips that leave the tx-hash intact must still be caught by one of
    // the other commitment layers:
    bool payload_mismatch = !(Sha256::Hash(out.payload) == out.payload_digest);
    bool occult_flag_flip = out.occulted != journal.occulted;  // vs occult journal
    bool endorsement_broken = false;
    Digest emsg = out.EndorsementHash();
    for (const Endorsement& e : out.endorsements) {
      if (!VerifySignature(e.key, emsg, e.signature)) endorsement_broken = true;
    }
    if (out.endorsements.size() != journal.endorsements.size()) {
      endorsement_broken = true;
    }
    EXPECT_TRUE(payload_mismatch || occult_flag_flip || endorsement_broken)
        << "undetectable flip at byte " << pos;
  }
}

TEST(SerializationFuzzTest, PublicKeyRejectsRandomBytes) {
  Random rng(107);
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    Bytes junk = rng.NextBytes(64);
    PublicKey key;
    if (PublicKey::Deserialize(junk, &key)) ++accepted;
  }
  // A random 64-byte string is on the curve with probability ~2^-128.
  EXPECT_EQ(accepted, 0);
}

TEST(SerializationStrictTest, UnknownJournalTypeRejected) {
  Journal journal = SampleJournal();
  Bytes raw = journal.Serialize();
  const size_t type_at = 16;  // after u64 jsn, u64 nonce
  ASSERT_EQ(raw[type_at], static_cast<uint8_t>(JournalType::kNormal));
  Journal out;
  raw[type_at] = static_cast<uint8_t>(JournalType::kPseudoGenesis);
  EXPECT_TRUE(Journal::Deserialize(raw, &out));
  raw[type_at] = 6;
  EXPECT_FALSE(Journal::Deserialize(raw, &out));

  ClientTransaction tx;
  tx.ledger_uri = "lg://strict";
  tx.payload = StringToBytes("p");
  tx.Sign(KeyPair::FromSeedString("ser-client"));
  raw = tx.Serialize();
  const size_t tx_type_at = 4 + tx.ledger_uri.size();
  ASSERT_EQ(raw[tx_type_at], static_cast<uint8_t>(JournalType::kNormal));
  ClientTransaction tx_out;
  raw[tx_type_at] = 6;
  EXPECT_FALSE(ClientTransaction::Deserialize(raw, &tx_out));
}

TEST(SerializationStrictTest, UnknownTimeNotaryModeRejected) {
  TimeEvidence evidence;
  evidence.mode = TimeNotaryMode::kTLedger;
  evidence.ledger_digest = Sha256::Hash(std::string_view("root"));
  Bytes raw = evidence.Serialize();
  TimeEvidence out;
  ASSERT_TRUE(TimeEvidence::Deserialize(raw, &out));
  EXPECT_EQ(out.mode, TimeNotaryMode::kTLedger);
  raw[0] = 2;
  EXPECT_FALSE(TimeEvidence::Deserialize(raw, &out));
}

TEST(MutationPayloadTest, EveryFormRoundTrips) {
  MutationPayload purge;
  purge.form = MutationPayload::Form::kPurge;
  purge.jsn = 9;
  purge.pseudo_genesis_jsn = 12;
  MutationPayload occult;
  occult.form = MutationPayload::Form::kOccult;
  occult.jsn = 3;
  MutationPayload by_clue;
  by_clue.form = MutationPayload::Form::kOccultClue;
  by_clue.clue = "person-42";
  by_clue.occulted_count = 5;
  for (const MutationPayload& m : {purge, occult, by_clue}) {
    MutationPayload out;
    ASSERT_TRUE(MutationPayload::Decode(m.Encode(), &out));
    EXPECT_EQ(out.form, m.form);
    EXPECT_EQ(out.jsn, m.jsn);
    EXPECT_EQ(out.pseudo_genesis_jsn, m.pseudo_genesis_jsn);
    EXPECT_EQ(out.clue, m.clue);
    EXPECT_EQ(out.occulted_count, m.occulted_count);
  }
  // The byte layout the ledger has always written.
  Bytes expected = StringToBytes("occult");
  PutU64(&expected, 3);
  EXPECT_EQ(occult.Encode(), expected);
}

TEST(MutationPayloadTest, WrongPrefixRejected) {
  MutationPayload out;
  Bytes raw = StringToBytes("purgx");
  PutU64(&raw, 9);
  PutU64(&raw, 12);
  EXPECT_FALSE(MutationPayload::Decode(raw, &out));
  raw = StringToBytes("occulx");
  PutU64(&raw, 3);
  EXPECT_FALSE(MutationPayload::Decode(raw, &out));
}

TEST(MutationPayloadTest, TrailingByteRejected) {
  MutationPayload occult;
  occult.form = MutationPayload::Form::kOccult;
  occult.jsn = 3;
  MutationPayload by_clue;
  by_clue.form = MutationPayload::Form::kOccultClue;
  by_clue.clue = "c";
  MutationPayload purge;
  for (const MutationPayload& m : {purge, occult, by_clue}) {
    Bytes raw = m.Encode();
    raw.push_back(0);
    MutationPayload out;
    EXPECT_FALSE(MutationPayload::Decode(raw, &out));
  }
}

}  // namespace
}  // namespace ledgerdb
