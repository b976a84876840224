#include "ledger/journal.h"

#include <string_view>

namespace ledgerdb {

namespace {

/// Streams the canonical Put*-encodings straight into a SHA-256 state so
/// the per-append hash path (RequestHash at prevalidation, TxHash at every
/// commit and fam verification) never materializes a concatenated heap
/// buffer. Byte-for-byte identical to hashing the serialized form.
class HashWriter {
 public:
  void Str(std::string_view s) { h_.Update(Slice(s)); }
  void Raw(const uint8_t* data, size_t size) { h_.Update(data, size); }
  void U8(uint8_t v) { h_.Update(&v, 1); }
  void U32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    h_.Update(b, 4);
  }
  void U64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    h_.Update(b, 8);
  }
  void LengthPrefixed(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Str(s);
  }
  void LengthPrefixed(const Bytes& b) {
    U32(static_cast<uint32_t>(b.size()));
    h_.Update(b);
  }
  void Digest32(const Digest& d) { h_.Update(d.bytes.data(), 32); }
  void Key(const PublicKey& key) {
    uint8_t b[64];
    key.point().x.ToBigEndian(b);
    key.point().y.ToBigEndian(b + 32);
    h_.Update(b, 64);
  }
  void Sig(const Signature& sig) {
    uint8_t b[64];
    sig.r.ToBigEndian(b);
    sig.s.ToBigEndian(b + 32);
    h_.Update(b, 64);
  }
  Digest Finish() { return h_.Finish(); }

 private:
  Sha256 h_;
};

}  // namespace

Digest ClientTransaction::RequestHash() const {
  HashWriter w;
  w.Str("request");
  w.LengthPrefixed(ledger_uri);
  w.U8(static_cast<uint8_t>(type));
  w.U32(static_cast<uint32_t>(clues.size()));
  for (const std::string& clue : clues) {
    w.LengthPrefixed(clue);
  }
  w.LengthPrefixed(payload);
  w.U64(nonce);
  w.U64(static_cast<uint64_t>(client_ts));
  if (client_key.valid()) {
    w.Key(client_key);
  }
  return w.Finish();
}

void ClientTransaction::Sign(const KeyPair& key) {
  client_key = key.public_key();
  client_sig = key.Sign(RequestHash());
}

bool ClientTransaction::VerifyClientSignature() const {
  return VerifySignature(client_key, RequestHash(), client_sig);
}

Bytes ClientTransaction::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, StringToBytes(ledger_uri));
  out.push_back(static_cast<uint8_t>(type));
  PutU32(&out, static_cast<uint32_t>(clues.size()));
  for (const std::string& clue : clues) {
    PutLengthPrefixed(&out, StringToBytes(clue));
  }
  PutLengthPrefixed(&out, payload);
  PutU64(&out, nonce);
  PutU64(&out, static_cast<uint64_t>(client_ts));
  out.push_back(client_key.valid() ? 1 : 0);
  if (client_key.valid()) {
    Bytes key = client_key.Serialize();
    out.insert(out.end(), key.begin(), key.end());
    Bytes sig = client_sig.Serialize();
    out.insert(out.end(), sig.begin(), sig.end());
  }
  return out;
}

Digest Journal::TxHash() const {
  HashWriter w;
  w.Str("journal");
  w.U64(jsn);
  w.U64(nonce);
  w.U8(static_cast<uint8_t>(type));
  w.U64(static_cast<uint64_t>(server_ts));
  w.U32(static_cast<uint32_t>(clues.size()));
  for (const std::string& clue : clues) {
    w.LengthPrefixed(clue);
  }
  // Only the digest of the payload: occulting must not change the tx-hash
  // (Protocol 2).
  w.Digest32(payload_digest);
  w.Digest32(request_hash);
  if (client_key.valid()) {
    w.Key(client_key);
    w.Sig(client_sig);
  }
  return w.Finish();
}

Digest Journal::EndorsementHash() const {
  HashWriter w;
  w.Str("endorse");
  w.Digest32(TxHash());
  return w.Finish();
}

Bytes Journal::Serialize() const {
  Bytes out;
  PutU64(&out, jsn);
  PutU64(&out, nonce);
  out.push_back(static_cast<uint8_t>(type));
  PutU64(&out, static_cast<uint64_t>(server_ts));
  PutU32(&out, static_cast<uint32_t>(clues.size()));
  for (const std::string& clue : clues) {
    PutLengthPrefixed(&out, StringToBytes(clue));
  }
  PutLengthPrefixed(&out, payload);
  PutDigest(&out, payload_digest);
  out.push_back(occulted ? 1 : 0);
  PutDigest(&out, request_hash);
  out.push_back(client_key.valid() ? 1 : 0);
  if (client_key.valid()) {
    Bytes key = client_key.Serialize();
    out.insert(out.end(), key.begin(), key.end());
    Bytes sig = client_sig.Serialize();
    out.insert(out.end(), sig.begin(), sig.end());
  }
  PutU32(&out, static_cast<uint32_t>(endorsements.size()));
  for (const Endorsement& e : endorsements) {
    Bytes key = e.key.Serialize();
    out.insert(out.end(), key.begin(), key.end());
    Bytes sig = e.signature.Serialize();
    out.insert(out.end(), sig.begin(), sig.end());
  }
  return out;
}

namespace {

// Journal types stop at kPseudoGenesis; any other byte is a forgery.
bool ReadJournalType(ByteReader* r, JournalType* type) {
  uint8_t v = r->U8();
  if (v > static_cast<uint8_t>(JournalType::kPseudoGenesis)) return r->Fail();
  *type = static_cast<JournalType>(v);
  return true;
}

std::vector<std::string> ReadClues(ByteReader* r) {
  std::vector<std::string> clues(r->Count(1024));
  for (std::string& clue : clues) clue = r->LengthPrefixed().ToString();
  return clues;
}

}  // namespace

bool Journal::Deserialize(Slice raw, Journal* out) {
  ByteReader r(raw);
  out->jsn = r.U64();
  out->nonce = r.U64();
  if (!ReadJournalType(&r, &out->type)) return false;
  out->server_ts = static_cast<Timestamp>(r.U64());
  out->clues = ReadClues(&r);
  out->payload = r.LengthPrefixed().ToBytes();
  out->payload_digest = r.Digest();
  out->occulted = r.Bool();
  out->request_hash = r.Digest();
  if (r.Bool()) {
    if (!PublicKey::Deserialize(r.Fixed(64), &out->client_key) ||
        !Signature::Deserialize(r.Fixed(64), &out->client_sig)) {
      return false;
    }
  } else {
    out->client_key = PublicKey();
  }
  out->endorsements.assign(r.Count(1024), Endorsement());
  for (Endorsement& e : out->endorsements) {
    if (!PublicKey::Deserialize(r.Fixed(64), &e.key) ||
        !Signature::Deserialize(r.Fixed(64), &e.signature)) {
      return false;
    }
  }
  return r.AtEnd();
}

bool ClientTransaction::Deserialize(Slice raw, ClientTransaction* out) {
  ByteReader r(raw);
  out->ledger_uri = r.LengthPrefixed().ToString();
  if (!ReadJournalType(&r, &out->type)) return false;
  out->clues = ReadClues(&r);
  out->payload = r.LengthPrefixed().ToBytes();
  out->nonce = r.U64();
  out->client_ts = static_cast<Timestamp>(r.U64());
  if (r.Bool()) {
    if (!PublicKey::Deserialize(r.Fixed(64), &out->client_key) ||
        !Signature::Deserialize(r.Fixed(64), &out->client_sig)) {
      return false;
    }
  } else {
    out->client_key = PublicKey();
  }
  return r.AtEnd();
}

Bytes JournalDelta::Serialize() const {
  Bytes out;
  PutDigest(&out, tx_hash);
  PutDigest(&out, payload_digest);
  PutU32(&out, static_cast<uint32_t>(clues.size()));
  for (const std::string& clue : clues) {
    PutLengthPrefixed(&out, StringToBytes(clue));
  }
  return out;
}

bool JournalDelta::Deserialize(Slice raw, JournalDelta* out) {
  ByteReader r(raw);
  out->tx_hash = r.Digest();
  out->payload_digest = r.Digest();
  out->clues = ReadClues(&r);
  return r.AtEnd();
}

namespace {

std::string_view MutationTag(MutationPayload::Form form) {
  switch (form) {
    case MutationPayload::Form::kPurge:
      return "purge";
    case MutationPayload::Form::kOccult:
      return "occult";
    case MutationPayload::Form::kOccultClue:
      return "occult-clue";
  }
  return "";
}

}  // namespace

Bytes MutationPayload::Encode() const {
  Bytes out = StringToBytes(MutationTag(form));
  switch (form) {
    case Form::kPurge:
      PutU64(&out, jsn);
      PutU64(&out, pseudo_genesis_jsn);
      break;
    case Form::kOccult:
      PutU64(&out, jsn);
      break;
    case Form::kOccultClue:
      PutLengthPrefixed(&out, Slice(std::string_view(clue)));
      PutU64(&out, occulted_count);
      break;
  }
  return out;
}

bool MutationPayload::Decode(Slice raw, MutationPayload* out) {
  // "occult" is a prefix of "occult-clue", so each form is tried in full.
  for (Form form : {Form::kPurge, Form::kOccult, Form::kOccultClue}) {
    const std::string_view tag = MutationTag(form);
    ByteReader r(raw);
    if (!(r.Fixed(tag.size()) == Slice(tag))) continue;
    MutationPayload m;
    m.form = form;
    if (form == Form::kOccultClue) {
      m.clue = r.LengthPrefixed().ToString();
      m.occulted_count = r.U64();
    } else {
      m.jsn = r.U64();
      if (form == Form::kPurge) m.pseudo_genesis_jsn = r.U64();
    }
    if (r.AtEnd()) {
      *out = std::move(m);
      return true;
    }
  }
  return false;
}

}  // namespace ledgerdb
