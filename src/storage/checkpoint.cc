#include "storage/checkpoint.h"

#include "storage/stream_store.h"

namespace ledgerdb {

namespace {

constexpr uint32_t kManifestMagic = 0x74706b63;  // "ckpt"
constexpr uint32_t kSnapshotMagic = 0x70616e73;  // "snap"

/// Every manifest field above the signature, in declaration order — the
/// byte string both the CRC frame and the LSP signature commit to.
void EncodeManifestCore(const CheckpointManifest& m, Bytes* out) {
  PutU32(out, kManifestMagic);
  PutU32(out, m.format_version);
  PutLengthPrefixed(out, StringToBytes(m.ledger_uri));
  PutU64(out, m.watermark);
  PutU64(out, m.block_height);
  for (const Digest* d : {&m.boundary_block_hash, &m.fam_root, &m.clue_root,
                          &m.state_root, &m.state_current_root}) {
    PutDigest(out, *d);
  }
  PutU32(out, m.fractal_height);
  PutU64(out, m.block_capacity);
  PutU64(out, static_cast<uint64_t>(m.timestamp));
  PutU64(out, m.snapshot_size);
  PutDigest(out, m.snapshot_sha);
}

}  // namespace

Digest CheckpointManifest::MessageHash() const {
  Bytes buf = StringToBytes("checkpoint");
  EncodeManifestCore(*this, &buf);
  return Sha256::Hash(buf);
}

bool CheckpointManifest::Verify(const PublicKey& lsp_key) const {
  return VerifySignature(lsp_key, MessageHash(), lsp_sig);
}

Bytes CheckpointManifest::Serialize() const {
  Bytes out;
  EncodeManifestCore(*this, &out);
  Bytes sig = lsp_sig.Serialize();
  out.insert(out.end(), sig.begin(), sig.end());
  PutU32(&out, Crc32(out.data(), out.size()));
  return out;
}

bool CheckpointManifest::Deserialize(Slice raw, CheckpointManifest* out) {
  if (raw.size() < 4) return false;
  const Slice body(raw.data(), raw.size() - 4);
  ByteReader trailer(Slice(body.data() + body.size(), 4));
  if (trailer.U32() != Crc32(body.data(), body.size())) return false;
  ByteReader r(body);
  if (r.U32() != kManifestMagic) return false;
  out->format_version = r.U32();
  out->ledger_uri = r.LengthPrefixed().ToString();
  out->watermark = r.U64();
  out->block_height = r.U64();
  for (Digest* d : {&out->boundary_block_hash, &out->fam_root, &out->clue_root,
                    &out->state_root, &out->state_current_root}) {
    *d = r.Digest();
  }
  out->fractal_height = r.U32();
  out->block_capacity = r.U64();
  out->timestamp = static_cast<Timestamp>(r.U64());
  out->snapshot_size = r.U64();
  out->snapshot_sha = r.Digest();
  return Signature::Deserialize(r.Fixed(64), &out->lsp_sig) && r.AtEnd();
}

void CheckpointSnapshotInit(Bytes* out) {
  PutU32(out, kSnapshotMagic);
  PutU32(out, kCheckpointFormatVersion);
}

void CheckpointAppendSection(Bytes* out, uint32_t tag, const Bytes& payload) {
  PutU32(out, tag);
  PutLengthPrefixed(out, payload);
  PutU32(out, Crc32(payload.data(), payload.size()));
}

Status CheckpointParseSections(Slice raw, std::map<uint32_t, Slice>* sections,
                               bool verify_crc) {
  sections->clear();
  ByteReader r(raw);
  if (r.U32() != kSnapshotMagic) {
    return Status::Corruption("snapshot: bad magic");
  }
  if (r.U32() != kCheckpointFormatVersion) {
    return Status::Corruption("snapshot: unsupported format version");
  }
  while (!r.AtEnd()) {
    const uint32_t tag = r.U32();
    const Slice payload = r.LengthPrefixed();
    const uint32_t crc = r.U32();
    if (!r.ok()) return Status::Corruption("snapshot: torn section frame");
    if (verify_crc && crc != Crc32(payload.data(), payload.size())) {
      return Status::Corruption("snapshot: section " + std::to_string(tag) +
                                " crc mismatch");
    }
    if (!sections->emplace(tag, payload).second) {
      return Status::Corruption("snapshot: duplicate section " +
                                std::to_string(tag));
    }
  }
  return Status::OK();
}

CheckpointStore::CheckpointStore(Env* env, std::string base_path,
                                 RetryPolicy retry)
    : env_(env), base_(std::move(base_path)), retry_(retry) {}

std::string CheckpointStore::ManifestPath(uint32_t slot) const {
  return base_ + ".ckpt." + std::to_string(slot);
}

std::string CheckpointStore::SnapshotPath(uint32_t slot) const {
  return base_ + ".snap." + std::to_string(slot);
}

Status CheckpointStore::WriteFileAtomic(const std::string& tmp,
                                        const std::string& final_path,
                                        const Bytes& data) {
  Status s = RetryTransient(retry_, [&] {
    std::unique_ptr<File> file;
    LEDGERDB_RETURN_IF_ERROR(env_->OpenFile(tmp, &file));
    // A stale tmp from a crashed earlier attempt may be longer than the
    // bytes written below; truncate so the rename publishes exactly `data`.
    LEDGERDB_RETURN_IF_ERROR(file->Truncate(0));
    LEDGERDB_RETURN_IF_ERROR(file->Write(0, Slice(data)));
    return file->Sync();
  });
  if (!s.ok()) return s;
  return RetryTransient(retry_, [&] { return env_->Rename(tmp, final_path); });
}

Status CheckpointStore::Write(const CheckpointManifest& manifest,
                              const Bytes& snapshot, uint32_t* slot_out) {
  // Pick the slot that does NOT hold the newest valid manifest, so the
  // checkpoint a fallback would use survives this write in every crash.
  std::vector<CheckpointEntry> entries;
  LEDGERDB_RETURN_IF_ERROR(List(&entries));
  uint32_t slot = 0;
  uint64_t newest = 0;
  bool have_valid = false;
  for (const CheckpointEntry& entry : entries) {
    if (!entry.status.ok()) continue;
    if (!have_valid || entry.manifest.watermark >= newest) {
      newest = entry.manifest.watermark;
      slot = (entry.slot + 1) % kSlots;
      have_valid = true;
    }
  }
  LEDGERDB_RETURN_IF_ERROR(
      WriteFileAtomic(base_ + ".snap.tmp", SnapshotPath(slot), snapshot));
  LEDGERDB_RETURN_IF_ERROR(WriteFileAtomic(base_ + ".ckpt.tmp",
                                           ManifestPath(slot),
                                           manifest.Serialize()));
  if (slot_out != nullptr) *slot_out = slot;
  return Status::OK();
}

Status CheckpointStore::List(std::vector<CheckpointEntry>* out) const {
  out->clear();
  for (uint32_t slot = 0; slot < kSlots; ++slot) {
    const std::string path = ManifestPath(slot);
    if (!env_->FileExists(path)) continue;
    CheckpointEntry entry;
    entry.slot = slot;
    Bytes raw;
    Status s = RetryTransient(retry_, [&] {
      std::unique_ptr<File> file;
      LEDGERDB_RETURN_IF_ERROR(env_->OpenFile(path, &file));
      uint64_t size = 0;
      LEDGERDB_RETURN_IF_ERROR(file->Size(&size));
      return file->Read(0, size, &raw);
    });
    if (s.ok() && !CheckpointManifest::Deserialize(raw, &entry.manifest)) {
      s = Status::Corruption("checkpoint manifest " + path +
                             ": bad frame (magic/crc/layout)");
    }
    entry.status = s;
    out->push_back(std::move(entry));
  }
  return Status::OK();
}

Status CheckpointStore::ReadSnapshot(const CheckpointManifest& manifest,
                                     uint32_t slot, Bytes* out) const {
  const std::string path = SnapshotPath(slot);
  if (!env_->FileExists(path)) {
    return Status::Corruption("checkpoint snapshot " + path + ": missing");
  }
  uint64_t size = 0;
  Status s = RetryTransient(retry_, [&] {
    std::unique_ptr<File> file;
    LEDGERDB_RETURN_IF_ERROR(env_->OpenFile(path, &file));
    LEDGERDB_RETURN_IF_ERROR(file->Size(&size));
    if (size != manifest.snapshot_size) {
      // Not transient — surface as Corruption below, outside the retry.
      return Status::OK();
    }
    return file->Read(0, size, out);
  });
  LEDGERDB_RETURN_IF_ERROR(s);
  if (size != manifest.snapshot_size) {
    return Status::Corruption("checkpoint snapshot " + path + ": size " +
                              std::to_string(size) + " != manifest " +
                              std::to_string(manifest.snapshot_size));
  }
  if (Sha256::Hash(*out) != manifest.snapshot_sha) {
    return Status::Corruption("checkpoint snapshot " + path +
                              ": SHA-256 mismatch against manifest");
  }
  return Status::OK();
}

}  // namespace ledgerdb
