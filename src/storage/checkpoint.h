#ifndef LEDGERDB_STORAGE_CHECKPOINT_H_
#define LEDGERDB_STORAGE_CHECKPOINT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "crypto/ecdsa.h"
#include "crypto/hash.h"
#include "storage/env.h"

namespace ledgerdb {

/// Snapshot format version understood by this build. Bumped whenever any
/// section's byte layout changes; a manifest carrying a different version
/// is rejected (the loader falls back to older checkpoints / full replay).
constexpr uint32_t kCheckpointFormatVersion = 1;

/// Section tags inside a checkpoint snapshot file. Each section is framed
/// `[u32 tag][length-prefixed payload][u32 payload crc]` after the file
/// header, so torn or bit-flipped sections are detected before any payload
/// is parsed (the manifest's whole-file SHA-256 catches them too; the CRC
/// localizes the damage for fsck).
enum CheckpointSection : uint32_t {
  kCkptSectionMeta = 1,        ///< uri, watermark, height, options fingerprint
  kCkptSectionJournals = 2,    ///< raw stream records [0, watermark)
  kCkptSectionTxHashes = 3,    ///< 32-byte tx hash per covered journal
  kCkptSectionFam = 4,         ///< FamAccumulator::SerializeTo
  kCkptSectionCmTree = 5,      ///< CmTree::SerializeTo
  kCkptSectionWorldState = 6,  ///< WorldState::SerializeTo
};

/// The `.ckpt` manifest published next to a snapshot: records what the
/// snapshot covers (journal watermark, block height, the boundary block
/// hash) and what it must hash to (snapshot size + SHA-256, plus the three
/// commitment roots the restored state must reproduce). The whole manifest
/// is LSP-signed — same trust model as SignedCommitment — so a tampered
/// snapshot or manifest cannot steer recovery: any byte change breaks the
/// SHA binding or the signature, and the loader falls back.
struct CheckpointManifest {
  uint32_t format_version = kCheckpointFormatVersion;
  std::string ledger_uri;
  uint64_t watermark = 0;     ///< journals covered: [0, watermark)
  uint64_t block_height = 0;  ///< sealed blocks covered
  Digest boundary_block_hash;  ///< hash of block header `block_height - 1`
  Digest fam_root;             ///< fam root at the watermark
  Digest clue_root;            ///< CM-Tree1 root at the watermark
  Digest state_root;           ///< state transition accumulator root
  Digest state_current_root;   ///< state MPT (latest values) root
  uint32_t fractal_height = 0;  ///< options fingerprint: fam epoch shape
  uint64_t block_capacity = 0;  ///< options fingerprint: journals per block
  Timestamp timestamp = 0;
  uint64_t snapshot_size = 0;  ///< exact snapshot file size in bytes
  Digest snapshot_sha;         ///< SHA-256 over the snapshot file bytes
  Signature lsp_sig;

  /// The signed message digest over every field above the signature.
  Digest MessageHash() const;

  /// Checks the LSP signature.
  bool Verify(const PublicKey& lsp_key) const;

  /// Framed bytes: magic + fields + signature + trailing CRC32.
  Bytes Serialize() const;

  /// Parses Serialize() output; false on bad magic, CRC, or layout.
  static bool Deserialize(Slice raw, CheckpointManifest* out);
};

/// Appends the snapshot file header (magic + format version).
void CheckpointSnapshotInit(Bytes* out);

/// Appends one CRC-framed section.
void CheckpointAppendSection(Bytes* out, uint32_t tag, const Bytes& payload);

/// Splits a snapshot into its sections, validating the header, that no
/// tag repeats and no trailing bytes remain — and, unless `verify_crc`
/// is false, every section CRC. Callers that have already pinned the
/// whole file against the manifest's signed SHA-256 may skip the CRCs;
/// offline tooling without the manifest should keep them on. Sections are
/// views into `raw`, which must outlive them.
Status CheckpointParseSections(Slice raw, std::map<uint32_t, Slice>* sections,
                               bool verify_crc = true);

/// One slot's manifest as found on disk: `manifest` is meaningful only
/// when `status.ok()`. `status` reflects frame validity (CRC + layout) —
/// signature and snapshot checks are the caller's (they need the LSP key
/// and the snapshot bytes).
struct CheckpointEntry {
  uint32_t slot = 0;
  CheckpointManifest manifest;
  Status status = Status::OK();
};

/// Two-slot checkpoint store under a base path. Slots alternate, so the
/// previous checkpoint is never overwritten while the next one is being
/// published: a crash mid-write can only cost the checkpoint being
/// written, never the one recovery would otherwise use.
///
/// Publication is persist-before-publish throughout: snapshot bytes go to
/// `<base>.snap.tmp` (write + Sync + Rename into the slot), then the
/// manifest to `<base>.ckpt.tmp` the same way. The manifest rename is the
/// publish point — until it lands, the slot's old manifest (if any) simply
/// fails its SHA binding against the new snapshot and the loader skips the
/// slot. All file operations are wrapped in RetryTransient, matching the
/// stream store's transient-error contract.
class CheckpointStore {
 public:
  static constexpr uint32_t kSlots = 2;

  CheckpointStore(Env* env, std::string base_path, RetryPolicy retry = {});

  /// Publishes `manifest` + `snapshot` into the slot not holding the
  /// newest valid checkpoint. The manifest must already bind the snapshot
  /// (snapshot_size / snapshot_sha) and carry its signature.
  /// `slot_out` (optional) receives the slot written.
  Status Write(const CheckpointManifest& manifest, const Bytes& snapshot,
               uint32_t* slot_out = nullptr);

  /// One entry per slot whose manifest file exists, in slot order.
  /// Entries that fail frame validation carry a non-OK status.
  Status List(std::vector<CheckpointEntry>* out) const;

  /// Reads the snapshot for `slot` and checks it against the manifest's
  /// size and SHA-256 binding; Corruption on any mismatch.
  Status ReadSnapshot(const CheckpointManifest& manifest, uint32_t slot,
                      Bytes* out) const;

  std::string ManifestPath(uint32_t slot) const;
  std::string SnapshotPath(uint32_t slot) const;

 private:
  /// write + Sync to `tmp`, then Rename onto `final_path`; retried.
  Status WriteFileAtomic(const std::string& tmp, const std::string& final_path,
                         const Bytes& data);

  Env* env_;
  std::string base_;
  RetryPolicy retry_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_STORAGE_CHECKPOINT_H_
