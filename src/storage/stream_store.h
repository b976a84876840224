#ifndef LEDGERDB_STORAGE_STREAM_STORE_H_
#define LEDGERDB_STORAGE_STREAM_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/retry.h"
#include "common/status.h"
#include "storage/env.h"

namespace ledgerdb {

/// Append-only record stream — the analog of LedgerDB's "stream file
/// system" (§II-C). Journals, time journals and the purge survival stream
/// are each backed by one stream. Records are addressed by their dense
/// append index.
class StreamStore {
 public:
  virtual ~StreamStore() = default;

  /// Appends a record and returns its index via `index`.
  virtual Status Append(Slice record, uint64_t* index) = 0;

  /// Appends every record in `records` as one durability group; record i
  /// lands at `*first_index + i` (indexes stay dense). The base
  /// implementation loops over Append; stores that support group commit
  /// override it to make the whole group durable with one flush, in which
  /// case a failure leaves nothing appended — callers must treat any
  /// error as fatal for the entire group.
  virtual Status AppendBatch(const std::vector<Slice>& records,
                             uint64_t* first_index);

  /// Reads record `index` into `out`. NotFound if the index was never
  /// written; Corruption if the underlying bytes fail validation.
  virtual Status Read(uint64_t index, Bytes* out) const = 0;

  /// Overwrites record `index` in place. Only the occult erasure path may
  /// use this (replacing a payload with its retained digest); streams are
  /// append-only for every other caller.
  virtual Status Overwrite(uint64_t index, Slice record) = 0;

  /// Number of records appended so far.
  virtual uint64_t Count() const = 0;

  /// CRC32 of record `index`'s current bytes. The base implementation
  /// reads the record and hashes it; stores that already keep per-record
  /// checksums (FileStreamStore frames) answer from memory without I/O —
  /// checkpoint recovery leans on that to detect in-place rewrites below
  /// the watermark in O(1) per record.
  virtual Status RecordCrc(uint64_t index, uint32_t* crc) const;

  /// Eager full-scan integrity check: validates every frame's checksums
  /// and sequencing so corruption surfaces now instead of at some future
  /// Read. Stores with no durable framing have nothing to verify.
  virtual Status Fsck() const { return Status::OK(); }
};

/// Heap-backed stream store used by tests and benchmarks.
class MemoryStreamStore : public StreamStore {
 public:
  Status Append(Slice record, uint64_t* index) override;
  Status Read(uint64_t index, Bytes* out) const override;
  Status Overwrite(uint64_t index, Slice record) override;
  uint64_t Count() const override { return records_.size(); }

 private:
  std::vector<Bytes> records_;
};

/// File-backed stream store. Records are appended to a single log file as
/// fixed-header frames
///
///   [u32 capacity][u32 length][u32 seq][u32 payload_crc][u32 header_crc]
///   [payload, `capacity` bytes]
///
/// (20-byte header, all fields little-endian). `capacity` is fixed at
/// append time; `length` (<= capacity) may shrink on in-place rewrites
/// (occult erasure, purge tombstones), so the reopen scan can always
/// advance by capacity. `seq` is the frame's index in the stream, making
/// holes and reordering detectable. `payload_crc` covers the live
/// `length` bytes; `header_crc` covers the first 16 header bytes, so a
/// torn or flipped header never parses as valid.
///
/// Durability bookkeeping lives in a sidecar (`path` + ".wm") holding the
/// byte offset up to which the log was known synced. On reopen, anything
/// at or beyond the watermark — damaged bytes from a torn write, or even
/// frames that parse cleanly (a group write can tear exactly on a frame
/// boundary, and none of those frames were ever acknowledged) — is
/// quarantined to `path` + ".quarantine" and truncated away
/// (recoverable). Damage below the watermark means bytes the store had
/// acknowledged as durable changed — a hard Status::Corruption. When the
/// sidecar is absent (legacy image) the scan is lenient: valid frames are
/// kept and quarantine starts at the first damaged byte.
class FileStreamStore : public StreamStore {
 public:
  static constexpr size_t kFrameHeaderSize = 20;

  /// What the reopen scan found and did. Inspected by fsck tooling and
  /// crash tests; a clean open reports zero frames quarantined.
  struct RecoveryReport {
    uint64_t frames = 0;             // valid frames indexed
    uint64_t quarantined_bytes = 0;  // torn-tail bytes moved aside
    bool tail_quarantined = false;
    bool watermark_missing = false;  // sidecar absent/unreadable (treated as 0)
    uint64_t watermark = 0;          // durable size loaded from the sidecar
  };

  /// Opens the log at `path` under `env`, creating it if absent. An
  /// existing log is scanned frame by frame to rebuild the offset index;
  /// see the class comment for the torn-tail vs corruption policy.
  static Status Open(Env* env, const std::string& path,
                     std::unique_ptr<FileStreamStore>* out);

  /// Convenience overload on the default (stdio) environment.
  static Status Open(const std::string& path,
                     std::unique_ptr<FileStreamStore>* out);

  ~FileStreamStore() override;

  FileStreamStore(const FileStreamStore&) = delete;
  FileStreamStore& operator=(const FileStreamStore&) = delete;

  /// A group of one through AppendBatch.
  Status Append(Slice record, uint64_t* index) override;

  /// Group commit, the store's one write body: encodes all frames into
  /// one buffer, writes it with a single Write + Sync and advances the
  /// durable watermark with one more sync — two fsyncs per group instead
  /// of two per record. Either the whole group is acknowledged or (on any
  /// error) none of it is indexed.
  Status AppendBatch(const std::vector<Slice>& records,
                     uint64_t* first_index) override;

  Status Read(uint64_t index, Bytes* out) const override;
  Status Overwrite(uint64_t index, Slice record) override;
  uint64_t Count() const override { return offsets_.size(); }
  Status RecordCrc(uint64_t index, uint32_t* crc) const override;

  /// Re-validates every frame on disk (header crc, sequence number,
  /// payload crc) without touching the in-memory index.
  Status Fsck() const override;

  const RecoveryReport& recovery_report() const { return report_; }

  /// Durable watermark currently recorded in the sidecar.
  uint64_t DurableWatermark() const { return watermark_; }

 private:
  FileStreamStore(Env* env, std::string path);

  /// Rewrites the watermark sidecar to cover `end_offset_` and syncs it.
  Status PersistWatermark();

  /// Writes `data` at `offset` and syncs `file`, each step retried on
  /// transient errors.
  Status WriteAndSync(File* file, uint64_t offset, Slice data);

  Env* env_;
  std::string path_;
  std::unique_ptr<File> file_;
  std::unique_ptr<File> wm_file_;
  RetryPolicy retry_;
  uint64_t end_offset_ = 0;  // byte offset one past the last valid frame
  uint64_t watermark_ = 0;
  RecoveryReport report_;
  std::vector<uint64_t> offsets_;    // byte offset of each frame
  std::vector<uint32_t> lengths_;    // live payload length of each frame
  std::vector<uint32_t> capacities_; // fixed payload capacity of each frame
  std::vector<uint32_t> crcs_;       // payload crc of each frame
};

/// CRC32 (IEEE) over a byte range; frame checksum for FileStreamStore.
uint32_t Crc32(const uint8_t* data, size_t size);

}  // namespace ledgerdb

#endif  // LEDGERDB_STORAGE_STREAM_STORE_H_
