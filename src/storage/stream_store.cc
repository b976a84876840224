#include "storage/stream_store.h"

#include <array>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

uint32_t DecodeU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// Encodes one frame (header + `record`) at `h`, which must hold
// kFrameHeaderSize + record.size() bytes; returns the payload crc.
uint32_t EncodeFrame(uint8_t* h, uint32_t capacity, uint32_t seq,
                     Slice record) {
  uint32_t length = static_cast<uint32_t>(record.size());
  uint32_t payload_crc = Crc32(record.data(), record.size());
  std::memcpy(h, &capacity, 4);
  std::memcpy(h + 4, &length, 4);
  std::memcpy(h + 8, &seq, 4);
  std::memcpy(h + 12, &payload_crc, 4);
  uint32_t header_crc = Crc32(h, 16);
  std::memcpy(h + 16, &header_crc, 4);
  if (length > 0) {
    std::memcpy(h + FileStreamStore::kFrameHeaderSize, record.data(), length);
  }
  return payload_crc;
}

constexpr size_t kWatermarkRecordSize = 12;  // [u64 size][u32 crc]

std::string WatermarkPath(const std::string& path) { return path + ".wm"; }
std::string QuarantinePath(const std::string& path) {
  return path + ".quarantine";
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

Status StreamStore::RecordCrc(uint64_t index, uint32_t* crc) const {
  Bytes record;
  LEDGERDB_RETURN_IF_ERROR(Read(index, &record));
  *crc = Crc32(record.data(), record.size());
  return Status::OK();
}

Status StreamStore::AppendBatch(const std::vector<Slice>& records,
                                uint64_t* first_index) {
  *first_index = Count();
  for (const Slice& record : records) {
    uint64_t index = 0;
    LEDGERDB_RETURN_IF_ERROR(Append(record, &index));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MemoryStreamStore
// ---------------------------------------------------------------------------

Status MemoryStreamStore::Append(Slice record, uint64_t* index) {
  *index = records_.size();
  records_.push_back(record.ToBytes());
  return Status::OK();
}

Status MemoryStreamStore::Read(uint64_t index, Bytes* out) const {
  if (index >= records_.size()) {
    return Status::NotFound("stream index out of range");
  }
  *out = records_[index];
  return Status::OK();
}

Status MemoryStreamStore::Overwrite(uint64_t index, Slice record) {
  if (index >= records_.size()) {
    return Status::NotFound("stream index out of range");
  }
  records_[index] = record.ToBytes();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileStreamStore
// ---------------------------------------------------------------------------

FileStreamStore::FileStreamStore(Env* env, std::string path)
    : env_(env), path_(std::move(path)) {}

FileStreamStore::~FileStreamStore() = default;

Status FileStreamStore::Open(const std::string& path,
                             std::unique_ptr<FileStreamStore>* out) {
  return Open(Env::Default(), path, out);
}

Status FileStreamStore::Open(Env* env, const std::string& path,
                             std::unique_ptr<FileStreamStore>* out) {
  std::unique_ptr<FileStreamStore> store(new FileStreamStore(env, path));
  LEDGERDB_RETURN_IF_ERROR(env->OpenFile(path, &store->file_));
  bool wm_present = env->FileExists(WatermarkPath(path));
  LEDGERDB_RETURN_IF_ERROR(env->OpenFile(WatermarkPath(path), &store->wm_file_));
  uint64_t file_size = 0;
  LEDGERDB_RETURN_IF_ERROR(store->file_->Size(&file_size));

  // Load the durable watermark. An absent or unreadable sidecar degrades
  // to 0 (every frame is treated as potentially torn — lenient), but a
  // valid watermark pointing past the end of the log means acknowledged
  // bytes vanished: hard corruption.
  uint64_t wm = 0;
  bool wm_valid = false;
  if (wm_present) {
    uint64_t wm_size = 0;
    Bytes rec;
    if (store->wm_file_->Size(&wm_size).ok() &&
        wm_size >= kWatermarkRecordSize &&
        store->wm_file_->Read(0, kWatermarkRecordSize, &rec).ok() &&
        Crc32(rec.data(), 8) == DecodeU32(rec.data() + 8)) {
      std::memcpy(&wm, rec.data(), 8);
      wm_valid = true;
    }
  }
  store->report_.watermark_missing = !wm_valid;
  store->report_.watermark = wm;
  if (wm > file_size) {
    return Status::Corruption(
        "stream file shorter than durable watermark (" +
        std::to_string(file_size) + " < " + std::to_string(wm) + "): " + path);
  }

  // Scan frames from the head. Any validation failure stops the scan at
  // `offset`; whether that is recoverable depends on the watermark.
  uint64_t offset = 0;
  std::string damage;
  while (offset < file_size && damage.empty()) {
    if (wm_valid && offset >= wm) {
      // Bytes past the durable watermark were never acknowledged (the
      // crash hit after the data write but before the watermark
      // advanced). They may even parse as valid frames — a torn group
      // write can tear exactly on a frame boundary — so everything past
      // the watermark is dropped, never silently adopted.
      damage = "unacknowledged bytes past durable watermark";
      break;
    }
    if (offset + kFrameHeaderSize > file_size) {
      damage = "partial frame header";
      break;
    }
    Bytes h;
    LEDGERDB_RETURN_IF_ERROR(store->file_->Read(offset, kFrameHeaderSize, &h));
    uint32_t capacity = DecodeU32(h.data());
    uint32_t length = DecodeU32(h.data() + 4);
    uint32_t seq = DecodeU32(h.data() + 8);
    uint32_t payload_crc = DecodeU32(h.data() + 12);
    if (Crc32(h.data(), 16) != DecodeU32(h.data() + 16)) {
      damage = "frame header crc mismatch";
      break;
    }
    if (length > capacity) {
      damage = "frame length exceeds capacity";
      break;
    }
    if (offset + kFrameHeaderSize + capacity > file_size) {
      damage = "frame payload extends past end of file";
      break;
    }
    if (seq != static_cast<uint32_t>(store->offsets_.size())) {
      damage = "frame sequence number mismatch";
      break;
    }
    Bytes payload;
    LEDGERDB_RETURN_IF_ERROR(
        store->file_->Read(offset + kFrameHeaderSize, length, &payload));
    if (Crc32(payload.data(), payload.size()) != payload_crc) {
      damage = "frame payload crc mismatch";
      break;
    }
    store->offsets_.push_back(offset);
    store->lengths_.push_back(length);
    store->capacities_.push_back(capacity);
    store->crcs_.push_back(payload_crc);
    offset += kFrameHeaderSize + capacity;
  }

  if (!damage.empty()) {
    if (offset < wm) {
      return Status::Corruption(
          "mid-stream corruption at offset " + std::to_string(offset) +
          " (below durable watermark " + std::to_string(wm) + "): " + damage +
          ": " + path);
    }
    // Torn tail from a crash mid-append: move the damaged bytes aside for
    // post-mortem inspection, then truncate the log back to the last valid
    // frame boundary.
    Bytes tail;
    LEDGERDB_RETURN_IF_ERROR(store->file_->Read(offset, file_size - offset,
                                                &tail));
    std::unique_ptr<File> quarantine;
    LEDGERDB_RETURN_IF_ERROR(env->OpenFile(QuarantinePath(path), &quarantine));
    LEDGERDB_RETURN_IF_ERROR(quarantine->Truncate(0));
    LEDGERDB_RETURN_IF_ERROR(quarantine->Write(0, Slice(tail)));
    LEDGERDB_RETURN_IF_ERROR(quarantine->Sync());
    LEDGERDB_RETURN_IF_ERROR(store->file_->Truncate(offset));
    LEDGERDB_RETURN_IF_ERROR(store->file_->Sync());
    store->report_.tail_quarantined = true;
    store->report_.quarantined_bytes = tail.size();
    LEDGERDB_OBS_COUNT(obs::names::kStorageTornTailsTotal);
    LEDGERDB_OBS_COUNT_N(obs::names::kStorageQuarantinedBytesTotal,
                         tail.size());
  }

  store->end_offset_ = offset;
  store->watermark_ = offset;
  store->report_.frames = store->offsets_.size();
  LEDGERDB_OBS_COUNT_N(obs::names::kStorageRecoveredFramesTotal,
                       store->offsets_.size());
  LEDGERDB_RETURN_IF_ERROR(store->PersistWatermark());
  *out = std::move(store);
  return Status::OK();
}

Status FileStreamStore::PersistWatermark() {
  uint8_t rec[kWatermarkRecordSize];
  std::memcpy(rec, &watermark_, 8);
  uint32_t crc = Crc32(rec, 8);
  std::memcpy(rec + 8, &crc, 4);
  return WriteAndSync(wm_file_.get(), 0, Slice(rec, kWatermarkRecordSize));
}

Status FileStreamStore::WriteAndSync(File* file, uint64_t offset, Slice data) {
  LEDGERDB_RETURN_IF_ERROR(
      RetryTransient(retry_, [&] { return file->Write(offset, data); }));
  return RetryTransient(retry_, [&] {
    LEDGERDB_OBS_COUNT(obs::names::kStorageFsyncsTotal);
    return file->Sync();
  });
}

Status FileStreamStore::Append(Slice record, uint64_t* index) {
  return AppendBatch({record}, index);
}

Status FileStreamStore::AppendBatch(const std::vector<Slice>& records,
                                    uint64_t* first_index) {
  if (records.empty()) {
    *first_index = offsets_.size();
    return Status::OK();
  }
  LEDGERDB_OBS_TIMER(append_timer, obs::names::kStorageAppendUs);
  LEDGERDB_OBS_OBSERVE(obs::names::kStorageGroupCommitSizeCount,
                       records.size());
  LEDGERDB_OBS_COUNT_N(obs::names::kStorageAppendsTotal, records.size());

  // Encode every frame into one contiguous buffer at its final offset.
  size_t total = 0;
  for (const Slice& record : records) {
    total += kFrameHeaderSize + record.size();
    LEDGERDB_OBS_COUNT_N(obs::names::kStorageAppendBytesTotal, record.size());
  }
  Bytes group(total);
  uint32_t seq = static_cast<uint32_t>(offsets_.size());
  size_t pos = 0;
  std::vector<uint32_t> group_crcs;
  group_crcs.reserve(records.size());
  for (const Slice& record : records) {
    group_crcs.push_back(EncodeFrame(
        group.data() + pos, /*capacity=*/static_cast<uint32_t>(record.size()),
        seq++, record));
    pos += kFrameHeaderSize + record.size();
  }

  // One write, one data sync for the whole group. Nothing is indexed (and
  // nothing acknowledged) until both land, so a crash anywhere in here
  // leaves the durable watermark at the pre-group offset and reopen
  // quarantines whatever prefix of the group made it to disk.
  uint64_t offset = end_offset_;
  LEDGERDB_RETURN_IF_ERROR(WriteAndSync(file_.get(), offset, Slice(group)));
  *first_index = offsets_.size();
  for (size_t i = 0; i < records.size(); ++i) {
    uint32_t length = static_cast<uint32_t>(records[i].size());
    offsets_.push_back(offset);
    lengths_.push_back(length);
    capacities_.push_back(length);
    crcs_.push_back(group_crcs[i]);
    offset += kFrameHeaderSize + length;
  }
  end_offset_ = offset;
  watermark_ = end_offset_;
  return PersistWatermark();
}

Status FileStreamStore::Read(uint64_t index, Bytes* out) const {
  if (index >= offsets_.size()) {
    return Status::NotFound("stream index out of range");
  }
  Bytes h;
  LEDGERDB_RETURN_IF_ERROR(file_->Read(offsets_[index], kFrameHeaderSize, &h));
  if (Crc32(h.data(), 16) != DecodeU32(h.data() + 16)) {
    return Status::Corruption("stream frame header crc mismatch");
  }
  uint32_t capacity = DecodeU32(h.data());
  uint32_t length = DecodeU32(h.data() + 4);
  uint32_t seq = DecodeU32(h.data() + 8);
  uint32_t payload_crc = DecodeU32(h.data() + 12);
  if (seq != static_cast<uint32_t>(index)) {
    return Status::Corruption("stream frame sequence mismatch");
  }
  if (length > capacity) {
    return Status::Corruption("stream frame length exceeds capacity");
  }
  LEDGERDB_RETURN_IF_ERROR(
      file_->Read(offsets_[index] + kFrameHeaderSize, length, out));
  if (Crc32(out->data(), out->size()) != payload_crc) {
    return Status::Corruption("stream frame crc mismatch");
  }
  return Status::OK();
}

Status FileStreamStore::Overwrite(uint64_t index, Slice record) {
  if (index >= offsets_.size()) {
    return Status::NotFound("stream index out of range");
  }
  // Capacity = the frame's original payload size, fixed at append time.
  uint32_t capacity = capacities_[index];
  if (record.size() > capacity) {
    return Status::NotSupported("overwrite larger than original frame");
  }
  Bytes frame(kFrameHeaderSize + record.size());
  uint32_t payload_crc = EncodeFrame(frame.data(), capacity,
                                     static_cast<uint32_t>(index), record);
  LEDGERDB_OBS_COUNT(obs::names::kStorageOverwritesTotal);
  LEDGERDB_RETURN_IF_ERROR(
      WriteAndSync(file_.get(), offsets_[index], Slice(frame)));
  lengths_[index] = static_cast<uint32_t>(record.size());
  crcs_[index] = payload_crc;
  return Status::OK();
}

Status FileStreamStore::RecordCrc(uint64_t index, uint32_t* crc) const {
  if (index >= crcs_.size()) {
    return Status::NotFound("stream index out of range");
  }
  *crc = crcs_[index];
  return Status::OK();
}

Status FileStreamStore::Fsck() const {
  uint64_t file_size = 0;
  LEDGERDB_RETURN_IF_ERROR(file_->Size(&file_size));
  if (watermark_ > file_size) {
    return Status::Corruption("stream file shorter than durable watermark");
  }
  if (end_offset_ != file_size) {
    return Status::Corruption("trailing bytes past the last indexed frame");
  }
  for (uint64_t i = 0; i < offsets_.size(); ++i) {
    Bytes h;
    LEDGERDB_RETURN_IF_ERROR(file_->Read(offsets_[i], kFrameHeaderSize, &h));
    if (Crc32(h.data(), 16) != DecodeU32(h.data() + 16)) {
      return Status::Corruption("frame " + std::to_string(i) +
                                ": header crc mismatch");
    }
    uint32_t capacity = DecodeU32(h.data());
    uint32_t length = DecodeU32(h.data() + 4);
    uint32_t seq = DecodeU32(h.data() + 8);
    uint32_t payload_crc = DecodeU32(h.data() + 12);
    if (seq != static_cast<uint32_t>(i)) {
      return Status::Corruption("frame " + std::to_string(i) +
                                ": sequence number mismatch");
    }
    if (capacity != capacities_[i] || length > capacity) {
      return Status::Corruption("frame " + std::to_string(i) +
                                ": geometry mismatch");
    }
    Bytes payload;
    LEDGERDB_RETURN_IF_ERROR(
        file_->Read(offsets_[i] + kFrameHeaderSize, length, &payload));
    if (Crc32(payload.data(), payload.size()) != payload_crc) {
      return Status::Corruption("frame " + std::to_string(i) +
                                ": payload crc mismatch");
    }
  }
  return Status::OK();
}

}  // namespace ledgerdb
