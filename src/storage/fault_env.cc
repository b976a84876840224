#include "storage/fault_env.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb {

namespace {
const char* kCrashMsg = "simulated crash";
}  // namespace

/// Handle returned by FaultEnv::OpenFile. All operations route through the
/// env so fault points are numbered globally across files.
class FaultFile : public File {
 public:
  FaultFile(FaultEnv* env, std::shared_ptr<FaultEnv::FileState> state)
      : env_(env), state_(std::move(state)) {}

  Status Read(uint64_t offset, size_t n, Bytes* out) const override {
    return env_->DoRead(state_.get(), offset, n, out);
  }
  Status Write(uint64_t offset, Slice data) override {
    return env_->DoWrite(state_.get(), offset, data);
  }
  Status Sync() override { return env_->DoSync(state_.get()); }
  Status Truncate(uint64_t size) override {
    return env_->DoTruncate(state_.get(), size);
  }
  Status Size(uint64_t* out) const override {
    return env_->DoSize(state_.get(), out);
  }

 private:
  FaultEnv* env_;
  std::shared_ptr<FaultEnv::FileState> state_;
};

FaultEnv::FaultEnv(Env* base, uint64_t seed) : base_(base), rng_(seed) {}

FaultEnv::~FaultEnv() = default;

void FaultEnv::ScheduleFault(uint64_t op, StorageFaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_[op] = kind;
}

uint64_t FaultEnv::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return op_counter_;
}

bool FaultEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

int FaultEnv::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

Status FaultEnv::OpenFile(const std::string& path,
                          std::unique_ptr<File>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  auto it = files_.find(path);
  if (it == files_.end()) {
    auto state = std::make_shared<FileState>();
    Status s = base_->OpenFile(path, &state->base);
    if (!s.ok()) return s;
    it = files_.emplace(path, std::move(state)).first;
  }
  *out = std::make_unique<FaultFile>(this, it->second);
  return Status::OK();
}

bool FaultEnv::FileExists(const std::string& path) const {
  return base_->FileExists(path);
}

Status FaultEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  files_.erase(path);
  return base_->DeleteFile(path);
}

Status FaultEnv::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  StorageFaultKind kind;
  if (NextFault(&kind)) {
    switch (kind) {
      case StorageFaultKind::kTransientError:
        return Status::TransientIO("injected transient rename error");
      default:
        // Power cut before the metadata op lands: the old name survives
        // untouched and the source's unsynced bytes roll back as usual.
        CrashLocked();
        return Status::IOError(kCrashMsg);
    }
  }
  Status s = base_->Rename(from, to);
  if (s.ok()) {
    // Re-key undo state so crash rollback still reaches the (still open)
    // base handle under its new name. A displaced destination's old state
    // becomes unreachable, matching POSIX unlink-while-open semantics.
    auto it = files_.find(from);
    if (it != files_.end()) {
      auto state = std::move(it->second);
      files_.erase(it);
      files_[to] = std::move(state);
    } else {
      files_.erase(to);
    }
  }
  return s;
}

namespace {

// Read only by LEDGERDB_OBS_COUNT_LABEL, which an LEDGERDB_OBS_OFF build
// compiles away.
[[maybe_unused]] const char* StorageFaultName(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kCrash: return "crash";
    case StorageFaultKind::kTornWrite: return "torn_write";
    case StorageFaultKind::kDroppedSync: return "dropped_sync";
    case StorageFaultKind::kBitFlip: return "bit_flip";
    case StorageFaultKind::kTruncate: return "truncate";
    case StorageFaultKind::kTransientError: return "transient_error";
  }
  return "unknown";
}

}  // namespace

bool FaultEnv::NextFault(StorageFaultKind* kind) {
  auto it = plan_.find(op_counter_);
  ++op_counter_;
  if (it == plan_.end()) return false;
  *kind = it->second;
  plan_.erase(it);
  ++injected_;
  LEDGERDB_OBS_COUNT_LABEL(obs::names::kStorageFaultsInjectedTotal, "kind",
                           StorageFaultName(*kind));
  return true;
}

void FaultEnv::CrashLocked() {
  crashed_ = true;
  for (auto& entry : files_) {
    FileState* st = entry.second.get();
    // Undo in reverse: each record restores the file to its exact state
    // before that write (size first, then the overwritten bytes).
    for (auto rec = st->unsynced.rbegin(); rec != st->unsynced.rend(); ++rec) {
      (void)st->base->Truncate(rec->old_size);
      if (!rec->overwritten.empty()) {
        (void)st->base->Write(rec->offset, Slice(rec->overwritten));
      }
    }
    st->unsynced.clear();
  }
}

Status FaultEnv::DoRead(FileState* st, uint64_t offset, size_t n, Bytes* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  return st->base->Read(offset, n, out);
}

Status FaultEnv::DoSize(FileState* st, uint64_t* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  return st->base->Size(out);
}

Status FaultEnv::DoWrite(FileState* st, uint64_t offset, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  StorageFaultKind kind;
  if (NextFault(&kind)) {
    switch (kind) {
      case StorageFaultKind::kTransientError:
        return Status::TransientIO("injected transient write error");
      case StorageFaultKind::kTornWrite: {
        // Persist a strict prefix with no undo record — those bytes are
        // "on the platter" — then cut power.
        size_t keep = data.empty() ? 0 : rng_.Uniform(data.size());
        if (keep > 0) (void)st->base->Write(offset, Slice(data.data(), keep));
        CrashLocked();
        return Status::IOError("simulated crash (torn write)");
      }
      case StorageFaultKind::kBitFlip: {
        CrashLocked();  // roll back first so the flip hits durable bytes
        uint64_t size = 0;
        if (st->base->Size(&size).ok() && size > 0) {
          uint64_t pos = rng_.Uniform(size);
          Bytes byte;
          if (st->base->Read(pos, 1, &byte).ok()) {
            byte[0] ^= static_cast<uint8_t>(1u << rng_.Uniform(8));
            (void)st->base->Write(pos, Slice(byte));
          }
        }
        return Status::IOError("simulated crash (bit flip)");
      }
      case StorageFaultKind::kTruncate: {
        CrashLocked();
        uint64_t size = 0;
        if (st->base->Size(&size).ok() && size > 0) {
          (void)st->base->Truncate(rng_.Uniform(size));
        }
        return Status::IOError("simulated crash (truncate)");
      }
      case StorageFaultKind::kDroppedSync:
      case StorageFaultKind::kCrash:
        CrashLocked();
        return Status::IOError(kCrashMsg);
    }
  }
  PendingWrite rec;
  rec.offset = offset;
  LEDGERDB_RETURN_IF_ERROR(st->base->Size(&rec.old_size));
  if (offset < rec.old_size) {
    uint64_t overlap = std::min<uint64_t>(data.size(), rec.old_size - offset);
    LEDGERDB_RETURN_IF_ERROR(st->base->Read(offset, overlap, &rec.overwritten));
  }
  Status s = st->base->Write(offset, data);
  if (s.ok()) st->unsynced.push_back(std::move(rec));
  return s;
}

Status FaultEnv::DoSync(FileState* st) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  StorageFaultKind kind;
  if (NextFault(&kind)) {
    switch (kind) {
      case StorageFaultKind::kTransientError:
        return Status::TransientIO("injected transient sync error");
      case StorageFaultKind::kDroppedSync:
        // Acknowledge the sync, persist nothing: the unsynced writes are
        // rolled back and the power cut lands right after the (lying) ack.
        CrashLocked();
        return Status::OK();
      case StorageFaultKind::kBitFlip: {
        CrashLocked();
        uint64_t size = 0;
        if (st->base->Size(&size).ok() && size > 0) {
          uint64_t pos = rng_.Uniform(size);
          Bytes byte;
          if (st->base->Read(pos, 1, &byte).ok()) {
            byte[0] ^= static_cast<uint8_t>(1u << rng_.Uniform(8));
            (void)st->base->Write(pos, Slice(byte));
          }
        }
        return Status::IOError("simulated crash (bit flip)");
      }
      case StorageFaultKind::kTruncate: {
        CrashLocked();
        uint64_t size = 0;
        if (st->base->Size(&size).ok() && size > 0) {
          (void)st->base->Truncate(rng_.Uniform(size));
        }
        return Status::IOError("simulated crash (truncate)");
      }
      case StorageFaultKind::kTornWrite:  // no write to tear at a sync point
      case StorageFaultKind::kCrash:
        CrashLocked();
        return Status::IOError(kCrashMsg);
    }
  }
  Status s = st->base->Sync();
  if (s.ok()) st->unsynced.clear();
  return s;
}

Status FaultEnv::DoTruncate(FileState* st, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return Status::IOError(kCrashMsg);
  StorageFaultKind kind;
  if (NextFault(&kind)) {
    switch (kind) {
      case StorageFaultKind::kTransientError:
        return Status::TransientIO("injected transient truncate error");
      default:
        CrashLocked();
        return Status::IOError(kCrashMsg);
    }
  }
  // Undo for a shrink is the chopped tail; for an extension it is the old
  // size (rollback truncates the zero-fill away again).
  PendingWrite rec;
  LEDGERDB_RETURN_IF_ERROR(st->base->Size(&rec.old_size));
  rec.offset = size;
  if (size < rec.old_size) {
    LEDGERDB_RETURN_IF_ERROR(
        st->base->Read(size, rec.old_size - size, &rec.overwritten));
  }
  Status s = st->base->Truncate(size);
  if (s.ok()) st->unsynced.push_back(std::move(rec));
  return s;
}

}  // namespace ledgerdb
