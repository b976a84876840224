#include "obs/trace.h"

#include <algorithm>

namespace ledgerdb::obs {

/// Fixed-capacity span ring. Each ring has exactly one writer (its owner
/// thread) at any time; the per-ring mutex makes reader snapshots and the
/// rare writer pushes tsan-clean without hot-path contention (the lock is
/// thread-private and uncontended except while a snapshot is copying).
struct SpanTracer::Ring {
  mutable std::mutex mu;
  uint32_t id = 0;
  uint64_t next = 0;  // total records ever pushed; next % cap is the slot
  uint32_t sample_countdown = 0;
  SpanRecord slots[kRingCapacity];
};

/// Ring storage shared between the tracer and every thread that ever
/// recorded through it. The tracer holds the owning shared_ptr; thread
/// slots hold weak_ptrs, so a slot can safely detect that its tracer has
/// been destroyed (tests routinely build tracers on the stack).
struct SpanTracer::State {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  std::vector<Ring*> free_rings;
};

/// Registers this thread's ring on first use and recycles it at thread
/// exit so long-running fleets of short-lived threads stay bounded.
struct SpanTracer::ThreadSlot {
  std::weak_ptr<State> state;
  Ring* ring = nullptr;

  ~ThreadSlot() {
    std::shared_ptr<State> s = state.lock();
    if (s == nullptr || ring == nullptr) return;
    std::lock_guard<std::mutex> lock(s->mu);
    s->free_rings.push_back(ring);
  }
};

SpanTracer::SpanTracer() : state_(std::make_shared<State>()) {}
SpanTracer::~SpanTracer() = default;

SpanTracer& SpanTracer::Default() {
  // Leaked: rings are referenced from thread-exit destructors that may run
  // during static teardown.
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

SpanTracer::Ring* SpanTracer::RingForThisThread() {
  thread_local ThreadSlot slot;
  std::shared_ptr<State> current = slot.state.lock();
  if (slot.ring == nullptr || current != state_) {
    // Hand the previous tracer (if still alive) its ring back before
    // adopting one from this tracer.
    if (current != nullptr && slot.ring != nullptr) {
      std::lock_guard<std::mutex> lock(current->mu);
      current->free_rings.push_back(slot.ring);
    }
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->free_rings.empty()) {
      slot.ring = state_->free_rings.back();
      state_->free_rings.pop_back();
    } else {
      state_->rings.push_back(std::make_unique<Ring>());
      state_->rings.back()->id = static_cast<uint32_t>(state_->rings.size() - 1);
      slot.ring = state_->rings.back().get();
    }
    slot.state = state_;
  }
  return slot.ring;
}

void SpanTracer::Record(const char* stage, uint64_t start_us,
                        uint64_t dur_us) {
  uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return;
  Ring* ring = RingForThisThread();
  // The countdown is only touched by the owner thread; guard it with the
  // ring lock anyway so snapshot readers stay race-free under tsan.
  {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->sample_countdown > 0) {
      --ring->sample_countdown;
      return;
    }
    ring->sample_countdown = every - 1;
    ring->slots[ring->next % kRingCapacity] =
        SpanRecord{stage, start_us, dur_us, ring->id};
    ++ring->next;
  }
}

void SpanTracer::RecordTraced(const char* stage, uint64_t trace_id,
                              uint64_t parent_span, uint64_t start_us,
                              uint64_t dur_us) {
  // The trace was sampled once at its root (the client rpc); dropping a
  // propagated stage here would leave holes in stitched traces, so this
  // never consults the countdown.
  Ring* ring = RingForThisThread();
  std::lock_guard<std::mutex> lock(ring->mu);
  ring->slots[ring->next % kRingCapacity] =
      SpanRecord{stage, start_us, dur_us, ring->id, trace_id, parent_span};
  ++ring->next;
}

std::vector<SpanRecord> SpanTracer::Snapshot() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(state_->mu);
  for (const auto& ring : state_->rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    uint64_t n = std::min<uint64_t>(ring->next, kRingCapacity);
    uint64_t first = ring->next - n;
    for (uint64_t i = first; i < ring->next; ++i) {
      out.push_back(ring->slots[i % kRingCapacity]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

void SpanTracer::Clear() {
  std::lock_guard<std::mutex> lock(state_->mu);
  for (const auto& ring : state_->rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->next = 0;
    ring->sample_countdown = 0;
  }
}

// ---------------------------------------------------------------------------
// RequestLog
// ---------------------------------------------------------------------------

RequestLog& RequestLog::Default() {
  // Leaked for the same reason as SpanTracer::Default(): server threads
  // may record through static teardown.
  static RequestLog* log = new RequestLog();
  return *log;
}

void RequestLog::SetSlowThresholdUs(uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_threshold_us_ = us;
}

uint64_t RequestLog::slow_threshold_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_threshold_us_;
}

void RequestLog::Record(RequestRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  rec.slow = slow_threshold_us_ != 0 &&
             rec.queue_us + rec.exec_us >= slow_threshold_us_;
  slots_[next_ % kCapacity] = rec;
  ++next_;
}

std::vector<RequestRecord> RequestLog::Snapshot() const {
  std::vector<RequestRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = std::min<uint64_t>(next_, kCapacity);
  out.reserve(n);
  for (uint64_t i = next_ - n; i < next_; ++i) {
    out.push_back(slots_[i % kCapacity]);
  }
  return out;
}

std::vector<RequestRecord> RequestLog::SlowSnapshot() const {
  std::vector<RequestRecord> all = Snapshot();
  std::vector<RequestRecord> out;
  for (const RequestRecord& r : all) {
    if (r.slow) out.push_back(r);
  }
  return out;
}

uint64_t RequestLog::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

void RequestLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
}

// ---------------------------------------------------------------------------
// JSON exporters
// ---------------------------------------------------------------------------

std::string SpanRecordsToJson(const std::vector<SpanRecord>& records) {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"stage\": ";
    out += JsonString(r.stage != nullptr ? r.stage : "");
    out += ", \"start_us\": " + std::to_string(r.start_us) +
           ", \"dur_us\": " + std::to_string(r.dur_us) +
           ", \"thread\": " + std::to_string(r.thread) +
           ", \"trace_id\": " + std::to_string(r.trace_id) +
           ", \"parent_span\": " + std::to_string(r.parent_span) + "}";
  }
  out += records.empty() ? "]" : "\n]";
  return out;
}

std::string RequestRecordsToJson(const std::vector<RequestRecord>& records) {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"op\": ";
    out += JsonString(r.op != nullptr ? r.op : "");
    out += ", \"trace_id\": " + std::to_string(r.trace_id) +
           ", \"start_us\": " + std::to_string(r.start_us) +
           ", \"queue_us\": " + std::to_string(r.queue_us) +
           ", \"exec_us\": " + std::to_string(r.exec_us) +
           ", \"status\": " + std::to_string(r.status) + ", \"shed\": " +
           (r.shed ? "true" : "false") + ", \"deadline_expired\": " +
           (r.deadline_expired ? "true" : "false") + ", \"slow\": " +
           (r.slow ? "true" : "false") + "}";
  }
  out += records.empty() ? "]" : "\n]";
  return out;
}

}  // namespace ledgerdb::obs
