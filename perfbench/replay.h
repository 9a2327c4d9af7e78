// Benchmark-owned source and sink: an open-loop replay source that reports
// every tuple's due time to the scheduler, and a sink that times detection
// latency from that due time at nanosecond resolution and checksums the
// match multiset.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/operator.h"

namespace cep2asp {
namespace perfbench {

inline int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One generated stream, shared read-only by every scan of every run. Each
/// event's `aux_ts` holds its index in the global open-loop schedule (the
/// merged order of all streams); the engine carries it through joins
/// untouched, and no SEQ plan reads it.
using ReplayStream = std::vector<SimpleEvent>;

/// Schedule clock of one run. The schedule is anchored at the first source
/// pull of the run, which is also the end of the run's start-up span
/// (Run() entry to first pull). A zero rate means unpaced: sources report
/// no deadline and the executor takes its saturated fast path.
class RunClock {
 public:
  explicit RunClock(double tuples_per_second)
      : nanos_per_tuple_(tuples_per_second > 0 ? 1e9 / tuples_per_second
                                               : 0.0) {}

  bool paced() const { return nanos_per_tuple_ > 0; }

  /// Anchors the schedule on first use; returns the anchor.
  int64_t Touch() const {
    int64_t anchor = anchor_.load(std::memory_order_acquire);
    if (anchor != 0) return anchor;
    int64_t now = SteadyNanos();
    if (anchor_.compare_exchange_strong(anchor, now,
                                        std::memory_order_acq_rel)) {
      return now;
    }
    return anchor;  // another source won; `anchor` now holds its value
  }

  /// 0 until the first source pull.
  int64_t first_pull_nanos() const {
    return anchor_.load(std::memory_order_acquire);
  }

  /// Absolute due time of schedule index `index`.
  int64_t DueNanos(int64_t index) const {
    return Touch() +
           static_cast<int64_t>(nanos_per_tuple_ * static_cast<double>(index));
  }

 private:
  double nanos_per_tuple_;
  mutable std::atomic<int64_t> anchor_{0};
};

/// Per-source totals of a traced run, from every 16th Next() call: two
/// clock reads per tuple would cost half of a fast pipeline's per-tuple
/// time. Written only by the task that owns the source; read after Run()
/// returns.
struct SourceTrace {
  static constexpr size_t kSampleEvery = 16;
  int64_t calls = 0;
  int64_t sampled_calls = 0;
  int64_t sampled_nanos = 0;
  std::vector<int64_t> lag_nanos;  // paced runs: pull time minus due time
};

/// Open-loop replay of a shared stream. Next() never sleeps: pacing is
/// reported through PacingDeadlineNanos() — the due time of the next tuple,
/// also when that time has already passed — so the cooperative scheduler
/// parks the source task on a timer instead of a worker sleeping, and a
/// source that falls behind stays on the paced path rather than flipping
/// to the unpaced fast path.
class ReplaySource : public Source {
 public:
  ReplaySource(std::shared_ptr<const ReplayStream> stream,
               const RunClock* clock, SourceTrace* trace)
      : stream_(std::move(stream)), clock_(clock), trace_(trace) {}

  std::string name() const override { return "replay"; }

  bool Next(Tuple* tuple) override {
    const ReplayStream& events = *stream_;
    if (pos_ >= events.size()) return false;
    const SimpleEvent& event = events[pos_++];
    watermark_ = event.ts;
    if (trace_ == nullptr || pos_ % SourceTrace::kSampleEvery != 0) {
      if (trace_ != nullptr) ++trace_->calls;
      *tuple = Tuple(event);
      return true;
    }
    const int64_t begin = SteadyNanos();
    if (clock_->paced()) {
      trace_->lag_nanos.push_back(begin - clock_->DueNanos(event.aux_ts));
    }
    *tuple = Tuple(event);
    trace_->sampled_nanos += SteadyNanos() - begin;
    ++trace_->sampled_calls;
    ++trace_->calls;
    return true;
  }

  Timestamp CurrentWatermark() const override { return watermark_; }

  int64_t PacingDeadlineNanos() const override {
    const ReplayStream& events = *stream_;
    clock_->Touch();
    if (!clock_->paced() || pos_ >= events.size()) return 0;
    return clock_->DueNanos(events[pos_].aux_ts);
  }

 private:
  std::shared_ptr<const ReplayStream> stream_;
  const RunClock* clock_;
  SourceTrace* trace_;
  size_t pos_ = 0;
  Timestamp watermark_ = kMinTimestamp;
};

/// Order-independent checksum of a match multiset: the wrapping sum of one
/// hash per match, each hash ordered over the match's (type, id, ts)
/// constituents.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t MatchHash(const Tuple& tuple) {
  uint64_t h = Mix64(tuple.size());
  for (const SimpleEvent& e : tuple) {
    h = Mix64(h ^ (static_cast<uint64_t>(e.type) << 40) ^
              static_cast<uint64_t>(e.id));
    h = Mix64(h ^ static_cast<uint64_t>(e.ts));
  }
  return h;
}

/// Terminal operator replacing the translator's CollectSink. With a paced
/// clock it records, per match, the time from the due time of its latest
/// constituent to its arrival here.
class TimingSink : public Operator {
 public:
  TimingSink(const RunClock* clock, size_t expected_matches)
      : clock_(clock) {
    if (clock_->paced()) latencies_.reserve(expected_matches);
  }

  std::string name() const override { return "sink"; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.stateful = true;
    traits.is_sink = true;
    return traits;
  }

  Status Process(int input, Tuple tuple, Collector* out) override {
    (void)input;
    (void)out;
    Record(tuple, clock_->paced() ? SteadyNanos() : 0);
    return Status::OK();
  }

  Status ProcessBatch(int input, MessageBatch* batch, Collector* out) override {
    (void)input;
    (void)out;
    const int64_t now = clock_->paced() ? SteadyNanos() : 0;
    for (const Message& msg : *batch) Record(msg.tuple, now);
    batch->clear();
    return Status::OK();
  }

  int64_t count() const { return count_; }
  uint64_t checksum() const { return checksum_; }
  std::vector<int64_t>& latencies() { return latencies_; }

 private:
  void Record(const Tuple& tuple, int64_t now) {
    ++count_;
    checksum_ += MatchHash(tuple);
    if (now == 0) return;
    int64_t last = 0;
    for (const SimpleEvent& e : tuple) last = std::max(last, e.aux_ts);
    latencies_.push_back(now - clock_->DueNanos(last));
  }

  const RunClock* clock_;
  int64_t count_ = 0;
  uint64_t checksum_ = 0;
  std::vector<int64_t> latencies_;
};

}  // namespace perfbench
}  // namespace cep2asp

#endif  // PERFBENCH_REPLAY_H_
