#ifndef CEP2ASP_RUNTIME_RATE_LIMITED_SOURCE_H_
#define CEP2ASP_RUNTIME_RATE_LIMITED_SOURCE_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "runtime/operator.h"

namespace cep2asp {

/// \brief Decorates a source with an offered ingestion rate: Next() paces
/// emissions to `tuples_per_second` of wall-clock time.
///
/// This is the knob of the paper's sustainable-throughput methodology
/// (§5.1.3, [53]): a job sustains a rate if it keeps up with a source
/// offering it — with bounded queues (ThreadedExecutor), a too-fast offer
/// backpressures into this source and the achieved rate drops below the
/// offered one.
class RateLimitedSource : public Source {
 public:
  RateLimitedSource(std::unique_ptr<Source> inner, double tuples_per_second,
                    Clock* clock = nullptr)
      : inner_(std::move(inner)),
        nanos_per_tuple_(tuples_per_second > 0 ? 1e9 / tuples_per_second : 0),
        clock_(clock ? clock : SystemClock::Get()) {}

  std::string name() const override { return inner_->name() + "@rate"; }

  bool Next(Tuple* tuple) override {
    if (emitted_ == 0) start_nanos_ = clock_->NowNanos();
    // Busy-wait-free pacing: sleep until this tuple's scheduled slot,
    // unless it is due within the pacing slack (see kPacingSlackNanos) —
    // the schedule stays anchored at the first tuple, so emitting a
    // little early never accumulates drift.
    const int64_t due = start_nanos_ +
                        static_cast<int64_t>(nanos_per_tuple_ *
                                             static_cast<double>(emitted_));
    const int64_t now = clock_->NowNanos();
    if (due - now > kPacingSlackNanos) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    if (!inner_->Next(tuple)) return false;
    ++emitted_;
    return true;
  }

  Timestamp CurrentWatermark() const override {
    return inner_->CurrentWatermark();
  }

  /// The next tuple's scheduled slot, exposed so the ThreadedExecutor can
  /// park until it on a scheduler timer — sleeping inside Next() would
  /// stall a whole worker and starve co-scheduled tasks. 0 before the
  /// first emission (the schedule anchors on the first Next call) and when
  /// unlimited.
  int64_t PacingDeadlineNanos() const override {
    if (emitted_ == 0 || nanos_per_tuple_ <= 0) return 0;
    return start_nanos_ +
           static_cast<int64_t>(nanos_per_tuple_ *
                                static_cast<double>(emitted_));
  }

  int64_t emitted() const { return emitted_; }

 private:
  std::unique_ptr<Source> inner_;
  double nanos_per_tuple_;
  Clock* clock_;
  int64_t start_nanos_ = 0;
  int64_t emitted_ = 0;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_RATE_LIMITED_SOURCE_H_
