#ifndef CEP2ASP_ASP_INTERVAL_JOIN_H_
#define CEP2ASP_ASP_INTERVAL_JOIN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asp/keyed_window_store.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {

/// \brief Relative time bounds of an interval join (optimization O1,
/// paper §4.3.1).
///
/// A left event e1 joins right events e2 in the open interval
///   e1.ts + lower < e2.ts < e1.ts + upper.
/// The conjunction uses (-W, +W); all other operators use (0, +W),
/// encoding the sequence order constraint directly in the bound.
struct IntervalBounds {
  Timestamp lower = 0;
  Timestamp upper = 0;

  static IntervalBounds ForConjunction(Timestamp w) {
    return IntervalBounds{-w, w};
  }
  static IntervalBounds ForSequence(Timestamp w) { return IntervalBounds{0, w}; }

  /// The bounds' definition: whether `right_ts` lies in the window of a
  /// left event at `left_ts`.
  bool Contains(Timestamp left_ts, Timestamp right_ts) const {
    return right_ts > left_ts + lower && right_ts < left_ts + upper;
  }

  /// The rows of sorted `times[from, to)` whose time Contains(left_ts, ·)
  /// accepts, as the index range [first, last) (first == last if none).
  /// Exact as long as no accepted row lies below `from`.
  std::pair<size_t, size_t> RightRange(const std::vector<Timestamp>& times,
                                       size_t from, size_t to,
                                       Timestamp left_ts) const {
    const size_t first = UpperBoundTs(times, from, to, left_ts + lower);
    const size_t last = LowerBoundTs(times, first, to, left_ts + upper);
    return {first, last};
  }
};

/// \brief Keyed interval join: content-based windows anchored at left
/// events (optimization O1).
///
/// Each left event defines its own window, so (a) no slide parameter is
/// needed, (b) every qualifying pair is emitted exactly once — no
/// duplicates from overlapping windows — and (c) no window is materialized
/// when no left event occurs, which is where the performance advantage
/// over sliding windows comes from when the left stream is the less
/// frequent one (§4.3.1, §5.2.3).
class IntervalJoinOperator : public Operator {
 public:
  IntervalJoinOperator(IntervalBounds bounds, Predicate condition,
                       TimestampMode ts_mode, std::string label = "interval-join");

  std::string name() const override { return label_; }
  int num_inputs() const override { return 2; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.stateful = true;
    traits.keyed = true;
    traits.windowed = true;
    // Content-based windows: the time horizon is the bound span, with no
    // slide (each left event anchors its own window).
    traits.window_size = bounds_.upper - bounds_.lower;
    traits.window_slide = 0;
    traits.drains_on_final_watermark = true;
    traits.predicate = &condition_;  // positional over the joined tuple
    traits.selectivity_bound = selectivity_bound_;
    // Blocks scatter into the same keyed window store as the sliding
    // join's, one key lookup per run of equal keys.
    traits.columnar_capable = true;
    return traits;
  }

  void AttachSelectivityBound(double bound) override {
    selectivity_bound_ = bound;
  }

  Status Open() override;
  Status Process(int input, Tuple tuple, Collector* out) override;
  Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                         Collector* out) override;
  Status OnWatermark(Timestamp watermark, Collector* out) override;
  size_t StateBytes() const override { return store_.state_bytes(); }

  /// Partition-safe: windows are anchored at individual left events and
  /// all state is per key.
  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone = std::make_unique<IntervalJoinOperator>(bounds_, condition_,
                                                        ts_mode_, label_);
    clone->selectivity_bound_ = selectivity_bound_;
    return clone;
  }

  /// (left, right) pairs within the bounds: every pair that reached the
  /// condition, or was emitted directly when the condition is empty.
  int64_t pairs_evaluated() const { return pairs_evaluated_; }
  /// Windows materialized = completed left events (content-based creation).
  int64_t windows_created() const { return windows_created_; }

 private:
  IntervalBounds bounds_;
  Predicate condition_;
  double selectivity_bound_ = -1.0;
  TimestampMode ts_mode_;
  std::string label_;

  KeyedWindowStore store_;
  int64_t pairs_evaluated_ = 0;
  int64_t windows_created_ = 0;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ASP_INTERVAL_JOIN_H_
