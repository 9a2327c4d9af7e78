#ifndef CEP2ASP_ASP_SLIDING_WINDOW_JOIN_H_
#define CEP2ASP_ASP_SLIDING_WINDOW_JOIN_H_

#include <cstdint>
#include <memory>
#include <string>

#include "asp/keyed_window_store.h"
#include "asp/window.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {

/// \brief Two-input sliding-window join over keyed streams.
///
/// Realizes the mapping targets of Table 1:
///  * Cartesian product (AND): both inputs carry the same constant key
///    (assigned by a preceding map) and `condition` is empty.
///  * Theta Join (SEQ / ITER): `condition` holds the timestamp-order
///    comparison (and any cross-variable pattern predicates). Per §4.2.1
///    the Theta Join is realized as the product filtered by theta.
///  * Equi Join (O3): inputs are keyed by the matching attribute, so the
///    product is computed per key and parallelizable.
///
/// Windows follow the explicit sliding semantics of §3.1.2; overlapping
/// windows duplicate matches by design (deduplication is part of semantic
/// equivalence, not of the operator). The final join re-enumerates each
/// window it fires, which is the sliding-window cost the paper's O1
/// optimization avoids; an intermediate (`dedup_pairs`) join enumerates
/// each pair only in the window it emits it from.
///
/// The `condition` predicate addresses constituent events positionally in
/// the *concatenated* output tuple (left events first).
class SlidingWindowJoinOperator : public Operator {
 public:
  /// `dedup_pairs`: emit each qualifying pair only in the first window
  /// containing both sides. Detection stays complete (that window always
  /// exists) and downstream operators see each logical match once —
  /// used for the intermediate joins of decomposed patterns, where
  /// per-overlap duplicates would otherwise multiply through the chain.
  /// The final join keeps the sliding duplicates the paper describes
  /// (§3.1.4).
  ///
  /// `order_bound_slot` >= 0 marks the SEQ order term
  /// `l.slot.ts < r.ts` of `condition` as a range bound: each left row
  /// starts at the first right row whose event time exceeds its slot's ts,
  /// and the term leaves the per-pair residual. Valid only when every
  /// right row is a single event whose event time is that event's ts (a
  /// leaf input); `condition` must hold the term, over the right event
  /// `condition.MaxVar()`.
  SlidingWindowJoinOperator(SlidingWindowSpec window, Predicate condition,
                            TimestampMode ts_mode, std::string label = "win-join",
                            bool dedup_pairs = false,
                            int order_bound_slot = -1);

  std::string name() const override { return label_; }
  int num_inputs() const override { return 2; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.stateful = true;
    traits.keyed = true;
    traits.windowed = true;
    traits.window_size = window_.size;
    traits.window_slide = window_.slide;
    traits.emits_window_duplicates = !dedup_pairs_;
    traits.drains_on_final_watermark = true;
    traits.predicate = &condition_;  // positional over the joined tuple
    traits.selectivity_bound = selectivity_bound_;
    // Arriving column blocks scatter into the row-major window store via
    // ProcessColumnar with one key lookup per run of equal keys, so
    // forward and parallelism-1 hash edges into the join may carry blocks
    // whole.
    traits.columnar_capable = true;
    return traits;
  }

  void AttachSelectivityBound(double bound) override {
    selectivity_bound_ = bound;
  }

  Status Open() override;
  Status Process(int input, Tuple tuple, Collector* out) override;

  /// Columnar ingest: KeyedWindowStore::InsertColumnar.
  Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                         Collector* out) override;

  Status OnWatermark(Timestamp watermark, Collector* out) override;
  size_t StateBytes() const override { return store_.state_bytes(); }

  /// Partition-safe: window indices are absolute (derived from event
  /// time), state is per key, and dedup_pairs dedups within a (key,
  /// window) scope — so any key-disjoint split of the input reproduces
  /// the exact match multiset.
  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone = std::make_unique<SlidingWindowJoinOperator>(
        window_, condition_, ts_mode_, label_, dedup_pairs_,
        order_bound_slot_);
    clone->selectivity_bound_ = selectivity_bound_;
    return clone;
  }

  /// (left, right) pairs the fire path enumerated: every pair that reached
  /// the residual condition, or was emitted directly when no residual
  /// remains. Pairs pruned by the window ranges, by the dedup join's
  /// first-common-window ranges or by the order bound are not counted. A
  /// final join counts a pair once per window that enumerates it. With
  /// the bound in place the sum over subtasks does not depend on
  /// parallelism or on arrival timing.
  int64_t pairs_evaluated() const { return pairs_evaluated_; }

 private:
  /// Debug-build check (CEP2ASP_CHECK_INVARIANTS) that a bounded join's
  /// right row is one event whose ts is the row's event time.
  void CheckBoundedRightRow(int input, const Tuple& row) const;

  void FireWindows(Timestamp watermark, Collector* out);
  void FireWindow(int64_t k, Collector* out);
  /// Enumerates left rows [l_lo, l_hi) x right rows [r_lo, r_hi) of one
  /// key, narrowed per left row by the order bound, and emits every pair
  /// the residual accepts.
  void ProbeRange(int64_t key, const SideBuffer& left, size_t l_lo,
                  size_t l_hi, const SideBuffer& right, size_t r_lo,
                  size_t r_hi, Collector* out);
  void EvictBefore(Timestamp min_keep_ts);

  SlidingWindowSpec window_;
  Predicate condition_;
  /// `condition_` without the order term the bound enforces.
  Predicate residual_;
  TimestampMode ts_mode_;
  std::string label_;
  bool dedup_pairs_;
  int order_bound_slot_;
  double selectivity_bound_ = -1.0;

  /// Fired windows between evict walks; trades up to kEvictStride-1 slides
  /// of retained dead tuples for a proportional cut in whole-table scans.
  static constexpr int kEvictStride = 4;
  int windows_since_evict_ = 0;

  KeyedWindowStore store_;
  int64_t next_window_ = 0;
  bool have_window_cursor_ = false;
  int64_t pairs_evaluated_ = 0;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ASP_SLIDING_WINDOW_JOIN_H_
