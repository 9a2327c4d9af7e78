#include "asp/sliding_window_join.h"

#include <algorithm>

#include "analysis/check_invariants.h"
#include "common/logging.h"

namespace cep2asp {

namespace {

/// True for the SEQ order term `e<slot>.ts < e<right_var>.ts`.
bool IsOrderTerm(const Comparison& c, int slot, int right_var) {
  return c.lhs.var == slot && c.lhs.attr == Attribute::kTs &&
         c.op == CmpOp::kLt && c.rhs_is_attr &&
         c.rhs_attr.var == right_var && c.rhs_attr.attr == Attribute::kTs &&
         c.rhs_offset == 0.0;
}

}  // namespace

SlidingWindowJoinOperator::SlidingWindowJoinOperator(SlidingWindowSpec window,
                                                     Predicate condition,
                                                     TimestampMode ts_mode,
                                                     std::string label,
                                                     bool dedup_pairs,
                                                     int order_bound_slot)
    : window_(window),
      condition_(std::move(condition)),
      residual_(condition_),
      ts_mode_(ts_mode),
      label_(std::move(label)),
      dedup_pairs_(dedup_pairs),
      order_bound_slot_(order_bound_slot) {
  if (order_bound_slot_ < 0) return;
  // The right input is one event, so it is the joined tuple's last var.
  const int right_var = condition_.MaxVar();
  std::vector<Comparison> terms = condition_.terms();
  auto it = std::find_if(terms.begin(), terms.end(), [&](const Comparison& c) {
    return IsOrderTerm(c, order_bound_slot_, right_var);
  });
  CEP2ASP_CHECK(it != terms.end() && order_bound_slot_ < right_var)
      << "order bound e" << order_bound_slot_ << ".ts < e" << right_var
      << ".ts missing from " << condition_.ToString();
  terms.erase(it);
  residual_ = Predicate(std::move(terms));
}

Status SlidingWindowJoinOperator::Open() {
  if (!window_.valid()) {
    return Status::InvalidArgument("invalid sliding window spec");
  }
  return Status::OK();
}

void SlidingWindowJoinOperator::CheckBoundedRightRow(
    [[maybe_unused]] int input, [[maybe_unused]] const Tuple& row) const {
#if CEP2ASP_CHECK_INVARIANTS
  if (input != 1 || order_bound_slot_ < 0) return;
  CEP2ASP_CHECK(row.size() == 1 && row.event(0).ts == row.event_time())
      << label_ << ": order-bounded join got a right row of arity "
      << row.size() << " with event time " << row.event_time();
#endif
}

Status SlidingWindowJoinOperator::Process(int input, Tuple tuple, Collector*) {
  CheckBoundedRightRow(input, tuple);
  store_.Insert(input, tuple);
  return Status::OK();
}

Status SlidingWindowJoinOperator::ProcessColumnar(
    int input, std::unique_ptr<ColumnarBatch> block, Collector*) {
#if CEP2ASP_CHECK_INVARIANTS
  for (size_t r = 0; r < block->rows(); ++r) {
    if (block->mask()[r]) CheckBoundedRightRow(input, block->RowTuple(r));
  }
#endif
  store_.InsertColumnar(input, *block);
  return Status::OK();
}

Status SlidingWindowJoinOperator::OnWatermark(Timestamp watermark,
                                              Collector* out) {
  FireWindows(watermark, out);
  return Status::OK();
}

void SlidingWindowJoinOperator::FireWindows(Timestamp watermark,
                                            Collector* out) {
  while (true) {
    const Timestamp min_ts = store_.min_ts();
    if (min_ts == kMaxTimestamp) {
      // Nothing buffered; the cursor stays where it is (monotone — resuming
      // at a later event's first window happens via the jump below) so a
      // window can never fire twice.
      return;
    }
    // Skip empty stretches, but only over windows that are provably dead:
    // a skipped window must hold no buffered tuple (before FirstWindow of
    // the buffered minimum) AND be closed (before FirstWindow(watermark),
    // the first window that can still receive on-time tuples). Skipping an
    // empty-but-open window would silently drop tuples that arrive for it
    // later — under partitioned input a subtask's buffer is sparse, so the
    // unclamped jump overshoots. The first firing initializes the cursor
    // the same way, which also makes it independent of the arrival
    // interleaving across producer subtasks.
    const int64_t skip_to = std::min(window_.FirstWindow(min_ts),
                                     window_.FirstWindow(watermark));
    if (!have_window_cursor_) {
      next_window_ = skip_to;
      have_window_cursor_ = true;
    } else {
      next_window_ = std::max(next_window_, skip_to);
    }
    if (!window_.CanFire(next_window_, watermark)) return;
    FireWindow(next_window_, out);
    ++next_window_;
    // Amortized eviction: the evict walk touches every key, so running it
    // per fired window makes it a fixed per-window tax. Deferring it a few
    // slides is safe — stale tuples sit below the fire range's lower_bound
    // and the store's min_ts() stays exact (they are still buffered) — at the
    // cost of retaining at most kEvictStride-1 slides of dead tuples.
    if (++windows_since_evict_ >= kEvictStride) {
      windows_since_evict_ = 0;
      EvictBefore(window_.WindowStart(next_window_));
    }
  }
}

void SlidingWindowJoinOperator::FireWindow(int64_t k, Collector* out) {
  const Timestamp begin = window_.WindowStart(k);
  const Timestamp end = window_.WindowEnd(k);
  // Rows whose first window is k: the newest slide of the window.
  const Timestamp fresh = end - window_.slide;
  for (const KeyedWindowStore::KeyEntry& entry : store_.keys()) {
    const SideBuffer& left = entry.sides[0];
    const SideBuffer& right = entry.sides[1];
    if (left.empty() || right.empty()) continue;
    const size_t l_lo = LowerBoundTs(left.times, left.head, left.rows(), begin);
    const size_t l_hi = LowerBoundTs(left.times, l_lo, left.rows(), end);
    if (l_lo == l_hi) continue;
    const size_t r_lo =
        LowerBoundTs(right.times, right.head, right.rows(), begin);
    const size_t r_hi = LowerBoundTs(right.times, r_lo, right.rows(), end);
    if (r_lo == r_hi) continue;
    if (!dedup_pairs_) {
      ProbeRange(entry.key, left, l_lo, l_hi, right, r_lo, r_hi, out);
      continue;
    }
    // A pair's first common window is the later of its rows' first
    // windows, so window k owns exactly the pairs with a fresh row:
    // older-left x fresh-right, then fresh-left x all-right.
    const size_t l_fresh = LowerBoundTs(left.times, l_lo, l_hi, fresh);
    const size_t r_fresh = LowerBoundTs(right.times, r_lo, r_hi, fresh);
    ProbeRange(entry.key, left, l_lo, l_fresh, right, r_fresh, r_hi, out);
    ProbeRange(entry.key, left, l_fresh, l_hi, right, r_lo, r_hi, out);
  }
}

void SlidingWindowJoinOperator::ProbeRange(int64_t key, const SideBuffer& left,
                                           size_t l_lo, size_t l_hi,
                                           const SideBuffer& right,
                                           size_t r_lo, size_t r_hi,
                                           Collector* out) {
  if (r_lo == r_hi) return;
  for (size_t l = l_lo; l < l_hi; ++l) {
    const SimpleEvent* lrow = left.row(l);
    size_t r = r_lo;
    if (order_bound_slot_ >= 0) {
      // Right rows are single events ordered by their ts, so the order
      // term holds exactly from the first row above the left slot's ts.
      r = UpperBoundTs(right.times, r_lo, r_hi, lrow[order_bound_slot_].ts);
    }
    pairs_evaluated_ += EmitPairs(key, lrow, left.arity, right, r, r_hi,
                                  residual_, ts_mode_, out);
  }
}

void SlidingWindowJoinOperator::EvictBefore(Timestamp min_keep_ts) {
  store_.Sweep([&](const KeyedWindowStore::KeyEntry& entry) {
    const auto keep = [&](const SideBuffer& side) {
      return LowerBoundTs(side.times, side.head, side.rows(), min_keep_ts);
    };
    return std::make_pair(keep(entry.sides[0]), keep(entry.sides[1]));
  });
}

}  // namespace cep2asp
