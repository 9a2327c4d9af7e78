#include "asp/sliding_window_join.h"

#include <algorithm>

#include "analysis/check_invariants.h"
#include "common/logging.h"

namespace cep2asp {

namespace {

/// Index of the first element of ts[lo, hi) not below `v`.
size_t LowerBoundTs(const std::vector<Timestamp>& ts, size_t lo, size_t hi,
                    Timestamp v) {
  return static_cast<size_t>(
      std::lower_bound(ts.begin() + static_cast<ptrdiff_t>(lo),
                       ts.begin() + static_cast<ptrdiff_t>(hi), v) -
      ts.begin());
}

/// Index of the first element of ts[lo, hi) above `v`.
size_t UpperBoundTs(const std::vector<Timestamp>& ts, size_t lo, size_t hi,
                    Timestamp v) {
  return static_cast<size_t>(
      std::upper_bound(ts.begin() + static_cast<ptrdiff_t>(lo),
                       ts.begin() + static_cast<ptrdiff_t>(hi), v) -
      ts.begin());
}

/// Predicate::EvalOnEvents over a pair read in place: variables below
/// `ln` address the left row, the rest the right row.
bool EvalOnPair(const Predicate& predicate, const SimpleEvent* left,
                size_t ln, const SimpleEvent* right) {
  const auto event = [&](int var) -> const SimpleEvent& {
    const size_t v = static_cast<size_t>(var);
    return v < ln ? left[v] : right[v - ln];
  };
  for (const Comparison& c : predicate.terms()) {
    const double lhs = GetAttribute(event(c.lhs.var), c.lhs.attr);
    const double rhs =
        c.rhs_is_attr
            ? GetAttribute(event(c.rhs_attr.var), c.rhs_attr.attr) +
                  c.rhs_offset
            : c.rhs_const;
    if (!EvalCmp(lhs, c.op, rhs)) return false;
  }
  return true;
}

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

SlidingWindowJoinOperator::KeyState& SlidingWindowJoinOperator::StateForKey(
    int64_t key) {
  auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const KeyEntry& e, int64_t k) { return e.key < k; });
  if (it == keys_.end() || it->key != key) {
    it = keys_.insert(it, KeyEntry{key, KeyState{}});
  }
  return it->state;
}

SimpleEvent* SlidingWindowJoinOperator::InsertRow(SideBuffer* side,
                                                  size_t arity, Timestamp ts) {
  if (side->rows() == 0) side->arity = arity;  // shape on first insert
  CEP2ASP_DCHECK(side->arity == arity)
      << "row arity " << arity << " vs side " << side->arity;
  // In-order arrivals append; a late or interleaved one goes after every
  // live row of equal or smaller time (the dead prefix is never searched).
  size_t pos = side->rows();
  if (!side->empty() && ts < side->times.back()) {
    pos = UpperBoundTs(side->times, side->head, side->rows(), ts);
  }
  side->times.insert(side->times.begin() + static_cast<ptrdiff_t>(pos), ts);
  auto at = side->events.begin() + static_cast<ptrdiff_t>(pos * arity);
  side->events.insert(at, arity, SimpleEvent{});
  state_bytes_ += RowBytes(arity);
  min_buffered_ts_ = std::min(min_buffered_ts_, ts);
  return &side->events[pos * arity];
}

void SlidingWindowJoinOperator::CheckBoundedRightRow(
    [[maybe_unused]] int input, [[maybe_unused]] const SideBuffer& side,
    [[maybe_unused]] const SimpleEvent* row,
    [[maybe_unused]] Timestamp ts) const {
#if CEP2ASP_CHECK_INVARIANTS
  if (input != 1 || order_bound_slot_ < 0) return;
  CEP2ASP_CHECK(side.arity == 1 && row[0].ts == ts)
      << label_ << ": order-bounded join got a right row of arity "
      << side.arity << " with event time " << ts << " != event ts "
      << row[0].ts;
#endif
}

Status SlidingWindowJoinOperator::Process(int input, Tuple tuple, Collector*) {
  CEP2ASP_DCHECK(input == 0 || input == 1);
  SideBuffer& side = StateForKey(tuple.key()).sides[input];
  SimpleEvent* row =
      InsertRow(&side, tuple.size(), tuple.event_time());
  std::copy(tuple.begin(), tuple.end(), row);
  CheckBoundedRightRow(input, side, row, tuple.event_time());
  return Status::OK();
}

Status SlidingWindowJoinOperator::ProcessColumnar(
    int input, std::unique_ptr<ColumnarBatch> block, Collector*) {
  CEP2ASP_DCHECK(input == 0 || input == 1);
  const size_t n = block->rows();
  const size_t arity = block->num_slots();
  const int64_t* keys = block->keys();
  const uint8_t* mask = block->mask();
  const Timestamp* ets = block->event_times();
  // One key lookup per run of equal keys: hash-partitioned sub-blocks and
  // constant-key (cartesian) inputs arrive as few long runs,
  // per-key-interleaved inputs degrade to one lookup per row that still
  // skips the RowTuple gather.
  size_t i = 0;
  while (i < n) {
    if (!mask[i]) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && mask[j] && keys[j] == keys[i]) ++j;
    SideBuffer& side = StateForKey(keys[i]).sides[input];
    for (size_t r = i; r < j; ++r) {
      SimpleEvent* row = InsertRow(&side, arity, ets[r]);
      for (size_t s = 0; s < arity; ++s) row[s] = block->RowEvent(s, r);
      CheckBoundedRightRow(input, side, row, ets[r]);
    }
    i = j;
  }
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
    const Timestamp min_ts = min_buffered_ts_;
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
    // and min_buffered_ts_ stays exact (they are still buffered) — at the
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
  for (const KeyEntry& entry : keys_) {
    const SideBuffer& left = entry.state.sides[0];
    const SideBuffer& right = entry.state.sides[1];
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
  const size_t ln = left.arity;
  const size_t rn = right.arity;
  const bool has_residual = !residual_.IsTrue();
  for (size_t l = l_lo; l < l_hi; ++l) {
    const SimpleEvent* lrow = left.row(l);
    size_t r = r_lo;
    if (order_bound_slot_ >= 0) {
      // Right rows are single events ordered by their ts, so the order
      // term holds exactly from the first row above the left slot's ts.
      r = UpperBoundTs(right.times, r_lo, r_hi, lrow[order_bound_slot_].ts);
    }
    pairs_evaluated_ += static_cast<int64_t>(r_hi - r);
    for (; r < r_hi; ++r) {
      const SimpleEvent* rrow = right.row(r);
      if (has_residual && !EvalOnPair(residual_, lrow, ln, rrow)) continue;
      // Materialize the output tuple only for matches: concatenated
      // events, the left side's key, event time redefined per §4.2.2.
      Tuple joined;
      for (size_t s = 0; s < ln; ++s) joined.AppendEvent(lrow[s]);
      for (size_t s = 0; s < rn; ++s) joined.AppendEvent(rrow[s]);
      joined.set_key(key);
      joined.set_event_time(ts_mode_ == TimestampMode::kMax ? joined.tse()
                                                             : joined.tsb());
      out->Emit(std::move(joined));
    }
  }
}

void SlidingWindowJoinOperator::EvictBefore(Timestamp min_keep_ts) {
  Timestamp global_min = kMaxTimestamp;
  for (auto it = keys_.begin(); it != keys_.end();) {
    KeyState& key_state = it->state;
    const Timestamp key_min =
        std::min(key_state.sides[0].min_ts(), key_state.sides[1].min_ts());
    if (key_min >= min_keep_ts) {
      // Nothing evictable under this key. A key can only become all-empty
      // through eviction, and that path erases it below, so skipped keys
      // always still hold tuples.
      global_min = std::min(global_min, key_min);
      ++it;
      continue;
    }
    bool all_empty = true;
    for (SideBuffer& side : key_state.sides) {
      const size_t keep_from =
          LowerBoundTs(side.times, side.head, side.rows(), min_keep_ts);
      state_bytes_ -= (keep_from - side.head) * RowBytes(side.arity);
      side.head = keep_from;
      // Reclaim the dead prefix only once it outweighs the live suffix;
      // each survivor is then moved at most once per doubling of evicted
      // rows, keeping eviction amortized O(1) per row.
      if (side.head >= side.rows() - side.head) {
        const auto dead = static_cast<ptrdiff_t>(side.head);
        side.times.erase(side.times.begin(), side.times.begin() + dead);
        side.events.erase(
            side.events.begin(),
            side.events.begin() + dead * static_cast<ptrdiff_t>(side.arity));
        side.head = 0;
      }
      if (!side.empty()) all_empty = false;
    }
    if (all_empty) {
      it = keys_.erase(it);
    } else {
      global_min = std::min(global_min, std::min(key_state.sides[0].min_ts(),
                                                 key_state.sides[1].min_ts()));
      ++it;
    }
  }
  min_buffered_ts_ = global_min;
}

}  // namespace cep2asp
