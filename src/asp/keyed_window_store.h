#ifndef CEP2ASP_ASP_KEYED_WINDOW_STORE_H_
#define CEP2ASP_ASP_KEYED_WINDOW_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "event/event.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {

/// How the join redefines the output tuple's event time (paper §4.2.2:
/// after each Window Join the event time attribute must be redefined — the
/// minimum timestamp of the pair for a partial match of a nested pattern,
/// the maximum for a complete match).
enum class TimestampMode : uint8_t { kMin, kMax };

/// Index of the first element of ts[lo, hi) not below `v`.
inline size_t LowerBoundTs(const std::vector<Timestamp>& ts, size_t lo,
                           size_t hi, Timestamp v) {
  return static_cast<size_t>(
      std::lower_bound(ts.begin() + static_cast<ptrdiff_t>(lo),
                       ts.begin() + static_cast<ptrdiff_t>(hi), v) -
      ts.begin());
}

/// Index of the first element of ts[lo, hi) above `v`.
inline size_t UpperBoundTs(const std::vector<Timestamp>& ts, size_t lo,
                           size_t hi, Timestamp v) {
  return static_cast<size_t>(
      std::upper_bound(ts.begin() + static_cast<ptrdiff_t>(lo),
                       ts.begin() + static_cast<ptrdiff_t>(hi), v) -
      ts.begin());
}

/// Predicate::EvalOnEvents over a pair read in place: variables below
/// `ln` address the left row, the rest the right row.
inline bool EvalOnPair(const Predicate& predicate, const SimpleEvent* left,
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

/// Per-(key, side) window store, row-major: row i is the `arity` events
/// events[i * arity, (i + 1) * arity) with event time times[i]. Rows stay
/// sorted by event time — an arrival is inserted after every buffered row
/// of equal or smaller time, so equal times keep arrival order — and no
/// join ever sorts. A pair's events are two contiguous runs, read in place
/// for residual evaluation and output.
struct SideBuffer {
  std::vector<SimpleEvent> events;
  std::vector<Timestamp> times;
  size_t arity = 0;
  // Index of the first live row: [head, rows) are buffered, [0, head) are
  // evicted but not yet reclaimed (KeyedWindowStore::EvictTo).
  size_t head = 0;

  size_t rows() const { return times.size(); }
  bool empty() const { return head >= times.size(); }
  const SimpleEvent* row(size_t i) const { return &events[i * arity]; }
  /// Smallest buffered event time (the live front: rows are sorted).
  Timestamp min_ts() const { return empty() ? kMaxTimestamp : times[head]; }
};

/// \brief Keyed two-sided window state shared by the sliding-window and
/// interval joins.
///
/// Keys live in a flat vector sorted by key. Both joins walk every key on
/// firing, so iteration locality dominates: ~a hundred contiguous entries
/// stay L1-resident where an unordered_map walk chases a pointer per key.
/// Lookup on ingest is a binary search; inserts (one per distinct key)
/// shift the tail, which is negligible next to the per-tuple work.
class KeyedWindowStore {
 public:
  struct KeyEntry {
    int64_t key;
    SideBuffer sides[2];
  };

  /// Buffers `tuple` on side `input` (0 = left, 1 = right) of its key.
  void Insert(int input, const Tuple& tuple) {
    CEP2ASP_DCHECK(input == 0 || input == 1);
    SideBuffer& side = StateForKey(tuple.key()).sides[input];
    SimpleEvent* row = InsertRow(&side, tuple.size(), tuple.event_time());
    std::copy(tuple.begin(), tuple.end(), row);
  }

  /// Columnar ingest: one key lookup per run of equal keys, then each row
  /// of the run scatters straight into its side — no RowTuple gather, no
  /// per-row Process call. Hash-partitioned sub-blocks and constant-key
  /// (cartesian) inputs arrive as few long runs; per-key-interleaved
  /// inputs degrade to one lookup per row that still skips the gather.
  void InsertColumnar(int input, const ColumnarBatch& block) {
    CEP2ASP_DCHECK(input == 0 || input == 1);
    const size_t arity = block.num_slots();
    SideBuffer* side = nullptr;  // key `side_key`'s; no key insert in between
    int64_t side_key = 0;
    for (size_t r = 0; r < block.rows(); ++r) {
      if (!block.mask()[r]) continue;
      if (side == nullptr || block.keys()[r] != side_key) {
        side_key = block.keys()[r];
        side = &StateForKey(side_key).sides[input];
      }
      SimpleEvent* row = InsertRow(side, arity, block.event_time(r));
      for (size_t s = 0; s < arity; ++s) row[s] = block.RowEvent(s, r);
    }
  }

  const std::vector<KeyEntry>& keys() const { return keys_; }
  size_t state_bytes() const { return state_bytes_; }
  /// Smallest event time buffered across all keys and sides; folded in on
  /// insert and re-derived by Sweep (the only two buffer mutations), so a
  /// join can test it per watermark in O(1) instead of a full key scan.
  Timestamp min_ts() const { return min_ts_; }

  /// Calls `visit(const KeyEntry&)` on every key in key order. The
  /// visitor may emit, and returns the index of the first row to keep on
  /// the left and on the right side. Evicts the rows before those, erases
  /// each key whose sides are both empty, and re-derives min_ts().
  template <typename Visit>
  void Sweep(Visit&& visit) {
    for (KeyEntry& entry : keys_) {
      const auto [left_keep, right_keep] = visit(std::as_const(entry));
      EvictTo(&entry.sides[0], left_keep);
      EvictTo(&entry.sides[1], right_keep);
    }
    const auto drained = [](const KeyEntry& e) {
      return e.sides[0].empty() && e.sides[1].empty();
    };
    keys_.erase(std::remove_if(keys_.begin(), keys_.end(), drained),
                keys_.end());
    min_ts_ = kMaxTimestamp;
    for (const KeyEntry& e : keys_) {
      min_ts_ = std::min({min_ts_, e.sides[0].min_ts(), e.sides[1].min_ts()});
    }
  }

 private:
  /// Per-row state accounting, matching the row-major Tuple footprint
  /// (Tuple::MemoryBytes) so figure-5 style byte timelines stay comparable
  /// across layouts.
  static size_t RowBytes(size_t arity) {
    return sizeof(Tuple) + (arity > 4 ? arity * sizeof(SimpleEvent) : 0);
  }

  KeyEntry& StateForKey(int64_t key) {
    auto it = std::lower_bound(
        keys_.begin(), keys_.end(), key,
        [](const KeyEntry& e, int64_t k) { return e.key < k; });
    if (it == keys_.end() || it->key != key) {
      it = keys_.insert(it, KeyEntry{key, {}});
    }
    return *it;
  }

  /// Evicts the live rows [side->head, keep_from).
  void EvictTo(SideBuffer* side, size_t keep_from) {
    state_bytes_ -= (keep_from - side->head) * RowBytes(side->arity);
    side->head = keep_from;
    // Reclaim the dead prefix only once it outweighs the live suffix; each
    // survivor is then moved at most once per doubling of evicted rows,
    // keeping eviction amortized O(1) per row.
    if (side->head >= side->rows() - side->head) {
      const auto dead = static_cast<ptrdiff_t>(side->head);
      side->times.erase(side->times.begin(), side->times.begin() + dead);
      side->events.erase(
          side->events.begin(),
          side->events.begin() + dead * static_cast<ptrdiff_t>(side->arity));
      side->head = 0;
    }
  }

  /// Inserts a row of `arity` events with event time `ts` at its sorted
  /// place in `side` and returns where the caller writes the events.
  SimpleEvent* InsertRow(SideBuffer* side, size_t arity, Timestamp ts) {
    if (side->rows() == 0) side->arity = arity;  // shape on first insert
    CEP2ASP_DCHECK(side->arity == arity)
        << "row arity " << arity << " vs side " << side->arity;
    // In-order arrivals append; a late or interleaved one goes after every
    // live row of equal or smaller time (the dead prefix is never
    // searched).
    size_t pos = side->rows();
    if (!side->empty() && ts < side->times.back()) {
      pos = UpperBoundTs(side->times, side->head, side->rows(), ts);
    }
    side->times.insert(side->times.begin() + static_cast<ptrdiff_t>(pos), ts);
    auto at = side->events.begin() + static_cast<ptrdiff_t>(pos * arity);
    side->events.insert(at, arity, SimpleEvent{});
    state_bytes_ += RowBytes(arity);
    min_ts_ = std::min(min_ts_, ts);
    return &side->events[pos * arity];
  }

  std::vector<KeyEntry> keys_;  // sorted by key
  Timestamp min_ts_ = kMaxTimestamp;
  size_t state_bytes_ = 0;
};

/// Emits left row `lrow` (`ln` events) joined with each right row in
/// [r_lo, r_hi) that `residual` accepts, built only for survivors: the
/// concatenated events, `key`, and the event time redefined per §4.2.2.
/// Returns the number of pairs enumerated.
inline int64_t EmitPairs(int64_t key, const SimpleEvent* lrow, size_t ln,
                         const SideBuffer& right, size_t r_lo, size_t r_hi,
                         const Predicate& residual, TimestampMode ts_mode,
                         Collector* out) {
  const size_t rn = right.arity;
  const bool has_residual = !residual.IsTrue();
  for (size_t r = r_lo; r < r_hi; ++r) {
    const SimpleEvent* rrow = right.row(r);
    if (has_residual && !EvalOnPair(residual, lrow, ln, rrow)) continue;
    Tuple joined;
    for (size_t s = 0; s < ln; ++s) joined.AppendEvent(lrow[s]);
    for (size_t s = 0; s < rn; ++s) joined.AppendEvent(rrow[s]);
    joined.set_key(key);
    joined.set_event_time(ts_mode == TimestampMode::kMax ? joined.tse()
                                                         : joined.tsb());
    out->Emit(std::move(joined));
  }
  return static_cast<int64_t>(r_hi - r_lo);
}

}  // namespace cep2asp

#endif  // CEP2ASP_ASP_KEYED_WINDOW_STORE_H_
