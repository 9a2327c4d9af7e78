#ifndef CEP2ASP_ANALYSIS_INTERVAL_H_
#define CEP2ASP_ANALYSIS_INTERVAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/strings.h"
#include "event/event.h"
#include "event/predicate.h"

namespace cep2asp {

/// \brief A closed interval [lo, hi] over doubles — the abstract domain of
/// the range pass (analysis/range_rules).
///
/// The lattice: Bottom is the empty interval (lo > hi, canonically
/// [+inf, -inf]), Top is [-inf, +inf]; meet is Intersect, join is Hull.
/// Because the job graph is a DAG and every transfer function
/// (refinement, offset shift, hull at merge points) is monotone, a single
/// topological pass reaches the fixpoint — no widening iteration is
/// needed; Hull at fan-in/window merge points plays the role widening
/// would play on cyclic graphs.
///
/// Soundness caveat (NaN): intervals describe *declared* value ranges.
/// An attribute that may be NaN compares false under every operator but
/// !=, so refinement-based narrowing ("values that pass this predicate
/// lie in X") stays sound — NaN never passes and never needs to be in X.
/// Proofs that a predicate *always* holds additionally rely on the
/// declared range being NaN-free, which source declarations promise.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static Interval All() { return Interval{}; }
  static Interval Empty() {
    return Interval{std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity()};
  }
  static Interval Point(double v) { return Interval{v, v}; }
  static Interval Range(double lo, double hi) { return Interval{lo, hi}; }

  bool IsEmpty() const { return lo > hi; }
  bool IsAll() const {
    return std::isinf(lo) && lo < 0 && std::isinf(hi) && hi > 0;
  }
  bool Contains(double v) const { return v >= lo && v <= hi; }
  bool IsPoint() const { return lo == hi; }

  /// Width of the interval; +inf when unbounded, 0 for a point.
  double Width() const { return IsEmpty() ? 0.0 : hi - lo; }

  /// Lattice meet: the values in both intervals.
  Interval Intersect(const Interval& o) const {
    return Interval{std::max(lo, o.lo), std::min(hi, o.hi)};
  }

  /// Lattice join: the smallest interval containing both (convex hull).
  Interval Hull(const Interval& o) const {
    if (IsEmpty()) return o;
    if (o.IsEmpty()) return *this;
    return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
  }

  /// Shifts both bounds by `offset` (rhs_offset of window-style terms).
  Interval Plus(double offset) const {
    if (IsEmpty()) return *this;
    return Interval{lo + offset, hi + offset};
  }

  std::string ToString() const {
    if (IsEmpty()) return "[empty]";
    std::string out = "[";
    out += FormatDouble(lo);
    out += ", ";
    out += FormatDouble(hi);
    out += ']';
    return out;
  }
};

/// Three-valued truth of "x cmp y holds" for x in `lhs`, y in `rhs`.
enum class Truth : uint8_t {
  kNever,      ///< false for every pair of values in the intervals
  kSometimes,  ///< depends on the concrete values (or an interval is empty)
  kAlways,     ///< true for every pair (assuming NaN-free declared ranges)
};

/// Decides the truth of `lhs cmp rhs` over intervals. Empty intervals
/// yield kNever vacuously-by-convention for kAlways purposes: no value
/// reaches the comparison, so callers treat the node as dead via the
/// empty interval itself rather than through the predicate verdict.
inline Truth EvalCmpTruth(const Interval& lhs, CmpOp op, const Interval& rhs) {
  if (lhs.IsEmpty() || rhs.IsEmpty()) return Truth::kSometimes;
  switch (op) {
    case CmpOp::kLt:
      if (lhs.hi < rhs.lo) return Truth::kAlways;
      if (lhs.lo >= rhs.hi) return Truth::kNever;
      return Truth::kSometimes;
    case CmpOp::kLe:
      if (lhs.hi <= rhs.lo) return Truth::kAlways;
      if (lhs.lo > rhs.hi) return Truth::kNever;
      return Truth::kSometimes;
    case CmpOp::kGt:
      if (lhs.lo > rhs.hi) return Truth::kAlways;
      if (lhs.hi <= rhs.lo) return Truth::kNever;
      return Truth::kSometimes;
    case CmpOp::kGe:
      if (lhs.lo >= rhs.hi) return Truth::kAlways;
      if (lhs.hi < rhs.lo) return Truth::kNever;
      return Truth::kSometimes;
    case CmpOp::kEq:
      if (lhs.IsPoint() && rhs.IsPoint() && lhs.lo == rhs.lo) {
        return Truth::kAlways;
      }
      if (lhs.hi < rhs.lo || lhs.lo > rhs.hi) return Truth::kNever;
      return Truth::kSometimes;
    case CmpOp::kNe:
      if (lhs.hi < rhs.lo || lhs.lo > rhs.hi) return Truth::kAlways;
      if (lhs.IsPoint() && rhs.IsPoint() && lhs.lo == rhs.lo) {
        return Truth::kNever;
      }
      return Truth::kSometimes;
  }
  return Truth::kSometimes;
}

/// Narrows `lhs` to the values that can satisfy `lhs cmp rhs` for *some*
/// rhs in `rhs` (the true-branch transfer function of the filter). Closed
/// intervals over doubles cannot express strict bounds exactly, so kLt/kGt
/// keep the closed endpoint — an over-approximation, which is the sound
/// direction for refinement.
inline Interval RefineLhs(const Interval& lhs, CmpOp op, const Interval& rhs) {
  if (lhs.IsEmpty() || rhs.IsEmpty()) return Interval::Empty();
  switch (op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
      return lhs.Intersect(
          Interval{-std::numeric_limits<double>::infinity(), rhs.hi});
    case CmpOp::kGt:
    case CmpOp::kGe:
      return lhs.Intersect(
          Interval{rhs.lo, std::numeric_limits<double>::infinity()});
    case CmpOp::kEq:
      return lhs.Intersect(rhs);
    case CmpOp::kNe:
      // Only a point rhs excludes anything, and an interior point splits
      // the interval — not expressible; refine only at the endpoints.
      return lhs;
  }
  return lhs;
}

/// Narrows `rhs` to the values that can satisfy `lhs cmp rhs` for some
/// lhs in `lhs`; the mirror of RefineLhs.
inline Interval RefineRhs(const Interval& lhs, CmpOp op, const Interval& rhs) {
  switch (op) {
    case CmpOp::kLt:
      return RefineLhs(rhs, CmpOp::kGt, lhs);
    case CmpOp::kLe:
      return RefineLhs(rhs, CmpOp::kGe, lhs);
    case CmpOp::kGt:
      return RefineLhs(rhs, CmpOp::kLt, lhs);
    case CmpOp::kGe:
      return RefineLhs(rhs, CmpOp::kLe, lhs);
    case CmpOp::kEq:
      return RefineLhs(rhs, CmpOp::kEq, lhs);
    case CmpOp::kNe:
      return rhs;
  }
  return rhs;
}

/// Upper bound on the pass fraction of `attr-in-lhs cmp const` under a
/// uniform distribution over `lhs` (the workload generator draws values
/// uniformly, so this is exact for generated streams and an honest bound
/// label otherwise). Returns 1.0 when no finite bound can be derived.
inline double SelectivityBound(const Interval& lhs, CmpOp op, double rhs) {
  if (lhs.IsEmpty()) return 0.0;
  const double width = lhs.Width();
  if (!std::isfinite(width) || width <= 0.0) {
    // Degenerate or unbounded domain: only definite verdicts bound it.
    const Truth t = EvalCmpTruth(lhs, op, Interval::Point(rhs));
    if (t == Truth::kNever) return 0.0;
    if (t == Truth::kAlways) return 1.0;
    return 1.0;
  }
  const Interval pass = RefineLhs(lhs, op, Interval::Point(rhs));
  if (pass.IsEmpty()) return 0.0;
  if (op == CmpOp::kEq) {
    // A point predicate over a continuous uniform domain: measure zero,
    // but report a conservative epsilon-free bound of the point mass a
    // discrete domain of unit spacing would give.
    return std::min(1.0, 1.0 / (width + 1.0));
  }
  return std::min(1.0, pass.Width() / width);
}

/// Per-event-type declared ranges, one interval per attribute slot.
struct EventRanges {
  Interval attrs[6];  // indexed by Attribute (kValue..kAuxTs)

  Interval& operator[](Attribute attr) {
    return attrs[static_cast<size_t>(attr)];
  }
  const Interval& operator[](Attribute attr) const {
    return attrs[static_cast<size_t>(attr)];
  }
};

/// \brief Declared source ranges, keyed by event type — the facts the
/// range pass seeds its propagation from. Typically derived from a
/// Workload (generator stream specs bound value/id/ts exactly) or
/// declared by hand for external streams. An empty catalog means "nothing
/// declared": sources seed at Top and only self-contradictory predicates
/// can be disproven.
class SourceRangeCatalog {
 public:
  SourceRangeCatalog() = default;

  void Declare(EventTypeId type, EventRanges ranges) {
    ranges_[type] = ranges;
  }

  const EventRanges* Find(EventTypeId type) const {
    auto it = ranges_.find(type);
    return it == ranges_.end() ? nullptr : &it->second;
  }

  bool empty() const { return ranges_.empty(); }
  size_t size() const { return ranges_.size(); }

 private:
  std::unordered_map<EventTypeId, EventRanges> ranges_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_INTERVAL_H_
