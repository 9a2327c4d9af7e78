#ifndef CEP2ASP_TRANSLATOR_LOGICAL_PLAN_H_
#define CEP2ASP_TRANSLATOR_LOGICAL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asp/interval_join.h"
#include "asp/window.h"
#include "asp/window_aggregate.h"
#include "event/predicate.h"
#include "sea/pattern.h"

namespace cep2asp {

/// Logical operators a translated query is composed of (paper Table 1).
enum class LogicalOpKind : uint8_t {
  kScan,          // Stream T_i
  kFilter,        // pushed-down selection
  kKeyByAttr,     // partition by attribute (Equi Join key, O3)
  kKeyByConst,    // uniform key (Cartesian-product workaround, §4.2.1)
  kUnion,         // disjunction target / NSEQ pre-union
  kWindowJoin,    // sliding-window Cross/Theta/Equi join
  kIntervalJoin,  // O1 windowing
  kAggregate,     // O2 window aggregation
  kIterChainApply,// O2 variant for constrained iterations (UDF window fn)
  kNseqMark,      // the NSEQ "ats" UDF
  kReorder,       // restore match-position order after join reordering
};

const char* LogicalOpKindToString(LogicalOpKind kind);

/// \brief Node of the logical query plan the translator produces before
/// physical compilation. A thin, inspectable IR: optimizer passes (O1–O3,
/// join reordering) rewrite this tree, and tests assert its shape.
struct LogicalOp {
  LogicalOpKind kind = LogicalOpKind::kScan;
  std::vector<std::unique_ptr<LogicalOp>> inputs;

  /// Match positions (original pattern positions) covered by this node's
  /// output tuples, in concatenation order.
  std::vector<int> positions;

  // --- per-kind payloads -------------------------------------------------
  EventTypeId scan_type = kInvalidEventType;   // kScan
  Predicate predicate;        // kFilter (var 0 = head event) / join condition
                              // in *concatenated output* index space
  Attribute key_attr = Attribute::kId;         // kKeyByAttr
  /// Keyed stages only (joins/aggregations under O3 attribute keys, and
  /// the key-assigning maps feeding them): the stage computes per key and
  /// may run with parallelism > 1 behind a hash-partitioned exchange
  /// (paper §4.2.3). Constant-key stages stay sequential — every tuple
  /// shares one key, so hash routing would address a single subtask.
  bool parallelizable = false;
  int64_t const_key = 0;                       // kKeyByConst
  SlidingWindowSpec window;                    // kWindowJoin/kAggregate/...
  bool dedup_pairs = false;                    // kWindowJoin: intermediate join
  /// kWindowJoin: left slot of the SEQ order term `l.slot.ts < r.ts` the
  /// join enforces as a range bound (-1 = none). Set only when the right
  /// input is a leaf stream, whose event time is its event's ts; the term
  /// stays in `predicate`.
  int order_bound_slot = -1;
  IntervalBounds interval;                     // kIntervalJoin
  TimestampMode ts_mode = TimestampMode::kMax; // joins
  AggregateFn aggregate_fn = AggregateFn::kCount;  // kAggregate
  Attribute aggregate_attr = Attribute::kValue;    // kAggregate
  int64_t min_count = 0;                       // kAggregate / kIterChainApply
  std::optional<ConsecutiveConstraint> chain_constraint;  // kIterChainApply
  EventTypeId nseq_positive = kInvalidEventType;  // kNseqMark
  EventTypeId nseq_negated = kInvalidEventType;   // kNseqMark
  Timestamp nseq_window = 0;                      // kNseqMark
  std::vector<int> reorder_permutation;           // kReorder

  /// Recursively renders the plan as an indented tree.
  std::string ToString(int indent = 0) const;

  /// Number of nodes of `kind` in this subtree (test helper).
  int CountKind(LogicalOpKind kind) const;
};

/// \brief A complete logical query: plan root plus the window parameters
/// shared by all stateful operators.
struct LogicalPlan {
  std::unique_ptr<LogicalOp> root;
  Timestamp window_size = 0;
  Timestamp slide = 0;
  /// Requested subtask count for parallelizable stages (from
  /// TranslatorOptions::parallelism); physical compilation expands the
  /// marked stages to this parallelism behind hash-partitioned edges.
  int parallelism = 1;
  /// Declared distinct-key count (0 = unknown); becomes the compiled
  /// nodes' key-domain hint.
  int64_t num_keys_hint = 0;
  /// Append a DedupOperator(2 * window_size) before the sink (from
  /// TranslatorOptions::deduplicate_output).
  bool deduplicate_output = false;

  std::string ToString() const {
    return root ? root->ToString() : "(empty plan)";
  }
};

}  // namespace cep2asp

#endif  // CEP2ASP_TRANSLATOR_LOGICAL_PLAN_H_
