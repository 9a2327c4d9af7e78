#include "translator/translator.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "analysis/diagnostic.h"
#include "analysis/range_rules.h"
#include "asp/compiled_stateless.h"
#include "asp/dedup.h"
#include "asp/nseq_mark.h"
#include "asp/sliding_window_join.h"
#include "asp/stateless.h"
#include "asp/window_aggregate.h"
#include "asp/window_apply.h"
#include "cep/cep_operator.h"
#include "common/logging.h"

namespace cep2asp {

namespace {

// ---------------------------------------------------------------------------
// Equi-Join key extraction (O3, §4.3.3)
// ---------------------------------------------------------------------------

struct KeyPlan {
  bool by_attr = false;
  Attribute attr = Attribute::kId;
  /// Indices (into pattern.cross_predicates().terms()) of the equality
  /// terms consumed by key partitioning.
  std::vector<size_t> consumed_terms;
};

/// Determines whether the pattern's cross-variable equalities connect all
/// match positions on a single attribute; if so, every stream can be
/// partitioned by that attribute and the equalities become the join key.
KeyPlan ExtractKeyPlan(const Pattern& pattern) {
  KeyPlan plan;
  const int arity = pattern.OutputArity();
  if (arity < 2) return plan;

  // Union-find over match positions.
  std::vector<int> parent(static_cast<size_t>(arity));
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      x = parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
    }
    return x;
  };

  bool have_attr = false;
  Attribute attr = Attribute::kId;
  const auto& terms = pattern.cross_predicates().terms();
  std::vector<size_t> candidates;
  for (size_t i = 0; i < terms.size(); ++i) {
    const Comparison& c = terms[i];
    if (!c.IsCrossVarEquality()) continue;
    if (c.lhs.attr != c.rhs_attr.attr) continue;
    if (have_attr && c.lhs.attr != attr) continue;  // single-attribute keys
    have_attr = true;
    attr = c.lhs.attr;
    parent[static_cast<size_t>(find(c.lhs.var))] = find(c.rhs_attr.var);
    candidates.push_back(i);
  }
  if (!have_attr) return plan;
  int root = find(0);
  for (int i = 1; i < arity; ++i) {
    if (find(i) != root) return plan;  // not fully connected: no key plan
  }
  plan.by_attr = true;
  plan.attr = attr;
  plan.consumed_terms = std::move(candidates);
  return plan;
}

// ---------------------------------------------------------------------------
// Logical plan construction
// ---------------------------------------------------------------------------

struct PendingTerm {
  Comparison comparison;  // match-position variable space
  bool attached = false;
};

struct BuildContext {
  const Pattern* pattern = nullptr;
  const TranslatorOptions* options = nullptr;
  const StreamStatistics* stats = nullptr;
  Timestamp window = 0;
  Timestamp slide = 0;
  KeyPlan key_plan;
  std::vector<PendingTerm> pending;
  bool used_sliding_join = false;
  /// Set when a leaf filter is provably always-false for the declared
  /// source ranges: the plan is dead and translation refuses (E318).
  std::string dead_filter_error;
};

std::unique_ptr<LogicalOp> MakeKeyOp(const BuildContext& ctx,
                                     std::unique_ptr<LogicalOp> input) {
  auto key = std::make_unique<LogicalOp>();
  key->kind = ctx.key_plan.by_attr ? LogicalOpKind::kKeyByAttr
                                   : LogicalOpKind::kKeyByConst;
  key->key_attr = ctx.key_plan.attr;
  key->const_key = 0;
  key->parallelizable = ctx.key_plan.by_attr;
  key->positions = input->positions;
  key->inputs.push_back(std::move(input));
  return key;
}

/// Scan -> (Filter) -> KeyBy chain for one atom occurrence. Consumes the
/// interval analysis on the pushed-down filter: a filter the declared
/// source ranges prove always-true is dropped from the plan, one proven
/// always-false poisons the build (the caller refuses translation with
/// E318 — the whole plan is dead). With no declared ranges the analysis
/// still catches self-contradictory filters by term refinement.
std::unique_ptr<LogicalOp> BuildLeaf(BuildContext& ctx,
                                     const PatternAtom& atom, int position) {
  auto scan = std::make_unique<LogicalOp>();
  scan->kind = LogicalOpKind::kScan;
  scan->scan_type = atom.type;
  scan->positions = {position};

  std::unique_ptr<LogicalOp> head = std::move(scan);
  if (!atom.filter.IsTrue()) {
    const EventRanges* declared = ctx.stats->source_ranges.Find(atom.type);
    const Truth truth = PredicateTruthOnEvent(
        atom.filter, declared != nullptr ? *declared : EventRanges{});
    if (truth == Truth::kNever && ctx.dead_filter_error.empty()) {
      ctx.dead_filter_error =
          DiagnosticCodeName(DiagnosticCode::kGraphFilterAlwaysFalse) +
          ": filter on event type " + std::to_string(atom.type) +
          " can never hold for the declared source ranges; the plan "
          "matches nothing";
    }
    if (truth != Truth::kAlways) {
      auto filter = std::make_unique<LogicalOp>();
      filter->kind = LogicalOpKind::kFilter;
      filter->predicate = atom.filter;
      filter->positions = {position};
      filter->inputs.push_back(std::move(head));
      head = std::move(filter);
    }
    // truth == kAlways: the declared ranges prove the filter a no-op —
    // the W319 case, resolved here by simply not emitting the operator.
  }
  return MakeKeyOp(ctx, std::move(head));
}

/// Remaps a match-position comparison into the concatenated index space
/// described by `positions` (positions[i] = match position at concat
/// slot i).
Comparison RemapToConcat(const Comparison& c, const std::vector<int>& positions) {
  int max_pos = 0;
  for (int p : positions) max_pos = std::max(max_pos, p);
  std::vector<int> mapping(static_cast<size_t>(max_pos) + 1, -1);
  for (size_t i = 0; i < positions.size(); ++i) {
    mapping[static_cast<size_t>(positions[i])] = static_cast<int>(i);
  }
  return c.Remap(mapping);
}

bool ContainsAll(const std::vector<int>& positions, const Comparison& c) {
  auto has = [&positions](int var) {
    return std::find(positions.begin(), positions.end(), var) != positions.end();
  };
  if (!has(c.lhs.var)) return false;
  if (c.rhs_is_attr && !has(c.rhs_attr.var)) return false;
  return true;
}

/// Collects cross predicates that become evaluable with `positions` and
/// have not been attached yet, remapped to concat space.
Predicate TakeAttachableTerms(BuildContext* ctx,
                              const std::vector<int>& positions) {
  Predicate out;
  for (PendingTerm& term : ctx->pending) {
    if (term.attached) continue;
    if (!ContainsAll(positions, term.comparison)) continue;
    out.Add(RemapToConcat(term.comparison, positions));
    term.attached = true;
  }
  return out;
}

/// Estimated post-filter rate for ordering decisions; composites use
/// their head scan's type.
double EstimateRate(const BuildContext& ctx, const LogicalOp& node) {
  const LogicalOp* cursor = &node;
  while (!cursor->inputs.empty()) cursor = cursor->inputs[0].get();
  if (cursor->kind != LogicalOpKind::kScan) return 1.0;
  return ctx.stats->EffectiveRate(cursor->scan_type);
}

/// True when every output row of `op` is one unmodified source event, so
/// its event time is that event's ts: a scan, optionally filtered and
/// keyed, or a union of such (an OR operand).
bool IsLeafStream(const LogicalOp& op) {
  switch (op.kind) {
    case LogicalOpKind::kScan:
      return true;
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kKeyByAttr:
    case LogicalOpKind::kKeyByConst:
      return IsLeafStream(*op.inputs[0]);
    case LogicalOpKind::kUnion:
      return std::all_of(op.inputs.begin(), op.inputs.end(),
                         [](const auto& in) { return IsLeafStream(*in); });
    default:
      return false;
  }
}

/// Builds a binary join of `left` and `right`. `ordered` selects SEQ
/// adjacency semantics (every left-side event of the previous child
/// precedes every right-side event); `adjacency_left_positions` holds the
/// previous child's positions (subset of left->positions) for SEQ.
std::unique_ptr<LogicalOp> BuildJoin(BuildContext* ctx,
                                     std::unique_ptr<LogicalOp> left,
                                     std::unique_ptr<LogicalOp> right,
                                     bool ordered,
                                     const std::vector<int>& adjacency_left_positions) {
  std::vector<int> combined = left->positions;
  combined.insert(combined.end(), right->positions.begin(),
                  right->positions.end());

  Predicate condition;
  const size_t left_arity = left->positions.size();
  int order_bound_slot = -1;

  if (ordered) {
    // SEQ: temporal order between the adjacent children (Eq. 10 /
    // Listing 8: consecutive ts constraints).
    for (int p : adjacency_left_positions) {
      auto it = std::find(left->positions.begin(), left->positions.end(), p);
      CEP2ASP_CHECK(it != left->positions.end());
      int left_idx = static_cast<int>(it - left->positions.begin());
      // Against a leaf right side the first order term becomes the
      // window join's range bound (its other terms stay residual).
      if (order_bound_slot < 0 && right->positions.size() == 1 &&
          IsLeafStream(*right)) {
        order_bound_slot = left_idx;
      }
      for (size_t r = 0; r < right->positions.size(); ++r) {
        condition.Add(Comparison::AttrAttr(
            AttrRef{left_idx, Attribute::kTs}, CmpOp::kLt,
            AttrRef{static_cast<int>(left_arity + r), Attribute::kTs}));
      }
    }
  } else {
    // AND with a composite left side: the partial match's redefined event
    // time (min ts) no longer witnesses all pairwise window constraints,
    // so they survive explicitly as predicates: |l.ts - r.ts| < W.
    if (left_arity > 1) {
      double w = static_cast<double>(ctx->window);
      for (size_t l = 0; l < left_arity; ++l) {
        for (size_t r = 0; r < right->positions.size(); ++r) {
          int ri = static_cast<int>(left_arity + r);
          condition.Add(Comparison::AttrAttr(AttrRef{static_cast<int>(l), Attribute::kTs},
                                             CmpOp::kLt,
                                             AttrRef{ri, Attribute::kTs}, w));
          condition.Add(Comparison::AttrAttr(AttrRef{ri, Attribute::kTs},
                                             CmpOp::kLt,
                                             AttrRef{static_cast<int>(l), Attribute::kTs},
                                             w));
        }
      }
    }
  }

  // Attach newly evaluable cross predicates.
  Predicate attachable = TakeAttachableTerms(ctx, combined);
  for (const Comparison& c : attachable.terms()) condition.Add(c);

  auto join = std::make_unique<LogicalOp>();
  bool interval = ctx->options->use_interval_join;
  if (ctx->options->auto_optimize && !interval) {
    // O1 pays off when the (window-defining) left stream is the rarer one
    // (§4.3.1).
    interval = EstimateRate(*ctx, *left) <= EstimateRate(*ctx, *right);
  }
  if (interval) {
    join->kind = LogicalOpKind::kIntervalJoin;
    join->interval = ordered ? IntervalBounds::ForSequence(ctx->window)
                             : IntervalBounds::ForConjunction(ctx->window);
  } else {
    join->kind = LogicalOpKind::kWindowJoin;
    join->window = SlidingWindowSpec{ctx->window, ctx->slide};
    // Intermediate joins forward each logical match once so per-overlap
    // duplicates do not multiply through the chain; the root join is
    // switched back to duplicate-emitting in MarkRootJoinComplete.
    join->dedup_pairs = true;
    join->order_bound_slot = order_bound_slot;
    ctx->used_sliding_join = true;
  }
  join->predicate = std::move(condition);
  join->ts_mode = TimestampMode::kMin;  // partial match; root fixed later
  // Under O3 attribute keys the join computes per key (§4.2.3) and may
  // run data-parallel; constant-key joins cannot spread over subtasks.
  join->parallelizable = ctx->key_plan.by_attr;
  join->positions = std::move(combined);
  join->inputs.push_back(std::move(left));
  join->inputs.push_back(std::move(right));
  return join;
}

Result<std::unique_ptr<LogicalOp>> BuildNode(BuildContext* ctx,
                                             const PatternNode& node,
                                             int* position_cursor);

/// ITER^m as a chain of m-1 self Theta Joins (Table 1).
Result<std::unique_ptr<LogicalOp>> BuildIterJoins(BuildContext* ctx,
                                                  const PatternNode& node,
                                                  int* position_cursor) {
  const int m = node.iter_count;
  int base_position = *position_cursor;
  *position_cursor += m;

  std::unique_ptr<LogicalOp> plan = BuildLeaf(*ctx, node.atom, base_position);
  for (int i = 1; i < m; ++i) {
    std::unique_ptr<LogicalOp> next = BuildLeaf(*ctx, node.atom, base_position + i);
    std::vector<int> adjacency = {base_position + i - 1};
    std::unique_ptr<LogicalOp> join =
        BuildJoin(ctx, std::move(plan), std::move(next), /*ordered=*/true,
                  adjacency);
    if (node.iter_constraint.has_value()) {
      const ConsecutiveConstraint& c = *node.iter_constraint;
      join->predicate.Add(Comparison::AttrAttr(AttrRef{i - 1, c.attr}, c.op,
                                               AttrRef{i, c.attr}));
    }
    plan = std::move(join);
  }
  return plan;
}

/// ITER^m via O2: window aggregation (count) or, when the iteration
/// constrains consecutive events, the UDF chain variant (§4.3.2: UDF
/// aggregations can sort window content to support such conditions).
Result<std::unique_ptr<LogicalOp>> BuildIterAggregate(BuildContext* ctx,
                                                      const PatternNode& node,
                                                      int* position_cursor) {
  int base_position = *position_cursor;
  *position_cursor += node.iter_count;
  // The aggregate collapses the iteration into one output tuple; cross
  // predicates over its positions cannot be evaluated any more.
  for (const PendingTerm& term : ctx->pending) {
    const Comparison& c = term.comparison;
    auto in_iter = [&](int var) {
      return var >= base_position && var < base_position + node.iter_count;
    };
    if (in_iter(c.lhs.var) || (c.rhs_is_attr && in_iter(c.rhs_attr.var))) {
      return Status::FailedPrecondition(
          "O2 aggregation cannot honor cross predicates over iteration "
          "positions");
    }
  }

  std::unique_ptr<LogicalOp> leaf = BuildLeaf(*ctx, node.atom, base_position);
  auto agg = std::make_unique<LogicalOp>();
  if (node.iter_constraint.has_value()) {
    agg->kind = LogicalOpKind::kIterChainApply;
    agg->chain_constraint = node.iter_constraint;
  } else {
    agg->kind = LogicalOpKind::kAggregate;
    agg->aggregate_fn = AggregateFn::kCount;
    agg->aggregate_attr = Attribute::kValue;
  }
  agg->min_count = node.iter_count;
  agg->window = SlidingWindowSpec{ctx->window, ctx->slide};
  agg->parallelizable = ctx->key_plan.by_attr;
  agg->positions = {base_position};  // approximate single-tuple output
  agg->inputs.push_back(std::move(leaf));
  return agg;
}

Result<std::unique_ptr<LogicalOp>> BuildNseq(BuildContext* ctx,
                                             const PatternNode& node,
                                             int* position_cursor) {
  const PatternAtom& t1 = node.nseq_atoms[0];
  const PatternAtom& t2 = node.nseq_atoms[1];
  const PatternAtom& t3 = node.nseq_atoms[2];
  int p1 = (*position_cursor)++;
  int p3 = (*position_cursor)++;

  std::unique_ptr<LogicalOp> left1 = BuildLeaf(*ctx, t1, p1);
  std::unique_ptr<LogicalOp> left2 = BuildLeaf(*ctx, t2, p1);  // no own position

  auto union_op = std::make_unique<LogicalOp>();
  union_op->kind = LogicalOpKind::kUnion;
  union_op->positions = {p1};
  union_op->inputs.push_back(std::move(left1));
  union_op->inputs.push_back(std::move(left2));

  auto mark = std::make_unique<LogicalOp>();
  mark->kind = LogicalOpKind::kNseqMark;
  mark->nseq_positive = t1.type;
  mark->nseq_negated = t2.type;
  mark->nseq_window = ctx->window;
  mark->parallelizable = ctx->key_plan.by_attr;  // marking is per key
  mark->positions = {p1};
  mark->inputs.push_back(std::move(union_op));

  std::unique_ptr<LogicalOp> right = BuildLeaf(*ctx, t3, p3);
  std::unique_ptr<LogicalOp> join = BuildJoin(
      ctx, std::move(mark), std::move(right), /*ordered=*/true, {p1});
  // The negated quantifier: no e2 in the *open* interval (e1.ts, e3.ts)
  // <=> ats >= e3.ts. (Non-strict: an e2 at exactly e3.ts does not block
  // the match, so ats == e3.ts must pass.)
  join->predicate.Add(Comparison::AttrAttr(AttrRef{0, Attribute::kAuxTs},
                                           CmpOp::kGe,
                                           AttrRef{1, Attribute::kTs}));
  return join;
}

Result<std::unique_ptr<LogicalOp>> BuildComposite(BuildContext* ctx,
                                                  const PatternNode& node,
                                                  int* position_cursor) {
  const bool ordered = node.op == PatternOp::kSeq;

  // Build children in pattern order (positions are assigned in order).
  std::vector<std::unique_ptr<LogicalOp>> children;
  std::vector<std::vector<int>> child_positions;
  children.reserve(node.children.size());
  for (const auto& child : node.children) {
    auto result = BuildNode(ctx, *child, position_cursor);
    if (!result.ok()) return result.status();
    child_positions.push_back(result.ValueOrDie()->positions);
    children.push_back(std::move(result).ValueOrDie());
  }

  // AND is commutative: with statistics, join the rarer streams first
  // (§4.2.2: "leverage the commutative and associative properties ... and
  // reorder joins"). SEQ is not commutative; its children join in pattern
  // order so adjacency constraints stay between neighbouring children.
  std::vector<size_t> order(children.size());
  std::iota(order.begin(), order.end(), 0);
  if (!ordered && ctx->options->auto_optimize) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return EstimateRate(*ctx, *children[a]) < EstimateRate(*ctx, *children[b]);
    });
  }

  std::unique_ptr<LogicalOp> plan = std::move(children[order[0]]);
  for (size_t i = 1; i < order.size(); ++i) {
    // SEQ: the adjacency constraint links pattern child i-1 with child i
    // (Listing 8: consecutive ts predicates; transitivity orders the rest).
    std::vector<int> adjacency;
    if (ordered) adjacency = child_positions[order[i] - 1];
    plan = BuildJoin(ctx, std::move(plan), std::move(children[order[i]]),
                     ordered, adjacency);
  }
  return plan;
}

Result<std::unique_ptr<LogicalOp>> BuildNode(BuildContext* ctx,
                                             const PatternNode& node,
                                             int* position_cursor) {
  switch (node.op) {
    case PatternOp::kAtom: {
      int position = (*position_cursor)++;
      return BuildLeaf(*ctx, node.atom, position);
    }
    case PatternOp::kOr: {
      int position = (*position_cursor)++;
      auto union_op = std::make_unique<LogicalOp>();
      union_op->kind = LogicalOpKind::kUnion;
      union_op->positions = {position};
      for (const auto& child : node.children) {
        union_op->inputs.push_back(BuildLeaf(*ctx, child->atom, position));
      }
      return union_op;
    }
    case PatternOp::kIter:
      if (node.iter_unbounded && !ctx->options->use_aggregation_for_iter) {
        // Kleene+-style iterations (n >= m) have no Theta-Join mapping
        // (Table 1: "unbounded m" requires O2); the aggregation path
        // checks count >= m per window.
        return Status::Unimplemented(
            "unbounded iteration requires O2 (use_aggregation_for_iter)");
      }
      if (ctx->options->use_aggregation_for_iter) {
        auto result = BuildIterAggregate(ctx, node, position_cursor);
        if (result.ok() || node.iter_unbounded) return result;
        // Fall back to joins when O2 cannot express the bounded pattern.
        CEP2ASP_LOG(Warning)
            << "O2 fallback to self joins: " << result.status().message();
        *position_cursor -= node.iter_count;
      }
      return BuildIterJoins(ctx, node, position_cursor);
    case PatternOp::kNseq:
      return BuildNseq(ctx, node, position_cursor);
    case PatternOp::kSeq:
    case PatternOp::kAnd:
      return BuildComposite(ctx, node, position_cursor);
  }
  return Status::Internal("unknown pattern op");
}

void MarkRootJoinComplete(LogicalOp* op) {
  if (op->kind == LogicalOpKind::kWindowJoin ||
      op->kind == LogicalOpKind::kIntervalJoin) {
    // Complete match: event time becomes the maximum constituent
    // timestamp (§4.2.2); the final join keeps the sliding duplicates
    // the paper describes (§3.1.4).
    op->ts_mode = TimestampMode::kMax;
    op->dedup_pairs = false;
    return;
  }
  // Look through order-preserving unary wrappers.
  if (op->kind == LogicalOpKind::kReorder && !op->inputs.empty()) {
    MarkRootJoinComplete(op->inputs[0].get());
  }
}

}  // namespace

Result<LogicalPlan> Translator::ToLogicalPlan(const Pattern& pattern) const {
  CEP2ASP_RETURN_IF_ERROR(pattern.Validate());

  BuildContext ctx;
  ctx.pattern = &pattern;
  ctx.options = &options_;
  ctx.stats = &statistics_;
  ctx.window = pattern.window_size();
  ctx.slide = pattern.slide();

  if (options_.use_equi_join_keys || options_.auto_optimize) {
    ctx.key_plan = ExtractKeyPlan(pattern);
    if ((options_.use_equi_join_keys) && !ctx.key_plan.by_attr &&
        pattern.OutputArity() > 1) {
      CEP2ASP_LOG(Info) << "O3 requested but no connecting Equi-Join "
                           "predicates; falling back to a uniform key";
    }
  }

  // Pending cross-variable predicates, minus the equalities consumed by
  // key partitioning.
  std::set<size_t> consumed(ctx.key_plan.consumed_terms.begin(),
                            ctx.key_plan.consumed_terms.end());
  const auto& terms = pattern.cross_predicates().terms();
  for (size_t i = 0; i < terms.size(); ++i) {
    if (consumed.count(i) > 0) continue;
    ctx.pending.push_back(PendingTerm{terms[i], false});
  }

  int cursor = 0;
  auto root_result = BuildNode(&ctx, pattern.root(), &cursor);
  if (!root_result.ok()) return root_result.status();
  if (!ctx.dead_filter_error.empty()) {
    return Status::FailedPrecondition(ctx.dead_filter_error);
  }
  std::unique_ptr<LogicalOp> root = std::move(root_result).ValueOrDie();

  for (const PendingTerm& term : ctx.pending) {
    if (!term.attached) {
      return Status::Internal("cross predicate not attachable: " +
                              term.comparison.ToString());
    }
  }

  MarkRootJoinComplete(root.get());

  // Restore match-position order if reordering shuffled the output.
  bool shuffled = false;
  for (size_t i = 0; i < root->positions.size(); ++i) {
    if (root->positions[i] != static_cast<int>(i)) shuffled = true;
  }
  if (shuffled) {
    auto reorder = std::make_unique<LogicalOp>();
    reorder->kind = LogicalOpKind::kReorder;
    reorder->reorder_permutation.resize(root->positions.size());
    for (size_t i = 0; i < root->positions.size(); ++i) {
      reorder->reorder_permutation[static_cast<size_t>(root->positions[i])] =
          static_cast<int>(i);
    }
    reorder->positions.resize(root->positions.size());
    std::iota(reorder->positions.begin(), reorder->positions.end(), 0);
    reorder->inputs.push_back(std::move(root));
    root = std::move(reorder);
  }

  LogicalPlan plan;
  plan.root = std::move(root);
  plan.window_size = ctx.window;
  plan.slide = ctx.slide;
  plan.parallelism = std::max(1, options_.parallelism);
  plan.num_keys_hint = options_.num_keys_hint;
  plan.deduplicate_output = options_.deduplicate_output;
  (void)ctx.used_sliding_join;
  return plan;
}

// ---------------------------------------------------------------------------
// Physical compilation
// ---------------------------------------------------------------------------

namespace {

struct CompileContext {
  const SourceFactory* factory = nullptr;
  JobGraph* graph = nullptr;
  /// From LogicalPlan: subtask count for parallelizable stages and the
  /// declared key-domain size (lint metadata).
  int parallelism = 1;
  int64_t num_keys_hint = 0;
};

/// Expands a compiled stage to the requested parallelism when the logical
/// node is marked parallelizable; no-op for sequential plans.
Status ApplyParallelism(const LogicalOp& op, NodeId id, CompileContext* ctx) {
  if (ctx->parallelism <= 1 || !op.parallelizable) return Status::OK();
  CEP2ASP_RETURN_IF_ERROR(ctx->graph->SetParallelism(id, ctx->parallelism));
  if (ctx->num_keys_hint > 0) {
    CEP2ASP_RETURN_IF_ERROR(
        ctx->graph->SetKeyDomainHint(id, ctx->num_keys_hint));
  }
  return Status::OK();
}

/// Edge mode into a keyed stateful stage: hash-partitioned when the stage
/// runs parallel (each key's events must meet in one subtask), plain
/// forward otherwise. Key-assigning maps themselves take forward
/// (rebalance) input — their tuples carry no partition key yet.
PartitionMode KeyedInputMode(const LogicalOp& op, const CompileContext& ctx) {
  return (ctx.parallelism > 1 && op.parallelizable) ? PartitionMode::kHash
                                                    : PartitionMode::kForward;
}

/// The key program of a key-assigning logical node.
ExprProgram KeyProgramFor(const LogicalOp& op) {
  return op.kind == LogicalOpKind::kKeyByAttr
             ? ExprProgram::KeyByAttribute(0, op.key_attr)
             : ExprProgram::KeyByConstant(op.const_key);
}

Result<NodeId> CompileNode(const LogicalOp& op, CompileContext* ctx) {
  // Filter→key fusion: a key-assigning node directly over a filter
  // compiles both into one bytecode program running as a single operator
  // — the whole stateless prefix of an O3 plan becomes one tight loop.
  if ((op.kind == LogicalOpKind::kKeyByAttr ||
       op.kind == LogicalOpKind::kKeyByConst) &&
      op.inputs.size() == 1 &&
      op.inputs[0]->kind == LogicalOpKind::kFilter) {
    const LogicalOp& filter = *op.inputs[0];
    CEP2ASP_ASSIGN_OR_RETURN(NodeId in, CompileNode(*filter.inputs[0], ctx));
    NodeId id = ctx->graph->AddOperator(
        std::make_unique<CompiledStatelessOperator>(
            ExprProgram::Fuse(ExprProgram::Filter(
                                  filter.predicate,
                                  ExprProgram::VarMode::kBroadcast),
                              KeyProgramFor(op)),
            "filter+key"));
    CEP2ASP_RETURN_IF_ERROR(ctx->graph->Connect(in, id, 0));
    CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
    return id;
  }

  std::vector<NodeId> inputs;
  inputs.reserve(op.inputs.size());
  for (const auto& input : op.inputs) {
    CEP2ASP_ASSIGN_OR_RETURN(NodeId id, CompileNode(*input, ctx));
    inputs.push_back(id);
  }
  const SourceFactory& factory = *ctx->factory;
  JobGraph* graph = ctx->graph;

  switch (op.kind) {
    case LogicalOpKind::kScan: {
      std::unique_ptr<Source> source = factory(op.scan_type);
      if (source == nullptr) {
        return Status::NotFound("no source for event type " +
                                EventTypeRegistry::Global()->Name(op.scan_type));
      }
      return graph->AddSource(std::move(source), op.scan_type);
    }
    case LogicalOpKind::kFilter: {
      NodeId id = graph->AddOperator(std::make_unique<CompiledStatelessOperator>(
          ExprProgram::Filter(op.predicate, ExprProgram::VarMode::kBroadcast),
          "filter"));
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[0], id, 0));
      return id;
    }
    case LogicalOpKind::kKeyByAttr:
    case LogicalOpKind::kKeyByConst: {
      NodeId id = graph->AddOperator(std::make_unique<CompiledStatelessOperator>(
          KeyProgramFor(op), op.kind == LogicalOpKind::kKeyByAttr
                                 ? "map(key:=attr)"
                                 : "map(key:=const)"));
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[0], id, 0));
      if (op.kind == LogicalOpKind::kKeyByAttr) {
        CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
      }
      return id;
    }
    case LogicalOpKind::kUnion: {
      NodeId id = graph->AddOperator(
          std::make_unique<UnionOperator>(static_cast<int>(inputs.size())));
      for (size_t i = 0; i < inputs.size(); ++i) {
        CEP2ASP_RETURN_IF_ERROR(
            graph->Connect(inputs[i], id, static_cast<int>(i)));
      }
      return id;
    }
    case LogicalOpKind::kWindowJoin: {
      NodeId id = graph->AddOperator(std::make_unique<SlidingWindowJoinOperator>(
          op.window, op.predicate, op.ts_mode,
          op.dedup_pairs ? "win-join(dedup)" : "win-join", op.dedup_pairs,
          op.order_bound_slot));
      const PartitionMode mode = KeyedInputMode(op, *ctx);
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[0], id, 0, mode));
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[1], id, 1, mode));
      CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
      return id;
    }
    case LogicalOpKind::kIntervalJoin: {
      NodeId id = graph->AddOperator(std::make_unique<IntervalJoinOperator>(
          op.interval, op.predicate, op.ts_mode));
      const PartitionMode mode = KeyedInputMode(op, *ctx);
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[0], id, 0, mode));
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[1], id, 1, mode));
      CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
      return id;
    }
    case LogicalOpKind::kAggregate: {
      NodeId id = graph->AddOperator(std::make_unique<WindowAggregateOperator>(
          op.window, op.aggregate_fn, op.aggregate_attr, op.min_count));
      CEP2ASP_RETURN_IF_ERROR(
          graph->Connect(inputs[0], id, 0, KeyedInputMode(op, *ctx)));
      CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
      return id;
    }
    case LogicalOpKind::kIterChainApply: {
      const ConsecutiveConstraint constraint = *op.chain_constraint;
      const int64_t min_count = op.min_count;
      auto chain_fn = [constraint, min_count](
                          int64_t key, Timestamp, Timestamp,
                          const std::vector<SimpleEvent>& events,
                          Collector* out) {
        // Longest chain (by ts order) whose consecutive members satisfy
        // the constraint; fires when it reaches the iteration length.
        std::vector<int> best(events.size(), 1);
        int longest = events.empty() ? 0 : 1;
        for (size_t i = 1; i < events.size(); ++i) {
          for (size_t j = 0; j < i; ++j) {
            if (events[j].ts < events[i].ts &&
                EvalCmp(GetAttribute(events[j], constraint.attr), constraint.op,
                        GetAttribute(events[i], constraint.attr))) {
              best[i] = std::max(best[i], best[j] + 1);
            }
          }
          longest = std::max(longest, best[i]);
        }
        if (longest >= min_count) {
          SimpleEvent agg = events.back();
          agg.value = static_cast<double>(longest);
          Tuple tuple(agg);
          tuple.set_key(key);
          out->Emit(std::move(tuple));
        }
      };
      NodeId id = graph->AddOperator(std::make_unique<WindowApplyOperator>(
          op.window, chain_fn, "iter-chain"));
      CEP2ASP_RETURN_IF_ERROR(
          graph->Connect(inputs[0], id, 0, KeyedInputMode(op, *ctx)));
      CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
      return id;
    }
    case LogicalOpKind::kNseqMark: {
      NodeId id = graph->AddOperator(std::make_unique<NseqMarkOperator>(
          op.nseq_positive, op.nseq_negated, op.nseq_window));
      CEP2ASP_RETURN_IF_ERROR(
          graph->Connect(inputs[0], id, 0, KeyedInputMode(op, *ctx)));
      CEP2ASP_RETURN_IF_ERROR(ApplyParallelism(op, id, ctx));
      return id;
    }
    case LogicalOpKind::kReorder: {
      std::vector<int> permutation = op.reorder_permutation;
      auto fn = [permutation](Tuple t) {
        Tuple out;
        for (int idx : permutation) {
          out.AppendEvent(t.event(static_cast<size_t>(idx)));
        }
        out.set_key(t.key());
        out.set_event_time(t.event_time());
        return out;
      };
      NodeId id = graph->AddOperator(
          std::make_unique<MapOperator>(fn, "reorder"));
      CEP2ASP_RETURN_IF_ERROR(graph->Connect(inputs[0], id, 0));
      return id;
    }
  }
  return Status::Internal("unknown logical op kind");
}

/// Chain-friendly parallelism alignment: a stateless, cloneable operator
/// whose single forward out-edge is the only input of a wider parallel
/// consumer is widened to that consumer's parallelism. Without this, the
/// pre-key stages (filter -> key-assigning map) stay at parallelism 1 and
/// every parallel plan pays a rebalance exchange in front of each keyed
/// stage; with it, the whole stateless prefix fuses into the parallel
/// chain (see ComputeChainLayout). Iterates to a fixpoint so prefixes of
/// any length widen together. Results are unaffected: the rebalance this
/// removes was already spreading tuples over subtasks arbitrarily, and
/// key-based routing only starts at the hash edges downstream.
void AlignStatelessPrefixParallelism(JobGraph* graph) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < graph->num_nodes(); ++id) {
      const JobGraph::Node& node = graph->node(id);
      if (node.is_source() || node.outputs.size() != 1) continue;
      const JobGraph::Edge& edge = node.outputs[0];
      if (edge.partition != PartitionMode::kForward) continue;
      if (graph->fan_in(edge.to) != 1) continue;
      const int consumer_parallelism = graph->parallelism(edge.to);
      if (node.parallelism >= consumer_parallelism) continue;
      if (node.op->Traits().stateful) continue;
      if (node.op->CloneForSubtask() == nullptr) continue;
      CEP2ASP_CHECK_OK(graph->SetParallelism(id, consumer_parallelism));
      changed = true;
    }
  }
}

/// Final gate before handing out a runnable graph: the empty-catalog range
/// pass costs one topological sweep and still proves self-contradictory
/// filters dead (E318) and malformed bytecode (E321) without any declared
/// source ranges. Plans carrying such errors are refused here rather than
/// left to match nothing at runtime.
Status RefuseDeadPlans(const JobGraph& graph) {
  const RangeAnalysis ranges = AnalyzeRanges(graph, SourceRangeCatalog{});
  return ranges.report.ToStatus();
}

}  // namespace

Result<CompiledQuery> CompilePlan(const LogicalPlan& plan,
                                  const SourceFactory& source_factory,
                                  bool store_matches, Clock* clock) {
  if (!plan.root) return Status::InvalidArgument("empty logical plan");
  CompiledQuery query;
  CompileContext ctx;
  ctx.factory = &source_factory;
  ctx.graph = &query.graph;
  ctx.parallelism = plan.parallelism;
  ctx.num_keys_hint = plan.num_keys_hint;
  CEP2ASP_ASSIGN_OR_RETURN(NodeId last, CompileNode(*plan.root, &ctx));
  if (plan.deduplicate_output) {
    last = query.graph.AddOperatorAfter(
        last, std::make_unique<DedupOperator>(2 * plan.window_size));
  }
  auto sink = std::make_unique<CollectSink>(store_matches, clock);
  query.sink = sink.get();
  query.graph.AddOperatorAfter(last, std::move(sink));
  if (plan.parallelism > 1) AlignStatelessPrefixParallelism(&query.graph);
  CEP2ASP_RETURN_IF_ERROR(query.graph.Validate());
  CEP2ASP_RETURN_IF_ERROR(RefuseDeadPlans(query.graph));
  return query;
}

Result<CompiledQuery> TranslatePattern(const Pattern& pattern,
                                       const TranslatorOptions& options,
                                       const SourceFactory& source_factory,
                                       bool store_matches, Clock* clock) {
  Translator translator(options);
  CEP2ASP_ASSIGN_OR_RETURN(LogicalPlan plan, translator.ToLogicalPlan(pattern));
  return CompilePlan(plan, source_factory, store_matches, clock);
}

// ---------------------------------------------------------------------------
// FCEP baseline job
// ---------------------------------------------------------------------------

namespace {

void CollectTypes(const PatternNode& node, std::set<EventTypeId>* types) {
  switch (node.op) {
    case PatternOp::kAtom:
    case PatternOp::kIter:
      types->insert(node.atom.type);
      break;
    case PatternOp::kNseq:
      for (const PatternAtom& atom : node.nseq_atoms) types->insert(atom.type);
      break;
    case PatternOp::kSeq:
    case PatternOp::kAnd:
    case PatternOp::kOr:
      for (const auto& child : node.children) CollectTypes(*child, types);
      break;
  }
}

}  // namespace

Result<CompiledQuery> BuildCepJob(const Pattern& pattern,
                                  const SourceFactory& source_factory,
                                  const CepJobOptions& options) {
  CEP2ASP_RETURN_IF_ERROR(pattern.Validate());
  CepOperatorOptions cep_options;
  cep_options.policy = options.policy;
  cep_options.keyed = options.keyed;
  CEP2ASP_ASSIGN_OR_RETURN(std::unique_ptr<CepOperator> cep,
                           CepOperator::FromPattern(pattern, cep_options));

  CompiledQuery query;
  std::set<EventTypeId> types;
  CollectTypes(pattern.root(), &types);

  // The unary CEP operator applies to a single stream: union all inputs
  // first (§5.1.2).
  std::vector<NodeId> sources;
  for (EventTypeId type : types) {
    std::unique_ptr<Source> source = source_factory(type);
    if (source == nullptr) {
      return Status::NotFound("no source for event type " +
                              EventTypeRegistry::Global()->Name(type));
    }
    sources.push_back(query.graph.AddSource(std::move(source)));
  }
  NodeId upstream;
  if (sources.size() == 1) {
    upstream = sources[0];
  } else {
    upstream = query.graph.AddOperator(
        std::make_unique<UnionOperator>(static_cast<int>(sources.size())));
    for (size_t i = 0; i < sources.size(); ++i) {
      CEP2ASP_RETURN_IF_ERROR(
          query.graph.Connect(sources[i], upstream, static_cast<int>(i)));
    }
  }

  if (options.keyed) {
    KeyPlan key_plan = ExtractKeyPlan(pattern);
    if (key_plan.by_attr) {
      NodeId key_id = query.graph.AddOperator(
          MapOperator::KeyByAttribute(0, key_plan.attr));
      CEP2ASP_RETURN_IF_ERROR(query.graph.Connect(upstream, key_id, 0));
      upstream = key_id;
    }
  }

  NodeId cep_id = query.graph.AddOperator(std::move(cep));
  CEP2ASP_RETURN_IF_ERROR(query.graph.Connect(upstream, cep_id, 0));
  auto sink = std::make_unique<CollectSink>(options.store_matches, options.clock);
  query.sink = sink.get();
  NodeId sink_id = query.graph.AddOperator(std::move(sink));
  CEP2ASP_RETURN_IF_ERROR(query.graph.Connect(cep_id, sink_id, 0));
  CEP2ASP_RETURN_IF_ERROR(query.graph.Validate());
  return query;
}

}  // namespace cep2asp
