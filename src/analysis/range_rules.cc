#include "analysis/range_rules.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "event/expr_program.h"
#include "event/expr_verifier.h"
#include "event/predicate.h"

namespace cep2asp {
namespace {

std::string NodeLabel(const JobGraph& graph, NodeId id) {
  const JobGraph::Node& node = graph.node(id);
  const std::string name =
      node.is_source() ? node.source->name() : node.op->name();
  return "node " + std::to_string(id) + " (" + name + ")";
}

/// Distinct integral values inside a finite interval; 0 when unbounded,
/// empty, or implausibly large (no useful hint).
int64_t IntegralDomain(const Interval& iv) {
  if (iv.IsEmpty()) return 0;
  if (!std::isfinite(iv.lo) || !std::isfinite(iv.hi)) return 0;
  const double lo = std::ceil(iv.lo);
  const double hi = std::floor(iv.hi);
  if (lo > hi) return 0;
  const double count = hi - lo + 1.0;
  if (count > 9.0e15) return 0;
  return static_cast<int64_t>(count);
}

/// Truth of one term (lhs cmp rhs) with relational special-casing: when
/// both sides read the *same* attribute of the *same* event slot with no
/// offset, the comparison is decided by reflexivity, which plain interval
/// reasoning cannot see (x <= x holds even when the interval is wide).
Truth TermTruth(const Interval& lhs, CmpOp op, const Interval& rhs,
                bool same_cell, double offset) {
  if (same_cell && offset == 0.0) {
    switch (op) {
      case CmpOp::kLe:
      case CmpOp::kGe:
      case CmpOp::kEq:
        return Truth::kAlways;  // x op x (declared ranges are NaN-free)
      case CmpOp::kLt:
      case CmpOp::kGt:
      case CmpOp::kNe:
        return Truth::kNever;
      }
  }
  return EvalCmpTruth(lhs, op, rhs);
}

/// Mutable per-node abstract state while the pass runs.
struct Cursor {
  NodeRangeFacts* facts;
  bool any_never = false;
  bool all_always = true;
  int terms = 0;

  Interval& Slot(size_t event, Attribute attr) {
    return (*facts).slots[event][attr];
  }

  bool ValidSlot(int event, int attr) const {
    return event >= 0 && static_cast<size_t>(event) < facts->slots.size() &&
           attr >= 0 && attr <= static_cast<int>(Attribute::kAuxTs);
  }

  /// Applies one conjunction term: records its truth and narrows both
  /// sides to the values that can pass (true-branch transfer function).
  void ApplyTerm(int lvar, Attribute lattr, CmpOp op, bool rhs_is_attr,
                 int rvar, Attribute rattr, double rhs_const,
                 double rhs_offset) {
    ++terms;
    if (!ValidSlot(lvar, static_cast<int>(lattr))) {
      all_always = false;
      return;
    }
    Interval& lhs = Slot(static_cast<size_t>(lvar), lattr);
    if (!rhs_is_attr) {
      const Interval rhs = Interval::Point(rhs_const);
      const double bound = SelectivityBound(lhs, op, rhs_const);
      selectivity = selectivity < 0 ? bound : std::min(selectivity, bound);
      const Truth t = TermTruth(lhs, op, rhs, false, 0.0);
      if (t == Truth::kNever) any_never = true;
      if (t != Truth::kAlways) all_always = false;
      lhs = RefineLhs(lhs, op, rhs);
      return;
    }
    if (!ValidSlot(rvar, static_cast<int>(rattr))) {
      all_always = false;
      return;
    }
    Interval& rhs = Slot(static_cast<size_t>(rvar), rattr);
    const bool same_cell = lvar == rvar && lattr == rattr;
    const Interval shifted = rhs.Plus(rhs_offset);
    const Truth t = TermTruth(lhs, op, shifted, same_cell, rhs_offset);
    if (t == Truth::kNever) any_never = true;
    if (t != Truth::kAlways) all_always = false;
    if (t == Truth::kNever) {
      selectivity = 0.0;
    } else if (t == Truth::kAlways && selectivity < 0) {
      selectivity = 1.0;
    }
    if (!same_cell) {
      const Interval new_lhs = RefineLhs(lhs, op, shifted);
      const Interval new_rhs = RefineRhs(lhs, op, shifted).Plus(-rhs_offset);
      lhs = new_lhs;
      rhs = new_rhs;
    }
  }

  double selectivity = -1.0;
};

/// Interprets a compiled program over the abstract state, one term
/// instruction at a time.
void InterpretProgram(const ExprProgram& program, Cursor* cur) {
  for (const ExprInsn& insn : program.code()) {
    switch (insn.op) {
      case ExprOp::kCmpAttrConstFail:
        cur->ApplyTerm(insn.a, static_cast<Attribute>(insn.b),
                       static_cast<CmpOp>(insn.c), /*rhs_is_attr=*/false, 0,
                       Attribute::kValue, program.const_pool()[insn.imm], 0.0);
        break;
      case ExprOp::kCmpAttrAttrFail:
        cur->ApplyTerm(insn.a, static_cast<Attribute>(insn.b),
                       static_cast<CmpOp>(insn.c), /*rhs_is_attr=*/true,
                       insn.d, static_cast<Attribute>(insn.e), 0.0, 0.0);
        break;
      case ExprOp::kCmpAttrAttrOffFail:
        cur->ApplyTerm(insn.a, static_cast<Attribute>(insn.b),
                       static_cast<CmpOp>(insn.c), /*rhs_is_attr=*/true,
                       insn.d, static_cast<Attribute>(insn.e), 0.0,
                       program.const_pool()[insn.imm]);
        break;
      case ExprOp::kStoreKeyAttr:
        if (cur->ValidSlot(insn.a, insn.b)) {
          cur->facts->key =
              cur->Slot(insn.a, static_cast<Attribute>(insn.b));
        } else {
          cur->facts->key = Interval::All();
        }
        break;
      case ExprOp::kStoreKeyConst:
        cur->facts->key = Interval::Point(
            static_cast<double>(program.key_pool()[insn.imm]));
        break;
      case ExprOp::kHalt:
        return;
    }
  }
}

void ApplyPredicate(const Predicate& pred, bool broadcast, Cursor* cur) {
  for (const Comparison& term : pred.terms()) {
    const int lvar = broadcast ? 0 : term.lhs.var;
    const int rvar = broadcast ? 0 : term.rhs_attr.var;
    cur->ApplyTerm(lvar, term.lhs.attr, term.op, term.rhs_is_attr, rvar,
                   term.rhs_attr.attr, term.rhs_const, term.rhs_offset);
  }
}

EventRanges SeedRanges(const SourceRangeCatalog& catalog, EventTypeId type) {
  if (type != kInvalidEventType) {
    if (const EventRanges* declared = catalog.Find(type)) return *declared;
  }
  return EventRanges{};  // Top in every slot
}

}  // namespace

Truth PredicateTruthOnEvent(const Predicate& pred, const EventRanges& ranges) {
  NodeRangeFacts facts;
  facts.slots.push_back(ranges);
  Cursor cur;
  cur.facts = &facts;
  ApplyPredicate(pred, /*broadcast=*/true, &cur);
  if (cur.any_never) return Truth::kNever;
  if (cur.terms > 0 && cur.all_always) return Truth::kAlways;
  return Truth::kSometimes;
}

RangeAnalysis AnalyzeRanges(const JobGraph& graph,
                            const SourceRangeCatalog& catalog) {
  RangeAnalysis out;
  out.nodes.resize(static_cast<size_t>(graph.num_nodes()));
  const std::vector<NodeId> topo = graph.TopologicalOrder();
  if (static_cast<int>(topo.size()) != graph.num_nodes()) {
    // Cyclic graph: AnalyzeJobGraph reports E303; no range claims here.
    return out;
  }

  // Producer of each (node, input port); -1 when unfed / multiply fed
  // (those are E301/E302 territory — no claims).
  std::vector<std::vector<NodeId>> producer(
      static_cast<size_t>(graph.num_nodes()));
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const JobGraph::Node& node = graph.node(id);
    const int ports = node.is_source() ? 0 : node.op->num_inputs();
    producer[static_cast<size_t>(id)].assign(
        static_cast<size_t>(std::max(ports, 0)), -1);
  }
  for (NodeId from = 0; from < graph.num_nodes(); ++from) {
    for (const JobGraph::Edge& edge : graph.node(from).outputs) {
      auto& ports = producer[static_cast<size_t>(edge.to)];
      const size_t port = static_cast<size_t>(edge.input_port);
      if (port < ports.size()) {
        ports[port] = ports[port] == -1 ? from : -2;  // -2: multiply fed
      }
    }
  }

  for (NodeId id : topo) {
    const JobGraph::Node& node = graph.node(id);
    NodeRangeFacts& facts = out.nodes[static_cast<size_t>(id)];

    if (node.is_source()) {
      facts.computed = true;
      facts.slots.push_back(SeedRanges(catalog, node.source_type));
      // Tuple(event) keys by the raw event id.
      facts.key = facts.slots[0][Attribute::kId];
      facts.derived_key_domain = IntegralDomain(facts.key);
      continue;
    }

    const OperatorTraits traits = node.op->Traits();

    // Gather inputs; any unfed/multiply-fed/uncomputed port → no claims.
    std::vector<const NodeRangeFacts*> inputs;
    bool inputs_ok = true;
    bool all_dead = !producer[static_cast<size_t>(id)].empty();
    for (NodeId from : producer[static_cast<size_t>(id)]) {
      if (from < 0) {
        inputs_ok = false;
        all_dead = false;
        break;
      }
      const NodeRangeFacts& in = out.nodes[static_cast<size_t>(from)];
      if (!in.computed) inputs_ok = false;
      if (!in.dead) all_dead = false;
      inputs.push_back(&in);
    }
    if (all_dead && inputs_ok) {
      facts.dead = true;  // no input can ever arrive
    }
    if (!inputs_ok || inputs.empty()) continue;

    // Verify any compiled program before trusting its encoding.
    if (traits.program != nullptr) {
      const size_t capacity = std::max<size_t>(
          traits.expr_capacity, inputs[0]->slots.empty()
                                    ? 1
                                    : inputs[0]->slots.size());
      const Status verdict = ExprVerifier::Verify(*traits.program, capacity);
      if (!verdict.ok()) {
        out.report.Add(DiagnosticCode::kGraphExprVerifyFailed,
                       NodeLabel(graph, id), verdict.message());
        continue;
      }
    }

    Cursor cur;
    cur.facts = &facts;

    if (traits.program != nullptr) {
      // Compiled stateless stage (possibly fused filter→key).
      facts.slots = inputs[0]->slots;
      facts.key = inputs[0]->key;
      facts.computed = true;
      InterpretProgram(*traits.program, &cur);
    } else if (traits.predicate != nullptr && !traits.stateful) {
      // Interpreted filter.
      facts.slots = inputs[0]->slots;
      facts.key = inputs[0]->key;
      facts.computed = true;
      ApplyPredicate(*traits.predicate, traits.predicate_broadcast, &cur);
    } else if (traits.predicate != nullptr && traits.stateful &&
               node.op->num_inputs() == 2 && inputs.size() == 2) {
      // Join: condition addresses the concatenated tuple positionally.
      facts.slots = inputs[0]->slots;
      facts.slots.insert(facts.slots.end(), inputs[1]->slots.begin(),
                         inputs[1]->slots.end());
      facts.key = inputs[0]->key;  // Concat keeps the left key
      facts.computed = true;
      ApplyPredicate(*traits.predicate, /*broadcast=*/false, &cur);
    } else if (traits.assigns_key &&
               (traits.key_is_constant || traits.key_source_event >= 0)) {
      // Factory key map: tuples pass through, only the key changes.
      facts.slots = inputs[0]->slots;
      facts.computed = true;
      if (traits.key_is_constant) {
        facts.key = Interval::Point(static_cast<double>(traits.key_constant));
      } else if (static_cast<size_t>(traits.key_source_event) <
                 facts.slots.size()) {
        facts.key = facts.slots[static_cast<size_t>(traits.key_source_event)]
                               [traits.key_source_attr];
      }
    } else if (node.op->num_inputs() > 1 && !traits.stateful &&
               static_cast<size_t>(node.op->num_inputs()) == inputs.size()) {
      // Union: the convex hull of all inputs, the lattice join at the
      // merge point (must share arity; mismatches are E211 territory).
      bool arity_ok = true;
      for (const NodeRangeFacts* in : inputs) {
        if (in->slots.size() != inputs[0]->slots.size()) arity_ok = false;
      }
      if (arity_ok) {
        facts.slots = inputs[0]->slots;
        facts.key = inputs[0]->key;
        for (size_t i = 1; i < inputs.size(); ++i) {
          for (size_t s = 0; s < facts.slots.size(); ++s) {
            for (size_t a = 0; a < 6; ++a) {
              facts.slots[s].attrs[a] =
                  facts.slots[s].attrs[a].Hull(inputs[i]->slots[s].attrs[a]);
            }
          }
          facts.key = facts.key.Hull(inputs[i]->key);
        }
        facts.computed = true;
      }
    } else if (traits.is_sink) {
      facts.slots = inputs[0]->slots;
      facts.key = inputs[0]->key;
      facts.computed = true;
    }
    // Everything else (aggregates, NSEQ marking, opaque lambdas) makes no
    // claims: computed stays false, downstream inherits Top.

    // Deadness is a claim in its own right: an opaque operator fed only by
    // dead inputs is still provably dead.
    if (facts.dead) facts.computed = true;
    if (!facts.computed) continue;

    facts.selectivity = cur.selectivity;
    facts.derived_key_domain = IntegralDomain(facts.key);

    if (cur.any_never && !facts.dead) {
      facts.dead = true;
      out.report.Add(DiagnosticCode::kGraphFilterAlwaysFalse,
                     NodeLabel(graph, id),
                     "predicate can never hold for the declared input "
                     "ranges; this node and everything downstream of it "
                     "are dead");
    } else if (cur.terms > 0 && cur.all_always && traits.program == nullptr &&
               traits.predicate != nullptr && !traits.stateful &&
               !traits.assigns_key) {
      out.report.Add(DiagnosticCode::kGraphFilterAlwaysTrue,
                     NodeLabel(graph, id),
                     "predicate holds for every tuple the declared input "
                     "ranges admit; the filter is removable");
    } else if (cur.terms > 0 && cur.all_always && traits.program != nullptr &&
               !traits.program->assigns_key()) {
      out.report.Add(DiagnosticCode::kGraphFilterAlwaysTrue,
                     NodeLabel(graph, id),
                     "compiled filter passes every tuple the declared input "
                     "ranges admit; the operator is removable");
    }
    if (facts.dead) {
      facts.selectivity = 0.0;
      for (EventRanges& slot : facts.slots) {
        for (Interval& iv : slot.attrs) iv = Interval::Empty();
      }
    }

    // Derived key-domain check: the W313 heuristic upgraded to a proven
    // bound (only when no hint was declared — the declared-hint case is
    // CheckParallelism's).
    if (traits.keyed && traits.stateful && node.key_domain_hint == 0 &&
        !facts.dead) {
      // The key the state is partitioned by is the *input* key.
      const int64_t domain = inputs[0]->derived_key_domain;
      if (domain > 0 && node.parallelism > domain) {
        out.report.Add(
            DiagnosticCode::kGraphParallelismExceedsKeys,
            NodeLabel(graph, id),
            "parallelism " + std::to_string(node.parallelism) +
                " exceeds the derived key domain of " +
                std::to_string(domain) +
                " distinct keys (range analysis); excess subtasks can "
                "never receive tuples");
      }
    }
  }
  return out;
}

std::string RangeAnalysis::ToString(const JobGraph& graph) const {
  std::string out;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const NodeRangeFacts& facts = nodes[static_cast<size_t>(id)];
    out += NodeLabel(graph, id) + ": ";
    if (!facts.computed) {
      out += "no derived facts\n";
      continue;
    }
    if (facts.dead) {
      out += "DEAD (no tuple can reach or pass this node)\n";
      continue;
    }
    bool first = true;
    for (size_t s = 0; s < facts.slots.size(); ++s) {
      for (size_t a = 0; a < 6; ++a) {
        const Interval& iv = facts.slots[s].attrs[a];
        if (iv.IsAll()) continue;
        if (!first) out += ", ";
        first = false;
        out += 'e';
        out += std::to_string(s);
        out += '.';
        out += AttributeName(static_cast<Attribute>(a));
        out += ' ';
        out += iv.ToString();
      }
    }
    if (!facts.key.IsAll()) {
      if (!first) out += ", ";
      first = false;
      out += "key " + facts.key.ToString();
      if (facts.derived_key_domain > 0) {
        out += " (" + std::to_string(facts.derived_key_domain) + " keys)";
      }
    }
    if (facts.selectivity >= 0.0) {
      if (!first) out += ", ";
      first = false;
      out += "selectivity <= " + FormatDouble(facts.selectivity);
    }
    if (first) out += "all attributes unbounded";
    out += "\n";
  }
  return out;
}

DiagnosticReport DescribeRanges(const JobGraph& graph,
                                const RangeAnalysis& analysis) {
  DiagnosticReport report;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const NodeRangeFacts& facts = analysis.nodes[static_cast<size_t>(id)];
    if (!facts.computed) continue;
    std::string msg;
    if (facts.dead) {
      msg = "dead: no tuple can reach or pass this node";
    } else {
      msg = "key " + facts.key.ToString();
      if (facts.derived_key_domain > 0) {
        msg += " (" + std::to_string(facts.derived_key_domain) + " keys)";
      }
      if (facts.selectivity >= 0.0) {
        msg += ", selectivity <= " + FormatDouble(facts.selectivity);
      }
      if (!facts.slots.empty()) {
        const Interval& value = facts.slots[0][Attribute::kValue];
        if (!value.IsAll()) msg += ", e0.value " + value.ToString();
      }
    }
    report.Add(DiagnosticCode::kGraphRangeReport, NodeLabel(graph, id),
               std::move(msg));
  }
  return report;
}

void AttachRangeFacts(JobGraph* graph, const RangeAnalysis& analysis) {
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    const NodeRangeFacts& facts = analysis.nodes[static_cast<size_t>(id)];
    if (!facts.computed) continue;
    JobGraph::Node& node = graph->mutable_node(id);
    if (node.op != nullptr && facts.selectivity >= 0.0) {
      node.op->AttachSelectivityBound(facts.selectivity);
    }
    if (node.op != nullptr && node.key_domain_hint == 0 &&
        facts.derived_key_domain > 0) {
      (void)graph->SetKeyDomainHint(id, facts.derived_key_domain);
    }
  }
}

}  // namespace cep2asp
