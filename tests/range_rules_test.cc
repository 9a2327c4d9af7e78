// Tests for the interval range pass (analysis/range_rules): predicate
// truth under declared ranges, E318/W319 emission through AnalyzeQuery
// (positive AND negative per the diagnostics convention), translator
// consumption (always-true leaf filters dropped, always-false plans
// refused with CEP2ASP-E318), the I320 range report, fact attachment,
// and the soundness property that derived intervals contain every value
// observed on randomly generated streams.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/range_rules.h"
#include "asp/stateless.h"
#include "common/clock.h"
#include "runtime/sink.h"
#include "runtime/vector_source.h"
#include "sea/pattern.h"
#include "translator/translator.h"
#include "workload/generator.h"
#include "workload/presets.h"

namespace cep2asp {
namespace {

Predicate ValuePred(CmpOp op, double threshold) {
  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, op, threshold));
  return pred;
}

EventRanges RangesWithValue(double lo, double hi) {
  EventRanges ranges;
  ranges[Attribute::kValue] = Interval::Range(lo, hi);
  return ranges;
}

Result<Pattern> SeqQV(const Predicate& q_filter,
                      const Predicate& v_filter = Predicate()) {
  const SensorTypes types = SensorTypes::Get();
  PatternBuilder builder;
  builder.Seq(PatternBuilder::Atom(types.q, "q1", q_filter),
              PatternBuilder::Atom(types.v, "v1", v_filter));
  return builder.Within(15 * kMillisPerMinute).Build();
}

// --- PredicateTruthOnEvent ------------------------------------------------

TEST(PredicateTruthTest, DecidesAgainstDeclaredRanges) {
  const EventRanges declared = RangesWithValue(0.0, 100.0);
  EXPECT_EQ(PredicateTruthOnEvent(ValuePred(CmpOp::kGe, -10.0), declared),
            Truth::kAlways);
  EXPECT_EQ(PredicateTruthOnEvent(ValuePred(CmpOp::kGt, 200.0), declared),
            Truth::kNever);
  EXPECT_EQ(PredicateTruthOnEvent(ValuePred(CmpOp::kGt, 50.0), declared),
            Truth::kSometimes);
}

TEST(PredicateTruthTest, SelfContradictionNeedsNoDeclaredRanges) {
  // Terms refine left to right: value < 10 narrows the slot, value > 20
  // then evaluates kNever even though nothing was declared (Top ranges).
  Predicate contradiction;
  contradiction.Add(
      Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 10.0));
  contradiction.Add(
      Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kGt, 20.0));
  EXPECT_EQ(PredicateTruthOnEvent(contradiction, EventRanges{}),
            Truth::kNever);

  // The empty conjunction makes no claim either way.
  EXPECT_EQ(PredicateTruthOnEvent(Predicate(), EventRanges{}),
            Truth::kSometimes);
}

// --- E318 / W319 through AnalyzeQuery (positive + negative) ---------------

TEST(RangeRulesTest, AlwaysFalseFilterEmitsE318) {
  const SensorTypes types = SensorTypes::Get();
  SourceRangeCatalog catalog;
  catalog.Declare(types.q, RangesWithValue(0.0, 100.0));
  catalog.Declare(types.v, RangesWithValue(0.0, 100.0));

  auto query = SeqQV(ValuePred(CmpOp::kGt, 200.0));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto analysis = AnalyzeQuery(query.ValueOrDie(), {}, catalog);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_TRUE(analysis.ValueOrDie().graph_report.Has(
      DiagnosticCode::kGraphFilterAlwaysFalse))
      << analysis.ValueOrDie().graph_report.ToString();
}

TEST(RangeRulesTest, AlwaysTrueFilterEmitsW319) {
  const SensorTypes types = SensorTypes::Get();
  SourceRangeCatalog catalog;
  catalog.Declare(types.q, RangesWithValue(0.0, 100.0));
  catalog.Declare(types.v, RangesWithValue(0.0, 100.0));

  // Satisfiable under Top (so the statistics-free translator keeps it),
  // vacuous under the declared [0, 100] range. A standalone filter node
  // is removable, so W319 fires on it.
  const Predicate vacuous = ValuePred(CmpOp::kGe, -10.0);
  JobGraph graph;
  const NodeId source = graph.AddSource(
      std::make_unique<VectorSource>("q", std::vector<SimpleEvent>{}),
      types.q);
  const NodeId filter =
      graph.AddOperatorAfter(source, FilterOperator::FromPredicate(vacuous));
  graph.AddOperatorAfter(filter, std::make_unique<CollectSink>(false));
  const RangeAnalysis ranges = AnalyzeRanges(graph, catalog);
  EXPECT_TRUE(ranges.report.Has(DiagnosticCode::kGraphFilterAlwaysTrue))
      << ranges.report.ToString();

  // The translator fuses the same filter with the key-assigning map, and
  // a key-assigning operator is not removable, so W319 is (correctly)
  // suppressed there.
  auto query = SeqQV(vacuous);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto fused = AnalyzeQuery(query.ValueOrDie(), {}, catalog);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused.ValueOrDie().graph_report.error_count(), 0)
      << fused.ValueOrDie().graph_report.ToString();
  EXPECT_FALSE(fused.ValueOrDie().graph_report.Has(
      DiagnosticCode::kGraphFilterAlwaysTrue))
      << fused.ValueOrDie().graph_report.ToString();
}

TEST(RangeRulesTest, SatisfiableFilterStaysSilent) {
  const SensorTypes types = SensorTypes::Get();
  SourceRangeCatalog catalog;
  catalog.Declare(types.q, RangesWithValue(0.0, 100.0));
  catalog.Declare(types.v, RangesWithValue(0.0, 100.0));

  auto query = SeqQV(ValuePred(CmpOp::kGe, 50.0),
                     ValuePred(CmpOp::kLe, 10.0));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto analysis = AnalyzeQuery(query.ValueOrDie(), {}, catalog);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const DiagnosticReport& report = analysis.ValueOrDie().graph_report;
  EXPECT_FALSE(report.Has(DiagnosticCode::kGraphFilterAlwaysFalse))
      << report.ToString();
  EXPECT_FALSE(report.Has(DiagnosticCode::kGraphFilterAlwaysTrue))
      << report.ToString();
}

// --- Translator consumption ----------------------------------------------

TEST(RangeRulesTest, TranslatorDropsAlwaysTrueLeafFilter) {
  const SensorTypes types = SensorTypes::Get();
  auto query = SeqQV(ValuePred(CmpOp::kGe, -10.0));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // Without declared ranges the filter is kept...
  Translator plain;
  auto kept = plain.ToLogicalPlan(query.ValueOrDie());
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept.ValueOrDie().root->CountKind(LogicalOpKind::kFilter), 1);

  // ...with them it is provably vacuous and dropped from the plan.
  StreamStatistics stats;
  stats.source_ranges.Declare(types.q, RangesWithValue(0.0, 100.0));
  Translator informed({}, stats);
  auto dropped = informed.ToLogicalPlan(query.ValueOrDie());
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.ValueOrDie().root->CountKind(LogicalOpKind::kFilter), 0);
}

TEST(RangeRulesTest, TranslatorRefusesAlwaysFalsePlanWithE318) {
  Predicate contradiction;
  contradiction.Add(
      Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 10.0));
  contradiction.Add(
      Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kGt, 20.0));
  auto query = SeqQV(contradiction);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  Translator translator;
  auto plan = translator.ToLogicalPlan(query.ValueOrDie());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
      << plan.status().ToString();
  EXPECT_NE(plan.status().message().find("CEP2ASP-E318"), std::string::npos)
      << plan.status().ToString();

  // The end-to-end path refuses too (TranslatePattern -> ToLogicalPlan).
  Workload workload;
  StreamSpec spec;
  spec.type = SensorTypes::Get().q;
  spec.events_per_sensor = 4;
  workload.AddStream(spec);
  spec.type = SensorTypes::Get().v;
  workload.AddStream(spec);
  auto compiled = TranslatePattern(query.ValueOrDie(), {},
                                   workload.MakeSourceFactory());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("CEP2ASP-E318"),
            std::string::npos)
      << compiled.status().ToString();
}

TEST(RangeRulesTest, TranslatorRefusesDeclaredDeadFilter) {
  const SensorTypes types = SensorTypes::Get();
  auto query = SeqQV(ValuePred(CmpOp::kGt, 200.0));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // Satisfiable without priors: translation succeeds.
  Translator plain;
  EXPECT_TRUE(plain.ToLogicalPlan(query.ValueOrDie()).ok());

  // Declared [0, 100] proves it dead: refused at build time.
  StreamStatistics stats;
  stats.source_ranges.Declare(types.q, RangesWithValue(0.0, 100.0));
  Translator informed({}, stats);
  auto plan = informed.ToLogicalPlan(query.ValueOrDie());
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("CEP2ASP-E318"), std::string::npos)
      << plan.status().ToString();
}

// --- I320 report and fact attachment --------------------------------------

TEST(RangeRulesTest, DescribeRangesEmitsI320PerComputedNode) {
  Workload workload;
  StreamSpec spec;
  spec.type = SensorTypes::Get().q;
  spec.num_sensors = 4;
  spec.events_per_sensor = 8;
  workload.AddStream(spec);
  spec.type = SensorTypes::Get().v;
  workload.AddStream(spec);

  auto query = SeqQV(ValuePred(CmpOp::kGe, 50.0));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto compiled = TranslatePattern(query.ValueOrDie(), {},
                                   workload.MakeSourceFactory());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const JobGraph& graph = compiled.ValueOrDie().graph;
  const RangeAnalysis analysis =
      AnalyzeRanges(graph, workload.DeriveRangeCatalog());
  EXPECT_TRUE(analysis.report.ToStatus().ok())
      << analysis.report.ToString();

  const DiagnosticReport described = DescribeRanges(graph, analysis);
  EXPECT_GT(described.info_count(), 0);
  EXPECT_TRUE(described.Has(DiagnosticCode::kGraphRangeReport));
  EXPECT_EQ(described.error_count(), 0) << described.ToString();

  // The human-readable table mentions every node.
  const std::string table = analysis.ToString(graph);
  EXPECT_FALSE(table.empty());
}

TEST(RangeRulesTest, AttachRangeFactsSurfacesSelectivityBound) {
  Workload workload;
  StreamSpec spec;
  spec.type = SensorTypes::Get().q;
  spec.num_sensors = 4;
  spec.events_per_sensor = 8;
  workload.AddStream(spec);
  spec.type = SensorTypes::Get().v;
  workload.AddStream(spec);

  // value >= 50 over a [0, 100] uniform domain: bound must exist and be
  // well inside (0, 1).
  auto query = SeqQV(ValuePred(CmpOp::kGe, 50.0));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto compiled = TranslatePattern(query.ValueOrDie(), {},
                                   workload.MakeSourceFactory());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  JobGraph& graph = compiled.ValueOrDie().graph;
  const RangeAnalysis analysis =
      AnalyzeRanges(graph, workload.DeriveRangeCatalog());
  AttachRangeFacts(&graph, analysis);

  bool found_bound = false;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source()) continue;
    const double bound = node.op->Traits().selectivity_bound;
    if (bound >= 0.0 && bound < 1.0) found_bound = true;
  }
  EXPECT_TRUE(found_bound)
      << "no operator carries a derived selectivity bound <1:\n"
      << analysis.ToString(graph);
}

// --- Soundness: derived intervals contain every observed value ------------

TEST(RangeRulesTest, DerivedIntervalsContainAllGeneratedValues) {
  std::mt19937_64 rng(20260808);
  const SensorTypes types = SensorTypes::Get();

  for (int trial = 0; trial < 8; ++trial) {
    Workload workload;
    for (EventTypeId type : {types.q, types.v}) {
      StreamSpec spec;
      spec.type = type;
      spec.num_sensors = 1 + static_cast<int>(rng() % 6);
      spec.id_offset = static_cast<int64_t>(rng() % 100);
      spec.events_per_sensor = 4 + static_cast<int>(rng() % 24);
      spec.value_min = static_cast<double>(rng() % 50);
      spec.value_max = spec.value_min + 1.0 + static_cast<double>(rng() % 100);
      spec.seed = rng();
      workload.AddStream(spec);
    }
    const SourceRangeCatalog catalog = workload.DeriveRangeCatalog();

    // A threshold somewhere near the middle of the q value domain.
    const EventRanges* q_ranges = catalog.Find(types.q);
    ASSERT_NE(q_ranges, nullptr);
    const Interval q_values = (*q_ranges)[Attribute::kValue];
    const double threshold = (q_values.lo + q_values.hi) / 2.0;
    const Predicate q_filter = ValuePred(CmpOp::kGe, threshold);

    auto query = SeqQV(q_filter);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto compiled = TranslatePattern(query.ValueOrDie(), {},
                                     workload.MakeSourceFactory());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    const JobGraph& graph = compiled.ValueOrDie().graph;
    const RangeAnalysis analysis = AnalyzeRanges(graph, catalog);
    ASSERT_EQ(analysis.nodes.size(), static_cast<size_t>(graph.num_nodes()));

    for (NodeId id = 0; id < graph.num_nodes(); ++id) {
      const JobGraph::Node& node = graph.node(id);
      const NodeRangeFacts& facts = analysis.nodes[static_cast<size_t>(id)];
      if (!node.is_source()) continue;
      ASSERT_TRUE(facts.computed) << "source node " << id;
      ASSERT_EQ(facts.slots.size(), 1u);
      for (const SimpleEvent& e : workload.events(node.source_type)) {
        for (int a = 0; a <= static_cast<int>(Attribute::kAuxTs); ++a) {
          const Attribute attr = static_cast<Attribute>(a);
          EXPECT_TRUE(facts.slots[0][attr].Contains(GetAttribute(e, attr)))
              << "trial " << trial << " node " << id << " attr " << a
              << ": " << GetAttribute(e, attr) << " outside "
              << facts.slots[0][attr].ToString();
        }
      }

      // One hop downstream: events surviving the leaf predicate must lie
      // in the successor's refined intervals (single-input stateless
      // successors only; anything the pass did not model is skipped).
      if (node.source_type != types.q) continue;
      for (const JobGraph::Edge& edge : node.outputs) {
        const NodeRangeFacts& next =
            analysis.nodes[static_cast<size_t>(edge.to)];
        if (!next.computed || next.dead || next.slots.size() != 1 ||
            graph.fan_in(edge.to) != 1) {
          continue;
        }
        for (const SimpleEvent& e : workload.events(node.source_type)) {
          if (!q_filter.EvalOnEvent(e)) continue;
          for (int a = 0; a <= static_cast<int>(Attribute::kAuxTs); ++a) {
            const Attribute attr = static_cast<Attribute>(a);
            EXPECT_TRUE(next.slots[0][attr].Contains(GetAttribute(e, attr)))
                << "trial " << trial << " filtered node " << edge.to
                << " attr " << a << ": " << GetAttribute(e, attr)
                << " outside " << next.slots[0][attr].ToString();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cep2asp
