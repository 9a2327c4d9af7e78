#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/expr_rules.h"
#include "tests/test_util.h"
#include "translator/logical_plan.h"
#include "translator/translator.h"
#include "workload/generator.h"

namespace cep2asp {
namespace {

using test::Ev;

constexpr Timestamp kMin = kMillisPerMinute;

/// Fixture providing three small synthetic streams (same-id events so the
/// default uniform-key path behaves like the paper's single-node setup).
class TranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = EventTypeRegistry::Global()->RegisterOrGet("TrA");
    b_ = EventTypeRegistry::Global()->RegisterOrGet("TrB");
    c_ = EventTypeRegistry::Global()->RegisterOrGet("TrC");
  }

  /// A deterministic pseudo-random workload: per-type streams with 1-min
  /// period, values uniform in [0,100), sensors -> keys.
  Workload MakeWorkload(int rounds, int sensors = 1, uint64_t seed = 7) {
    Workload w;
    for (EventTypeId type : {a_, b_, c_}) {
      StreamSpec spec;
      spec.type = type;
      spec.num_sensors = sensors;
      spec.events_per_sensor = rounds;
      spec.period = kMin;
      spec.seed = seed + type;
      w.AddStream(spec);
    }
    return w;
  }

  Pattern SeqAB(Predicate a_filter = {}, Predicate b_filter = {},
                Timestamp w = 5 * kMin) {
    return PatternBuilder()
        .Seq(PatternBuilder::Atom(a_, "e1", std::move(a_filter)),
             PatternBuilder::Atom(b_, "e2", std::move(b_filter)))
        .Within(w)
        .Build()
        .ValueOrDie();
  }

  EventTypeId a_ = 0, b_ = 0, c_ = 0;
};

// --- Logical plan shapes (Table 1) ------------------------------------------------

TEST_F(TranslatorTest, SeqMapsToThetaJoin) {
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(SeqAB()).ValueOrDie();
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kWindowJoin), 1);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kScan), 2);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kKeyByConst), 2);
  // The theta condition (ts order) lives on the join.
  EXPECT_FALSE(plan.root->predicate.IsTrue());
  EXPECT_EQ(plan.root->ts_mode, TimestampMode::kMax);
}

TEST_F(TranslatorTest, AndMapsToCrossJoinWithUniformKey) {
  Pattern p = PatternBuilder()
                  .And(PatternBuilder::Atom(a_, "e1"),
                       PatternBuilder::Atom(b_, "e2"))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  EXPECT_EQ(plan.root->kind, LogicalOpKind::kWindowJoin);
  EXPECT_TRUE(plan.root->predicate.IsTrue());  // pure Cartesian product
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kKeyByConst), 2);
}

TEST_F(TranslatorTest, OrMapsToUnion) {
  Pattern p = PatternBuilder()
                  .Or(PatternBuilder::Atom(a_, "e1"),
                      PatternBuilder::Atom(b_, "e2"))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  EXPECT_EQ(plan.root->kind, LogicalOpKind::kUnion);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kWindowJoin), 0);
}

TEST_F(TranslatorTest, IterMapsToSelfJoinChain) {
  Pattern p = PatternBuilder()
                  .Root(PatternBuilder::Iter(a_, "v", 4))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  // ITER^m -> m-1 self theta joins over m scans.
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kWindowJoin), 3);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kScan), 4);
}

TEST_F(TranslatorTest, IterWithO2MapsToAggregate) {
  Pattern p = PatternBuilder()
                  .Root(PatternBuilder::Iter(a_, "v", 4))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  TranslatorOptions options;
  options.use_aggregation_for_iter = true;
  Translator translator(options);
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  EXPECT_EQ(plan.root->kind, LogicalOpKind::kAggregate);
  EXPECT_EQ(plan.root->min_count, 4);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kWindowJoin), 0);
}

TEST_F(TranslatorTest, ConstrainedIterWithO2UsesChainApply) {
  Pattern p = PatternBuilder()
                  .Root(PatternBuilder::Iter(
                      a_, "v", 3, Predicate(),
                      ConsecutiveConstraint{Attribute::kValue, CmpOp::kLt}))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  TranslatorOptions options;
  options.use_aggregation_for_iter = true;
  Translator translator(options);
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  EXPECT_EQ(plan.root->kind, LogicalOpKind::kIterChainApply);
}

TEST_F(TranslatorTest, NseqMapsToUnionMarkJoin) {
  Pattern p = PatternBuilder()
                  .Nseq({a_, "e1", {}}, {b_, "e2", {}}, {c_, "e3", {}})
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kNseqMark), 1);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kUnion), 1);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kWindowJoin), 1);
}

/// Window joins of `op`'s subtree, root first.
void CollectWindowJoins(const LogicalOp& op,
                        std::vector<const LogicalOp*>* out) {
  if (op.kind == LogicalOpKind::kWindowJoin) out->push_back(&op);
  for (const auto& input : op.inputs) CollectWindowJoins(*input, out);
}

std::vector<int> BoundSlots(const LogicalPlan& plan) {
  std::vector<const LogicalOp*> joins;
  CollectWindowJoins(*plan.root, &joins);
  std::vector<int> slots;
  for (const LogicalOp* join : joins) slots.push_back(join->order_bound_slot);
  return slots;
}

std::unique_ptr<PatternNode> Composite(PatternOp op,
                                       std::unique_ptr<PatternNode> first,
                                       std::unique_ptr<PatternNode> second) {
  auto node = std::make_unique<PatternNode>();
  node->op = op;
  node->children.push_back(std::move(first));
  node->children.push_back(std::move(second));
  return node;
}

TEST_F(TranslatorTest, OrderBoundMarksOrderedJoinsWithLeafRight) {
  Translator translator;
  // SEQ(A, B, C): join(A, B) bounds on A (slot 0); the root join bounds
  // its leaf C on B, slot 1 of the (A, B) partial match.
  Pattern seq = PatternBuilder()
                    .Seq(PatternBuilder::Atom(a_, "e1"),
                         PatternBuilder::Atom(b_, "e2"),
                         PatternBuilder::Atom(c_, "e3"))
                    .Within(5 * kMin)
                    .Build()
                    .ValueOrDie();
  EXPECT_EQ(BoundSlots(translator.ToLogicalPlan(seq).ValueOrDie()),
            (std::vector<int>{1, 0}));

  Pattern iter = PatternBuilder()
                     .Root(PatternBuilder::Iter(a_, "v", 4))
                     .Within(5 * kMin)
                     .Build()
                     .ValueOrDie();
  EXPECT_EQ(BoundSlots(translator.ToLogicalPlan(iter).ValueOrDie()),
            (std::vector<int>{2, 1, 0}));

  Pattern nseq = PatternBuilder()
                     .Nseq({a_, "e1", {}}, {b_, "e2", {}}, {c_, "e3", {}})
                     .Within(5 * kMin)
                     .Build()
                     .ValueOrDie();
  EXPECT_EQ(BoundSlots(translator.ToLogicalPlan(nseq).ValueOrDie()),
            (std::vector<int>{0}));

  // The physical join keeps the whole condition for the analyzer.
  LogicalPlan plan = translator.ToLogicalPlan(seq).ValueOrDie();
  EXPECT_EQ(plan.root->predicate.terms().size(), 1u);
}

TEST_F(TranslatorTest, OrderBoundSkipsUnorderedAndNonLeafRight) {
  Translator translator;
  Pattern conj = PatternBuilder()
                     .And(PatternBuilder::Atom(a_, "e1"),
                          PatternBuilder::Atom(b_, "e2"),
                          PatternBuilder::Atom(c_, "e3"))
                     .Within(5 * kMin)
                     .Build()
                     .ValueOrDie();
  EXPECT_EQ(BoundSlots(translator.ToLogicalPlan(conj).ValueOrDie()),
            (std::vector<int>{-1, -1}));

  // SEQ(A, AND(B, C)): the root join's right input is a composite whose
  // event time is a partial match's, not one event's ts.
  Pattern composite =
      PatternBuilder()
          .Seq(PatternBuilder::Atom(a_, "e1"),
               Composite(PatternOp::kAnd, PatternBuilder::Atom(b_, "e2"),
                         PatternBuilder::Atom(c_, "e3")))
          .Within(5 * kMin)
          .Build()
          .ValueOrDie();
  EXPECT_EQ(BoundSlots(translator.ToLogicalPlan(composite).ValueOrDie()),
            (std::vector<int>{-1, -1}));

  // SEQ(A, ITER3(B)) under O2: the right input is a window aggregate.
  TranslatorOptions o2;
  o2.use_aggregation_for_iter = true;
  Pattern aggregate = PatternBuilder()
                          .Seq(PatternBuilder::Atom(a_, "e1"),
                               PatternBuilder::Iter(b_, "v", 3))
                          .Within(5 * kMin)
                          .Build()
                          .ValueOrDie();
  LogicalPlan plan = Translator(o2).ToLogicalPlan(aggregate).ValueOrDie();
  ASSERT_EQ(plan.root->CountKind(LogicalOpKind::kAggregate), 1);
  EXPECT_EQ(BoundSlots(plan), (std::vector<int>{-1}));
}

TEST_F(TranslatorTest, O1ReplacesWindowJoinsWithIntervalJoins) {
  TranslatorOptions options;
  options.use_interval_join = true;
  Translator translator(options);
  LogicalPlan plan = translator.ToLogicalPlan(SeqAB()).ValueOrDie();
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kIntervalJoin), 1);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kWindowJoin), 0);
  EXPECT_EQ(plan.root->interval.lower, 0);
  EXPECT_EQ(plan.root->interval.upper, 5 * kMin);
}

TEST_F(TranslatorTest, O3ExtractsEquiJoinKey) {
  Pattern p = PatternBuilder()
                  .Seq(PatternBuilder::Atom(a_, "e1"),
                       PatternBuilder::Atom(b_, "e2"))
                  .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                              {1, Attribute::kId}))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  TranslatorOptions options;
  options.use_equi_join_keys = true;
  Translator translator(options);
  LogicalPlan plan = translator.ToLogicalPlan(p).ValueOrDie();
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kKeyByAttr), 2);
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kKeyByConst), 0);
}

TEST_F(TranslatorTest, O3WithoutConnectingEqualityFallsBack) {
  TranslatorOptions options;
  options.use_equi_join_keys = true;
  Translator translator(options);
  LogicalPlan plan = translator.ToLogicalPlan(SeqAB()).ValueOrDie();
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kKeyByConst), 2);
}

TEST_F(TranslatorTest, FilterPushdown) {
  Predicate filter;
  filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 50));
  Translator translator;
  LogicalPlan plan = translator.ToLogicalPlan(SeqAB(filter)).ValueOrDie();
  EXPECT_EQ(plan.root->CountKind(LogicalOpKind::kFilter), 1);
}

// --- End-to-end equivalence: FASP == FCEP == SEA oracle --------------------------

struct EquivalenceCase {
  std::string name;
  bool o1 = false;
  bool o2 = false;
  bool o3 = false;
};

class SeqEquivalenceTest : public TranslatorTest,
                           public ::testing::WithParamInterface<EquivalenceCase> {};

TEST_P(SeqEquivalenceTest, SeqMatchesOracleAndFcep) {
  const EquivalenceCase& param = GetParam();
  Workload w = MakeWorkload(/*rounds=*/60);
  Predicate a_filter, b_filter;
  a_filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 40));
  b_filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 40));
  Pattern p = SeqAB(a_filter, b_filter);

  TranslatorOptions options;
  options.use_interval_join = param.o1;
  options.use_equi_join_keys = param.o3;
  auto fasp = test::RunFasp(p, w, options);
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;

  auto oracle = test::OracleMatchSet(p, w);
  EXPECT_EQ(fasp.match_set, oracle);

  auto fcep = test::RunFcep(p, w);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Options, SeqEquivalenceTest,
    ::testing::Values(EquivalenceCase{"baseline"},
                      EquivalenceCase{"o1", true, false, false}),
    [](const auto& info) { return info.param.name; });

TEST_F(TranslatorTest, SeqThreeTypesEquivalence) {
  Workload w = MakeWorkload(40);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 50));
  Pattern p = PatternBuilder()
                  .Seq(PatternBuilder::Atom(a_, "e1", f),
                       PatternBuilder::Atom(b_, "e2", f),
                       PatternBuilder::Atom(c_, "e3", f))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  auto fasp = test::RunFasp(p, w, {});
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
  EXPECT_EQ(fasp.match_set, oracle);
  auto fcep = test::RunFcep(p, w);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);

  TranslatorOptions o1;
  o1.use_interval_join = true;
  auto fasp_o1 = test::RunFasp(p, w, o1);
  ASSERT_TRUE(fasp_o1.result.ok) << fasp_o1.result.error;
  EXPECT_EQ(fasp_o1.match_set, oracle);
}

TEST_F(TranslatorTest, AndEquivalenceWithOracle) {
  // FCEP cannot express AND (Table 2); FASP vs oracle only. The match set
  // is compared order-insensitively because AND is commutative.
  Workload w = MakeWorkload(30);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 30));
  Pattern p = PatternBuilder()
                  .And(PatternBuilder::Atom(a_, "e1", f),
                       PatternBuilder::Atom(b_, "e2", f))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  for (bool o1 : {false, true}) {
    TranslatorOptions options;
    options.use_interval_join = o1;
    auto fasp = test::RunFasp(p, w, options);
    ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
    EXPECT_EQ(fasp.match_set, oracle) << "o1=" << o1;
  }
}

TEST_F(TranslatorTest, TernaryAndEquivalence) {
  // Composite left side: pairwise window constraints survive as
  // predicates (§4 mapping detail).
  Workload w = MakeWorkload(25);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 25));
  Pattern p = PatternBuilder()
                  .And(PatternBuilder::Atom(a_, "e1", f),
                       PatternBuilder::Atom(b_, "e2", f),
                       PatternBuilder::Atom(c_, "e3", f))
                  .Within(4 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  for (bool o1 : {false, true}) {
    TranslatorOptions options;
    options.use_interval_join = o1;
    auto fasp = test::RunFasp(p, w, options);
    ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
    EXPECT_EQ(fasp.match_set, oracle) << "o1=" << o1;
  }
}

TEST_F(TranslatorTest, OrEquivalence) {
  Workload w = MakeWorkload(30);
  Pattern p = PatternBuilder()
                  .Or(PatternBuilder::Atom(a_, "e1"),
                      PatternBuilder::Atom(b_, "e2"))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  auto fasp = test::RunFasp(p, w, {});
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
  EXPECT_EQ(fasp.match_set, oracle);
  // FCEP rejects OR.
  auto fcep = test::RunFcep(p, w);
  EXPECT_FALSE(fcep.result.ok);
}

TEST_F(TranslatorTest, IterEquivalence) {
  Workload w = MakeWorkload(40);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 35));
  Pattern p = PatternBuilder()
                  .Root(PatternBuilder::Iter(a_, "v", 3, f))
                  .Within(6 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  for (bool o1 : {false, true}) {
    TranslatorOptions options;
    options.use_interval_join = o1;
    auto fasp = test::RunFasp(p, w, options);
    ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
    EXPECT_EQ(fasp.match_set, oracle) << "o1=" << o1;
  }
  auto fcep = test::RunFcep(p, w);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);
}

TEST_F(TranslatorTest, IterConsecutiveConstraintEquivalence) {
  Workload w = MakeWorkload(40);
  Pattern p = PatternBuilder()
                  .Root(PatternBuilder::Iter(
                      a_, "v", 3, Predicate(),
                      ConsecutiveConstraint{Attribute::kValue, CmpOp::kLt}))
                  .Within(4 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  auto fasp = test::RunFasp(p, w, {});
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
  EXPECT_EQ(fasp.match_set, oracle);
  auto fcep = test::RunFcep(p, w);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);
}

TEST_F(TranslatorTest, O2AggregateFiresIffOracleIterNonEmpty) {
  // O2 is approximate: one output tuple per qualifying window instead of
  // event combinations. Its windows with >= m events must coincide with
  // windows where the oracle finds ITER^m matches.
  Workload w = MakeWorkload(50);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 30));
  Pattern p = PatternBuilder()
                  .Root(PatternBuilder::Iter(a_, "v", 3, f))
                  .Within(6 * kMin)
                  .Build()
                  .ValueOrDie();
  TranslatorOptions options;
  options.use_aggregation_for_iter = true;
  auto fasp = test::RunFasp(p, w, options);
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
  auto oracle = test::OracleMatchSet(p, w);
  if (oracle.empty()) {
    EXPECT_TRUE(fasp.match_set.empty());
  } else {
    EXPECT_FALSE(fasp.match_set.empty());
  }
}

TEST_F(TranslatorTest, NseqEquivalence) {
  Workload w = MakeWorkload(50);
  Predicate b_filter;
  b_filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 20));
  Pattern p = PatternBuilder()
                  .Nseq({a_, "e1", {}}, {b_, "e2", b_filter}, {c_, "e3", {}})
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  for (bool o1 : {false, true}) {
    TranslatorOptions options;
    options.use_interval_join = o1;
    auto fasp = test::RunFasp(p, w, options);
    ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
    EXPECT_EQ(fasp.match_set, oracle) << "o1=" << o1;
  }
  auto fcep = test::RunFcep(p, w);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);
}

TEST_F(TranslatorTest, KeyedEquivalenceWithO3) {
  // Multi-sensor workload keyed by id (Fig. 4 style).
  Workload w = MakeWorkload(30, /*sensors=*/4);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
  Pattern p = PatternBuilder()
                  .Seq(PatternBuilder::Atom(a_, "e1", f),
                       PatternBuilder::Atom(b_, "e2", f))
                  .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                              {1, Attribute::kId}))
                  .Within(5 * kMin)
                  .Build()
                  .ValueOrDie();
  p.set_slide(kMin / 4);  // slide <= stagger for Theorem 2

  auto oracle = test::OracleMatchSet(p, w);
  ASSERT_FALSE(oracle.empty());
  for (bool o1 : {false, true}) {
    TranslatorOptions options;
    options.use_equi_join_keys = true;
    options.use_interval_join = o1;
    auto fasp = test::RunFasp(p, w, options);
    ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
    EXPECT_EQ(fasp.match_set, oracle) << "o1=" << o1;
  }
  CepJobOptions cep_options;
  cep_options.keyed = true;
  auto fcep = test::RunFcep(p, w, cep_options);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);
}

TEST_F(TranslatorTest, CrossPredicateEquivalence) {
  // Listing 2 style: SEQ with a cross-variable value predicate.
  Workload w = MakeWorkload(60);
  Pattern p = PatternBuilder()
                  .Seq(PatternBuilder::Atom(a_, "e1"),
                       PatternBuilder::Atom(b_, "e2"))
                  .Where(Comparison::AttrAttr({0, Attribute::kValue}, CmpOp::kLe,
                                              {1, Attribute::kValue}))
                  .Within(3 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  auto fasp = test::RunFasp(p, w, {});
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
  EXPECT_EQ(fasp.match_set, oracle);
  auto fcep = test::RunFcep(p, w);
  ASSERT_TRUE(fcep.result.ok) << fcep.result.error;
  EXPECT_EQ(fcep.match_set, oracle);
}

TEST_F(TranslatorTest, DedupStageRemovesSlidingDuplicates) {
  Workload w = MakeWorkload(40);
  Pattern p = SeqAB();
  TranslatorOptions plain;
  auto raw = test::RunFasp(p, w, plain);
  TranslatorOptions dedup = plain;
  dedup.deduplicate_output = true;
  auto deduped = test::RunFasp(p, w, dedup);
  ASSERT_TRUE(raw.result.ok);
  ASSERT_TRUE(deduped.result.ok);
  EXPECT_EQ(raw.match_set, deduped.match_set);
  EXPECT_EQ(deduped.raw_emissions,
            static_cast<int64_t>(deduped.match_set.size()));
  EXPECT_GT(raw.raw_emissions, deduped.raw_emissions);
}

/// Node list of a compiled job: one "name@parallelism" entry per node in
/// id order, followed by its out-edges.
std::vector<std::string> NodeList(const JobGraph& graph) {
  std::vector<std::string> nodes;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const JobGraph::Node& node = graph.node(id);
    std::string entry =
        (node.is_source() ? node.source->name() : node.op->name()) + "@" +
        std::to_string(node.parallelism);
    for (const JobGraph::Edge& edge : node.outputs) {
      entry += " ->" + std::to_string(edge.to);
    }
    nodes.push_back(std::move(entry));
  }
  return nodes;
}

TEST_F(TranslatorTest, CompilePlanKeepsTheDedupStage) {
  // TranslatePattern is ToLogicalPlan + CompilePlan, so linting the two
  // steps (AnalyzeQuery, plan_lint) sees the job that runs, dedup stage
  // included.
  Workload w = MakeWorkload(10, /*sensors=*/4);
  const Pattern p = PatternBuilder()
                        .Seq(PatternBuilder::Atom(a_, "e1"),
                             PatternBuilder::Atom(b_, "e2"))
                        .Where(Comparison::AttrAttr({0, Attribute::kId},
                                                    CmpOp::kEq,
                                                    {1, Attribute::kId}))
                        .Within(5 * kMin)
                        .Build()
                        .ValueOrDie();
  TranslatorOptions dedup;
  dedup.deduplicate_output = true;
  TranslatorOptions keyed_dedup = dedup;
  keyed_dedup.use_equi_join_keys = true;
  keyed_dedup.parallelism = 4;
  for (const TranslatorOptions& options : {dedup, keyed_dedup}) {
    auto translated = TranslatePattern(p, options, w.MakeSourceFactory());
    ASSERT_TRUE(translated.ok()) << translated.status();
    auto plan = Translator(options).ToLogicalPlan(p);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE(plan->deduplicate_output);
    auto compiled = CompilePlan(*plan, w.MakeSourceFactory());
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const std::vector<std::string> nodes = NodeList(compiled->graph);
    EXPECT_EQ(nodes, NodeList(translated->graph));
    // The stage sits right before the sink.
    ASSERT_GE(nodes.size(), 2u);
    EXPECT_EQ(nodes[nodes.size() - 2].rfind("dedup@1", 0), 0u)
        << nodes[nodes.size() - 2];
    if (options.parallelism > 1) {
      EXPECT_TRUE(std::any_of(nodes.begin(), nodes.end(),
                              [](const std::string& node) {
                                return node.find("@4") != std::string::npos;
                              }));
    }
  }
}

TEST_F(TranslatorTest, LeafFilterWithThreeHundredConstantsRunsCompiled) {
  // 300 distinct constants are more than an 8-bit operand can index; the
  // filter still compiles (fused with its key map), and the job matches
  // the same pattern with only the one selective term.
  Predicate selective;
  selective.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 40));
  Predicate wide = selective;
  for (int i = 0; i < 299; ++i) {
    wide.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt,
                                   100.0 + i));
  }
  Workload w = MakeWorkload(30);
  auto compiled = TranslatePattern(SeqAB(wide), {}, w.MakeSourceFactory());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const DiagnosticReport report = AnalyzeExprCompilation(compiled->graph);
  ASSERT_FALSE(report.empty());
  for (const Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.message.rfind("expression compiled", 0), 0u) << d.ToString();
  }

  auto expected = test::RunFasp(SeqAB(selective), w);
  auto actual = test::RunFasp(SeqAB(wide), w);
  ASSERT_TRUE(expected.result.ok) << expected.result.error;
  ASSERT_TRUE(actual.result.ok) << actual.result.error;
  EXPECT_FALSE(expected.match_set.empty());
  EXPECT_EQ(actual.match_set, expected.match_set);
}

TEST_F(TranslatorTest, IntervalJoinPlanEmitsNoDuplicates) {
  Workload w = MakeWorkload(40);
  Pattern p = SeqAB();
  TranslatorOptions options;
  options.use_interval_join = true;
  auto fasp = test::RunFasp(p, w, options);
  ASSERT_TRUE(fasp.result.ok);
  EXPECT_EQ(fasp.raw_emissions, static_cast<int64_t>(fasp.match_set.size()));
}

TEST_F(TranslatorTest, AutoOptimizeProducesEquivalentResults) {
  Workload w = MakeWorkload(30);
  Predicate f;
  f.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 40));
  Pattern p = PatternBuilder()
                  .And(PatternBuilder::Atom(a_, "e1", f),
                       PatternBuilder::Atom(b_, "e2", f))
                  .Within(4 * kMin)
                  .Build()
                  .ValueOrDie();
  auto oracle = test::OracleMatchSet(p, w);
  TranslatorOptions options;
  options.auto_optimize = true;
  // AND matches are order-insensitive; auto reordering may permute the
  // variables before the final Reorder restores match positions.
  auto fasp = test::RunFasp(p, w, options);
  ASSERT_TRUE(fasp.result.ok) << fasp.result.error;
  EXPECT_EQ(fasp.match_set, oracle);
}

TEST_F(TranslatorTest, MissingSourceReported) {
  Pattern p = SeqAB();
  auto compiled = TranslatePattern(
      p, {}, [](EventTypeId) -> std::unique_ptr<Source> { return nullptr; });
  EXPECT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsNotFound());
}

}  // namespace
}  // namespace cep2asp
