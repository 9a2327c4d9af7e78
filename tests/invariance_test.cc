// Execution-invariance properties: match sets must not depend on *how*
// the job is driven — watermark cadence, state-sampling cadence, queue
// capacities, or executor choice are operational knobs, not semantics.

#include <atomic>
#include <memory>

#include <gtest/gtest.h>

#include "asp/sliding_window_join.h"
#include "runtime/threaded_executor.h"
#include "tests/test_util.h"
#include "translator/translator.h"
#include "workload/generator.h"

namespace cep2asp {
namespace {

constexpr Timestamp kMin = kMillisPerMinute;

/// Forwards to a sliding-window join and adds its pairs_evaluated() to a
/// total shared with every subtask clone when it finishes.
class PairCountingJoin : public Operator {
 public:
  PairCountingJoin(std::unique_ptr<Operator> inner,
                   std::shared_ptr<std::atomic<int64_t>> total)
      : inner_(std::move(inner)), total_(std::move(total)) {}

  std::string name() const override { return inner_->name(); }
  OperatorTraits Traits() const override { return inner_->Traits(); }
  int num_inputs() const override { return inner_->num_inputs(); }
  Status Open() override { return inner_->Open(); }
  Status Process(int input, Tuple tuple, Collector* out) override {
    return inner_->Process(input, std::move(tuple), out);
  }
  Status ProcessBatch(int input, MessageBatch* batch, Collector* out) override {
    return inner_->ProcessBatch(input, batch, out);
  }
  Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                         Collector* out) override {
    return inner_->ProcessColumnar(input, std::move(block), out);
  }
  Status OnWatermark(Timestamp watermark, Collector* out) override {
    return inner_->OnWatermark(watermark, out);
  }
  Status Finish(Collector* out) override {
    Status status = inner_->Finish(out);
    *total_ +=
        static_cast<SlidingWindowJoinOperator&>(*inner_).pairs_evaluated();
    return status;
  }
  size_t StateBytes() const override { return inner_->StateBytes(); }
  void AttachSelectivityBound(double bound) override {
    inner_->AttachSelectivityBound(bound);
  }
  std::unique_ptr<Operator> CloneForSubtask() const override {
    return std::make_unique<PairCountingJoin>(inner_->CloneForSubtask(),
                                              total_);
  }

 private:
  std::unique_ptr<Operator> inner_;
  std::shared_ptr<std::atomic<int64_t>> total_;
};

class InvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = EventTypeRegistry::Global()->RegisterOrGet("InvA");
    b_ = EventTypeRegistry::Global()->RegisterOrGet("InvB");
    c_ = EventTypeRegistry::Global()->RegisterOrGet("InvC");

    for (EventTypeId type : {a_, b_, c_}) {
      StreamSpec spec;
      spec.type = type;
      spec.num_sensors = 2;
      spec.events_per_sensor = 60;
      spec.period = kMin;
      spec.seed = 1234 + type;
      // Aligned sampling so the default one-minute slide is lossless
      // (Theorem 2); with staggered sensors the implicit-windowing engines
      // would legitimately find edge matches the 1-minute discretization
      // misses.
      spec.align_to_period = true;
      workload_.AddStream(spec);
    }
  }

  Pattern Nseq() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
    return PatternBuilder()
        .Nseq({a_, "e1", filter}, {b_, "e2", filter}, {c_, "e3", filter})
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  Pattern Seq3() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
    return PatternBuilder()
        .Seq(PatternBuilder::Atom(a_, "e1", filter),
             PatternBuilder::Atom(b_, "e2", filter),
             PatternBuilder::Atom(c_, "e3", filter))
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  /// SEQ with Equi-Join id predicates: O3 extracts a by-attribute key plan,
  /// making the join stages parallelizable.
  Pattern Seq3Keyed() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
    return PatternBuilder()
        .Seq(PatternBuilder::Atom(a_, "e1", filter),
             PatternBuilder::Atom(b_, "e2", filter),
             PatternBuilder::Atom(c_, "e3", filter))
        .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                    {1, Attribute::kId}))
        .Where(Comparison::AttrAttr({1, Attribute::kId}, CmpOp::kEq,
                                    {2, Attribute::kId}))
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  Pattern Iter3Keyed() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
    PatternBuilder builder;
    builder.Root(PatternBuilder::Iter(a_, "e", 3, filter));
    for (int i = 0; i + 1 < 3; ++i) {
      builder.Where(Comparison::AttrAttr({i, Attribute::kId}, CmpOp::kEq,
                                         {i + 1, Attribute::kId}));
    }
    return builder.Within(6 * kMin).Build().ValueOrDie();
  }

  Pattern NseqKeyed() {
    Predicate filter;
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
    return PatternBuilder()
        .Nseq({a_, "e1", filter}, {b_, "e2", filter}, {c_, "e3", filter})
        .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                    {1, Attribute::kId}))
        .Within(6 * kMin)
        .Build()
        .ValueOrDie();
  }

  std::vector<std::string> RunWithExecutorOptions(const Pattern& pattern,
                                                  const ExecutorOptions& options,
                                                  TranslatorOptions topt = {}) {
    auto compiled =
        TranslatePattern(pattern, topt, workload_.MakeSourceFactory());
    CEP2ASP_CHECK(compiled.ok()) << compiled.status();
    ExecutionResult result = RunJob(&compiled->graph, compiled->sink, options);
    CEP2ASP_CHECK(result.ok) << result.error;
    return test::MatchSet(compiled->sink->tuples());
  }

  EventTypeId a_ = 0, b_ = 0, c_ = 0;
  Workload workload_;
};

TEST_F(InvarianceTest, WatermarkIntervalDoesNotChangeFaspMatches) {
  Pattern p = Seq3();
  auto oracle = test::OracleMatchSet(p, workload_);
  ASSERT_FALSE(oracle.empty());
  for (int interval : {1, 7, 64, 1024, 100000}) {
    ExecutorOptions options;
    options.watermark_interval = interval;
    EXPECT_EQ(RunWithExecutorOptions(p, options), oracle)
        << "watermark_interval=" << interval;
  }
}

TEST_F(InvarianceTest, WatermarkIntervalDoesNotChangeNseqMatches) {
  // NSEQ has the most watermark-sensitive pipeline (the marking operator
  // holds events for a full window).
  Pattern p = Nseq();
  auto oracle = test::OracleMatchSet(p, workload_);
  for (int interval : {1, 13, 256, 4096}) {
    ExecutorOptions options;
    options.watermark_interval = interval;
    EXPECT_EQ(RunWithExecutorOptions(p, options), oracle)
        << "watermark_interval=" << interval;
  }
}

TEST_F(InvarianceTest, WatermarkIntervalDoesNotChangeFcepMatches) {
  Pattern p = Seq3();
  auto oracle = test::OracleMatchSet(p, workload_);
  for (int interval : {1, 17, 512}) {
    auto compiled = BuildCepJob(p, workload_.MakeSourceFactory());
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExecutorOptions options;
    options.watermark_interval = interval;
    ExecutionResult result = RunJob(&compiled->graph, compiled->sink, options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(test::MatchSet(compiled->sink->tuples()), oracle)
        << "watermark_interval=" << interval;
  }
}

TEST_F(InvarianceTest, QueueCapacityDoesNotChangeThreadedMatches) {
  Pattern p = Seq3();
  auto oracle = test::OracleMatchSet(p, workload_);
  for (size_t capacity : {size_t{2}, size_t{64}, size_t{8192}}) {
    auto compiled = TranslatePattern(p, {}, workload_.MakeSourceFactory());
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ThreadedExecutorOptions options;
    options.queue_capacity = capacity;
    ThreadedExecutor executor(&compiled->graph, options);
    ExecutionResult result = executor.Run(compiled->sink);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(test::MatchSet(compiled->sink->tuples()), oracle)
        << "queue_capacity=" << capacity;
  }
}

TEST_F(InvarianceTest, BatchSizeDoesNotChangeThreadedMatches) {
  // The exchange batch size (and channel implementation) is an operational
  // knob of the threaded runtime: {1, 7, 64} must produce the exact same
  // MatchKey set as the single-threaded reference on all three paper
  // pattern shapes (SEQ, ITER, NSEQ). batch=1 reproduces the historical
  // one-message-per-push exchange.
  Predicate filter;
  filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 60));
  Pattern iter = PatternBuilder()
                     .Root(PatternBuilder::Iter(a_, "e", 3, filter))
                     .Within(6 * kMin)
                     .Build()
                     .ValueOrDie();
  struct Case {
    const char* name;
    Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"SEQ", Seq3()});
  cases.push_back({"ITER", std::move(iter)});
  cases.push_back({"NSEQ", Nseq()});
  for (const Case& c : cases) {
    auto reference = RunWithExecutorOptions(c.pattern, ExecutorOptions{});
    ASSERT_FALSE(reference.empty()) << c.name;
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      auto compiled =
          TranslatePattern(c.pattern, {}, workload_.MakeSourceFactory());
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ThreadedExecutorOptions options;
      options.batch_size = batch;
      ThreadedExecutor executor(&compiled->graph, options);
      ExecutionResult result = executor.Run(compiled->sink);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(test::MatchSet(compiled->sink->tuples()), reference)
          << c.name << " batch_size=" << batch;
    }
  }
}

TEST_F(InvarianceTest, ParallelismMatrixPreservesMatchMultisets) {
  // Keyed data parallelism is an operational knob: for every pattern shape
  // (SEQ, ITER, NSEQ) the threaded engine must reproduce the exact match
  // *multiset* — including the per-overlap duplicates the sliding
  // semantics prescribes — of the single-threaded reference, at every
  // (parallelism, batch_size) combination. Parallelism 4 over only two
  // sensor ids additionally exercises subtask instances that never
  // receive a tuple (they must still align watermarks and terminate).
  // The batch layout follows parallelism: the compiled prefix filters
  // column blocks at every P, which travel whole into a P=1 join and
  // scatter back to rows at a hash edge into a parallel join.
  struct Case {
    const char* name;
    Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"SEQ", Seq3Keyed()});
  cases.push_back({"ITER", Iter3Keyed()});
  cases.push_back({"NSEQ", NseqKeyed()});

  TranslatorOptions o3;
  o3.use_equi_join_keys = true;
  for (const Case& c : cases) {
    auto reference_job =
        TranslatePattern(c.pattern, o3, workload_.MakeSourceFactory());
    ASSERT_TRUE(reference_job.ok()) << reference_job.status();
    // End-of-stream watermarks only, in both engines. The raw emission
    // multiset of the NSEQ pipeline depends on the exact watermark step
    // sequence: the marking operator releases events a full window behind
    // the watermark, so every intermediate step changes which sliding
    // windows still see a released event downstream — and in the threaded
    // engine that step sequence is timing-dependent (min-alignment across
    // subtask slots can merge steps depending on queue interleaving). With
    // a single final watermark every window fires over the complete
    // buffers, so the multiset is the full per-overlap duplication in both
    // engines and the comparison isolates the parallelism knob. Set-level
    // equivalence across cadences is covered by the Watermark* tests.
    constexpr int kEndOfStreamOnly = 1 << 20;
    ExecutorOptions reference_options;
    reference_options.watermark_interval = kEndOfStreamOnly;
    ExecutionResult reference_run =
        RunJob(&reference_job->graph, reference_job->sink, reference_options);
    ASSERT_TRUE(reference_run.ok) << reference_run.error;
    auto reference = test::MatchMultiset(reference_job->sink->tuples());
    ASSERT_FALSE(reference.empty()) << c.name;

    for (int parallelism : {1, 2, 4}) {
      for (size_t batch : {size_t{1}, size_t{64}}) {
        TranslatorOptions opt = o3;
        opt.parallelism = parallelism;
        auto compiled = TranslatePattern(c.pattern, opt,
                                         workload_.MakeSourceFactory());
        ASSERT_TRUE(compiled.ok()) << compiled.status();
        ThreadedExecutorOptions options;
        options.batch_size = batch;
        options.watermark_interval = kEndOfStreamOnly;
        ThreadedExecutor executor(&compiled->graph, options);
        ExecutionResult result = executor.Run(compiled->sink);
        ASSERT_TRUE(result.ok) << c.name << ": " << result.error;
        EXPECT_EQ(test::MatchMultiset(compiled->sink->tuples()), reference)
            << c.name << " parallelism=" << parallelism
            << " batch_size=" << batch;
        EXPECT_TRUE(result.scheduler.used) << c.name;
        int64_t block_rows = 0, scattered_rows = 0;
        for (const ChannelStats& stats : result.channel_stats) {
          block_rows += stats.columnar_rows;
          scattered_rows += stats.scattered_rows;
        }
        EXPECT_GT(block_rows, 0) << c.name << " parallelism=" << parallelism;
        if (parallelism > 1) {
          // The partitioned stages must actually have been expanded.
          EXPECT_FALSE(result.partition_skew.empty())
              << c.name << " parallelism=" << parallelism;
          EXPECT_GT(scattered_rows, 0)
              << c.name << " parallelism=" << parallelism;
        } else {
          // The translated plans must contain at least one fused forward
          // run, so the matrix covers in-chain hand-offs. At parallelism
          // > 1 the compiled filter→key prefix is one operator wedged
          // between a source edge and a hash edge, so no chainable edge
          // remains; ThreadedExecutorTest.ChainSplitAroundNonCloneableOperator
          // covers parallel in-chain hand-offs.
          const ChainLayout layout = ComputeChainLayout(compiled->graph);
          EXPECT_GT(layout.fused_edge_count(), 0) << c.name;
        }
      }
    }
  }
}

TEST_F(InvarianceTest, PairsEvaluatedInvariantAcrossParallelism) {
  // With the SEQ order term as a range bound, the pairs a join enumerates
  // are fixed by the event times alone: partitioning and arrival timing
  // (intermediate watermarks included) change neither the per-key
  // windows nor which right rows follow a left row, so the sum over
  // subtasks must be identical at every parallelism.
  struct Case {
    const char* name;
    Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"SEQ", Seq3Keyed()});
  cases.push_back({"ITER", Iter3Keyed()});

  TranslatorOptions o3;
  o3.use_equi_join_keys = true;
  for (const Case& c : cases) {
    int64_t reference = -1;
    for (int parallelism : {1, 4}) {
      for (int watermark_interval : {7, 256}) {
        TranslatorOptions opt = o3;
        opt.parallelism = parallelism;
        auto compiled =
            TranslatePattern(c.pattern, opt, workload_.MakeSourceFactory());
        ASSERT_TRUE(compiled.ok()) << compiled.status();
        auto total = std::make_shared<std::atomic<int64_t>>(0);
        int joins = 0;
        for (NodeId id = 0; id < compiled->graph.num_nodes(); ++id) {
          JobGraph::Node& node = compiled->graph.mutable_node(id);
          if (node.is_source() ||
              dynamic_cast<SlidingWindowJoinOperator*>(node.op.get()) ==
                  nullptr) {
            continue;
          }
          node.op = std::make_unique<PairCountingJoin>(std::move(node.op),
                                                       total);
          ++joins;
        }
        ASSERT_EQ(joins, 2) << c.name;
        ThreadedExecutorOptions options;
        options.watermark_interval = watermark_interval;
        ThreadedExecutor executor(&compiled->graph, options);
        ExecutionResult result = executor.Run(compiled->sink);
        ASSERT_TRUE(result.ok) << c.name << ": " << result.error;
        ASSERT_GT(total->load(), 0) << c.name;
        if (reference < 0) reference = total->load();
        EXPECT_EQ(total->load(), reference)
            << c.name << " parallelism=" << parallelism
            << " watermark_interval=" << watermark_interval;
      }
    }
  }
}

TEST_F(InvarianceTest, StateSamplingDoesNotChangeResults) {
  Pattern p = Seq3();
  ExecutorOptions sampled;
  sampled.state_sample_interval = 64;
  sampled.watermark_interval = 32;
  ExecutorOptions unsampled;
  unsampled.state_sample_interval = 0;
  unsampled.watermark_interval = 32;
  EXPECT_EQ(RunWithExecutorOptions(p, sampled),
            RunWithExecutorOptions(p, unsampled));
}

TEST_F(InvarianceTest, InterleavedSourceOrderIrrelevantForO1) {
  // Interval-join plans are duplicate-free, so even raw emission counts
  // must be invariant to watermark cadence.
  Pattern p = Seq3();
  TranslatorOptions o1;
  o1.use_interval_join = true;
  std::vector<std::string> reference;
  for (int interval : {1, 50, 997}) {
    ExecutorOptions options;
    options.watermark_interval = interval;
    auto matches = RunWithExecutorOptions(p, options, o1);
    if (reference.empty()) reference = matches;
    EXPECT_EQ(matches, reference) << "watermark_interval=" << interval;
  }
}

}  // namespace
}  // namespace cep2asp
