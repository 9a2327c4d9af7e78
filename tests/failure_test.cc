// Failure injection: operator errors, simulated memory exhaustion, and
// mid-pipeline faults must surface as clean job failures in both
// executors (no hangs, no silent data loss). In the ThreadedExecutor every
// fault unwinds the same way: the first error closes every channel and
// wakes every parked task.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "asp/sliding_window_join.h"
#include "asp/stateless.h"
#include "runtime/executor.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "tests/test_util.h"

namespace cep2asp {
namespace {

using test::Ev;

std::vector<SimpleEvent> MakeEvents(int count) {
  std::vector<SimpleEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(Ev(0, 1, i * 1000, i));
  }
  return events;
}

/// Fails after processing `fail_after` tuples.
class FaultyOperator : public Operator {
 public:
  explicit FaultyOperator(int fail_after) : fail_after_(fail_after) {}

  std::string name() const override { return "faulty"; }

  Status Process(int, Tuple tuple, Collector* out) override {
    if (++processed_ > fail_after_) {
      return Status::Internal("injected operator fault");
    }
    out->Emit(std::move(tuple));
    return Status::OK();
  }

 private:
  int fail_after_;
  int processed_ = 0;
};

/// Fails in Open().
class BadOpenOperator : public Operator {
 public:
  std::string name() const override { return "bad-open"; }
  Status Open() override { return Status::FailedPrecondition("cannot open"); }
  Status Process(int, Tuple, Collector*) override { return Status::OK(); }
};

/// Pass-through operator for parallel stages: the prototype is subtask 0
/// and each CloneForSubtask() takes the next subtask index (the executor
/// clones subtasks 1..P-1 in order). Process fails in subtask
/// `fail_subtask` after `fail_after` tuples; Open fails in every clone when
/// `fail_open_in_clones` is set.
class SubtaskFaultOperator : public Operator {
 public:
  SubtaskFaultOperator(int fail_subtask, int fail_after,
                       bool fail_open_in_clones)
      : SubtaskFaultOperator(fail_subtask, fail_after, fail_open_in_clones,
                             std::make_shared<std::atomic<int>>(0), 0) {}

  std::string name() const override { return "subtask-fault"; }

  Status Open() override {
    if (fail_open_in_clones_ && subtask_ > 0) {
      return Status::FailedPrecondition("clone cannot open");
    }
    return Status::OK();
  }

  Status Process(int, Tuple tuple, Collector* out) override {
    if (subtask_ == fail_subtask_ && ++processed_ > fail_after_) {
      return Status::Internal("injected fault in subtask " +
                              std::to_string(subtask_));
    }
    out->Emit(std::move(tuple));
    return Status::OK();
  }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    return std::unique_ptr<Operator>(new SubtaskFaultOperator(
        fail_subtask_, fail_after_, fail_open_in_clones_, clones_,
        clones_->fetch_add(1) + 1));
  }

 private:
  SubtaskFaultOperator(int fail_subtask, int fail_after,
                       bool fail_open_in_clones,
                       std::shared_ptr<std::atomic<int>> clones, int subtask)
      : fail_subtask_(fail_subtask),
        fail_after_(fail_after),
        fail_open_in_clones_(fail_open_in_clones),
        clones_(std::move(clones)),
        subtask_(subtask) {}

  int fail_subtask_;
  int fail_after_;
  bool fail_open_in_clones_;
  std::shared_ptr<std::atomic<int>> clones_;
  int subtask_;
  int processed_ = 0;
};

/// Pass-through operator whose OnWatermark fails.
class WatermarkFaultOperator : public Operator {
 public:
  std::string name() const override { return "watermark-fault"; }
  Status Process(int, Tuple tuple, Collector* out) override {
    out->Emit(std::move(tuple));
    return Status::OK();
  }
  Status OnWatermark(Timestamp, Collector*) override {
    return Status::Internal("injected watermark fault");
  }
};

/// source -> key by id -> hash -> `op` at parallelism 4 -> sink, over
/// `events` events spread across 64 ids.
JobGraph BuildParallelGraph(std::unique_ptr<Operator> op, int events,
                            CollectSink** sink_out) {
  std::vector<SimpleEvent> input;
  for (int i = 0; i < events; ++i) input.push_back(Ev(0, i % 64, i * 1000, i));
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", std::move(input)));
  NodeId keyed = graph.AddOperatorAfter(
      src, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId parallel = graph.AddOperator(std::move(op));
  CEP2ASP_CHECK_OK(graph.Connect(keyed, parallel, 0, PartitionMode::kHash));
  CEP2ASP_CHECK_OK(graph.SetParallelism(parallel, 4));
  auto sink = std::make_unique<CollectSink>(/*store_tuples=*/false);
  *sink_out = sink.get();
  graph.AddOperatorAfter(parallel, std::move(sink));
  return graph;
}

JobGraph BuildFaultyGraph(int fail_after, CollectSink** sink_out,
                          int events = 1000) {
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(events)));
  NodeId faulty = graph.AddOperatorAfter(
      src, std::make_unique<FaultyOperator>(fail_after));
  auto sink = std::make_unique<CollectSink>();
  *sink_out = sink.get();
  graph.AddOperatorAfter(faulty, std::move(sink));
  return graph;
}

TEST(FailureTest, OperatorFaultStopsSingleThreadedRun) {
  CollectSink* sink = nullptr;
  JobGraph graph = BuildFaultyGraph(100, &sink);
  ExecutionResult result = RunJob(&graph, sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("injected operator fault"), std::string::npos);
  EXPECT_NE(result.error.find("faulty"), std::string::npos)
      << "error should name the failing operator";
  EXPECT_EQ(sink->count(), 100);
}

TEST(FailureTest, OperatorFaultStopsThreadedRunWithoutDeadlock) {
  CollectSink* sink = nullptr;
  JobGraph graph = BuildFaultyGraph(100, &sink, /*events=*/100000);
  ThreadedExecutorOptions options;
  options.queue_capacity = 16;  // small queues: producers park quickly
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("injected operator fault"), std::string::npos);
}

TEST(FailureTest, ProcessFaultInOneSubtaskUnwindsCreditParkedProducers) {
  // Subtask 2 of a P=4 hash stage fails mid-run. Four-message channels
  // keep the key stage parked on credits most of the time, so the unwind
  // must wake producers parked on the failed subtask's full channel.
  CollectSink* sink = nullptr;
  JobGraph graph = BuildParallelGraph(
      std::make_unique<SubtaskFaultOperator>(/*fail_subtask=*/2,
                                             /*fail_after=*/100,
                                             /*fail_open_in_clones=*/false),
      /*events=*/100000, &sink);
  ThreadedExecutorOptions options;
  options.queue_capacity = 4;
  options.worker_threads = 2;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("injected fault in subtask 2"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("subtask-fault"), std::string::npos)
      << "error should name the failing operator: " << result.error;
  EXPECT_LT(sink->count(), 100000);
}

TEST(FailureTest, OpenFailureInCloneReported) {
  // Subtask 0 opens; the clones for subtasks 1..3 fail. The tasks that did
  // open, and the source feeding the closed channels, must all terminate.
  CollectSink* sink = nullptr;
  JobGraph graph = BuildParallelGraph(
      std::make_unique<SubtaskFaultOperator>(/*fail_subtask=*/-1,
                                             /*fail_after=*/0,
                                             /*fail_open_in_clones=*/true),
      /*events=*/10000, &sink);
  ThreadedExecutorOptions options;
  options.queue_capacity = 4;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("clone cannot open"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("subtask-fault"), std::string::npos)
      << "error should name the failing operator: " << result.error;
}

TEST(FailureTest, WatermarkFaultInChainInteriorReported) {
  // pass -> watermark-fault -> sink fuse into one chain; the interior
  // operator fails on the first watermark the chain cascades.
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(10000)));
  NodeId pass = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  NodeId faulty = graph.AddOperatorAfter(
      pass, std::make_unique<WatermarkFaultOperator>());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(faulty, std::move(sink_op));
  const ChainLayout layout = ComputeChainLayout(graph);
  ASSERT_EQ(layout.chain_of[static_cast<size_t>(pass)],
            layout.chain_of[static_cast<size_t>(faulty)]);
  ASSERT_FALSE(layout.is_head(faulty));

  ThreadedExecutorOptions options;
  options.queue_capacity = 4;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("injected watermark fault"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("watermark-fault"), std::string::npos)
      << "error should name the failing operator: " << result.error;
}

TEST(FailureTest, OpenFailureReportedBeforeProcessing) {
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(10)));
  NodeId bad = graph.AddOperatorAfter(src, std::make_unique<BadOpenOperator>());
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(bad, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
  EXPECT_EQ(sink->count(), 0);
}

TEST(FailureTest, InvalidWindowSpecRejectedAtOpen) {
  JobGraph graph;
  NodeId l = graph.AddSource(std::make_unique<VectorSource>("l", MakeEvents(1)));
  NodeId r = graph.AddSource(std::make_unique<VectorSource>("r", MakeEvents(1)));
  // slide > size is invalid.
  NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{100, 500}, Predicate(), TimestampMode::kMax));
  CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
  CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(join, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  EXPECT_FALSE(result.ok);
}

TEST(FailureTest, MemoryLimitAbortsMidRun) {
  // A join with an enormous window accumulates state until the budget
  // trips — the simulated OOM of §5.2.3.
  std::vector<SimpleEvent> left, right;
  for (int i = 0; i < 50000; ++i) {
    left.push_back(Ev(0, 1, i, 1));
    right.push_back(Ev(1, 1, i, 2));
  }
  JobGraph graph;
  NodeId l = graph.AddSource(std::make_unique<VectorSource>("l", left));
  NodeId r = graph.AddSource(std::make_unique<VectorSource>("r", right));
  NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
      SlidingWindowSpec{kMillisPerMinute * 60 * 24, kMillisPerMinute},
      Predicate(), TimestampMode::kMax));
  CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
  CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(join, std::move(sink_op));

  ExecutorOptions options;
  options.memory_limit_bytes = 256 * 1024;
  ExecutionResult result = RunJob(&graph, sink, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ResourceExhausted"), std::string::npos);
  EXPECT_GT(result.peak_state_bytes, options.memory_limit_bytes);
}

TEST(FailureTest, TranslationFailuresAreStatusesNotCrashes) {
  EventTypeId t = EventTypeRegistry::Global()->RegisterOrGet("FailT");
  // Pattern without window.
  auto no_window = PatternBuilder()
                       .Seq(PatternBuilder::Atom(t, "a"),
                            PatternBuilder::Atom(t, "b"))
                       .Build();
  EXPECT_FALSE(no_window.ok());

  // FCEP on AND: Unimplemented, not a crash.
  Pattern conj = PatternBuilder()
                     .And(PatternBuilder::Atom(t, "a"),
                          PatternBuilder::Atom(t, "b"))
                     .Within(kMillisPerMinute)
                     .Build()
                     .ValueOrDie();
  auto cep = BuildCepJob(
      conj, [](EventTypeId) -> std::unique_ptr<Source> { return nullptr; });
  EXPECT_TRUE(cep.status().IsUnimplemented());
}

}  // namespace
}  // namespace cep2asp
