#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "analysis/schedule_rules.h"
#include "asp/stateless.h"
#include "runtime/channel.h"
#include "runtime/job_graph.h"
#include "runtime/rate_limited_source.h"
#include "runtime/sink.h"
#include "runtime/slot_aligner.h"
#include "runtime/task_scheduler.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "tests/test_util.h"

namespace cep2asp {
namespace {

using test::Ev;

// Rate assertions need an optimized, uninstrumented build: debug
// invariant checks and sanitizers cost more per tuple than the offered
// rates leave.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif
#else
constexpr bool kOptimizedBuild = true;
#endif

std::vector<SimpleEvent> MakeEvents(EventTypeId type, int count,
                                    Timestamp step = 1000) {
  std::vector<SimpleEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(Ev(type, i, static_cast<Timestamp>(i) * step,
                        static_cast<double>(i)));
  }
  return events;
}

// --- WorkStealingDeque ------------------------------------------------------

class NamedTask : public Task {
 public:
  explicit NamedTask(std::string name) : name_(std::move(name)) {}
  std::string label() const override { return name_; }
  Quantum RunQuantum() override {
    Quantum q;
    q.outcome = Quantum::Outcome::kFinished;
    return q;
  }

 private:
  std::string name_;
};

TEST(WorkStealingDequeTest, OwnerPopsLifoThiefStealsFifo) {
  NamedTask a("a"), b("b"), c("c");
  WorkStealingDeque deque;
  EXPECT_TRUE(deque.EmptyHint());
  deque.PushBottom(&a);
  deque.PushBottom(&b);
  deque.PushBottom(&c);
  EXPECT_FALSE(deque.EmptyHint());
  // The owner pops its own freshest task (hot cache) ...
  EXPECT_EQ(deque.PopBottom(), &c);
  // ... while a thief takes the oldest, most overdue one.
  EXPECT_EQ(deque.StealTop(), &a);
  EXPECT_EQ(deque.PopBottom(), &b);
  EXPECT_EQ(deque.PopBottom(), nullptr);
  EXPECT_EQ(deque.StealTop(), nullptr);
  EXPECT_TRUE(deque.EmptyHint());
}

// --- TaskScheduler: credit park/unpark --------------------------------------

/// Pushes `total` data messages followed by one end marker through a
/// channel with TryPushBatch, parking on kCredit whenever the channel is
/// full — the cooperative producer protocol in miniature. Optionally idles
/// for a few quanta first so the consumer demonstrably parks on input.
class PushTask : public Task {
 public:
  PushTask(Channel* out, int total, size_t batch_size, int idle_quanta = 0)
      : out_(out),
        total_(total),
        batch_size_(batch_size),
        idle_quanta_(idle_quanta) {}

  std::string label() const override { return "push"; }

  Quantum RunQuantum() override {
    Quantum q;
    if (idle_quanta_ > 0) {
      --idle_quanta_;
      q.outcome = Quantum::Outcome::kYielded;
      return q;
    }
    while (q.batches < 4) {
      if (pending_.empty()) {
        if (sent_ >= total_ && end_sent_) {
          q.outcome = Quantum::Outcome::kFinished;
          return q;
        }
        while (sent_ < total_ && pending_.size() < batch_size_) {
          pending_.push_back(
              Message::Data(0, Tuple(Ev(0, sent_, sent_ * 1000))));
          ++sent_;
        }
        if (sent_ >= total_ && !end_sent_) {
          pending_.push_back(
              Message::Control(MessageKind::kEnd, 0, kMaxTimestamp));
          end_sent_ = true;
        }
      }
      const TryPush result = out_->TryPushBatch(&pending_, first_attempt_);
      if (result == TryPush::kBlocked) {
        first_attempt_ = false;
        q.outcome = Quantum::Outcome::kWaiting;
        q.wait_kind = WakeKind::kCredit;
        return q;
      }
      first_attempt_ = true;
      ++q.batches;
      if (result == TryPush::kClosed) {
        q.outcome = Quantum::Outcome::kFinished;
        return q;
      }
    }
    q.outcome = Quantum::Outcome::kYielded;
    return q;
  }

 private:
  Channel* out_;
  const int total_;
  const size_t batch_size_;
  int idle_quanta_;
  int sent_ = 0;
  bool end_sent_ = false;
  bool first_attempt_ = true;
  MessageBatch pending_;
};

/// Drains a channel with TryPopBatch, parking on kInput when it runs
/// empty, finishing on the end marker — the cooperative consumer protocol
/// in miniature.
class PopTask : public Task {
 public:
  explicit PopTask(Channel* in) : in_(in) {}

  std::string label() const override { return "pop"; }

  Quantum RunQuantum() override {
    Quantum q;
    while (q.batches < 4) {
      bool eos = false;
      const size_t popped = in_->TryPopBatch(&scratch_, 8, &eos);
      if (popped == 0) {
        if (eos) {
          q.outcome = Quantum::Outcome::kFinished;
          return q;
        }
        q.outcome = Quantum::Outcome::kWaiting;
        q.wait_kind = WakeKind::kInput;
        return q;
      }
      ++q.batches;
      for (const Message& msg : scratch_) {
        if (msg.kind == MessageKind::kEnd) {
          q.outcome = Quantum::Outcome::kFinished;
          return q;
        }
        received_ids.push_back(msg.tuple.event(0).id);
      }
    }
    q.outcome = Quantum::Outcome::kYielded;
    return q;
  }

  std::vector<int64_t> received_ids;

 private:
  Channel* in_;
  MessageBatch scratch_;
};

/// Wires a channel's readiness hooks to the scheduler the way the
/// executor does: a push wakes the consumer, a freed slot credits the
/// producer.
void WireHooks(Channel* channel, TaskScheduler* scheduler, Task* producer,
               Task* consumer) {
  channel->SetReadinessHooks(
      [scheduler, consumer] { scheduler->Wake(consumer, WakeKind::kInput); },
      [scheduler, producer] { scheduler->Wake(producer, WakeKind::kCredit); });
}

TEST(TaskSchedulerTest, CreditParkUnparkResumesProducerExactlyOnce) {
  // Channel capacity far below the message count forces the producer to
  // park on credits repeatedly; every park must be matched by exactly one
  // unpark or the run either deadlocks (lost wake) or double-enqueues.
  for (const bool spsc : {false, true}) {
    // Fan-in selects the channel: 1 gets the SPSC ring, 2 the MPMC queue
    // (one producer task drives either).
    std::unique_ptr<Channel> channel = MakeChannel(
        /*num_producers=*/spsc ? 1 : 2, /*capacity_messages=*/8);
    PushTask producer(channel.get(), /*total=*/500, /*batch_size=*/16);
    PopTask consumer(channel.get());
    TaskScheduler scheduler(2);
    WireHooks(channel.get(), &scheduler, &producer, &consumer);
    scheduler.Run({&producer, &consumer});

    ASSERT_EQ(consumer.received_ids.size(), 500u) << "spsc=" << spsc;
    for (int i = 0; i < 500; ++i) {
      EXPECT_EQ(consumer.received_ids[i], i) << "spsc=" << spsc;
    }
    const SchedulerStats stats = scheduler.ConsumeStats(4);
    EXPECT_GT(stats.total_parks(), 0) << "spsc=" << spsc;
    EXPECT_EQ(stats.total_parks(), stats.total_unparks()) << "spsc=" << spsc;
  }
}

TEST(TaskSchedulerTest, ParkedConsumerShutsDownCleanlyAtEndOfStream) {
  // The producer idles long enough for the consumer to drain nothing and
  // park on input; the end marker must wake it and the scheduler must
  // retire both tasks without leaking a parked task.
  std::unique_ptr<Channel> channel = MakeChannel(1, 64);
  PushTask producer(channel.get(), /*total=*/10, /*batch_size=*/4,
                    /*idle_quanta=*/50);
  PopTask consumer(channel.get());
  TaskScheduler scheduler(2);
  WireHooks(channel.get(), &scheduler, &producer, &consumer);
  scheduler.Run({&producer, &consumer});

  EXPECT_EQ(consumer.received_ids.size(), 10u);
  const SchedulerStats stats = scheduler.ConsumeStats(4);
  EXPECT_EQ(stats.total_parks(), stats.total_unparks());
}

// --- SlotAligner ------------------------------------------------------------

TEST(SlotAlignerTest, MinAlignsWatermarksAndCountsEnds) {
  SlotAligner aligner(2);
  Timestamp aligned = kMinTimestamp;
  // One slot advancing alone never advances the minimum.
  EXPECT_FALSE(aligner.OnWatermark(0, 100, &aligned));
  // The lagging slot catching up advances the alignment to the minimum.
  EXPECT_TRUE(aligner.OnWatermark(1, 50, &aligned));
  EXPECT_EQ(aligned, 50);
  EXPECT_TRUE(aligner.OnWatermark(1, 200, &aligned));
  EXPECT_EQ(aligned, 100);
  // A stale watermark (out-of-order duplicate) changes nothing.
  EXPECT_FALSE(aligner.OnWatermark(0, 90, &aligned));

  EXPECT_FALSE(aligner.OnEnd());
  EXPECT_FALSE(aligner.done());
  EXPECT_TRUE(aligner.OnEnd());
  EXPECT_TRUE(aligner.done());
}

// --- ThreadedExecutor on the task scheduler ---------------------------------

TEST(ThreadedExecutorTest, SchedulerStatsSurfacedInResult) {
  auto build = [](CollectSink** sink_out) {
    auto graph = std::make_unique<JobGraph>();
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 2000)));
    NodeId filter = graph->AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value >= 100; }));
    auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
    *sink_out = sink_op.get();
    graph->AddOperatorAfter(filter, std::move(sink_op));
    return graph;
  };

  CollectSink* sink = nullptr;
  auto graph = build(&sink);
  ThreadedExecutorOptions options;
  options.worker_threads = 2;
  ThreadedExecutor executor(graph.get(), options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 1900);

  EXPECT_TRUE(result.scheduler.used);
  EXPECT_EQ(result.scheduler.worker_threads, 2);
  ASSERT_EQ(result.scheduler.workers.size(), 2u);
  EXPECT_GE(result.scheduler.num_tasks, 2);  // source + chain subtask
  EXPECT_GT(result.scheduler.total_tasks_run(), 0);
  EXPECT_GT(result.scheduler.total_batches(), 0);
  EXPECT_EQ(result.scheduler.total_parks(), result.scheduler.total_unparks());
  EXPECT_GT(result.scheduler.quantum_utilization(), 0.0);
  EXPECT_LE(result.scheduler.quantum_utilization(), 1.0);
  EXPECT_NE(result.scheduler.ToString().find("workers=2"), std::string::npos);
}

TEST(ThreadedExecutorTest, RateLimitedSourceDoesNotStarveCoScheduledTasks) {
  // One worker, two pipelines: a paced source (parks on the scheduler
  // timer between tuples) union-merged with a large eager source. Under
  // the old sleep-in-Next behavior the single worker would spend the
  // pacing gaps blocked; cooperative pacing must instead run the eager
  // pipeline during the gaps and still deliver everything.
  JobGraph graph;
  NodeId slow = graph.AddSource(std::make_unique<RateLimitedSource>(
      std::make_unique<VectorSource>("slow", MakeEvents(0, 40)), 2000.0));
  NodeId fast = graph.AddSource(
      std::make_unique<VectorSource>("fast", MakeEvents(1, 5000)));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(slow, u, 0).ok());
  ASSERT_TRUE(graph.Connect(fast, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));

  ThreadedExecutorOptions options;
  options.worker_threads = 1;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 5040);
  // The pacing ran through the scheduler timer, not a blocking sleep.
  EXPECT_GT(result.scheduler.timer_parks, 0);
  EXPECT_EQ(result.scheduler.total_parks(), result.scheduler.total_unparks());
}

TEST(ThreadedExecutorTest, PacedSourcesSharingOneWorkerKeepTheirRate) {
  // Three sources offered 50k tuples/s each on a single worker: every
  // pacing gap (20 us) is below the scheduler's park slack, so the task
  // emits without parking — and Next() must not sleep either, or sleep
  // granularity instead of the offered rate sets the delivered rate and
  // the three sources serialize their sleeps on the one worker.
  constexpr int kSources = 3;
  constexpr int kPerSource = 20000;
  constexpr double kRate = 50000.0;
  JobGraph graph;
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(kSources));
  for (int s = 0; s < kSources; ++s) {
    NodeId src = graph.AddSource(std::make_unique<RateLimitedSource>(
        std::make_unique<VectorSource>(
            "paced" + std::to_string(s),
            MakeEvents(static_cast<EventTypeId>(s), kPerSource)),
        kRate));
    ASSERT_TRUE(graph.Connect(src, u, s).ok());
  }
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));

  ThreadedExecutorOptions options;
  options.worker_threads = 1;
  ThreadedExecutor executor(&graph, options);
  const auto start = std::chrono::steady_clock::now();
  ExecutionResult result = executor.Run(sink);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, kSources * kPerSource);
  if (!kOptimizedBuild) return;  // one worker cannot carry 150k tuples/s
  const double delivered = kSources * kPerSource / elapsed.count();
  EXPECT_GE(delivered, 0.9 * kSources * kRate)
      << "delivered " << delivered << " tuples/s of " << kSources * kRate
      << " offered";
}

/// Replays `events` without ever sleeping and reports no pacing deadline
/// for its first `unpaced` tuples; from then on each tuple is due
/// `gap_nanos` after the previous one, anchored at the first paced tuple.
class LatePacedSource : public Source {
 public:
  LatePacedSource(std::vector<SimpleEvent> events, int unpaced,
                  int64_t gap_nanos)
      : inner_("late-paced", std::move(events)),
        unpaced_(unpaced),
        gap_nanos_(gap_nanos) {}

  std::string name() const override { return inner_.name(); }

  bool Next(Tuple* tuple) override {
    if (!inner_.Next(tuple)) return false;
    if (++emitted_ == unpaced_) anchor_ = SystemClock::Get()->NowNanos();
    return true;
  }

  Timestamp CurrentWatermark() const override {
    return inner_.CurrentWatermark();
  }

  int64_t PacingDeadlineNanos() const override {
    if (emitted_ < unpaced_) return 0;
    return anchor_ + (emitted_ - unpaced_) * gap_nanos_;
  }

 private:
  VectorSource inner_;
  const int64_t unpaced_;
  const int64_t gap_nanos_;
  int64_t emitted_ = 0;
  int64_t anchor_ = 0;
};

TEST(ThreadedExecutorTest, SourceThatStartsPacingLateKeepsItsSchedule) {
  // Two full batches without a deadline must not switch the source to the
  // unpaced path for good: once it reports deadlines, its tuples are
  // delivered on schedule (20k tuples/s here), not as fast as Next() runs.
  constexpr int kUnpaced = 128;
  constexpr int kPaced = 2000;
  constexpr int64_t kGapNanos = 50'000;  // 20k tuples/s
  JobGraph graph;
  NodeId src = graph.AddSource(std::make_unique<LatePacedSource>(
      MakeEvents(0, kUnpaced + kPaced), kUnpaced, kGapNanos));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));

  ThreadedExecutorOptions options;
  options.worker_threads = 1;
  ThreadedExecutor executor(&graph, options);
  const auto start = std::chrono::steady_clock::now();
  ExecutionResult result = executor.Run(sink);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, kUnpaced + kPaced);
  const double span_seconds = static_cast<double>(kPaced) * 1e-9 *
                              static_cast<double>(kGapNanos);
  EXPECT_GE(elapsed.count(), 0.8 * span_seconds)
      << "paced tuples were delivered ahead of their schedule";
  EXPECT_GT(result.scheduler.timer_parks, 0);
}

TEST(ThreadedExecutorTest, OversubscribedParallelismCompletesOnOneWorker) {
  // More tasks than workers: P=4 hash stage + source + sink chains all
  // multiplex onto a single worker thread. Completion proves parking and
  // credits compose (no worker ever blocks on a full or empty channel).
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 2000)));
  NodeId keyed = graph.AddOperatorAfter(
      src, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId mapped = graph.AddOperator(
      std::make_unique<MapOperator>([](Tuple t) { return t; }, "identity"));
  ASSERT_TRUE(graph.Connect(keyed, mapped, 0, PartitionMode::kHash).ok());
  ASSERT_TRUE(graph.SetParallelism(mapped, 4).ok());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(mapped, std::move(sink_op));

  ThreadedExecutorOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 64;  // small channels exercise credit parking
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 2000);
  EXPECT_TRUE(result.scheduler.used);
  EXPECT_GE(result.scheduler.num_tasks, 6);  // src + keyed-chain + 4 + sink
}

// --- Schedule layout -------------------------------------------------------

JobGraph MakeParallelGraph(int parallelism) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 10)));
  NodeId keyed = graph.AddOperatorAfter(
      src, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId mapped = graph.AddOperator(
      std::make_unique<MapOperator>([](Tuple t) { return t; }, "identity"));
  EXPECT_TRUE(graph.Connect(keyed, mapped, 0, PartitionMode::kHash).ok());
  EXPECT_TRUE(graph.SetParallelism(mapped, parallelism).ok());
  graph.AddOperatorAfter(mapped, std::make_unique<CollectSink>(false));
  return graph;
}

TEST(ScheduleRulesTest, ScheduleToStringListsEveryTask) {
  JobGraph graph = MakeParallelGraph(2);
  const std::string layout =
      ScheduleToString(graph, /*worker_threads=*/2);
  EXPECT_NE(layout.find("source s"), std::string::npos);
  EXPECT_NE(layout.find("subtask 0"), std::string::npos);
  EXPECT_NE(layout.find("subtask 1"), std::string::npos);
  EXPECT_NE(layout.find("tasks: 5, worker pool: 2"), std::string::npos)
      << layout;
}

}  // namespace
}  // namespace cep2asp
