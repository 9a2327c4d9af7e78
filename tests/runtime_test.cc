#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "analysis/chain_rules.h"
#include "asp/compiled_stateless.h"
#include "asp/sliding_window_join.h"
#include "asp/stateless.h"
#include "event/expr_program.h"
#include "harness/bench_util.h"
#include "runtime/bounded_queue.h"
#include "runtime/channel.h"
#include "runtime/executor.h"
#include "runtime/job_graph.h"
#include "runtime/rate_limited_source.h"
#include "runtime/sink.h"
#include "runtime/spsc_ring.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "tests/test_util.h"

namespace cep2asp {
namespace {

using test::Ev;

std::vector<SimpleEvent> MakeEvents(EventTypeId type, int count,
                                    Timestamp step = 1000) {
  std::vector<SimpleEvent> events;
  for (int i = 0; i < count; ++i) {
    events.push_back(Ev(type, i, static_cast<Timestamp>(i) * step,
                        static_cast<double>(i)));
  }
  return events;
}

// --- BoundedQueue -----------------------------------------------------------

/// Offers `*items` once and erases the prefix the container took, the way
/// Channel::TryPushBatch drives TryPushN.
template <typename Container, typename T>
size_t TryPushAndErase(Container* c, std::vector<T>* items, bool* closed) {
  const size_t moved = c->TryPushN(items->data(), items->size(), closed);
  items->erase(items->begin(), items->begin() + static_cast<ptrdiff_t>(moved));
  return moved;
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  std::vector<int> batch = {1, 2, 3};
  bool closed = true;
  ASSERT_EQ(TryPushAndErase(&q, &batch, &closed), 3u);
  EXPECT_FALSE(closed);
  EXPECT_TRUE(batch.empty());
  std::vector<int> popped;
  bool eos = true;
  ASSERT_EQ(q.TryPopN(&popped, 2, &eos), 2u);
  EXPECT_FALSE(eos);
  EXPECT_EQ(popped, (std::vector<int>{1, 2}));
  ASSERT_EQ(q.TryPopN(&popped, 64, &eos), 1u);
  EXPECT_EQ(popped, (std::vector<int>{3}));
  // Momentarily empty, not end of stream.
  EXPECT_EQ(q.TryPopN(&popped, 64, &eos), 0u);
  EXPECT_FALSE(eos);
}

TEST(BoundedQueueTest, TryPushTakesPrefixUpToCapacityInItems) {
  BoundedQueue<int> q(4);
  std::vector<int> batch = {1, 2, 3};
  bool closed = false;
  ASSERT_EQ(TryPushAndErase(&q, &batch, &closed), 3u);
  // Only one item of free capacity: the push takes a one-item prefix and
  // leaves the suffix with the caller, in order.
  batch = {4, 5, 6};
  ASSERT_EQ(TryPushAndErase(&q, &batch, &closed), 1u);
  EXPECT_EQ(batch, (std::vector<int>{5, 6}));
  EXPECT_EQ(TryPushAndErase(&q, &batch, &closed), 0u);  // full
  EXPECT_FALSE(closed);
  std::vector<int> popped;
  bool eos = false;
  ASSERT_EQ(q.TryPopN(&popped, 64, &eos), 4u);
  EXPECT_EQ(popped, (std::vector<int>{1, 2, 3, 4}));
  ASSERT_EQ(TryPushAndErase(&q, &batch, &closed), 2u);
  ASSERT_EQ(q.TryPopN(&popped, 64, &eos), 2u);
  EXPECT_EQ(popped, (std::vector<int>{5, 6}));
}

TEST(BoundedQueueTest, OversizedBatchDrainsOverSeveralCalls) {
  BoundedQueue<int> q(2);
  std::vector<int> batch = {1, 2, 3, 4, 5};
  std::vector<int> received;
  std::vector<int> popped;
  bool closed = false;
  bool eos = false;
  int rounds = 0;
  while (!batch.empty()) {
    ASSERT_GT(TryPushAndErase(&q, &batch, &closed), 0u);
    ASSERT_GT(q.TryPopN(&popped, 64, &eos), 0u);
    received.insert(received.end(), popped.begin(), popped.end());
    ++rounds;
  }
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rounds, 3);
}

TEST(BoundedQueueTest, CloseDrainsThenReportsEndOfStream) {
  BoundedQueue<int> q(8);
  std::vector<int> batch = {7, 8};
  bool closed = false;
  ASSERT_EQ(TryPushAndErase(&q, &batch, &closed), 2u);
  q.Close();
  std::vector<int> popped;
  bool eos = false;
  EXPECT_EQ(q.TryPopN(&popped, 64, &eos), 2u);
  EXPECT_FALSE(eos);
  EXPECT_EQ(popped, (std::vector<int>{7, 8}));
  EXPECT_EQ(q.TryPopN(&popped, 64, &eos), 0u);
  EXPECT_TRUE(eos);
  // A push after close is rejected and reports the close.
  batch = {9};
  EXPECT_EQ(TryPushAndErase(&q, &batch, &closed), 0u);
  EXPECT_TRUE(closed);
  EXPECT_EQ(batch, (std::vector<int>{9}));
}

TEST(BoundedQueueTest, CrossThreadTransferPreservesOrder) {
  BoundedQueue<int> q(16);
  constexpr int kCount = 20000;
  std::thread producer([&q] {
    std::vector<int> batch;
    bool closed = false;
    for (int i = 0; i < kCount; ++i) {
      batch.push_back(i);
      if (batch.size() < 7 && i + 1 < kCount) continue;
      while (!batch.empty()) {
        if (TryPushAndErase(&q, &batch, &closed) == 0) {
          std::this_thread::yield();
        }
      }
    }
    q.Close();
  });
  std::vector<int> popped;
  int expected = 0;
  bool eos = false;
  while (!eos) {
    if (q.TryPopN(&popped, 13, &eos) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (int v : popped) EXPECT_EQ(v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

// --- SpscRing ----------------------------------------------------------------

TEST(SpscRingTest, FifoOrderWithWraparound) {
  SpscRing<int> ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  int next_push = 0, next_pop = 0;
  std::vector<int> batch;
  std::vector<int> popped;
  bool closed = false;
  bool eos = false;
  // Push/pop interleaved so the indices wrap the ring many times.
  for (int round = 0; round < 100; ++round) {
    batch = {next_push, next_push + 1, next_push + 2};
    next_push += 3;
    ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 3u);
    ASSERT_EQ(ring.TryPopN(&popped, 3, &eos), 3u);
    for (int v : popped) EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(ring.TryPopN(&popped, 3, &eos), 0u);
  EXPECT_FALSE(eos);
}

TEST(SpscRingTest, TryPushTakesPrefixWhenFull) {
  SpscRing<int> ring(4);
  std::vector<int> batch = {0, 1, 2};
  bool closed = false;
  ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 3u);
  batch = {3, 4, 5};
  ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 1u);
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));
  EXPECT_EQ(TryPushAndErase(&ring, &batch, &closed), 0u);  // full
  EXPECT_FALSE(closed);
  std::vector<int> popped;
  bool eos = false;
  ASSERT_EQ(ring.TryPopN(&popped, 64, &eos), 4u);
  EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 2u);
  ASSERT_EQ(ring.TryPopN(&popped, 64, &eos), 2u);
  EXPECT_EQ(popped, (std::vector<int>{4, 5}));
}

TEST(SpscRingTest, CrossThreadTransferPreservesOrder) {
  SpscRing<int64_t> ring(64);
  constexpr int64_t kCount = 20000;
  std::thread producer([&ring] {
    std::vector<int64_t> batch;
    bool closed = false;
    for (int64_t i = 0; i < kCount; ++i) {
      batch.push_back(i);
      if (batch.size() < 7 && i + 1 < kCount) continue;
      while (!batch.empty()) {
        if (TryPushAndErase(&ring, &batch, &closed) == 0) {
          std::this_thread::yield();
        }
      }
    }
    ring.Close();
  });
  std::vector<int64_t> popped;
  int64_t expected = 0;
  bool eos = false;
  while (!eos) {
    if (ring.TryPopN(&popped, 13, &eos) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (int64_t v : popped) EXPECT_EQ(v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

TEST(SpscRingTest, CloseDrainsThenReportsEndOfStream) {
  SpscRing<int> ring(4);
  std::vector<int> batch = {0, 1, 2, 3, 4, 5};
  bool closed = false;
  ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 4u);
  ring.Close();
  // A push after close is rejected; the unmoved suffix stays with the
  // caller.
  EXPECT_EQ(TryPushAndErase(&ring, &batch, &closed), 0u);
  EXPECT_TRUE(closed);
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));
  // The consumer still drains everything published before the close.
  std::vector<int> popped;
  bool eos = false;
  ASSERT_EQ(ring.TryPopN(&popped, 64, &eos), 4u);
  EXPECT_FALSE(eos);
  EXPECT_EQ(popped, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.TryPopN(&popped, 64, &eos), 0u);
  EXPECT_TRUE(eos);
}

// --- Ring storage (both containers) ------------------------------------------

/// Names a channel container template so one typed suite covers both.
template <template <typename> class C>
struct Container {
  template <typename T>
  using Of = C<T>;
};

template <typename TypeParam>
class RingStorageTest : public ::testing::Test {};
using RingContainers =
    ::testing::Types<Container<BoundedQueue>, Container<SpscRing>>;
TYPED_TEST_SUITE(RingStorageTest, RingContainers);

TYPED_TEST(RingStorageTest, FifoAcrossWrapsAtNonPowerOfTwoCapacity) {
  // Capacity 5 sits on 8 slots of storage: the bound must stay 5, and
  // order must survive the storage wrapping around several times.
  typename TypeParam::template Of<int> ring(5);
  int next_push = 0, next_pop = 0;
  std::vector<int> batch, popped;
  bool closed = false;
  bool eos = false;
  for (int round = 0; round < 12; ++round) {
    // Offer more than fits: the push takes exactly the free capacity.
    batch.clear();
    for (int i = 0; i < 7; ++i) batch.push_back(next_push + i);
    const size_t in_flight = static_cast<size_t>(next_push - next_pop);
    const size_t moved = TryPushAndErase(&ring, &batch, &closed);
    ASSERT_EQ(moved, 5 - in_flight) << "round " << round;
    next_push += static_cast<int>(moved);
    EXPECT_EQ(TryPushAndErase(&ring, &batch, &closed), 0u) << "full at 5";
    ASSERT_EQ(ring.TryPopN(&popped, 3, &eos), 3u);
    for (int v : popped) EXPECT_EQ(v, next_pop++);
  }
  EXPECT_GE(next_push, 3 * 8) << "fewer than 3 wraps of the 8-slot storage";
  ASSERT_EQ(ring.TryPopN(&popped, 64, &eos), 2u);
  for (int v : popped) EXPECT_EQ(v, next_pop++);
  EXPECT_EQ(next_pop, next_push);
  EXPECT_FALSE(eos);
}

TYPED_TEST(RingStorageTest, PopAndDestructionReleasePayloads) {
  auto payload = std::make_shared<int>(7);
  std::vector<std::shared_ptr<int>> batch, popped;
  bool closed = false;
  bool eos = false;
  {
    typename TypeParam::template Of<std::shared_ptr<int>> ring(5);
    batch.assign(5, payload);
    ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 5u);
    EXPECT_EQ(payload.use_count(), 6);
    ASSERT_EQ(ring.TryPopN(&popped, 4, &eos), 4u);
    popped.clear();
    // A popped slot holds no copy of its item.
    EXPECT_EQ(payload.use_count(), 2);
    // Leave items in flight across the storage's end (positions 4..8).
    batch.assign(4, payload);
    ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 4u);
    EXPECT_EQ(payload.use_count(), 6);
  }
  // Destroying the container destroys the items still in flight.
  EXPECT_EQ(payload.use_count(), 1);
}

TYPED_TEST(RingStorageTest, CloseAfterWrapDrainsThenReportsEndOfStream) {
  typename TypeParam::template Of<int> ring(5);
  std::vector<int> batch = {0, 1, 2, 3, 4};
  std::vector<int> popped;
  bool closed = false;
  bool eos = false;
  ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 5u);
  ASSERT_EQ(ring.TryPopN(&popped, 64, &eos), 5u);
  batch = {5, 6, 7, 8};  // positions 5..8 wrap the 8-slot storage
  ASSERT_EQ(TryPushAndErase(&ring, &batch, &closed), 4u);
  ring.Close();
  batch = {9};
  EXPECT_EQ(TryPushAndErase(&ring, &batch, &closed), 0u);
  EXPECT_TRUE(closed);
  ASSERT_EQ(ring.TryPopN(&popped, 64, &eos), 4u);
  EXPECT_FALSE(eos);
  EXPECT_EQ(popped, (std::vector<int>{5, 6, 7, 8}));
  EXPECT_EQ(ring.TryPopN(&popped, 64, &eos), 0u);
  EXPECT_TRUE(eos);
}

// --- Channels ----------------------------------------------------------------

std::unique_ptr<Channel> MakeTestChannel(bool spsc) {
  return MakeChannel(spsc ? 1 : 2, /*capacity_messages=*/1024);
}

TEST(ChannelTest, SelectionByFanIn) {
  EXPECT_TRUE(MakeChannel(1, 16)->is_spsc());
  EXPECT_FALSE(MakeChannel(2, 16)->is_spsc());  // MPMC fallback
}

TEST(ChannelTest, ControlStaysBehindTuplesAcrossBatchBoundaries) {
  for (bool spsc : {false, true}) {
    auto channel = MakeTestChannel(spsc);
    ASSERT_EQ(channel->is_spsc(), spsc);
    MessageBatch batch;
    for (int i = 0; i < 5; ++i) {
      batch.push_back(Message::Data(0, Tuple(test::Ev(0, i, 1000 + i))));
    }
    batch.push_back(Message::Control(MessageKind::kWatermark, 0, 999));
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    batch.push_back(Message::Control(MessageKind::kEnd, 0, 0));
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
    channel->Close();

    // Pop with a smaller batch limit than was pushed: order must hold.
    std::vector<MessageKind> kinds;
    MessageBatch in;
    bool eos = false;
    while (channel->TryPopBatch(&in, 2, &eos) > 0) {
      for (const Message& m : in) kinds.push_back(m.kind);
    }
    EXPECT_TRUE(eos);
    ASSERT_EQ(kinds.size(), 7u) << (spsc ? "spsc" : "mpmc");
    for (int i = 0; i < 5; ++i) EXPECT_EQ(kinds[i], MessageKind::kTuple);
    EXPECT_EQ(kinds[5], MessageKind::kWatermark);
    EXPECT_EQ(kinds[6], MessageKind::kEnd);
  }
}

TEST(ChannelTest, SnapshotCountsBatchesAndMessages) {
  auto channel = MakeTestChannel(true);
  MessageBatch batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(Message::Data(0, Tuple(test::Ev(0, i, i))));
  }
  ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
  batch.push_back(Message::Data(0, Tuple(test::Ev(0, 64, 64))));
  ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kPushed);
  ChannelStats stats = channel->Snapshot("op");
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.messages, 65);
  EXPECT_EQ(stats.tuples, 65);
  EXPECT_EQ(stats.fill_hist[ChannelStats::FillBucket(64)], 1);
  EXPECT_EQ(stats.fill_hist[ChannelStats::FillBucket(1)], 1);
  EXPECT_TRUE(stats.spsc);
  EXPECT_DOUBLE_EQ(stats.avg_fill(), 32.5);
}

TEST(ChannelTest, BlockedPushRetriesCountOneLogicalBatch) {
  for (bool spsc : {false, true}) {
    auto channel = MakeChannel(spsc ? 1 : 2, /*capacity_messages=*/4);
    MessageBatch batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back(Message::Data(0, Tuple(test::Ev(0, i, i))));
    }
    // Four messages fit; the two-message suffix stays with the producer.
    ASSERT_EQ(channel->TryPushBatch(&batch), TryPush::kBlocked);
    ASSERT_EQ(batch.size(), 2u);
    MessageBatch in;
    bool eos = false;
    ASSERT_EQ(channel->TryPopBatch(&in, 64, &eos), 4u);
    ASSERT_EQ(channel->TryPushBatch(&batch, /*first_attempt=*/false),
              TryPush::kPushed);
    ASSERT_EQ(channel->TryPopBatch(&in, 64, &eos), 2u);
    EXPECT_EQ(in[0].tuple.event(0).id, 4);
    EXPECT_EQ(in[1].tuple.event(0).id, 5);
    ChannelStats stats = channel->Snapshot("op");
    EXPECT_EQ(stats.batches, 1) << (spsc ? "spsc" : "mpmc");
    EXPECT_EQ(stats.messages, 6);
    EXPECT_EQ(stats.tuples, 6);
  }
}

TEST(ChannelStatsTest, FillBuckets) {
  EXPECT_EQ(ChannelStats::FillBucket(1), 0);
  EXPECT_EQ(ChannelStats::FillBucket(2), 1);
  EXPECT_EQ(ChannelStats::FillBucket(3), 2);
  EXPECT_EQ(ChannelStats::FillBucket(4), 2);
  EXPECT_EQ(ChannelStats::FillBucket(5), 3);
  EXPECT_EQ(ChannelStats::FillBucket(64), 6);
  EXPECT_EQ(ChannelStats::FillBucket(1000), 7);
}

// --- JobGraph ----------------------------------------------------------------

TEST(JobGraphTest, ValidatesMissingInput) {
  JobGraph graph;
  graph.AddOperator(std::make_unique<UnionOperator>(2));
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, ValidatesDoubleConnection) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1)));
  NodeId op = graph.AddOperator(std::make_unique<UnionOperator>(1));
  ASSERT_TRUE(graph.Connect(src, op, 0).ok());
  ASSERT_TRUE(graph.Connect(src, op, 0).ok());  // second edge into port 0
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(JobGraphTest, RejectsConnectIntoSource) {
  JobGraph graph;
  NodeId a = graph.AddSource(
      std::make_unique<VectorSource>("a", MakeEvents(0, 1)));
  NodeId b = graph.AddSource(
      std::make_unique<VectorSource>("b", MakeEvents(0, 1)));
  EXPECT_FALSE(graph.Connect(a, b, 0).ok());
}

TEST(JobGraphTest, RejectsBadPort) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1)));
  NodeId op = graph.AddOperator(std::make_unique<UnionOperator>(1));
  EXPECT_FALSE(graph.Connect(src, op, 1).ok());
}

TEST(JobGraphTest, TopologicalOrderSourcesFirst) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1)));
  NodeId op = graph.AddOperatorAfter(src, std::make_unique<UnionOperator>(1));
  NodeId sink = graph.AddOperatorAfter(op, std::make_unique<CollectSink>());
  auto order = graph.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], src);
  EXPECT_EQ(order[2], sink);
}

// --- PipelineExecutor ----------------------------------------------------------

TEST(ExecutorTest, PassthroughDeliversAllTuples) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 100)));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples_ingested, 100);
  EXPECT_EQ(result.matches_emitted, 100);
  EXPECT_EQ(sink->tuples().size(), 100u);
}

TEST(ExecutorTest, MergesSourcesInEventTimeOrder) {
  JobGraph graph;
  std::vector<SimpleEvent> odd, even;
  for (int i = 0; i < 10; ++i) {
    (i % 2 ? odd : even).push_back(Ev(0, i, i * 100, 0));
  }
  NodeId a = graph.AddSource(std::make_unique<VectorSource>("odd", odd));
  NodeId b = graph.AddSource(std::make_unique<VectorSource>("even", even));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(sink->tuples().size(), 10u);
  for (size_t i = 1; i < sink->tuples().size(); ++i) {
    EXPECT_LE(sink->tuples()[i - 1].event_time(), sink->tuples()[i].event_time());
  }
}

TEST(ExecutorTest, FilterDropsNonMatching) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 100)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>(
               [](const Tuple& t) { return t.event(0).value < 10; }));
  auto sink_op = std::make_unique<CollectSink>();
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(filter, std::move(sink_op));
  ExecutionResult result = RunJob(&graph, sink);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(sink->count(), 10);
}

TEST(ExecutorTest, MemoryLimitFailsJob) {
  // A sink storing every tuple grows state beyond a tiny budget; the
  // executor reports the simulated memory exhaustion (paper §5.2.3: FCEP
  // execution failure due to memory exhaustion).
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 100000)));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/true);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ExecutorOptions options;
  options.memory_limit_bytes = 64 * 1024;
  ExecutionResult result = RunJob(&graph, sink, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("ResourceExhausted"), std::string::npos);
}

TEST(ExecutorTest, StateTimelineSampled) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 10000)));
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/true);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ExecutorOptions options;
  options.watermark_interval = 64;
  options.state_sample_interval = 512;
  ExecutionResult result = RunJob(&graph, sink, options);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.state_timeline.size(), 5u);
  EXPECT_GT(result.peak_state_bytes, 0u);
}

// --- ThreadedExecutor ------------------------------------------------------------

TEST(ThreadedExecutorTest, MatchesSingleThreadedResults) {
  auto build = [](CollectSink** sink_out) {
    auto graph = std::make_unique<JobGraph>();
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 5000)));
    NodeId filter = graph->AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value >= 100; }));
    auto sink_op = std::make_unique<CollectSink>();
    *sink_out = sink_op.get();
    graph->AddOperatorAfter(filter, std::move(sink_op));
    return graph;
  };

  CollectSink* sink1 = nullptr;
  auto graph1 = build(&sink1);
  ExecutionResult r1 = RunJob(graph1.get(), sink1);

  CollectSink* sink2 = nullptr;
  auto graph2 = build(&sink2);
  ThreadedExecutor threaded(graph2.get());
  ExecutionResult r2 = threaded.Run(sink2);

  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.matches_emitted, r2.matches_emitted);
  EXPECT_EQ(test::MatchSet(sink1->tuples()), test::MatchSet(sink2->tuples()));
}

TEST(ThreadedExecutorTest, TwoSourceUnion) {
  JobGraph graph;
  NodeId a = graph.AddSource(
      std::make_unique<VectorSource>("a", MakeEvents(0, 1000)));
  NodeId b = graph.AddSource(
      std::make_unique<VectorSource>("b", MakeEvents(1, 1000)));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 2000);
}

TEST(ThreadedExecutorTest, BatchSizeDoesNotChangeResults) {
  auto build = [](CollectSink** sink_out) {
    auto graph = std::make_unique<JobGraph>();
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 3000)));
    NodeId filter = graph->AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value >= 100; }));
    auto sink_op = std::make_unique<CollectSink>();
    *sink_out = sink_op.get();
    graph->AddOperatorAfter(filter, std::move(sink_op));
    return graph;
  };

  CollectSink* ref_sink = nullptr;
  auto ref_graph = build(&ref_sink);
  ExecutionResult ref = RunJob(ref_graph.get(), ref_sink);
  ASSERT_TRUE(ref.ok);
  auto ref_set = test::MatchSet(ref_sink->tuples());

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
    CollectSink* sink = nullptr;
    auto graph = build(&sink);
    ThreadedExecutorOptions options;
    options.batch_size = batch;
    ThreadedExecutor executor(graph.get(), options);
    ExecutionResult result = executor.Run(sink);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.matches_emitted, ref.matches_emitted)
        << "batch=" << batch;
    EXPECT_EQ(test::MatchSet(sink->tuples()), ref_set) << "batch=" << batch;
  }
}

TEST(ThreadedExecutorTest, SingleProducerEdgesUseSpscFastPath) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 500)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(filter, std::move(sink_op));
  // Chaining fuses filter -> sink, so only the source -> filter edge is a
  // real channel; opt the filter out to observe the per-edge layout.
  ASSERT_TRUE(graph.SetChaining(filter, false).ok());
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.channel_stats.size(), 2u);
  int64_t total_batches = 0;
  for (const ChannelStats& stats : result.channel_stats) {
    EXPECT_FALSE(stats.fused) << stats.ToString();
    EXPECT_TRUE(stats.spsc) << stats.ToString();
    // 500 tuples + watermarks + end, batched: far fewer pushes than
    // messages.
    EXPECT_GE(stats.messages, 500);
    EXPECT_LT(stats.batches, stats.messages);
    total_batches += stats.batches;
  }
  EXPECT_GT(total_batches, 0);
}

TEST(ThreadedExecutorTest, FusedEdgeReportedAsZeroTrafficChannel) {
  // Default chaining: filter -> sink fuses, the sink's ChannelStats entry
  // must survive flagged `fused` with the hand-off count but zero queue
  // traffic, while source -> filter stays a real SPSC channel.
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 500)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(filter, std::move(sink_op));
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 500);
  ASSERT_EQ(result.channel_stats.size(), 2u);
  bool saw_filter = false, saw_sink = false;
  for (const ChannelStats& stats : result.channel_stats) {
    if (stats.consumer == "sink") {
      EXPECT_TRUE(stats.fused) << stats.ToString();
      EXPECT_EQ(stats.tuples, 500) << stats.ToString();
      EXPECT_EQ(stats.batches, 0) << stats.ToString();
      saw_sink = true;
    } else {
      EXPECT_FALSE(stats.fused) << stats.ToString();
      EXPECT_TRUE(stats.spsc) << stats.ToString();
      EXPECT_GE(stats.messages, 500) << stats.ToString();
      saw_filter = true;
    }
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_TRUE(saw_sink);
}

TEST(ThreadedExecutorTest, TwoProducerInputFallsBackToMpmcQueue) {
  JobGraph graph;
  NodeId a = graph.AddSource(
      std::make_unique<VectorSource>("a", MakeEvents(0, 300)));
  NodeId b = graph.AddSource(
      std::make_unique<VectorSource>("b", MakeEvents(1, 300)));
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(a, u, 0).ok());
  ASSERT_TRUE(graph.Connect(b, u, 1).ok());
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(u, std::move(sink_op));
  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 600);
  ASSERT_EQ(result.channel_stats.size(), 2u);
  bool saw_union = false, saw_sink = false;
  for (const ChannelStats& stats : result.channel_stats) {
    if (stats.consumer.rfind("union", 0) == 0) {
      EXPECT_FALSE(stats.fused) << stats.ToString();
      EXPECT_FALSE(stats.spsc) << "two producers must use the MPMC queue";
      saw_union = true;
    } else {
      // union -> sink fuses under default chaining: the sink's entry is a
      // fused pseudo-channel, not a queue.
      EXPECT_TRUE(stats.fused) << stats.ToString();
      EXPECT_EQ(stats.tuples, 600) << stats.ToString();
      saw_sink = true;
    }
  }
  EXPECT_TRUE(saw_union);
  EXPECT_TRUE(saw_sink);
}

// --- Operator chaining ------------------------------------------------------

/// Stateless pass-through without CloneForSubtask: legal at parallelism 1
/// but forces any neighbouring parallel chain to split around it.
class NonCloneablePass : public Operator {
 public:
  std::string name() const override { return "nonclone"; }
  Status Process(int, Tuple tuple, Collector* out) override {
    out->Emit(std::move(tuple));
    return Status::OK();
  }
};

TEST(ChainPlannerTest, FusesLinearForwardPipeline) {
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(0, 10)));
  NodeId filter = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
  NodeId map = graph.AddOperatorAfter(
      filter, std::make_unique<MapOperator>([](Tuple t) { return t; }));
  NodeId sink = graph.AddOperatorAfter(map, std::make_unique<CollectSink>(false));

  ChainLayout layout = ComputeChainLayout(graph);
  ASSERT_EQ(layout.num_chains(), 1);
  EXPECT_EQ(layout.chains[0], (std::vector<NodeId>{filter, map, sink}));
  EXPECT_EQ(layout.edge_verdict[src][0], ChainBreak::kSourceProducer);
  EXPECT_EQ(layout.edge_verdict[filter][0], ChainBreak::kChained);
  EXPECT_EQ(layout.edge_verdict[map][0], ChainBreak::kChained);
  EXPECT_EQ(layout.fused_edge_count(), 2);
  EXPECT_TRUE(layout.is_head(filter));
  EXPECT_FALSE(layout.is_head(map));
  EXPECT_EQ(layout.chain_of[src], -1);
  EXPECT_EQ(layout.chain_of[map], 0);
  EXPECT_EQ(layout.pos_in_chain[sink], 2);

  // Every operator opted out: each is its own chain, and every forward op
  // edge reports the producer's opt-out.
  DisableChaining(&graph);
  ChainLayout off = ComputeChainLayout(graph);
  EXPECT_EQ(off.num_chains(), 3);
  EXPECT_EQ(off.fused_edge_count(), 0);
  EXPECT_EQ(off.edge_verdict[filter][0], ChainBreak::kProducerOptedOut);
  EXPECT_EQ(off.edge_verdict[map][0], ChainBreak::kProducerOptedOut);
}

TEST(ChainPlannerTest, BreaksOnFanOutFanInHashAndKnob) {
  // src -> split -> {left, right} -> union2 -> sink, with a hash edge
  // right -> union2: exercises fan-out, fan-in, and non-forward verdicts.
  JobGraph graph;
  NodeId src =
      graph.AddSource(std::make_unique<VectorSource>("s", MakeEvents(0, 10)));
  NodeId split = graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>([](const Tuple&) { return true; },
                                            "split"));
  NodeId left = graph.AddOperatorAfter(
      split, std::make_unique<MapOperator>([](Tuple t) { return t; }, "left"));
  NodeId right = graph.AddOperator(
      std::make_unique<MapOperator>([](Tuple t) { return t; }, "right"));
  ASSERT_TRUE(graph.Connect(split, right, 0).ok());
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(left, u, 0).ok());
  ASSERT_TRUE(graph.Connect(right, u, 1, PartitionMode::kHash).ok());
  NodeId sink = graph.AddOperatorAfter(u, std::make_unique<CollectSink>(false));

  ChainLayout layout = ComputeChainLayout(graph);
  EXPECT_EQ(layout.edge_verdict[split][0], ChainBreak::kFanOut);
  EXPECT_EQ(layout.edge_verdict[split][1], ChainBreak::kFanOut);
  EXPECT_EQ(layout.edge_verdict[left][0], ChainBreak::kFanIn);
  EXPECT_EQ(layout.edge_verdict[right][0], ChainBreak::kNotForward);
  EXPECT_EQ(layout.edge_verdict[u][0], ChainBreak::kChained);
  // Chains: {split}, {left}, {right}, {union2, sink}.
  EXPECT_EQ(layout.num_chains(), 4);
  EXPECT_EQ(layout.chain_of[u], layout.chain_of[sink]);

  // The per-node knob breaks the union2 -> sink fusion.
  ASSERT_TRUE(graph.SetChaining(sink, false).ok());
  ChainLayout opted = ComputeChainLayout(graph);
  EXPECT_EQ(opted.edge_verdict[u][0], ChainBreak::kConsumerOptedOut);
  ASSERT_TRUE(graph.SetChaining(sink, true).ok());
  ASSERT_TRUE(graph.SetChaining(u, false).ok());
  opted = ComputeChainLayout(graph);
  EXPECT_EQ(opted.edge_verdict[u][0], ChainBreak::kProducerOptedOut);
  EXPECT_FALSE(graph.SetChaining(src, false).ok()) << "sources never chain";
}

TEST(ThreadedExecutorTest, ChainSplitAroundNonCloneableOperator) {
  // filter(x2) -> map(x2) fuses into a parallel chain; map ->
  // nonclone(x1) must split (parallelism mismatch), keeping the
  // CloneForSubtask-incapable operator on its own single subtask; nonclone
  // -> sink fuses again. The run must still deliver every tuple once.
  auto build = [](CollectSink** sink_out, JobGraph* graph, ChainLayout* layout) {
    NodeId src = graph->AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(0, 400)));
    NodeId filter = graph->AddOperator(std::make_unique<FilterOperator>(
        [](const Tuple&) { return true; }));
    ASSERT_TRUE(graph->Connect(src, filter, 0, PartitionMode::kHash).ok());
    NodeId map = graph->AddOperatorAfter(
        filter, std::make_unique<MapOperator>([](Tuple t) { return t; }));
    NodeId pass = graph->AddOperatorAfter(map,
                                          std::make_unique<NonCloneablePass>());
    auto sink_op = std::make_unique<CollectSink>(false);
    *sink_out = sink_op.get();
    NodeId sink = graph->AddOperatorAfter(pass, std::move(sink_op));
    ASSERT_TRUE(graph->SetParallelism(filter, 2).ok());
    ASSERT_TRUE(graph->SetParallelism(map, 2).ok());

    *layout = ComputeChainLayout(*graph);
    EXPECT_EQ(layout->edge_verdict[filter][0], ChainBreak::kChained);
    EXPECT_EQ(layout->edge_verdict[map][0], ChainBreak::kParallelismMismatch);
    EXPECT_EQ(layout->edge_verdict[pass][0], ChainBreak::kChained);
    EXPECT_EQ(layout->num_chains(), 2);
    EXPECT_EQ(graph->parallelism(layout->chains[0].front()), 2);
    (void)src;
    (void)sink;
  };

  std::vector<std::string> ref;
  for (bool chaining : {false, true}) {
    JobGraph graph;
    ChainLayout layout;
    CollectSink* sink = nullptr;
    build(&sink, &graph, &layout);
    if (!chaining) DisableChaining(&graph);
    ThreadedExecutor executor(&graph);
    ExecutionResult result = executor.Run(sink);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.matches_emitted, 400);
    if (!chaining) {
      ref = test::MatchMultiset(sink->tuples());
      continue;
    }
    EXPECT_EQ(test::MatchMultiset(sink->tuples()), ref);
    // The parallel chain reports its skew from the fused hand-off counts.
    bool saw_map_skew = false;
    for (const PartitionSkew& skew : result.partition_skew) {
      if (skew.op == "map") {
        saw_map_skew = true;
        int64_t total = 0;
        for (int64_t t : skew.tuples_per_subtask) total += t;
        EXPECT_EQ(total, 400) << skew.ToString();
      }
    }
    EXPECT_TRUE(saw_map_skew);
  }
}

/// Buffers every tuple and re-emits the buffer on each watermark: models a
/// windowed operator whose results materialize in OnWatermark.
class HoldUntilWatermark : public Operator {
 public:
  std::string name() const override { return "hold"; }
  Status Process(int, Tuple tuple, Collector*) override {
    held_.push_back(std::move(tuple));
    return Status::OK();
  }
  Status OnWatermark(Timestamp, Collector* out) override {
    for (Tuple& t : held_) out->Emit(std::move(t));
    held_.clear();
    return Status::OK();
  }

 private:
  std::vector<Tuple> held_;
};

/// Logs the interleaving of Process and OnWatermark calls it observes.
class RecordingOperator : public Operator {
 public:
  struct Entry {
    bool is_watermark;
    Timestamp value;  // watermark, or the tuple's event time
  };

  explicit RecordingOperator(std::vector<Entry>* log) : log_(log) {}
  std::string name() const override { return "recorder"; }
  Status Process(int, Tuple tuple, Collector* out) override {
    log_->push_back({false, tuple.event_time()});
    out->Emit(std::move(tuple));
    return Status::OK();
  }
  Status OnWatermark(Timestamp watermark, Collector*) override {
    log_->push_back({true, watermark});
    return Status::OK();
  }

 private:
  std::vector<Entry>* log_;
};

TEST(ThreadedExecutorTest, ChainDeliversWatermarkEmissionsBeforeTheWatermark) {
  // src -> hold -> recorder -> sink chains into one subtask. Tuples hold
  // emits during OnWatermark(w) must reach the recorder's Process before
  // the chain forwards w to the recorder — otherwise a downstream windowed
  // operator would treat them as late and drop them.
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 200)));
  NodeId hold = graph.AddOperatorAfter(src, std::make_unique<HoldUntilWatermark>());
  std::vector<RecordingOperator::Entry> log;
  NodeId recorder = graph.AddOperatorAfter(
      hold, std::make_unique<RecordingOperator>(&log));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(recorder, std::move(sink_op));

  ThreadedExecutorOptions options;
  options.watermark_interval = 32;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 200);

  // The whole pipeline behind the source fused into one chain.
  ChainLayout layout = ComputeChainLayout(graph);
  EXPECT_EQ(layout.num_chains(), 1);
  EXPECT_EQ(layout.chain_of[hold], layout.chain_of[recorder]);

  // Ordering: once the recorder saw watermark w, every following tuple
  // must be strictly newer than w (hold's buffered tuples, all <= w, were
  // delivered first).
  Timestamp last_watermark = kMinTimestamp;
  int watermarks_seen = 0;
  for (const RecordingOperator::Entry& entry : log) {
    if (entry.is_watermark) {
      EXPECT_GT(entry.value, last_watermark);
      last_watermark = entry.value;
      ++watermarks_seen;
    } else {
      EXPECT_GT(entry.value, last_watermark)
          << "tuple older than an already-forwarded watermark";
    }
  }
  EXPECT_GE(watermarks_seen, 2);
}

TEST(ThreadedExecutorTest, RateLimitedSourceStillFlushesPartialBatches) {
  // A slow source must not strand tuples in half-filled batches: the
  // flush before each paced park plus flush-on-idle keeps matches flowing.
  JobGraph graph;
  NodeId src = graph.AddSource(std::make_unique<RateLimitedSource>(
      std::make_unique<VectorSource>("s", MakeEvents(0, 50)), 5000.0));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(src, std::move(sink_op));
  ThreadedExecutorOptions options;
  options.batch_size = 64;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 50);
}

TEST(ThreadedExecutorTest, PacedSourceDoesNotShrinkBlocks) {
  // A paced source stages every tuple due within the pacing slack into one
  // block (about 20 at 200k tuples/s). Shrinking the staging batch on each
  // timer park would ship blocks of a few rows, each costing a whole
  // ColumnarBatch.
  constexpr int kEvents = 20000;
  JobGraph graph;
  NodeId src = graph.AddSource(std::make_unique<RateLimitedSource>(
      std::make_unique<VectorSource>("s", MakeEvents(0, kEvents)), 200000.0));
  Predicate pass;  // empty filter: every row survives to the key stage
  NodeId key = graph.AddOperatorAfter(
      src, std::make_unique<CompiledStatelessOperator>(
               ExprProgram::Fuse(
                   ExprProgram::Filter(pass, ExprProgram::VarMode::kBroadcast),
                   ExprProgram::KeyByAttribute(0, Attribute::kId)),
               "key"));
  auto sink_op = std::make_unique<CollectSink>(false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(key, std::move(sink_op));
  ThreadedExecutorOptions options;
  options.worker_threads = 1;
  ThreadedExecutor executor(&graph, options);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, kEvents);
  int64_t blocks = 0, block_rows = 0;
  for (const ChannelStats& stats : result.channel_stats) {
    if (stats.consumer.rfind("key", 0) != 0) continue;
    blocks += stats.columnar_blocks;
    block_rows += stats.columnar_rows;
  }
  EXPECT_EQ(block_rows, kEvents);
  ASSERT_GT(blocks, 0);
  EXPECT_GE(block_rows / blocks, 8)
      << blocks << " blocks for " << block_rows << " rows";
}

// --- Metrics ----------------------------------------------------------------------

TEST(MetricsTest, LatencyStatsFromSamples) {
  std::vector<int64_t> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  LatencyStats stats = LatencyStats::FromSamples(samples);
  EXPECT_EQ(stats.count, 100);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 50.5);
  EXPECT_DOUBLE_EQ(stats.max_ms, 100.0);
  EXPECT_NEAR(stats.p50_ms, 50.0, 1.0);
  EXPECT_NEAR(stats.p99_ms, 99.0, 1.0);
}

TEST(MetricsTest, EmptySamples) {
  LatencyStats stats = LatencyStats::FromSamples({});
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 0.0);
}

TEST(MetricsTest, ThroughputFromResult) {
  ExecutionResult result;
  result.tuples_ingested = 1000;
  result.elapsed_seconds = 2.0;
  EXPECT_DOUBLE_EQ(result.throughput_tps(), 500.0);
}

TEST(PartitioningTest, KeyToSubtaskDeterministicAndCovering) {
  for (int64_t key = -5; key < 200; ++key) {
    EXPECT_EQ(KeyToSubtask(key, 1), 0);
    for (int parallelism : {2, 3, 4, 7}) {
      int subtask = KeyToSubtask(key, parallelism);
      EXPECT_GE(subtask, 0);
      EXPECT_LT(subtask, parallelism);
      EXPECT_EQ(subtask, KeyToSubtask(key, parallelism));
    }
  }
  // 128 sequential keys must address every subtask of a 4-way operator;
  // the mixer exists precisely so dense key ranges don't alias.
  std::vector<bool> hit(4, false);
  for (int64_t key = 0; key < 128; ++key) hit[KeyToSubtask(key, 4)] = true;
  for (bool h : hit) EXPECT_TRUE(h);
}

TEST(PartitioningTest, PhysicalFanInCountsProducerSubtasks) {
  JobGraph graph;
  NodeId s1 = graph.AddSource(
      std::make_unique<VectorSource>("s1", MakeEvents(0, 10)));
  NodeId s2 = graph.AddSource(
      std::make_unique<VectorSource>("s2", MakeEvents(0, 10)));
  NodeId m1 = graph.AddOperatorAfter(s1, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId m2 = graph.AddOperatorAfter(s2, MapOperator::KeyByAttribute(0, Attribute::kId));
  ASSERT_TRUE(graph.SetParallelism(m1, 3).ok());
  NodeId u = graph.AddOperator(std::make_unique<UnionOperator>(2));
  ASSERT_TRUE(graph.Connect(m1, u, 0).ok());
  ASSERT_TRUE(graph.Connect(m2, u, 1).ok());
  EXPECT_EQ(graph.fan_in(u), 2);
  EXPECT_EQ(graph.physical_fan_in(u), 4);  // 3 subtasks + 1
}

TEST(ThreadedExecutorTest, PartitionSkewAccountsEveryTuple) {
  JobGraph graph;
  NodeId src = graph.AddSource(
      std::make_unique<VectorSource>("s", MakeEvents(0, 1000)));
  NodeId keyed = graph.AddOperatorAfter(
      src, MapOperator::KeyByAttribute(0, Attribute::kId));
  NodeId mapped = graph.AddOperator(
      std::make_unique<MapOperator>([](Tuple t) { return t; }, "identity"));
  ASSERT_TRUE(graph.Connect(keyed, mapped, 0, PartitionMode::kHash).ok());
  ASSERT_TRUE(graph.SetParallelism(mapped, 2).ok());
  auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
  CollectSink* sink = sink_op.get();
  graph.AddOperatorAfter(mapped, std::move(sink_op));

  ThreadedExecutor executor(&graph);
  ExecutionResult result = executor.Run(sink);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.matches_emitted, 1000);

  ASSERT_FALSE(result.partition_skew.empty());
  const PartitionSkew& skew = result.partition_skew.front();
  EXPECT_EQ(skew.parallelism, 2);
  ASSERT_EQ(skew.tuples_per_subtask.size(), 2u);
  int64_t total = 0;
  for (int64_t n : skew.tuples_per_subtask) total += n;
  EXPECT_EQ(total, 1000);  // hash routing loses nothing
  EXPECT_GE(skew.imbalance(), 1.0);
  EXPECT_EQ(skew.max_tuples,
            std::max(skew.tuples_per_subtask[0], skew.tuples_per_subtask[1]));
}

TEST(ThreadedExecutorTest, ColumnarHashEdgeCountsBlocksRowsAndSkew) {
  // source -> compiled(filter + key-by-id) -> hash -> join(P) -> sink, per
  // join side. At P=1 every key routes to subtask 0, so the compiled
  // prefix ships its column blocks whole: the join's input channels must
  // report the block envelopes and the rows inside them. At P=4 the same
  // block-producing operator scatters rows individually through the shim:
  // scattered_rows accounts for every row, no block crosses the edge, and
  // PartitionSkew still counts every row — accounting is
  // layout-independent. I322 must predict each layout before the run, and
  // report the join's out-edge as row-major: the join emits rows.
  auto make_program = [] {
    Predicate pass;  // empty filter: every row survives to the key stage
    return ExprProgram::Fuse(
        ExprProgram::Filter(pass, ExprProgram::VarMode::kBroadcast),
        ExprProgram::KeyByAttribute(0, Attribute::kId));
  };
  auto run = [&](int parallelism, std::vector<std::string>* join_notes,
                 std::vector<std::string>* join_out_notes) {
    JobGraph graph;
    NodeId l = graph.AddSource(
        std::make_unique<VectorSource>("l", MakeEvents(0, 60)));
    NodeId r = graph.AddSource(
        std::make_unique<VectorSource>("r", MakeEvents(1, 60)));
    NodeId kl = graph.AddOperatorAfter(
        l, std::make_unique<CompiledStatelessOperator>(make_program(), "key-l"));
    NodeId kr = graph.AddOperatorAfter(
        r, std::make_unique<CompiledStatelessOperator>(make_program(), "key-r"));
    NodeId j = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
        SlidingWindowSpec{4000, 1000}, Predicate(), TimestampMode::kMax,
        "join"));
    EXPECT_TRUE(graph.Connect(kl, j, 0, PartitionMode::kHash).ok());
    EXPECT_TRUE(graph.Connect(kr, j, 1, PartitionMode::kHash).ok());
    EXPECT_TRUE(graph.SetParallelism(j, parallelism).ok());
    auto sink_op = std::make_unique<CollectSink>(/*store_tuples=*/false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(j, std::move(sink_op));
    const DiagnosticReport layout_report = AnalyzeColumnarLayout(graph);
    for (const Diagnostic& d : layout_report.diagnostics()) {
      if (d.message.find("(join)") != std::string::npos) {
        join_notes->push_back(d.message);
      }
      if (d.location.find("(join)") != std::string::npos) {
        join_out_notes->push_back(d.message);
      }
    }
    ThreadedExecutor executor(&graph);
    ExecutionResult result = executor.Run(sink);
    EXPECT_TRUE(result.ok) << result.error;
    return result;
  };

  for (int parallelism : {1, 4}) {
    std::vector<std::string> join_notes, join_out_notes;
    ExecutionResult result = run(parallelism, &join_notes, &join_out_notes);
    // One I322 note per join input edge.
    ASSERT_EQ(join_notes.size(), 2u) << "parallelism=" << parallelism;
    for (const std::string& note : join_notes) {
      EXPECT_NE(note.find(parallelism == 1
                              ? ": columnar (ships column blocks whole)"
                              : ": scatter shim (hash edge into a parallel "
                                "consumer routes rows)"),
                std::string::npos)
          << note;
    }
    // The join -> sink edge is fused at P=1 and a channel at P=4; it
    // carries rows either way.
    ASSERT_EQ(join_out_notes.size(), 1u) << "parallelism=" << parallelism;
    EXPECT_NE(join_out_notes[0].find(": row-major (producer emits rows)"),
              std::string::npos)
        << join_out_notes[0];
    int64_t join_rows = 0, join_blocks = 0, join_block_rows = 0,
            join_scattered = 0;
    for (const ChannelStats& stats : result.channel_stats) {
      if (stats.consumer.rfind("join", 0) != 0) continue;
      join_rows += stats.tuples;
      join_blocks += stats.columnar_blocks;
      join_block_rows += stats.columnar_rows;
      join_scattered += stats.scattered_rows;
    }
    // 60 rows per side reach the join regardless of transfer layout.
    EXPECT_EQ(join_rows, 120) << "parallelism=" << parallelism;
    if (parallelism == 1) {
      EXPECT_GE(join_blocks, 2) << "blocks must ship on P=1 hash edges";
      EXPECT_EQ(join_block_rows, 120);
      EXPECT_EQ(join_scattered, 0);
    } else {
      EXPECT_EQ(join_blocks, 0);
      EXPECT_EQ(join_block_rows, 0);
      EXPECT_EQ(join_scattered, 120)
          << "the scatter shim must account for every row";
    }
    if (parallelism == 1) continue;  // skew is reported for P > 1 only
    bool saw_skew = false;
    for (const PartitionSkew& skew : result.partition_skew) {
      if (skew.op.rfind("join", 0) != 0) continue;
      saw_skew = true;
      EXPECT_EQ(skew.parallelism, parallelism);
      int64_t total = 0;
      for (int64_t n : skew.tuples_per_subtask) total += n;
      EXPECT_EQ(total, 120) << "skew must count rows inside column blocks";
    }
    EXPECT_TRUE(saw_skew) << "parallelism=" << parallelism;
  }
}

}  // namespace
}  // namespace cep2asp
