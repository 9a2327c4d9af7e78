// Micro-benchmarks of the engine operators on google-benchmark: the raw
// costs the cluster simulator's CostProfile abstracts (per-tuple filter
// work, per-pair join work, per-run NFA work). Useful for regression
// tracking and for sanity-checking calibration constants.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "asp/compiled_stateless.h"
#include "asp/sliding_window_join.h"
#include "asp/interval_join.h"
#include "asp/stateless.h"
#include "event/expr_program.h"
#include "cep/cep_operator.h"
#include "harness/bench_util.h"
#include "runtime/bounded_queue.h"
#include "runtime/channel.h"
#include "runtime/columnar_batch.h"
#include "runtime/executor.h"
#include "runtime/spsc_ring.h"
#include "runtime/threaded_executor.h"
#include "runtime/vector_source.h"
#include "sea/pattern.h"

namespace cep2asp {
namespace {

std::vector<SimpleEvent> MakeEvents(EventTypeId type, int count,
                                    Timestamp step) {
  std::vector<SimpleEvent> events;
  events.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    SimpleEvent e;
    e.type = type;
    e.id = 1;
    e.ts = static_cast<Timestamp>(i) * step;
    e.value = static_cast<double>(i % 100);
    events.push_back(e);
  }
  return events;
}

EventTypeId TypeA() {
  static EventTypeId type = EventTypeRegistry::Global()->RegisterOrGet("uA");
  return type;
}
EventTypeId TypeB() {
  static EventTypeId type = EventTypeRegistry::Global()->RegisterOrGet("uB");
  return type;
}

void BM_FilterThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(
        std::make_unique<VectorSource>("s", MakeEvents(TypeA(), n, 10)));
    NodeId filter = graph.AddOperatorAfter(
        src, std::make_unique<FilterOperator>(
                 [](const Tuple& t) { return t.event(0).value < 50; }));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(filter, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FilterThroughput)->Arg(100000);

void BM_SlidingWindowJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    JobGraph graph;
    NodeId l = graph.AddSource(
        std::make_unique<VectorSource>("l", MakeEvents(TypeA(), n, 100)));
    NodeId r = graph.AddSource(
        std::make_unique<VectorSource>("r", MakeEvents(TypeB(), n, 100)));
    Predicate seq;
    seq.Add(Comparison::AttrAttr({0, Attribute::kTs}, CmpOp::kLt,
                                 {1, Attribute::kTs}));
    NodeId join = graph.AddOperator(std::make_unique<SlidingWindowJoinOperator>(
        SlidingWindowSpec{10000, 1000}, seq, TimestampMode::kMax));
    CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
    CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(join, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_SlidingWindowJoin)->Arg(20000);

void BM_IntervalJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    JobGraph graph;
    NodeId l = graph.AddSource(
        std::make_unique<VectorSource>("l", MakeEvents(TypeA(), n, 100)));
    NodeId r = graph.AddSource(
        std::make_unique<VectorSource>("r", MakeEvents(TypeB(), n, 100)));
    NodeId join = graph.AddOperator(std::make_unique<IntervalJoinOperator>(
        IntervalBounds::ForSequence(10000), Predicate(), TimestampMode::kMax));
    CEP2ASP_CHECK_OK(graph.Connect(l, join, 0));
    CEP2ASP_CHECK_OK(graph.Connect(r, join, 1));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(join, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_IntervalJoin)->Arg(20000);

void BM_CepOperatorLowSelectivity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Pattern pattern = PatternBuilder()
                        .Seq(PatternBuilder::Atom(TypeA(), "e1"),
                             PatternBuilder::Atom(TypeB(), "e2"))
                        .Within(10000)
                        .SlideBy(1000)
                        .Build()
                        .ValueOrDie();
  // Interleave A and B sparsely: few runs alive at a time.
  std::vector<SimpleEvent> events;
  for (int i = 0; i < n; ++i) {
    SimpleEvent e;
    e.type = (i % 64 == 0) ? TypeA() : TypeB();
    e.id = 1;
    e.ts = static_cast<Timestamp>(i) * 500;
    events.push_back(e);
  }
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
    NodeId cep = graph.AddOperatorAfter(
        src, CepOperator::FromPattern(pattern).ValueOrDie());
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(cep, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CepOperatorLowSelectivity)->Arg(100000);

void BM_CepOperatorRunHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Pattern pattern = PatternBuilder()
                        .Seq(PatternBuilder::Atom(TypeA(), "e1"),
                             PatternBuilder::Atom(TypeB(), "e2"))
                        .Within(60 * kMillisPerMinute)
                        .Build()
                        .ValueOrDie();
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);  // runs pile up
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
    NodeId cep = graph.AddOperatorAfter(
        src, CepOperator::FromPattern(pattern).ValueOrDie());
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(cep, std::move(sink_op));
    ExecutionResult result = RunJob(&graph, sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CepOperatorRunHeavy)->Arg(3000);

// --- Exchange / channel layer ----------------------------------------------
//
// The raw cost of moving elements between two threads over the
// non-blocking channel protocol the executor uses: per-item vs batched
// handoff through the mutex queue and the lock-free SPSC ring. A side
// that finds the container full (producer) or empty (consumer) yields and
// retries, standing in for the scheduler's park. This is the
// synchronization cost every inter-operator edge of the threaded executor
// pays per tuple.

/// Producer half: offers `*out` until the container took all of it.
template <typename Container>
void PushAllYielding(Container* c, std::vector<int64_t>* out) {
  bool closed = false;
  size_t done = 0;
  while (done < out->size()) {
    const size_t moved = c->TryPushN(out->data() + done, out->size() - done,
                                     &closed);
    if (moved == 0) std::this_thread::yield();
    done += moved;
  }
  out->clear();
}

/// Consumer half: drains until the container is closed and empty.
template <typename Container>
int64_t DrainYielding(Container* c) {
  int64_t sum = 0;
  std::vector<int64_t> popped;
  bool eos = false;
  while (!eos) {
    if (c->TryPopN(&popped, 64, &eos) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (int64_t v : popped) sum += v;
  }
  return sum;
}

template <typename Container>
int64_t TransferYielding(Container* c, int64_t n, size_t batch) {
  int64_t consumed_sum = 0;
  std::thread consumer([c, &consumed_sum] { consumed_sum = DrainYielding(c); });
  std::vector<int64_t> out;
  out.reserve(batch);
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(i);
    if (out.size() >= batch) PushAllYielding(c, &out);
  }
  PushAllYielding(c, &out);
  c->Close();
  consumer.join();
  return consumed_sum;
}

void BM_RawChannelTransfer(benchmark::State& state) {
  const bool spsc = state.range(0) != 0;
  const size_t batch = static_cast<size_t>(state.range(1));
  const int64_t n = 1 << 19;
  for (auto _ : state) {
    int64_t consumed_sum = 0;
    if (spsc) {
      SpscRing<int64_t> ring(4096);
      consumed_sum = TransferYielding(&ring, n, batch);
    } else {
      BoundedQueue<int64_t> queue(4096);
      consumed_sum = TransferYielding(&queue, n, batch);
    }
    benchmark::DoNotOptimize(consumed_sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(std::string(spsc ? "spsc" : "mutex") + " batch=" +
                 std::to_string(batch));
}
BENCHMARK(BM_RawChannelTransfer)
    ->Args({0, 1})
    ->Args({0, 64})
    ->Args({1, 1})
    ->Args({1, 64})
    ->UseRealTime();

// End-to-end exchange cost through the threaded executor: a pass-through
// pipeline (source -> 2 filters -> sink) where per-tuple operator work is
// trivial, so throughput is dominated by the channel layer. Every edge
// has fan-in 1 and so rides the SPSC ring; the arg is batch_size, where 1
// reproduces the historical per-tuple exchange. BM_RawChannel compares the
// ring against the mutex queue.
void BM_ThreadedExchange(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const int n = 100000;
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);
  for (auto _ : state) {
    JobGraph graph;
    NodeId src = graph.AddSource(std::make_unique<VectorSource>("s", events));
    NodeId f1 = graph.AddOperatorAfter(
        src, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
    NodeId f2 = graph.AddOperatorAfter(
        f1, std::make_unique<FilterOperator>([](const Tuple&) { return true; }));
    auto sink_op = std::make_unique<CollectSink>(false);
    CollectSink* sink = sink_op.get();
    graph.AddOperatorAfter(f2, std::move(sink_op));
    // This benchmark measures the exchange layer; with chaining on the
    // filters fuse and there would be no exchange left to measure.
    DisableChaining(&graph);
    ThreadedExecutorOptions options;
    options.batch_size = batch;
    ThreadedExecutor executor(&graph, options);
    ExecutionResult result = executor.Run(sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_ThreadedExchange)->Arg(1)->Arg(8)->Arg(64)->UseRealTime();

// --- Operator chaining -------------------------------------------------------
//
// The chain A/B: a forward pipeline (source -> filter -> map -> filter ->
// sink) where every operator edge is chainable. Chain on fuses the four
// operators into one subtask (tuples handed between Process calls, no
// exchange); chain off opts every operator out (JobGraph::SetChaining),
// the historical one-subtask-per-node layout with a real channel on every
// edge.

struct ChainPipeline {
  JobGraph graph;
  CollectSink* sink = nullptr;
};

ChainPipeline MakeForwardChainPipeline(const std::vector<SimpleEvent>& events) {
  ChainPipeline p;
  NodeId src = p.graph.AddSource(std::make_unique<VectorSource>("s", events));
  NodeId f1 = p.graph.AddOperatorAfter(
      src, std::make_unique<FilterOperator>(
               [](const Tuple& t) { return t.event(0).value < 90; }));
  NodeId m = p.graph.AddOperatorAfter(
      f1, std::make_unique<MapOperator>([](Tuple t) { return t; }));
  NodeId f2 = p.graph.AddOperatorAfter(
      m, std::make_unique<FilterOperator>(
             [](const Tuple& t) { return t.event(0).value < 80; }));
  auto sink_op = std::make_unique<CollectSink>(false);
  p.sink = sink_op.get();
  p.graph.AddOperatorAfter(f2, std::move(sink_op));
  return p;
}

void BM_ForwardChainPipeline(benchmark::State& state) {
  const bool chained = state.range(0) != 0;
  const int n = 100000;
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);
  for (auto _ : state) {
    ChainPipeline p = MakeForwardChainPipeline(events);
    if (!chained) DisableChaining(&p.graph);
    ThreadedExecutor executor(&p.graph);
    ExecutionResult result = executor.Run(p.sink);
    benchmark::DoNotOptimize(result.matches_emitted);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(chained ? "chained" : "unchained");
}
BENCHMARK(BM_ForwardChainPipeline)->Arg(0)->Arg(1)->UseRealTime();

// --- Paired A/B helpers -----------------------------------------------------

struct AbSide {
  std::vector<double> tps;  // one throughput sample per repetition
  int64_t matches = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Speedup estimator for drifting hardware: each repetition runs both
/// sides back to back, so the ratio of that pair compares two runs
/// adjacent in time and the session-scale machine-speed drift divides
/// out; the median then rejects occasional outlier repetitions. (A ratio
/// of per-side maxima, by contrast, may compare runs minutes apart.)
double MedianPairedRatio(const AbSide& a, const AbSide& b) {
  std::vector<double> ratios;
  const size_t n = std::min(a.tps.size(), b.tps.size());
  for (size_t i = 0; i < n; ++i) {
    if (b.tps[i] > 0) ratios.push_back(a.tps[i] / b.tps[i]);
  }
  return Median(std::move(ratios));
}

// --- Chain A/B with machine-readable output ----------------------------------

/// Graph shape of one chain A/B side (the same on every run).
struct ChainLayoutCounts {
  int tasks = 0;
  int fused_edges = 0;
  int channels = 0;
};

ChainLayoutCounts RunChainOnce(bool chained,
                               const std::vector<SimpleEvent>& events,
                               AbSide* side) {
  ChainPipeline p = MakeForwardChainPipeline(events);
  if (!chained) DisableChaining(&p.graph);
  // One worker: the A/B measures what fusion saves per tuple, not how
  // well the unfused side's extra tasks spread over idle cores.
  ThreadedExecutorOptions options;
  options.worker_threads = 1;
  ThreadedExecutor executor(&p.graph, options);
  const auto start = std::chrono::steady_clock::now();
  ExecutionResult result = executor.Run(p.sink);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (!result.ok) {
    std::fprintf(stderr, "chain A/B run failed: %s\n", result.error.c_str());
    std::exit(1);
  }
  side->matches = result.matches_emitted;
  side->tps.push_back(static_cast<double>(events.size()) / elapsed.count());
  ChainLayoutCounts layout;
  for (const ChannelStats& stats : result.channel_stats) {
    if (stats.fused) {
      ++layout.fused_edges;
    } else {
      ++layout.channels;
    }
  }
  layout.tasks = result.scheduler.num_tasks;
  return layout;
}

void AppendSideJson(std::string* out, const char* key, const AbSide& side,
                    const ChainLayoutCounts& layout) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"throughput_tps\": %.0f, \"tasks\": %d, "
                "\"fused_edges\": %d, \"channels\": %d}",
                key, Median(side.tps), layout.tasks, layout.fused_edges,
                layout.channels);
  *out += buf;
}

/// Runs the forward-chain A/B and writes bench_results/BENCH_chain.json;
/// `quick` shrinks the input and repetition count for CI smoke runs.
/// Paired, order-alternating repetitions after one untimed warm-up; the
/// speedup is the median of the per-repetition ratios, as in the expr and
/// soa A/Bs. The documented floor (chaining >= 1.5x unchained) is
/// recorded in the JSON but does not set the exit status: on one worker
/// of a 4-vCPU Xeon VM it held in 19 of 20 quick runs of the earlier
/// best-of estimator (lowest 1.47x), too flaky for a CI gate.
int RunChainAb(bool quick) {
  constexpr double kFloor = 1.5;
  const int n = quick ? 200000 : 1000000;
  const int repetitions = quick ? 3 : 5;
  const std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);

  AbSide warmup, on, off;
  const ChainLayoutCounts on_layout =
      RunChainOnce(/*chained=*/true, events, &warmup);
  const ChainLayoutCounts off_layout =
      RunChainOnce(/*chained=*/false, events, &warmup);
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool chained_first = (rep % 2) == 0;
    RunChainOnce(chained_first, events, chained_first ? &on : &off);
    RunChainOnce(!chained_first, events, chained_first ? &off : &on);
  }
  if (on.matches != off.matches) {
    std::fprintf(stderr,
                 "chain A/B: match counts diverged (chained %lld vs "
                 "unchained %lld)\n",
                 static_cast<long long>(on.matches),
                 static_cast<long long>(off.matches));
    return 1;
  }
  const double speedup = MedianPairedRatio(on, off);

  std::string json = "{\n";
  json += "  \"benchmark\": \"forward_chain_ab\",\n";
  json += "  \"pipeline\": \"source -> filter -> map -> filter -> sink\",\n";
  json += "  \"tuples_per_run\": " + std::to_string(n) + ",\n";
  json += "  \"repetitions\": " + std::to_string(repetitions) + ",\n";
  AppendSideJson(&json, "chain_on", on, on_layout);
  json += ",\n";
  AppendSideJson(&json, "chain_off", off, off_layout);
  json += ",\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "  \"speedup\": %.2f,\n  \"floor_min_speedup\": %.2f,\n"
                "  \"floor_met\": %s\n",
                speedup, kFloor, speedup >= kFloor ? "true" : "false");
  json += buf;
  json += "}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/BENCH_chain.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::printf("wrote %s\n", path);
  return 0;
}

// --- Expression A/B with machine-readable output -----------------------------
//
// Compiled + columnar vs interpreted per-tuple on a stateless filter→key
// prefix. The benchmark drives the operator stage directly — the inputs
// the executor would hand it — so the measured work is exactly what
// compilation changes: expression evaluation plus the per-tuple operator
// plumbing. (End-to-end numbers with source + channel on both sides are
// what fig3a and perfbench report; there the transport cost dilutes the
// stage-level ratio.) One side is a single CompiledStatelessOperator
// running a fused ExprProgram over 64-row column blocks (ProcessColumnar),
// the stage the translator emits; the other is the interpreted
// FilterOperator + MapOperator reference pair taking per-tuple virtual
// hops through a chaining collector, which is how the executor runs
// them. Each side's input layout is built outside the timed region: in
// the executor the source pays the gather into blocks instead of staging
// rows. The predicate's three terms (one with an rhs offset) all evaluate
// for every tuple; only ~10% survive, so almost every tuple pays full
// predicate cost and the survivors pay the key assignment.

Predicate ExprAbPredicate() {
  Predicate pred;
  pred.Add(Comparison::AttrConst({0, Attribute::kLat}, CmpOp::kGe, -100.0));
  pred.Add(Comparison::AttrAttr({0, Attribute::kLon}, CmpOp::kLe,
                                {0, Attribute::kValue}, 1e6));
  pred.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 10.0));
  return pred;
}

/// Terminal collector: counts survivors and checksums their keys on both
/// the row and the columnar interface, so the key stores cannot be
/// optimized away and both sides of an A/B can be compared for identical
/// observable output.
class AbSink final : public Collector {
 public:
  void Emit(Tuple tuple) override {
    ++count_;
    key_sum_ += static_cast<uint64_t>(tuple.key());
  }
  void EmitColumnar(std::unique_ptr<ColumnarBatch> block) override {
    const int64_t* keys = block->keys();
    for (size_t i = 0; i < block->rows(); ++i) {
      key_sum_ += static_cast<uint64_t>(keys[i]);
    }
    count_ += static_cast<int64_t>(block->rows());
  }
  int64_t count() const { return count_; }
  uint64_t key_sum() const { return key_sum_; }

 private:
  int64_t count_ = 0;
  uint64_t key_sum_ = 0;
};

/// The executor's chained hand-off for the interpreted pair: each tuple
/// the filter passes takes one virtual Process call into the key map.
class ExprAbChainTo final : public Collector {
 public:
  ExprAbChainTo(Operator* next, Collector* out) : next_(next), out_(out) {}
  void Emit(Tuple tuple) override {
    CEP2ASP_CHECK(next_->Process(0, std::move(tuple), out_).ok());
  }

 private:
  Operator* next_;
  Collector* out_;
};

std::vector<MessageBatch> MakeExprBatches(
    const std::vector<SimpleEvent>& events, size_t batch_size) {
  std::vector<MessageBatch> batches;
  batches.reserve(events.size() / batch_size + 1);
  for (size_t i = 0; i < events.size(); i += batch_size) {
    MessageBatch batch;
    const size_t end = std::min(events.size(), i + batch_size);
    batch.reserve(end - i);
    for (size_t j = i; j < end; ++j) {
      batch.push_back(Message::Data(0, Tuple(events[j])));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Single-event column blocks of `block_rows` rows over
/// `events[begin, end)`; 64 rows is the shape the source gathers per
/// staged batch.
std::vector<std::unique_ptr<ColumnarBatch>> MakeBlocks(
    const std::vector<SimpleEvent>& events, size_t begin, size_t end,
    size_t block_rows = 64) {
  std::vector<std::unique_ptr<ColumnarBatch>> blocks;
  for (size_t i = begin; i < end; i += block_rows) {
    auto block = std::make_unique<ColumnarBatch>(1);
    const size_t block_end = std::min(end, i + block_rows);
    block->Reserve(block_end - i);
    for (size_t j = i; j < block_end; ++j) block->AppendTuple(Tuple(events[j]));
    blocks.push_back(std::move(block));
  }
  return blocks;
}

void RunExprOnce(bool compiled, const std::vector<SimpleEvent>& events,
                 AbSide* side) {
  // Inputs are processed in cache-resident waves: the executor hands a
  // stage its input a channel hop after the producer wrote it, so the
  // stage never streams tens of megabytes cold from DRAM. Each wave's
  // blocks or batches are built outside the timed region (the executor
  // pays source + channel cost outside the stage), then processed timed.
  constexpr size_t kWave = 4096;
  AbSink sink;
  double elapsed = 0.0;

  ExprProgram fused = ExprProgram::Fuse(
      ExprProgram::Filter(ExprAbPredicate(), ExprProgram::VarMode::kBroadcast),
      ExprProgram::KeyByAttribute(0, Attribute::kId));
  CEP2ASP_CHECK(fused.ok());
  CompiledStatelessOperator compiled_op(std::move(fused), "filter+key");
  std::unique_ptr<Operator> filter =
      FilterOperator::FromPredicate(ExprAbPredicate());
  std::unique_ptr<Operator> keymap =
      MapOperator::KeyByAttribute(0, Attribute::kId);
  ExprAbChainTo chain(keymap.get(), &sink);

  for (size_t wave = 0; wave < events.size(); wave += kWave) {
    const size_t wave_end = std::min(events.size(), wave + kWave);
    std::vector<std::unique_ptr<ColumnarBatch>> blocks;
    std::vector<MessageBatch> batches;
    if (compiled) {
      blocks = MakeBlocks(events, wave, wave_end);
    } else {
      batches = MakeExprBatches(
          std::vector<SimpleEvent>(events.begin() + wave,
                                   events.begin() + wave_end),
          64);
    }
    const auto start = std::chrono::steady_clock::now();
    for (auto& block : blocks) {
      CEP2ASP_CHECK(
          compiled_op.ProcessColumnar(0, std::move(block), &sink).ok());
    }
    for (MessageBatch& batch : batches) {
      // The default Operator::ProcessBatch — per-tuple Process calls —
      // exactly what the executor runs for non-compiled operators.
      CEP2ASP_CHECK(filter->ProcessBatch(0, &batch, &chain).ok());
    }
    elapsed += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  }
  // Fold the key checksum into the match count so any divergence between
  // the two sides' observable output fails the run, not just the count.
  side->matches =
      sink.count() + static_cast<int64_t>(sink.key_sum() % 1000003);
  side->tps.push_back(static_cast<double>(events.size()) / elapsed);
}

/// Runs the compiled vs interpreted A/B on the filter→key prefix and
/// writes bench_results/BENCH_expr.json. Paired, order-alternating
/// repetitions with one untimed warm-up, like the chain A/B.
/// Exit status gates CI: compiled + columnar must reach 1.4x interpreted.
int RunExprAb(bool quick) {
  const int n = quick ? 300000 : 2000000;
  const int repetitions = quick ? 5 : 9;
  std::vector<SimpleEvent> events = MakeEvents(TypeA(), n, 10);

  AbSide compiled, interpreted;
  {
    AbSide warmup;
    RunExprOnce(/*compiled=*/true, events, &warmup);
    RunExprOnce(/*compiled=*/false, events, &warmup);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool compiled_first = (rep % 2) == 0;
    RunExprOnce(compiled_first, events,
                compiled_first ? &compiled : &interpreted);
    RunExprOnce(!compiled_first, events,
                compiled_first ? &interpreted : &compiled);
  }

  if (compiled.matches != interpreted.matches) {
    std::fprintf(stderr,
                 "expr A/B: match counts diverged (compiled %lld vs "
                 "interpreted %lld)\n",
                 static_cast<long long>(compiled.matches),
                 static_cast<long long>(interpreted.matches));
    return 1;
  }

  const double speedup = MedianPairedRatio(compiled, interpreted);
  constexpr double kGate = 1.4;
  const bool gate_passed = speedup >= kGate;

  char buf[256];
  std::string json = "{\n";
  json += "  \"benchmark\": \"expr_ab\",\n";
  json +=
      "  \"pipeline\": \"filter(3 terms)+key:=attr stage, compiled on "
      "64-row column blocks, interpreted on 64-tuple batches\",\n";
  json += "  \"simd\": ";
#ifdef CEP2ASP_SIMD
  json += "true,\n";
#else
  json += "false,\n";
#endif
  json += "  \"tuples_per_run\": " + std::to_string(n) + ",\n";
  json += "  \"repetitions\": " + std::to_string(repetitions) + ",\n";
  json += "  \"survivors\": " + std::to_string(compiled.matches) + ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"compiled_tps\": %.0f,\n  \"interpreted_tps\": %.0f,\n",
                Median(compiled.tps), Median(interpreted.tps));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"speedup\": %.2f,\n  \"gate_min_speedup\": %.2f,\n"
                "  \"gate_passed\": %s\n",
                speedup, kGate, gate_passed ? "true" : "false");
  json += buf;
  json += "}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/BENCH_expr.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::printf("wrote %s\n", path);
  if (!gate_passed) {
    std::fprintf(stderr,
                 "expr A/B gate FAILED: compiled %.2fx interpreted "
                 "(floor %.2f)\n",
                 speedup, kGate);
    return 1;
  }
  return 0;
}

// --- SoA columnar A/B with machine-readable output ---------------------------
//
// What the columnar envelope buys at the transfer layer: pushing N rows
// through an SpscChannel as individual data Messages (64-message batches)
// vs as one kColumnar envelope per 256 rows — one ring slot and one
// Message move per block instead of per tuple. A second A/B measures the
// join's columnar ingest against the scatter shim.

void RunSoaChannelOnce(bool columnar, const std::vector<SimpleEvent>& events,
                       AbSide* side) {
  constexpr size_t kRowBatch = 64;
  constexpr size_t kBlockRows = 256;  // one envelope per gathered block
  // Payloads are pre-built untimed — the transfer A/B measures ring
  // traffic, not tuple construction.
  std::vector<MessageBatch> batches;
  if (columnar) {
    for (auto& block : MakeBlocks(events, 0, events.size(), kBlockRows)) {
      MessageBatch batch;
      batch.push_back(Message::Columnar(0, std::move(block), 0));
      batches.push_back(std::move(batch));
    }
  } else {
    batches = MakeExprBatches(events, kRowBatch);
  }

  SpscChannel channel(4096);
  int64_t consumed_rows = 0;
  const auto start = std::chrono::steady_clock::now();
  std::thread consumer([&channel, &consumed_rows] {
    MessageBatch popped;
    bool eos = false;
    while (!eos) {
      if (channel.TryPopBatch(&popped, 64, &eos) == 0) {
        std::this_thread::yield();
        continue;
      }
      for (Message& msg : popped) {
        if (msg.kind == MessageKind::kTuple) {
          ++consumed_rows;
        } else if (msg.kind == MessageKind::kColumnar) {
          consumed_rows += msg.columnar_rows;
        }
      }
    }
  });
  for (MessageBatch& batch : batches) {
    bool first_attempt = true;
    TryPush outcome;
    while ((outcome = channel.TryPushBatch(&batch, first_attempt)) ==
           TryPush::kBlocked) {
      first_attempt = false;
      std::this_thread::yield();
    }
    CEP2ASP_CHECK(outcome == TryPush::kPushed);
  }
  channel.Close();
  consumer.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  side->matches = consumed_rows;
  side->tps.push_back(static_cast<double>(events.size()) / elapsed.count());
}

/// Join-ingest A/B: SlidingWindowJoinOperator::ProcessColumnar (column-wise
/// append into the per-(key, side) SoA window buffers, one key lookup per
/// run of equal keys) vs the base-class scatter shim the join paid before
/// it was columnar-capable (explicitly `Operator::ProcessColumnar`: a
/// RowTuple gather plus per-tuple Process per row). Keys arrive in 16-row
/// bursts — the shape per-sensor sources
/// produce — and the right side receives 1/64 of the blocks with a
/// never-true condition, so firing and probing stay a small, identical
/// cost on both sides and the measured path is the ingest itself.
void RunJoinIngestOnce(bool columnar, const std::vector<SimpleEvent>& events,
                       AbSide* side) {
  constexpr size_t kBlockRows = 256;
  constexpr int kWatermarkEveryBlocks = 16;

  Predicate never;  // values are 0..99: evaluated per pair, never true
  never.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, -1.0));
  SlidingWindowJoinOperator op(SlidingWindowSpec{5120, 5120}, never,
                               TimestampMode::kMax, "bench-join");
  CEP2ASP_CHECK(op.Open().ok());
  CEP2ASP_CHECK(op.Traits().columnar_capable);
  AbSink sink;

  // Payloads pre-built untimed, identically for both sides.
  std::vector<std::unique_ptr<ColumnarBatch>> blocks;
  for (size_t i = 0; i < events.size(); i += kBlockRows) {
    auto block = std::make_unique<ColumnarBatch>(1);
    const size_t end = std::min(events.size(), i + kBlockRows);
    block->Reserve(end - i);
    for (size_t j = i; j < end; ++j) {
      Tuple t(events[j]);
      t.set_key(static_cast<int64_t>(j / 16) % 256);  // 16-row key bursts
      block->AppendTuple(t);
    }
    blocks.push_back(std::move(block));
  }

  const auto start = std::chrono::steady_clock::now();
  Timestamp max_ts = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const size_t rows = blocks[b]->rows();
    if (rows > 0) {
      max_ts = std::max(max_ts, blocks[b]->event_time(rows - 1));
    }
    const int input = (b % 64 == 63) ? 1 : 0;
    if (columnar) {
      CEP2ASP_CHECK(op.ProcessColumnar(input, std::move(blocks[b]), &sink).ok());
    } else {
      CEP2ASP_CHECK(
          op.Operator::ProcessColumnar(input, std::move(blocks[b]), &sink).ok());
    }
    if (b % kWatermarkEveryBlocks == kWatermarkEveryBlocks - 1) {
      CEP2ASP_CHECK(op.OnWatermark(max_ts, &sink).ok());
    }
  }
  CEP2ASP_CHECK(op.OnWatermark(max_ts + 2 * 5120, &sink).ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  // Any divergence in buffered state, probe work, or emissions fails the
  // run: both ingest paths must be observationally identical.
  side->matches = sink.count() +
                  static_cast<int64_t>(sink.key_sum() % 1000003) +
                  op.pairs_evaluated() +
                  static_cast<int64_t>(op.StateBytes() % 1000003);
  side->tps.push_back(static_cast<double>(events.size()) / elapsed.count());
}

/// Runs the row-major vs columnar A/B (channel transfer + join ingest)
/// and writes bench_results/BENCH_soa.json. Paired, order-alternating
/// repetitions with one untimed warm-up, exactly like the expr A/B. Exit
/// status gates CI: the join's columnar ingest must reach 1.2x the
/// row-major shim.
int RunSoaAb(bool quick) {
  const int channel_rows = quick ? 1 << 16 : 1 << 17;
  const int join_rows = quick ? 1 << 16 : 1 << 19;
  const int repetitions = quick ? 15 : 9;
  std::vector<SimpleEvent> channel_events =
      MakeEvents(TypeA(), channel_rows, 10);
  std::vector<SimpleEvent> join_events = MakeEvents(TypeA(), join_rows, 10);

  AbSide chan_col, chan_row;
  {
    AbSide warmup;
    RunSoaChannelOnce(/*columnar=*/true, channel_events, &warmup);
    RunSoaChannelOnce(/*columnar=*/false, channel_events, &warmup);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool col_first = (rep % 2) == 0;
    RunSoaChannelOnce(col_first, channel_events,
                      col_first ? &chan_col : &chan_row);
    RunSoaChannelOnce(!col_first, channel_events,
                      col_first ? &chan_row : &chan_col);
  }
  if (chan_col.matches != chan_row.matches) {
    std::fprintf(stderr, "soa A/B: channel row counts diverged\n");
    return 1;
  }

  AbSide join_col, join_row;
  {
    AbSide warmup;
    RunJoinIngestOnce(/*columnar=*/true, join_events, &warmup);
    RunJoinIngestOnce(/*columnar=*/false, join_events, &warmup);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    const bool col_first = (rep % 2) == 0;
    RunJoinIngestOnce(col_first, join_events,
                      col_first ? &join_col : &join_row);
    RunJoinIngestOnce(!col_first, join_events,
                      col_first ? &join_row : &join_col);
  }
  if (join_col.matches != join_row.matches) {
    std::fprintf(stderr,
                 "soa A/B: join-ingest checksums diverged (columnar %lld vs "
                 "row-major %lld)\n",
                 static_cast<long long>(join_col.matches),
                 static_cast<long long>(join_row.matches));
    return 1;
  }

  const double channel_speedup = MedianPairedRatio(chan_col, chan_row);
  const double join_speedup = MedianPairedRatio(join_col, join_row);
  constexpr double kJoinGate = 1.2;
  const bool gate_passed = join_speedup >= kJoinGate;

  char buf[256];
  std::string json = "{\n";
  json += "  \"benchmark\": \"soa_ab\",\n";
  json += "  \"repetitions\": " + std::to_string(repetitions) + ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"channel_ab\": {\"rows\": %d, \"columnar_tps\": %.0f, "
                "\"row_tps\": %.0f, \"speedup\": %.2f},\n",
                channel_rows, Median(chan_col.tps), Median(chan_row.tps),
                channel_speedup);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"join_ingest_ab\": {\"rows\": %d, "
                "\"columnar_tps\": %.0f, \"row_tps\": %.0f, "
                "\"speedup\": %.2f, \"gate_min_speedup\": %.2f},\n",
                join_rows, Median(join_col.tps), Median(join_row.tps),
                join_speedup, kJoinGate);
  json += buf;
  json += std::string("  \"gate_passed\": ") +
          (gate_passed ? "true" : "false") + "\n";
  json += "}\n";

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const char* path = "bench_results/BENCH_soa.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::printf("wrote %s\n", path);
  if (!gate_passed) {
    std::fprintf(stderr,
                 "soa A/B gate FAILED: join ingest %.2fx (floor %.2f)\n",
                 join_speedup, kJoinGate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cep2asp

// Custom main: `--quick` / `--chain-ab` run the chain A/B and emit
// BENCH_chain.json; `--expr-ab` /
// `--expr-ab-quick` run the compiled vs interpreted expression A/B and
// emit BENCH_expr.json; `--soa-ab` / `--soa-ab-quick` run the row-major
// vs columnar transfer and join-ingest A/Bs and emit BENCH_soa.json;
// anything else goes to
// google-benchmark as usual.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") return cep2asp::RunChainAb(/*quick=*/true);
    if (arg == "--chain-ab") return cep2asp::RunChainAb(/*quick=*/false);
    if (arg == "--expr-ab") return cep2asp::RunExprAb(/*quick=*/false);
    if (arg == "--expr-ab-quick") return cep2asp::RunExprAb(/*quick=*/true);
    if (arg == "--soa-ab") return cep2asp::RunSoaAb(/*quick=*/false);
    if (arg == "--soa-ab-quick") return cep2asp::RunSoaAb(/*quick=*/true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
