// End-to-end benchmark of the ThreadedExecutor on the translator's plans.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>]
//
// Each run interleaves two modes for `--seconds` seconds:
//   * saturated: unpaced sources, the paper's throughput number;
//   * open loop: every event has a due time on one fixed schedule at the
//     workload's offered rate that does not slow when the engine slows;
//     latency runs from the due time of a match's latest event to the
//     match reaching the sink.
// Every run's match count and checksum are checked against the
// single-threaded PipelineExecutor on the same events. With --trace 1 the
// operators are wrapped in forwarding decorators and the run reports
// per-layer metrics instead of end-to-end ones. The last line of standard
// output is one JSON object (see perfbench/README.md).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/graph_rules.h"
#include "replay.h"
#include "runtime/executor.h"
#include "runtime/threaded_executor.h"
#include "trace.h"
#include "translator/translator.h"
#include "workload/generator.h"
#include "workload/presets.h"

namespace cep2asp {
namespace perfbench {
namespace {

constexpr Timestamp kMin = kMillisPerMinute;

/// Compile-only repetitions before measuring: one compile takes tens to
/// hundreds of microseconds, so set-up is reported as a median.
constexpr int kCompileReps = 40;

/// Minimum repetitions of each mode, even when `--seconds` is too short.
constexpr int kMinReps = 3;

struct WorkloadSpec {
  const char* name;
  /// Open-loop offered rate, tuples/s over all sources together.
  double offered_tps;
  int parallelism;
  int workers;
  bool keyed_seq3;  // keyed SEQ(A,B,C) with O3; otherwise SEQ1(Q,V)
  int sensors;
  int rounds;  // events per sensor and stream
};

// The offered rates sit well below each workload's saturation point on a
// 4-vCPU x86 VM (seq3 ~1.5M tuples/s at P=1, ~1.1M at P=4 on 2 workers;
// seq1 ~10M tuples/s), so an open-loop run measures queueing at a
// sustained rate. seq1 runs at 4M rather than 2M tuples/s: at 2M its
// single worker idles 80% of the time, and the timer parks and wake-ups of
// that idling made CPU per tuple follow the host's timer costs.
constexpr WorkloadSpec kWorkloads[] = {
    {"seq3_keyed_p1", 450e3, 1, 1, true, 128, 1200},
    {"seq3_keyed_p4", 450e3, 4, 2, true, 128, 1200},
    {"seq1_filter", 4e6, 1, 1, false, 64, 8000},
};

struct Bench {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::optional<Pattern> pattern;
  TranslatorOptions options;
  std::unordered_map<EventTypeId, std::shared_ptr<const ReplayStream>> streams;
  int64_t total_events = 0;
};

std::vector<EventTypeId> StreamTypes(const WorkloadSpec& spec) {
  if (spec.keyed_seq3) {
    EventTypeRegistry* registry = EventTypeRegistry::Global();
    return {registry->RegisterOrGet("Fig6A"), registry->RegisterOrGet("Fig6B"),
            registry->RegisterOrGet("Fig6C")};
  }
  const SensorTypes types = SensorTypes::Get();
  return {types.q, types.v};
}

/// The fig6 keyed SEQ(A,B,C) (equi-join on the sensor id, value < 45 per
/// stream, W = 6 min), or fig3a's SEQ1(Q,V) with filter selectivity 0.2%
/// and W = 15 min sliding by 1 min.
Result<Pattern> BuildPattern(const WorkloadSpec& spec) {
  const std::vector<EventTypeId> types = StreamTypes(spec);
  Predicate filter;
  if (spec.keyed_seq3) {
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
    return PatternBuilder()
        .Seq(PatternBuilder::Atom(types[0], "e1", filter),
             PatternBuilder::Atom(types[1], "e2", filter),
             PatternBuilder::Atom(types[2], "e3", filter))
        .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                    {1, Attribute::kId}))
        .Where(Comparison::AttrAttr({1, Attribute::kId}, CmpOp::kEq,
                                    {2, Attribute::kId}))
        .Within(6 * kMin)
        .Build();
  }
  filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 0.2));
  return PatternBuilder()
      .Seq(PatternBuilder::Atom(types[0], "q1", filter),
           PatternBuilder::Atom(types[1], "v1", filter))
      .Within(15 * kMin)
      .SlideBy(kMin)
      .Build();
}

/// Generates the streams from the seed and writes each event's index in
/// the merged open-loop schedule into its aux_ts: events ordered by event
/// time, and within one timestamp round-robin over the streams, so all
/// sources advance through event time together.
void GenerateStreams(Bench* bench) {
  const WorkloadSpec& spec = *bench->spec;
  const std::vector<EventTypeId> types = StreamTypes(spec);
  std::vector<std::vector<SimpleEvent>> streams;
  for (size_t i = 0; i < types.size(); ++i) {
    StreamSpec stream;
    stream.type = types[i];
    stream.num_sensors = spec.sensors;
    stream.events_per_sensor = spec.rounds;
    stream.period = kMin;
    stream.align_to_period = true;
    stream.seed = bench->seed * 1000003ULL + i;
    streams.push_back(GenerateStream(stream));
  }
  struct Slot {
    Timestamp ts;
    size_t rank;  // position among the stream's events with this ts
    size_t stream;
    size_t pos;
  };
  std::vector<Slot> order;
  for (size_t s = 0; s < streams.size(); ++s) {
    size_t rank = 0;
    for (size_t p = 0; p < streams[s].size(); ++p) {
      rank = p > 0 && streams[s][p].ts == streams[s][p - 1].ts ? rank + 1 : 0;
      order.push_back({streams[s][p].ts, rank, s, p});
    }
  }
  std::sort(order.begin(), order.end(), [](const Slot& a, const Slot& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.stream < b.stream;
  });
  for (size_t k = 0; k < order.size(); ++k) {
    streams[order[k].stream][order[k].pos].aux_ts = static_cast<Timestamp>(k);
  }
  bench->total_events = static_cast<int64_t>(order.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    bench->streams[types[s]] =
        std::make_shared<const ReplayStream>(std::move(streams[s]));
  }
}

/// Per-run tracing state: operator totals, one record per source, and
/// each node's out-edges as (consumer, port).
struct RunTrace {
  TraceRun ops;
  std::deque<SourceTrace> sources;
  std::vector<std::vector<std::pair<NodeId, int>>> out_edges;
};

struct Job {
  CompiledQuery query;
  TimingSink* sink = nullptr;
  int64_t translate_ns = 0;
  int64_t lint_ns = 0;
};

/// Translates the pattern with the zero-copy replay factory, lints the
/// graph, then swaps the benchmark's sink in for the CollectSink (and, when
/// traced, wraps every operator). Only translation and lint are timed.
Status BuildJob(const Bench& bench, const RunClock* clock, size_t expected,
                RunTrace* trace, Job* job) {
  SourceFactory factory =
      [&bench, clock, trace](EventTypeId type) -> std::unique_ptr<Source> {
    auto it = bench.streams.find(type);
    if (it == bench.streams.end()) return nullptr;
    SourceTrace* source_trace = nullptr;
    if (trace != nullptr) source_trace = &trace->sources.emplace_back();
    return std::make_unique<ReplaySource>(it->second, clock, source_trace);
  };
  const int64_t t0 = SteadyNanos();
  Result<CompiledQuery> compiled =
      TranslatePattern(*bench.pattern, bench.options, factory,
                       /*store_matches=*/false);
  const int64_t t1 = SteadyNanos();
  if (!compiled.ok()) return compiled.status();
  job->query = std::move(compiled).ValueOrDie();
  const DiagnosticReport report = AnalyzeJobGraph(job->query.graph);
  const int64_t t2 = SteadyNanos();
  Status lint = report.ToStatus();
  if (!lint.ok()) return lint;
  job->translate_ns = t1 - t0;
  job->lint_ns = t2 - t1;

  JobGraph& graph = job->query.graph;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    JobGraph::Node& node = graph.mutable_node(id);
    if (node.is_source() || node.op.get() != job->query.sink) continue;
    auto sink = std::make_unique<TimingSink>(clock, expected);
    job->sink = sink.get();
    node.op = std::move(sink);
  }
  job->query.sink = nullptr;  // destroyed by the swap
  if (job->sink == nullptr) return Status::Internal("compiled job has no sink");
  if (trace != nullptr) {
    TraceOperators(&graph, &trace->ops);
    for (NodeId id = 0; id < graph.num_nodes(); ++id) {
      std::vector<std::pair<NodeId, int>>& edges =
          trace->out_edges.emplace_back();
      for (const JobGraph::Edge& edge : graph.node(id).outputs) {
        edges.emplace_back(edge.to, edge.input_port);
      }
    }
  }
  return Status::OK();
}

struct Reference {
  int64_t count = 0;
  uint64_t checksum = 0;
};

Result<Reference> RunReference(const Bench& bench) {
  RunClock clock(0);
  Job job;
  Status built = BuildJob(bench, &clock, 0, nullptr, &job);
  if (!built.ok()) return built;
  PipelineExecutor executor(&job.query.graph);
  ExecutionResult result = executor.Run(nullptr);
  if (!result.ok) return Status::Internal("reference run failed: " + result.error);
  return Reference{job.sink->count(), job.sink->checksum()};
}

int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

struct RunRecord {
  bool ok = false;  // engine status OK and matches equal to the reference
  std::string error;
  int64_t tuples = 0;
  int64_t wall_ns = 0;   // first source pull -> Run() return
  int64_t start_ns = 0;  // Run() entry -> first source pull
  int64_t translate_ns = 0;
  int64_t lint_ns = 0;
  int64_t cpu_ns = 0;
  std::vector<int64_t> latencies;
  ExecutionResult result;
};

RunRecord RunOnce(const Bench& bench, const Reference& ref, bool paced,
                  RunTrace* trace) {
  RunRecord record;
  RunClock clock(paced ? bench.spec->offered_tps : 0);
  Job job;
  Status built = BuildJob(bench, &clock, static_cast<size_t>(ref.count), trace,
                          &job);
  if (!built.ok()) {
    record.error = built.ToString();
    return record;
  }
  ThreadedExecutorOptions options;
  options.worker_threads = bench.spec->workers;
  ThreadedExecutor executor(&job.query.graph, options);
  const int64_t cpu0 = ProcessCpuNanos();
  const int64_t entry = SteadyNanos();
  record.result = executor.Run(nullptr);
  const int64_t end = SteadyNanos();
  record.cpu_ns = ProcessCpuNanos() - cpu0;
  const int64_t first_pull = clock.first_pull_nanos();
  record.start_ns = first_pull > 0 ? first_pull - entry : end - entry;
  record.wall_ns = first_pull > 0 ? end - first_pull : 0;
  record.translate_ns = job.translate_ns;
  record.lint_ns = job.lint_ns;
  record.tuples = record.result.tuples_ingested;
  record.latencies = std::move(job.sink->latencies());
  if (!record.result.ok) {
    record.error = record.result.error;
  } else if (job.sink->count() != ref.count ||
             job.sink->checksum() != ref.checksum) {
    record.error = "matches differ from the reference: " +
                   std::to_string(job.sink->count()) + " vs " +
                   std::to_string(ref.count);
  } else if (record.tuples != bench.total_events || record.wall_ns <= 0) {
    record.error = "ingested " + std::to_string(record.tuples) + " of " +
                   std::to_string(bench.total_events) + " events";
  } else {
    record.ok = true;
  }
  return record;
}

/// Linearly interpolated quantile, `q` in [0, 1].
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double low = static_cast<double>(values[lo]);
  return low + (static_cast<double>(values[hi]) - low) *
                   (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One named metric with its unit, in output order.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Collects samples of one metric per repetition; reported as the median.
class MetricSamples {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = entries_.size();
      entries_.push_back({name, unit, {value}});
    } else {
      entries_[it->second].values.push_back(value);
    }
  }
  std::vector<Metric> Medians() const {
    std::vector<Metric> out;
    for (const Entry& e : entries_) out.push_back({e.name, e.unit, Median(e.values)});
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// Per-layer metrics of one traced saturated repetition.
void AddSaturatedLayerMetrics(int workers, const RunRecord& run,
                              const RunTrace& trace, MetricSamples* out) {
  const std::deque<OperatorTotals>& ops = trace.ops.totals();
  // Rows a node emitted = rows its consumers received on the connecting
  // port (the edges of these plans are forward or hash, never broadcast).
  std::map<std::pair<NodeId, int>, int64_t> rows_into;
  for (const OperatorTotals& op : ops) {
    rows_into[{op.node, 0}] += op.rows_in[0];
    rows_into[{op.node, 1}] += op.rows_in[1];
  }
  auto rows_out = [&](NodeId node) {
    int64_t rows = 0;
    for (const auto& [to, port] : trace.out_edges[static_cast<size_t>(node)]) {
      rows += rows_into[{to, port}];
    }
    return rows;
  };
  std::map<NodeId, Layer> nodes;
  int64_t prefix_in = 0, prefix_self = 0;
  int64_t join_in = 0, join_ingest = 0, join_fire = 0, pairs = 0;
  int64_t sink_self = 0, covered = 0;
  double join_state = 0;
  for (const OperatorTotals& op : ops) {
    nodes[op.node] = op.layer;
    const int64_t in = op.rows_in[0] + op.rows_in[1];
    covered += op.top_level_ns;
    if (op.layer == Layer::kPrefix) {
      prefix_in += in;
      prefix_self += op.ingest_self_ns;
    } else if (op.layer == Layer::kJoin) {
      join_in += in;
      join_ingest += op.ingest_self_ns;
      join_fire += op.fire_self_ns;
      pairs += op.pairs_evaluated;
      join_state += static_cast<double>(op.peak_state_bytes);
    } else if (op.layer == Layer::kSink) {
      sink_self += op.ingest_self_ns + op.fire_self_ns;
    }
  }
  int64_t prefix_out = 0, join_out = 0;
  for (const auto& [node, layer] : nodes) {
    if (layer == Layer::kPrefix) prefix_out += rows_out(node);
    if (layer == Layer::kJoin) join_out += rows_out(node);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  int64_t source_calls = 0, sampled_calls = 0, sampled_ns = 0;
  for (const SourceTrace& source : trace.sources) {
    source_calls += source.calls;
    sampled_calls += source.sampled_calls;
    sampled_ns += source.sampled_nanos;
  }
  const double source_ns_per_row = ratio(sampled_ns, sampled_calls);
  covered += static_cast<int64_t>(source_ns_per_row *
                                  static_cast<double>(source_calls));

  out->Add("prefix.self_ns_per_row", "ns", ratio(prefix_self, prefix_in));
  out->Add("prefix.pass_ratio", "share", ratio(prefix_out, prefix_in));
  out->Add("join.ingest_ns_per_row", "ns", ratio(join_ingest, join_in));
  out->Add("join.fire_ms", "ms", static_cast<double>(join_fire) / 1e6);
  out->Add("join.pairs_evaluated", "count", static_cast<double>(pairs));
  out->Add("join.match_ratio", "share", ratio(join_out, pairs));
  out->Add("join.peak_state_mb", "MB", join_state / (1024.0 * 1024.0));
  out->Add("sink.self_ms", "ms", static_cast<double>(sink_self) / 1e6);
  out->Add("source.self_ns_per_row", "ns", source_ns_per_row);
  out->Add("runtime.unattributed_share", "share",
           1.0 - ratio(covered, static_cast<double>(run.wall_ns) * workers));

  int64_t rows = 0, columnar_rows = 0, scattered = 0, messages = 0, batches = 0;
  for (const ChannelStats& channel : run.result.channel_stats) {
    if (channel.fused) continue;
    rows += channel.tuples;
    columnar_rows += channel.columnar_rows;
    scattered += channel.scattered_rows;
    messages += channel.messages;
    batches += channel.batches;
  }
  double imbalance = 1.0;  // no partitioned operator: nothing to skew
  for (const PartitionSkew& skew : run.result.partition_skew) {
    imbalance = std::max(imbalance, skew.imbalance());
  }
  out->Add("channel.columnar_row_share", "share", ratio(columnar_rows, rows));
  out->Add("channel.avg_fill", "count", ratio(messages, batches));
  out->Add("channel.scattered_rows", "count", static_cast<double>(scattered));
  out->Add("partition.imbalance", "ratio", imbalance);
}

/// Per-layer metrics of one traced open-loop run.
void AddOpenLoopLayerMetrics(const RunRecord& run, const RunTrace& trace,
                             MetricSamples* out) {
  std::vector<int64_t> lags;
  for (const SourceTrace& source : trace.sources) {
    lags.insert(lags.end(), source.lag_nanos.begin(), source.lag_nanos.end());
  }
  out->Add("source.lag_p99_us", "us", Quantile(std::move(lags), 0.99) / 1e3);
  const SchedulerStats& scheduler = run.result.scheduler;
  out->Add("scheduler.parks_per_ktuple", "count",
           run.tuples > 0 ? 1000.0 * static_cast<double>(scheduler.total_parks()) /
                                static_cast<double>(run.tuples)
                          : 0.0);
  out->Add("scheduler.steals", "count",
           static_cast<double>(scheduler.total_steals()));
  out->Add("scheduler.quantum_utilization", "share",
           scheduler.quantum_utilization());
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:");
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 64;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  Bench bench;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) bench.spec = &spec;
  }
  if (argc % 2 != 1 || bench.spec == nullptr || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  const WorkloadSpec& spec = *bench.spec;
  bench.seed = static_cast<uint64_t>(seed);
  Result<Pattern> pattern = BuildPattern(spec);
  if (!pattern.ok()) {
    std::fprintf(stderr, "pattern: %s\n", pattern.status().ToString().c_str());
    return 1;
  }
  bench.pattern.emplace(std::move(pattern).ValueOrDie());
  if (spec.keyed_seq3) {
    bench.options.use_equi_join_keys = true;
    bench.options.parallelism = spec.parallelism;
    bench.options.num_keys_hint = spec.sensors;
  }
  GenerateStreams(&bench);
  Result<Reference> ref = RunReference(bench);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
    return 1;
  }
  std::printf("%s seed %lld: %lld events, %lld reference matches, P=%d on %d "
              "worker(s), open loop at %.0f tuples/s\n",
              spec.name, seed, static_cast<long long>(bench.total_events),
              static_cast<long long>(ref->count), spec.parallelism,
              spec.workers, spec.offered_tps);

  // Set-up, timed from outside: pattern construction (sea), translation,
  // graph lint, and the executor's start-up up to the first source pull.
  std::vector<double> pattern_us, translate_us, lint_us, start_us;
  for (int i = 0; i < kCompileReps; ++i) {
    const int64_t t0 = SteadyNanos();
    Result<Pattern> rebuilt = BuildPattern(spec);
    pattern_us.push_back(static_cast<double>(SteadyNanos() - t0) / 1e3);
    RunClock clock(0);
    Job job;
    Status built = BuildJob(bench, &clock, 0, nullptr, &job);
    if (!rebuilt.ok() || !built.ok()) {
      std::fprintf(stderr, "compile: %s\n", built.ToString().c_str());
      return 1;
    }
    translate_us.push_back(static_cast<double>(job.translate_ns) / 1e3);
    lint_us.push_back(static_cast<double>(job.lint_ns) / 1e3);
  }

  int64_t attempted = 0, failed = 0;
  auto account = [&](const RunRecord& run) {
    ++attempted;
    if (!run.ok) {
      ++failed;
      std::fprintf(stderr, "run failed: %s\n", run.error.c_str());
    }
    translate_us.push_back(static_cast<double>(run.translate_ns) / 1e3);
    lint_us.push_back(static_cast<double>(run.lint_ns) / 1e3);
    start_us.push_back(static_cast<double>(run.start_ns) / 1e3);
  };
  // Warm-up: allocator arenas, code and the event pages; its timing is
  // discarded, its matches still count.
  account(RunOnce(bench, *ref, /*paced=*/false, nullptr));

  const int64_t begin = SteadyNanos();
  auto more = [&](int reps) {
    return reps < kMinReps ||
           static_cast<double>(SteadyNanos() - begin) < seconds * 1e9;
  };
  std::vector<Metric> metrics;
  if (trace == 0) {
    // Two saturated repetitions per open-loop run: a saturated repetition
    // is shorter and spreads wider (its cost depends on how deep the
    // unpaced sources filled the channels).
    std::vector<double> tps, p50, p99, cpu;
    for (int reps = 0; more(reps); ++reps) {
      for (int i = 0; i < 2; ++i) {
        RunRecord saturated = RunOnce(bench, *ref, /*paced=*/false, nullptr);
        account(saturated);
        if (saturated.ok) {
          tps.push_back(static_cast<double>(saturated.tuples) * 1e9 /
                        static_cast<double>(saturated.wall_ns));
        }
      }
      RunRecord open = RunOnce(bench, *ref, /*paced=*/true, nullptr);
      account(open);
      if (open.ok) {
        p50.push_back(Quantile(open.latencies, 0.50) / 1e3);
        p99.push_back(Quantile(std::move(open.latencies), 0.99) / 1e3);
        cpu.push_back(static_cast<double>(open.cpu_ns) /
                      static_cast<double>(open.tuples));
      }
    }
    auto print = [](const char* label, const std::vector<double>& values) {
      std::printf("%s:", label);
      for (double v : values) std::printf(" %.6g", v);
      std::printf("\n");
    };
    print("saturated tuples/s", tps);
    print("open-loop p50 us", p50);
    print("open-loop p99 us", p99);
    print("open-loop cpu ns/tuple", cpu);
    // Interference from other tenants of the host only ever slows a
    // repetition, and does so for a varying share of them: throughput is
    // the upper quartile of the repetitions and CPU per tuple the lower
    // quartile of the open-loop runs, which track the engine rather than
    // the neighbours. Latencies are medians of per-run percentiles.
    metrics = {
        {"throughput_tps", "tuples/s", Quantile(tps, 0.75)},
        {"latency_p50_us", "us", Median(p50)},
        {"latency_p99_us", "us", Median(p99)},
        {"cpu_ns_per_tuple", "ns", Quantile(cpu, 0.25)},
        {"peak_rss_mb", "MB", PeakRssMb()},
        {"setup_s", "s",
         (Median(translate_us) + Median(lint_us) + Median(start_us)) / 1e6},
        {"correct_share", "share",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted)},
    };
  } else {
    MetricSamples layers;
    std::vector<double> plain_wall, traced_wall;
    for (int reps = 0; more(reps); ++reps) {
      RunRecord plain = RunOnce(bench, *ref, /*paced=*/false, nullptr);
      account(plain);
      if (plain.ok) plain_wall.push_back(static_cast<double>(plain.wall_ns));

      RunTrace saturated_trace;
      if (reps == 0) SpanLog::Get()->Record(1);
      RunRecord saturated =
          RunOnce(bench, *ref, /*paced=*/false, &saturated_trace);
      SpanLog::Get()->Record(0);
      account(saturated);
      if (saturated.ok) {
        traced_wall.push_back(static_cast<double>(saturated.wall_ns));
        AddSaturatedLayerMetrics(spec.workers, saturated, saturated_trace,
                                 &layers);
      }

      RunTrace open_trace;
      if (reps == 0) SpanLog::Get()->Record(2);
      RunRecord open = RunOnce(bench, *ref, /*paced=*/true, &open_trace);
      SpanLog::Get()->Record(0);
      account(open);
      if (open.ok) AddOpenLoopLayerMetrics(open, open_trace, &layers);
    }
    metrics = {
        {"sea.pattern_us", "us", Median(pattern_us)},
        {"translator.translate_us", "us", Median(translate_us)},
        {"analysis.lint_us", "us", Median(lint_us)},
        {"runtime.start_us", "us", Median(start_us)},
    };
    for (const Metric& m : layers.Medians()) metrics.push_back(m);
    const double plain = Median(plain_wall);
    metrics.push_back({"trace.overhead_share", "share",
                       plain > 0 ? Median(traced_wall) / plain - 1.0 : 0.0});
    if (!trace_out.empty() && !SpanLog::Get()->WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cep2asp

int main(int argc, char** argv) {
  return cep2asp::perfbench::Main(argc, argv);
}
