// Regenerates Figure 6: scale-out over 1, 2, and 4 workers (16 slots
// each) for SEQ7 and ITER4 with 128 keys — plus a measured column from
// the real threaded engine running keyed O3 plans at parallelism 1/2/4.
//
// Expected shape: both approaches scale with added workers (more slots ->
// more key parallelism, more aggregate memory); FCEP gains the larger
// factor (it starts memory/GC-bound) but never reaches the FASP variants,
// which stay on average ~60% ahead (paper §5.2.5). The measured rows
// cross-check the simulator's scaling curve: hash-partitioned subtasks on
// the threaded executor, speedup relative to parallelism 1. Actual
// speedup is bounded by the host's core count (reported below): on a
// single-core container the measured column shows ~1x and only validates
// result stability, not scale-out.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "cluster/calibration.h"
#include "cluster/sim.h"
#include "harness/bench_util.h"
#include "runtime/threaded_executor.h"
#include "translator/translator.h"
#include "workload/generator.h"

namespace cep2asp {
namespace {

constexpr Timestamp kMin = kMillisPerMinute;

SimJobSpec MakeSpec(const std::string& pattern, SimApproach approach) {
  SimJobSpec spec;
  spec.approach = approach;
  if (pattern == "SEQ7") {
    spec.pattern_length = 3;
    spec.num_streams = 3;
    spec.window_ms = 15 * kMin;
    spec.step_selectivity = 0.08;
  } else {
    spec.pattern_length = 4;
    spec.num_streams = 1;
    spec.window_ms = 90 * kMin;
    spec.step_selectivity = 0.02;
  }
  spec.filter_selectivity = 0.25;
  spec.slide_ms = kMin;
  spec.num_keys = 128;
  return spec;
}

/// SEQ(A, B, C) with equi-join id predicates: O3 extracts a by-attribute
/// key plan, so the join stages hash-partition over the 128 sensor ids.
Pattern KeyedSeq3() {
  Predicate filter;
  filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt, 45));
  EventTypeId a = EventTypeRegistry::Global()->RegisterOrGet("Fig6A");
  EventTypeId b = EventTypeRegistry::Global()->RegisterOrGet("Fig6B");
  EventTypeId c = EventTypeRegistry::Global()->RegisterOrGet("Fig6C");
  return PatternBuilder()
      .Seq(PatternBuilder::Atom(a, "e1", filter),
           PatternBuilder::Atom(b, "e2", filter),
           PatternBuilder::Atom(c, "e3", filter))
      .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                  {1, Attribute::kId}))
      .Where(Comparison::AttrAttr({1, Attribute::kId}, CmpOp::kEq,
                                  {2, Attribute::kId}))
      .Within(6 * kMin)
      .Build()
      .ValueOrDie();
}

Workload MakeKeyedWorkload(int scale) {
  Workload workload;
  EventTypeId types[3] = {
      EventTypeRegistry::Global()->RegisterOrGet("Fig6A"),
      EventTypeRegistry::Global()->RegisterOrGet("Fig6B"),
      EventTypeRegistry::Global()->RegisterOrGet("Fig6C")};
  for (EventTypeId type : types) {
    StreamSpec spec;
    spec.type = type;
    spec.num_sensors = 128;  // 128 distinct keys, as in the paper's fig6
    spec.events_per_sensor = 300 * scale;
    spec.period = kMin;
    spec.align_to_period = true;
    spec.seed = 412 + type;
    workload.AddStream(spec);
  }
  return workload;
}

int Main(int argc, char** argv) {
  int scale = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--scale") scale = std::atoi(argv[i + 1]);
  }

  std::printf("calibrating cost profile against the real engine...\n");
  CostProfile costs = CalibrateCostProfile();

  ResultTable table(
      "Figure 6: scalability over workers (128 keys; simulated + measured)",
      {"pattern", "workers", "approach", "engine", "max sustainable",
       "speedup vs 1", "skew", "status"});

  for (const char* pattern_name : {"SEQ7", "ITER4"}) {
    const std::string pattern = pattern_name;
    for (SimApproach approach :
         {SimApproach::kFcep, SimApproach::kFaspSliding,
          SimApproach::kFaspInterval, SimApproach::kFaspAggregate}) {
      if (pattern == "SEQ7" && approach == SimApproach::kFaspAggregate) {
        continue;
      }
      double base_tps = 0;
      for (int workers : {1, 2, 4}) {
        ClusterSpec cluster;
        cluster.num_workers = workers;
        cluster.slots_per_worker = 16;
        cluster.memory_per_worker_bytes = 200.0 * 1024 * 1024 * 1024;
        ClusterSimulator sim(cluster, costs);
        SimJobSpec spec = MakeSpec(pattern, approach);
        double tps = sim.FindMaxSustainableTps(spec, 256e6);
        if (workers == 1) base_tps = tps;
        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      base_tps > 0 ? tps / base_tps : 0.0);
        table.AddRow({pattern, std::to_string(workers),
                      SimApproachToString(approach), "simulated",
                      FormatTps(tps), speedup, "-", "ok"});
      }
    }
  }

  // --- measured: threaded engine, keyed O3 parallelism -----------------------
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("running measured column on the threaded engine (%u core%s)...\n",
              cores, cores == 1 ? "" : "s");
  Pattern keyed = KeyedSeq3();
  double measured_base = 0;
  double measured_p4 = 0;
  int64_t base_matches = -1;
  for (int parallelism : {1, 2, 4}) {
    TranslatorOptions o3;
    o3.use_equi_join_keys = true;
    o3.parallelism = parallelism;
    Workload workload = MakeKeyedWorkload(scale);
    auto compiled = TranslatePattern(keyed, o3, workload.MakeSourceFactory(),
                                     /*store_matches=*/false);
    CEP2ASP_CHECK(compiled.ok()) << compiled.status();
    ThreadedExecutor executor(&compiled->graph);
    ExecutionResult result = executor.Run(compiled->sink);
    char speedup[32], skew[32];
    if (!result.ok) {
      table.AddRow({"SEQ3eq", std::to_string(parallelism), "FASP-O3",
                    "measured", "-", "-", "-", result.error});
      continue;
    }
    if (parallelism == 1) {
      measured_base = result.throughput_tps();
      base_matches = result.matches_emitted;
    }
    if (parallelism == 4) measured_p4 = result.throughput_tps();
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  measured_base > 0 ? result.throughput_tps() / measured_base
                                    : 0.0);
    double max_imbalance = 0;
    for (const PartitionSkew& s : result.partition_skew) {
      max_imbalance = std::max(max_imbalance, s.imbalance());
    }
    std::snprintf(skew, sizeof(skew), "%.2f", max_imbalance);
    const bool same_matches =
        base_matches < 0 || result.matches_emitted == base_matches;
    table.AddRow({"SEQ3eq", std::to_string(parallelism), "FASP-O3",
                  "measured", FormatTps(result.throughput_tps()), speedup,
                  parallelism > 1 ? skew : "-",
                  same_matches ? "ok" : "MATCH COUNT DIVERGED"});
  }

  table.Print();
  if (measured_base > 0 && measured_p4 > 0) {
    std::printf(
        "\nmeasured speedup P4/P1: %.2fx on %u host core%s (simulator models "
        "4 workers x 16 slots; expect ~1x when cores <= 1)\n",
        measured_p4 / measured_base, cores, cores == 1 ? "" : "s");
  }
  CEP2ASP_CHECK_OK(table.WriteCsv("fig6_scalability"));
  return 0;
}

}  // namespace
}  // namespace cep2asp

int main(int argc, char** argv) { return cep2asp::Main(argc, argv); }
