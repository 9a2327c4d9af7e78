#ifndef CEP2ASP_HARNESS_BENCH_UTIL_H_
#define CEP2ASP_HARNESS_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/strings.h"
#include "runtime/executor.h"
#include "translator/translator.h"
#include "workload/generator.h"

namespace cep2asp {

/// \brief One measured data point: an approach run on a workload.
struct ApproachResult {
  std::string approach;        // "FCEP", "FASP", "FASP-O1", ...
  bool ok = false;
  std::string error;           // e.g. simulated memory exhaustion
  double throughput_tps = 0;   // max sustainable: ingested / elapsed
  double latency_mean_ms = 0;  // detection latency (§5.1.3)
  double latency_p99_ms = 0;
  int64_t matches = 0;         // emitted matches (with duplicates)
  int64_t tuples = 0;
  size_t peak_state_bytes = 0;
  double output_selectivity = 0;  // matches / events, %
};

/// Runs the translated FASP query on the workload and measures it. The
/// sink discards tuples (benchmark mode). `memory_limit` simulates a
/// bounded heap (0 = unlimited).
ApproachResult MeasureFasp(const Pattern& pattern, const Workload& workload,
                           const TranslatorOptions& options,
                           const std::string& label,
                           size_t memory_limit_bytes = 0);

/// Runs the FCEP baseline job and measures it.
ApproachResult MeasureFcep(const Pattern& pattern, const Workload& workload,
                           const CepJobOptions& options = {},
                           size_t memory_limit_bytes = 0);

/// \brief Fixed-width console table, one row per measurement, plus CSV
/// output under bench_results/ for the EXPERIMENTS.md bookkeeping.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);

  /// Prints the table to stdout.
  void Print() const;

  /// Writes `bench_results/<file_stem>.csv` (directory created on demand).
  Status WriteCsv(const std::string& file_stem) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders throughput as "123.4k" style.
std::string FormatTps(double tps);

/// Opts every operator node out of chaining (JobGraph::SetChaining), so
/// each operator runs as its own subtask behind a real exchange channel —
/// the unchained side of chain A/Bs and tests.
void DisableChaining(JobGraph* graph);

/// Formats a full ApproachResult row (approach, tput, latency, matches,
/// state) for the standard table layout.
std::vector<std::string> ResultRow(const std::string& scenario,
                                   const ApproachResult& result);

/// The standard column set matching ResultRow.
std::vector<std::string> StandardColumns();

}  // namespace cep2asp

#endif  // CEP2ASP_HARNESS_BENCH_UTIL_H_
