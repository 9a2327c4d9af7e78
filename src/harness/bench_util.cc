#include "harness/bench_util.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/strings.h"

namespace cep2asp {

namespace {

ApproachResult Measure(Result<CompiledQuery> compiled, const std::string& label,
                       int64_t total_events, size_t memory_limit_bytes) {
  ApproachResult out;
  out.approach = label;
  if (!compiled.ok()) {
    out.error = compiled.status().ToString();
    return out;
  }
  ExecutorOptions options;
  options.watermark_interval = 256;
  options.state_sample_interval = 0;
  if (memory_limit_bytes > 0) options.memory_limit_bytes = memory_limit_bytes;
  ExecutionResult result = RunJob(&compiled->graph, compiled->sink, options);
  out.ok = result.ok;
  out.error = result.error;
  out.throughput_tps = result.throughput_tps();
  out.latency_mean_ms = result.latency.mean_ms;
  out.latency_p99_ms = result.latency.p99_ms;
  out.matches = result.matches_emitted;
  out.tuples = result.tuples_ingested;
  out.peak_state_bytes = result.peak_state_bytes;
  if (total_events > 0) {
    out.output_selectivity =
        100.0 * static_cast<double>(out.matches) /
        static_cast<double>(total_events);
  }
  return out;
}

}  // namespace

ApproachResult MeasureFasp(const Pattern& pattern, const Workload& workload,
                           const TranslatorOptions& options,
                           const std::string& label,
                           size_t memory_limit_bytes) {
  return Measure(TranslatePattern(pattern, options,
                                  workload.MakeSourceFactory(),
                                  /*store_matches=*/false),
                 label, workload.TotalEvents(), memory_limit_bytes);
}

ApproachResult MeasureFcep(const Pattern& pattern, const Workload& workload,
                           const CepJobOptions& options,
                           size_t memory_limit_bytes) {
  CepJobOptions run_options = options;
  run_options.store_matches = false;
  return Measure(
      BuildCepJob(pattern, workload.MakeSourceFactory(), run_options), "FCEP",
      workload.TotalEvents(), memory_limit_bytes);
}

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void ResultTable::Print() const {
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

Status ResultTable::WriteCsv(const std::string& file_stem) const {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::string path = "bench_results/" + file_stem + ".csv";
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot write " + path);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out << ",";
    out << columns_[i];
  }
  out << "\n";
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ",";
      out << row[i];
    }
    out << "\n";
  }
  return Status::OK();
}

std::string FormatTps(double tps) { return HumanCount(tps) + " tpl/s"; }

void DisableChaining(JobGraph* graph) {
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    if (!graph->node(id).is_source()) (void)graph->SetChaining(id, false);
  }
}

std::vector<std::string> StandardColumns() {
  return {"scenario", "approach", "throughput", "latency(mean)",
          "latency(p99)", "matches", "peak state", "status"};
}

std::vector<std::string> ResultRow(const std::string& scenario,
                                   const ApproachResult& result) {
  char mean[32], p99[32];
  std::snprintf(mean, sizeof(mean), "%.1f ms", result.latency_mean_ms);
  std::snprintf(p99, sizeof(p99), "%.1f ms", result.latency_p99_ms);
  return {scenario,
          result.approach,
          result.ok ? FormatTps(result.throughput_tps) : "-",
          result.ok ? mean : "-",
          result.ok ? p99 : "-",
          std::to_string(result.matches),
          HumanBytes(static_cast<double>(result.peak_state_bytes)),
          result.ok ? "ok" : ("FAIL: " + result.error)};
}

}  // namespace cep2asp
