// plan_lint: diagnostic driver for the three-layer query analyzer.
//
// Modes:
//   plan_lint              lint every paper evaluation pattern under every
//                          optimization set (exit 1 when any E-code fires,
//                          2 when only W-codes fire, 0 when clean)
//   plan_lint --codes [FILTER...]
//                          print the diagnostic-code registry (E, W and I
//                          severities alike); optional filters select rows
//                          by full name ("CEP2ASP-E318"), short form
//                          ("E318", "w313") or bare number ("318")
//   plan_lint --psl TEXT   lint one PSL pattern under every optimization set
//   plan_lint --chains     print the chain layout of every paper pattern
//                          under every optimization set, plus I315 infos
//                          for forward edges the planner could not fuse and
//                          I317 reports on which filter/map nodes run
//                          compiled ExprProgram bytecode vs interpreted
//   plan_lint --schedule   print the task/worker layout of every paper
//                          pattern under every optimization set
//   plan_lint --ranges     run the interval range pass over every paper
//                          pattern x option set (and the FCEP baseline)
//                          against the preset workloads' measured source
//                          ranges: per-operator attribute intervals, key
//                          domains and selectivity bounds, plus the I320
//                          range report and any E318/W319/derived-W313
//                          findings (exit 1 on any E)

#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/chain_rules.h"
#include "analysis/expr_rules.h"
#include "analysis/schedule_rules.h"
#include "common/clock.h"
#include "harness/paper_patterns.h"
#include "runtime/vector_source.h"
#include "sea/parser.h"
#include "workload/presets.h"

namespace cep2asp {
namespace {

struct OptionSet {
  const char* name;
  TranslatorOptions options;
};

std::vector<OptionSet> OptionSets() {
  std::vector<OptionSet> sets;
  sets.push_back({"baseline", {}});
  TranslatorOptions o1;
  o1.use_interval_join = true;
  sets.push_back({"O1", o1});
  TranslatorOptions o2;
  o2.use_aggregation_for_iter = true;
  sets.push_back({"O2", o2});
  TranslatorOptions o3;
  o3.use_equi_join_keys = true;
  sets.push_back({"O3", o3});
  TranslatorOptions all;
  all.use_interval_join = true;
  all.use_aggregation_for_iter = true;
  all.use_equi_join_keys = true;
  sets.push_back({"O1+O2+O3", all});
  TranslatorOptions dedup;
  dedup.deduplicate_output = true;
  sets.push_back({"dedup", dedup});
  TranslatorOptions parallel;
  parallel.use_equi_join_keys = true;
  parallel.parallelism = 4;
  parallel.num_keys_hint = 128;
  sets.push_back({"O3-par4", parallel});
  return sets;
}

void PrintReport(const DiagnosticReport& report) {
  for (const Diagnostic& d : report.diagnostics()) {
    std::printf("    %s\n", d.ToString().c_str());
  }
}

/// E/W tallies driving the exit status (1 = errors, 2 = warnings only).
struct LintTally {
  int errors = 0;
  int warnings = 0;

  void Absorb(const DiagnosticReport& report) {
    errors += report.error_count();
    warnings += report.warning_count();
  }
  int ExitCode() const { return errors > 0 ? 1 : (warnings > 0 ? 2 : 0); }
};

/// Lints one pattern under every optimization set (three layers each) and
/// the FCEP baseline job.
LintTally LintPattern(const std::string& name, const Pattern& pattern) {
  LintTally tally;
  for (const OptionSet& set : OptionSets()) {
    auto analysis = AnalyzeQuery(pattern, set.options);
    if (!analysis.ok()) {
      // Not translatable under this option set (e.g. O2 with cross
      // predicates over iteration positions) — a translator refusal, not
      // a lint finding.
      std::printf("%-22s x %-9s SKIP (%s)\n", name.c_str(), set.name,
                  analysis.status().ToString().c_str());
      continue;
    }
    const DiagnosticReport merged = analysis.ValueOrDie().Merged();
    std::printf("%-22s x %-9s %s (%d error(s), %d warning(s))\n", name.c_str(),
                set.name, merged.has_errors() ? "FAIL" : "OK",
                merged.error_count(), merged.warning_count());
    PrintReport(merged);
    tally.Absorb(merged);
  }

  auto stub_sources = [](EventTypeId type) {
    return std::make_unique<VectorSource>("stub-" + std::to_string(type),
                                          std::vector<SimpleEvent>{});
  };
  CepJobOptions cep_options;
  cep_options.store_matches = false;
  auto cep = BuildCepJob(pattern, stub_sources, cep_options);
  if (cep.ok()) {
    const DiagnosticReport report = AnalyzeJobGraph(cep.ValueOrDie().graph);
    std::printf("%-22s x %-9s %s (%d error(s), %d warning(s))\n", name.c_str(),
                "fcep", report.has_errors() ? "FAIL" : "OK",
                report.error_count(), report.warning_count());
    PrintReport(report);
    tally.Absorb(report);
  }
  return tally;
}

/// The seven paper evaluation patterns every multi-pattern mode iterates.
std::vector<std::pair<std::string, Result<Pattern>>> PaperQueries() {
  const Timestamp window = 15 * kMillisPerMinute;
  const Timestamp slide = kMillisPerMinute;
  PaperPatterns patterns;

  std::vector<std::pair<std::string, Result<Pattern>>> queries;
  queries.emplace_back("SEQ1(2)", patterns.Seq1(0.5, window, slide));
  queries.emplace_back("ITER3_1(1)",
                       patterns.IterThreshold(3, 0.5, window, slide));
  queries.emplace_back("ITER3_2(1)",
                       patterns.IterConsecutive(3, 0.5, window, slide));
  queries.emplace_back("NSEQ1(3)", patterns.Nseq1(0.5, 0.5, window, slide));
  queries.emplace_back("SEQ4(4)", patterns.SeqN(4, 0.5, window, slide));
  queries.emplace_back("SEQ7(3)", patterns.Seq7(0.5, window, slide));
  queries.emplace_back("ITER4(1)", patterns.Iter4(3, 0.5, window, slide));
  return queries;
}

int LintPaperPatterns() {
  std::vector<std::pair<std::string, Result<Pattern>>> queries =
      PaperQueries();
  LintTally tally;
  for (auto& [name, result] : queries) {
    if (!result.ok()) {
      std::printf("%-22s BUILD FAILED: %s\n", name.c_str(),
                  result.status().ToString().c_str());
      ++tally.errors;
      continue;
    }
    const LintTally one = LintPattern(name, result.ValueOrDie());
    tally.errors += one.errors;
    tally.warnings += one.warnings;
  }
  std::printf("\nplan_lint: %d error(s), %d warning(s) across %zu pattern(s)\n",
              tally.errors, tally.warnings, queries.size());
  return tally.ExitCode();
}

/// Prints the chain layout ComputeChainLayout produces for one pattern
/// under one option set, followed by the I315 findings for forward edges
/// the planner left unfused, the I317 expression-execution report (which
/// filter/map nodes compiled, and why the rest fell back), and the I322
/// columnar-transfer report (which edges ship SoA blocks whole, which
/// cross a gather/scatter shim, and which stay row-major). Purely
/// informational — never contributes to the exit code.
void PrintChains(const std::string& name, const Pattern& pattern,
                 const OptionSet& set) {
  auto stub_sources = [](EventTypeId type) {
    return std::make_unique<VectorSource>("stub-" + std::to_string(type),
                                          std::vector<SimpleEvent>{});
  };
  auto query = TranslatePattern(pattern, set.options, stub_sources,
                                /*store_matches=*/false);
  if (!query.ok()) {
    std::printf("%s x %s: SKIP (%s)\n", name.c_str(), set.name,
                query.status().ToString().c_str());
    return;
  }
  const JobGraph& graph = query.ValueOrDie().graph;
  const ChainLayout layout = ComputeChainLayout(graph);
  std::printf("%s x %s: %d chain(s), %d fused edge(s)\n", name.c_str(),
              set.name, layout.num_chains(), layout.fused_edge_count());
  std::printf("%s", layout.ToString(graph).c_str());
  PrintReport(AnalyzeChaining(graph));
  PrintReport(AnalyzeExprCompilation(graph));
  PrintReport(AnalyzeColumnarLayout(graph));
}

int PrintPaperChains() {
  std::vector<std::pair<std::string, Result<Pattern>>> queries =
      PaperQueries();
  for (auto& [name, result] : queries) {
    if (!result.ok()) {
      std::printf("%s BUILD FAILED: %s\n", name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    for (const OptionSet& set : OptionSets()) {
      PrintChains(name, result.ValueOrDie(), set);
    }
    std::printf("\n");
  }
  return 0;
}

/// Prints the scheduler's task layout for one pattern under one option
/// set — one task per source plus one per (chain, subtask) — and the
/// worker-pool size. Purely informational, like --chains.
void PrintSchedule(const std::string& name, const Pattern& pattern,
                   const OptionSet& set) {
  auto stub_sources = [](EventTypeId type) {
    return std::make_unique<VectorSource>("stub-" + std::to_string(type),
                                          std::vector<SimpleEvent>{});
  };
  auto query = TranslatePattern(pattern, set.options, stub_sources,
                                /*store_matches=*/false);
  if (!query.ok()) {
    std::printf("%s x %s: SKIP (%s)\n", name.c_str(), set.name,
                query.status().ToString().c_str());
    return;
  }
  const JobGraph& graph = query.ValueOrDie().graph;
  std::printf("%s x %s:\n", name.c_str(), set.name);
  std::printf("%s", ScheduleToString(graph).c_str());
}

int PrintPaperSchedule() {
  std::vector<std::pair<std::string, Result<Pattern>>> queries =
      PaperQueries();
  for (auto& [name, result] : queries) {
    if (!result.ok()) {
      std::printf("%s BUILD FAILED: %s\n", name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    for (const OptionSet& set : OptionSets()) {
      PrintSchedule(name, result.ValueOrDie(), set);
    }
    std::printf("\n");
  }
  return 0;
}

int LintPsl(const std::string& text) {
  SensorTypes::Get();  // registers the canonical event types for the parser
  auto pattern = sea::ParsePattern(text);
  if (!pattern.ok()) {
    std::printf("parse error: %s\n", pattern.status().ToString().c_str());
    return 1;
  }
  std::printf("pattern: %s\n", pattern.ValueOrDie().ToString().c_str());
  return LintPattern("psl", pattern.ValueOrDie()).ExitCode();
}

/// True when `filter` selects `code`: the full rendered name
/// ("CEP2ASP-E318"), the short severity+number form ("E318", "w313"), or
/// the bare number ("318"). Case-insensitive; I-codes match like any other
/// severity.
bool CodeMatchesFilter(DiagnosticCode code, const std::string& filter) {
  std::string want;
  want.reserve(filter.size());
  for (char c : filter) {
    want.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  const std::string name = DiagnosticCodeName(code);   // CEP2ASP-E318
  const std::string short_form = name.substr(name.find('-') + 1);  // E318
  const std::string number = std::to_string(static_cast<int>(code));
  return want == name || want == short_form || want == number;
}

int PrintCodes(const std::vector<std::string>& filters) {
  int unmatched = 0;
  if (filters.empty()) {
    for (DiagnosticCode code : AllDiagnosticCodes()) {
      std::printf("%-14s %s\n", DiagnosticCodeName(code).c_str(),
                  DiagnosticCodeDescription(code));
    }
    return 0;
  }
  for (const std::string& filter : filters) {
    bool hit = false;
    for (DiagnosticCode code : AllDiagnosticCodes()) {
      if (!CodeMatchesFilter(code, filter)) continue;
      std::printf("%-14s %s\n", DiagnosticCodeName(code).c_str(),
                  DiagnosticCodeDescription(code));
      hit = true;
    }
    if (!hit) {
      std::fprintf(stderr, "plan_lint: no diagnostic code matches '%s'\n",
                   filter.c_str());
      ++unmatched;
    }
  }
  return unmatched == 0 ? 0 : 1;
}

/// Runs the interval range pass for one pattern x option set against the
/// preset-derived source ranges and prints the derived facts plus any
/// findings. Returns the E-count.
int PrintRanges(const std::string& name, const Pattern& pattern,
                const OptionSet& set, const Workload& workload,
                const SourceRangeCatalog& catalog) {
  auto query = TranslatePattern(pattern, set.options,
                                workload.MakeSourceFactory(),
                                /*store_matches=*/false);
  if (!query.ok()) {
    std::printf("%s x %s: SKIP (%s)\n", name.c_str(), set.name,
                query.status().ToString().c_str());
    return 0;
  }
  const JobGraph& graph = query.ValueOrDie().graph;
  const RangeAnalysis ranges = AnalyzeRanges(graph, catalog);
  std::printf("%s x %s:\n", name.c_str(), set.name);
  std::printf("%s", ranges.ToString(graph).c_str());
  PrintReport(ranges.report);
  PrintReport(DescribeRanges(graph, ranges));
  return ranges.report.error_count();
}

int PrintPaperRanges() {
  // The combined preset covers all six sensor types the paper queries
  // scan; the catalog is measured off the materialized streams, so every
  // printed interval is ground truth for exactly this workload.
  PresetOptions preset;
  preset.num_sensors = 16;
  preset.events_per_sensor = 32;
  const Workload workload = MakeCombinedWorkload(preset);
  const SourceRangeCatalog catalog = workload.DeriveRangeCatalog();

  std::vector<std::pair<std::string, Result<Pattern>>> queries =
      PaperQueries();
  int errors = 0;
  for (auto& [name, result] : queries) {
    if (!result.ok()) {
      std::printf("%s BUILD FAILED: %s\n", name.c_str(),
                  result.status().ToString().c_str());
      ++errors;
      continue;
    }
    for (const OptionSet& set : OptionSets()) {
      errors +=
          PrintRanges(name, result.ValueOrDie(), set, workload, catalog);
    }
    CepJobOptions cep_options;
    cep_options.store_matches = false;
    auto cep = BuildCepJob(result.ValueOrDie(), workload.MakeSourceFactory(),
                           cep_options);
    if (cep.ok()) {
      const JobGraph& graph = cep.ValueOrDie().graph;
      const RangeAnalysis ranges = AnalyzeRanges(graph, catalog);
      std::printf("%s x fcep:\n", name.c_str());
      std::printf("%s", ranges.ToString(graph).c_str());
      PrintReport(ranges.report);
      errors += ranges.report.error_count();
    }
    std::printf("\n");
  }
  std::printf("plan_lint --ranges: %d error(s)\n", errors);
  return errors == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: plan_lint             lint the paper evaluation "
               "patterns\n"
               "                             (exit 1 on errors, 2 on "
               "warnings only)\n"
               "       plan_lint --codes [FILTER...]\n"
               "                             list the diagnostic registry "
               "(optionally\n"
               "                             only codes matching E318/318/"
               "CEP2ASP-E318)\n"
               "       plan_lint --psl TEXT  lint one PSL pattern\n"
               "       plan_lint --chains    print chain layouts for the "
               "paper patterns\n"
               "       plan_lint --schedule  print task/worker layouts for "
               "the paper patterns\n"
               "       plan_lint --ranges    print derived attribute ranges/"
               "selectivity\n"
               "                             bounds for the paper patterns\n");
  return 64;  // EX_USAGE
}

}  // namespace
}  // namespace cep2asp

int main(int argc, char** argv) {
  if (argc == 1) return cep2asp::LintPaperPatterns();
  const std::string mode = argv[1];
  if (mode == "--codes") {
    return cep2asp::PrintCodes(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (mode == "--chains" && argc == 2) return cep2asp::PrintPaperChains();
  if (mode == "--schedule" && argc == 2) return cep2asp::PrintPaperSchedule();
  if (mode == "--ranges" && argc == 2) return cep2asp::PrintPaperRanges();
  if (mode == "--psl" && argc == 3) return cep2asp::LintPsl(argv[2]);
  return cep2asp::Usage();
}
