#ifndef CEP2ASP_ANALYSIS_CHAIN_RULES_H_
#define CEP2ASP_ANALYSIS_CHAIN_RULES_H_

#include "analysis/diagnostic.h"
#include "runtime/job_graph.h"

namespace cep2asp {

/// \brief Chain-planning lint pass (diagnostic code I315).
///
/// Reports one info diagnostic per operator->operator forward edge that
/// the chain planner (ComputeChainLayout) left unfused, naming the reason
/// from the planner's own verdict: fan-out, fan-in, parallelism mismatch,
/// or a chaining opt-out on either endpoint. Each such edge pays a real
/// exchange channel the pipeline could otherwise skip, so the findings
/// are tuning hints, not correctness problems.
///
/// Source->operator edges and non-forward (hash/broadcast) edges are
/// never reported — those channels are structural, not missed fusions.
/// This pass is deliberately separate from AnalyzeJobGraph: executors and
/// ExecutionResult::diagnostics stay info-free, and a clean graph still
/// produces an empty AnalyzeJobGraph report.
DiagnosticReport AnalyzeChaining(const JobGraph& graph);

/// \brief Columnar-transfer lint pass (diagnostic code I322).
///
/// Reports, per operator-feeding edge, how tuples travel under
/// ChooseEdgeBatch (job_graph.h), the rule the executor's RoutingCollector
/// applies:
///   - "columnar"     — the edge ships whole ColumnarBatch envelopes (or
///                      hands blocks over in-chain);
///   - "scatter shim" — the producer emits blocks but this edge cannot
///                      carry them (an ineligible sibling, broadcast, a
///                      hash edge into a parallel consumer, or a row-major
///                      consumer), so they are scattered back to rows at
///                      the boundary;
///   - "row-major"    — the producer emits rows only (joins, NSEQ
///                      marking, unions).
/// Fused edges are reported only when the producer ingests or emits
/// blocks. Like AnalyzeChaining it stays out of AnalyzeJobGraph so
/// executor reports remain info-free.
DiagnosticReport AnalyzeColumnarLayout(const JobGraph& graph);

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_CHAIN_RULES_H_
