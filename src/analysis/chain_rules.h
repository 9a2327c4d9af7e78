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
/// Reports, per operator-feeding edge, how tuples would travel under the
/// executor's SoA negotiation (ThreadedExecutorOptions::enable_columnar):
///   - "columnar"     — the edge ships whole ColumnarBatch envelopes (a
///                      forward or parallelism-1 hash edge into a
///                      columnar-capable consumer, with every sibling edge
///                      eligible too, or an in-chain hand-off between
///                      capable operators);
///   - "scatter shim" — the producer runs columnar but this edge cannot
///                      carry blocks (an ineligible sibling, broadcast, a
///                      hash edge into a parallel consumer, or a row-major
///                      consumer), so blocks are scattered back to rows at
///                      the boundary;
///   - "row-major"    — rows travel individually, with the blocking reason.
/// Mirrors RoutingCollector's negotiation exactly; like AnalyzeChaining it
/// stays out of AnalyzeJobGraph so executor reports remain info-free.
DiagnosticReport AnalyzeColumnarLayout(const JobGraph& graph);

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_CHAIN_RULES_H_
