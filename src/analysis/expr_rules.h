#ifndef CEP2ASP_ANALYSIS_EXPR_RULES_H_
#define CEP2ASP_ANALYSIS_EXPR_RULES_H_

#include "analysis/diagnostic.h"
#include "runtime/job_graph.h"

namespace cep2asp {

/// \brief Expression-compilation lint pass (diagnostic code I317).
///
/// Reports one info diagnostic per operator node that evaluates a filter
/// predicate or key assignment, naming how the expression executes:
/// compiled ExprProgram bytecode (with the program size), as every
/// translator filter and key map does, or an interpreted operator of a
/// hand-built graph (with the reason — user-supplied lambda, interpreted
/// predicate, ...). The note comes from OperatorTraits::expr_note, so the
/// report reflects what was actually wired.
///
/// Nodes with ExprExec::kNone (sources, joins, aggregations, sinks) are
/// never reported. Like AnalyzeChaining, this pass is separate from
/// AnalyzeJobGraph so executors and a clean graph stay info-free.
DiagnosticReport AnalyzeExprCompilation(const JobGraph& graph);

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_EXPR_RULES_H_
