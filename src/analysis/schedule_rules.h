#ifndef CEP2ASP_ANALYSIS_SCHEDULE_RULES_H_
#define CEP2ASP_ANALYSIS_SCHEDULE_RULES_H_

#include <string>

#include "analysis/diagnostic.h"
#include "runtime/job_graph.h"

namespace cep2asp {

/// \brief Scheduling lint pass (diagnostic code I316).
///
/// Counts the OS threads the legacy thread-per-subtask path would spawn
/// for `graph` — one per source node plus one per (chain, subtask
/// instance) — and reports one info
/// diagnostic when that exceeds the hardware's concurrency while
/// `use_task_scheduler` is off. The finding is a tuning hint: the same
/// physical plan runs on the task scheduler's fixed worker pool without
/// oversubscription. Under the task scheduler the pass never fires.
///
/// `hardware_threads` == 0 means std::thread::hardware_concurrency();
/// tests pass an explicit value to stay host-independent. Like
/// AnalyzeChaining, this pass is deliberately separate from
/// AnalyzeJobGraph so executors and ExecutionResult::diagnostics stay
/// info-free.
DiagnosticReport AnalyzeSchedule(const JobGraph& graph,
                                 bool use_task_scheduler,
                                 int hardware_threads = 0);

/// Human-readable task/worker layout for plan_lint --schedule: one line
/// per scheduler task ("task 3: win-join[1] (chain 1, subtask 1)"), then
/// the totals — task count, legacy thread count, and the worker-pool size
/// the task scheduler would use (`worker_threads`, 0 meaning
/// hardware_concurrency).
std::string ScheduleToString(const JobGraph& graph, int worker_threads = 0);

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_SCHEDULE_RULES_H_
