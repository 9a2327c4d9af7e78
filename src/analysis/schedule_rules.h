#ifndef CEP2ASP_ANALYSIS_SCHEDULE_RULES_H_
#define CEP2ASP_ANALYSIS_SCHEDULE_RULES_H_

#include <string>

#include "runtime/job_graph.h"

namespace cep2asp {

/// Human-readable task/worker layout for plan_lint --schedule: one line
/// per scheduler task ("task 3: win-join[1] (chain 1, subtask 1)"), then
/// the totals — task count and the worker-pool size the task scheduler
/// would use (`worker_threads`, 0 meaning hardware_concurrency).
std::string ScheduleToString(const JobGraph& graph, int worker_threads = 0);

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_SCHEDULE_RULES_H_
