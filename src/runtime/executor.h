#ifndef CEP2ASP_RUNTIME_EXECUTOR_H_
#define CEP2ASP_RUNTIME_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "runtime/job_graph.h"
#include "runtime/metrics.h"
#include "runtime/sink.h"

namespace cep2asp {

class InvariantChecker;

/// \brief Tuning knobs of the single-process executor.
struct ExecutorOptions {
  /// Generate a watermark after this many source tuples.
  int watermark_interval = 256;

  /// Record a StateSample after this many source tuples (0 disables the
  /// timeline; the peak is still tracked at watermark boundaries).
  int state_sample_interval = 8192;

  /// Abort the run with a simulated out-of-memory failure when total
  /// operator state exceeds this budget (bytes). Defaults to unlimited.
  /// Models the paper's observation that FlinkCEP's growing NFA state leads
  /// to memory exhaustion and job failure (§5.2.3/5.2.4).
  size_t memory_limit_bytes = std::numeric_limits<size_t>::max();

  /// Clock used for latency measurement and elapsed-time accounting.
  Clock* clock = nullptr;
};

/// \brief Deterministic single-threaded push executor.
///
/// Merges all sources in event-time order (the cloud gathers streams
/// centrally, §1) and pushes each tuple through the operator DAG with
/// operator chaining. Watermarks are derived from source progress, aligned
/// per multi-input operator (min across ports), and drive window firing.
///
/// The sink operator passed to Run() is used to account emitted matches and
/// latency in the ExecutionResult; it must be a node of the graph.
class PipelineExecutor {
 public:
  PipelineExecutor(JobGraph* graph, ExecutorOptions options = {});
  ~PipelineExecutor();

  /// Runs the job to completion. On simulated OOM the result carries
  /// ok=false and the partial metrics.
  ///
  /// Before starting, the analyzer's job-graph lint pass runs over the
  /// graph; its findings land in ExecutionResult::diagnostics, and a graph
  /// with E-level findings is refused without executing. In debug builds
  /// (CEP2ASP_CHECK_INVARIANTS) an InvariantChecker additionally observes
  /// every tuple and watermark delivery and aborts on contract violations.
  ExecutionResult Run(const CollectSink* sink = nullptr);

 private:
  struct NodeState {
    std::vector<Timestamp> input_watermarks;  // per input port
    Timestamp aligned_watermark = kMinTimestamp;
  };

  class RoutingCollector;

  void DeliverTuple(NodeId node, int port, Tuple tuple);
  void DeliverWatermark(NodeId node, int port, Timestamp watermark);
  void BroadcastWatermark(NodeId from, Timestamp watermark);
  bool CheckMemory();  // returns false when the budget is exceeded

  JobGraph* graph_;
  ExecutorOptions options_;
  Clock* clock_;
  std::unique_ptr<InvariantChecker> invariants_;  // debug builds only
  std::vector<NodeState> states_;
  Status run_status_;
  int64_t tuples_ingested_ = 0;
  size_t peak_state_bytes_ = 0;
  std::vector<StateSample> timeline_;
  int64_t start_nanos_ = 0;
};

/// Convenience: validate + run + return result, using `sink` for match
/// accounting.
ExecutionResult RunJob(JobGraph* graph, const CollectSink* sink,
                       ExecutorOptions options = {});

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_EXECUTOR_H_
