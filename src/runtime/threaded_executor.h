#ifndef CEP2ASP_RUNTIME_THREADED_EXECUTOR_H_
#define CEP2ASP_RUNTIME_THREADED_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/status.h"
#include "runtime/channel.h"
#include "runtime/executor.h"
#include "runtime/job_graph.h"
#include "runtime/metrics.h"
#include "runtime/sink.h"

namespace cep2asp {

/// \brief Options for the multi-threaded executor.
struct ThreadedExecutorOptions {
  /// Capacity of each operator input channel, in messages; bounds in-flight
  /// tuples and produces backpressure toward the sources.
  size_t queue_capacity = 4096;

  /// Generate a watermark after this many tuples per source.
  int watermark_interval = 256;

  /// Messages per exchange micro-batch: producers hand over whole batches,
  /// so each channel synchronizes once per `batch_size` messages instead of
  /// once per message. 1 reproduces the historical per-message behavior
  /// bit-for-bit (every message is its own batch).
  size_t batch_size = 64;

  /// Worker pool size; 0 means std::thread::hardware_concurrency().
  int worker_threads = 0;

  Clock* clock = nullptr;
};

/// \brief Executor multiplexing every physical task — each source and
/// each (chain, subtask instance) — as a cooperative task onto a fixed
/// TaskScheduler worker pool, connected by micro-batched exchange channels.
///
/// This realizes both kinds of parallelism the paper's mapping unlocks:
/// pipeline parallelism from decomposing the pattern into multiple
/// operators (§1, §5.2.2), and keyed data parallelism from the equi-join
/// stages being "computed per key and parallelizable" (§4.2.3). A node
/// with parallelism P expands into P subtask instances — subtask 0 runs
/// the graph's own operator, subtasks 1..P-1 run executor-owned
/// CloneForSubtask() instances — and each in-edge routes tuples among them
/// per its PartitionMode (hash by key, chained/rebalance forward, or
/// broadcast). Watermarks and end-of-stream markers are always broadcast
/// to every consumer subtask; each consumer min-aligns watermarks and
/// counts end markers across its physical slots (one per producer
/// subtask), so window firing and termination are exact under
/// partitioning.
///
/// Operator chaining collapses runs of fused forward edges into one
/// subtask per chain (JobGraph::SetChaining opts a node out): tuples inside a chain are handed to
/// the next operator's Process directly via a ChainedCollector — no
/// MessageBatch, no queue, no copy — and only chain-boundary edges get
/// real exchange channels. Watermarks and Finish propagate through the
/// chain in operator order before being forwarded downstream, so chain
/// fusion is invisible to operators and to event-time semantics. Fused
/// edges still appear in ChannelStats, flagged `fused` with zero queue
/// traffic.
///
/// Tuples cross boundary edges in MessageBatches (one channel
/// synchronization per batch, not per tuple), and whole ColumnarBatch
/// blocks on the edges ChooseEdgeBatch picks; physical-fan-in-1 channels
/// ride a lock-free SPSC ring, the rest a mutex queue. The
/// single-threaded PipelineExecutor remains the deterministic logical
/// reference (it ignores parallelism); correctness tests assert both
/// produce identical match sets at every parallelism level.
///
/// No task owns an OS thread and no channel operation blocks. Tasks
/// process a bounded quantum of input batches and yield; an empty input
/// parks the consuming task until a producer pushes, a full output
/// channel parks the producing task on a credit (non-blocking
/// TryPushBatch) until the consumer pops, and a paced source parks on the
/// scheduler timer. SchedulerStats in the result expose per-worker task
/// runs, steals, parks and quantum utilization.
class ThreadedExecutor {
 public:
  ThreadedExecutor(JobGraph* graph, ThreadedExecutorOptions options = {});

  ExecutionResult Run(const CollectSink* sink = nullptr);

 private:
  JobGraph* graph_;
  ThreadedExecutorOptions options_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_THREADED_EXECUTOR_H_
