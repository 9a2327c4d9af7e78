#ifndef CEP2ASP_RUNTIME_METRICS_H_
#define CEP2ASP_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/clock.h"

namespace cep2asp {

/// \brief Summary statistics over a set of latency samples (milliseconds).
struct LatencyStats {
  int64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;

  /// Computes stats from raw samples (copies + sorts internally).
  static LatencyStats FromSamples(std::vector<int64_t> samples);

  std::string ToString() const;
};

/// \brief Push-side counters of one exchange channel of the threaded
/// executor (the input of one operator), snapshot after the run.
///
/// Makes the micro-batching win observable: `batches` vs `messages` shows
/// the achieved amortization (avg_fill), and the histogram shows whether
/// batches actually fill. Time producers spend parked on backpressure
/// shows up as scheduler parks (SchedulerStats), not here.
struct ChannelStats {
  std::string consumer;  // name of the operator this channel feeds
  int subtask = 0;       // consumer subtask instance (keyed parallelism)
  bool spsc = false;     // lock-free single-producer fast path?
  /// True when the operator's input edge was fused by operator chaining:
  /// no physical channel exists, tuples were handed over in-thread. Such
  /// entries report the hand-off count as `tuples`/`messages` and zero
  /// queue traffic (batches == 0, empty fill histogram) — they exist so
  /// metrics consumers see every operator input without miscounting real
  /// exchange channels.
  bool fused = false;
  int64_t batches = 0;
  int64_t messages = 0;  // all messages, including watermarks/end markers
  /// Data rows: per-tuple messages count 1, columnar envelopes count their
  /// rows — so this is the partition's row load regardless of transfer
  /// layout (PartitionSkew divides it, keeping skew honest on hash edges
  /// that ship whole blocks).
  int64_t tuples = 0;
  /// SoA transfer breakdown: kColumnar envelopes pushed, rows they
  /// carried, and rows a columnar producer scattered into per-tuple
  /// messages because this edge could not carry blocks.
  int64_t columnar_blocks = 0;
  int64_t columnar_rows = 0;
  int64_t scattered_rows = 0;

  /// fill_hist[b] counts pushed batches by fill level: bucket 0 holds
  /// single-message batches, bucket b>0 holds fills in (2^(b-1), 2^b],
  /// and the last bucket additionally absorbs anything larger.
  static constexpr int kFillBuckets = 8;
  int64_t fill_hist[kFillBuckets] = {0};

  /// Bucket index for a batch of `fill` messages.
  static int FillBucket(size_t fill);

  /// Average messages per pushed batch.
  double avg_fill() const {
    return batches > 0 ? static_cast<double>(messages) / static_cast<double>(batches)
                       : 0.0;
  }

  std::string ToString() const;
};

/// \brief Key-skew summary of one hash-partitioned operator: how evenly
/// the tuple load spread over its parallel subtask instances. Collected
/// per parallelism > 1 node by the threaded executor so imbalance is
/// visible in benches, not just aggregate throughput.
struct PartitionSkew {
  std::string op;        // operator name
  int parallelism = 1;
  std::vector<int64_t> tuples_per_subtask;
  int64_t max_tuples = 0;
  double mean_tuples = 0;

  /// max/mean partition load; 1.0 = perfectly balanced, parallelism =
  /// everything on one subtask. 0 when no tuples flowed.
  double imbalance() const {
    return mean_tuples > 0 ? static_cast<double>(max_tuples) / mean_tuples : 0.0;
  }

  std::string ToString() const;
};

/// \brief Counters of the task scheduler: how the fixed worker pool
/// multiplexed the source and (chain, subtask) tasks. Filled in (used ==
/// true) by the ThreadedExecutor; all-zero with used == false in results
/// of the single-threaded PipelineExecutor, which runs no scheduler.
struct SchedulerStats {
  bool used = false;
  int worker_threads = 0;    // fixed pool size the job ran on
  int num_tasks = 0;         // cooperative tasks (sources + chain subtasks)
  int quantum_batches = 0;   // max input batches per task quantum

  struct Worker {
    int worker = 0;
    int64_t tasks_run = 0;  // quanta executed on this worker
    int64_t steals = 0;     // tasks taken from another worker's queue
    int64_t parks = 0;      // quanta that ended waiting (input/credit/timer)
    int64_t unparks = 0;    // parked tasks this worker re-enqueued
    int64_t batches = 0;    // input batches processed across all quanta
  };
  std::vector<Worker> workers;

  /// Park-until-deadline events (rate-limited source pacing).
  int64_t timer_parks = 0;

  int64_t total_tasks_run() const;
  int64_t total_steals() const;
  int64_t total_parks() const;
  int64_t total_unparks() const;
  int64_t total_batches() const;

  /// Fraction of quantum capacity actually used: batches processed over
  /// batches the executed quanta could have processed. Low utilization
  /// means tasks mostly drain-and-park (light load); near 1.0 means tasks
  /// are saturated and yield only at quantum boundaries.
  double quantum_utilization() const;

  std::string ToString() const;
};

/// One point of the resource-usage timeline (Figure 5).
struct StateSample {
  double elapsed_seconds = 0;
  size_t state_bytes = 0;
  int64_t tuples_processed = 0;
};

/// \brief Outcome of executing a job to completion (or failure).
struct ExecutionResult {
  bool ok = false;
  std::string error;          // set when !ok (e.g. simulated memory exhaustion)
  int64_t tuples_ingested = 0;
  int64_t matches_emitted = 0;
  double elapsed_seconds = 0;
  size_t peak_state_bytes = 0;
  std::vector<StateSample> state_timeline;
  LatencyStats latency;

  /// Per-input-channel exchange counters (threaded executor only; empty
  /// for the single-threaded pipeline executor). With keyed parallelism
  /// there is one entry per (operator, subtask) physical channel.
  std::vector<ChannelStats> channel_stats;

  /// Per-partitioned-operator key-skew summaries (parallelism > 1 nodes
  /// of the threaded executor only).
  std::vector<PartitionSkew> partition_skew;

  /// Worker-pool counters of the task scheduler (threaded executor only;
  /// `scheduler.used` is false otherwise).
  SchedulerStats scheduler;

  /// Findings of the pre-run job-graph lint pass (analysis/graph_rules.h).
  /// Executors refuse to run graphs with E-level findings: `ok` is then
  /// false and `error` carries the first error. Warnings are reported here
  /// but do not prevent execution.
  std::vector<Diagnostic> diagnostics;

  /// Processed tuples per second over the whole run; the maximum
  /// sustainable throughput of the pipeline when the run is CPU-bound
  /// (paper §5.1.3: throughput without backpressure).
  double throughput_tps() const {
    return elapsed_seconds > 0 ? static_cast<double>(tuples_ingested) / elapsed_seconds
                               : 0.0;
  }
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_METRICS_H_
