#include "runtime/executor.h"

#include <algorithm>

#include "analysis/graph_rules.h"
#include "analysis/invariant_checker.h"
#include "common/logging.h"

namespace cep2asp {

/// Routes an operator's emissions to its successors, recursively invoking
/// downstream Process calls (operator chaining).
class PipelineExecutor::RoutingCollector : public Collector {
 public:
  RoutingCollector(PipelineExecutor* executor, NodeId node)
      : executor_(executor), node_(node) {}

  void Emit(Tuple tuple) override {
    const auto& outputs = executor_->graph_->node(node_).outputs;
    if (outputs.empty()) return;
    for (size_t i = 0; i + 1 < outputs.size(); ++i) {
      executor_->DeliverTuple(outputs[i].to, outputs[i].input_port, tuple);
    }
    executor_->DeliverTuple(outputs.back().to, outputs.back().input_port,
                            std::move(tuple));
  }

 private:
  PipelineExecutor* executor_;
  NodeId node_;
};

PipelineExecutor::PipelineExecutor(JobGraph* graph, ExecutorOptions options)
    : graph_(graph), options_(options) {
  clock_ = options_.clock ? options_.clock : SystemClock::Get();
}

PipelineExecutor::~PipelineExecutor() = default;

void PipelineExecutor::DeliverTuple(NodeId node, int port, Tuple tuple) {
  if (!run_status_.ok()) return;
#if CEP2ASP_CHECK_INVARIANTS
  invariants_->OnTuple(node, port, tuple);
#endif
  Operator* op = graph_->mutable_node(node).op.get();
  RoutingCollector collector(this, node);
  Status st = op->Process(port, std::move(tuple), &collector);
  if (!st.ok()) run_status_ = st.WithContext(op->name());
}

void PipelineExecutor::DeliverWatermark(NodeId node, int port,
                                        Timestamp watermark) {
  if (!run_status_.ok()) return;
#if CEP2ASP_CHECK_INVARIANTS
  invariants_->OnWatermark(node, port, watermark);
#endif
  NodeState& state = states_[static_cast<size_t>(node)];
  Timestamp& slot = state.input_watermarks[static_cast<size_t>(port)];
  if (watermark <= slot) return;
  slot = watermark;
  Timestamp aligned = *std::min_element(state.input_watermarks.begin(),
                                        state.input_watermarks.end());
  if (aligned <= state.aligned_watermark) return;
  state.aligned_watermark = aligned;
  Operator* op = graph_->mutable_node(node).op.get();
  RoutingCollector collector(this, node);
  Status st = op->OnWatermark(aligned, &collector);
  if (!st.ok()) {
    run_status_ = st.WithContext(op->name());
    return;
  }
  BroadcastWatermark(node, aligned);
}

void PipelineExecutor::BroadcastWatermark(NodeId from, Timestamp watermark) {
  for (const JobGraph::Edge& edge : graph_->node(from).outputs) {
    DeliverWatermark(edge.to, edge.input_port, watermark);
  }
}

bool PipelineExecutor::CheckMemory() {
  size_t state_bytes = graph_->TotalStateBytes();
  peak_state_bytes_ = std::max(peak_state_bytes_, state_bytes);
  if (state_bytes > options_.memory_limit_bytes) {
    run_status_ = Status::ResourceExhausted(
        "operator state " + std::to_string(state_bytes) +
        " bytes exceeds memory limit of " +
        std::to_string(options_.memory_limit_bytes) + " bytes");
    return false;
  }
  return true;
}

ExecutionResult PipelineExecutor::Run(const CollectSink* sink) {
  ExecutionResult result;
  DiagnosticReport report = AnalyzeJobGraph(*graph_);
  result.diagnostics = report.diagnostics();
  run_status_ = report.ToStatus();
  if (!run_status_.ok()) {
    result.error = run_status_.ToString();
    return result;
  }
#if CEP2ASP_CHECK_INVARIANTS
  invariants_ = std::make_unique<InvariantChecker>(*graph_);
#endif

  const int n = graph_->num_nodes();
  states_.assign(static_cast<size_t>(n), NodeState{});
  std::vector<NodeId> source_ids;
  for (NodeId id = 0; id < n; ++id) {
    JobGraph::Node& node = graph_->mutable_node(id);
    if (node.is_source()) {
      source_ids.push_back(id);
    } else {
      states_[static_cast<size_t>(id)].input_watermarks.assign(
          static_cast<size_t>(node.op->num_inputs()), kMinTimestamp);
      Status st = node.op->Open();
      if (!st.ok()) {
        result.error = st.WithContext(node.op->name()).ToString();
        return result;
      }
    }
  }

  // Event-time merge across sources: repeatedly pick the source whose
  // buffered head tuple has the smallest event time.
  struct PendingSource {
    NodeId id;
    Source* source;
    Tuple head;
    bool has_head = false;
  };
  std::vector<PendingSource> pending;
  for (NodeId id : source_ids) {
    PendingSource ps;
    ps.id = id;
    ps.source = graph_->mutable_node(id).source.get();
    ps.has_head = ps.source->Next(&ps.head);
    pending.push_back(std::move(ps));
  }

  start_nanos_ = clock_->NowNanos();
  int since_watermark = 0;
  int since_sample = 0;
  // create_ts stamp, refreshed once per kStampInterval ingested tuples
  // instead of per tuple, removing a clock read from the per-tuple hot
  // path. Latency measurements are conservatively inflated by at most the
  // time to ingest one interval (microseconds at engine rates). Match
  // outputs never depend on it.
  constexpr int kStampInterval = 32;
  Timestamp stamp_now = clock_->NowMillis();
  int until_restamp = 0;

  while (run_status_.ok()) {
    // Pick the live source with the minimum head timestamp.
    PendingSource* next = nullptr;
    for (PendingSource& ps : pending) {
      if (!ps.has_head) continue;
      if (next == nullptr || ps.head.event_time() < next->head.event_time()) {
        next = &ps;
      }
    }
    if (next == nullptr) break;  // all sources exhausted

    // Stamp creation time for latency accounting, then push downstream.
    Tuple tuple = std::move(next->head);
    if (--until_restamp < 0) {
      stamp_now = clock_->NowMillis();
      until_restamp = kStampInterval - 1;
    }
    for (size_t i = 0; i < tuple.size(); ++i) {
      tuple.mutable_event(i).create_ts = stamp_now;
    }
    ++tuples_ingested_;
    for (const JobGraph::Edge& edge : graph_->node(next->id).outputs) {
      DeliverTuple(edge.to, edge.input_port, tuple);
    }
    next->has_head = next->source->Next(&next->head);

    if (++since_watermark >= options_.watermark_interval) {
      since_watermark = 0;
      // Safe watermark: min over live sources of their high-water mark.
      // Exhausted sources no longer constrain progress.
      Timestamp wm = kMaxTimestamp;
      for (const PendingSource& ps : pending) {
        if (ps.has_head) wm = std::min(wm, ps.source->CurrentWatermark());
      }
      if (wm != kMaxTimestamp) {
        for (const PendingSource& ps : pending) {
          BroadcastWatermark(ps.id, wm);
        }
      }
      if (!CheckMemory()) break;
      if (options_.state_sample_interval > 0 &&
          (since_sample += options_.watermark_interval) >=
              options_.state_sample_interval) {
        since_sample = 0;
        StateSample sample;
        sample.elapsed_seconds =
            static_cast<double>(clock_->NowNanos() - start_nanos_) / 1e9;
        sample.state_bytes = graph_->TotalStateBytes();
        sample.tuples_processed = tuples_ingested_;
        timeline_.push_back(sample);
      }
    }
  }

  if (run_status_.ok()) {
    // Final watermark flushes every window, then Finish cascades in
    // topological order so downstream operators observe upstream flushes.
    for (NodeId id : source_ids) BroadcastWatermark(id, kMaxTimestamp);
    if (run_status_.ok()) {
      for (NodeId id : graph_->TopologicalOrder()) {
        JobGraph::Node& node = graph_->mutable_node(id);
        if (node.is_source()) continue;
        RoutingCollector collector(this, id);
        Status st = node.op->Finish(&collector);
        if (!st.ok()) {
          run_status_ = st.WithContext(node.op->name());
          break;
        }
      }
    }
    CheckMemory();
#if CEP2ASP_CHECK_INVARIANTS
    if (run_status_.ok()) invariants_->OnJobFinished();
#endif
  }

  result.elapsed_seconds =
      static_cast<double>(clock_->NowNanos() - start_nanos_) / 1e9;
  result.tuples_ingested = tuples_ingested_;
  result.peak_state_bytes = peak_state_bytes_;
  result.state_timeline = std::move(timeline_);
  if (sink != nullptr) {
    result.matches_emitted = sink->count();
    result.latency = LatencyStats::FromSamples(sink->latencies());
  }
  result.ok = run_status_.ok();
  if (!result.ok) result.error = run_status_.ToString();
  return result;
}

ExecutionResult RunJob(JobGraph* graph, const CollectSink* sink,
                       ExecutorOptions options) {
  PipelineExecutor executor(graph, options);
  return executor.Run(sink);
}

}  // namespace cep2asp
