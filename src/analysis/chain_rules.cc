#include "analysis/chain_rules.h"

#include <string>

namespace cep2asp {

namespace {

std::string NodeLabel(const JobGraph& graph, NodeId id) {
  const JobGraph::Node& node = graph.node(id);
  std::string name = node.is_source() ? ("source " + node.source->name())
                                      : node.op->name();
  return "node " + std::to_string(id) + " (" + name + ")";
}

/// Why a channel edge cannot carry column blocks, or "" when it can:
/// forward edges and parallelism-1 hash edges into a columnar-capable
/// consumer ship blocks whole (RoutingCollector's per-edge negotiation).
std::string BlockBarrier(const JobGraph& graph, const JobGraph::Edge& edge) {
  const JobGraph::Node& consumer = graph.node(edge.to);
  if (edge.partition == PartitionMode::kBroadcast) {
    return "broadcast would deep-copy blocks";
  }
  if (edge.partition == PartitionMode::kHash &&
      graph.parallelism(edge.to) > 1) {
    return "hash edge into a parallel consumer routes rows";
  }
  if (consumer.op == nullptr || !consumer.op->Traits().columnar_capable) {
    return "consumer is row-major";
  }
  return "";
}

}  // namespace

DiagnosticReport AnalyzeChaining(const JobGraph& graph) {
  DiagnosticReport report;
  const ChainLayout layout = ComputeChainLayout(graph);
  for (NodeId from = 0; from < graph.num_nodes(); ++from) {
    const JobGraph::Node& node = graph.node(from);
    for (size_t out = 0; out < node.outputs.size(); ++out) {
      const ChainBreak verdict = layout.edge_verdict[from][out];
      switch (verdict) {
        case ChainBreak::kChained:
        case ChainBreak::kNotForward:
        case ChainBreak::kSourceProducer:
          continue;
        case ChainBreak::kProducerOptedOut:
        case ChainBreak::kConsumerOptedOut:
        case ChainBreak::kFanOut:
        case ChainBreak::kFanIn:
        case ChainBreak::kParallelismMismatch:
          break;
      }
      const NodeId to = node.outputs[out].to;
      report.Add(DiagnosticCode::kGraphForwardEdgeNotChained,
                 NodeLabel(graph, from),
                 "forward edge to " + NodeLabel(graph, to) + " not chained: " +
                     ChainBreakToString(verdict));
    }
  }
  return report;
}

DiagnosticReport AnalyzeColumnarLayout(const JobGraph& graph) {
  DiagnosticReport report;
  const ChainLayout layout = ComputeChainLayout(graph);
  for (NodeId from = 0; from < graph.num_nodes(); ++from) {
    const JobGraph::Node& node = graph.node(from);
    const bool producer_columnar =
        !node.is_source() && node.op->Traits().columnar_capable;
    for (size_t out = 0; out < node.outputs.size(); ++out) {
      const JobGraph::Edge& edge = node.outputs[out];
      const JobGraph::Node& consumer = graph.node(edge.to);
      const bool consumer_columnar =
          consumer.op != nullptr && consumer.op->Traits().columnar_capable;
      const std::string to_label = NodeLabel(graph, edge.to);
      if (layout.fused(from, out)) {
        // In-chain hand-off: blocks flow (or scatter) through the
        // ChainedCollector, never a channel. Silent when neither endpoint
        // runs columnar — nothing SoA-related happens on the edge.
        if (producer_columnar && consumer_columnar) {
          report.Add(DiagnosticCode::kGraphColumnarStatus,
                     NodeLabel(graph, from),
                     "fused edge to " + to_label +
                         ": columnar (blocks hand over in-chain)");
        } else if (producer_columnar) {
          report.Add(DiagnosticCode::kGraphColumnarStatus,
                     NodeLabel(graph, from),
                     "fused edge to " + to_label +
                         ": scatter shim (row-major consumer in chain)");
        }
        continue;
      }
      // Channel edge: mirror RoutingCollector's per-edge negotiation.
      // Blocks travel only when EVERY out-edge of the producer is
      // eligible — one ineligible sibling makes the whole fan-out scatter
      // once.
      std::string reason = BlockBarrier(graph, edge);
      if (reason.empty()) {
        for (const JobGraph::Edge& sibling : node.outputs) {
          if (!BlockBarrier(graph, sibling).empty()) {
            reason = "sibling edge cannot carry blocks";
            break;
          }
        }
      }
      if (reason.empty()) {
        report.Add(DiagnosticCode::kGraphColumnarStatus,
                   NodeLabel(graph, from),
                   "edge to " + to_label +
                       ": columnar (ships column blocks whole)");
      } else if (producer_columnar) {
        report.Add(DiagnosticCode::kGraphColumnarStatus,
                   NodeLabel(graph, from),
                   "edge to " + to_label + ": scatter shim (" + reason + ")");
      } else {
        report.Add(DiagnosticCode::kGraphColumnarStatus,
                   NodeLabel(graph, from),
                   "edge to " + to_label + ": row-major (" + reason + ")");
      }
    }
  }
  return report;
}

}  // namespace cep2asp
