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
    for (size_t out = 0; out < node.outputs.size(); ++out) {
      // A fused edge hands over in-chain through the ChainedCollector,
      // never a channel. It is silent when the producer neither ingests
      // nor emits blocks: nothing SoA-related happens on it.
      const bool fused = layout.fused(from, out);
      if (fused && !node.op->Traits().columnar_capable) continue;
      const EdgeBatchVerdict verdict = ChooseEdgeBatch(graph, from, out);
      std::string note = fused ? "fused edge to " : "edge to ";
      note += NodeLabel(graph, node.outputs[out].to) + ": ";
      switch (verdict.layout) {
        case EdgeBatch::kBlocks:
          note += fused ? "columnar (blocks hand over in-chain)"
                        : "columnar (ships column blocks whole)";
          break;
        case EdgeBatch::kScatter:
          note += "scatter shim (";
          note += fused ? "row-major consumer in chain" : verdict.reason;
          note += ")";
          break;
        case EdgeBatch::kRows:
          note += "row-major (";
          note += verdict.reason;
          note += ")";
          break;
      }
      report.Add(DiagnosticCode::kGraphColumnarStatus, NodeLabel(graph, from),
                 note);
    }
  }
  return report;
}

}  // namespace cep2asp
