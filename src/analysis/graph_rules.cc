#include "analysis/graph_rules.h"

#include <algorithm>
#include <string>
#include <vector>

#include "event/expr_program.h"
#include "event/expr_verifier.h"

namespace cep2asp {

namespace {

std::string NodeLabel(const JobGraph& graph, NodeId id) {
  const JobGraph::Node& node = graph.node(id);
  std::string name = node.is_source() ? ("source " + node.source->name())
                                      : node.op->name();
  return "node " + std::to_string(id) + " (" + name + ")";
}

/// Per-port edge coverage: every operator input port must be fed by
/// exactly one edge (E301 unfed, E302 multiply fed), and the cached
/// num_input_edges counter must agree with the edges (E309) — the
/// threaded executor picks the lock-free SPSC channel from that counter,
/// so a mismatch would put multiple producers on a single-producer ring.
void CheckPorts(const JobGraph& graph, DiagnosticReport* report) {
  const int n = graph.num_nodes();
  std::vector<std::vector<int>> port_counts(static_cast<size_t>(n));
  std::vector<int> incoming(static_cast<size_t>(n), 0);
  for (NodeId id = 0; id < n; ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (!node.is_source()) {
      port_counts[static_cast<size_t>(id)].assign(
          static_cast<size_t>(node.op->num_inputs()), 0);
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    for (const JobGraph::Edge& edge : graph.node(id).outputs) {
      incoming[static_cast<size_t>(edge.to)]++;
      auto& counts = port_counts[static_cast<size_t>(edge.to)];
      if (edge.input_port >= 0 &&
          static_cast<size_t>(edge.input_port) < counts.size()) {
        counts[static_cast<size_t>(edge.input_port)]++;
      }
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source()) continue;
    const auto& counts = port_counts[static_cast<size_t>(id)];
    for (size_t port = 0; port < counts.size(); ++port) {
      if (counts[port] == 0) {
        report->Add(DiagnosticCode::kGraphInputPortUnfed,
                    NodeLabel(graph, id),
                    "input port " + std::to_string(port) +
                        " has no incoming edge");
      } else if (counts[port] > 1) {
        report->Add(DiagnosticCode::kGraphInputPortMultiplyFed,
                    NodeLabel(graph, id),
                    "input port " + std::to_string(port) + " has " +
                        std::to_string(counts[port]) + " incoming edges");
      }
    }
    if (node.num_input_edges != incoming[static_cast<size_t>(id)]) {
      report->Add(DiagnosticCode::kGraphFanInAccountingBroken,
                  NodeLabel(graph, id),
                  "num_input_edges records " +
                      std::to_string(node.num_input_edges) + " but " +
                      std::to_string(incoming[static_cast<size_t>(id)]) +
                      " edges arrive");
    }
  }
}

void CheckAcyclic(const JobGraph& graph, DiagnosticReport* report) {
  if (graph.TopologicalOrder().size() !=
      static_cast<size_t>(graph.num_nodes())) {
    report->Add(DiagnosticCode::kGraphCycle, "",
                "job graph contains a cycle");
  }
}

/// Watermark-generation coverage: watermarks originate at sources, so an
/// operator with no source upstream never fires its windows (W306); a
/// graph with no sources at all cannot run (E304); a source feeding
/// nothing is dead weight (W305); a terminal operator that is not a sink
/// silently drops its emissions (W307).
void CheckSourceCoverage(const JobGraph& graph, DiagnosticReport* report) {
  const int n = graph.num_nodes();
  bool any_source = false;
  std::vector<bool> reachable(static_cast<size_t>(n), false);
  std::vector<NodeId> stack;
  for (NodeId id = 0; id < n; ++id) {
    if (graph.node(id).is_source()) {
      any_source = true;
      reachable[static_cast<size_t>(id)] = true;
      stack.push_back(id);
      if (graph.node(id).outputs.empty()) {
        report->Add(DiagnosticCode::kGraphSourceUnconnected,
                    NodeLabel(graph, id), "source has no outgoing edges");
      }
    }
  }
  if (!any_source && n > 0) {
    report->Add(DiagnosticCode::kGraphNoSource, "",
                "job graph has no source nodes");
  }
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    for (const JobGraph::Edge& edge : graph.node(id).outputs) {
      if (!reachable[static_cast<size_t>(edge.to)]) {
        reachable[static_cast<size_t>(edge.to)] = true;
        stack.push_back(edge.to);
      }
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source()) continue;
    if (!reachable[static_cast<size_t>(id)]) {
      report->Add(DiagnosticCode::kGraphOperatorUnreachable,
                  NodeLabel(graph, id),
                  "no source upstream: the operator never receives tuples "
                  "or watermarks");
    }
    if (node.outputs.empty() && !node.op->Traits().is_sink) {
      report->Add(DiagnosticCode::kGraphTerminalNotSink, NodeLabel(graph, id),
                  "operator has no outgoing edges and is not a sink; its "
                  "emissions are dropped");
    }
  }
}

/// Keyed-state vs. partitioning: an operator whose state is keyed must see
/// a key assignment on every path from a source, otherwise its partitions
/// are the raw event ids and cross-stream matches silently vanish.
void CheckKeying(const JobGraph& graph, DiagnosticReport* report) {
  const int n = graph.num_nodes();
  // keyed_path[id]: every source->id path passes an assigns_key operator
  // strictly before id. Computed over a topological order; nodes on a
  // cycle (reported separately) are skipped.
  std::vector<int> state(static_cast<size_t>(n), -1);  // -1 unknown, 0/1
  for (NodeId id : graph.TopologicalOrder()) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source()) {
      state[static_cast<size_t>(id)] = 0;
      continue;
    }
    // AND over all producers: key coverage must hold on every path.
    int covered = 1;
    bool has_producer = false;
    for (NodeId from = 0; from < n; ++from) {
      for (const JobGraph::Edge& edge : graph.node(from).outputs) {
        if (edge.to != id) continue;
        has_producer = true;
        int upstream = state[static_cast<size_t>(from)];
        int provides =
            (upstream == 1 ||
             (!graph.node(from).is_source() &&
              graph.node(from).op->Traits().assigns_key))
                ? 1
                : 0;
        covered = covered && provides;
      }
    }
    state[static_cast<size_t>(id)] = has_producer ? covered : 0;
    OperatorTraits traits = node.op->Traits();
    if (traits.stateful && traits.keyed && has_producer && covered == 0) {
      report->Add(DiagnosticCode::kGraphStatefulUnkeyed, NodeLabel(graph, id),
                  "operator keys its state but some input path assigns no "
                  "partition key (state partitions by raw event id)");
    }
  }
}

/// Window-spec consistency: a translated query gives every sliding
/// operator the pattern's (size, slide); divergent specs mean the plan was
/// corrupted between translation and execution — windows would fire at
/// different boundaries and joins silently drop pairs (E310). Invalid
/// specs can never fire at all (E311).
void CheckWindows(const JobGraph& graph, DiagnosticReport* report) {
  bool have_ref = false;
  Timestamp ref_size = 0;
  Timestamp ref_slide = 0;
  NodeId ref_node = -1;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source()) continue;
    OperatorTraits traits = node.op->Traits();
    if (!traits.windowed) continue;
    if (traits.window_size <= 0 ||
        (traits.window_slide > 0 && traits.window_slide > traits.window_size)) {
      report->Add(DiagnosticCode::kGraphWindowSpecInvalid,
                  NodeLabel(graph, id),
                  "window spec (size " + std::to_string(traits.window_size) +
                      ", slide " + std::to_string(traits.window_slide) +
                      ") is invalid");
      continue;
    }
    if (traits.window_slide <= 0) continue;  // not a sliding window
    if (!have_ref) {
      have_ref = true;
      ref_size = traits.window_size;
      ref_slide = traits.window_slide;
      ref_node = id;
      continue;
    }
    if (traits.window_size != ref_size || traits.window_slide != ref_slide) {
      report->Add(
          DiagnosticCode::kGraphWindowSpanMismatch, NodeLabel(graph, id),
          "sliding window (size " + std::to_string(traits.window_size) +
              ", slide " + std::to_string(traits.window_slide) +
              ") differs from (size " + std::to_string(ref_size) +
              ", slide " + std::to_string(ref_slide) + ") at " +
              NodeLabel(graph, ref_node));
    }
  }
}

/// Keyed data parallelism: a node expanded into parallelism > 1 subtasks
/// must actually be splittable. The operator has to provide subtask clones
/// and, when stateful, partition its state by key (E314). A keyed stateful
/// parallel operator additionally needs every input edge hash-partitioned
/// — under forward/rebalance routing the events of one key would spread
/// over subtasks arbitrarily and cross-stream matches silently vanish
/// (E312). Parallelism beyond the declared key domain leaves subtasks
/// permanently idle, since hash routing can address at most one subtask
/// per key (W313).
void CheckParallelism(const JobGraph& graph, DiagnosticReport* report) {
  const int n = graph.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source() || node.parallelism <= 1) continue;
    OperatorTraits traits = node.op->Traits();
    if (node.op->CloneForSubtask() == nullptr) {
      report->Add(DiagnosticCode::kGraphParallelUnsupported,
                  NodeLabel(graph, id),
                  "parallelism " + std::to_string(node.parallelism) +
                      " but the operator provides no subtask clone "
                      "(CloneForSubtask)");
    } else if (traits.stateful && !traits.keyed) {
      report->Add(DiagnosticCode::kGraphParallelUnsupported,
                  NodeLabel(graph, id),
                  "parallelism " + std::to_string(node.parallelism) +
                      " on stateful unkeyed state: the subtasks cannot "
                      "partition it consistently");
    }
    if (traits.stateful && traits.keyed) {
      for (NodeId from = 0; from < n; ++from) {
        for (const JobGraph::Edge& edge : graph.node(from).outputs) {
          if (edge.to != id) continue;
          if (edge.partition != PartitionMode::kHash) {
            report->Add(
                DiagnosticCode::kGraphKeyedParallelNotHashed,
                NodeLabel(graph, id),
                "input port " + std::to_string(edge.input_port) + " from " +
                    NodeLabel(graph, from) + " uses " +
                    PartitionModeToString(edge.partition) +
                    " routing; keyed state with parallelism " +
                    std::to_string(node.parallelism) +
                    " requires hash partitioning");
          }
        }
      }
    }
    if (node.key_domain_hint > 0 &&
        static_cast<int64_t>(node.parallelism) > node.key_domain_hint) {
      report->Add(DiagnosticCode::kGraphParallelismExceedsKeys,
                  NodeLabel(graph, id),
                  "parallelism " + std::to_string(node.parallelism) +
                      " exceeds the declared key domain of " +
                      std::to_string(node.key_domain_hint) +
                      " keys; excess subtasks stay idle");
    }
  }
}

/// E321: every compiled expression an operator exposes must pass the
/// static bytecode verifier. The interpreter's dispatch loop and the
/// columnar kernels trust the encoding (release builds bound-check
/// nothing), so executors refusing E-diagnosed graphs makes verification
/// a hard gate, not a debug aid.
void CheckExprPrograms(const JobGraph& graph, DiagnosticReport* report) {
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const JobGraph::Node& node = graph.node(id);
    if (node.is_source()) continue;
    const OperatorTraits traits = node.op->Traits();
    if (traits.program == nullptr) continue;
    const size_t capacity = std::max<size_t>(traits.expr_capacity, 1);
    const Status verdict = ExprVerifier::Verify(*traits.program, capacity);
    if (!verdict.ok()) {
      report->Add(DiagnosticCode::kGraphExprVerifyFailed,
                  NodeLabel(graph, id), verdict.message());
    }
  }
}

}  // namespace

DiagnosticReport AnalyzeJobGraph(const JobGraph& graph) {
  DiagnosticReport report;
  CheckPorts(graph, &report);
  CheckAcyclic(graph, &report);
  CheckSourceCoverage(graph, &report);
  CheckKeying(graph, &report);
  CheckWindows(graph, &report);
  CheckParallelism(graph, &report);
  CheckExprPrograms(graph, &report);
  return report;
}

}  // namespace cep2asp
