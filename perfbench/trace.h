// Tracing from outside the engine: a forwarding decorator around every
// operator of a compiled job, a thread-local span stack for self time, and
// an in-memory span log written as Chrome trace-event JSON.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/job_graph.h"
#include "runtime/operator.h"

namespace cep2asp {
namespace perfbench {

/// Engine layer an operator belongs to, decided from its concrete type.
enum class Layer : uint8_t { kPrefix, kJoin, kSink, kOther };

/// Counters of one operator instance (one per node and subtask). Written
/// only by the task running that instance; read after Run() returns.
struct OperatorTotals {
  Layer layer = Layer::kOther;
  NodeId node = -1;
  int subtask = 0;
  std::string label;
  int64_t rows_in[2] = {0, 0};  // per input port
  int64_t ingest_self_ns = 0;   // Process / ProcessBatch / ProcessColumnar
  int64_t fire_self_ns = 0;     // OnWatermark / Finish
  int64_t top_level_ns = 0;     // span time not nested in another span
  size_t peak_state_bytes = 0;
  int64_t pairs_evaluated = 0;  // sliding-window joins, read at Finish
};

/// Owns the totals of every traced operator instance of one run.
class TraceRun {
 public:
  /// Registers an instance of `node`; a clone gets the next subtask index.
  OperatorTotals* Add(Layer layer, NodeId node, bool clone, std::string label);
  const std::deque<OperatorTotals>& totals() const { return totals_; }

 private:
  std::mutex mu_;  // instances open on the executor's calling thread, but
                   // keep registration safe regardless
  std::deque<OperatorTotals> totals_;
  std::map<NodeId, int> clones_;
};

/// Span log shared by all threads; recording is off unless a run asks for
/// it, and stops at a fixed span budget.
class SpanLog {
 public:
  static SpanLog* Get();

  /// Starts recording spans under Chrome trace process id `pid` (one pid
  /// per recorded run); 0 stops recording.
  void Record(int pid);
  bool recording() const;

  void Append(const std::string* name, int64_t start_ns, int64_t dur_ns);

  /// Stable storage for a span name.
  const std::string* Intern(const std::string& name);

  /// Writes every recorded span as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const std::string* name;
    int pid;
    int tid;
    int64_t start_ns;
    int64_t dur_ns;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::deque<std::string> names_;  // stable storage for span names
  std::atomic<int> pid_{0};  // read on every span end without the lock
  int64_t origin_ns_ = 0;
};

/// Forwards every Operator virtual to the wrapped operator, so chaining,
/// columnar negotiation and analysis see exactly the operator the
/// translator built, and times each call as a span.
class TracedOperator : public Operator {
 public:
  /// `clone`: a subtask instance made by CloneForSubtask, as opposed to the
  /// graph's own operator (subtask 0).
  TracedOperator(std::unique_ptr<Operator> inner, TraceRun* run, NodeId node,
                 bool clone);

  std::string name() const override { return inner_->name(); }
  OperatorTraits Traits() const override { return inner_->Traits(); }
  int num_inputs() const override { return inner_->num_inputs(); }
  Status Open() override;
  Status Process(int input, Tuple tuple, Collector* out) override;
  Status ProcessBatch(int input, MessageBatch* batch, Collector* out) override;
  Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                         Collector* out) override;
  Status OnWatermark(Timestamp watermark, Collector* out) override;
  Status Finish(Collector* out) override;
  size_t StateBytes() const override { return inner_->StateBytes(); }
  void AttachSelectivityBound(double bound) override {
    inner_->AttachSelectivityBound(bound);
  }
  std::unique_ptr<Operator> CloneForSubtask() const override;

 private:
  void SampleState();

  std::unique_ptr<Operator> inner_;
  TraceRun* run_;
  NodeId node_;
  bool clone_;
  // Set in Open(), which the executor calls once per instance it runs, in
  // subtask order; the graph lint's probe clone is never opened.
  OperatorTotals* totals_ = nullptr;
  const std::string* ingest_name_ = nullptr;
  const std::string* fire_name_ = nullptr;
};

/// Wraps every operator node of `graph` in a TracedOperator.
void TraceOperators(JobGraph* graph, TraceRun* run);

}  // namespace perfbench
}  // namespace cep2asp

#endif  // PERFBENCH_TRACE_H_
