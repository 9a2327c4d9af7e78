#ifndef CEP2ASP_RUNTIME_OPERATOR_H_
#define CEP2ASP_RUNTIME_OPERATOR_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "event/event.h"
#include "runtime/message.h"

namespace cep2asp {

class Predicate;    // event/predicate.h
class ExprProgram;  // event/expr_program.h

/// \brief Downstream hand-off used by operators to emit output tuples.
///
/// Watermarks are not emitted through the Collector: the executor aligns
/// and forwards watermarks itself, after giving the operator a chance to
/// flush (Operator::OnWatermark). This keeps per-operator watermark logic
/// out of the operators entirely.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Emit(Tuple tuple) = 0;

  /// Columnar emission: hands over a whole column block. The default
  /// scatters row by row (the gather/scatter shim at a columnar ->
  /// row-major boundary); columnar-capable collectors override it to move
  /// the block downstream as one envelope.
  virtual void EmitColumnar(std::unique_ptr<ColumnarBatch> block) {
    for (size_t i = 0; i < block->rows(); ++i) Emit(block->RowTuple(i));
  }

  /// Hands any internally buffered emissions downstream. Executors whose
  /// collectors micro-batch (ThreadedExecutor) call this before a thread
  /// would otherwise go idle; operators never need to call it — control
  /// events (watermark/end) force a flush on their own.
  virtual void Flush() {}
};

/// Discards everything; useful for cost microbenchmarks.
class NullCollector : public Collector {
 public:
  void Emit(Tuple) override {}
  void EmitColumnar(std::unique_ptr<ColumnarBatch>) override {}
};

/// \brief Static self-description of an operator, consumed by the plan
/// analyzer's job-graph rules and by the debug-build invariant checker.
///
/// Traits let analyses reason about arbitrary operators — including ones
/// defined above the runtime layer — without RTTI: each operator declares
/// what the analyzer would otherwise have to know about its concrete type.
/// How an operator evaluates its predicate / key expressions; consumed by
/// the I317 expression-compilation report.
enum class ExprExec : uint8_t {
  /// No expression work at all (joins, unions, sinks, windows).
  kNone,
  /// Interprets a Predicate / std::function per tuple.
  kInterpreted,
  /// Runs a compiled ExprProgram (bytecode, batch-capable).
  kCompiled,
};

struct OperatorTraits {
  /// Buffers tuples between calls (windows, partial matches, seen-sets).
  bool stateful = false;
  /// State is partitioned by the tuple key; correctness then requires a
  /// key-assigning operator upstream on every input path.
  bool keyed = false;
  /// Rewrites the partition key of passing tuples (key-by map).
  bool assigns_key = false;
  /// Buffers tuples by event-time window and emits on watermark passage.
  bool windowed = false;
  /// Window span (ms). For sliding windows the (size, slide) pair; other
  /// windowed operators (interval joins, NSEQ marking) report their time
  /// horizon as `window_size` with `window_slide == 0`.
  Timestamp window_size = 0;
  Timestamp window_slide = 0;
  /// Emits each logical match once per overlapping window (the sliding
  /// semantics of paper §3.1.4) rather than exactly once.
  bool emits_window_duplicates = false;
  /// Guarantees StateBytes() == 0 after OnWatermark(kMaxTimestamp): all
  /// window state is flushed and evicted by the final watermark. The
  /// invariant checker asserts this in debug builds.
  bool drains_on_final_watermark = false;
  /// Terminal by design: consumes tuples without emitting (result sinks).
  bool is_sink = false;
  /// Expression execution mode and a short human-readable note for the
  /// I317 report ("3 insns", "user-supplied lambda", ...). `expr_note`
  /// must point at storage outliving the operator (string literals or
  /// operator-owned strings).
  ExprExec expr_exec = ExprExec::kNone;
  const char* expr_note = nullptr;

  // --- static-analysis introspection (range / selectivity pass) -----------
  // Optional self-exposure of the operator's logic so the abstract
  // interpreter in src/analysis/range_rules can reason about it without
  // RTTI. All pointers reference operator-owned storage and stay valid as
  // long as the operator lives. Operators that keep their logic opaque
  // (user lambdas) leave these null and the pass widens to Top.

  /// The interpreted predicate this operator evaluates (filter condition or
  /// join condition), or null. Terms address tuple events positionally
  /// unless `predicate_broadcast` says every variable reads event 0.
  const Predicate* predicate = nullptr;
  bool predicate_broadcast = false;
  /// The compiled bytecode this operator runs, or null. `expr_capacity` is
  /// the event-schema capacity its operands were verified against.
  const ExprProgram* program = nullptr;
  size_t expr_capacity = 0;
  /// Key provenance of a key-assigning operator: the event slot + attribute
  /// the key is read from (`key_source_event >= 0`), or a constant key
  /// (`key_is_constant`). Both unset means unknown provenance.
  int key_source_event = -1;
  Attribute key_source_attr = Attribute::kId;
  bool key_is_constant = false;
  int64_t key_constant = 0;
  /// Upper bound on this operator's pass fraction in [0,1], derived by the
  /// range pass (AttachRangeFacts) from declared source intervals; negative
  /// means no bound has been derived. The cost-based-optimizer Open item
  /// consumes this.
  double selectivity_bound = -1.0;
  /// Ingests ColumnarBatch natively (ProcessColumnar is a real override,
  /// not the scatter shim). A stateless columnar-capable operator also
  /// re-emits the blocks it filtered; a stateful one (a join) buffers the
  /// rows and emits its matches as rows. ChooseEdgeBatch (job_graph.h)
  /// reads both answers off this bit and `stateful`; row-major operators
  /// keep the default and receive scattered rows transparently.
  bool columnar_capable = false;
};

/// \brief A (possibly stateful) dataflow operator, the unit of the ASP
/// processing model (paper §2.3).
///
/// Lifecycle: Open -> {Process | OnWatermark}* -> Finish. The executor
/// guarantees that OnWatermark is called with strictly increasing values,
/// already aligned (min) across all input edges, and that Finish is called
/// exactly once after an OnWatermark(kMaxTimestamp).
class Operator {
 public:
  virtual ~Operator() = default;

  virtual std::string name() const = 0;

  /// Static self-description for analyses; defaults describe a stateless
  /// unary pass-through. Override in stateful / keyed / windowed operators.
  virtual OperatorTraits Traits() const { return OperatorTraits{}; }

  /// Number of distinct input ports (1 for unary, 2 for joins; union may
  /// declare more).
  virtual int num_inputs() const { return 1; }

  virtual Status Open() { return Status::OK(); }

  /// Handles one input tuple arriving on `input`.
  virtual Status Process(int input, Tuple tuple, Collector* out) = 0;

  /// Handles a homogeneous run of data messages (all kTuple, all on
  /// `input`) in one call. The batch is consumed and left empty. The
  /// default unpacks into per-tuple Process calls; the executor hands a
  /// chain head every homogeneous row batch this way (join -> join and
  /// join -> sink traffic), so decorators can account for it per batch.
  virtual Status ProcessBatch(int input, MessageBatch* batch, Collector* out) {
    for (Message& msg : *batch) {
      Status status = Process(input, std::move(msg.tuple), out);
      if (!status.ok()) {
        batch->clear();
        return status;
      }
    }
    batch->clear();
    return Status::OK();
  }

  /// Handles a whole column block arriving on `input`. The block is
  /// consumed. The default scatters back into a row-major batch and
  /// forwards to ProcessBatch (the boundary shim for operators that do not
  /// declare `columnar_capable`); columnar-capable operators override it
  /// (compiled stages filter the columns in place and re-emit the block,
  /// joins append the columns to their window store).
  virtual Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                                 Collector* out) {
    MessageBatch rows;
    rows.reserve(block->rows());
    for (size_t i = 0; i < block->rows(); ++i) {
      rows.push_back(Message::Data(input, block->RowTuple(i)));
    }
    block.reset();
    return ProcessBatch(input, &rows, out);
  }

  /// Called when the aligned watermark advances to `watermark`: event time
  /// has passed, windows ending at or before it may fire.
  virtual Status OnWatermark(Timestamp watermark, Collector* out) {
    (void)watermark;
    (void)out;
    return Status::OK();
  }

  /// Called once after all inputs are exhausted and the final watermark was
  /// delivered.
  virtual Status Finish(Collector* out) {
    (void)out;
    return Status::OK();
  }

  /// Current operator state footprint in bytes (buffered windows, partial
  /// matches, ...). Sampled by the metrics collector.
  virtual size_t StateBytes() const { return 0; }

  /// Records a statically derived upper bound on this operator's pass
  /// fraction (range pass, AttachRangeFacts). Default drops it; operators
  /// that participate in cost modeling store it and report it back through
  /// Traits().selectivity_bound.
  virtual void AttachSelectivityBound(double bound) { (void)bound; }

  /// Fresh, state-empty instance of this operator for one parallel subtask
  /// (keyed data parallelism: each instance sees a disjoint key subset, so
  /// construction parameters are shared but runtime state is not). Returns
  /// null when the operator cannot run data-parallel — the default, and
  /// the graph lint (E314) rejects parallelism > 1 on such nodes.
  virtual std::unique_ptr<Operator> CloneForSubtask() const { return nullptr; }
};

/// \brief A stream source: produces tuples in non-decreasing event time
/// (the paper's data model assumes each producer emits increasing
/// timestamps, §2.1).
class Source {
 public:
  virtual ~Source() = default;

  virtual std::string name() const = 0;

  /// Produces the next tuple; returns false when the stream is exhausted.
  virtual bool Next(Tuple* tuple) = 0;

  /// Event time high-water mark of this source: no future tuple will carry
  /// a smaller timestamp.
  virtual Timestamp CurrentWatermark() const = 0;

  /// Absolute wall-clock instant (Clock::NowNanos domain) before which the
  /// next Next() call would block on pacing, or 0 when the source is ready
  /// now. The ThreadedExecutor consults this and parks the source task on
  /// a scheduler timer until the deadline instead of letting Next() sleep
  /// a worker thread. A source that reported no deadline over a whole
  /// batch is probed once per batch from then on. The single-threaded
  /// PipelineExecutor ignores it (Next() still paces itself as a
  /// fallback).
  virtual int64_t PacingDeadlineNanos() const { return 0; }
};

/// Pacing gaps up to this long are not worth a wait: a tuple due within
/// the slack is emitted now. Cooperative executors park a source task on
/// the scheduler timer only for longer gaps (a park costs a state-machine
/// round-trip plus a condvar wait), and paced sources do not sleep inside
/// Next() for shorter ones (the sleep would overshoot by the OS timer
/// granularity and stall the worker). A source thus runs at most this far
/// ahead of its schedule.
constexpr int64_t kPacingSlackNanos = 100'000;

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_OPERATOR_H_
