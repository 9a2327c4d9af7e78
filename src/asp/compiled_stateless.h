#ifndef CEP2ASP_ASP_COMPILED_STATELESS_H_
#define CEP2ASP_ASP_COMPILED_STATELESS_H_

#include <memory>
#include <string>
#include <utility>

#include "event/expr_program.h"
#include "event/expr_verifier.h"
#include "runtime/operator.h"

namespace cep2asp {

/// \brief A stateless filter / key-map / fused filter→key stage running a
/// compiled ExprProgram instead of interpreting a Predicate or calling a
/// std::function per tuple.
///
/// The block path is the point: ProcessColumnar runs each fused term as
/// one loop over contiguous columns (RunColumnar), compacts the failing
/// rows out in place and re-emits the block whole, so a fused filter→key
/// prefix costs no per-tuple virtual hop at all. Rows that still arrive
/// one by one (a hand-built graph, a mixed-arity source batch) take
/// Process → Run with the same result. Emitted by the translator for
/// translator-generated predicates; user-supplied lambdas keep the
/// interpreted operators.
class CompiledStatelessOperator : public Operator {
 public:
  /// `declared_events` is the schema capacity the program's event operands
  /// are verified against (translator programs run in broadcast mode, so
  /// every operand is event 0 and the default of 1 is exact).
  CompiledStatelessOperator(ExprProgram program, std::string label,
                            size_t declared_events = 1)
      : program_(std::move(program)),
        label_(std::move(label)),
        declared_events_(declared_events),
        note_(std::to_string(program_.num_instructions()) + " insns" +
              (program_.assigns_key() ? ", assigns key" : "")) {
    CEP2ASP_CHECK(program_.ok()) << "compilation failed for " << label_;
#ifndef NDEBUG
    // Every emitter output is statically verified before it can run: a
    // malformed encoding aborts here instead of reading out of bounds in
    // the dispatch loop or a columnar kernel.
    const Status verdict = ExprVerifier::Verify(program_, declared_events_);
    CEP2ASP_CHECK(verdict.ok())
        << "expr verifier rejected " << label_ << ": " << verdict.message();
#endif
  }

  std::string name() const override { return label_; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.assigns_key = program_.assigns_key();
    traits.expr_exec = ExprExec::kCompiled;
    traits.expr_note = note_.c_str();
    traits.program = &program_;
    traits.expr_capacity = declared_events_;
    traits.selectivity_bound = selectivity_bound_;
    traits.columnar_capable = true;
    return traits;
  }

  void AttachSelectivityBound(double bound) override {
    selectivity_bound_ = bound;
  }

  Status Process(int input, Tuple tuple, Collector* out) override {
    (void)input;
    if (program_.Run(&tuple)) out->Emit(std::move(tuple));
    return Status::OK();
  }

  Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                         Collector* out) override {
    (void)input;
    program_.RunColumnar(block->View());
    block->Compact();
    if (!block->empty()) out->EmitColumnar(std::move(block));
    return Status::OK();
  }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone = std::make_unique<CompiledStatelessOperator>(program_, label_,
                                                             declared_events_);
    clone->selectivity_bound_ = selectivity_bound_;
    return clone;
  }

  const ExprProgram& program() const { return program_; }

 private:
  ExprProgram program_;
  std::string label_;
  size_t declared_events_ = 1;
  std::string note_;
  double selectivity_bound_ = -1.0;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ASP_COMPILED_STATELESS_H_
