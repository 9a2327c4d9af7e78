#ifndef CEP2ASP_ASP_STATELESS_H_
#define CEP2ASP_ASP_STATELESS_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "event/predicate.h"
#include "runtime/operator.h"

namespace cep2asp {

/// \brief Selection: forwards tuples satisfying a predicate (paper §2,
/// operator (1); ASP "filter").
class FilterOperator : public Operator {
 public:
  using Fn = std::function<bool(const Tuple&)>;

  /// `expr_note` feeds the I317 expression-compilation report; raw
  /// constructor calls are user-supplied lambdas the compiler cannot see.
  explicit FilterOperator(Fn fn, std::string label = "filter",
                          const char* expr_note = "user-supplied lambda")
      : fn_(std::move(fn)), label_(std::move(label)), expr_note_(expr_note) {}

  /// Filter from a single-variable predicate applied to the head event.
  static std::unique_ptr<FilterOperator> FromPredicate(Predicate predicate,
                                                       std::string label = "filter") {
    auto pred = std::make_shared<Predicate>(std::move(predicate));
    auto op = std::make_unique<FilterOperator>(
        [pred](const Tuple& t) { return pred->EvalOnEvent(t.event(0)); },
        std::move(label), "interpreted predicate (head event)");
    op->predicate_ = std::move(pred);
    return op;
  }

  std::string name() const override { return label_; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.expr_exec = ExprExec::kInterpreted;
    traits.expr_note = expr_note_;
    traits.predicate = predicate_.get();
    traits.predicate_broadcast = true;
    traits.selectivity_bound = selectivity_bound_;
    return traits;
  }

  void AttachSelectivityBound(double bound) override {
    selectivity_bound_ = bound;
  }

  Status Process(int input, Tuple tuple, Collector* out) override {
    (void)input;
    if (fn_(tuple)) out->Emit(std::move(tuple));
    return Status::OK();
  }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone = std::make_unique<FilterOperator>(fn_, label_, expr_note_);
    clone->predicate_ = predicate_;
    clone->selectivity_bound_ = selectivity_bound_;
    return clone;
  }

 private:
  Fn fn_;
  std::string label_;
  const char* expr_note_;
  /// The predicate `fn_` interprets on the head event, when known
  /// (FromPredicate). Shared with the evaluation lambda; exposed through
  /// Traits so the range pass can reason about factory filters without
  /// RTTI.
  std::shared_ptr<const Predicate> predicate_;
  double selectivity_bound_ = -1.0;
};

/// \brief Projection: transforms each tuple (paper §2, operator (2); ASP
/// "map"). Used by the translator to achieve union compatibility, assign
/// join keys, and redefine event time.
class MapOperator : public Operator {
 public:
  using Fn = std::function<Tuple(Tuple)>;

  /// `assigns_key` declares (for the plan analyzer) that `fn` rewrites the
  /// partition key; the key-assigning factories below set it. `expr_note`
  /// feeds the I317 expression-compilation report.
  explicit MapOperator(Fn fn, std::string label = "map",
                       bool assigns_key = false,
                       const char* expr_note = "user-supplied lambda")
      : fn_(std::move(fn)),
        label_(std::move(label)),
        assigns_key_(assigns_key),
        expr_note_(expr_note) {}

  /// Map assigning a constant partition key: the paper's workaround for
  /// missing Cartesian-product support (§4.2.1) — a precedent map
  /// operation that assigns a uniform key to each event.
  static std::unique_ptr<MapOperator> AssignConstantKey(int64_t key) {
    auto op = std::make_unique<MapOperator>(
        [key](Tuple t) {
          t.set_key(key);
          return t;
        },
        "map(key:=const)", /*assigns_key=*/true, "interpreted key:=const");
    op->key_is_constant_ = true;
    op->key_constant_ = key;
    return op;
  }

  /// Map assigning the key from an attribute of one constituent event
  /// (enables Equi-Join partitioning, O3). Key contract: the attribute
  /// must hold integral finite values — AttributeToKey asserts the
  /// round-trip in debug builds, and plans keying by a continuous
  /// attribute are flagged by the analyzer (W213).
  static std::unique_ptr<MapOperator> KeyByAttribute(size_t event_index,
                                                     Attribute attr) {
    auto op = std::make_unique<MapOperator>(
        [event_index, attr](Tuple t) {
          t.set_key(AttributeToKey(GetAttribute(t.event(event_index), attr)));
          return t;
        },
        "map(key:=attr)", /*assigns_key=*/true, "interpreted key:=attr");
    op->key_source_event_ = static_cast<int>(event_index);
    op->key_source_attr_ = attr;
    return op;
  }

  std::string name() const override { return label_; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.assigns_key = assigns_key_;
    traits.expr_exec = ExprExec::kInterpreted;
    traits.expr_note = expr_note_;
    traits.key_source_event = key_source_event_;
    traits.key_source_attr = key_source_attr_;
    traits.key_is_constant = key_is_constant_;
    traits.key_constant = key_constant_;
    return traits;
  }

  Status Process(int input, Tuple tuple, Collector* out) override {
    (void)input;
    out->Emit(fn_(std::move(tuple)));
    return Status::OK();
  }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone =
        std::make_unique<MapOperator>(fn_, label_, assigns_key_, expr_note_);
    clone->key_source_event_ = key_source_event_;
    clone->key_source_attr_ = key_source_attr_;
    clone->key_is_constant_ = key_is_constant_;
    clone->key_constant_ = key_constant_;
    return clone;
  }

 private:
  Fn fn_;
  std::string label_;
  bool assigns_key_;
  const char* expr_note_;
  /// Key provenance of the factory-built key maps (range-pass metadata).
  int key_source_event_ = -1;
  Attribute key_source_attr_ = Attribute::kId;
  bool key_is_constant_ = false;
  int64_t key_constant_ = 0;
};

/// \brief Set union of n input streams (paper Eq. 11 target). Streams
/// share the common schema, so union compatibility holds by construction;
/// heterogeneous schemas would be aligned by a preceding MapOperator.
class UnionOperator : public Operator {
 public:
  explicit UnionOperator(int num_inputs) : num_inputs_(num_inputs) {}

  std::string name() const override {
    return "union" + std::to_string(num_inputs_);
  }

  int num_inputs() const override { return num_inputs_; }

  Status Process(int input, Tuple tuple, Collector* out) override {
    (void)input;
    out->Emit(std::move(tuple));
    return Status::OK();
  }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    return std::make_unique<UnionOperator>(num_inputs_);
  }

 private:
  int num_inputs_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ASP_STATELESS_H_
