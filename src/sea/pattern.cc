#include "sea/pattern.h"

#include "common/logging.h"
#include "common/strings.h"
#include "event/event_type.h"

namespace cep2asp {

const char* PatternOpToString(PatternOp op) {
  switch (op) {
    case PatternOp::kAtom:
      return "ATOM";
    case PatternOp::kSeq:
      return "SEQ";
    case PatternOp::kAnd:
      return "AND";
    case PatternOp::kOr:
      return "OR";
    case PatternOp::kIter:
      return "ITER";
    case PatternOp::kNseq:
      return "NSEQ";
  }
  return "?";
}

int PatternNode::OutputArity() const {
  switch (op) {
    case PatternOp::kAtom:
      return 1;
    case PatternOp::kIter:
      return iter_count;
    case PatternOp::kNseq:
      return 2;  // T1 and T3; the negated T2 never appears in output
    case PatternOp::kOr:
      return 1;  // Eq. 11: the disjunction yields single events
    case PatternOp::kSeq:
    case PatternOp::kAnd: {
      int arity = 0;
      for (const auto& child : children) arity += child->OutputArity();
      return arity;
    }
  }
  return 0;
}

namespace {

Status ValidateNode(const PatternNode& node) {
  switch (node.op) {
    case PatternOp::kAtom:
      if (node.atom.type == kInvalidEventType) {
        return Status::InvalidArgument("atom without event type");
      }
      if (node.atom.filter.MaxVar() > 0) {
        return Status::InvalidArgument(
            "atom filter must reference only its own variable");
      }
      return Status::OK();
    case PatternOp::kIter:
      if (node.iter_count < 1) {
        return Status::InvalidArgument("ITER requires m >= 1");
      }
      if (node.atom.type == kInvalidEventType) {
        return Status::InvalidArgument("ITER atom without event type");
      }
      return Status::OK();
    case PatternOp::kNseq:
      if (node.nseq_atoms.size() != 3) {
        return Status::InvalidArgument("NSEQ requires exactly three atoms");
      }
      for (const PatternAtom& atom : node.nseq_atoms) {
        if (atom.type == kInvalidEventType) {
          return Status::InvalidArgument("NSEQ atom without event type");
        }
      }
      return Status::OK();
    case PatternOp::kOr:
      if (node.children.size() < 2) {
        return Status::InvalidArgument("OR requires at least two children");
      }
      for (const auto& child : node.children) {
        if (child->op != PatternOp::kAtom && child->op != PatternOp::kOr) {
          return Status::InvalidArgument(
              "OR children must be atoms (Eq. 11 yields single events)");
        }
        CEP2ASP_RETURN_IF_ERROR(ValidateNode(*child));
      }
      return Status::OK();
    case PatternOp::kSeq:
    case PatternOp::kAnd:
      if (node.children.size() < 2) {
        return Status::InvalidArgument(
            std::string(PatternOpToString(node.op)) +
            " requires at least two children");
      }
      for (const auto& child : node.children) {
        CEP2ASP_RETURN_IF_ERROR(ValidateNode(*child));
      }
      return Status::OK();
  }
  return Status::Internal("unknown pattern op");
}

std::string NodeToString(const PatternNode& node) {
  EventTypeRegistry* registry = EventTypeRegistry::Global();
  switch (node.op) {
    case PatternOp::kAtom:
      return registry->Name(node.atom.type) + " " + node.atom.variable;
    case PatternOp::kIter: {
      std::string out = "ITER" + std::to_string(node.iter_count);
      if (node.iter_unbounded) out += "+";
      out += '(';
      out += registry->Name(node.atom.type);
      out += ' ';
      out += node.atom.variable;
      out += ')';
      return out;
    }
    case PatternOp::kNseq: {
      std::string out = "NSEQ(";
      out += registry->Name(node.nseq_atoms[0].type) + " " +
             node.nseq_atoms[0].variable;
      out += ", !" + registry->Name(node.nseq_atoms[1].type) + " " +
             node.nseq_atoms[1].variable;
      out += ", " + registry->Name(node.nseq_atoms[2].type) + " " +
             node.nseq_atoms[2].variable;
      out += ")";
      return out;
    }
    case PatternOp::kSeq:
    case PatternOp::kAnd:
    case PatternOp::kOr: {
      std::string out = PatternOpToString(node.op);
      out += "(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += NodeToString(*node.children[i]);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

void CollectAtoms(const PatternNode& node,
                  std::vector<const PatternAtom*>* out) {
  switch (node.op) {
    case PatternOp::kAtom:
      out->push_back(&node.atom);
      break;
    case PatternOp::kIter:
      for (int i = 0; i < node.iter_count; ++i) out->push_back(&node.atom);
      break;
    case PatternOp::kNseq:
      out->push_back(&node.nseq_atoms[0]);
      out->push_back(&node.nseq_atoms[2]);
      break;
    case PatternOp::kOr:
      // One output event; report the first branch's atom as representative.
      out->push_back(&node.children[0]->atom);
      break;
    case PatternOp::kSeq:
    case PatternOp::kAnd:
      for (const auto& child : node.children) CollectAtoms(*child, out);
      break;
  }
}

}  // namespace

Status Pattern::Validate() const {
  if (!root_) return Status::InvalidArgument("pattern has no structure");
  if (window_size_ <= 0) {
    return Status::InvalidArgument(
        "pattern has no window: the window operator is mandatory (paper "
        "§3.1.4)");
  }
  if (slide_ <= 0 || slide_ > window_size_) {
    return Status::InvalidArgument("slide must be in (0, window_size]");
  }
  CEP2ASP_RETURN_IF_ERROR(ValidateNode(*root_));
  int arity = OutputArity();
  if (cross_predicates_.MaxVar() >= arity) {
    return Status::InvalidArgument(
        "cross predicate references variable index " +
        std::to_string(cross_predicates_.MaxVar()) + " but pattern has only " +
        std::to_string(arity) + " match positions");
  }
  return Status::OK();
}

std::string Pattern::ToString() const {
  if (!root_) return "(empty pattern)";
  std::string out = NodeToString(*root_);
  if (!cross_predicates_.IsTrue()) {
    out += " WHERE " + cross_predicates_.ToString();
  }
  out += " WITHIN " + std::to_string(window_size_ / kMillisPerMinute) + "min";
  return out;
}

std::unique_ptr<PatternNode> PatternBuilder::Atom(EventTypeId type,
                                                  std::string var,
                                                  Predicate filter) {
  auto node = std::make_unique<PatternNode>();
  node->op = PatternOp::kAtom;
  node->atom.type = type;
  node->atom.variable = std::move(var);
  node->atom.filter = std::move(filter);
  return node;
}

std::unique_ptr<PatternNode> PatternBuilder::Iter(
    EventTypeId type, std::string var, int m, Predicate filter,
    std::optional<ConsecutiveConstraint> constraint, bool unbounded) {
  auto node = std::make_unique<PatternNode>();
  node->op = PatternOp::kIter;
  node->atom.type = type;
  node->atom.variable = std::move(var);
  node->atom.filter = std::move(filter);
  node->iter_count = m;
  node->iter_unbounded = unbounded;
  node->iter_constraint = constraint;
  return node;
}

namespace {
/// Flattens nested same-op children, using associativity (paper §3.2:
/// SEQ(T1, SEQ(T2, T3)) simplifies to SEQ(T1, T2, T3); likewise AND, OR).
std::unique_ptr<PatternNode> MakeNary(
    PatternOp op, std::vector<std::unique_ptr<PatternNode>> children) {
  auto node = std::make_unique<PatternNode>();
  node->op = op;
  for (auto& child : children) {
    if (child->op == op) {
      for (auto& grandchild : child->children) {
        node->children.push_back(std::move(grandchild));
      }
    } else {
      node->children.push_back(std::move(child));
    }
  }
  return node;
}
}  // namespace

PatternBuilder& PatternBuilder::Seq(
    std::vector<std::unique_ptr<PatternNode>> children) {
  root_ = MakeNary(PatternOp::kSeq, std::move(children));
  return *this;
}

PatternBuilder& PatternBuilder::And(
    std::vector<std::unique_ptr<PatternNode>> children) {
  root_ = MakeNary(PatternOp::kAnd, std::move(children));
  return *this;
}

PatternBuilder& PatternBuilder::Or(
    std::vector<std::unique_ptr<PatternNode>> children) {
  root_ = MakeNary(PatternOp::kOr, std::move(children));
  return *this;
}

PatternBuilder& PatternBuilder::Nseq(PatternAtom t1, PatternAtom negated_t2,
                                     PatternAtom t3) {
  auto node = std::make_unique<PatternNode>();
  node->op = PatternOp::kNseq;
  node->nseq_atoms = {std::move(t1), std::move(negated_t2), std::move(t3)};
  root_ = std::move(node);
  return *this;
}

PatternBuilder& PatternBuilder::Root(std::unique_ptr<PatternNode> root) {
  root_ = std::move(root);
  return *this;
}

PatternBuilder& PatternBuilder::Where(Comparison comparison) {
  cross_predicates_.Add(std::move(comparison));
  return *this;
}

PatternBuilder& PatternBuilder::Within(Timestamp window_size) {
  window_size_ = window_size;
  return *this;
}

PatternBuilder& PatternBuilder::SlideBy(Timestamp slide) {
  slide_ = slide;
  return *this;
}

Result<Pattern> PatternBuilder::Build() {
  Pattern pattern(std::move(root_), std::move(cross_predicates_), window_size_);
  pattern.set_slide(slide_);
  CEP2ASP_RETURN_IF_ERROR(pattern.Validate());
  return pattern;
}

std::vector<const PatternAtom*> MatchPositionAtoms(const PatternNode& node) {
  std::vector<const PatternAtom*> atoms;
  CollectAtoms(node, &atoms);
  return atoms;
}

}  // namespace cep2asp
