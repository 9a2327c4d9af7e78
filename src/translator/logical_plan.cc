#include "translator/logical_plan.h"

#include "event/event_type.h"

namespace cep2asp {

const char* LogicalOpKindToString(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kScan:
      return "Scan";
    case LogicalOpKind::kFilter:
      return "Filter";
    case LogicalOpKind::kKeyByAttr:
      return "KeyByAttr";
    case LogicalOpKind::kKeyByConst:
      return "KeyByConst";
    case LogicalOpKind::kUnion:
      return "Union";
    case LogicalOpKind::kWindowJoin:
      return "WindowJoin";
    case LogicalOpKind::kIntervalJoin:
      return "IntervalJoin";
    case LogicalOpKind::kAggregate:
      return "Aggregate";
    case LogicalOpKind::kIterChainApply:
      return "IterChainApply";
    case LogicalOpKind::kNseqMark:
      return "NseqMark";
    case LogicalOpKind::kReorder:
      return "Reorder";
  }
  return "?";
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + LogicalOpKindToString(kind);
  // Appends piecewise: GCC 12 reports a false -Wrestrict on
  // `"(" + std::string`.
  const auto parenthesized = [&out](const std::string& inner) {
    out += '(';
    out += inner;
    out += ')';
  };
  switch (kind) {
    case LogicalOpKind::kScan:
      parenthesized(EventTypeRegistry::Global()->Name(scan_type));
      break;
    case LogicalOpKind::kFilter:
      parenthesized(predicate.ToString());
      break;
    case LogicalOpKind::kKeyByAttr:
      parenthesized(AttributeName(key_attr));
      break;
    case LogicalOpKind::kKeyByConst:
      parenthesized(std::to_string(const_key));
      break;
    case LogicalOpKind::kWindowJoin:
      out += "[W=";
      out += std::to_string(window.size);
      out += ",s=";
      out += std::to_string(window.slide);
      out += ']';
      if (!predicate.IsTrue()) parenthesized(predicate.ToString());
      break;
    case LogicalOpKind::kIntervalJoin:
      out += '[';
      out += std::to_string(interval.lower);
      out += ',';
      out += std::to_string(interval.upper);
      out += ']';
      if (!predicate.IsTrue()) parenthesized(predicate.ToString());
      break;
    case LogicalOpKind::kAggregate:
      parenthesized(AggregateFnToString(aggregate_fn) +
                    (", n>=" + std::to_string(min_count)));
      break;
    case LogicalOpKind::kIterChainApply:
      parenthesized("chain>=" + std::to_string(min_count));
      break;
    case LogicalOpKind::kNseqMark:
      parenthesized(EventTypeRegistry::Global()->Name(nseq_positive) +
                    " vs !" +
                    EventTypeRegistry::Global()->Name(nseq_negated));
      break;
    default:
      break;
  }
  out += "\n";
  for (const auto& input : inputs) out += input->ToString(indent + 1);
  return out;
}

int LogicalOp::CountKind(LogicalOpKind target) const {
  int count = kind == target ? 1 : 0;
  for (const auto& input : inputs) count += input->CountKind(target);
  return count;
}

}  // namespace cep2asp
