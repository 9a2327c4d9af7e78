#include "event/predicate.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace cep2asp {

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

int Comparison::MaxVar() const {
  int out = lhs.var;
  if (rhs_is_attr) out = std::max(out, rhs_attr.var);
  return out;
}

bool Comparison::ReferencesOnly(int var) const {
  if (lhs.var != var) return false;
  if (rhs_is_attr && rhs_attr.var != var) return false;
  return true;
}

bool Comparison::IsCrossVarEquality() const {
  return op == CmpOp::kEq && rhs_is_attr && lhs.var != rhs_attr.var &&
         rhs_offset == 0.0;
}

Comparison Comparison::Remap(const std::vector<int>& mapping) const {
  Comparison out = *this;
  CEP2ASP_CHECK(lhs.var >= 0 && static_cast<size_t>(lhs.var) < mapping.size())
      << "remap out of range";
  out.lhs.var = mapping[lhs.var];
  if (rhs_is_attr) {
    CEP2ASP_CHECK(rhs_attr.var >= 0 &&
                  static_cast<size_t>(rhs_attr.var) < mapping.size())
        << "remap out of range";
    out.rhs_attr.var = mapping[rhs_attr.var];
  }
  return out;
}

bool Comparison::Eval(
    const std::function<const SimpleEvent&(int)>& resolve) const {
  double left = GetAttribute(resolve(lhs.var), lhs.attr);
  double right = rhs_is_attr
                     ? GetAttribute(resolve(rhs_attr.var), rhs_attr.attr) +
                           rhs_offset
                     : rhs_const;
  return EvalCmp(left, op, right);
}

bool Comparison::EvalOnEvents(const SimpleEvent* events, size_t count) const {
  (void)count;
  CEP2ASP_DCHECK(lhs.var >= 0 && static_cast<size_t>(lhs.var) < count);
  const double left = GetAttribute(events[lhs.var], lhs.attr);
  double right;
  if (rhs_is_attr) {
    CEP2ASP_DCHECK(rhs_attr.var >= 0 &&
                   static_cast<size_t>(rhs_attr.var) < count);
    right = GetAttribute(events[rhs_attr.var], rhs_attr.attr) + rhs_offset;
  } else {
    right = rhs_const;
  }
  return EvalCmp(left, op, right);
}

bool Comparison::EvalOnEvent(const SimpleEvent& event) const {
  const double left = GetAttribute(event, lhs.attr);
  const double right =
      rhs_is_attr ? GetAttribute(event, rhs_attr.attr) + rhs_offset : rhs_const;
  return EvalCmp(left, op, right);
}

std::string Comparison::ToString() const {
  std::string out = "e";
  out += std::to_string(lhs.var);
  out += '.';
  out += AttributeName(lhs.attr);
  out += ' ';
  out += CmpOpToString(op);
  out += ' ';
  if (rhs_is_attr) {
    out += 'e';
    out += std::to_string(rhs_attr.var);
    out += '.';
    out += AttributeName(rhs_attr.attr);
    if (rhs_offset != 0.0) out += " + " + FormatDouble(rhs_offset);
  } else {
    out += FormatDouble(rhs_const);
  }
  return out;
}

int Predicate::MaxVar() const {
  int out = -1;
  for (const Comparison& c : terms_) out = std::max(out, c.MaxVar());
  return out;
}

bool Predicate::Eval(
    const std::function<const SimpleEvent&(int)>& resolve) const {
  for (const Comparison& c : terms_) {
    if (!c.Eval(resolve)) return false;
  }
  return true;
}

bool Predicate::EvalOnEvents(const SimpleEvent* events, size_t count) const {
  for (const Comparison& c : terms_) {
    if (!c.EvalOnEvents(events, count)) return false;
  }
  return true;
}

bool Predicate::EvalOnTuple(const Tuple& tuple) const {
  return EvalOnEvents(tuple.begin(), tuple.size());
}

bool Predicate::EvalOnEvent(const SimpleEvent& event) const {
  for (const Comparison& c : terms_) {
    if (!c.EvalOnEvent(event)) return false;
  }
  return true;
}

Predicate Predicate::Remap(const std::vector<int>& mapping) const {
  std::vector<Comparison> out;
  out.reserve(terms_.size());
  for (const Comparison& c : terms_) out.push_back(c.Remap(mapping));
  return Predicate(std::move(out));
}

std::string Predicate::ToString() const {
  if (terms_.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += terms_[i].ToString();
  }
  return out;
}

}  // namespace cep2asp
