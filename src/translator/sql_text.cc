#include "translator/sql_text.h"

#include <vector>

#include "common/strings.h"
#include "event/event_type.h"

namespace cep2asp {

namespace {

struct SqlVar {
  std::string name;          // SQL alias, e.g. "q1"
  EventTypeId type;          // stream
  const Predicate* filter;   // single-variable predicates
};

std::string AttrText(const std::string& var, Attribute attr) {
  return var + "." + AttributeName(attr);
}

std::string ComparisonText(const Comparison& c,
                           const std::vector<SqlVar>& vars) {
  std::string out =
      AttrText(vars[static_cast<size_t>(c.lhs.var)].name, c.lhs.attr);
  out += " ";
  out += CmpOpToString(c.op);
  out += " ";
  if (c.rhs_is_attr) {
    out += AttrText(vars[static_cast<size_t>(c.rhs_attr.var)].name,
                    c.rhs_attr.attr);
    if (c.rhs_offset != 0.0) out += " + " + FormatDouble(c.rhs_offset);
  } else {
    out += FormatDouble(c.rhs_const);
  }
  return out;
}

std::string FilterText(const SqlVar& var) {
  std::string out;
  for (const Comparison& c : var.filter->terms()) {
    if (!out.empty()) out += " AND ";
    // Filters reference their own variable as index 0.
    Comparison self = c;
    std::vector<SqlVar> self_vars = {var};
    out += ComparisonText(self, self_vars);
  }
  return out;
}

std::string WindowClause(const Pattern& pattern) {
  return "WINDOW [Range " +
         std::to_string(pattern.window_size() / kMillisPerMinute) +
         "min, Slide " + std::to_string(pattern.slide() / kMillisPerMinute) +
         "min]";
}

void AppendConjunct(std::string* where, const std::string& conjunct) {
  if (conjunct.empty()) return;
  if (!where->empty()) *where += "\n  AND ";
  *where += conjunct;
}

std::string VarName(const PatternAtom& atom, int position) {
  if (!atom.variable.empty()) return atom.variable;
  std::string name = "e";
  name += std::to_string(position + 1);
  return name;
}

}  // namespace

Result<std::string> RenderSqlQuery(const Pattern& pattern) {
  CEP2ASP_RETURN_IF_ERROR(pattern.Validate());
  EventTypeRegistry* registry = EventTypeRegistry::Global();
  const PatternNode& root = pattern.root();

  // Disjunction: a UNION of per-branch selections (Eq. 11 target).
  if (root.op == PatternOp::kOr) {
    std::string out;
    for (size_t i = 0; i < root.children.size(); ++i) {
      const PatternAtom& atom = root.children[i]->atom;
      if (i > 0) out += "UNION\n";
      out += "SELECT * FROM Stream " + registry->Name(atom.type) + " " +
             VarName(atom, static_cast<int>(i));
      SqlVar var{VarName(atom, static_cast<int>(i)), atom.type, &atom.filter};
      std::string filter = FilterText(var);
      if (!filter.empty()) out += " WHERE " + filter;
      out += "\n";
    }
    out += WindowClause(pattern);
    return out;
  }

  // Negated sequence: Listing 6's NOT EXISTS form.
  if (root.op == PatternOp::kNseq) {
    const PatternAtom& t1 = root.nseq_atoms[0];
    const PatternAtom& t2 = root.nseq_atoms[1];
    const PatternAtom& t3 = root.nseq_atoms[2];
    std::string v1 = VarName(t1, 0), v2 = VarName(t2, 1), v3 = VarName(t3, 2);

    std::string where;
    AppendConjunct(&where, FilterText({v1, t1.type, &t1.filter}));
    AppendConjunct(&where, FilterText({v3, t3.type, &t3.filter}));
    AppendConjunct(&where, v1 + ".ts < " + v3 + ".ts");
    std::string sub_where;
    AppendConjunct(&sub_where, FilterText({v2, t2.type, &t2.filter}));
    AppendConjunct(&sub_where, v1 + ".ts < " + v2 + ".ts");
    AppendConjunct(&sub_where, v2 + ".ts < " + v3 + ".ts");
    AppendConjunct(&where, "NOT EXISTS (SELECT * FROM Stream " +
                               registry->Name(t2.type) + " " + v2 +
                               "\n    WHERE " + sub_where + ")");

    std::string out = "SELECT *\nFROM Stream " + registry->Name(t1.type) +
                      " " + v1 + ", Stream " + registry->Name(t3.type) + " " +
                      v3 + "\nWHERE " + where + "\n" + WindowClause(pattern);
    return out;
  }

  // SEQ / AND / ITER / single atom: a (self-)join over the streams of all
  // match positions, with ts-order predicates for the ordered operators.
  std::vector<const PatternAtom*> atoms = MatchPositionAtoms(root);
  std::vector<SqlVar> vars;
  std::vector<bool> ordered_edges;  // between position i and i+1
  for (size_t i = 0; i < atoms.size(); ++i) {
    std::string name = VarName(*atoms[i], static_cast<int>(i));
    // Iterations reuse one variable name; disambiguate per position.
    if (root.op == PatternOp::kIter) {
      name = atoms[i]->variable + std::to_string(i + 1);
    } else if (i > 0 && name == vars.back().name) {
      name += std::to_string(i + 1);
    }
    vars.push_back(SqlVar{name, atoms[i]->type, &atoms[i]->filter});
  }
  const bool ordered =
      root.op == PatternOp::kSeq || root.op == PatternOp::kIter;

  std::string from;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) from += ", ";
    from += "Stream " + registry->Name(vars[i].type) + " " + vars[i].name;
  }

  std::string where;
  if (ordered) {
    for (size_t i = 0; i + 1 < vars.size(); ++i) {
      AppendConjunct(&where, vars[i].name + ".ts < " + vars[i + 1].name + ".ts");
    }
  }
  if (root.op == PatternOp::kIter && root.iter_constraint.has_value()) {
    const ConsecutiveConstraint& c = *root.iter_constraint;
    for (size_t i = 0; i + 1 < vars.size(); ++i) {
      AppendConjunct(&where, AttrText(vars[i].name, c.attr) + " " +
                                 CmpOpToString(c.op) + " " +
                                 AttrText(vars[i + 1].name, c.attr));
    }
  }
  for (const SqlVar& var : vars) {
    AppendConjunct(&where, FilterText(var));
    if (root.op == PatternOp::kIter) break;  // one shared filter
  }
  if (root.op == PatternOp::kIter) {
    // The shared filter applies per position.
    for (size_t i = 1; i < vars.size(); ++i) {
      AppendConjunct(&where, FilterText(vars[i]));
    }
  }
  for (const Comparison& c : pattern.cross_predicates().terms()) {
    AppendConjunct(&where, ComparisonText(c, vars));
  }

  std::string out = "SELECT *\nFROM " + from;
  if (!where.empty()) {
    out += "\nWHERE ";
    out += where;
  }
  out += '\n';
  out += WindowClause(pattern);
  return out;
}

}  // namespace cep2asp
