#include "harness/paper_patterns.h"

namespace cep2asp {

Predicate PaperPatterns::ThresholdFilter(double selectivity) const {
  Predicate filter;
  if (selectivity < 1.0) {
    filter.Add(Comparison::AttrConst({0, Attribute::kValue}, CmpOp::kLt,
                                     100.0 * selectivity));
  }
  return filter;
}

Result<Pattern> PaperPatterns::Seq1(double filter_selectivity,
                                    Timestamp window, Timestamp slide) const {
  return PatternBuilder()
      .Seq(PatternBuilder::Atom(types_.q, "q1",
                                ThresholdFilter(filter_selectivity)),
           PatternBuilder::Atom(types_.v, "v1",
                                ThresholdFilter(filter_selectivity)))
      .Within(window)
      .SlideBy(slide)
      .Build();
}

Result<Pattern> PaperPatterns::IterThreshold(int m, double filter_selectivity,
                                             Timestamp window,
                                             Timestamp slide) const {
  return PatternBuilder()
      .Root(PatternBuilder::Iter(types_.v, "v",
                                 m, ThresholdFilter(filter_selectivity)))
      .Within(window)
      .SlideBy(slide)
      .Build();
}

Result<Pattern> PaperPatterns::IterConsecutive(int m, double filter_selectivity,
                                               Timestamp window,
                                               Timestamp slide) const {
  return PatternBuilder()
      .Root(PatternBuilder::Iter(
          types_.v, "v", m, ThresholdFilter(filter_selectivity),
          ConsecutiveConstraint{Attribute::kValue, CmpOp::kLt}))
      .Within(window)
      .SlideBy(slide)
      .Build();
}

Result<Pattern> PaperPatterns::Nseq1(double filter_selectivity,
                                     double negated_selectivity,
                                     Timestamp window, Timestamp slide) const {
  PatternAtom t1{types_.q, "q1", ThresholdFilter(filter_selectivity)};
  PatternAtom t2{types_.pm10, "p1", ThresholdFilter(negated_selectivity)};
  PatternAtom t3{types_.v, "v1", ThresholdFilter(filter_selectivity)};
  return PatternBuilder()
      .Nseq(std::move(t1), std::move(t2), std::move(t3))
      .Within(window)
      .SlideBy(slide)
      .Build();
}

Result<Pattern> PaperPatterns::SeqN(int n, double filter_selectivity,
                                    Timestamp window, Timestamp slide) const {
  if (n < 2 || n > 6) {
    return Status::InvalidArgument("SEQn supports n in [2, 6]");
  }
  const EventTypeId order[6] = {types_.q,    types_.v,    types_.pm10,
                                types_.pm25, types_.temp, types_.hum};
  PatternBuilder builder;
  std::vector<std::unique_ptr<PatternNode>> children;
  for (int i = 0; i < n; ++i) {
    std::string variable = "e";
    variable += std::to_string(i + 1);
    children.push_back(PatternBuilder::Atom(
        order[i], std::move(variable), ThresholdFilter(filter_selectivity)));
  }
  return builder.Seq(std::move(children)).Within(window).SlideBy(slide).Build();
}

Result<Pattern> PaperPatterns::Seq7(double filter_selectivity,
                                    Timestamp window, Timestamp slide) const {
  return PatternBuilder()
      .Seq(PatternBuilder::Atom(types_.q, "q1",
                                ThresholdFilter(filter_selectivity)),
           PatternBuilder::Atom(types_.v, "v1",
                                ThresholdFilter(filter_selectivity)),
           PatternBuilder::Atom(types_.pm10, "p1",
                                ThresholdFilter(filter_selectivity)))
      .Where(Comparison::AttrAttr({0, Attribute::kId}, CmpOp::kEq,
                                  {1, Attribute::kId}))
      .Where(Comparison::AttrAttr({1, Attribute::kId}, CmpOp::kEq,
                                  {2, Attribute::kId}))
      .Within(window)
      .SlideBy(slide)
      .Build();
}

Result<Pattern> PaperPatterns::Iter4(int m, double filter_selectivity,
                                     Timestamp window, Timestamp slide) const {
  PatternBuilder builder;
  builder.Root(PatternBuilder::Iter(types_.v, "v", m,
                                    ThresholdFilter(filter_selectivity)));
  // All iteration events stem from the same sensor: Equi-Join key on id.
  for (int i = 0; i + 1 < m; ++i) {
    builder.Where(Comparison::AttrAttr({i, Attribute::kId}, CmpOp::kEq,
                                       {i + 1, Attribute::kId}));
  }
  return builder.Within(window).SlideBy(slide).Build();
}

}  // namespace cep2asp
