// Columnar (SoA) execution tests: RunColumnar over a ColumnarBatch must be
// observationally identical to per-tuple Run for every fused program over
// every input — including NaN / ±inf attribute values, all six
// comparators, and key-assigning programs — and the gather/scatter shims
// must reproduce rows bit-for-bit. The SIMD kernels (when CEP2ASP_SIMD is
// on) and the scalar fallback share these tests: the mask is the contract.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "asp/compiled_stateless.h"
#include "asp/interval_join.h"
#include "asp/sliding_window_join.h"
#include "event/expr_program.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

double RandomMeasure(std::mt19937_64& rng, bool allow_non_finite) {
  static const double kFinite[] = {0.0,  -0.0, 0.5,    -1.25, 3.0,
                                   42.0, 59.9, 60.0,   100.0, -273.15,
                                   1e6,  1e-9, -1e300, 7.25,  13.0};
  static const double kSpecial[] = {kNaN, kInf, -kInf};
  if (allow_non_finite && rng() % 8 == 0) return kSpecial[rng() % 3];
  return kFinite[rng() % (sizeof(kFinite) / sizeof(kFinite[0]))];
}

SimpleEvent RandomEvent(std::mt19937_64& rng, bool allow_non_finite) {
  SimpleEvent e;
  e.type = static_cast<EventTypeId>(1 + rng() % 3);
  e.id = static_cast<int64_t>(rng() % 8);
  e.ts = static_cast<Timestamp>(rng() % 10000);
  e.aux_ts = static_cast<Timestamp>(rng() % 10000);
  e.create_ts = static_cast<Timestamp>(rng() % 10000);
  e.value = RandomMeasure(rng, allow_non_finite);
  e.lat = RandomMeasure(rng, allow_non_finite);
  e.lon = RandomMeasure(rng, allow_non_finite);
  return e;
}

Attribute RandomAttr(std::mt19937_64& rng) {
  static const Attribute kAttrs[] = {Attribute::kValue, Attribute::kLat,
                                     Attribute::kLon,   Attribute::kTs,
                                     Attribute::kId,    Attribute::kAuxTs};
  return kAttrs[rng() % 6];
}

CmpOp RandomCmpOp(std::mt19937_64& rng) {
  static const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  return kOps[rng() % 6];
}

Predicate RandomPredicate(std::mt19937_64& rng, int arity) {
  Predicate pred;
  const int terms = static_cast<int>(rng() % 6);
  for (int i = 0; i < terms; ++i) {
    const AttrRef lhs{static_cast<int>(rng() % static_cast<unsigned>(arity)),
                      RandomAttr(rng)};
    const CmpOp op = RandomCmpOp(rng);
    if (rng() % 2 == 0) {
      const AttrRef rhs{static_cast<int>(rng() % static_cast<unsigned>(arity)),
                        RandomAttr(rng)};
      static const double kOffsets[] = {0.0, 0.0, 0.5, -17.0, 1000.0};
      pred.Add(Comparison::AttrAttr(lhs, op, rhs, kOffsets[rng() % 5]));
    } else {
      pred.Add(Comparison::AttrConst(lhs, op,
                                     RandomMeasure(rng, /*non_finite=*/true)));
    }
  }
  return pred;
}

Tuple RandomTuple(std::mt19937_64& rng, int arity, bool allow_non_finite) {
  Tuple t;
  for (int i = 0; i < arity; ++i) {
    t.AppendEvent(RandomEvent(rng, allow_non_finite));
  }
  t.set_event_time(static_cast<Timestamp>(rng() % 10000));
  t.set_key(static_cast<int64_t>(rng() % 100));
  return t;
}

/// Bitwise-aware double equality: NaN == NaN, -0.0 != +0.0 is fine here
/// because the gather writes the same bit pattern it read.
bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectSameTuple(const Tuple& a, const Tuple& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.event_time(), b.event_time());
  for (size_t i = 0; i < a.size(); ++i) {
    const SimpleEvent& ea = a.event(i);
    const SimpleEvent& eb = b.event(i);
    EXPECT_EQ(ea.type, eb.type);
    EXPECT_EQ(ea.id, eb.id);
    EXPECT_EQ(ea.ts, eb.ts);
    EXPECT_EQ(ea.create_ts, eb.create_ts);
    EXPECT_EQ(ea.aux_ts, eb.aux_ts);
    EXPECT_TRUE(SameDouble(ea.value, eb.value));
    EXPECT_TRUE(SameDouble(ea.lat, eb.lat));
    EXPECT_TRUE(SameDouble(ea.lon, eb.lon));
  }
}

class VectorCollector : public Collector {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

std::map<std::string, int> Multiset(const std::vector<Tuple>& tuples) {
  std::map<std::string, int> ms;
  for (const Tuple& t : tuples) {
    ++ms[MatchKey(t) + "#" + std::to_string(t.key())];
  }
  return ms;
}

// RunColumnar's mask must equal per-tuple Run's verdict for every fused
// program over every input pattern, all six comparators and the IEEE
// specials included — the differential property gating the whole SoA path.
TEST(ColumnarTest, RunColumnarMatchesPerTupleRun) {
  std::mt19937_64 rng(0xc01c0001);
  for (int iter = 0; iter < 300; ++iter) {
    const int arity = 1 + static_cast<int>(rng() % 4);
    const Predicate pred = RandomPredicate(rng, arity);
    const ExprProgram program =
        ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional);
    ASSERT_TRUE(program.ok()) << pred.ToString();

    const size_t n = rng() % 70;
    std::vector<Tuple> tuples;
    ColumnarBatch batch(static_cast<size_t>(arity));
    batch.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tuples.push_back(RandomTuple(rng, arity, /*non_finite=*/true));
      batch.AppendTuple(tuples.back());
    }

    program.RunColumnar(batch.View());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch.mask()[i] != 0, program.Run(&tuples[i]))
          << "row " << i << "\n" << pred.ToString() << "\n"
          << program.ToString();
    }
  }
}

// Key-assigning programs must write the same keys column-wise that Run
// writes tuple-wise, and constant keys stay exact int64.
TEST(ColumnarTest, ColumnarKeyStoresMatchRowMajor) {
  std::mt19937_64 rng(0xc01c0002);
  static const Attribute kKeyAttrs[] = {Attribute::kId, Attribute::kTs,
                                        Attribute::kAuxTs};
  for (int iter = 0; iter < 100; ++iter) {
    const Predicate pred = RandomPredicate(rng, 1);
    ExprProgram fused;
    int64_t const_key = 0;
    const bool constant = rng() % 4 == 0;
    if (constant) {
      const_key = static_cast<int64_t>(rng()) | (int64_t{1} << 62);
      fused = ExprProgram::Fuse(
          ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast),
          ExprProgram::KeyByConstant(const_key));
    } else {
      fused = ExprProgram::Fuse(
          ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast),
          ExprProgram::KeyByAttribute(0, kKeyAttrs[rng() % 3]));
    }
    ASSERT_TRUE(fused.ok());
    ASSERT_TRUE(fused.assigns_key());

    const size_t n = 1 + rng() % 50;
    std::vector<Tuple> tuples;
    ColumnarBatch batch(1);
    for (size_t i = 0; i < n; ++i) {
      // Measurements may be non-finite; key attributes are integral.
      tuples.push_back(RandomTuple(rng, 1, /*non_finite=*/true));
      batch.AppendTuple(tuples.back());
    }
    fused.RunColumnar(batch.View());
    for (size_t i = 0; i < n; ++i) {
      Tuple row = tuples[i];
      const bool pass = fused.Run(&row);
      ASSERT_EQ(batch.mask()[i] != 0, pass);
      if (pass) {
        EXPECT_EQ(batch.keys()[i], row.key());
        if (constant) {
          EXPECT_EQ(batch.keys()[i], const_key);
        }
      }
    }
  }
}

// Gather -> scatter must reproduce every row bit-for-bit (types, ids,
// timestamps, keys, event times, and non-finite measurements included).
TEST(ColumnarTest, GatherScatterRoundTripIsExact) {
  std::mt19937_64 rng(0xc01c0003);
  for (int arity = 1; arity <= 3; ++arity) {
    ColumnarBatch batch(static_cast<size_t>(arity));
    std::vector<Tuple> tuples;
    for (int i = 0; i < 40; ++i) {
      tuples.push_back(RandomTuple(rng, arity, /*non_finite=*/true));
      batch.AppendTuple(tuples.back());
    }
    ASSERT_EQ(batch.rows(), tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      ExpectSameTuple(batch.RowTuple(i), tuples[i]);
    }
  }
}

// Compact drops unselected rows in place, keeps survivor order, and
// re-selects the survivors.
TEST(ColumnarTest, CompactKeepsSurvivorsInOrder) {
  std::mt19937_64 rng(0xc01c0004);
  ColumnarBatch batch(1);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 64; ++i) {
    tuples.push_back(RandomTuple(rng, 1, /*non_finite=*/false));
    batch.AppendTuple(tuples.back());
  }
  std::vector<size_t> keep;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (rng() % 3 != 0) {
      keep.push_back(i);
    } else {
      batch.mask()[i] = 0;
    }
  }
  ASSERT_EQ(batch.Compact(), keep.size());
  ASSERT_EQ(batch.rows(), keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(batch.mask()[i], 1);
    ExpectSameTuple(batch.RowTuple(i), tuples[keep[i]]);
  }
  // Reset keeps capacity but drops rows.
  batch.Reset(2);
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_EQ(batch.num_slots(), 2u);
}

// The compiled operator's columnar path must emit the same multiset as
// per-tuple Process over the same rows.
TEST(ColumnarTest, ProcessColumnarMatchesPerTupleProcess) {
  std::mt19937_64 rng(0xc01c0005);
  static const Attribute kKeyAttrs[] = {Attribute::kId, Attribute::kTs,
                                        Attribute::kAuxTs};
  for (int iter = 0; iter < 100; ++iter) {
    const Predicate pred = RandomPredicate(rng, 1);
    ExprProgram fused = ExprProgram::Fuse(
        ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast),
        ExprProgram::KeyByAttribute(0, kKeyAttrs[rng() % 3]));
    ASSERT_TRUE(fused.ok());
    CompiledStatelessOperator compiled(std::move(fused), "filter+key");
    ASSERT_TRUE(compiled.Traits().columnar_capable);

    const size_t n = rng() % 65;
    std::vector<Tuple> inputs;
    auto block = std::make_unique<ColumnarBatch>(1);
    for (size_t i = 0; i < n; ++i) {
      inputs.push_back(RandomTuple(rng, 1, /*non_finite=*/true));
      block->AppendTuple(inputs.back());
    }

    VectorCollector row_out;
    for (const Tuple& input : inputs) {
      ASSERT_TRUE(compiled.Process(0, input, &row_out).ok());
    }
    VectorCollector col_out;
    ASSERT_TRUE(compiled.ProcessColumnar(0, std::move(block), &col_out).ok());
    EXPECT_EQ(Multiset(col_out.tuples), Multiset(row_out.tuples))
        << pred.ToString();
  }
}

/// pairs_evaluated() of either join kind.
int64_t PairsEvaluated(const Operator& op) {
  const auto* sliding = dynamic_cast<const SlidingWindowJoinOperator*>(&op);
  if (sliding != nullptr) return sliding->pairs_evaluated();
  return dynamic_cast<const IntervalJoinOperator&>(op).pairs_evaluated();
}

// Each join's columnar ingest must be observationally identical to
// per-tuple Process: same emission sequence, same pairs_evaluated, same
// state-byte accounting — across random window specs and interval bounds,
// conditions, timestamp modes, dedup settings, key runs, deselected rows,
// block boundaries, and interleaved watermarks. Odd iterations run the
// interval join.
TEST(ColumnarTest, JoinProcessColumnarMatchesRowMajorIngest) {
  std::mt19937_64 rng(0xc01c0008);
  for (int iter = 0; iter < 80; ++iter) {
    const bool interval = iter % 2 == 1;
    const int l_arity = 1 + static_cast<int>(rng() % 2);
    const int r_arity = 1 + static_cast<int>(rng() % 2);
    const Timestamp slide = 5 * (1 + static_cast<Timestamp>(rng() % 4));
    const SlidingWindowSpec spec{slide * (1 + static_cast<Timestamp>(rng() % 5)),
                                 slide};
    IntervalBounds bounds;
    bounds.lower = static_cast<Timestamp>(rng() % 41) - 20;
    bounds.upper = bounds.lower + static_cast<Timestamp>(rng() % 40);
    const Predicate cond = RandomPredicate(rng, l_arity + r_arity);
    const TimestampMode mode =
        rng() % 2 ? TimestampMode::kMax : TimestampMode::kMin;
    const bool dedup = rng() % 2 == 0;
    std::unique_ptr<Operator> row_op;
    std::unique_ptr<Operator> col_op;
    if (interval) {
      row_op =
          std::make_unique<IntervalJoinOperator>(bounds, cond, mode, "row");
      col_op =
          std::make_unique<IntervalJoinOperator>(bounds, cond, mode, "col");
    } else {
      row_op = std::make_unique<SlidingWindowJoinOperator>(spec, cond, mode,
                                                           "row", dedup);
      col_op = std::make_unique<SlidingWindowJoinOperator>(spec, cond, mode,
                                                           "col", dedup);
    }
    ASSERT_TRUE(col_op->Traits().columnar_capable);
    ASSERT_TRUE(row_op->Open().ok());
    ASSERT_TRUE(col_op->Open().ok());
    VectorCollector row_out;
    VectorCollector col_out;

    Timestamp max_ts = 0;
    const int steps = 1 + static_cast<int>(rng() % 8);
    for (int st = 0; st < steps; ++st) {
      const int input = static_cast<int>(rng() % 2);
      const int arity = input == 0 ? l_arity : r_arity;
      const size_t rows = rng() % 30;
      auto block = std::make_unique<ColumnarBatch>(static_cast<size_t>(arity));
      std::vector<Tuple> batch_tuples;
      for (size_t i = 0; i < rows; ++i) {
        Tuple t = RandomTuple(rng, arity, /*non_finite=*/true);
        // Few keys so runs form and both sides meet; occasionally a key
        // beyond the double-exact range.
        t.set_key(static_cast<int64_t>(rng() % 4));
        if (rng() % 16 == 0) t.set_key((int64_t{1} << 53) + 3);
        t.set_event_time(static_cast<Timestamp>(rng() % 200));
        max_ts = std::max(max_ts, t.event_time());
        block->AppendTuple(t);
        // A deselected row (a filter's mask) must not reach the join.
        if (rng() % 6 == 0) {
          block->mask()[i] = 0;
        } else {
          batch_tuples.push_back(t);
        }
      }
      for (Tuple& t : batch_tuples) {
        ASSERT_TRUE(row_op->Process(input, t, &row_out).ok());
      }
      ASSERT_TRUE(
          col_op->ProcessColumnar(input, std::move(block), &col_out).ok());
      EXPECT_EQ(col_op->StateBytes(), row_op->StateBytes());
      if (rng() % 3 == 0) {
        const Timestamp wm = static_cast<Timestamp>(rng() % 220);
        ASSERT_TRUE(row_op->OnWatermark(wm, &row_out).ok());
        ASSERT_TRUE(col_op->OnWatermark(wm, &col_out).ok());
      }
    }
    const Timestamp final_wm =
        interval ? kMaxTimestamp : max_ts + spec.size + spec.slide + 1;
    ASSERT_TRUE(row_op->OnWatermark(final_wm, &row_out).ok());
    ASSERT_TRUE(col_op->OnWatermark(final_wm, &col_out).ok());

    EXPECT_EQ(PairsEvaluated(*col_op), PairsEvaluated(*row_op));
    EXPECT_EQ(col_op->StateBytes(), row_op->StateBytes());
    ASSERT_EQ(col_out.tuples.size(), row_out.tuples.size())
        << "iter " << iter << " " << cond.ToString();
    for (size_t i = 0; i < row_out.tuples.size(); ++i) {
      ExpectSameTuple(col_out.tuples[i], row_out.tuples[i]);
    }
  }
}

}  // namespace
}  // namespace cep2asp
