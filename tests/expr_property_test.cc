// Randomized equivalence tests: the compiled ExprProgram bytecode must be
// observationally identical to the interpreted Predicate evaluation it
// replaces — same verdict for every predicate over every input, including
// NaN / ±inf attribute values and constants (comparisons share EvalCmp, so
// IEEE semantics carry over), and multiset-equal operator outputs when a
// fused filter→key program runs a whole column block against the
// interpreted FilterOperator + MapOperator pair.

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "asp/compiled_stateless.h"
#include "asp/stateless.h"
#include "event/expr_program.h"
#include "event/expr_verifier.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Measurement values and comparison constants: clustered so random
/// comparisons land on both sides (and exactly on) the thresholds, plus
/// the IEEE specials when the caller allows them.
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
  e.type = 1;
  e.id = static_cast<int64_t>(rng() % 8);
  e.ts = static_cast<Timestamp>(rng() % 10000);
  e.aux_ts = static_cast<Timestamp>(rng() % 10000);
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

/// Random conjunction over `arity` variables: 0..5 terms (0 = True), each
/// attr/attr (with occasional rhs offset) or attr/const (constants may be
/// NaN / ±inf).
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

class VectorCollector : public Collector {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

/// Multiset fingerprint over (constituent events, partition key).
std::map<std::string, int> Multiset(const std::vector<Tuple>& tuples) {
  std::map<std::string, int> ms;
  for (const Tuple& t : tuples) {
    ++ms[MatchKey(t) + "#" + std::to_string(t.key())];
  }
  return ms;
}

TEST(ExprPropertyTest, PositionalProgramsMatchInterpreter) {
  std::mt19937_64 rng(0x5ea0001);
  for (int iter = 0; iter < 300; ++iter) {
    const int arity = 1 + static_cast<int>(rng() % 4);
    const Predicate pred = RandomPredicate(rng, arity);
    const ExprProgram program =
        ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional);
    ASSERT_TRUE(program.ok()) << pred.ToString();
    for (int sample = 0; sample < 40; ++sample) {
      std::vector<SimpleEvent> events;
      for (int i = 0; i < arity; ++i) {
        events.push_back(RandomEvent(rng, /*non_finite=*/true));
      }
      const bool interpreted =
          pred.EvalOnEvents(events.data(), events.size());
      EXPECT_EQ(program.EvalOnEvents(events.data(), events.size()),
                interpreted)
          << pred.ToString() << "\n" << program.ToString();
    }
  }
}

TEST(ExprPropertyTest, BroadcastProgramsMatchInterpreter) {
  std::mt19937_64 rng(0x5ea0002);
  for (int iter = 0; iter < 300; ++iter) {
    // Broadcast mode binds every variable reference to event 0, exactly
    // like Predicate::EvalOnEvent — so variable indices are free.
    const Predicate pred = RandomPredicate(rng, 4);
    const ExprProgram program =
        ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast);
    ASSERT_TRUE(program.ok()) << pred.ToString();
    for (int sample = 0; sample < 40; ++sample) {
      const SimpleEvent event = RandomEvent(rng, /*non_finite=*/true);
      const bool interpreted = pred.EvalOnEvent(event);
      EXPECT_EQ(program.EvalOnEvents(&event, 1), interpreted)
          << pred.ToString() << "\n" << program.ToString();

      // Run on a tuple agrees and, with no key stores, leaves the key.
      Tuple tuple((event));
      const int64_t key_before = tuple.key();
      EXPECT_EQ(program.Run(&tuple), interpreted) << pred.ToString();
      EXPECT_EQ(tuple.key(), key_before);
    }
  }
}

TEST(ExprPropertyTest, FusedFilterKeyBatchesMatchInterpretedOperators) {
  std::mt19937_64 rng(0x5ea0003);
  static const Attribute kKeyAttrs[] = {Attribute::kId, Attribute::kTs,
                                        Attribute::kAuxTs};
  for (int iter = 0; iter < 100; ++iter) {
    const Predicate pred = RandomPredicate(rng, 4);
    const Attribute key_attr = kKeyAttrs[rng() % 3];
    ExprProgram fused = ExprProgram::Fuse(
        ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast),
        ExprProgram::KeyByAttribute(0, key_attr));
    ASSERT_TRUE(fused.ok()) << pred.ToString();
    ASSERT_TRUE(fused.assigns_key());
    CompiledStatelessOperator compiled(std::move(fused), "filter+key");

    auto filter = FilterOperator::FromPredicate(pred);
    auto keymap = MapOperator::KeyByAttribute(0, key_attr);

    // Key attributes stay integral (ids, timestamps); the measurement
    // attributes the filter looks at may still be NaN / ±inf.
    auto block = std::make_unique<ColumnarBatch>(1);
    const size_t n = rng() % 65;
    std::vector<Tuple> inputs;
    for (size_t i = 0; i < n; ++i) {
      inputs.emplace_back(RandomEvent(rng, /*non_finite=*/true));
      block->AppendTuple(inputs.back());
    }

    // Filtered column-wise, then scattered back to rows by the
    // collector's default EmitColumnar.
    VectorCollector compiled_out;
    ASSERT_TRUE(
        compiled.ProcessColumnar(0, std::move(block), &compiled_out).ok());

    VectorCollector interpreted_out;
    for (const Tuple& tuple : inputs) {
      VectorCollector filtered;
      ASSERT_TRUE(filter->Process(0, tuple, &filtered).ok());
      for (Tuple& survivor : filtered.tuples) {
        ASSERT_TRUE(
            keymap->Process(0, std::move(survivor), &interpreted_out).ok());
      }
    }

    EXPECT_EQ(Multiset(compiled_out.tuples), Multiset(interpreted_out.tuples))
        << pred.ToString();
  }
}

TEST(ExprPropertyTest, FusedConstantKeyIsExactInt64) {
  std::mt19937_64 rng(0x5ea0004);
  // Keys beyond 2^53 do not round-trip through a double; the compiled
  // program must keep them exact via the int64 key pool, matching
  // MapOperator::AssignConstantKey.
  const int64_t keys[] = {0, -1, 42, (int64_t{1} << 62) + 1,
                          std::numeric_limits<int64_t>::min()};
  for (int64_t key : keys) {
    const Predicate pred = RandomPredicate(rng, 2);
    ExprProgram fused = ExprProgram::Fuse(
        ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast),
        ExprProgram::KeyByConstant(key));
    ASSERT_TRUE(fused.ok());
    CompiledStatelessOperator compiled(std::move(fused), "filter+key");
    auto filter = FilterOperator::FromPredicate(pred);
    auto keymap = MapOperator::AssignConstantKey(key);

    for (int sample = 0; sample < 50; ++sample) {
      const Tuple input((RandomEvent(rng, /*non_finite=*/true)));
      VectorCollector compiled_out;
      ASSERT_TRUE(compiled.Process(0, input, &compiled_out).ok());
      VectorCollector interpreted_out;
      VectorCollector filtered;
      ASSERT_TRUE(filter->Process(0, input, &filtered).ok());
      for (Tuple& survivor : filtered.tuples) {
        ASSERT_TRUE(
            keymap->Process(0, std::move(survivor), &interpreted_out).ok());
      }
      ASSERT_EQ(compiled_out.tuples.size(), interpreted_out.tuples.size());
      for (size_t i = 0; i < compiled_out.tuples.size(); ++i) {
        EXPECT_EQ(compiled_out.tuples[i].key(), key);
        EXPECT_EQ(interpreted_out.tuples[i].key(), key);
      }
    }
  }
}

TEST(ExprPropertyTest, ThreeHundredDistinctConstantsCompileAndMatch) {
  // Pool indices are 32-bit, so a filter with more distinct constants than
  // an 8-bit operand could address still compiles and agrees with the
  // interpreter. Every term is a loose bound with its own constant; the
  // random events' -1e300 and IEEE specials make some tuples fail.
  std::mt19937_64 rng(0x5ea0003);
  Predicate pred;
  for (int i = 0; i < 300; ++i) {
    const AttrRef lhs{0, RandomAttr(rng)};
    if (i % 2 == 0) {
      pred.Add(Comparison::AttrConst(lhs, CmpOp::kGe, -1e12 - i));
    } else {
      pred.Add(Comparison::AttrConst(lhs, CmpOp::kLe, 1e12 + i));
    }
  }
  const ExprProgram program =
      ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program.const_pool().size(), 300u);
  EXPECT_TRUE(ExprVerifier::Verify(program, 1).ok());

  int passed = 0;
  for (int sample = 0; sample < 400; ++sample) {
    const SimpleEvent event = RandomEvent(rng, /*non_finite=*/true);
    const bool interpreted = pred.EvalOnEvent(event);
    passed += interpreted ? 1 : 0;
    EXPECT_EQ(program.EvalOnEvents(&event, 1), interpreted);
    Tuple tuple((event));
    EXPECT_EQ(program.Run(&tuple), interpreted);
  }
  EXPECT_GT(passed, 0);
  EXPECT_LT(passed, 400);
}

TEST(ExprPropertyTest, PositionalVariableAbove255IsNotOk) {
  // The var operand stays 8-bit: a positional variable index above 255
  // cannot be encoded, so compilation reports !ok(). Broadcast mode reads
  // event 0 for every variable and compiles the same predicate.
  Predicate pred;
  pred.Add(Comparison::AttrConst({300, Attribute::kValue}, CmpOp::kLt, 1.0));
  EXPECT_FALSE(
      ExprProgram::Filter(pred, ExprProgram::VarMode::kPositional).ok());
  EXPECT_TRUE(ExprProgram::Filter(pred, ExprProgram::VarMode::kBroadcast).ok());
}

}  // namespace
}  // namespace cep2asp
