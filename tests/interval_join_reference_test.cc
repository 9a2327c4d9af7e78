// Differential test of IntervalJoinOperator against the implementation it
// replaced. The reference below keeps every (key, side) as a vector of
// tuples in arrival order, stable-sorts it on a watermark after an
// out-of-order arrival, erases completed lefts and unreachable rights from
// the front, and for each complete left tests every right of the
// conservative closed range with IntervalBounds::Contains before building
// the concatenated tuple and evaluating the whole condition on it. The
// operator under test keeps the shared row-major keyed window store
// (sorted on insert, head-index eviction) and takes each left's partners
// as one range of the right times. Random scripts drive both with the same
// rows and watermarks; every watermark must emit the same tuples in the
// same order per key, and the state accounting must agree after every
// step.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "asp/interval_join.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {
namespace {

class ReferenceIntervalJoin {
 public:
  ReferenceIntervalJoin(IntervalBounds bounds, Predicate condition,
                        TimestampMode ts_mode)
      : bounds_(bounds), condition_(std::move(condition)), ts_mode_(ts_mode) {}

  void Process(int input, Tuple tuple) {
    KeyState& key_state = keys_[tuple.key()];
    state_bytes_ += tuple.MemoryBytes();
    std::vector<Tuple>& buffer = input == 0 ? key_state.left : key_state.right;
    bool& sorted = input == 0 ? key_state.left_sorted : key_state.right_sorted;
    if (!buffer.empty() && tuple.event_time() < buffer.back().event_time()) {
      sorted = false;
    }
    buffer.push_back(std::move(tuple));
  }

  std::vector<Tuple> OnWatermark(Timestamp watermark) {
    std::vector<Tuple> out;
    for (auto it = keys_.begin(); it != keys_.end();) {
      KeyState& key_state = it->second;
      if (!key_state.left_sorted) {
        std::stable_sort(key_state.left.begin(), key_state.left.end(),
                         [](const Tuple& a, const Tuple& b) {
                           return a.event_time() < b.event_time();
                         });
        key_state.left_sorted = true;
      }
      if (!key_state.right_sorted) {
        std::stable_sort(key_state.right.begin(), key_state.right.end(),
                         [](const Tuple& a, const Tuple& b) {
                           return a.event_time() < b.event_time();
                         });
        key_state.right_sorted = true;
      }

      size_t completed = 0;
      for (const Tuple& left : key_state.left) {
        Timestamp ts = left.event_time();
        bool complete =
            watermark == kMaxTimestamp || ts < watermark - bounds_.upper;
        if (!complete) break;
        ++windows_created_;
        auto lo = std::lower_bound(
            key_state.right.begin(), key_state.right.end(), ts + bounds_.lower,
            [](const Tuple& t, Timestamp x) { return t.event_time() < x; });
        for (auto r = lo; r != key_state.right.end(); ++r) {
          if (r->event_time() > ts + bounds_.upper) break;
          if (!bounds_.Contains(ts, r->event_time())) continue;
          ++pairs_evaluated_;
          Tuple joined = Tuple::Concat(left, *r);
          if (!condition_.IsTrue() && !condition_.EvalOnTuple(joined)) continue;
          joined.set_event_time(ts_mode_ == TimestampMode::kMax ? joined.tse()
                                                                : joined.tsb());
          out.push_back(std::move(joined));
        }
        ++completed;
      }
      for (size_t i = 0; i < completed; ++i) {
        state_bytes_ -= key_state.left[i].MemoryBytes();
      }
      key_state.left.erase(
          key_state.left.begin(),
          key_state.left.begin() + static_cast<long>(completed));

      if (watermark != kMaxTimestamp && watermark != kMinTimestamp) {
        Timestamp keep_above = watermark - bounds_.upper + bounds_.lower;
        auto keep_from = std::lower_bound(
            key_state.right.begin(), key_state.right.end(), keep_above,
            [](const Tuple& t, Timestamp x) { return t.event_time() <= x; });
        for (auto e = key_state.right.begin(); e != keep_from; ++e) {
          state_bytes_ -= e->MemoryBytes();
        }
        key_state.right.erase(key_state.right.begin(), keep_from);
      } else if (watermark == kMaxTimestamp) {
        for (const Tuple& t : key_state.right) state_bytes_ -= t.MemoryBytes();
        key_state.right.clear();
      }

      if (key_state.left.empty() && key_state.right.empty()) {
        it = keys_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  size_t StateBytes() const { return state_bytes_; }
  int64_t pairs_evaluated() const { return pairs_evaluated_; }
  int64_t windows_created() const { return windows_created_; }

 private:
  struct KeyState {
    std::vector<Tuple> left;
    std::vector<Tuple> right;
    bool left_sorted = true;
    bool right_sorted = true;
  };

  IntervalBounds bounds_;
  Predicate condition_;
  TimestampMode ts_mode_;
  std::unordered_map<int64_t, KeyState> keys_;
  size_t state_bytes_ = 0;
  int64_t pairs_evaluated_ = 0;
  int64_t windows_created_ = 0;
};

class VectorCollector : public Collector {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

/// Every field of a tuple, for comparing emissions.
auto Fields(const SimpleEvent& e) {
  return std::tie(e.type, e.id, e.ts, e.create_ts, e.aux_ts, e.value, e.lat,
                  e.lon);
}

bool SameTuple(const Tuple& a, const Tuple& b) {
  if (a.key() != b.key() || a.event_time() != b.event_time() ||
      a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (Fields(a.event(i)) != Fields(b.event(i))) return false;
  }
  return true;
}

/// Emissions grouped by key, each key's tuples in emission order.
std::map<int64_t, std::vector<Tuple>> ByKey(const std::vector<Tuple>& tuples) {
  std::map<int64_t, std::vector<Tuple>> out;
  for (const Tuple& t : tuples) out[t.key()].push_back(t);
  return out;
}

/// True when both lists emit the same tuples in the same order per key,
/// which implies the same multiset.
bool SamePerKeySequences(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  const auto ka = ByKey(a);
  const auto kb = ByKey(b);
  if (ka.size() != kb.size()) return false;
  for (auto ia = ka.begin(), ib = kb.begin(); ia != ka.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.size() != ib->second.size()) {
      return false;
    }
    for (size_t i = 0; i < ia->second.size(); ++i) {
      if (!SameTuple(ia->second[i], ib->second[i])) return false;
    }
  }
  return true;
}

struct Script {
  IntervalBounds bounds;
  Predicate condition;
  TimestampMode ts_mode = TimestampMode::kMax;
  size_t arity[2] = {1, 1};
};

Attribute RandomAttr(std::mt19937_64& rng) {
  static const Attribute kAttrs[] = {Attribute::kValue, Attribute::kTs,
                                     Attribute::kAuxTs, Attribute::kId};
  return kAttrs[rng() % 4];
}

IntervalBounds RandomBounds(std::mt19937_64& rng) {
  const Timestamp w = 1 + static_cast<Timestamp>(rng() % 40);
  switch (rng() % 4) {
    case 0:
      return IntervalBounds::ForSequence(w);
    case 1:
      return IntervalBounds::ForConjunction(w);
    default: {
      IntervalBounds bounds;
      bounds.lower = static_cast<Timestamp>(rng() % 61) - 30;
      // One in four scripts has an empty-width window, lower == upper.
      const Timestamp width = static_cast<Timestamp>(rng() % 40);
      bounds.upper = bounds.lower + (rng() % 4 == 0 ? 0 : width);
      return bounds;
    }
  }
}

Script RandomScript(std::mt19937_64& rng) {
  Script script;
  script.bounds = RandomBounds(rng);
  script.ts_mode = rng() % 2 ? TimestampMode::kMax : TimestampMode::kMin;
  script.arity[0] = 1 + rng() % 2;
  script.arity[1] = 1 + rng() % 2;
  const int vars = static_cast<int>(script.arity[0] + script.arity[1]);
  // Positional residual terms: attribute-vs-constant and cross-variable
  // comparisons, including ts order terms and window-style offsets.
  const int residual = static_cast<int>(rng() % 4);
  for (int t = 0; t < residual; ++t) {
    const CmpOp op = static_cast<CmpOp>(rng() % 6);
    const int lhs = static_cast<int>(rng() % static_cast<uint64_t>(vars));
    if (rng() % 3 == 0) {
      script.condition.Add(Comparison::AttrConst(
          {lhs, Attribute::kValue}, op, static_cast<double>(rng() % 100)));
    } else {
      const int rhs = static_cast<int>(rng() % static_cast<uint64_t>(vars));
      const double offset =
          rng() % 3 == 0 ? static_cast<double>(rng() % 30) - 15 : 0.0;
      script.condition.Add(Comparison::AttrAttr(
          {lhs, RandomAttr(rng)}, op, {rhs, RandomAttr(rng)}, offset));
    }
  }
  return script;
}

/// One row for `input` with event time `ts`: events near `ts`, the first
/// at exactly `ts` half the time.
Tuple RandomRow(std::mt19937_64& rng, const Script& script, int input,
                Timestamp ts) {
  Tuple row;
  for (size_t s = 0; s < script.arity[input]; ++s) {
    SimpleEvent e;
    e.type = static_cast<EventTypeId>(1 + input);
    e.id = static_cast<int64_t>(rng() % 5);
    e.ts = s == 0 && rng() % 2 == 0 ? ts
                                    : ts - static_cast<Timestamp>(rng() % 20);
    e.aux_ts = ts + static_cast<Timestamp>(rng() % 20) - 10;
    e.create_ts = static_cast<Timestamp>(rng() % 1000);
    e.value = static_cast<double>(rng() % 100);
    e.lat = static_cast<double>(rng() % 7);
    row.AppendEvent(e);
  }
  row.set_event_time(ts);
  row.set_key(static_cast<int64_t>(rng() % 4));
  return row;
}

TEST(IntervalJoinReferenceTest, MatchesReferenceImplementation) {
  std::mt19937_64 rng(0x1e7a1022);
  constexpr int kScripts = 2000;
  int64_t total_emissions = 0;
  int64_t total_windows = 0;
  for (int iter = 0; iter < kScripts; ++iter) {
    const Script script = RandomScript(rng);
    IntervalJoinOperator op(script.bounds, script.condition, script.ts_mode,
                            "join");
    ReferenceIntervalJoin reference(script.bounds, script.condition,
                                    script.ts_mode);
    ASSERT_TRUE(op.Open().ok());
    const std::string context =
        "script " + std::to_string(iter) + ": " + script.condition.ToString() +
        " bounds=(" + std::to_string(script.bounds.lower) + "," +
        std::to_string(script.bounds.upper) + ")" +
        " arity=" + std::to_string(script.arity[0]) + "+" +
        std::to_string(script.arity[1]);

    Timestamp clock = 100;
    Timestamp watermark = 0;
    const int steps = 5 + static_cast<int>(rng() % 30);
    for (int step = 0; step <= steps; ++step) {
      const bool last = step == steps;
      if (!last && rng() % 3 != 0) {
        // A run of rows for one input, out of order around the clock with
        // frequent equal times, and some rows below the watermark.
        const int input = static_cast<int>(rng() % 2);
        const size_t rows = 1 + rng() % 12;
        auto block = std::make_unique<ColumnarBatch>(script.arity[input]);
        std::vector<Tuple> tuples;
        for (size_t i = 0; i < rows; ++i) {
          Timestamp ts = clock + static_cast<Timestamp>(rng() % 12) - 8;
          if (rng() % 8 == 0) {
            ts = watermark - static_cast<Timestamp>(rng() % 30);
          }
          tuples.push_back(RandomRow(rng, script, input, ts));
          block->AppendTuple(tuples.back());
          reference.Process(input, tuples.back());
        }
        VectorCollector ingest_out;
        if (rng() % 2 == 0) {
          ASSERT_TRUE(
              op.ProcessColumnar(input, std::move(block), &ingest_out).ok());
        } else {
          for (Tuple& t : tuples) {
            ASSERT_TRUE(op.Process(input, std::move(t), &ingest_out).ok());
          }
        }
        EXPECT_TRUE(ingest_out.tuples.empty()) << context;
        clock += static_cast<Timestamp>(rng() % 8);
      } else {
        watermark = last ? kMaxTimestamp
                         : watermark + static_cast<Timestamp>(rng() % 30);
        VectorCollector out;
        ASSERT_TRUE(op.OnWatermark(watermark, &out).ok());
        const std::vector<Tuple> expected = reference.OnWatermark(watermark);
        ASSERT_TRUE(SamePerKeySequences(out.tuples, expected))
            << context << " watermark=" << watermark << ": "
            << out.tuples.size() << " vs " << expected.size() << " emissions";
        total_emissions += static_cast<int64_t>(expected.size());
      }
      ASSERT_EQ(op.StateBytes(), reference.StateBytes())
          << context << " step " << step;
    }
    EXPECT_EQ(op.StateBytes(), 0u) << context;
    EXPECT_EQ(op.pairs_evaluated(), reference.pairs_evaluated()) << context;
    EXPECT_EQ(op.windows_created(), reference.windows_created()) << context;
    total_windows += reference.windows_created();
  }
  // The scripts must exercise matches, not vacuous joins.
  EXPECT_GT(total_emissions, kScripts);
  EXPECT_GT(total_windows, kScripts);
}

}  // namespace
}  // namespace cep2asp
