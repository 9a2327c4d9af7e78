// Differential test of SlidingWindowJoinOperator against the enumeration
// it replaced. The reference below keeps every (key, side) as a list of
// rows in arrival order, sorts it stably by event time at fire, evaluates
// the whole condition on every (l, r) pair of every fired window, and lets
// a dedup join drop the pairs whose first common window is not the fired
// one. The operator under test keeps sorted row-major stores, enumerates a
// dedup pair only in its first common window, and turns the SEQ order term
// into a range bound. Random scripts drive both with the same rows and
// watermarks; every watermark must emit the same multiset and the state
// accounting must agree after every step.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/sliding_window_join.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {
namespace {

class ReferenceJoin {
 public:
  ReferenceJoin(SlidingWindowSpec window, Predicate condition,
                TimestampMode ts_mode, bool dedup_pairs)
      : window_(window),
        condition_(std::move(condition)),
        ts_mode_(ts_mode),
        dedup_pairs_(dedup_pairs) {}

  void Process(int input, const Tuple& tuple) {
    keys_[tuple.key()].sides[input].push_back(tuple);
    state_bytes_ += tuple.MemoryBytes();
  }

  std::vector<Tuple> OnWatermark(Timestamp watermark) {
    std::vector<Tuple> out;
    while (true) {
      const Timestamp min_ts = MinBufferedTs();
      if (min_ts == kMaxTimestamp) break;
      const int64_t skip_to = std::min(window_.FirstWindow(min_ts),
                                       window_.FirstWindow(watermark));
      next_window_ = have_cursor_ ? std::max(next_window_, skip_to) : skip_to;
      have_cursor_ = true;
      if (!window_.CanFire(next_window_, watermark)) break;
      FireWindow(next_window_, &out);
      ++next_window_;
      if (++windows_since_evict_ >= 4) {
        windows_since_evict_ = 0;
        EvictBefore(window_.WindowStart(next_window_));
      }
    }
    return out;
  }

  size_t StateBytes() const { return state_bytes_; }
  int64_t pairs_evaluated() const { return pairs_evaluated_; }

 private:
  struct KeyState {
    std::vector<Tuple> sides[2];
  };

  Timestamp MinBufferedTs() const {
    Timestamp out = kMaxTimestamp;
    for (const auto& [key, state] : keys_) {
      for (const std::vector<Tuple>& side : state.sides) {
        for (const Tuple& t : side) out = std::min(out, t.event_time());
      }
    }
    return out;
  }

  void FireWindow(int64_t k, std::vector<Tuple>* out) {
    const Timestamp begin = window_.WindowStart(k);
    const Timestamp end = window_.WindowEnd(k);
    const auto in_window = [&](const Tuple& t) {
      return t.event_time() >= begin && t.event_time() < end;
    };
    for (auto& [key, state] : keys_) {
      for (std::vector<Tuple>& side : state.sides) {
        std::stable_sort(side.begin(), side.end(),
                         [](const Tuple& a, const Tuple& b) {
                           return a.event_time() < b.event_time();
                         });
      }
      for (const Tuple& l : state.sides[0]) {
        if (!in_window(l)) continue;
        for (const Tuple& r : state.sides[1]) {
          if (!in_window(r)) continue;
          ++pairs_evaluated_;
          if (dedup_pairs_ &&
              std::max(window_.FirstWindow(l.event_time()),
                       window_.FirstWindow(r.event_time())) != k) {
            continue;
          }
          Tuple joined = Tuple::Concat(l, r);
          if (!condition_.EvalOnTuple(joined)) continue;
          joined.set_key(key);
          joined.set_event_time(ts_mode_ == TimestampMode::kMax ? joined.tse()
                                                                : joined.tsb());
          out->push_back(std::move(joined));
        }
      }
    }
  }

  void EvictBefore(Timestamp min_keep_ts) {
    for (auto it = keys_.begin(); it != keys_.end();) {
      for (std::vector<Tuple>& side : it->second.sides) {
        for (const Tuple& t : side) {
          if (t.event_time() < min_keep_ts) state_bytes_ -= t.MemoryBytes();
        }
        side.erase(std::remove_if(side.begin(), side.end(),
                                  [&](const Tuple& t) {
                                    return t.event_time() < min_keep_ts;
                                  }),
                   side.end());
      }
      if (it->second.sides[0].empty() && it->second.sides[1].empty()) {
        it = keys_.erase(it);
      } else {
        ++it;
      }
    }
  }

  SlidingWindowSpec window_;
  Predicate condition_;
  TimestampMode ts_mode_;
  bool dedup_pairs_;
  std::map<int64_t, KeyState> keys_;
  int64_t next_window_ = 0;
  bool have_cursor_ = false;
  int windows_since_evict_ = 0;
  size_t state_bytes_ = 0;
  int64_t pairs_evaluated_ = 0;
};

class VectorCollector : public Collector {
 public:
  void Emit(Tuple tuple) override { tuples.push_back(std::move(tuple)); }
  std::vector<Tuple> tuples;
};

/// Every field of a tuple, for ordering and comparing emissions.
auto Fields(const SimpleEvent& e) {
  return std::tie(e.type, e.id, e.ts, e.create_ts, e.aux_ts, e.value, e.lat,
                  e.lon);
}

bool TupleLess(const Tuple& a, const Tuple& b) {
  if (a.key() != b.key()) return a.key() < b.key();
  if (a.event_time() != b.event_time()) return a.event_time() < b.event_time();
  if (a.size() != b.size()) return a.size() < b.size();
  for (size_t i = 0; i < a.size(); ++i) {
    if (Fields(a.event(i)) != Fields(b.event(i))) {
      return Fields(a.event(i)) < Fields(b.event(i));
    }
  }
  return false;
}

/// True when both emission lists hold the same multiset of tuples.
bool SameMultiset(std::vector<Tuple> a, std::vector<Tuple> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), TupleLess);
  std::sort(b.begin(), b.end(), TupleLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (TupleLess(a[i], b[i]) || TupleLess(b[i], a[i])) return false;
  }
  return true;
}

struct Script {
  SlidingWindowSpec window;
  Predicate condition;
  TimestampMode ts_mode = TimestampMode::kMax;
  bool dedup = false;
  int bound_slot = -1;
  size_t arity[2] = {1, 1};
};

Attribute RandomAttr(std::mt19937_64& rng) {
  static const Attribute kAttrs[] = {Attribute::kValue, Attribute::kTs,
                                     Attribute::kAuxTs, Attribute::kId};
  return kAttrs[rng() % 4];
}

Script RandomScript(std::mt19937_64& rng) {
  Script script;
  const Timestamp slide = 5 * (1 + static_cast<Timestamp>(rng() % 4));
  script.window = {slide * (1 + static_cast<Timestamp>(rng() % 5)), slide};
  script.ts_mode = rng() % 2 ? TimestampMode::kMax : TimestampMode::kMin;
  script.dedup = rng() % 2 == 0;
  script.arity[0] = 1 + rng() % 3;
  const bool bound = rng() % 2 == 0;
  script.arity[1] = bound ? 1 : 1 + rng() % 2;
  const int vars = static_cast<int>(script.arity[0] + script.arity[1]);
  const int right_var = static_cast<int>(script.arity[0]);
  if (bound) {
    script.bound_slot = static_cast<int>(rng() % script.arity[0]);
    script.condition.Add(
        Comparison::AttrAttr({script.bound_slot, Attribute::kTs}, CmpOp::kLt,
                             {right_var, Attribute::kTs}));
  } else if (rng() % 2 == 0) {
    // The same order term, enforced per pair.
    script.condition.Add(Comparison::AttrAttr(
        {static_cast<int>(rng() % script.arity[0]), Attribute::kTs},
        CmpOp::kLt, {right_var, Attribute::kTs}));
  }
  // Residual terms: attribute-vs-constant and cross-variable comparisons,
  // including further ts order terms and window-style offsets.
  const int residual = static_cast<int>(rng() % 3);
  for (int t = 0; t < residual; ++t) {
    const CmpOp op = static_cast<CmpOp>(rng() % 6);
    const int lhs = static_cast<int>(rng() % static_cast<uint64_t>(vars));
    if (rng() % 2 == 0) {
      script.condition.Add(Comparison::AttrConst(
          {lhs, Attribute::kValue}, op, static_cast<double>(rng() % 100)));
    } else {
      const int rhs = static_cast<int>(rng() % static_cast<uint64_t>(vars));
      const double offset =
          rng() % 3 == 0 ? static_cast<double>(rng() % 30) : 0.0;
      script.condition.Add(Comparison::AttrAttr(
          {lhs, RandomAttr(rng)}, op, {rhs, RandomAttr(rng)}, offset));
    }
  }
  return script;
}

/// One row for `input`: events around `ts`; with the bound in place a right
/// row is a single event whose ts is the row's event time.
Tuple RandomRow(std::mt19937_64& rng, const Script& script, int input,
                Timestamp ts) {
  Tuple row;
  for (size_t s = 0; s < script.arity[input]; ++s) {
    SimpleEvent e;
    e.type = static_cast<EventTypeId>(1 + input);
    e.id = static_cast<int64_t>(rng() % 5);
    e.ts = ts - static_cast<Timestamp>(rng() % 20);
    e.aux_ts = ts + static_cast<Timestamp>(rng() % 20) - 10;
    e.create_ts = static_cast<Timestamp>(rng() % 1000);
    e.value = static_cast<double>(rng() % 100);
    e.lat = static_cast<double>(rng() % 7);
    row.AppendEvent(e);
  }
  if (input == 1 && script.bound_slot >= 0) {
    row.mutable_event(0).ts = ts;
  }
  row.set_event_time(ts);
  row.set_key(static_cast<int64_t>(rng() % 4));
  return row;
}

TEST(SlidingJoinReferenceTest, MatchesReferenceEnumeration) {
  std::mt19937_64 rng(0x5eed0416);
  constexpr int kScripts = 2500;
  int64_t total_pairs = 0;
  int64_t total_reference_pairs = 0;
  int64_t total_emissions = 0;
  for (int iter = 0; iter < kScripts; ++iter) {
    const Script script = RandomScript(rng);
    SlidingWindowJoinOperator op(script.window, script.condition,
                                 script.ts_mode, "join", script.dedup,
                                 script.bound_slot);
    ReferenceJoin reference(script.window, script.condition, script.ts_mode,
                            script.dedup);
    ASSERT_TRUE(op.Open().ok());
    const std::string context =
        "script " + std::to_string(iter) + ": " + script.condition.ToString() +
        " dedup=" + std::to_string(script.dedup) +
        " bound=" + std::to_string(script.bound_slot) +
        " W=" + std::to_string(script.window.size) +
        " s=" + std::to_string(script.window.slide);

    Timestamp clock = 50;
    Timestamp watermark = 0;
    const int steps = 5 + static_cast<int>(rng() % 30);
    for (int step = 0; step <= steps; ++step) {
      const bool last = step == steps;
      if (!last && rng() % 3 != 0) {
        // A run of rows for one input, out of order around the clock, with
        // some rows below the watermark.
        const int input = static_cast<int>(rng() % 2);
        const size_t rows = 1 + rng() % 12;
        auto block = std::make_unique<ColumnarBatch>(script.arity[input]);
        std::vector<Tuple> tuples;
        for (size_t i = 0; i < rows; ++i) {
          Timestamp ts = clock + static_cast<Timestamp>(rng() % 25) - 15;
          if (rng() % 8 == 0) {
            ts = watermark - static_cast<Timestamp>(rng() % 30);
          }
          ts = std::max<Timestamp>(ts, 0);
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
        watermark = last ? clock + 2 * script.window.size + 50
                         : watermark + static_cast<Timestamp>(rng() % 30);
        VectorCollector out;
        ASSERT_TRUE(op.OnWatermark(watermark, &out).ok());
        const std::vector<Tuple> expected = reference.OnWatermark(watermark);
        ASSERT_TRUE(SameMultiset(out.tuples, expected))
            << context << " watermark=" << watermark << ": "
            << out.tuples.size() << " vs " << expected.size() << " emissions";
        total_emissions += static_cast<int64_t>(expected.size());
      }
      ASSERT_EQ(op.StateBytes(), reference.StateBytes()) << context;
    }
    EXPECT_LE(op.pairs_evaluated(), reference.pairs_evaluated()) << context;
    if (!script.dedup && script.bound_slot < 0) {
      // Same enumeration without the two prunings.
      EXPECT_EQ(op.pairs_evaluated(), reference.pairs_evaluated()) << context;
    }
    total_pairs += op.pairs_evaluated();
    total_reference_pairs += reference.pairs_evaluated();
  }
  // The scripts must exercise matches and the pruning, not vacuous joins.
  EXPECT_GT(total_emissions, kScripts);
  EXPECT_LT(total_pairs, total_reference_pairs);
}

}  // namespace
}  // namespace cep2asp
