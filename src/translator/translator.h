#ifndef CEP2ASP_TRANSLATOR_TRANSLATOR_H_
#define CEP2ASP_TRANSLATOR_TRANSLATOR_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "analysis/interval.h"
#include "cep/nfa.h"
#include "common/result.h"
#include "runtime/executor.h"
#include "runtime/job_graph.h"
#include "runtime/sink.h"
#include "sea/pattern.h"
#include "translator/logical_plan.h"

namespace cep2asp {

/// \brief Per-stream characteristics driving the automated application of
/// the optimization opportunities (paper §7 future work: "collecting
/// information on data and pattern characteristics such as frequency and
/// selectivity enables the automated application of the proposed
/// optimization opportunities").
struct StreamStatistics {
  /// Raw events per minute per event type.
  std::unordered_map<EventTypeId, double> rate_per_minute;
  /// Fraction of events surviving the pushed-down filter, per type.
  std::unordered_map<EventTypeId, double> filter_selectivity;
  /// Declared per-attribute value ranges per event type. When present,
  /// the translator consults the interval analysis on every leaf filter:
  /// provably always-true filters are dropped from the plan, provably
  /// always-false ones refuse translation (CEP2ASP-E318 — the whole plan
  /// is dead). Self-contradictory filters are caught even with no ranges
  /// declared (term-by-term refinement needs no priors).
  SourceRangeCatalog source_ranges;

  double EffectiveRate(EventTypeId type) const {
    double rate = 1.0;
    if (auto it = rate_per_minute.find(type); it != rate_per_minute.end()) {
      rate = it->second;
    }
    double sel = 1.0;
    if (auto it = filter_selectivity.find(type);
        it != filter_selectivity.end()) {
      sel = it->second;
    }
    return rate * sel;
  }
};

/// \brief Options selecting the optimization opportunities of Table 1.
struct TranslatorOptions {
  /// O1: windowing via Interval Joins instead of Sliding Window Joins.
  bool use_interval_join = false;
  /// O2: approximate iterations by window aggregations (or the UDF chain
  /// variant when the iteration constrains consecutive events).
  bool use_aggregation_for_iter = false;
  /// O3: partition by Equi-Join keys extracted from cross-variable
  /// equality predicates; falls back to a uniform key when the equality
  /// graph does not connect all variables.
  bool use_equi_join_keys = false;
  /// Statistics-driven choices: reorder AND children by effective rate
  /// and pick O1 per join when the left stream is the rarer one.
  bool auto_optimize = false;
  /// Append a duplicate-elimination stage (overlapping sliding windows
  /// produce duplicates; O1 plans never need this).
  bool deduplicate_output = false;
  /// Subtask instances for the parallelizable stages of the compiled job
  /// (paper §4.2.3: the Equi Join "is computed per key and
  /// parallelizable"). Takes effect only when O3 finds attribute keys —
  /// the keyed joins/aggregations then run with this parallelism behind
  /// hash-partitioned exchanges, and the key-assigning maps scale with
  /// them. 1 (default) compiles the historical sequential job.
  int parallelism = 1;
  /// Declared number of distinct partition-key values (0 = unknown);
  /// forwarded to the job graph as key-domain hint so the lint can flag
  /// parallelism the key space cannot utilize (W313).
  int64_t num_keys_hint = 0;
};

/// \brief The paper's operator mapping (§4): SEA patterns -> ASP query
/// plans.
///
/// Mapping per Table 1: AND -> Cartesian product (constant-key window
/// join), SEQ -> Theta Join on timestamp order, OR -> union,
/// ITER^m -> chain of m-1 self Theta Joins (or O2 aggregation),
/// NSEQ -> union + "ats" UDF + Theta Join with the negated-quantifier
/// selection. Nested patterns decompose into consecutive binary joins with
/// event-time redefinition (min timestamp for partial matches, max for the
/// complete match, §4.2.2).
class Translator {
 public:
  explicit Translator(TranslatorOptions options = {},
                      StreamStatistics statistics = {})
      : options_(options), statistics_(std::move(statistics)) {}

  /// Builds the logical query plan for `pattern`.
  Result<LogicalPlan> ToLogicalPlan(const Pattern& pattern) const;

  const TranslatorOptions& options() const { return options_; }

 private:
  TranslatorOptions options_;
  StreamStatistics statistics_;
};

/// Supplies a fresh Source for an event type; called once per logical
/// scan (self joins read the stream once per join side, like the paper's
/// FROM Stream T, Stream T).
using SourceFactory = std::function<std::unique_ptr<Source>(EventTypeId)>;

/// \brief A runnable translated query.
struct CompiledQuery {
  JobGraph graph;
  /// Result-collecting sink; owned by `graph`.
  CollectSink* sink = nullptr;
};

/// Compiles a logical plan into a physical JobGraph over the operators of
/// src/asp. Every translator filter and key map becomes a compiled
/// ExprProgram stage (a key map over a filter fuses into one), and
/// `plan.deduplicate_output` puts a dedup stage in front of the sink.
/// `store_matches` controls whether the sink retains tuples.
Result<CompiledQuery> CompilePlan(const LogicalPlan& plan,
                                  const SourceFactory& source_factory,
                                  bool store_matches = true,
                                  Clock* clock = nullptr);

/// Translate + compile in one step: ToLogicalPlan, then CompilePlan.
Result<CompiledQuery> TranslatePattern(const Pattern& pattern,
                                       const TranslatorOptions& options,
                                       const SourceFactory& source_factory,
                                       bool store_matches = true,
                                       Clock* clock = nullptr);

/// \brief Builds the baseline single-operator job (FCEP, §5.1.2): union of
/// all pattern input streams -> (optional key-by) -> unary CEP operator ->
/// sink. Returns Unimplemented for patterns FCEP cannot express (Table 2).
struct CepJobOptions {
  SelectionPolicy policy = SelectionPolicy::kSkipTillAnyMatch;
  /// Partition by the Equi-Join key when the pattern provides one.
  bool keyed = false;
  bool store_matches = true;
  Clock* clock = nullptr;
};

Result<CompiledQuery> BuildCepJob(const Pattern& pattern,
                                  const SourceFactory& source_factory,
                                  const CepJobOptions& options = {});

}  // namespace cep2asp

#endif  // CEP2ASP_TRANSLATOR_TRANSLATOR_H_
