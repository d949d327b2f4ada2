// Safe-plan compiler over the extensional plan algebra (pdb/plan.h).
//
// EvaluatePlan applies ONE fixed dissociation at each correlated
// operator: the Frechet-style oblivious bounds of Gatterbauer & Suciu
// (AND: [max(0,p+q-1), min(p,q)], OR: [max_i p_i, min(1, sum_i p_i)]).
// Those bounds are sound but loose, so hard (unsafe) queries used to pay
// Monte-Carlo prices for tight answers. The compiler closes that gap:
//
//   1. It evaluates the plan with FACTORED events: every row carries its
//      lineage as a positive DNF over (block, alternative-set) atoms,
//      not just a block-key summary. Conjunctions of independent or
//      same-block operands stay exact (and provably impossible join
//      pairs are pruned to zero instead of bounded).
//   2. Where rows correlate — duplicate elimination or EXISTS over rows
//      sharing base blocks — it searches the dissociation lattice: the
//      subset lattice of the group's correlated blocks, ordered by how
//      many blocks a candidate conditions away. The bottom element is
//      the oblivious dissociation bound itself (zero extra work); the
//      top element conditions every shared block and is exact. Each
//      candidate is costed by its world count (product of block branch
//      factors, from block statistics), groups are refined cheapest
//      first, and every refinement is intersected into a
//      min-upper/max-lower envelope, so bounds only ever tighten and
//      never regress below the fixed dissociation (the monotone-
//      improvement property the differential suite checks).
//   3. Anytime mode: refinement stops as soon as the mean bounds width
//      reaches `width_target` or the wall-clock budget `budget_ms` is
//      exhausted; whatever was not refined keeps its sound dissociation
//      interval. With budget_ms == 0 the result is a pure function of
//      (plan, sources, options) — bit-identical across runs and thread
//      counts — which is what the conformance suite pins.
//   4. A propagation-score fast path for ranking-only consumers:
//      disjuncts are scored as if independent (the relevance-propagation
//      recurrence), one pass, no lattice search. Scores order tuples
//      well but are NOT sound probability bounds; they are flagged as
//      such and never enter the envelope.
//
// Soundness of the lattice step is total probability: conditioning a
// block on each alternative (plus absence) splits the event space into
// disjoint cases whose recursive bounds, weighted by the case masses,
// bracket the true probability; with enough budget every base case is
// exact (single disjunct -> independent product; one shared block of
// simple atoms -> alternative-set union mass).

#ifndef MRSL_PDB_COMPILER_H_
#define MRSL_PDB_COMPILER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "pdb/plan.h"
#include "pdb/prob_database.h"
#include "util/result.h"

namespace mrsl {

/// Knobs for one compilation. The defaults refine every correlated
/// group up to 4096 conditioned worlds with no time limit — exact on
/// small correlated cores, sound dissociation bounds beyond.
struct CompileOptions {
  /// Anytime width target: stop refining once the mean width of the
  /// reported marginal intervals is <= this. 0 means "as tight as the
  /// world budget allows".
  double width_target = 0.0;

  /// Anytime wall-clock budget in milliseconds; refinement (never the
  /// base evaluation) is cut off when it expires. 0 disables the clock
  /// and makes the result deterministic.
  double budget_ms = 0.0;

  /// Lattice depth: the maximum number of conditioned worlds a single
  /// correlated group may expand. The cheapest candidates fit entirely;
  /// costlier ones fall back to the dissociation bound partway down.
  size_t max_worlds_per_group = 4096;

  /// Ranking fast path: report propagation scores (disjuncts treated as
  /// independent) instead of sound bounds. One pass, no lattice search.
  bool propagation_only = false;

  /// Which auxiliary answers to materialize. The relation marginals are
  /// always computed (they ARE the envelope); EXISTS and COUNT cost
  /// extra passes over the result, so a caller that knows the query
  /// kind skips the ones it will not read — the same economy as the
  /// plain evaluator's kind switch in BidStore::QueryOn. When false,
  /// the corresponding CompiledQuery field is default-initialized and
  /// must not be read. These do NOT join the cache key: the canonical
  /// query text already carries the kind.
  bool want_exists = true;
  bool want_count = true;
};

/// What the compiler did, for telemetry (mrsl_compile_seconds /
/// mrsl_bounds_width), response headers, and the bench frontier.
struct CompileStats {
  /// True iff every operator application used an exact rule — the same
  /// predicate EvaluatePlan::safe reports.
  bool plan_safe = false;

  size_t groups_total = 0;    ///< distinct answer tuples (marginal groups)
  size_t groups_unsafe = 0;   ///< groups whose base interval was non-exact
  size_t groups_refined = 0;  ///< groups tightened by the lattice search
  size_t groups_exact = 0;    ///< refined groups that reached a point answer
  size_t worlds_expanded = 0; ///< conditioning branches taken, all groups

  double mean_width_base = 0.0;   ///< mean marginal width before refinement
  double mean_width_final = 0.0;  ///< mean marginal width reported
  double compile_seconds = 0.0;   ///< wall time inside CompileQuery

  bool width_target_met = false;  ///< anytime loop hit the width target
  bool budget_exhausted = false;  ///< anytime loop ran out of clock
  bool propagation = false;       ///< scores, not sound bounds
};

/// A compiled query answer: the relation result plus the three derived
/// answers the store serves, all under the envelope bounds.
struct CompiledQuery {
  Schema schema;

  /// Final rows (bag semantics, like EvaluatePlan) with envelope
  /// intervals and lineage summaries. `result.safe` is true iff every
  /// REPORTED interval is a point — a refined unsafe plan can earn it.
  PlanResult result;

  /// Distinct-value marginals under the envelope (what ranking and the
  /// oracle comparison consume).
  std::vector<DistinctMarginal> marginals;

  ExistsResult exists;
  CountResult count;

  CompileStats stats;
};

/// Compiles and evaluates `plan` over `sources`. Exact on safe plans
/// (and then identical to EvaluatePlan's answers); on unsafe plans every
/// reported interval is sound, contained in the fixed-dissociation
/// interval, and tightened as far as `options` allows.
///
/// `trace` (when active) receives "phase1" (the columnar base pass,
/// with EvaluatePlan's per-operator spans nested inside), "phase2" (the
/// factored pass + anytime lattice walk, with candidates-tried /
/// worlds-evaluated attributes and one "lattice.refine" child per
/// candidate actually expanded), and "combine" (answer assembly). Spans
/// never influence the result; trace does NOT join the cache key
/// (CompileCacheSuffix below ignores it).
///
/// `resources` (when non-null) accumulates the phase-1 evaluation's
/// peaks/counters and adds the lattice walk's conditioning branches
/// (CompileStats::worlds_expanded) to `worlds_sampled` — the
/// workload-analytics feed. Like the spans, it never influences the
/// result and does not join the cache key.
Result<CompiledQuery> CompileQuery(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    const CompileOptions& options = {}, TraceSpan trace = TraceSpan(),
    PlanResources* resources = nullptr);

/// The cache-key suffix for a compiled evaluation: compiler mode, width
/// target, and world budget all change the answer, so they must join the
/// plan-cache key next to the canonical plan text (store.cc). Returns ""
/// for the non-compiled path, keeping legacy keys stable.
std::string CompileCacheSuffix(const CompileOptions& options);

}  // namespace mrsl

#endif  // MRSL_PDB_COMPILER_H_
