// Extensional query plans over BID probabilistic databases.
//
// A Plan is a small relational-algebra tree — Scan, Select (reusing
// Predicate), Project with duplicate elimination, and equi-Join — plus
// the Exists / Count aggregates, evaluated bottom-up over ProbDatabase
// blocks in the style of Gatterbauer & Suciu's extensional (lifted)
// evaluation. Every intermediate row carries its probability and a
// lineage summary (the set of base blocks its event depends on, plus,
// when the event is exactly "block b chooses an alternative in S", that
// alternative set). The evaluator performs a safety check at every
// operator:
//
//   * operands whose lineages touch disjoint block sets are independent
//     -> the independent-product / independent-union rule is exact;
//   * rows that are alternative sets of the SAME block are disjoint
//     -> the disjoint-union / intersection rule is exact;
//   * anything else is correlated: the operator dissociates the shared
//     blocks and returns sound [lower, upper] probability bounds
//     (Frechet-style oblivious bounds) instead of a point estimate.
//
// The result is exact on safe plans and a guaranteed bracket on unsafe
// ones — the property the differential-testing oracle
// (MonteCarloPlanOracle) checks against sampled possible worlds.

#ifndef MRSL_PDB_PLAN_H_
#define MRSL_PDB_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pdb/prob_database.h"
#include "pdb/query.h"
#include "util/result.h"
#include "util/trace.h"

namespace mrsl {

/// A probability known exactly (lo == hi) or bracketed by dissociation
/// bounds (lo < hi). Both endpoints always lie in [0, 1] for event
/// probabilities; expected counts may exceed 1.
struct ProbInterval {
  double lo = 0.0;
  double hi = 0.0;

  static ProbInterval Exact(double p) { return ProbInterval{p, p}; }
  static ProbInterval Bounds(double lo, double hi) {
    return ProbInterval{lo, hi};
  }

  /// True when the interval is a point estimate (safe evaluation).
  bool exact() const { return lo == hi; }

  /// Midpoint — the single number to report when one is demanded.
  double mid() const { return 0.5 * (lo + hi); }

  /// "0.7312" or "[0.4000, 0.8000]".
  std::string ToString() const;
};

/// Lineage summary of an intermediate row's event: which base blocks it
/// depends on, and — when the event is exactly "block `block` of source
/// `source` chooses an alternative in `alts`" — the alternative set, so
/// same-block combinations stay exact (disjointness / intersection).
struct Lineage {
  /// Sorted, unique keys of every base block the event reads
  /// ((source, block) packed by BlockKey).
  std::vector<uint64_t> blocks;

  /// Simple event: "block picks an alternative in `alts`".
  bool simple = false;
  uint32_t source = 0;            // valid when simple
  size_t block = 0;               // valid when simple
  std::vector<uint32_t> alts;     // sorted alternative indices, when simple

  static uint64_t BlockKey(uint32_t source, size_t block) {
    return (static_cast<uint64_t>(source) << 40) | static_cast<uint64_t>(block);
  }
};

/// One operator of a plan tree. Build trees with the factory functions
/// below; nodes are immutable and shareable across plans.
struct PlanNode {
  enum class Op { kScan, kSelect, kProject, kJoin };

  Op op = Op::kScan;
  size_t source = 0;                  // kScan: index into the sources list
  Predicate pred;                     // kSelect
  std::vector<AttrId> attrs;          // kProject: attributes kept, in order
  AttrId left_attr = 0;               // kJoin: left child's join attribute
  AttrId right_attr = 0;              // kJoin: right child's join attribute
  std::shared_ptr<const PlanNode> left;   // unary child / join left
  std::shared_ptr<const PlanNode> right;  // join right
};

using PlanPtr = std::shared_ptr<const PlanNode>;

/// Leaf: all blocks of sources[source].
PlanPtr ScanPlan(size_t source = 0);

/// σ_pred over `child`.
PlanPtr SelectPlan(Predicate pred, PlanPtr child);

/// π_attrs with duplicate elimination over `child`.
PlanPtr ProjectPlan(std::vector<AttrId> attrs, PlanPtr child);

/// Equi-join: left.left_attr == right.right_attr; output tuples
/// concatenate left and right values (right-hand attribute names get a
/// "_r" suffix on clashes).
PlanPtr JoinPlan(PlanPtr left, PlanPtr right, AttrId left_attr,
                 AttrId right_attr);

/// Output schema of `plan` over `sources` (validates attribute ids).
Result<Schema> PlanOutputSchema(const PlanNode& plan,
                                const std::vector<const ProbDatabase*>& sources);

/// Parser-compatible rendering, e.g.
/// "project(age; select(edu=HS; scan(0)))".
Result<std::string> PlanToString(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources);

/// Per-request resource accounting accumulated by the evaluator (and,
/// above it, the compiler and the oracle paths). Peaks are per-operator
/// maxima of the columnar arenas' logical footprint — what one request
/// holds live at the widest point of the plan, the number admission
/// control and the statement digests care about. Counters are totals.
/// A fused Select-over-Scan is one operator: the unfiltered scan is never
/// materialized, so it counts toward neither peaks nor lineage_events.
/// Deterministic for a fixed (epoch, plan): derived from element
/// counts, never allocator capacities. Accounting never influences
/// evaluation — results are bit-identical with or without it.
struct PlanResources {
  uint64_t peak_batch_bytes = 0;    ///< max ColumnBatch::ByteSize() seen
  uint64_t peak_lineage_bytes = 0;  ///< max LineageTable::ByteSize() seen
  uint64_t lineage_events = 0;      ///< lineage rows emitted across operators
  uint64_t worlds_sampled = 0;      ///< oracle trials + compiler worlds

  /// Member-wise accumulation (max peaks, summed counters) — how a
  /// compiled query folds its phase-1 and phase-2 evaluations together.
  void Merge(const PlanResources& other);
};

/// An intermediate or final row: values, probability (exact or bounds),
/// and the lineage driving the safety check.
struct PlanRow {
  Tuple tuple;
  ProbInterval prob;
  Lineage lineage;
};

/// A fully evaluated plan: bag semantics (Join may emit several rows
/// with identical values; Project deduplicates). `safe` is true iff
/// every operator application used an exact rule — equivalently, every
/// row interval is a point estimate produced without dissociation.
struct PlanResult {
  Schema schema;
  std::vector<PlanRow> rows;
  bool safe = true;
};

/// Bottom-up extensional evaluation of `plan` over `sources`. This is
/// the production path: it runs on columnar batches (pdb/columnar.h) —
/// a Select directly over a Scan fused into the scan (the predicate is
/// tested per alternative, so dropped rows are never copied), any other
/// Select as a predicate sweep over one column per atom, Join as a hash
/// build on a raw key column with batched output gathers, Project as a
/// group-id sweep plus one disjoin pass — and materializes rows only at
/// the root. Bit-identical (row order, doubles, lineage) to the row
/// reference evaluator below, with which it shares no traversal code.
///
/// `trace` (when active) receives one child span per plan operator
/// ("op.scan" / "op.select" / "op.project" / "op.join") with rows-in /
/// rows-out / lineage-size attributes — the EXPLAIN ANALYZE feed. A
/// fused Select-over-Scan records one "op.select" span whose rows_in is
/// the scanned alternatives, and no "op.scan" child. The spans never
/// influence evaluation: traced and untraced runs are bit-identical.
///
/// `resources` (when non-null) accumulates per-operator peaks and
/// counters (see PlanResources) — the workload-analytics feed. Like the
/// spans, it never influences evaluation.
Result<PlanResult> EvaluatePlan(const PlanNode& plan,
                                const std::vector<const ProbDatabase*>& sources,
                                TraceSpan trace = TraceSpan(),
                                PlanResources* resources = nullptr);

/// The row-at-a-time reference evaluator: one PlanRow per intermediate
/// row. It runs on the one row-at-a-time plan skeleton
/// (pdb/plan_internal.h) that the compiler's factored phase 2
/// (CompileQuery) and the oracle's world evaluator (EvaluatePlanInWorld,
/// MonteCarloPlanOracle) also run on, each with its own event policy;
/// the columnar path above does not. Kept compiled as the differential
/// baseline for the columnar path (tests hold the two to exact
/// equality); not used in serving.
Result<PlanResult> EvaluatePlanRowwise(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources);

/// Marginal appearance probability per distinct tuple value of `result`
/// (disjoins the events of duplicate rows; exact when their lineages
/// permit). This is what the differential oracle compares against.
struct DistinctMarginal {
  Tuple tuple;
  ProbInterval prob;
};
std::vector<DistinctMarginal> DistinctMarginals(
    const PlanResult& result,
    const std::vector<const ProbDatabase*>& sources);

/// P(plan result is non-empty): the disjunction of every row event.
struct ExistsResult {
  ProbInterval prob;
  bool safe = true;
};
Result<ExistsResult> EvaluateExists(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources);

/// EvaluateExists over an already-evaluated plan result — lets callers
/// that hold the relation result (the store's query path) skip the
/// second plan evaluation EvaluateExists would perform.
ExistsResult ExistsFromResult(const PlanResult& result,
                              const std::vector<const ProbDatabase*>& sources);

/// COUNT(*) over the plan's bag of rows. The expectation is exact
/// whenever every row probability is exact (linearity of expectation
/// holds under any correlation); the full Poisson-binomial distribution
/// is only emitted when rows are independent or same-block disjoint
/// (`has_distribution`).
struct CountResult {
  ProbInterval expected;
  bool safe = true;
  bool has_distribution = false;
  std::vector<double> distribution;  // P(count = k), when has_distribution
};
Result<CountResult> EvaluateCount(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources);

/// EvaluateCount over an already-evaluated plan result (see
/// ExistsFromResult).
CountResult CountFromResult(const PlanResult& result,
                            const std::vector<const ProbDatabase*>& sources);

// ---------------------------------------------------------------------------
// Plan text syntax (the CLI's `--plan` argument).
//
//   node    := scan | select | project | join
//   scan    := "scan" [ "(" INT ")" ]
//   select  := "select(" pred ";" node ")"
//   pred    := "true" | atom { "&" atom }     atom := NAME ("="|"!=") LABEL
//   project := "project(" NAME {"," NAME} ";" node ")"
//   join    := "join(" node ";" node ";" NAME "=" NAME ")"
//   query   := node | "exists(" node ")" | "count(" node ")"
//
// Attribute and value names resolve against the child's output schema
// (join attributes against the respective child). Whitespace is free.
// ---------------------------------------------------------------------------

/// A parsed top-level query: a relation-valued plan, or an aggregate
/// wrapped around one.
struct ParsedQuery {
  enum class Kind { kRelation, kExists, kCount };
  Kind kind = Kind::kRelation;
  PlanPtr plan;
};

Result<ParsedQuery> ParsePlan(std::string_view text,
                              const std::vector<const ProbDatabase*>& sources);

// ---------------------------------------------------------------------------
// The differential-testing oracle: Monte-Carlo over sampled possible
// worlds. Each trial samples one alternative (or absence) per block of
// every source, evaluates the plan deterministically in that world, and
// tallies. Trials are partitioned into fixed-size chunks, each with an
// RNG seeded purely by (seed, chunk index); chunk tallies are integers
// merged in chunk order, so the result is bit-identical for every
// thread count.
// ---------------------------------------------------------------------------

struct OracleOptions {
  size_t trials = 20000;
  uint64_t seed = 0x0DDBA11;
  /// Worker threads: 0 = the process-wide shared pool, N > 0 = a
  /// private pool of exactly N. Results never depend on this.
  size_t num_threads = 0;
  /// Trials per deterministic chunk (the parallelism grain).
  size_t chunk_size = 512;
};

struct OracleResult {
  size_t trials = 0;
  Schema schema;
  double exists = 0.0;          // fraction of worlds with a non-empty result
  double expected_count = 0.0;  // mean bag count per world
  std::vector<double> count_distribution;  // empirical P(count = k)
  std::vector<ProbTuple> marginals;        // distinct value -> frequency
};

Result<OracleResult> MonteCarloPlanOracle(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    const OracleOptions& options);

/// Deterministic single-world evaluation (the oracle's inner loop,
/// exposed for tests): `choices[s][b]` is the alternative index chosen
/// for block b of source s, or kNoAlternative when the block contributes
/// nothing; any other index outside the block's alternatives is an
/// InvalidArgument. Returns the bag of result tuples.
Result<std::vector<Tuple>> EvaluatePlanInWorld(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    const std::vector<std::vector<int32_t>>& choices);

}  // namespace mrsl

#endif  // MRSL_PDB_PLAN_H_
