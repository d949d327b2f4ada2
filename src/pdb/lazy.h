// Lazy, query-targeted derivation (the paper's future work, Sec VIII:
// "partial materialization of probability values, as well as lazy,
// query-targeted learning and inference").
//
// Instead of materializing Δt for every incomplete tuple up front, a
// LazyDeriver answers queries directly over the incomplete relation and
// runs (cached) Gibbs inference only for the tuples whose query outcome
// is genuinely uncertain:
//   * a tuple whose observed cells already refute the predicate
//     contributes probability 0 — no inference;
//   * a tuple whose observed cells already satisfy every atom
//     contributes probability 1 — no inference;
//   * only tuples where a missing cell could flip the outcome are
//     sampled, and their Δt is memoized for later queries.

#ifndef MRSL_PDB_LAZY_H_
#define MRSL_PDB_LAZY_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/gibbs.h"
#include "pdb/query.h"
#include "relational/relation.h"
#include "util/result.h"

namespace mrsl {

class StoreSnapshot;  // pdb/store.h

/// Query-driven view over an incomplete relation and an MRSL model.
class LazyDeriver {
 public:
  /// `engine` and `rel` must outlive the deriver. Materializations run
  /// on the engine's pooled contexts (warm CPD caches) and
  /// MaterializeUncertain batches them across the engine's thread pool.
  LazyDeriver(Engine* engine, const Relation* rel,
              const GibbsOptions& gibbs);

  /// Marginal probability that row `r` satisfies `pred` (complete rows
  /// evaluate exactly; incomplete rows trigger inference only when the
  /// outcome is uncertain).
  Result<double> RowProbability(size_t row, const Predicate& pred);

  /// Expected number of rows satisfying `pred`.
  Result<double> ExpectedCount(const Predicate& pred);

  /// Probability that at least one row satisfies `pred`.
  Result<double> ProbExists(const Predicate& pred);

  /// Exact distribution of COUNT(σ_pred) (Poisson-binomial DP).
  Result<std::vector<double>> CountDistribution(const Predicate& pred);

  /// Pre-materializes Δt for every distinct row whose outcome under
  /// `pred` is genuinely uncertain, `batch_size` tuples per engine batch
  /// (0 = one batch). Subsequent queries touching those rows are pure
  /// cache lookups. Returns the number of newly materialized tuples.
  /// Batches run in parallel (the sampled stream may differ from
  /// on-demand materialization — both are equally valid estimates, and
  /// whichever lands in the memo first is served thereafter).
  Result<size_t> MaterializeUncertain(const Predicate& pred,
                                      size_t batch_size = 0);

  /// Warms the memo from a store epoch (pdb/store.h): every distinct
  /// incomplete tuple of this deriver's relation whose Δt the snapshot
  /// already carries is copied into the cache, so subsequent queries on
  /// those rows run without inference. Returns the number of tuples
  /// newly seeded; seeds nothing (returns 0) unless the snapshot's
  /// schema matches the relation's exactly — names, cardinalities, and
  /// labels — since ValueIds are only meaningful against the schema
  /// that produced them. The snapshot must also have been derived
  /// under this deriver's Gibbs options for the memo to stay
  /// equivalent to on-demand materialization.
  size_t SeedFromSnapshot(const StoreSnapshot& snapshot);

  /// Number of tuples whose Δt has been materialized so far.
  size_t materialized() const { return cache_.size(); }

  /// Number of incomplete-tuple query evaluations answered without
  /// inference (outcome decided by observed cells alone).
  size_t short_circuits() const { return short_circuits_; }

 private:
  Result<const JointDist*> Materialize(const Tuple& t);

  /// Infers Δt for every tuple of `pending` into the memo, one engine
  /// batch of `batch_size` tuples at a time.
  Status InferPending(const std::vector<Tuple>& pending, size_t batch_size);

  Engine* engine_;
  const Relation* rel_;
  GibbsOptions gibbs_;
  std::unordered_map<Tuple, JointDist, TupleHash> cache_;
  size_t short_circuits_ = 0;
};

}  // namespace mrsl

#endif  // MRSL_PDB_LAZY_H_
