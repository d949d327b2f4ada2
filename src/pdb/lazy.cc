// Inference is the expensive step, so RowProbability first evaluates the
// predicate three-valued on the raw tuple: rows decided true/false by
// their observed cells alone short-circuit without deriving Δt (counted
// in short_circuits_). Only genuinely uncertain rows are materialized,
// memoized per distinct tuple, through the engine's pooled contexts.
// CountDistribution is the Poisson-binomial DP over per-row
// probabilities.

#include "pdb/lazy.h"

#include <unordered_set>

#include "pdb/plan_internal.h"
#include "pdb/store.h"

namespace mrsl {

LazyDeriver::LazyDeriver(Engine* engine, const Relation* rel,
                         const GibbsOptions& gibbs)
    : engine_(engine), rel_(rel), gibbs_(gibbs) {}

size_t LazyDeriver::SeedFromSnapshot(const StoreSnapshot& snapshot) {
  // ValueIds are only meaningful against the schema that produced them:
  // names, cardinalities, and labels must all match or a cached Δt
  // would silently describe different values. Seed nothing otherwise.
  if (!CheckSchemasMatch(rel_->schema(), snapshot.base().schema()).ok()) {
    return 0;
  }

  size_t seeded = 0;
  for (size_t r = 0; r < rel_->num_rows(); ++r) {
    const Tuple& t = rel_->row(r);
    if (t.IsComplete() || cache_.find(t) != cache_.end()) continue;
    const JointDist* dist = snapshot.FindDist(t);
    if (dist == nullptr) continue;
    cache_.emplace(t, *dist);
    ++seeded;
  }
  return seeded;
}

Result<const JointDist*> LazyDeriver::Materialize(const Tuple& t) {
  auto it = cache_.find(t);
  if (it != cache_.end()) return &it->second;
  WorkloadOptions wl;
  wl.gibbs = gibbs_;
  Result<JointDist> dist = engine_->Infer(t, wl);
  if (!dist.ok()) return dist.status();
  auto [ins, inserted] = cache_.emplace(t, std::move(dist).value());
  (void)inserted;
  return &ins->second;
}

Status LazyDeriver::InferPending(const std::vector<Tuple>& pending,
                                 size_t batch_size) {
  if (pending.empty()) return Status::OK();
  WorkloadOptions wl;
  wl.gibbs = gibbs_;
  auto dists = engine_->InferChunked(pending, SamplingMode::kTupleAtATime,
                                     wl, batch_size);
  if (!dists.ok()) return dists.status();
  for (size_t i = 0; i < pending.size(); ++i) {
    cache_.emplace(pending[i], std::move((*dists)[i]));
  }
  return Status::OK();
}

Result<size_t> LazyDeriver::MaterializeUncertain(const Predicate& pred,
                                                 size_t batch_size) {
  // Distinct incomplete rows the predicate cannot decide, minus what the
  // memo already holds.
  std::vector<Tuple> pending;
  std::unordered_set<Tuple, TupleHash> seen;
  for (size_t r = 0; r < rel_->num_rows(); ++r) {
    const Tuple& t = rel_->row(r);
    if (t.IsComplete()) continue;
    if (pred.EvalPartial(t) != Predicate::Tri::kUnknown) continue;
    if (cache_.find(t) != cache_.end() || !seen.insert(t).second) continue;
    pending.push_back(t);
  }
  MRSL_RETURN_IF_ERROR(InferPending(pending, batch_size));
  return pending.size();
}

Result<double> LazyDeriver::RowProbability(size_t row,
                                           const Predicate& pred) {
  if (row >= rel_->num_rows()) {
    return Status::InvalidArgument("row out of range");
  }
  const Tuple& t = rel_->row(row);
  switch (pred.EvalPartial(t)) {
    case Predicate::Tri::kFalse:
      if (!t.IsComplete()) ++short_circuits_;
      return 0.0;
    case Predicate::Tri::kTrue:
      if (!t.IsComplete()) ++short_circuits_;
      return 1.0;
    case Predicate::Tri::kUnknown:
      break;
  }
  // Uncertain: integrate the predicate over Δt.
  auto dist_or = Materialize(t);
  if (!dist_or.ok()) return dist_or.status();
  const JointDist& dist = **dist_or;
  double p = 0.0;
  std::vector<ValueId> combo(dist.vars().size());
  Tuple completed = t;
  for (uint64_t code = 0; code < dist.size(); ++code) {
    double mass = dist.prob(code);
    if (mass <= 0.0) continue;
    dist.codec().DecodeInto(code, combo.data());
    for (size_t i = 0; i < dist.vars().size(); ++i) {
      completed.set_value(dist.vars()[i], combo[i]);
    }
    if (pred.Eval(completed)) p += mass;
  }
  return p;
}

Result<double> LazyDeriver::ExpectedCount(const Predicate& pred) {
  double total = 0.0;
  for (size_t r = 0; r < rel_->num_rows(); ++r) {
    auto p = RowProbability(r, pred);
    if (!p.ok()) return p.status();
    total += *p;
  }
  return total;
}

Result<double> LazyDeriver::ProbExists(const Predicate& pred) {
  double none = 1.0;
  for (size_t r = 0; r < rel_->num_rows(); ++r) {
    auto p = RowProbability(r, pred);
    if (!p.ok()) return p.status();
    none *= (1.0 - *p);
  }
  return 1.0 - none;
}

Result<std::vector<double>> LazyDeriver::CountDistribution(
    const Predicate& pred) {
  std::vector<double> qs;
  qs.reserve(rel_->num_rows());
  for (size_t r = 0; r < rel_->num_rows(); ++r) {
    auto p = RowProbability(r, pred);
    if (!p.ok()) return p.status();
    qs.push_back(*p);
  }
  return plan_internal::PoissonBinomial(qs);
}

}  // namespace mrsl
