// Matchmaking profiles at scale — the scenario that motivates the paper's
// introduction. A hand-built Bayesian network with realistic correlations
// (age -> income -> net worth, education -> income) generates 20,000
// profiles; 15% of them lose one to three attribute values. The library
// derives a probabilistic database from the incomplete relation and
// answers matchmaking queries over it.
//
// Build & run:  ./build/examples/matchmaking_profiles

#include <cstdio>
#include <vector>

#include "bn/bayes_net.h"
#include "core/learner.h"
#include "core/workload.h"
#include "pdb/plan.h"
#include "util/rng.h"

namespace {

// age ∈ {20,30,40,50}, edu ∈ {HS,BS,MS}, inc ∈ {50K,100K,200K},
// nw ∈ {100K,500K,1M}; edges age->inc, edu->inc, inc->nw, age->nw.
mrsl::BayesNet BuildProfileNetwork() {
  using namespace mrsl;
  auto topo = Topology::Create(
      {"age", "edu", "inc", "nw"}, {4, 3, 3, 3},
      {{}, {}, {0, 1}, {0, 2}});
  // CPTs: hand-tuned to encode "older and better educated earn more;
  // higher income and age mean higher net worth".
  std::vector<std::vector<double>> cpts(4);
  cpts[0] = {0.3, 0.3, 0.25, 0.15};  // P(age)
  cpts[1] = {0.4, 0.45, 0.15};       // P(edu)
  // P(inc | age, edu): 12 parent configs x 3 values. Base by age bracket,
  // shifted toward higher income with education.
  const double base[4][3] = {{0.75, 0.20, 0.05},
                             {0.50, 0.38, 0.12},
                             {0.35, 0.45, 0.20},
                             {0.30, 0.45, 0.25}};
  for (int age = 0; age < 4; ++age) {
    for (int edu = 0; edu < 3; ++edu) {
      double shift = 0.12 * edu;
      double p0 = std::max(base[age][0] - shift, 0.05);
      double p2 = std::min(base[age][2] + shift, 0.9);
      double p1 = 1.0 - p0 - p2;
      cpts[2].insert(cpts[2].end(), {p0, p1, p2});
    }
  }
  // P(nw | age, inc): wealth follows income, accumulating with age.
  for (int age = 0; age < 4; ++age) {
    for (int inc = 0; inc < 3; ++inc) {
      double rich = 0.08 + 0.18 * inc + 0.07 * age;
      double poor = std::max(0.75 - 0.22 * inc - 0.08 * age, 0.05);
      double mid = 1.0 - rich - poor;
      cpts[3].insert(cpts[3].end(), {poor, mid, rich});
    }
  }
  auto bn = BayesNet::Create(std::move(topo).value(), std::move(cpts));
  if (!bn.ok()) {
    std::fprintf(stderr, "bad network: %s\n", bn.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(bn).value();
}

}  // namespace

int main() {
  using namespace mrsl;
  BayesNet bn = BuildProfileNetwork();
  Rng rng(2026);

  // ---- Generate 20,000 profiles; 15% lose 1-3 attribute values ----
  Relation rel = bn.SampleRelation(20000, &rng);
  Relation damaged(rel.schema());
  size_t incomplete_count = 0;
  for (const Tuple& row : rel.rows()) {
    Tuple copy = row;
    if (rng.Bernoulli(0.15)) {
      size_t k = 1 + rng.UniformInt(3);
      for (size_t j = 0; j < k; ++j) {
        copy.set_value(static_cast<AttrId>(rng.UniformInt(4)),
                       kMissingValue);
      }
      if (!copy.IsComplete()) ++incomplete_count;
    }
    if (damaged.Append(std::move(copy)).ok()) continue;
  }
  std::printf("profiles: %zu total, %zu incomplete\n", damaged.num_rows(),
              incomplete_count);

  // ---- Learn the MRSL model from the complete portion ----
  LearnOptions learn;
  learn.support_threshold = 0.002;
  LearnStats stats;
  auto model = LearnModel(damaged, learn, &stats);
  if (!model.ok()) return 1;
  std::printf("MRSL model: %zu meta-rules (built in %.3fs)\n",
              model->TotalMetaRules(), stats.total_seconds);

  // ---- Infer Δt for every incomplete profile (tuple-DAG sampling) ----
  std::vector<Tuple> workload;
  for (uint32_t row : damaged.IncompleteRowIndices()) {
    workload.push_back(damaged.row(row));
  }
  WorkloadOptions wl;
  wl.gibbs.samples = 800;
  wl.gibbs.burn_in = 100;
  WorkloadStats wstats;
  auto dists = RunWorkload(*model, workload, SamplingMode::kTupleDag, wl,
                           &wstats);
  if (!dists.ok()) return 1;
  std::printf(
      "inference: %zu incomplete profiles (%llu distinct), %llu points "
      "sampled, %llu shared via the tuple DAG, %.2fs\n",
      workload.size(),
      static_cast<unsigned long long>(wstats.distinct_tuples),
      static_cast<unsigned long long>(wstats.points_sampled),
      static_cast<unsigned long long>(wstats.shared_samples),
      wstats.wall_seconds);

  // ---- Derive the probabilistic database ----
  auto db = ProbDatabase::FromInference(damaged, *dists, /*min_prob=*/0.005);
  if (!db.ok()) return 1;
  std::printf("probabilistic database: %zu blocks\n\n", db->num_blocks());

  // ---- Matchmaking queries ----
  const Schema& schema = db->schema();
  AttrId inc = 0;
  AttrId nw = 0;
  AttrId edu = 0;
  schema.FindAttr("inc", &inc);
  schema.FindAttr("nw", &nw);
  schema.FindAttr("edu", &edu);
  ValueId inc200 = schema.attr(inc).Find("v2");
  ValueId nw1m = schema.attr(nw).Find("v2");
  ValueId ms = schema.attr(edu).Find("v2");

  // Each query is a plan over the one source, evaluated extensionally:
  // select-over-scan plans are safe, so every answer is exact.
  const std::vector<const ProbDatabase*> sources = {&*db};
  Predicate wealthy = Predicate::Eq(inc, inc200).And(Predicate::Eq(nw, nw1m));
  PlanPtr wealthy_rows = SelectPlan(wealthy, ScanPlan(0));
  auto q1_count = EvaluateCount(*wealthy_rows, sources);
  auto q1_exists = EvaluateExists(*wealthy_rows, sources);
  if (!q1_count.ok() || !q1_exists.ok()) return 1;
  std::printf("Q1: expected number of profiles with top income AND top net"
              " worth: %.1f\n",
              q1_count->expected.lo);
  std::printf("    P(at least one such profile) = %.6f\n",
              q1_exists->prob.lo);

  Predicate grad = Predicate::Eq(edu, ms);
  auto q2 = EvaluateCount(*SelectPlan(grad.And(wealthy), ScanPlan(0)), sources);
  if (!q2.ok() || !q2->has_distribution) return 1;
  double p10 = 0.0;
  for (size_t k = 10; k < q2->distribution.size(); ++k) {
    p10 += q2->distribution[k];
  }
  std::printf("Q2: P(>= 10 wealthy graduate-degree profiles) = %.4f\n", p10);

  // Ground truth comparison: the BN tells us the true joint probability
  // of (inc=200K, nw=1M); expected count over 20k profiles follows.
  double true_p = 0.0;
  for (ValueId a = 0; a < 4; ++a) {
    for (ValueId e = 0; e < 3; ++e) {
      true_p += bn.JointProb({a, e, inc200, nw1m});
    }
  }
  std::printf(
      "    sanity: BN ground truth predicts %.1f such profiles among %zu\n",
      true_p * static_cast<double>(damaged.num_rows()), damaged.num_rows());
  return 0;
}
