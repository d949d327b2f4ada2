// End-to-end integration tests: the full pipeline of the paper —
// generate data from a BN, learn the MRSL model, infer single- and
// multi-attribute distributions, derive the probabilistic database, and
// query it — plus the experiment runners used by the benchmarks.

#include <gtest/gtest.h>

#include "bn/exact.h"
#include "core/learner.h"
#include "core/workload.h"
#include "expfw/runner.h"
#include "pdb/plan.h"

namespace mrsl {
namespace {

TEST(IntegrationTest, FullPipelineDerivesQueryableDatabase) {
  // 1) Ground truth network and data.
  auto spec = NetworkByName("BN8");
  ASSERT_TRUE(spec.ok());
  Rng rng(20110411);
  BayesNet bn = BayesNet::RandomInstance(spec->topology, &rng);
  DatasetOptions ds_opts;
  ds_opts.train_size = 9000;
  ds_opts.num_missing = 2;
  auto ds = GenerateDataset(bn, ds_opts, &rng);
  ASSERT_TRUE(ds.ok());

  // 2) Learning phase.
  LearnOptions learn;
  learn.support_threshold = 0.005;
  LearnStats stats;
  auto model = LearnModel(ds->train, learn, &stats);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->TotalMetaRules(), 4u);

  // 3) Inference phase over the masked test relation.
  std::vector<Tuple> workload;
  for (size_t i = 0; i < 60 && i < ds->test_masked.num_rows(); ++i) {
    workload.push_back(ds->test_masked.row(i));
  }
  WorkloadOptions wl;
  wl.gibbs.burn_in = 50;
  wl.gibbs.samples = 1500;
  WorkloadStats wstats;
  auto dists = RunWorkload(*model, workload, SamplingMode::kTupleDag, wl,
                           &wstats);
  ASSERT_TRUE(dists.ok());
  EXPECT_EQ(wstats.distinct_tuples + 0u, TupleDag(workload).num_nodes());

  // Accuracy against the generating network.
  AccuracyAccumulator acc;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto truth = TrueDistribution(bn, workload[i]);
    ASSERT_TRUE(truth.ok());
    acc.Add(KlDivergence(*truth, (*dists)[i]),
            Top1Match(*truth, (*dists)[i]));
  }
  EXPECT_LT(acc.MeanKl(), 0.25);
  EXPECT_GT(acc.Top1Rate(), 0.5);

  // 4) Derive the disjoint-independent probabilistic database.
  Relation source(ds->test_masked.schema());
  for (const Tuple& t : workload) ASSERT_TRUE(source.Append(t).ok());
  auto db = ProbDatabase::FromInference(source, *dists);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_blocks(), workload.size());
  for (size_t b = 0; b < db->num_blocks(); ++b) {
    EXPECT_NEAR(db->block(b).TotalMass(), 1.0, 1e-6);
  }

  // 5) Query it through the plan algebra: the expected count is
  // consistent with the exact count distribution, and both match the
  // Monte-Carlo possible-world oracle.
  PlanPtr plan = SelectPlan(Predicate::Eq(0, 0), ScanPlan(0));
  auto count = EvaluateCount(*plan, {&*db});
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(count->expected.exact());
  ASSERT_TRUE(count->has_distribution);
  double expected = count->expected.lo;
  EXPECT_GT(expected, 0.0);
  EXPECT_LT(expected, static_cast<double>(db->num_blocks()));
  OracleOptions oo;
  oo.trials = 50000;
  oo.seed = 5;
  auto mc = MonteCarloPlanOracle(*plan, {&*db}, oo);
  ASSERT_TRUE(mc.ok());
  double mean_exact = 0.0;
  double mean_mc = 0.0;
  for (size_t k = 0; k < count->distribution.size(); ++k) {
    mean_exact += static_cast<double>(k) * count->distribution[k];
  }
  for (size_t k = 0; k < mc->count_distribution.size(); ++k) {
    mean_mc += static_cast<double>(k) * mc->count_distribution[k];
  }
  EXPECT_NEAR(mean_exact, expected, 1e-9);
  EXPECT_NEAR(mean_mc, expected, 0.5);
}

TEST(IntegrationTest, LearnRunnerProducesAverages) {
  LearnExperimentConfig config;
  config.network = "BN8";
  config.train_size = 2000;
  config.support = 0.02;
  config.reps.num_instances = 2;
  config.reps.num_splits = 2;
  auto result = RunLearnExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->build_seconds, 0.0);
  EXPECT_GT(result->model_size, 0.0);
  EXPECT_GT(result->itemsets, 0.0);
}

TEST(IntegrationTest, SingleAttrRunnerAccuracy) {
  SingleAttrConfig config;
  config.network = "BN8";
  config.train_size = 10000;
  config.support = 0.001;
  config.voting.choice = VoterChoice::kBest;
  config.voting.scheme = VotingScheme::kAveraged;
  config.reps.num_instances = 2;
  config.reps.num_splits = 1;
  config.reps.max_eval_tuples = 200;
  auto result = RunSingleAttrExperiment(config);
  ASSERT_TRUE(result.ok());
  // Paper Table II for BN8 at best-averaged: KL 0.00, top-1 0.98; allow
  // slack for the smaller training set.
  EXPECT_LT(result->kl, 0.05);
  EXPECT_GT(result->top1, 0.85);
  EXPECT_GT(result->model_size, 0.0);
}

TEST(IntegrationTest, SingleAttrVotingOrdering) {
  // With ample data, best-averaged should not be worse than all-weighted
  // (Table II's dominant pattern).
  SingleAttrConfig best;
  best.network = "BN9";
  best.train_size = 10000;
  best.support = 0.001;
  best.voting = {VoterChoice::kBest, VotingScheme::kAveraged};
  best.reps.num_instances = 2;
  best.reps.num_splits = 1;
  best.reps.max_eval_tuples = 200;
  SingleAttrConfig all = best;
  all.voting = {VoterChoice::kAll, VotingScheme::kWeighted};

  auto r_best = RunSingleAttrExperiment(best);
  auto r_all = RunSingleAttrExperiment(all);
  ASSERT_TRUE(r_best.ok());
  ASSERT_TRUE(r_all.ok());
  EXPECT_LE(r_best->kl, r_all->kl + 0.01);
}

TEST(IntegrationTest, MultiAttrRunnerAccuracy) {
  MultiAttrConfig config;
  config.network = "BN8";
  config.train_size = 9000;
  config.support = 0.005;
  config.num_missing = 2;
  config.gibbs.burn_in = 50;
  config.gibbs.samples = 1000;
  config.mode = SamplingMode::kTupleDag;
  config.reps.num_instances = 1;
  config.reps.num_splits = 2;
  config.reps.max_eval_tuples = 60;
  auto result = RunMultiAttrExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->kl, 0.3);
  EXPECT_GT(result->stats.points_sampled, 0u);
  EXPECT_EQ(result->tuples_evaluated, 120u);
}

TEST(IntegrationTest, RunnerIsDeterministic) {
  SingleAttrConfig config;
  config.network = "BN8";
  config.train_size = 3000;
  config.support = 0.01;
  config.reps.num_instances = 1;
  config.reps.num_splits = 1;
  config.reps.max_eval_tuples = 50;
  auto r1 = RunSingleAttrExperiment(config);
  auto r2 = RunSingleAttrExperiment(config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->kl, r2->kl);
  EXPECT_DOUBLE_EQ(r1->top1, r2->top1);
}

}  // namespace
}  // namespace mrsl
