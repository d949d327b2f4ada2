// Tests for lazy, query-targeted derivation: correctness against the
// eager pipeline and the short-circuit/materialization accounting.

#include "pdb/lazy.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "bn/bayes_net.h"
#include "core/learner.h"
#include "core/workload.h"
#include "pdb/plan.h"
#include "pdb/prob_database.h"

namespace mrsl {
namespace {

class LazyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(55);
    bn_ = BayesNet::RandomInstance(Topology::Crown(4, 2), &rng);
    Relation full = bn_.SampleRelation(8000, &rng);
    rel_ = Relation(full.schema());
    Rng mask_rng(56);
    for (size_t i = 0; i < 200; ++i) {
      Tuple t = full.row(i);
      if (mask_rng.Bernoulli(0.4)) {
        t.set_value(static_cast<AttrId>(mask_rng.UniformInt(4)),
                    kMissingValue);
      }
      ASSERT_TRUE(rel_.Append(std::move(t)).ok());
    }
    LearnOptions lo;
    lo.support_threshold = 0.002;
    auto model = LearnModel(full, lo);
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
    engine_ = std::make_unique<Engine>(&model_);
  }

  GibbsOptions GOpts() {
    GibbsOptions g;
    g.samples = 1500;
    g.burn_in = 100;
    g.seed = 99;
    return g;
  }

  BayesNet bn_;
  Relation rel_;
  MrslModel model_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(LazyTest, CompleteRowsNeedNoInference) {
  Relation complete_only(rel_.schema());
  for (const Tuple& t : rel_.rows()) {
    if (t.IsComplete()) {
      ASSERT_TRUE(complete_only.Append(t).ok());
    }
  }
  LazyDeriver lazy(engine_.get(), &complete_only, GOpts());
  auto count = lazy.ExpectedCount(Predicate::Eq(0, 0));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(lazy.materialized(), 0u);
  // Exact count over complete rows.
  size_t expect = 0;
  for (const Tuple& t : complete_only.rows()) expect += t.value(0) == 0;
  EXPECT_DOUBLE_EQ(*count, static_cast<double>(expect));
}

TEST_F(LazyTest, ShortCircuitsDecidedIncompleteRows) {
  // Predicate touches only attribute 0; rows missing other attributes
  // are decided without inference.
  LazyDeriver lazy(engine_.get(), &rel_, GOpts());
  Predicate pred = Predicate::Eq(0, 0);
  auto count = lazy.ExpectedCount(pred);
  ASSERT_TRUE(count.ok());
  std::unordered_set<Tuple, TupleHash> distinct_missing_attr0;
  size_t rows_missing_attr0 = 0;
  for (const Tuple& t : rel_.rows()) {
    if (t.value(0) == kMissingValue) {
      ++rows_missing_attr0;
      distinct_missing_attr0.insert(t);
    }
  }
  ASSERT_GT(rows_missing_attr0, 0u);
  // Only rows actually missing attribute 0 get materialized, and the
  // cache collapses duplicates to one entry per distinct tuple.
  EXPECT_EQ(lazy.materialized(), distinct_missing_attr0.size());
  EXPECT_GT(lazy.short_circuits(), 0u);
}

TEST_F(LazyTest, MatchesEagerDerivation) {
  // Eager: run the workload, build the ProbDatabase, query it.
  std::vector<Tuple> workload;
  for (uint32_t r : rel_.IncompleteRowIndices()) {
    workload.push_back(rel_.row(r));
  }
  WorkloadOptions wl;
  wl.gibbs = GOpts();
  auto dists =
      RunWorkload(model_, workload, SamplingMode::kTupleAtATime, wl);
  ASSERT_TRUE(dists.ok());
  auto db = ProbDatabase::FromInference(rel_, *dists);
  ASSERT_TRUE(db.ok());

  LazyDeriver lazy(engine_.get(), &rel_, GOpts());
  for (const Predicate& pred :
       {Predicate::Eq(0, 0), Predicate::Eq(2, 1),
        Predicate::Eq(1, 0).And(Predicate::Eq(3, 1))}) {
    // The eager side answers through the plan algebra.
    PlanPtr plan = SelectPlan(pred, ScanPlan(0));
    auto eager_count = EvaluateCount(*plan, {&*db});
    auto eager_exists = EvaluateExists(*plan, {&*db});
    ASSERT_TRUE(eager_count.ok());
    ASSERT_TRUE(eager_exists.ok());
    ASSERT_TRUE(eager_count->expected.exact());
    ASSERT_TRUE(eager_exists->prob.exact());

    auto lazy_count = lazy.ExpectedCount(pred);
    ASSERT_TRUE(lazy_count.ok());
    // Both estimates are Monte-Carlo with modest N; they agree loosely
    // per-query and exactly on decided rows.
    EXPECT_NEAR(*lazy_count, eager_count->expected.lo,
                rel_.num_rows() * 0.02);

    auto lazy_exists = lazy.ProbExists(pred);
    ASSERT_TRUE(lazy_exists.ok());
    EXPECT_NEAR(*lazy_exists, eager_exists->prob.lo, 0.1);
  }
}

TEST_F(LazyTest, CountDistributionIsADistribution) {
  LazyDeriver lazy(engine_.get(), &rel_, GOpts());
  auto dist = lazy.CountDistribution(Predicate::Eq(0, 1));
  ASSERT_TRUE(dist.ok());
  double sum = 0.0;
  for (double p : *dist) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Mean of the distribution equals the expected count.
  auto count = lazy.ExpectedCount(Predicate::Eq(0, 1));
  ASSERT_TRUE(count.ok());
  double mean = 0.0;
  for (size_t k = 0; k < dist->size(); ++k) {
    mean += static_cast<double>(k) * (*dist)[k];
  }
  EXPECT_NEAR(mean, *count, 1e-9);
}

TEST_F(LazyTest, MaterializationIsCachedAcrossQueries) {
  LazyDeriver lazy(engine_.get(), &rel_, GOpts());
  ASSERT_TRUE(lazy.ExpectedCount(Predicate::Eq(0, 0)).ok());
  size_t after_first = lazy.materialized();
  // Same predicate again: no new materializations.
  ASSERT_TRUE(lazy.ExpectedCount(Predicate::Eq(0, 0)).ok());
  EXPECT_EQ(lazy.materialized(), after_first);
  // A predicate over another attribute may add more.
  ASSERT_TRUE(lazy.ExpectedCount(Predicate::Eq(1, 0)).ok());
  EXPECT_GE(lazy.materialized(), after_first);
}

TEST_F(LazyTest, RowProbabilityValidatesRange) {
  LazyDeriver lazy(engine_.get(), &rel_, GOpts());
  EXPECT_FALSE(lazy.RowProbability(rel_.num_rows(), Predicate()).ok());
}

}  // namespace
}  // namespace mrsl
