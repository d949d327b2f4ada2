// Compile-and-smoke test for the umbrella header: every public symbol is
// reachable through "mrsl.h", and a miniature end-to-end run works using
// only that include.

#include "mrsl.h"

#include <string>

#include <gtest/gtest.h>

#include "oracle_harness.h"

namespace mrsl {
namespace {

TEST(UmbrellaTest, VersionMacros) {
  EXPECT_EQ(MRSL_VERSION_MAJOR, 1);
  EXPECT_STREQ(MRSL_VERSION_STRING, "1.9.0");
  // The string macro must stay in sync with the numeric components.
  const std::string composed = std::to_string(MRSL_VERSION_MAJOR) + "." +
                               std::to_string(MRSL_VERSION_MINOR) + "." +
                               std::to_string(MRSL_VERSION_PATCH);
  EXPECT_EQ(composed, MRSL_VERSION_STRING);
}

TEST(UmbrellaTest, EndToEndThroughSingleInclude) {
  // Generate.
  Rng rng(1);
  BayesNet bn = BayesNet::RandomInstance(Topology::Crown(4, 2), &rng);
  Relation rel = bn.SampleRelation(2000, &rng);
  Tuple broken = rel.row(0);
  broken.set_value(1, kMissingValue);
  broken.set_value(2, kMissingValue);
  ASSERT_TRUE(rel.Append(broken).ok());

  // Learn.
  LearnOptions learn;
  learn.support_threshold = 0.01;
  auto model = LearnModel(rel, learn);
  ASSERT_TRUE(model.ok());

  // Infer.
  WorkloadOptions wl;
  wl.gibbs.samples = 200;
  wl.gibbs.burn_in = 20;
  auto dists = RunWorkload(*model, {broken}, SamplingMode::kTupleDag, wl);
  ASSERT_TRUE(dists.ok());
  EXPECT_NEAR((*dists)[0].Sum(), 1.0, 1e-9);

  // Derive + query.
  Relation just_broken(rel.schema());
  ASSERT_TRUE(just_broken.Append(broken).ok());
  auto db = ProbDatabase::FromInference(just_broken, *dists);
  ASSERT_TRUE(db.ok());
  PlanPtr plan = SelectPlan(Predicate::Eq(0, broken.value(0)), ScanPlan(0));
  auto exists = EvaluateExists(*plan, {&*db});
  ASSERT_TRUE(exists.ok());
  EXPECT_NEAR(exists->prob.lo, 1.0, 1e-9);  // observed cell is certain
  // Exhaustive enumeration (the test harness's ground truth) agrees.
  double truth = 0.0;
  oracle_harness::ForEachWorldChoices(
      *db, [&](const std::vector<int32_t>& choices, double p) {
        auto bag = EvaluatePlanInWorld(*plan, {&*db}, {choices});
        ASSERT_TRUE(bag.ok());
        if (!bag->empty()) truth += p;
      });
  EXPECT_NEAR(exists->prob.lo, truth, 1e-9);
}

TEST(UmbrellaTest, ModelIoAndRepairThroughSingleInclude) {
  // The offline-learning workflow (Sec VI-B): learn, serialize, reload,
  // then repair with the reloaded model — all through "mrsl.h".
  Rng rng(7);
  BayesNet bn = BayesNet::RandomInstance(Topology::Crown(4, 2), &rng);
  Relation rel = bn.SampleRelation(1500, &rng);

  LearnOptions learn;
  learn.support_threshold = 0.01;
  auto model = LearnModel(rel, learn);
  ASSERT_TRUE(model.ok());

  const std::string text = ModelToText(*model);
  auto reloaded = ModelFromText(text);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(ModelToText(*reloaded), text);  // serialization round-trips

  Relation dirty(rel.schema());
  Tuple broken = rel.row(0);
  broken.set_value(1, kMissingValue);
  ASSERT_TRUE(dirty.Append(broken).ok());

  RepairOptions repair;
  repair.workload.gibbs.samples = 200;
  repair.workload.gibbs.burn_in = 20;
  RepairStats stats;
  auto repaired = RepairRelation(*reloaded, dirty, repair, &stats);
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(repaired->num_rows(), 1u);
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_TRUE(repaired->row(0).IsComplete());
}

}  // namespace
}  // namespace mrsl
