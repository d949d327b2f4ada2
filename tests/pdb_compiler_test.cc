// Conformance suite for the safe-plan compiler (pdb/compiler.h).
//
// The contract under test, anchored to two oracles:
//  - exhaustive possible-world enumeration on the small fixtures (exact
//    ground truth), and
//  - the chunk-seeded Monte-Carlo plan oracle on the randomized corpus
//    (every compiled [lower, upper] must bracket the estimate within
//    the oracle's confidence half-width).
// Plus the determinism contract: with budget_ms == 0 the compiler is a
// pure function of (plan, sources, options) — bit-identical outputs
// under 1, 2, and 8 concurrent evaluations — and the anytime knobs only
// ever tighten the envelope.

#include "pdb/compiler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "oracle_harness.h"
#include "pdb/plan.h"
#include "pdb/query.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mrsl {
namespace {

using oracle_harness::ForEachWorldChoices;
using oracle_harness::RandomBid;
using oracle_harness::RandomPlan;
using oracle_harness::SmallDb;
using oracle_harness::ThreeAttrSchema;
using oracle_harness::TrueMarginal;
using oracle_harness::TwoAttrSchema;

// The two-block database whose self-join-project is the canonical
// unsafe shape (same fixture as PlanTest.UnsafePlanYieldsBounds...).
ProbDatabase CorrelatedDb() {
  ProbDatabase db(TwoAttrSchema());
  Block b1;
  b1.alternatives.push_back({Tuple({0, 0}), 0.3});
  b1.alternatives.push_back({Tuple({1, 0}), 0.7});
  EXPECT_TRUE(db.AddBlock(b1).ok());
  Block b2;
  b2.alternatives.push_back({Tuple({0, 1}), 0.5});
  b2.alternatives.push_back({Tuple({1, 1}), 0.4});
  EXPECT_TRUE(db.AddBlock(b2).ok());
  return db;
}

TEST(CompilerTest, SafePlansMatchExactEvaluator) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  std::vector<PlanPtr> plans;
  plans.push_back(ScanPlan(0));
  plans.push_back(SelectPlan(Predicate::Eq(0, 1), ScanPlan(0)));
  plans.push_back(ProjectPlan({1}, ScanPlan(0)));
  plans.push_back(
      ProjectPlan({0}, SelectPlan(Predicate::Eq(1, 1), ScanPlan(0))));

  for (size_t pi = 0; pi < plans.size(); ++pi) {
    auto baseline = EvaluatePlan(*plans[pi], sources);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(baseline->safe) << "fixture must be safe, plan " << pi;
    auto compiled = CompileQuery(*plans[pi], sources);
    ASSERT_TRUE(compiled.ok()) << "plan " << pi;
    EXPECT_TRUE(compiled->stats.plan_safe) << "plan " << pi;
    EXPECT_TRUE(compiled->result.safe) << "plan " << pi;
    EXPECT_EQ(compiled->stats.mean_width_final, 0.0) << "plan " << pi;

    ASSERT_EQ(compiled->result.rows.size(), baseline->rows.size())
        << "plan " << pi;
    for (size_t r = 0; r < baseline->rows.size(); ++r) {
      EXPECT_EQ(compiled->result.rows[r].tuple.values(),
                baseline->rows[r].tuple.values());
      EXPECT_NEAR(compiled->result.rows[r].prob.lo,
                  baseline->rows[r].prob.lo, 1e-12);
      EXPECT_NEAR(compiled->result.rows[r].prob.hi,
                  baseline->rows[r].prob.hi, 1e-12);
    }
    auto exists = EvaluateExists(*plans[pi], sources);
    auto count = EvaluateCount(*plans[pi], sources);
    ASSERT_TRUE(exists.ok());
    ASSERT_TRUE(count.ok());
    EXPECT_NEAR(compiled->exists.prob.lo, exists->prob.lo, 1e-12);
    EXPECT_NEAR(compiled->exists.prob.hi, exists->prob.hi, 1e-12);
    EXPECT_NEAR(compiled->count.expected.lo, count->expected.lo, 1e-12);
    EXPECT_NEAR(compiled->count.expected.hi, count->expected.hi, 1e-12);
  }
}

TEST(CompilerTest, CorrelatedSelfJoinRefinesToEnumeratedTruth) {
  // project(nw; join(scan, scan; inc=inc)): the baseline must
  // dissociate, while the lattice search (default budget) conditions
  // the two shared blocks away entirely and lands on the exact answer.
  ProbDatabase db = CorrelatedDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));

  auto baseline = EvaluatePlan(*plan, sources);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->safe);
  auto base_marginals = DistinctMarginals(*baseline, sources);

  auto compiled = CompileQuery(*plan, sources);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled->stats.plan_safe);
  EXPECT_GT(compiled->stats.groups_total, 0u);
  EXPECT_GT(compiled->stats.worlds_expanded, 0u);
  EXPECT_LE(compiled->stats.mean_width_final,
            compiled->stats.mean_width_base);

  std::map<std::vector<ValueId>, ProbInterval> base;
  for (const DistinctMarginal& m : base_marginals) {
    base[m.tuple.values()] = m.prob;
  }
  for (const DistinctMarginal& m : compiled->marginals) {
    double truth = TrueMarginal(*plan, db, m.tuple);
    // The default world budget fully conditions this tiny core: the
    // envelope must have collapsed onto the enumerated truth.
    EXPECT_NEAR(m.prob.lo, truth, 1e-9) << m.tuple.ToString(db.schema());
    EXPECT_NEAR(m.prob.hi, truth, 1e-9) << m.tuple.ToString(db.schema());
    // And it must be nested in the baseline dissociation interval.
    auto it = base.find(m.tuple.values());
    ASSERT_TRUE(it != base.end());
    EXPECT_GE(m.prob.lo, it->second.lo - 1e-9);
    EXPECT_LE(m.prob.hi, it->second.hi + 1e-9);
  }

  // EXISTS refines through the same lattice.
  double exists_truth = 0.0;
  ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices, double p) {
    auto bag = EvaluatePlanInWorld(*plan, sources, {choices});
    ASSERT_TRUE(bag.ok());
    if (!bag->empty()) exists_truth += p;
  });
  EXPECT_NEAR(compiled->exists.prob.lo, exists_truth, 1e-9);
  EXPECT_NEAR(compiled->exists.prob.hi, exists_truth, 1e-9);
}

// The oracle-anchored corpus: safe, correlated, and adversarial
// fixtures plus a randomized sweep. Every compiled interval must
// bracket the Monte-Carlo estimate within the oracle's confidence
// half-width (20k trials -> binomial SE <= 0.0035; 0.02 is the same
// ~5.7 sigma band the existing differential suites use).
void ExpectCompiledBracketsOracle(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    uint64_t seed, const CompileOptions& options = {}) {
  auto compiled = CompileQuery(plan, sources, options);
  ASSERT_TRUE(compiled.ok());

  OracleOptions oo;
  oo.trials = 20000;
  oo.seed = seed;
  auto oracle = MonteCarloPlanOracle(plan, sources, oo);
  ASSERT_TRUE(oracle.ok());
  const double tol = 0.02;  // CI half-width at 20k trials

  std::map<std::vector<ValueId>, double> freq;
  for (const ProbTuple& pt : oracle->marginals) {
    freq[pt.tuple.values()] = pt.prob;
  }
  for (const DistinctMarginal& m : compiled->marginals) {
    auto it = freq.find(m.tuple.values());
    double f = it == freq.end() ? 0.0 : it->second;
    EXPECT_LE(m.prob.lo - tol, f) << "seed " << seed;
    EXPECT_GE(m.prob.hi + tol, f) << "seed " << seed;
  }
  // Every tuple the oracle saw must be predicted by the compiler.
  for (const auto& [values, f] : freq) {
    bool found = false;
    for (const DistinctMarginal& m : compiled->marginals) {
      found = found || m.tuple.values() == values;
    }
    EXPECT_TRUE(found) << "oracle tuple missing from compiled result (freq "
                       << f << ", seed " << seed << ")";
  }
  EXPECT_LE(compiled->exists.prob.lo - tol, oracle->exists);
  EXPECT_GE(compiled->exists.prob.hi + tol, oracle->exists);

  const double count_tol =
      0.05 * std::max(1.0, compiled->count.expected.hi -
                               compiled->count.expected.lo + 1.0) +
      0.05 * std::max(1.0, compiled->count.expected.hi);
  EXPECT_LE(compiled->count.expected.lo - count_tol, oracle->expected_count);
  EXPECT_GE(compiled->count.expected.hi + count_tol, oracle->expected_count);
}

TEST(CompilerConformanceTest, FixturePlansBracketOracle) {
  ProbDatabase small = SmallDb();
  ProbDatabase corr = CorrelatedDb();
  for (const ProbDatabase* db : {&small, &corr}) {
    std::vector<const ProbDatabase*> sources = {db};
    std::vector<PlanPtr> plans;
    // Safe shapes.
    plans.push_back(ScanPlan(0));
    plans.push_back(ProjectPlan({0}, ScanPlan(0)));
    // The canonical correlated shape.
    plans.push_back(
        ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0)));
    // Adversarial: a three-way self-join chain projected to one
    // attribute — every row correlates with every other through two
    // join levels.
    plans.push_back(ProjectPlan(
        {1}, JoinPlan(JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0), ScanPlan(0),
                      1, 1)));
    // Adversarial: project BOTH attrs of a self-join (groups of size 1
    // with composite non-exact lineage).
    plans.push_back(
        ProjectPlan({0, 1}, JoinPlan(ScanPlan(0), ScanPlan(0), 1, 1)));
    uint64_t seed = 0x5EED0;
    for (const PlanPtr& plan : plans) {
      ExpectCompiledBracketsOracle(*plan, sources, seed++);
    }
  }
}

TEST(CompilerConformanceTest, RandomizedCorpusBracketsOracle) {
  Schema schema = ThreeAttrSchema();
  for (uint64_t seed : {7u, 19u, 41u}) {
    Rng rng(seed ^ 0xB0117EDULL);
    ProbDatabase db1 = RandomBid(schema, &rng);
    ProbDatabase db2 = RandomBid(schema, &rng);
    std::vector<const ProbDatabase*> sources = {&db1, &db2};
    for (int trial = 0; trial < 4; ++trial) {
      size_t arity = 0;
      PlanPtr plan = RandomPlan(sources, &rng, &arity);
      ExpectCompiledBracketsOracle(*plan, sources,
                                   seed * 101 + static_cast<uint64_t>(trial));
      // Anytime knobs must preserve soundness at every setting.
      CompileOptions tiny;
      tiny.max_worlds_per_group = 4;
      ExpectCompiledBracketsOracle(*plan, sources, seed * 103, tiny);
    }
  }
}

// With budget_ms == 0 the compiler reads no clock: its output is a pure
// function of (plan, sources, options), so 1, 2, and 8 concurrent
// compilations must produce bit-identical envelopes — the same
// determinism contract the oracle and the columnar executor already
// honor.
TEST(CompilerConformanceTest, BitIdenticalAcrossThreadCounts) {
  ProbDatabase db = CorrelatedDb();
  std::vector<const ProbDatabase*> sources = {&db};
  std::vector<PlanPtr> plans;
  plans.push_back(ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0)));
  plans.push_back(
      ProjectPlan({0, 1}, JoinPlan(ScanPlan(0), ScanPlan(0), 1, 1)));
  plans.push_back(SelectPlan(Predicate::Eq(0, 1), ScanPlan(0)));

  // Reference: sequential compilation.
  std::vector<CompiledQuery> reference;
  for (const PlanPtr& plan : plans) {
    auto c = CompileQuery(*plan, sources);
    ASSERT_TRUE(c.ok());
    reference.push_back(std::move(c).value());
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::vector<CompiledQuery> got(plans.size());
    ThreadPool pool(threads);
    pool.ParallelFor(plans.size(), threads, [&](size_t i) {
      auto c = CompileQuery(*plans[i], sources);
      ASSERT_TRUE(c.ok());
      got[i] = std::move(c).value();
    });
    for (size_t i = 0; i < plans.size(); ++i) {
      ASSERT_EQ(got[i].marginals.size(), reference[i].marginals.size());
      for (size_t m = 0; m < reference[i].marginals.size(); ++m) {
        EXPECT_EQ(got[i].marginals[m].tuple, reference[i].marginals[m].tuple);
        EXPECT_EQ(got[i].marginals[m].prob.lo,
                  reference[i].marginals[m].prob.lo);
        EXPECT_EQ(got[i].marginals[m].prob.hi,
                  reference[i].marginals[m].prob.hi);
      }
      EXPECT_EQ(got[i].exists.prob.lo, reference[i].exists.prob.lo);
      EXPECT_EQ(got[i].exists.prob.hi, reference[i].exists.prob.hi);
      EXPECT_EQ(got[i].count.expected.lo, reference[i].count.expected.lo);
      EXPECT_EQ(got[i].count.expected.hi, reference[i].count.expected.hi);
      EXPECT_EQ(got[i].stats.worlds_expanded,
                reference[i].stats.worlds_expanded);
    }
  }
}

TEST(CompilerTest, AnytimeWorldBudgetOnlyTightens) {
  ProbDatabase db = CorrelatedDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));

  double prev_width = 2.0;
  for (size_t worlds : {size_t{0}, size_t{2}, size_t{16}, size_t{4096}}) {
    CompileOptions opts;
    opts.max_worlds_per_group = worlds;
    auto compiled = CompileQuery(*plan, sources, opts);
    ASSERT_TRUE(compiled.ok());
    double width = compiled->stats.mean_width_final;
    EXPECT_LE(width, prev_width + 1e-12) << "worlds=" << worlds;
    EXPECT_LE(width, compiled->stats.mean_width_base + 1e-12);
    if (worlds == 0) {
      // No lattice budget: the envelope IS the fixed dissociation.
      EXPECT_EQ(compiled->stats.mean_width_final,
                compiled->stats.mean_width_base);
      EXPECT_EQ(compiled->stats.worlds_expanded, 0u);
    }
    prev_width = width;
  }
  // The full budget collapses this fixture to exact answers.
  EXPECT_NEAR(prev_width, 0.0, 1e-12);
}

TEST(CompilerTest, WidthTargetStopsEarly) {
  ProbDatabase db = CorrelatedDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));

  auto base = CompileQuery(*plan, sources, [] {
    CompileOptions o;
    o.max_worlds_per_group = 0;
    return o;
  }());
  ASSERT_TRUE(base.ok());
  double base_width = base->stats.mean_width_base;
  ASSERT_GT(base_width, 0.0) << "fixture must start with slack";

  // A target looser than the base width: met immediately, no worlds.
  CompileOptions loose;
  loose.width_target = base_width + 0.1;
  auto l = CompileQuery(*plan, sources, loose);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(l->stats.width_target_met);
  EXPECT_EQ(l->stats.groups_refined, 0u);

  // A tight target: refinement runs until the mean width reaches it.
  CompileOptions tight;
  tight.width_target = 0.5 * base_width;
  auto t = CompileQuery(*plan, sources, tight);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->stats.width_target_met);
  EXPECT_LE(t->stats.mean_width_final, tight.width_target + 1e-12);
}

TEST(CompilerTest, PropagationFastPathScoresAreRanksNotBounds) {
  ProbDatabase db = CorrelatedDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));

  CompileOptions opts;
  opts.propagation_only = true;
  auto compiled = CompileQuery(*plan, sources, opts);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->stats.propagation);
  EXPECT_EQ(compiled->stats.worlds_expanded, 0u);
  ASSERT_FALSE(compiled->marginals.empty());
  for (const DistinctMarginal& m : compiled->marginals) {
    EXPECT_TRUE(m.prob.exact());  // a score is a single number
    EXPECT_GE(m.prob.lo, 0.0);
    EXPECT_LE(m.prob.hi, 1.0);
  }
}

TEST(CompilerTest, CacheSuffixSeparatesCompilerConfigurations) {
  CompileOptions a;
  CompileOptions b;
  EXPECT_EQ(CompileCacheSuffix(a), CompileCacheSuffix(b));
  EXPECT_FALSE(CompileCacheSuffix(a).empty());

  b.width_target = 0.05;
  EXPECT_NE(CompileCacheSuffix(a), CompileCacheSuffix(b));
  b = a;
  b.budget_ms = 10.0;
  EXPECT_NE(CompileCacheSuffix(a), CompileCacheSuffix(b));
  b = a;
  b.max_worlds_per_group = 16;
  EXPECT_NE(CompileCacheSuffix(a), CompileCacheSuffix(b));
  b = a;
  b.propagation_only = true;
  EXPECT_NE(CompileCacheSuffix(a), CompileCacheSuffix(b));
}

}  // namespace
}  // namespace mrsl
