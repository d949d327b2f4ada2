// Tests for the persistent inference engine: bit-equivalence with the
// legacy per-call path, thread-count-independent determinism, accuracy
// against exact inference, context reuse across successive batches, and
// the end-to-end batched APIs.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "bn/exact.h"
#include "core/infer_single.h"
#include "core/learner.h"
#include "core/tuple_dag.h"
#include "core/workload.h"
#include "expfw/metrics.h"

namespace mrsl {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(818);
    bn_ = BayesNet::RandomInstance(Topology::Crown(5, 2), &rng);
    Relation train = bn_.SampleRelation(12000, &rng);
    LearnOptions lo;
    lo.support_threshold = 0.002;
    auto model = LearnModel(train, lo);
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();

    Rng wl_rng(819);
    for (int i = 0; i < 50; ++i) {
      Tuple t = bn_.ForwardSample(&wl_rng);
      size_t k = 1 + wl_rng.UniformInt(3);
      for (size_t j = 0; j < k; ++j) {
        t.set_value(static_cast<AttrId>(wl_rng.UniformInt(5)),
                    kMissingValue);
      }
      workload_.push_back(std::move(t));
    }
  }

  WorkloadOptions WOpts() {
    WorkloadOptions o;
    o.gibbs.samples = 300;
    o.gibbs.burn_in = 40;
    o.gibbs.seed = 77;
    return o;
  }

  BayesNet bn_;
  MrslModel model_;
  std::vector<Tuple> workload_;
};

// The determinism contract: InferBatch must reproduce, bit for bit, the
// pre-refactor reference — each DAG component run through the sequential
// RunWorkload with its WorkloadComponentSeed, stitched back by node. The
// batch repeats some tuples: duplicates share their node's result, and
// every output is aligned with its input and normalized.
TEST_F(EngineTest, BatchMatchesPerComponentSequentialReference) {
  std::vector<Tuple> batch_input = workload_;
  for (size_t i : {0u, 1u, 0u}) batch_input.push_back(workload_[i]);
  for (SamplingMode mode :
       {SamplingMode::kTupleAtATime, SamplingMode::kTupleDag,
        SamplingMode::kIndependentProduct}) {
    TupleDag dag(batch_input);
    auto components = dag.Components();
    std::vector<const JointDist*> by_node(dag.num_nodes(), nullptr);
    std::vector<std::vector<JointDist>> sub_results(components.size());
    for (size_t c = 0; c < components.size(); ++c) {
      std::vector<Tuple> sub;
      for (uint32_t node : components[c]) sub.push_back(dag.node(node));
      WorkloadOptions opts = WOpts();
      opts.gibbs.seed = WorkloadComponentSeed(opts.gibbs.seed, sub);
      auto result = RunWorkload(model_, sub, mode, opts);
      ASSERT_TRUE(result.ok());
      sub_results[c] = std::move(result).value();
      for (size_t i = 0; i < components[c].size(); ++i) {
        by_node[components[c][i]] = &sub_results[c][i];
      }
    }

    Engine engine(&model_);
    WorkloadStats stats;
    auto batch = engine.InferBatch(batch_input, mode, WOpts(), &stats);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), batch_input.size());
    for (size_t pos = 0; pos < batch_input.size(); ++pos) {
      EXPECT_EQ((*batch)[pos].probs(),
                by_node[dag.workload_to_node()[pos]]->probs())
          << "mode=" << SamplingModeName(mode) << " pos=" << pos;
      EXPECT_EQ((*batch)[pos].vars(), batch_input[pos].MissingAttrs());
      EXPECT_NEAR((*batch)[pos].Sum(), 1.0, 1e-9);
    }
    const size_t n = workload_.size();
    EXPECT_EQ((*batch)[n].probs(), (*batch)[0].probs());
    EXPECT_EQ((*batch)[n + 1].probs(), (*batch)[1].probs());
    EXPECT_EQ((*batch)[n + 2].probs(), (*batch)[0].probs());
    if (mode != SamplingMode::kIndependentProduct) {  // product: no Gibbs
      EXPECT_GT(stats.points_sampled, 0u);
    }
    // Distinct tuples add up across components to the global dedup count.
    EXPECT_EQ(stats.distinct_tuples, dag.num_nodes());
  }
}

TEST_F(EngineTest, DeterministicAcrossThreadCounts) {
  for (SamplingMode mode :
       {SamplingMode::kTupleAtATime, SamplingMode::kTupleDag}) {
    std::vector<std::vector<JointDist>> results;
    for (size_t threads : {1u, 2u, 8u}) {
      EngineOptions eo;
      eo.num_threads = threads;
      Engine engine(&model_, eo);
      EXPECT_EQ(engine.num_threads(), threads);
      auto dists = engine.InferBatch(workload_, mode, WOpts());
      ASSERT_TRUE(dists.ok());
      results.push_back(std::move(dists).value());
    }
    for (size_t r = 1; r < results.size(); ++r) {
      ASSERT_EQ(results[r].size(), results[0].size());
      for (size_t i = 0; i < results[0].size(); ++i) {
        EXPECT_EQ(results[r][i].probs(), results[0][i].probs())
            << "mode=" << SamplingModeName(mode) << " thread config " << r
            << " diverged at " << i;
      }
    }
  }
}

// Per-component seeding changes the sampled streams, not their quality:
// the batched DAG derivation is as close to exact inference as one
// sequential RunWorkload chain over the whole workload.
TEST_F(EngineTest, AccuracyComparableToSequential) {
  EngineOptions eo;
  eo.num_threads = 8;
  Engine engine(&model_, eo);
  auto batch = engine.InferBatch(workload_, SamplingMode::kTupleDag, WOpts());
  auto seq =
      RunWorkload(model_, workload_, SamplingMode::kTupleDag, WOpts());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(seq.ok());
  AccuracyAccumulator batch_acc;
  AccuracyAccumulator seq_acc;
  for (size_t i = 0; i < workload_.size(); ++i) {
    auto truth = TrueDistribution(bn_, workload_[i]);
    ASSERT_TRUE(truth.ok());
    batch_acc.Add(KlDivergence(*truth, (*batch)[i]), false);
    seq_acc.Add(KlDivergence(*truth, (*seq)[i]), false);
  }
  EXPECT_NEAR(batch_acc.MeanKl(), seq_acc.MeanKl(), 0.05);
}

// Context reuse: successive batches on one engine reuse pooled contexts
// with warm CPD caches, and warm caches do not change results. The
// deterministic invariant is the cap — with at most N concurrent
// executors, the engine never constructs more than N contexts no matter
// how many batches run. (Asserting that batch 2 adds no contexts over
// batch 1's pool races on batch 1's scheduling-dependent high-water
// mark and flaked; the cap does not.)
TEST_F(EngineTest, ContextReuseAcrossSuccessiveBatches) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(&model_, eo);
  auto first = engine.InferBatch(workload_, SamplingMode::kTupleDag,
                                 WOpts());
  ASSERT_TRUE(first.ok());
  EngineStats after_first = engine.stats();
  EXPECT_GT(engine.context_pool_size(), 0u);
  EXPECT_EQ(after_first.batches, 1u);
  EXPECT_EQ(after_first.tuples, workload_.size());

  auto second = engine.InferBatch(workload_, SamplingMode::kTupleDag,
                                  WOpts());
  ASSERT_TRUE(second.ok());
  auto third = engine.InferBatch(workload_, SamplingMode::kTupleDag,
                                 WOpts());
  ASSERT_TRUE(third.ok());
  EngineStats after_third = engine.stats();

  // Three batches, many components each — still at most num_threads
  // contexts ever constructed: the later batches ran on reused ones.
  EXPECT_LE(after_third.contexts_created, 2u);
  EXPECT_LE(engine.context_pool_size(), 2u);
  // The repeat batches were served from the warm caches...
  EXPECT_GT(after_third.cache_hits, after_first.cache_hits);
  EXPECT_LT((after_third.cpd_evaluations - after_first.cpd_evaluations) / 2,
            after_first.cpd_evaluations);
  // ...and warm caches are invisible in the results.
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].probs(), (*second)[i].probs()) << "i=" << i;
    EXPECT_EQ((*first)[i].probs(), (*third)[i].probs()) << "i=" << i;
  }
}

TEST_F(EngineTest, SingleTupleInferMatchesSingletonBatch) {
  Engine engine(&model_);
  auto single = engine.Infer(workload_[0], WOpts());
  auto batch = engine.InferBatch({workload_[0]},
                                 SamplingMode::kTupleAtATime, WOpts());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(single->probs(), (*batch)[0].probs());
}

TEST_F(EngineTest, AllAtATimeRunsOnOneContext) {
  // Small workload: the single global chain is slow to hit rare evidence.
  std::vector<Tuple> small(workload_.begin(), workload_.begin() + 4);
  WorkloadOptions opts = WOpts();
  opts.gibbs.samples = 50;
  opts.max_total_cycles = 200000;
  Engine engine(&model_);
  auto a = engine.InferBatch(small, SamplingMode::kAllAtATime, opts);
  auto b = engine.InferBatch(small, SamplingMode::kAllAtATime, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].probs(), (*b)[i].probs());
  }
}

TEST_F(EngineTest, InferAttributeMatchesFreeFunction) {
  Engine engine(&model_);
  VotingOptions voting;
  for (size_t i = 0; i < 10; ++i) {
    const Tuple& t = workload_[i];
    AttrId attr = t.MissingAttrs()[0];
    auto pooled = engine.InferAttribute(t, attr, voting);
    auto free_fn = InferSingleAttribute(model_, t, attr, voting);
    ASSERT_TRUE(pooled.ok());
    ASSERT_TRUE(free_fn.ok());
    EXPECT_EQ(pooled->probs(), free_fn->probs()) << "i=" << i;
  }
  EXPECT_FALSE(
      engine.InferAttribute(workload_[0], model_.num_attrs(), voting).ok());
}

TEST_F(EngineTest, DeriveBatchCoversIncompleteRowsInOrder) {
  Relation rel(model_.schema());
  Rng rng(820);
  for (int i = 0; i < 30; ++i) {
    Tuple t = bn_.ForwardSample(&rng);
    if (i % 3 == 0) {
      t.set_value(static_cast<AttrId>(rng.UniformInt(5)), kMissingValue);
    }
    ASSERT_TRUE(rel.Append(std::move(t)).ok());
  }
  Engine engine(&model_);
  auto dists =
      engine.DeriveBatch(rel, SamplingMode::kTupleDag, WOpts());
  ASSERT_TRUE(dists.ok());
  const auto& incomplete = rel.IncompleteRowIndices();
  ASSERT_EQ(dists->size(), incomplete.size());
  for (size_t i = 0; i < incomplete.size(); ++i) {
    EXPECT_EQ((*dists)[i].vars(),
              rel.row(incomplete[i]).MissingAttrs());
    EXPECT_NEAR((*dists)[i].Sum(), 1.0, 1e-9);
  }
}

TEST_F(EngineTest, EmptyBatchAndValidation) {
  Engine engine(&model_);
  WorkloadStats stats;
  auto empty = engine.InferBatch({}, SamplingMode::kTupleDag, WOpts(),
                                 &stats);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(stats.points_sampled, 0u);

  // A complete tuple is rejected, whichever component it lands in.
  Rng rng(821);
  std::vector<Tuple> bad = workload_;
  bad.push_back(bn_.ForwardSample(&rng));
  auto result = engine.InferBatch(bad, SamplingMode::kTupleDag, WOpts());
  EXPECT_FALSE(result.ok());
}

TEST(EngineOwnershipTest, OwningEngineOutlivesSourceModel) {
  Rng rng(822);
  BayesNet bn = BayesNet::RandomInstance(Topology::Chain(4, 2), &rng);
  Relation train = bn.SampleRelation(4000, &rng);
  LearnOptions lo;
  lo.support_threshold = 0.01;
  auto model = LearnModel(train, lo);
  ASSERT_TRUE(model.ok());

  Tuple t = bn.ForwardSample(&rng);
  t.set_value(1, kMissingValue);

  Engine engine(std::move(model).value());  // takes ownership
  WorkloadOptions opts;
  opts.gibbs.samples = 100;
  opts.gibbs.burn_in = 20;
  auto dist = engine.Infer(t, opts);
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(dist->Sum(), 1.0, 1e-9);
  EXPECT_GT(engine.stats().tuples, 0u);
}

}  // namespace
}  // namespace mrsl
