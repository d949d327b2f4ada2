// Tests for the versioned BID store: incremental re-derivation touches
// only dirtied components (asserted by counting the engine's inference
// work), results are bit-identical to from-scratch derivations at any
// thread count, snapshots round-trip byte-identically and fail cleanly
// when damaged, concurrent readers always observe one consistent epoch,
// and the plan cache invalidates at block granularity.

#include "pdb/store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bn/bayes_net.h"
#include "core/learner.h"
#include "pdb/snapshot_io.h"
#include "util/csv.h"
#include "util/fault_file.h"

namespace mrsl {
namespace {

Tuple T(std::vector<int> vals) {
  Tuple t(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    t.set_value(static_cast<AttrId>(i), vals[i]);
  }
  return t;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    bn_ = BayesNet::RandomInstance(Topology::Crown(4, 3), &rng);
    Relation train = bn_.SampleRelation(6000, &rng);
    schema_ = train.schema();
    LearnOptions lo;
    lo.support_threshold = 0.002;
    auto model = LearnModel(train, lo);
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();
  }

  // Three subsumption components over the incomplete rows, pinned apart
  // by their (attr0, attr1) prefixes:
  //   A: (0,0,?,?) <- subsumes -> (0,0,1,?)
  //   B: (1,1,?,?)
  //   C: (2,2,0,?), (2,2,?,0), both subsumed by (2,2,?,?)
  // plus three complete rows (certain blocks).
  Relation BaseRelation() {
    Relation rel(schema_);
    EXPECT_TRUE(rel.Append(T({0, 1, 2, 0})).ok());    // row 0 complete
    EXPECT_TRUE(rel.Append(T({0, 0, -1, -1})).ok());  // a1
    EXPECT_TRUE(rel.Append(T({0, 0, 1, -1})).ok());   // a2
    EXPECT_TRUE(rel.Append(T({1, 0, 2, 1})).ok());    // row 3 complete
    EXPECT_TRUE(rel.Append(T({1, 1, -1, -1})).ok());  // b1
    EXPECT_TRUE(rel.Append(T({2, 2, 0, -1})).ok());   // c1
    EXPECT_TRUE(rel.Append(T({2, 2, -1, 0})).ok());   // c2
    EXPECT_TRUE(rel.Append(T({2, 2, -1, -1})).ok());  // c3
    EXPECT_TRUE(rel.Append(T({2, 0, 1, 1})).ok());    // row 8 complete
    return rel;
  }

  StoreOptions SOpts() {
    StoreOptions so;
    so.workload.gibbs.samples = 120;
    so.workload.gibbs.burn_in = 20;
    so.workload.gibbs.seed = 4242;
    return so;
  }

  // Asserts bit-exact equality of two databases, block by block.
  static void ExpectBitIdentical(const ProbDatabase& a,
                                 const ProbDatabase& b) {
    ASSERT_EQ(a.num_blocks(), b.num_blocks());
    for (size_t i = 0; i < a.num_blocks(); ++i) {
      const Block& ba = a.block(i);
      const Block& bb = b.block(i);
      ASSERT_EQ(ba.alternatives.size(), bb.alternatives.size())
          << "block " << i;
      for (size_t j = 0; j < ba.alternatives.size(); ++j) {
        EXPECT_EQ(ba.alternatives[j].tuple, bb.alternatives[j].tuple)
            << "block " << i << " alt " << j;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(ba.alternatives[j].prob, bb.alternatives[j].prob)
            << "block " << i << " alt " << j;
      }
    }
  }

  BayesNet bn_;
  Schema schema_;
  MrslModel model_;
};

TEST_F(StoreTest, FirstCommitDerivesEverything) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.snapshot(), nullptr);

  auto stats = store.Commit(BaseRelation());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->components_total, 3u);
  EXPECT_EQ(stats->components_reinferred, 3u);
  EXPECT_EQ(stats->tuples_total, 6u);
  EXPECT_EQ(stats->tuples_reinferred, 6u);
  EXPECT_EQ(stats->blocks_total, 9u);
  EXPECT_EQ(stats->blocks_reused, 0u);
  EXPECT_EQ(engine.stats().tuples, 6u);

  SnapshotPtr snap = store.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->database().num_blocks(), snap->base().num_rows());
}

TEST_F(StoreTest, ApplyDeltaReinfersOnlyDirtyComponents) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  const uint64_t after_full = engine.stats().tuples;

  // Insert a fresh singleton component (1,2,?,?): disagrees with every
  // existing prefix, so nothing else is dirtied.
  RelationDelta insert_d;
  insert_d.inserts.push_back(T({1, 2, -1, -1}));
  auto stats = store.ApplyDelta(insert_d);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 2u);
  EXPECT_EQ(stats->components_total, 4u);
  EXPECT_EQ(stats->components_reinferred, 1u);
  EXPECT_EQ(stats->tuples_reinferred, 1u);
  // The engine saw exactly one new tuple — the inference-call count.
  EXPECT_EQ(engine.stats().tuples, after_full + 1);
  // Every pre-existing block was structurally reused.
  EXPECT_EQ(stats->blocks_reused, 9u);
  EXPECT_EQ(stats->blocks_total, 10u);

  // Updating a complete row triggers no inference at all.
  RelationDelta complete_d;
  complete_d.updates.push_back({0, T({1, 2, 0, 1})});
  stats = store.ApplyDelta(complete_d);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tuples_reinferred, 0u);
  EXPECT_EQ(engine.stats().tuples, after_full + 1);
  EXPECT_EQ(stats->blocks_reused, 9u);  // only the updated row rebuilt

  // Inserting (0,?,?,?) subsumes a1 and a2: component A (now 3 tuples)
  // is dirtied and re-inferred wholesale, B and C stay cached.
  RelationDelta subsume_d;
  subsume_d.inserts.push_back(T({0, -1, -1, -1}));
  stats = store.ApplyDelta(subsume_d);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->components_reinferred, 1u);
  EXPECT_EQ(stats->tuples_reinferred, 3u);
  EXPECT_EQ(engine.stats().tuples, after_full + 1 + 3);
}

TEST_F(StoreTest, DeletesDirtyOnlyTheirComponent) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  const uint64_t after_full = engine.stats().tuples;

  // Deleting c3 = (2,2,?,?) splits component C: the two survivors form
  // new (ordered) component keys, so they re-infer; A and B are
  // untouched.
  RelationDelta d;
  d.deletes.push_back(7);
  auto stats = store.ApplyDelta(d);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->index_stable);
  EXPECT_EQ(stats->tuples_reinferred, 2u);
  EXPECT_EQ(engine.stats().tuples, after_full + 2);
}

TEST_F(StoreTest, BitIdenticalToFromScratchAtAnyThreadCount) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  RelationDelta d1;
  d1.inserts.push_back(T({1, 2, -1, -1}));
  d1.updates.push_back({5, T({2, 2, 1, -1})});
  ASSERT_TRUE(store.ApplyDelta(d1).ok());
  RelationDelta d2;
  d2.inserts.push_back(T({0, -1, -1, -1}));
  d2.deletes.push_back(4);
  ASSERT_TRUE(store.ApplyDelta(d2).ok());

  SnapshotPtr incremental = store.snapshot();
  for (size_t threads : {1u, 2u, 8u}) {
    EngineOptions eo;
    eo.num_threads = threads;
    Engine fresh_engine(&model_, eo);
    BidStore fresh(&fresh_engine, SOpts());
    ASSERT_TRUE(fresh.Commit(incremental->base()).ok());
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectBitIdentical(incremental->database(),
                       fresh.snapshot()->database());
  }
}

TEST_F(StoreTest, SnapshotRoundTripIsByteIdentical) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  RelationDelta d;
  d.inserts.push_back(T({1, 2, -1, -1}));
  ASSERT_TRUE(store.ApplyDelta(d).ok());

  const std::string p1 = ::testing::TempDir() + "/store_rt_1.bin";
  const std::string p2 = ::testing::TempDir() + "/store_rt_2.bin";
  ASSERT_TRUE(store.SaveSnapshot(p1).ok());

  // Restoring re-runs zero inference: every component is in the file.
  Engine engine2(&model_);
  BidStore restored(&engine2, StoreOptions());
  ASSERT_TRUE(restored.Restore(p1).ok());
  EXPECT_EQ(engine2.stats().tuples, 0u);
  EXPECT_EQ(restored.epoch(), store.epoch());
  ExpectBitIdentical(store.snapshot()->database(),
                     restored.snapshot()->database());
  // The restored store adopts the saved derivation options.
  EXPECT_EQ(restored.options().workload.gibbs.samples,
            SOpts().workload.gibbs.samples);
  EXPECT_EQ(restored.options().workload.gibbs.seed,
            SOpts().workload.gibbs.seed);

  // save -> load -> save is byte-identical.
  ASSERT_TRUE(restored.SaveSnapshot(p2).ok());
  auto bytes1 = ReadFile(p1);
  auto bytes2 = ReadFile(p2);
  ASSERT_TRUE(bytes1.ok());
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(*bytes1, *bytes2);

  // A restored store keeps deriving incrementally and bit-identically.
  RelationDelta d2;
  d2.inserts.push_back(T({0, -1, -1, -1}));
  auto from_restored = restored.ApplyDelta(d2);
  auto from_original = store.ApplyDelta(d2);
  ASSERT_TRUE(from_restored.ok());
  ASSERT_TRUE(from_original.ok());
  EXPECT_EQ(from_restored->tuples_reinferred,
            from_original->tuples_reinferred);
  ExpectBitIdentical(store.snapshot()->database(),
                     restored.snapshot()->database());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST_F(StoreTest, CorruptedSnapshotsFailCleanly) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  const std::string path = ::testing::TempDir() + "/store_corrupt.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());

  Engine engine2(&model_);
  BidStore victim(&engine2, StoreOptions());

  // Truncation at several depths: header, payload boundary, mid-payload.
  const std::vector<size_t> truncations = {0, 4, 20, bytes->size() / 2,
                                           bytes->size() - 1};
  for (size_t keep : truncations) {
    ASSERT_TRUE(WriteFile(path, bytes->substr(0, keep)).ok());
    Status st = victim.Restore(path);
    EXPECT_FALSE(st.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "kept " << keep;
    EXPECT_EQ(victim.snapshot(), nullptr);  // state untouched
  }

  // A flipped payload byte trips the checksum.
  {
    std::string damaged = *bytes;
    damaged[damaged.size() - 3] ^= 0x40;
    ASSERT_TRUE(WriteFile(path, damaged).ok());
    Status st = victim.Restore(path);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
  }

  // Bad magic.
  {
    std::string damaged = *bytes;
    damaged[0] = 'X';
    ASSERT_TRUE(WriteFile(path, damaged).ok());
    EXPECT_EQ(victim.Restore(path).code(), StatusCode::kCorruption);
  }

  // The intact file still restores after all that.
  ASSERT_TRUE(WriteFile(path, *bytes).ok());
  EXPECT_TRUE(victim.Restore(path).ok());
  std::remove(path.c_str());
}

// Snapshot saves are atomic: fail the save at EVERY filesystem step
// (temp-file open, write, fsync, rename, directory sync) and the
// previously saved epoch must survive intact — a reader never sees a
// half-written file where its snapshot used to be.
TEST_F(StoreTest, SnapshotSaveIsAtomicUnderMidSaveCrashes) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  const std::string path = ::testing::TempDir() + "/atomic_save.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  auto original = ReadFile(path);
  ASSERT_TRUE(original.ok());

  // Move the store ahead so the interrupted save would write different
  // bytes than the file already holds.
  RelationDelta d;
  d.inserts.push_back(T({1, 2, -1, -1}));
  ASSERT_TRUE(store.ApplyDelta(d).ok());

  for (const char* fail_op : {"open", "write", "sync", "rename"}) {
    SCOPED_TRACE(std::string("failing op ") + fail_op);
    SetFaultHook([fail_op](const char* op, const std::string& target) {
      if (std::string(op) == fail_op &&
          target.find("atomic_save.bin") != std::string::npos) {
        return Status::IOError(std::string("injected ") + fail_op +
                               " crash");
      }
      return Status::OK();
    });
    Status saved = store.SaveSnapshot(path);
    SetFaultHook(nullptr);
    ASSERT_FALSE(saved.ok());

    // The old epoch is still there, byte for byte, and still restores.
    auto after = ReadFile(path);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *original);
    Engine engine2(&model_);
    BidStore restored(&engine2, StoreOptions());
    EXPECT_TRUE(restored.Restore(path).ok());
    EXPECT_EQ(restored.epoch(), 1u);
  }

  // A directory-sync failure after the rename may keep either epoch —
  // both are complete files; what it must never leave is a torn one.
  SetFaultHook([](const char* op, const std::string&) {
    // The syncdir check sees the parent directory, not the file.
    if (std::string(op) == "syncdir") {
      return Status::IOError("injected syncdir crash");
    }
    return Status::OK();
  });
  Status saved = store.SaveSnapshot(path);
  SetFaultHook(nullptr);
  EXPECT_FALSE(saved.ok());
  {
    Engine engine2(&model_);
    BidStore restored(&engine2, StoreOptions());
    EXPECT_TRUE(restored.Restore(path).ok());
  }

  // With the faults gone the save goes through and the file advances.
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  Engine engine3(&model_);
  BidStore advanced(&engine3, StoreOptions());
  ASSERT_TRUE(advanced.Restore(path).ok());
  EXPECT_EQ(advanced.epoch(), 2u);
  std::remove(path.c_str());
}

TEST_F(StoreTest, ConcurrentReadersSeeOneConsistentEpoch) {
  Engine engine(&model_);
  StoreOptions so = SOpts();
  so.workload.gibbs.samples = 40;  // keep the commit loop fast
  so.workload.gibbs.burn_in = 10;
  BidStore store(&engine, so);
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> consistent{true};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&]() {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotPtr snap = store.snapshot();
        // One block per row, monotone epochs, and the epoch's database
        // agrees with its own base relation — a torn epoch would break
        // at least one of these.
        if (snap == nullptr || snap->epoch() < last_epoch ||
            snap->database().num_blocks() != snap->base().num_rows()) {
          consistent.store(false);
          break;
        }
        for (size_t b = 0; b < snap->database().num_blocks(); ++b) {
          if (snap->base().row(b).IsComplete() &&
              snap->database().block(b).alternatives.size() != 1) {
            consistent.store(false);
            break;
          }
        }
        last_epoch = snap->epoch();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Alternate inserts and deletes so block counts keep moving; keep
  // committing until the readers have observably raced the writer (a
  // loaded machine can delay their start), bounded by a commit cap.
  size_t commits = 0;
  while (commits < 500 && (commits < 10 || reads.load() < 2000)) {
    RelationDelta d;
    if (commits % 2 == 0) {
      d.inserts.push_back(T({1, 2, -1, -1}));
    } else {
      d.deletes.push_back(
          static_cast<uint32_t>(store.snapshot()->base().num_rows() - 1));
    }
    ASSERT_TRUE(store.ApplyDelta(d).ok());
    ++commits;
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(consistent.load());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.epoch(), 1u + commits);
}

TEST_F(StoreTest, PlanCacheHitsAndBlockGranularInvalidation) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  // count rows with attr0 = label(0).
  const std::string plan_text = "count(select(" + schema_.attr(0).name() +
                                "=" + schema_.attr(0).label(0) + "; scan))";
  auto first = store.Query(plan_text);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto second = store.Query(plan_text);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->eval.get(), first->eval.get());

  // Row 3 is complete with attr0 = 1: updating it to another attr0 = 1
  // tuple rebuilds a block the plan can neither read now nor gain rows
  // from, so the entry survives the commit.
  RelationDelta harmless;
  harmless.updates.push_back({3, T({1, 0, 0, 0})});
  ASSERT_TRUE(store.ApplyDelta(harmless).ok());
  auto carried = store.Query(plan_text);
  ASSERT_TRUE(carried.ok());
  EXPECT_TRUE(carried->from_cache);
  EXPECT_EQ(carried->epoch, 2u);
  // ... and the carried answer matches a fresh evaluation.
  {
    Engine fresh_engine(&model_);
    BidStore fresh(&fresh_engine, SOpts());
    ASSERT_TRUE(fresh.Commit(store.snapshot()->base()).ok());
    auto recomputed = fresh.Query(plan_text);
    ASSERT_TRUE(recomputed.ok());
    EXPECT_EQ(carried->eval->count.expected.lo,
              recomputed->eval->count.expected.lo);
    EXPECT_EQ(carried->eval->count.expected.hi,
              recomputed->eval->count.expected.hi);
  }

  // Updating the same row to attr0 = 0 makes its block satisfy the
  // selection: the entry must be invalidated and re-evaluated.
  RelationDelta relevant;
  relevant.updates.push_back({3, T({0, 0, 0, 0})});
  ASSERT_TRUE(store.ApplyDelta(relevant).ok());
  auto after = store.Query(plan_text);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
  // One more certain row matches now: E[count] grows by exactly 1.
  EXPECT_EQ(after->eval->count.expected.lo,
            carried->eval->count.expected.lo + 1.0);

  // Deletes are not index-stable: everything is dropped.
  ASSERT_TRUE(store.Query(plan_text)->from_cache);
  RelationDelta del;
  del.deletes.push_back(0);
  ASSERT_TRUE(store.ApplyDelta(del).ok());
  EXPECT_FALSE(store.Query(plan_text)->from_cache);
}

// Satellite regression: compiled answers depend on the compiler
// configuration, so the cache key must carry it. Before the fix the key
// was epoch + canonical text only — an anytime query at width target A
// would be served a stale envelope computed for width target B, and a
// plain Query could be served a compiled envelope (or vice versa).
TEST_F(StoreTest, CompiledQueriesKeyTheCacheByCompilerConfiguration) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  // Self-join on the (incomplete) attr2 projected onto attr1: correlated
  // lineage, so different world budgets genuinely produce different
  // envelopes.
  const std::string a1 = schema_.attr(1).name();
  const std::string a2 = schema_.attr(2).name();
  const std::string plan_text =
      "project(" + a1 + "; join(scan; scan; " + a2 + "=" + a2 + "))";

  auto plain = store.Query(plan_text);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->from_cache);
  EXPECT_FALSE(plain->eval->compiled);

  CompileOptions refined;  // defaults: full world budget, no width target
  CompileOptions oblivious;
  oblivious.max_worlds_per_group = 0;  // envelope = the fixed dissociation

  // A compiled query must not be served the plain evaluator's entry...
  auto compiled = store.Query(plan_text, refined);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled->from_cache);
  EXPECT_TRUE(compiled->eval->compiled);

  // ...nor an envelope computed under a different world budget...
  auto base = store.Query(plan_text, oblivious);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base->from_cache);

  // ...nor one computed for a different width target (the original bug).
  CompileOptions wide = refined;
  wide.width_target = 0.5;
  CompileOptions narrow = refined;
  narrow.width_target = 0.05;
  auto at_wide = store.Query(plan_text, wide);
  auto at_narrow = store.Query(plan_text, narrow);
  ASSERT_TRUE(at_wide.ok());
  ASSERT_TRUE(at_narrow.ok());
  EXPECT_FALSE(at_wide->from_cache);
  EXPECT_FALSE(at_narrow->from_cache);
  EXPECT_NE(at_wide->eval.get(), at_narrow->eval.get());

  // Repeats at the SAME configuration hit and serve the same entry.
  auto again = store.Query(plan_text, oblivious);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(again->eval.get(), base->eval.get());
  auto plain_again = store.Query(plan_text);
  ASSERT_TRUE(plain_again.ok());
  EXPECT_TRUE(plain_again->from_cache);
  EXPECT_EQ(plain_again->eval.get(), plain->eval.get());
  EXPECT_FALSE(plain_again->eval->compiled);

  // Refinement never loosens the envelope relative to the base, and a
  // cached compiled body is clock-free (hit == miss byte-for-byte).
  EXPECT_LE(compiled->eval->compile_stats.mean_width_final,
            base->eval->compile_stats.mean_width_final);
  EXPECT_EQ(compiled->eval->compile_stats.compile_seconds, 0.0);
}

// Regression: an index-stable update that rewrites a row to a tuple
// some OTHER row already had reuses that tuple's block object, but the
// rewritten index still changed content — the plan cache must treat it
// as dirty (positional, not content-keyed, dirty tracking).
TEST_F(StoreTest, PlanCacheInvalidatesWhenRowCopiesAnExistingTuple) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  const std::string plan_text = "count(select(" + schema_.attr(0).name() +
                                "=" + schema_.attr(0).label(0) + "; scan))";
  auto before = store.Query(plan_text);
  ASSERT_TRUE(before.ok());

  // Row 3 is complete with attr0 = 1 (not matching); rewrite it to row
  // 0's exact tuple, which has attr0 = 0 (matching). The block object
  // is shared with row 0's, yet block index 3's content changed.
  RelationDelta d;
  d.updates.push_back({3, T({0, 1, 2, 0})});
  ASSERT_TRUE(store.ApplyDelta(d).ok());

  auto after = store.Query(plan_text);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
  EXPECT_EQ(after->eval->count.expected.lo,
            before->eval->count.expected.lo + 1.0);
}

// A pinned-snapshot reader (the server's QueryOn) finishing after a
// fresher evaluation was cached must not evict the servable entry with
// its stale one.
TEST_F(StoreTest, PlanCacheKeepsNewerEntryOverStaleInsert) {
  ProbDatabase db(schema_);
  PlanCache cache(4);
  auto fresh_eval = std::make_shared<PlanEvaluation>();
  auto stale_eval = std::make_shared<PlanEvaluation>();
  cache.Insert("p", ScanPlan(0), /*epoch=*/2, {}, fresh_eval);
  cache.Insert("p", ScanPlan(0), /*epoch=*/1, {}, stale_eval);
  EXPECT_EQ(cache.Lookup("p", 2).get(), fresh_eval.get());
  // A genuinely newer insert still replaces.
  auto newer_eval = std::make_shared<PlanEvaluation>();
  cache.Insert("p", ScanPlan(0), /*epoch=*/3, {}, newer_eval);
  EXPECT_EQ(cache.Lookup("p", 3).get(), newer_eval.get());
}

// An entry can only be carried forward by the commit that immediately
// follows its evaluation epoch: an older one (inserted by a reader
// pinned on a past snapshot while commits raced ahead) skipped an
// invalidation pass and must be dropped, however harmless the current
// commit's dirty set looks.
TEST_F(StoreTest, PlanCacheDropsEntriesThatSkippedACommit) {
  ProbDatabase db(schema_);
  PlanCache cache(4);
  auto eval = std::make_shared<PlanEvaluation>();
  cache.Insert("p", ScanPlan(0), /*epoch=*/1, {}, eval);
  ASSERT_NE(cache.Lookup("p", 1), nullptr);

  // Epoch jumps 1 -> 3 from this entry's point of view: drop it even
  // though the commit dirtied nothing.
  cache.OnCommit(/*new_epoch=*/3, /*index_stable=*/true, {}, db);
  EXPECT_EQ(cache.Lookup("p", 3), nullptr);

  // The adjacent-epoch entry does carry forward.
  cache.Insert("q", ScanPlan(0), /*epoch=*/2, {}, eval);
  cache.OnCommit(/*new_epoch=*/3, /*index_stable=*/true, {}, db);
  EXPECT_NE(cache.Lookup("q", 3), nullptr);
}

// QueryOn against one pinned snapshot answers every plan at that epoch, even when a commit lands between
// two of them, and duplicates against the pin hit the cache.
TEST_F(StoreTest, QueryOnPinsOneSnapshotAcrossCommits) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  const std::string count_plan = "count(select(" + schema_.attr(0).name() +
                                 "=" + schema_.attr(0).label(0) +
                                 "; scan))";
  const std::string exists_plan = "exists(scan)";
  const SnapshotPtr pinned = store.snapshot();
  auto count = store.QueryOn(pinned, count_plan);
  auto exists = store.QueryOn(pinned, exists_plan);
  auto count_again = store.QueryOn(pinned, count_plan);
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(exists.ok());
  ASSERT_TRUE(count_again.ok());
  EXPECT_EQ(count->epoch, 1u);
  EXPECT_EQ(exists->epoch, 1u);
  EXPECT_FALSE(count->from_cache);
  EXPECT_TRUE(count_again->from_cache);  // duplicate hits on the pin
  EXPECT_EQ(count_again->eval.get(), count->eval.get());

  // A commit lands mid-batch: the rest of the batch still answers on
  // the pinned epoch, a bad plan fails alone, and a pinned evaluation
  // computed after the commit matches the pre-commit answer bit for bit.
  RelationDelta d;
  d.inserts.push_back(T({1, 2, -1, -1}));
  ASSERT_TRUE(store.ApplyDelta(d).ok());
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_FALSE(store.QueryOn(pinned, "bogus(").ok());
  auto stale = store.QueryOn(pinned, exists_plan);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->epoch, 1u);
  EXPECT_EQ(stale->eval->exists.prob.lo, exists->eval->exists.prob.lo);
  EXPECT_EQ(stale->eval->exists.prob.hi, exists->eval->exists.prob.hi);

  // The current epoch still answers through Query/the cache as usual.
  auto fresh = store.Query(exists_plan);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epoch, 2u);
}

// QueryOn's Monte-Carlo cross-check is MonteCarloPlanOracle on the
// pinned snapshot, runs on cache hits and compiled misses alike, never
// enters the cache, and counts its trials in worlds_sampled.
TEST_F(StoreTest, QueryOnRunsTheOracleOnThePinnedSnapshot) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());
  const SnapshotPtr snap = store.snapshot();

  // The unsafe self-join of the compiler cache-key test above: its
  // compiled miss expands worlds of its own.
  const std::string a1 = schema_.attr(1).name();
  const std::string a2 = schema_.attr(2).name();
  const std::string plan_text =
      "project(" + a1 + "; join(scan; scan; " + a2 + "=" + a2 + "))";
  OracleOptions oo;
  oo.trials = 500;
  auto parsed = ParsePlan(plan_text, {&snap->database()});
  ASSERT_TRUE(parsed.ok());
  auto direct = MonteCarloPlanOracle(*parsed->plan, {&snap->database()}, oo);
  ASSERT_TRUE(direct.ok());
  const auto expect_direct = [&](const OracleResult& got) {
    EXPECT_EQ(got.trials, direct->trials);
    EXPECT_TRUE(CheckSchemasMatch(direct->schema, got.schema).ok());
    EXPECT_EQ(got.exists, direct->exists);
    EXPECT_EQ(got.expected_count, direct->expected_count);
    EXPECT_EQ(got.count_distribution, direct->count_distribution);
    ASSERT_EQ(got.marginals.size(), direct->marginals.size());
    for (size_t i = 0; i < got.marginals.size(); ++i) {
      EXPECT_EQ(got.marginals[i].tuple, direct->marginals[i].tuple) << i;
      EXPECT_EQ(got.marginals[i].prob, direct->marginals[i].prob) << i;
    }
  };

  auto plain = store.QueryOn(snap, plan_text);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->from_cache);
  EXPECT_EQ(plain->oracle.trials, 0u);
  EXPECT_EQ(plain->resources.worlds_sampled, 0u);

  auto hit = store.QueryOn(snap, plan_text, nullptr, TraceSpan(), &oo);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->eval.get(), plain->eval.get());
  expect_direct(hit->oracle);
  EXPECT_EQ(hit->resources.worlds_sampled, 500u);

  CompileOptions copts;
  auto compiled = store.QueryOn(snap, plan_text, &copts, TraceSpan(), &oo);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled->from_cache);
  ASSERT_TRUE(compiled->eval->compiled);
  EXPECT_GT(compiled->eval->compile_stats.worlds_expanded, 0u);
  expect_direct(compiled->oracle);
  EXPECT_EQ(compiled->resources.worlds_sampled,
            500u + compiled->eval->compile_stats.worlds_expanded);

  // The oracle never rides along in the cache.
  auto again = store.QueryOn(snap, plan_text);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(again->oracle.trials, 0u);
  EXPECT_EQ(again->resources.worlds_sampled, 0u);
}

// SerializeCurrentSnapshot (the GET /snapshot payload) returns exactly
// the bytes SaveSnapshot would write.
TEST_F(StoreTest, SerializedSnapshotBytesMatchTheSavedFile) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  EXPECT_FALSE(store.SerializeCurrentSnapshot().ok());  // no epoch yet
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  uint64_t epoch = 0;
  auto bytes = store.SerializeCurrentSnapshot(&epoch);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(epoch, 1u);
  const std::string path = ::testing::TempDir() + "/serialize_match.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  auto file_bytes = ReadFile(path);
  ASSERT_TRUE(file_bytes.ok());
  EXPECT_EQ(*bytes, *file_bytes);
  std::remove(path.c_str());
}

TEST_F(StoreTest, RejectsAllAtATimeMode) {
  Engine engine(&model_);
  StoreOptions so = SOpts();
  so.mode = SamplingMode::kAllAtATime;
  BidStore store(&engine, so);
  EXPECT_FALSE(store.Commit(BaseRelation()).ok());
}

// The epoch compare-and-swap guard behind concurrent POST /update: an
// index-addressed delta authored against epoch E must not apply after
// another commit moved the store past E.
TEST_F(StoreTest, ApplyDeltaHonorsExpectedEpoch) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  ASSERT_TRUE(store.Commit(BaseRelation()).ok());

  // Matching guard: applies.
  RelationDelta d1;
  d1.deletes.push_back(7);
  ASSERT_TRUE(store.ApplyDelta(d1, /*expected_epoch=*/1).ok());
  EXPECT_EQ(store.epoch(), 2u);

  // Stale guard (another commit won the race): FailedPrecondition and
  // nothing published.
  RelationDelta d2;
  d2.deletes.push_back(0);
  auto stale = store.ApplyDelta(d2, /*expected_epoch=*/1);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.epoch(), 2u);

  // expected_epoch = 0 skips the guard (the single-writer CLI path).
  ASSERT_TRUE(store.ApplyDelta(d2).ok());
  EXPECT_EQ(store.epoch(), 3u);
}

TEST_F(StoreTest, ApplyDeltaRequiresAnEpoch) {
  Engine engine(&model_);
  BidStore store(&engine, SOpts());
  RelationDelta d;
  d.inserts.push_back(T({0, 0, 0, 0}));
  EXPECT_EQ(store.ApplyDelta(d).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace mrsl
