// Unit tests for the columnar batch primitives (pdb/columnar.h): the
// CSR lineage table's append/materialize/gather operations, scan
// layout, the Select-over-Scan fusion, empty batches, full-filter
// selections, duplicate join keys in the hash index, group-id
// assignment order, and small end-to-end fixtures holding the batch evaluator to exact equality with the row
// reference.

#include "pdb/columnar.h"

#include <gtest/gtest.h>

#include <vector>

#include "pdb/plan.h"
#include "pdb/query.h"

namespace mrsl {
namespace {

Schema TwoAttrSchema() {
  auto s = Schema::Create(
      {Attribute("x", {"x0", "x1"}), Attribute("y", {"y0", "y1", "y2"})});
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

// Three blocks: certain, two-way, possibly absent — with duplicate
// values across blocks so projections actually group.
ProbDatabase SmallDb() {
  ProbDatabase db(TwoAttrSchema());
  Block b1;
  b1.alternatives.push_back({Tuple({0, 0}), 1.0});
  EXPECT_TRUE(db.AddBlock(b1).ok());
  Block b2;
  b2.alternatives.push_back({Tuple({0, 1}), 0.4});
  b2.alternatives.push_back({Tuple({1, 1}), 0.6});
  EXPECT_TRUE(db.AddBlock(b2).ok());
  Block b3;
  b3.alternatives.push_back({Tuple({0, 0}), 0.5});
  b3.alternatives.push_back({Tuple({1, 2}), 0.3});  // mass 0.8
  EXPECT_TRUE(db.AddBlock(b3).ok());
  return db;
}

Lineage SimpleLineage(uint32_t source, size_t block,
                      std::vector<uint32_t> alts) {
  Lineage lin;
  lin.simple = true;
  lin.source = source;
  lin.block = block;
  lin.alts = std::move(alts);
  lin.blocks = {Lineage::BlockKey(source, block)};
  return lin;
}

Lineage CompositeLineage(std::vector<uint64_t> keys) {
  Lineage lin;
  lin.blocks = std::move(keys);
  return lin;
}

TEST(LineageTableTest, AppendMaterializeRoundTrip) {
  LineageTable table;
  Lineage simple = SimpleLineage(1, 7, {0, 2});
  Lineage composite = CompositeLineage(
      {Lineage::BlockKey(0, 3), Lineage::BlockKey(1, 7)});
  table.Append(simple);
  table.Append(composite);
  ASSERT_EQ(table.num_rows(), 2u);

  Lineage got0 = table.MaterializeRow(0);
  EXPECT_TRUE(got0.simple);
  EXPECT_EQ(got0.source, simple.source);
  EXPECT_EQ(got0.block, simple.block);
  EXPECT_EQ(got0.alts, simple.alts);
  EXPECT_EQ(got0.blocks, simple.blocks);

  Lineage got1 = table.MaterializeRow(1);
  EXPECT_FALSE(got1.simple);
  EXPECT_TRUE(got1.alts.empty());
  EXPECT_EQ(got1.blocks, composite.blocks);
}

TEST(LineageTableTest, AppendFromCopiesRowsAcrossTables) {
  LineageTable src;
  src.Append(SimpleLineage(0, 1, {1}));
  src.Append(CompositeLineage({5, 9, 12}));
  LineageTable dst;
  dst.AppendFrom(src, 1);
  dst.AppendFrom(src, 0);
  ASSERT_EQ(dst.num_rows(), 2u);
  EXPECT_EQ(dst.MaterializeRow(0).blocks, src.MaterializeRow(1).blocks);
  EXPECT_EQ(dst.MaterializeRow(1).alts, src.MaterializeRow(0).alts);
}

TEST(LineageTableTest, KeepGathersSpansInPlace) {
  LineageTable table;
  table.Append(SimpleLineage(0, 0, {0}));
  table.Append(CompositeLineage({1, 2, 3}));
  table.Append(SimpleLineage(0, 2, {1, 3}));
  table.Append(CompositeLineage({40}));
  // Keep rows 1 and 3 — both span shapes move left past a dropped row.
  table.Keep({1, 3});
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.MaterializeRow(0).blocks, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(table.MaterializeRow(0).simple);
  EXPECT_EQ(table.MaterializeRow(1).blocks, (std::vector<uint64_t>{40}));

  // Identity selection is a no-op.
  table.Keep({0, 1});
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.MaterializeRow(0).blocks, (std::vector<uint64_t>{1, 2, 3}));

  // Empty selection empties the table.
  table.Keep({});
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_TRUE(table.keys.empty());
  EXPECT_TRUE(table.alts.empty());
}

TEST(ColumnBatchTest, ScanLayoutIsBlockMajorWithSimpleLineage) {
  ProbDatabase db = SmallDb();
  ColumnBatch batch = ScanToBatch(db, /*source=*/0);
  ASSERT_EQ(batch.num_rows(), 5u);
  ASSERT_EQ(batch.num_attrs(), 2u);
  EXPECT_TRUE(batch.safe);
  // Row 2 is block 1 alternative 1: values (1, 1), prob 0.6.
  EXPECT_EQ(batch.cols[0][2], 1);
  EXPECT_EQ(batch.cols[1][2], 1);
  EXPECT_EQ(batch.lo[2], 0.6);
  EXPECT_EQ(batch.hi[2], 0.6);
  Lineage lin = batch.lineage.MaterializeRow(2);
  EXPECT_TRUE(lin.simple);
  EXPECT_EQ(lin.block, 1u);
  EXPECT_EQ(lin.alts, (std::vector<uint32_t>{1}));
  EXPECT_EQ(lin.blocks, (std::vector<uint64_t>{Lineage::BlockKey(0, 1)}));
}

TEST(ColumnBatchTest, EmptyBatchRoundTrips) {
  ProbDatabase empty(TwoAttrSchema());
  ColumnBatch batch = ScanToBatch(empty, 0);
  EXPECT_EQ(batch.num_rows(), 0u);
  batch.Keep({});  // Keep on an empty batch is legal
  PlanResult result = BatchToPlanResult(std::move(batch));
  EXPECT_TRUE(result.rows.empty());
  EXPECT_TRUE(result.safe);
  EXPECT_EQ(result.schema.num_attrs(), 2u);
}

TEST(ColumnBatchTest, KeepAppliesSelectionVectorAcrossAllArrays) {
  ProbDatabase db = SmallDb();
  ColumnBatch batch = ScanToBatch(db, 0);
  batch.Keep({0, 2, 4});
  ASSERT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.cols[0][1], 1);  // old row 2
  EXPECT_EQ(batch.lo[1], 0.6);
  EXPECT_EQ(batch.lineage.MaterializeRow(2).block, 2u);  // old row 4
  EXPECT_EQ(batch.lineage.MaterializeRow(2).alts,
            (std::vector<uint32_t>{1}));
}

TEST(ColumnBatchTest, FullFilterSelectionYieldsEmptyResult) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  // No alternative has (x=x1 AND x=x0): the sweep drops every row.
  PlanPtr plan = SelectPlan(Predicate::Eq(0, 0).And(Predicate::Ne(0, 0)),
                            ScanPlan(0));
  auto col = EvaluatePlan(*plan, sources);
  auto row = EvaluatePlanRowwise(*plan, sources);
  ASSERT_TRUE(col.ok());
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(col->rows.empty());
  EXPECT_TRUE(row->rows.empty());
  EXPECT_TRUE(col->safe);

  // And a projection over the empty selection stays empty.
  PlanPtr projected = ProjectPlan({1}, plan);
  auto empty_proj = EvaluatePlan(*projected, sources);
  ASSERT_TRUE(empty_proj.ok());
  EXPECT_TRUE(empty_proj->rows.empty());
}

// Three attributes, six blocks of one to four alternatives, values
// repeated across blocks, one alternative a hair over probability 1 (the
// scan clamps it).
ProbDatabase ThreeAttrDb() {
  auto s = Schema::Create({Attribute("x", {"x0", "x1"}),
                           Attribute("y", {"y0", "y1", "y2"}),
                           Attribute("z", {"z0", "z1", "z2", "z3"})});
  EXPECT_TRUE(s.ok());
  ProbDatabase db(std::move(s).value());
  const std::vector<std::vector<Alternative>> blocks = {
      {{Tuple({0, 0, 0}), 1.0 + 1e-12}},
      {{Tuple({0, 1, 2}), 0.25}, {Tuple({1, 1, 3}), 0.5}},
      {{Tuple({1, 2, 0}), 0.1}, {Tuple({0, 0, 1}), 0.2},
       {Tuple({1, 0, 2}), 0.3}, {Tuple({0, 2, 3}), 0.4}},
      {{Tuple({1, 1, 1}), 0.6}},
      {{Tuple({0, 0, 2}), 0.7}, {Tuple({1, 2, 2}), 0.3}},
      {{Tuple({1, 0, 0}), 0.05}, {Tuple({0, 1, 1}), 0.15},
       {Tuple({1, 2, 3}), 0.35}},
  };
  for (const std::vector<Alternative>& alts : blocks) {
    Block b;
    b.alternatives = alts;
    EXPECT_TRUE(db.AddBlock(b).ok());
  }
  return db;
}

void ExpectBatchesIdentical(const ColumnBatch& got, const ColumnBatch& want) {
  EXPECT_EQ(got.schema.num_attrs(), want.schema.num_attrs());
  EXPECT_EQ(got.safe, want.safe);
  EXPECT_EQ(got.cols, want.cols);
  // Exact vector equality: the doubles must match bit for bit.
  EXPECT_EQ(got.lo, want.lo);
  EXPECT_EQ(got.hi, want.hi);
  const LineageTable& g = got.lineage;
  const LineageTable& w = want.lineage;
  EXPECT_EQ(g.keys, w.keys);
  EXPECT_EQ(g.key_off, w.key_off);
  EXPECT_EQ(g.simple, w.simple);
  EXPECT_EQ(g.source, w.source);
  EXPECT_EQ(g.block, w.block);
  EXPECT_EQ(g.alts, w.alts);
  EXPECT_EQ(g.alt_off, w.alt_off);
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
}

TEST(ColumnBatchTest, FusedScanEqualsScanThenSweepThenKeep) {
  ProbDatabase db = ThreeAttrDb();
  ProbDatabase empty(db.schema());
  struct Case {
    const char* name;
    Predicate pred;
    size_t rows;  // expected survivors on ThreeAttrDb
  };
  const std::vector<Case> cases = {
      {"eq", Predicate::Eq(1, 0), 5},
      {"ne", Predicate::Ne(2, 2), 9},
      {"three_atoms",
       Predicate::Eq(0, 1).And(Predicate::Ne(1, 1)).And(Predicate::Ne(2, 3)),
       4},
      {"matches_nothing", Predicate::Eq(0, 0).And(Predicate::Eq(0, 1)), 0},
      {"always_true", Predicate(), 13},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (const ProbDatabase* source : {&db, &empty}) {
      ColumnBatch want = ScanToBatch(*source, /*source=*/1);
      EXPECT_EQ(want.num_rows(), source->num_alternatives());
      want.Keep(SelectRows(want, c.pred));
      ColumnBatch got = ScanToBatch(*source, /*source=*/1, &c.pred);
      EXPECT_EQ(got.num_rows(), source == &db ? c.rows : 0u);
      ExpectBatchesIdentical(got, want);
    }
  }
  // The clamped alternative keeps its clamped probability when fused.
  const Predicate first = Predicate::Eq(2, 0).And(Predicate::Eq(1, 0));
  ColumnBatch clamped = ScanToBatch(db, 0, &first);
  ASSERT_EQ(clamped.num_rows(), 2u);
  EXPECT_EQ(clamped.lo[0], 1.0);
  EXPECT_EQ(clamped.lineage.MaterializeRow(1).block, 5u);
}

TEST(BuildKeyIndexTest, DuplicateKeysAccumulateInRowOrder) {
  std::vector<ValueId> key_col = {2, 0, 2, 1, 2, 0};
  auto index = BuildKeyIndex(key_col);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.at(2), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(index.at(0), (std::vector<uint32_t>{1, 5}));
  EXPECT_EQ(index.at(1), (std::vector<uint32_t>{3}));
}

TEST(AssignGroupIdsTest, GroupsNumberedInFirstSeenOrder) {
  ProbDatabase db = SmallDb();
  ColumnBatch batch = ScanToBatch(db, 0);
  // Project on x alone: values per row are 0,0,1,0,1.
  GroupIds groups = AssignGroupIds(batch, {0});
  ASSERT_EQ(groups.num_groups(), 2u);
  EXPECT_EQ(groups.group_of_row, (std::vector<uint32_t>{0, 0, 1, 0, 1}));
  EXPECT_EQ(groups.rep_row, (std::vector<uint32_t>{0, 2}));

  // Two-column grouping distinguishes (x, y) combinations.
  GroupIds pairs = AssignGroupIds(batch, {0, 1});
  EXPECT_EQ(pairs.num_groups(), 4u);  // (0,0) (0,1) (1,1) (1,2)
  EXPECT_EQ(pairs.group_of_row, (std::vector<uint32_t>{0, 1, 2, 0, 3}));
}

// Duplicate join keys on both sides: every (left, right) pair of
// matching alternatives must appear, left-major with right matches in
// row order, and the batch evaluator must agree with the row reference
// exactly — values, probabilities, and lineage.
TEST(ColumnarJoinTest, DuplicateJoinKeysMatchRowReferenceExactly) {
  ProbDatabase db1 = SmallDb();
  ProbDatabase db2 = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db1, &db2};
  PlanPtr plan = JoinPlan(ScanPlan(0), ScanPlan(1), 0, 0);
  auto col = EvaluatePlan(*plan, sources);
  auto row = EvaluatePlanRowwise(*plan, sources);
  ASSERT_TRUE(col.ok());
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(col->rows.size(), row->rows.size());
  EXPECT_GT(col->rows.size(), 5u);  // duplicate x keys fan out
  for (size_t r = 0; r < col->rows.size(); ++r) {
    EXPECT_EQ(col->rows[r].tuple.values(), row->rows[r].tuple.values());
    EXPECT_EQ(col->rows[r].prob.lo, row->rows[r].prob.lo);
    EXPECT_EQ(col->rows[r].prob.hi, row->rows[r].prob.hi);
    EXPECT_EQ(col->rows[r].lineage.blocks, row->rows[r].lineage.blocks);
  }
}

// A self-join on the same source exercises the same-block intersection
// (simple-event conjunction) and impossible-pair suppression in the
// batch path.
TEST(ColumnarJoinTest, SelfJoinSameBlockPairsMatchRowReference) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  PlanPtr plan = JoinPlan(ScanPlan(0), ScanPlan(0), 1, 1);
  auto col = EvaluatePlan(*plan, sources);
  auto row = EvaluatePlanRowwise(*plan, sources);
  ASSERT_TRUE(col.ok());
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(col->rows.size(), row->rows.size());
  for (size_t r = 0; r < col->rows.size(); ++r) {
    EXPECT_EQ(col->rows[r].tuple.values(), row->rows[r].tuple.values());
    EXPECT_EQ(col->rows[r].prob.lo, row->rows[r].prob.lo);
    EXPECT_EQ(col->rows[r].prob.hi, row->rows[r].prob.hi);
    EXPECT_EQ(col->rows[r].lineage.simple, row->rows[r].lineage.simple);
    EXPECT_EQ(col->rows[r].lineage.blocks, row->rows[r].lineage.blocks);
  }
}

// Projecting away a self-join's key forces dissociation: the batch
// disjoin's sort-unique key collection must produce the same lineage
// and Frechet bounds as the row rules' pairwise merging.
TEST(ColumnarProjectTest, CorrelatedGroupsDissociateIdentically) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  PlanPtr plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));
  auto col = EvaluatePlan(*plan, sources);
  auto row = EvaluatePlanRowwise(*plan, sources);
  ASSERT_TRUE(col.ok());
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(col->safe);
  EXPECT_EQ(col->safe, row->safe);
  ASSERT_EQ(col->rows.size(), row->rows.size());
  for (size_t r = 0; r < col->rows.size(); ++r) {
    EXPECT_EQ(col->rows[r].tuple.values(), row->rows[r].tuple.values());
    EXPECT_EQ(col->rows[r].prob.lo, row->rows[r].prob.lo);
    EXPECT_EQ(col->rows[r].prob.hi, row->rows[r].prob.hi);
    EXPECT_EQ(col->rows[r].lineage.blocks, row->rows[r].lineage.blocks);
  }
}

}  // namespace
}  // namespace mrsl
