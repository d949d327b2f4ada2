// Tests for the extensional plan algebra (pdb/plan.h): per-operator
// probability rules (independent vs. disjoint union, join products,
// same-block intersections, absent-mass handling), the safety check and
// its dissociation bounds, the plan parser, hand-computed fixtures on
// the paper's Fig 1 example, and the determinism contract of the
// Monte-Carlo plan oracle.

#include "pdb/plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "oracle_harness.h"
#include "paper_example.h"
#include "pdb/compiler.h"
#include "pdb/query.h"
#include "util/rng.h"

namespace mrsl {
namespace {

using oracle_harness::ForEachWorldChoices;
using oracle_harness::SmallDb;
using oracle_harness::TrueMarginal;
using oracle_harness::TwoAttrSchema;

TEST(ProbIntervalTest, ExactAndBounds) {
  ProbInterval e = ProbInterval::Exact(0.25);
  EXPECT_TRUE(e.exact());
  EXPECT_EQ(e.ToString(), "0.2500");
  ProbInterval b = ProbInterval::Bounds(0.2, 0.6);
  EXPECT_FALSE(b.exact());
  EXPECT_DOUBLE_EQ(b.mid(), 0.4);
  EXPECT_EQ(b.ToString(), "[0.2000, 0.6000]");
}

TEST(PlanTest, ScanProducesEveryAlternativeExactly) {
  ProbDatabase db = SmallDb();
  auto result = EvaluatePlan(*ScanPlan(0), {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  ASSERT_EQ(result->rows.size(), 5u);
  for (const PlanRow& row : result->rows) {
    EXPECT_TRUE(row.prob.exact());
    EXPECT_TRUE(row.lineage.simple);
    EXPECT_EQ(row.lineage.blocks.size(), 1u);
  }
  EXPECT_DOUBLE_EQ(result->rows[0].prob.lo, 1.0);
  EXPECT_DOUBLE_EQ(result->rows[1].prob.lo, 0.3);
  EXPECT_DOUBLE_EQ(result->rows[4].prob.lo, 0.4);
}

TEST(PlanTest, ScanValidatesSource) {
  ProbDatabase db = SmallDb();
  EXPECT_FALSE(EvaluatePlan(*ScanPlan(3), {&db}).ok());
  EXPECT_FALSE(PlanOutputSchema(*ScanPlan(1), {&db}).ok());
}

TEST(PlanTest, SelectFiltersRowsWithoutChangingProbabilities) {
  ProbDatabase db = SmallDb();
  auto plan = SelectPlan(Predicate::Eq(0, 1), ScanPlan(0));  // inc=100K
  auto result = EvaluatePlan(*plan, {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result->rows[0].prob.lo, 1.0);
  EXPECT_DOUBLE_EQ(result->rows[1].prob.lo, 0.7);
  EXPECT_DOUBLE_EQ(result->rows[2].prob.lo, 0.4);
}

TEST(PlanTest, ProjectDisjointUnionWithinBlock) {
  // Two alternatives of one block projecting to the same value: the
  // disjoint-union rule adds their probabilities, exactly.
  ProbDatabase db(TwoAttrSchema());
  Block b;
  b.alternatives.push_back({Tuple({0, 0}), 0.3});
  b.alternatives.push_back({Tuple({0, 1}), 0.4});
  ASSERT_TRUE(db.AddBlock(b).ok());
  auto result = EvaluatePlan(*ProjectPlan({0}, ScanPlan(0)), {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0].prob.exact());
  EXPECT_NEAR(result->rows[0].prob.lo, 0.7, 1e-12);
  // The merged event is still a simple alternative set of the block, so
  // downstream same-block combinations stay exact.
  EXPECT_TRUE(result->rows[0].lineage.simple);
  EXPECT_EQ(result->rows[0].lineage.alts.size(), 2u);
}

TEST(PlanTest, ProjectIndependentUnionAcrossBlocks) {
  // Two independent blocks each projecting to inc=50K with prob 0.5:
  // P = 1 - 0.5 * 0.5 = 0.75, exactly.
  ProbDatabase db(TwoAttrSchema());
  for (int i = 0; i < 2; ++i) {
    Block b;
    b.alternatives.push_back({Tuple({0, 0}), 0.5});
    b.alternatives.push_back({Tuple({1, 0}), 0.5});
    ASSERT_TRUE(db.AddBlock(b).ok());
  }
  auto result = EvaluatePlan(*ProjectPlan({0}, ScanPlan(0)), {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  std::map<ValueId, double> by_value;
  for (const PlanRow& row : result->rows) {
    EXPECT_TRUE(row.prob.exact());
    by_value[row.tuple.value(0)] = row.prob.lo;
  }
  EXPECT_NEAR(by_value[0], 0.75, 1e-12);
  EXPECT_NEAR(by_value[1], 0.75, 1e-12);
}

TEST(PlanTest, ProjectMatchesEnumeration) {
  // Every distinct projected value carries its exact appearance
  // probability, and every value some world produces is present.
  ProbDatabase db = SmallDb();
  auto plan = ProjectPlan({1}, ScanPlan(0));
  auto result = EvaluatePlan(*plan, {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  std::map<ValueId, double> truth;  // value -> P(it appears)
  ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices,
                              double p) {
    auto bag = EvaluatePlanInWorld(*plan, {&db}, {choices});
    ASSERT_TRUE(bag.ok());
    std::set<ValueId> present;
    for (const Tuple& t : *bag) present.insert(t.value(0));
    for (ValueId v : present) truth[v] += p;
  });
  ASSERT_EQ(result->rows.size(), truth.size());
  for (const PlanRow& row : result->rows) {
    EXPECT_TRUE(row.prob.exact());
    EXPECT_NEAR(row.prob.lo, truth[row.tuple.value(0)], 1e-12)
        << row.tuple.ToString(result->schema);
  }
}

TEST(PlanTest, ProjectHandlesAbsentMassBlocks) {
  // A lone block with mass 0.9: the projected tuple appears with
  // probability 0.9, not 1 — absence must be accounted for.
  ProbDatabase db(TwoAttrSchema());
  Block b;
  b.alternatives.push_back({Tuple({0, 1}), 0.5});
  b.alternatives.push_back({Tuple({1, 1}), 0.4});
  ASSERT_TRUE(db.AddBlock(b).ok());
  auto result = EvaluatePlan(*ProjectPlan({1}, ScanPlan(0)), {&db});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0].prob.exact());
  EXPECT_NEAR(result->rows[0].prob.lo, 0.9, 1e-12);
  EXPECT_NEAR(TrueMarginal(*ProjectPlan({1}, ScanPlan(0)), db,
                           Tuple(std::vector<ValueId>{1})),
              0.9, 1e-12);
}

TEST(PlanTest, JoinOfIndependentSourcesMultiplies) {
  // Certain x uncertain across two databases: probabilities multiply.
  ProbDatabase left(TwoAttrSchema());
  ASSERT_TRUE(left.AddCertain(Tuple({0, 0})).ok());
  ProbDatabase right(TwoAttrSchema());
  Block rb;
  rb.alternatives.push_back({Tuple({0, 1}), 0.5});
  rb.alternatives.push_back({Tuple({1, 1}), 0.4});
  ASSERT_TRUE(right.AddBlock(rb).ok());

  auto plan = JoinPlan(ScanPlan(0), ScanPlan(1), 0, 0);  // inc == inc
  auto result = EvaluatePlan(*plan, {&left, &right});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0].prob.exact());
  EXPECT_NEAR(result->rows[0].prob.lo, 1.0 * 0.5, 1e-12);
  EXPECT_EQ(result->schema.num_attrs(), 4u);
  AttrId id = 0;
  EXPECT_TRUE(result->schema.FindAttr("inc_r", &id));
}

TEST(PlanTest, SelfJoinSameBlockIntersectsAlternatives) {
  // Joining a database with itself: same-block row pairs are disjoint
  // alternatives — their conjunction is the alternative-set
  // intersection, so matching pairs keep their single-alternative
  // probability and mismatched pairs vanish. Still exact (safe).
  ProbDatabase db(TwoAttrSchema());
  Block b;
  b.alternatives.push_back({Tuple({0, 0}), 0.3});
  b.alternatives.push_back({Tuple({0, 1}), 0.4});  // same inc, different nw
  ASSERT_TRUE(db.AddBlock(b).ok());

  auto plan = JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0);  // inc == inc
  auto result = EvaluatePlan(*plan, {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  // Four candidate pairs; the two cross-alternative ones are impossible.
  ASSERT_EQ(result->rows.size(), 2u);
  for (const PlanRow& row : result->rows) {
    EXPECT_TRUE(row.prob.exact());
    // (alt x same alt) keeps the alternative's probability: x AND x = x.
    EXPECT_TRUE(std::abs(row.prob.lo - 0.3) < 1e-12 ||
                std::abs(row.prob.lo - 0.4) < 1e-12);
  }
  // Enumeration agrees.
  for (const PlanRow& row : result->rows) {
    EXPECT_NEAR(TrueMarginal(*plan, db, row.tuple), row.prob.lo, 1e-12);
  }
}

TEST(PlanTest, UnsafePlanYieldsBoundsThatBracketTruth) {
  // project(nw; join(scan, scan; inc=inc)) over one source: the join
  // rows grouped under one nw value share base blocks, so the project
  // must dissociate — and its [lo, hi] must bracket the enumerated
  // truth.
  ProbDatabase db(TwoAttrSchema());
  Block b1;
  b1.alternatives.push_back({Tuple({0, 0}), 0.3});
  b1.alternatives.push_back({Tuple({1, 0}), 0.7});
  ASSERT_TRUE(db.AddBlock(b1).ok());
  Block b2;
  b2.alternatives.push_back({Tuple({0, 1}), 0.5});
  b2.alternatives.push_back({Tuple({1, 1}), 0.4});
  ASSERT_TRUE(db.AddBlock(b2).ok());

  auto plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));
  auto result = EvaluatePlan(*plan, {&db});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->safe);
  ASSERT_FALSE(result->rows.empty());
  bool some_bounds = false;
  for (const PlanRow& row : result->rows) {
    double truth = TrueMarginal(*plan, db, row.tuple);
    EXPECT_LE(row.prob.lo - 1e-9, truth)
        << row.tuple.ToString(result->schema);
    EXPECT_GE(row.prob.hi + 1e-9, truth)
        << row.tuple.ToString(result->schema);
    some_bounds = some_bounds || !row.prob.exact();
  }
  EXPECT_TRUE(some_bounds);
}

TEST(PlanTest, ExistsMatchesEnumeration) {
  ProbDatabase db = SmallDb();
  for (const Predicate& pred :
       {Predicate::Eq(0, 0), Predicate::Eq(1, 1),
        Predicate::Eq(0, 1).And(Predicate::Eq(1, 0))}) {
    auto plan = SelectPlan(pred, ScanPlan(0));
    auto exists = EvaluateExists(*plan, {&db});
    ASSERT_TRUE(exists.ok());
    EXPECT_TRUE(exists->safe);
    EXPECT_TRUE(exists->prob.exact());
    double truth = 0.0;
    ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices,
                                double p) {
      auto bag = EvaluatePlanInWorld(*plan, {&db}, {choices});
      ASSERT_TRUE(bag.ok());
      if (!bag->empty()) truth += p;
    });
    EXPECT_NEAR(exists->prob.lo, truth, 1e-12);
  }
}

TEST(PlanTest, CountDistributionMatchesEnumeration) {
  ProbDatabase db = SmallDb();
  Predicate inc100 = Predicate::Eq(0, 1);
  Predicate nw500 = Predicate::Eq(1, 1);
  // A single select, and the same conjunction as stacked selects and
  // as one select.
  std::vector<CountResult> counts;
  for (const PlanPtr& plan :
       {SelectPlan(nw500, ScanPlan(0)),
        SelectPlan(nw500, SelectPlan(inc100, ScanPlan(0))),
        SelectPlan(inc100.And(nw500), ScanPlan(0))}) {
    auto count = EvaluateCount(*plan, {&db});
    ASSERT_TRUE(count.ok());
    EXPECT_TRUE(count->safe);
    EXPECT_TRUE(count->expected.exact());
    ASSERT_TRUE(count->has_distribution);
    std::vector<double> truth(db.num_blocks() + 1, 0.0);
    double truth_mean = 0.0;
    ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices,
                                double p) {
      auto bag = EvaluatePlanInWorld(*plan, {&db}, {choices});
      ASSERT_TRUE(bag.ok());
      truth[bag->size()] += p;
      truth_mean += p * static_cast<double>(bag->size());
    });
    EXPECT_NEAR(count->expected.lo, truth_mean, 1e-12);
    // The plan DP only emits Bernoullis for blocks that still have rows,
    // so its distribution may be shorter; compare entrywise.
    for (size_t k = 0; k < truth.size(); ++k) {
      double got = k < count->distribution.size() ? count->distribution[k]
                                                  : 0.0;
      EXPECT_NEAR(got, truth[k], 1e-12) << "count=" << k;
    }
    counts.push_back(*count);
  }
  // Selection composes: the stacked selects equal the conjunction.
  EXPECT_EQ(counts[1].expected.lo, counts[2].expected.lo);
  EXPECT_EQ(counts[1].distribution, counts[2].distribution);
}

TEST(PlanTest, CountExpectationExactEvenOnUnsafePlans) {
  // Expected bag count is a sum of row probabilities (linearity), so a
  // safe join keeps it exact and enumeration must agree.
  ProbDatabase db(TwoAttrSchema());
  Block b1;
  b1.alternatives.push_back({Tuple({0, 0}), 0.3});
  b1.alternatives.push_back({Tuple({1, 0}), 0.7});
  ASSERT_TRUE(db.AddBlock(b1).ok());
  Block b2;
  b2.alternatives.push_back({Tuple({0, 1}), 0.5});
  ASSERT_TRUE(db.AddBlock(b2).ok());

  auto plan = JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0);
  auto count = EvaluateCount(*plan, {&db});
  ASSERT_TRUE(count.ok());
  double truth = 0.0;
  ForEachWorldChoices(db, [&](const std::vector<int32_t>& choices,
                              double p) {
    auto bag = EvaluatePlanInWorld(*plan, {&db}, {choices});
    ASSERT_TRUE(bag.ok());
    truth += p * static_cast<double>(bag->size());
  });
  EXPECT_LE(count->expected.lo - 1e-9, truth);
  EXPECT_GE(count->expected.hi + 1e-9, truth);
  if (count->expected.exact()) {
    EXPECT_NEAR(count->expected.lo, truth, 1e-9);
  }
}

// --- Hand-computed fixtures on the paper's Fig 1 example -----------------

class PaperExamplePlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation rel = LoadFig1();
    ASSERT_GT(rel.num_rows(), 0u);
    schema_ = rel.schema();
    // Resolve value ids from labels (FromCsv assigns by first
    // appearance, so never hardcode).
    age20_ = Find("age", "20");
    age40_ = Find("age", "40");
    hs_ = Find("edu", "HS");
    bs_ = Find("edu", "BS");
    inc50_ = Find("inc", "50K");
    inc100_ = Find("inc", "100K");
    nw100_ = Find("nw", "100K");
    nw500_ = Find("nw", "500K");
    ASSERT_TRUE(schema_.FindAttr("inc", &inc_attr_));
    ASSERT_TRUE(schema_.FindAttr("nw", &nw_attr_));
    ASSERT_TRUE(schema_.FindAttr("edu", &edu_attr_));

    db_ = ProbDatabase(schema_);
    // Certain rows t2 and t4 of Fig 1.
    ASSERT_TRUE(db_.AddCertain(Tuple({age20_, bs_, inc50_, nw100_})).ok());
    ASSERT_TRUE(db_.AddCertain(Tuple({age20_, hs_, inc100_, nw500_})).ok());
    // Hand-made Δt for t1 = (20, HS, ?, ?).
    Block t1;
    t1.alternatives.push_back({Tuple({age20_, hs_, inc50_, nw100_}), 0.5});
    t1.alternatives.push_back({Tuple({age20_, hs_, inc50_, nw500_}), 0.3});
    t1.alternatives.push_back({Tuple({age20_, hs_, inc100_, nw500_}), 0.2});
    ASSERT_TRUE(db_.AddBlock(t1).ok());
    // Hand-made Δt for t16 = (40, HS, ?, 500K).
    Block t16;
    t16.alternatives.push_back({Tuple({age40_, hs_, inc50_, nw500_}), 0.7});
    t16.alternatives.push_back({Tuple({age40_, hs_, inc100_, nw500_}), 0.3});
    ASSERT_TRUE(db_.AddBlock(t16).ok());
  }

  ValueId Find(const std::string& attr, const std::string& label) {
    AttrId id = 0;
    EXPECT_TRUE(schema_.FindAttr(attr, &id));
    ValueId v = schema_.attr(id).Find(label);
    EXPECT_NE(v, kMissingValue) << attr << "=" << label;
    return v;
  }

  Schema schema_;
  ProbDatabase db_;
  ValueId age20_ = 0, age40_ = 0, hs_ = 0, bs_ = 0;
  ValueId inc50_ = 0, inc100_ = 0, nw100_ = 0, nw500_ = 0;
  AttrId inc_attr_ = 0, nw_attr_ = 0, edu_attr_ = 0;
};

TEST_F(PaperExamplePlanTest, HandComputedExistsAndCount) {
  // Q: inc = 50K AND nw = 500K. t2/t4 fail; t1 contributes 0.3, t16
  // contributes 0.7. Hand-computed: P(exists) = 1 - 0.7*0.3 = 0.79,
  // E[count] = 1.0, count distribution (0.21, 0.58, 0.21).
  Predicate pred = Predicate::Eq(inc_attr_, inc50_)
                       .And(Predicate::Eq(nw_attr_, nw500_));
  auto plan = SelectPlan(pred, ScanPlan(0));
  auto exists = EvaluateExists(*plan, {&db_});
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(exists->prob.exact());
  EXPECT_NEAR(exists->prob.lo, 0.79, 1e-12);

  auto count = EvaluateCount(*plan, {&db_});
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(count->expected.lo, 1.0, 1e-12);
  ASSERT_TRUE(count->has_distribution);
  ASSERT_GE(count->distribution.size(), 3u);
  EXPECT_NEAR(count->distribution[0], 0.21, 1e-12);
  EXPECT_NEAR(count->distribution[1], 0.58, 1e-12);
  EXPECT_NEAR(count->distribution[2], 0.21, 1e-12);
}

TEST_F(PaperExamplePlanTest, HandComputedProjection) {
  // π_inc over σ_nw=500K: inc=50K appears iff t1 picks its 0.3
  // alternative or t16 its 0.7 one: 1 - 0.7*0.3 = 0.79. inc=100K is
  // certain through t4.
  auto plan = ProjectPlan(
      {inc_attr_},
      SelectPlan(Predicate::Eq(nw_attr_, nw500_), ScanPlan(0)));
  auto result = EvaluatePlan(*plan, {&db_});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->safe);
  std::map<ValueId, double> by_value;
  for (const PlanRow& row : result->rows) {
    EXPECT_TRUE(row.prob.exact());
    by_value[row.tuple.value(0)] = row.prob.lo;
  }
  EXPECT_NEAR(by_value[inc50_], 0.79, 1e-12);
  EXPECT_NEAR(by_value[inc100_], 1.0, 1e-12);
}

TEST_F(PaperExamplePlanTest, ParserRoundTripsOnPaperSchema) {
  std::vector<const ProbDatabase*> sources = {&db_};
  auto parsed = ParsePlan(
      "count(select(inc=50K & nw=500K; scan))", sources);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, ParsedQuery::Kind::kCount);
  auto count = EvaluateCount(*parsed->plan, sources);
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(count->expected.lo, 1.0, 1e-12);

  // PlanToString output parses back to the same answers.
  auto rendered = PlanToString(*parsed->plan, sources);
  ASSERT_TRUE(rendered.ok());
  auto reparsed = ParsePlan(*rendered, sources);
  ASSERT_TRUE(reparsed.ok()) << *rendered;
  auto again = EvaluateCount(*reparsed->plan, sources);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->expected.lo, count->expected.lo);
}

// --- Parser ---------------------------------------------------------------

// Discretized attributes carry half-open interval labels; the canonical
// rendering of a select on them must parse back.
TEST(PlanParserTest, RoundTripsIntervalLabels) {
  auto schema = Schema::Create(
      {Attribute("g", {"(-inf,1.5)", "[1.5,3.0)", "[3.0,+inf)"}),
       Attribute("h", {"[0,1]", "(1,2]"})});
  ASSERT_TRUE(schema.ok());
  ProbDatabase db(*schema);
  Block b;
  b.alternatives.push_back({Tuple({1, 1}), 0.6});
  b.alternatives.push_back({Tuple({2, 0}), 0.4});
  ASSERT_TRUE(db.AddBlock(b).ok());
  std::vector<const ProbDatabase*> sources = {&db};

  for (ValueId g = 0; g < 3; ++g) {
    for (ValueId h = 0; h < 2; ++h) {
      auto plan = SelectPlan(Predicate::Eq(0, g).And(Predicate::Ne(1, h)),
                             ScanPlan(0));
      auto rendered = PlanToString(*plan, sources);
      ASSERT_TRUE(rendered.ok());
      auto reparsed = ParsePlan("count(" + *rendered + ")", sources);
      ASSERT_TRUE(reparsed.ok()) << *rendered << ": "
                                 << reparsed.status().message();
      auto again = PlanToString(*reparsed->plan, sources);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *rendered);
    }
  }
  auto stray = ParsePlan("select(g=[1.5,3.0)]; scan)", sources);
  ASSERT_FALSE(stray.ok());
  EXPECT_NE(stray.status().message().find("unbalanced ']'"),
            std::string::npos)
      << stray.status().message();
}


TEST(PlanParserTest, ParsesNestedPlans) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto parsed = ParsePlan(
      "project(nw; select(inc=100K; join(scan(0); scan(0); inc=inc)))",
      sources);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, ParsedQuery::Kind::kRelation);
  auto schema = PlanOutputSchema(*parsed->plan, sources);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_attrs(), 1u);
  EXPECT_EQ(schema->attr(0).name(), "nw");
  EXPECT_TRUE(EvaluatePlan(*parsed->plan, sources).ok());
}

TEST(PlanParserTest, ParsesExistsAndBareScan) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto exists = ParsePlan("exists(select(true; scan))", sources);
  ASSERT_TRUE(exists.ok());
  EXPECT_EQ(exists->kind, ParsedQuery::Kind::kExists);
  auto bare = ParsePlan("  scan  ", sources);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->kind, ParsedQuery::Kind::kRelation);
  EXPECT_EQ(bare->plan->op, PlanNode::Op::kScan);
}

TEST(PlanParserTest, RejectsMalformedInput) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  EXPECT_FALSE(ParsePlan("frobnicate(scan)", sources).ok());
  EXPECT_FALSE(ParsePlan("select(inc=100K; scan", sources).ok());
  EXPECT_FALSE(ParsePlan("select(bogus=1; scan)", sources).ok());
  EXPECT_FALSE(ParsePlan("select(inc=42K; scan)", sources).ok());
  EXPECT_FALSE(ParsePlan("scan(7)", sources).ok());
  EXPECT_FALSE(ParsePlan("join(scan; scan)", sources).ok());
  EXPECT_FALSE(ParsePlan("project(ghost; scan)", sources).ok());
}

// Parser hardening: adversarial inputs must produce a clean Status
// whose message names the byte offset of the offending token — never a
// crash, never a silent mis-parse.

TEST(PlanParserTest, ErrorsCarryByteOffsets) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  for (const char* bad :
       {"frobnicate(scan)", "select(inc=100K; scan", "scan(7)",
        "select(inc=100K; scan))", "join(scan; scan)", "select(; scan(9))",
        "project(ghost; scan)", "select(bogus=1; scan)", ""}) {
    auto parsed = ParsePlan(bad, sources);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos)
        << "input \"" << bad << "\" -> " << parsed.status().message();
  }
  // Spot-check the offsets point at the offending token.
  auto unknown = ParsePlan("frobnicate(scan)", sources);
  EXPECT_NE(unknown.status().message().find("at byte 0"), std::string::npos)
      << unknown.status().message();
  //                           0123456789012345678901
  auto extra = ParsePlan("select(inc=100K; scan))", sources);
  EXPECT_NE(extra.status().message().find("at byte 21"), std::string::npos)
      << extra.status().message();
}

TEST(PlanParserTest, DeepNestingIsRejectedNotOverflowed) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};

  auto nested = [](size_t depth) {
    std::string text;
    for (size_t i = 0; i < depth; ++i) text += "select(true; ";
    text += "scan";
    for (size_t i = 0; i < depth; ++i) text += ")";
    return text;
  };

  // Under the cap: parses and evaluates normally (no behavior change).
  auto ok = ParsePlan(nested(40), sources);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(EvaluatePlan(*ok->plan, sources).ok());

  // Far past any sane nesting: a clean error with an offset, not a
  // stack overflow.
  for (size_t depth : {size_t{100}, size_t{1000}, size_t{20000}}) {
    auto deep = ParsePlan(nested(depth), sources);
    ASSERT_FALSE(deep.ok()) << depth;
    EXPECT_NE(deep.status().message().find("nested deeper"),
              std::string::npos)
        << deep.status().message();
    EXPECT_NE(deep.status().message().find("at byte"), std::string::npos);
  }
}

TEST(PlanParserTest, JunkBytesNeverCrashOrMisparse) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  // Charset biased toward the grammar's structural characters so the
  // fuzz hits parser states, not just "unknown operator".
  const std::string charset = "();=&,scanseletprojoinexists count0159Kwinc";
  Rng rng(0xF022ED);
  for (int trial = 0; trial < 3000; ++trial) {
    size_t len = 1 + rng.UniformInt(64);
    std::string text;
    text.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      // Mostly charset bytes, occasionally arbitrary junk (including
      // NUL and high bytes).
      if (rng.Bernoulli(0.9)) {
        text += charset[rng.UniformInt(charset.size())];
      } else {
        text += static_cast<char>(rng.UniformInt(256));
      }
    }
    auto parsed = ParsePlan(text, sources);
    if (!parsed.ok()) {
      // Clean failure: a message with a location, never empty.
      EXPECT_FALSE(parsed.status().message().empty());
      continue;
    }
    // Anything accepted must be a well-formed plan: schema derivation
    // and evaluation both succeed (no silent mis-parse).
    ASSERT_TRUE(parsed->plan != nullptr) << text;
    EXPECT_TRUE(PlanOutputSchema(*parsed->plan, sources).ok()) << text;
    EXPECT_TRUE(EvaluatePlan(*parsed->plan, sources).ok()) << text;
  }
}

// --- The Monte-Carlo oracle ----------------------------------------------

TEST(PlanOracleTest, AgreesWithExactEvaluationOnSafePlan) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto plan = SelectPlan(Predicate::Eq(1, 1), ScanPlan(0));  // nw=500K

  OracleOptions oo;
  oo.trials = 20000;
  auto oracle = MonteCarloPlanOracle(*plan, sources, oo);
  ASSERT_TRUE(oracle.ok());

  auto exists = EvaluateExists(*plan, sources);
  auto count = EvaluateCount(*plan, sources);
  ASSERT_TRUE(exists.ok());
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(oracle->exists, exists->prob.lo, 0.02);
  EXPECT_NEAR(oracle->expected_count, count->expected.lo, 0.05);
  ASSERT_TRUE(count->has_distribution);
  for (size_t k = 0; k < count->distribution.size(); ++k) {
    double got = k < oracle->count_distribution.size()
                     ? oracle->count_distribution[k]
                     : 0.0;
    EXPECT_NEAR(got, count->distribution[k], 0.02) << "count=" << k;
  }

  // Per-tuple marginals too.
  auto result = EvaluatePlan(*plan, sources);
  ASSERT_TRUE(result.ok());
  std::map<std::vector<ValueId>, double> freq;
  for (const ProbTuple& pt : oracle->marginals) {
    freq[pt.tuple.values()] = pt.prob;
  }
  for (const DistinctMarginal& m : DistinctMarginals(*result, sources)) {
    EXPECT_NEAR(freq[m.tuple.values()], m.prob.lo, 0.02);
  }
}

// Same pattern as core_engine_test.cc DeterministicAcrossThreadCounts:
// the oracle's chunked tallies make its output a pure function of
// (plan, sources, trials, seed) — bit-identical for 1, 2, and 8
// threads, as is (trivially pure) extensional plan evaluation.
TEST(PlanOracleTest, DeterministicAcrossThreadCounts) {
  ProbDatabase db = SmallDb();
  std::vector<const ProbDatabase*> sources = {&db};
  auto plan = ProjectPlan({1}, JoinPlan(ScanPlan(0), ScanPlan(0), 0, 0));

  std::vector<OracleResult> results;
  std::vector<std::vector<DistinctMarginal>> evals;
  for (size_t threads : {1u, 2u, 8u}) {
    OracleOptions oo;
    oo.trials = 6000;
    oo.num_threads = threads;
    oo.chunk_size = 256;
    auto oracle = MonteCarloPlanOracle(*plan, sources, oo);
    ASSERT_TRUE(oracle.ok());
    results.push_back(std::move(oracle).value());
    auto eval = EvaluatePlan(*plan, sources);
    ASSERT_TRUE(eval.ok());
    evals.push_back(DistinctMarginals(*eval, sources));
  }
  for (size_t r = 1; r < results.size(); ++r) {
    EXPECT_EQ(results[r].exists, results[0].exists);
    EXPECT_EQ(results[r].expected_count, results[0].expected_count);
    EXPECT_EQ(results[r].count_distribution, results[0].count_distribution);
    ASSERT_EQ(results[r].marginals.size(), results[0].marginals.size());
    for (size_t i = 0; i < results[0].marginals.size(); ++i) {
      EXPECT_EQ(results[r].marginals[i].tuple,
                results[0].marginals[i].tuple);
      EXPECT_EQ(results[r].marginals[i].prob,
                results[0].marginals[i].prob);
    }
    // Extensional evaluation is pure: identical outputs every run.
    ASSERT_EQ(evals[r].size(), evals[0].size());
    for (size_t i = 0; i < evals[0].size(); ++i) {
      EXPECT_EQ(evals[r][i].tuple, evals[0][i].tuple);
      EXPECT_EQ(evals[r][i].prob.lo, evals[0][i].prob.lo);
      EXPECT_EQ(evals[r][i].prob.hi, evals[0][i].prob.hi);
    }
  }
}

TEST(PlanOracleTest, ValidatesInput) {
  ProbDatabase db = SmallDb();
  OracleOptions oo;
  oo.trials = 0;
  EXPECT_FALSE(MonteCarloPlanOracle(*ScanPlan(0), {&db}, oo).ok());
  EXPECT_FALSE(
      MonteCarloPlanOracle(*ScanPlan(2), {&db}, OracleOptions()).ok());
  // A predicate touching an attribute outside the child schema must be
  // rejected up front on the oracle path too (Predicate::Eval's cell
  // access is unchecked).
  auto bad_pred = SelectPlan(Predicate::Eq(5, 0), ScanPlan(0));
  EXPECT_FALSE(PlanOutputSchema(*bad_pred, {&db}).ok());
  EXPECT_FALSE(MonteCarloPlanOracle(*bad_pred, {&db}, OracleOptions()).ok());
  EXPECT_FALSE(EvaluatePlan(*bad_pred, {&db}).ok());
  // The columnar evaluator fuses Select into Scan; the fused path still
  // validates the source first and the predicate second, with the same
  // messages as a Select over any other input.
  auto fused_bad_attr = EvaluatePlan(
      *SelectPlan(Predicate::Eq(9, 0), ScanPlan(0)), {&db});
  ASSERT_FALSE(fused_bad_attr.ok());
  EXPECT_EQ(fused_bad_attr.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fused_bad_attr.status().message(),
            "select predicate attr out of range");
  auto fused_bad_source = EvaluatePlan(
      *SelectPlan(Predicate::Eq(9, 0), ScanPlan(2)), {&db});
  ASSERT_FALSE(fused_bad_source.ok());
  EXPECT_EQ(fused_bad_source.status().message(),
            "scan source out of range: 2");
  // So must a join attribute outside either child's schema, on every
  // evaluation path.
  for (const PlanPtr& bad_join : {JoinPlan(ScanPlan(0), ScanPlan(0), 7, 0),
                                  JoinPlan(ScanPlan(0), ScanPlan(0), 0, 7)}) {
    EXPECT_FALSE(PlanOutputSchema(*bad_join, {&db}).ok());
    EXPECT_FALSE(EvaluatePlan(*bad_join, {&db}).ok());
    EXPECT_FALSE(EvaluatePlanRowwise(*bad_join, {&db}).ok());
    EXPECT_FALSE(CompileQuery(*bad_join, {&db}).ok());
    EXPECT_FALSE(
        MonteCarloPlanOracle(*bad_join, {&db}, OracleOptions()).ok());
  }
  // EvaluatePlanInWorld checks choice-vector shape...
  EXPECT_FALSE(EvaluatePlanInWorld(*ScanPlan(0), {&db}, {}).ok());
  std::vector<std::vector<int32_t>> bad = {{0}};
  EXPECT_FALSE(EvaluatePlanInWorld(*ScanPlan(0), {&db}, bad).ok());
  // ...and values: an index past a block's alternatives, or a negative
  // one other than kNoAlternative, is rejected, not read.
  std::vector<std::vector<int32_t>> valid(
      1, std::vector<int32_t>(db.num_blocks(), kNoAlternative));
  EXPECT_TRUE(EvaluatePlanInWorld(*ScanPlan(0), {&db}, valid).ok());
  std::vector<std::vector<int32_t>> past_end = valid;
  past_end[0][0] = static_cast<int32_t>(db.block(0).alternatives.size());
  EXPECT_FALSE(EvaluatePlanInWorld(*ScanPlan(0), {&db}, past_end).ok());
  std::vector<std::vector<int32_t>> negative = valid;
  negative[0][0] = -2;
  EXPECT_FALSE(EvaluatePlanInWorld(*ScanPlan(0), {&db}, negative).ok());
}

}  // namespace
}  // namespace mrsl
