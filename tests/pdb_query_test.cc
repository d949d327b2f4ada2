// Tests for the predicate building block of the plan algebra: two- and
// three-valued evaluation, touched attributes, and rendering. The query
// operators themselves are tested in pdb_plan_test.

#include "pdb/query.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mrsl {
namespace {

Schema TwoAttrSchema() {
  auto s = Schema::Create(
      {Attribute("inc", {"50K", "100K"}), Attribute("nw", {"100K", "500K"})});
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(PredicateTest, EvalAtoms) {
  Predicate p = Predicate::Eq(0, 1);
  EXPECT_TRUE(p.Eval(Tuple({1, 0})));
  EXPECT_FALSE(p.Eval(Tuple({0, 0})));
  Predicate q = Predicate::Eq(0, 1).And(Predicate::Ne(1, 0));
  EXPECT_TRUE(q.Eval(Tuple({1, 1})));
  EXPECT_FALSE(q.Eval(Tuple({1, 0})));
  Predicate always;
  EXPECT_TRUE(always.Eval(Tuple({0, 0})));
}

TEST(PredicateTest, EvalPartialThreeValued) {
  using Tri = Predicate::Tri;
  Predicate p = Predicate::Eq(0, 1).And(Predicate::Ne(1, 0));
  // Fully decided.
  EXPECT_EQ(p.EvalPartial(Tuple({1, 1})), Tri::kTrue);
  EXPECT_EQ(p.EvalPartial(Tuple({0, 1})), Tri::kFalse);
  // A failing observed atom decides false even with other cells missing.
  EXPECT_EQ(p.EvalPartial(Tuple({0, kMissingValue})), Tri::kFalse);
  EXPECT_EQ(p.EvalPartial(Tuple({1, 0})), Tri::kFalse);
  // Missing cells that could flip the outcome -> unknown.
  EXPECT_EQ(p.EvalPartial(Tuple({kMissingValue, 1})), Tri::kUnknown);
  EXPECT_EQ(p.EvalPartial(Tuple({1, kMissingValue})), Tri::kUnknown);
  // The always-true predicate is decided on anything.
  EXPECT_EQ(Predicate().EvalPartial(Tuple(2)), Tri::kTrue);
}

TEST(PredicateTest, EvalPartialConsistentWithEval) {
  // On complete tuples, EvalPartial agrees with Eval for random atoms.
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    Predicate p;
    for (int k = 0; k < 3; ++k) {
      AttrId a = static_cast<AttrId>(rng.UniformInt(3));
      ValueId v = static_cast<ValueId>(rng.UniformInt(2));
      p = p.And(rng.Bernoulli(0.5) ? Predicate::Eq(a, v)
                                   : Predicate::Ne(a, v));
    }
    Tuple t({static_cast<ValueId>(rng.UniformInt(2)),
             static_cast<ValueId>(rng.UniformInt(2)),
             static_cast<ValueId>(rng.UniformInt(2))});
    EXPECT_EQ(p.EvalPartial(t) == Predicate::Tri::kTrue, p.Eval(t));
  }
}

TEST(PredicateTest, AttrsTouched) {
  Predicate p = Predicate::Eq(0, 1).And(Predicate::Ne(3, 0));
  EXPECT_EQ(p.AttrsTouched(), 0b1001u);
  EXPECT_EQ(Predicate().AttrsTouched(), 0u);
}

TEST(PredicateTest, ToString) {
  Schema s = TwoAttrSchema();
  Predicate p = Predicate::Eq(0, 1).And(Predicate::Ne(1, 0));
  EXPECT_EQ(p.ToString(s), "inc=100K AND nw!=100K");
  EXPECT_EQ(Predicate().ToString(s), "TRUE");
}

}  // namespace
}  // namespace mrsl
