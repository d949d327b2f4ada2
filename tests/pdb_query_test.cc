// Tests for the predicate building block of the plan algebra:
// evaluation, touched attributes, and rendering. The query
// operators themselves are tested in pdb_plan_test.

#include "pdb/query.h"

#include <gtest/gtest.h>

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
