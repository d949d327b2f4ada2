// Tests for Relation: append validation, Rc/Ri split, support counting
// (checked against the paper's worked numbers), and CSV round-trips.

#include "relational/relation.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "paper_example.h"

namespace mrsl {
namespace {

TEST(RelationTest, AppendChecksArity) {
  auto schema = Schema::Create({Attribute("a", {"x"}), Attribute("b", {"y"})});
  ASSERT_TRUE(schema.ok());
  Relation rel(*schema);
  EXPECT_TRUE(rel.Append(Tuple({0, 0})).ok());
  EXPECT_FALSE(rel.Append(Tuple({0})).ok());
  EXPECT_EQ(rel.num_rows(), 1u);
}

TEST(RelationTest, Fig1ParsesWithExpectedShape) {
  Relation rel = LoadFig1();
  EXPECT_EQ(rel.num_rows(), 17u);
  EXPECT_EQ(rel.schema().num_attrs(), 4u);
  EXPECT_EQ(rel.CompleteRowIndices().size(), 8u);
  EXPECT_EQ(rel.IncompleteRowIndices().size(), 9u);

  AttrId age_id = 0;
  ASSERT_TRUE(rel.schema().FindAttr("age", &age_id));
  EXPECT_EQ(rel.schema().attr(age_id).cardinality(), 3u);  // 20/30/40
  AttrId inc_id = 0;
  ASSERT_TRUE(rel.schema().FindAttr("inc", &inc_id));
  EXPECT_EQ(rel.schema().attr(inc_id).cardinality(), 2u);  // 50K/100K
}

// The paper: "3 out of 8 points in Rc (t4, t6, t7) support t1, so
// supp(t1) = 3/8".
TEST(RelationTest, SupportMatchesPaperExample) {
  Relation rel = LoadFig1();
  const Tuple& t1 = rel.row(0);
  EXPECT_EQ(rel.CountMatches(t1), 3u);
  EXPECT_DOUBLE_EQ(rel.Support(t1), 3.0 / 8.0);
}

TEST(RelationTest, SupportOfAllMissingIsOne) {
  Relation rel = LoadFig1();
  Tuple t_star(4);
  EXPECT_DOUBLE_EQ(rel.Support(t_star), 1.0);
}

TEST(RelationTest, SupportOnEmptyRelationIsZero) {
  auto schema = Schema::Create({Attribute("a", {"x"})});
  ASSERT_TRUE(schema.ok());
  Relation rel(*schema);
  EXPECT_DOUBLE_EQ(rel.Support(Tuple(1)), 0.0);
}

TEST(RelationTest, CsvRoundTrip) {
  Relation rel = LoadFig1();
  auto again = Relation::FromCsv(rel.ToCsv());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->num_rows(), rel.num_rows());
  for (size_t i = 0; i < rel.num_rows(); ++i) {
    EXPECT_EQ(again->row(i), rel.row(i)) << "row " << i;
  }
}

TEST(RelationTest, EmptyCellTreatedAsMissing) {
  auto rel = Relation::FromCsv("a,b\nx,\n");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->row(0).value(1), kMissingValue);
}

TEST(RelationTest, RaggedRowRejected) {
  auto rel = Relation::FromCsv("a,b\nx\n");
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kCorruption);
}

TEST(RelationTest, HeaderOnlyCsv) {
  auto rel = Relation::FromCsv("a,b\n");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 0u);
  EXPECT_EQ(rel->schema().num_attrs(), 2u);
}

TEST(RelationTest, FixedSchemaEncodingIgnoresRowOrder) {
  // Against a fixed schema, labels map to that schema's ValueIds even
  // when the file meets them in a different order.
  auto schema = Relation::FromCsv("a,b\nx,u\ny,v\n");
  ASSERT_TRUE(schema.ok());
  auto rel = Relation::FromCsv("a,b\ny,?\nx,\n", schema->schema());
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->row(0).value(0), 1u);  // y
  EXPECT_EQ(rel->row(1).value(0), 0u);  // x
  EXPECT_EQ(rel->row(0).value(1), kMissingValue);
  EXPECT_EQ(rel->row(1).value(1), kMissingValue);
  EXPECT_EQ(rel->schema().attr(0).cardinality(), 2u);
}

TEST(RelationTest, FixedSchemaEncodingRejectsMismatches) {
  auto schema = Relation::FromCsv("a,b\nx,u\n");
  ASSERT_TRUE(schema.ok());
  const Schema& s = schema->schema();
  auto unknown = Relation::FromCsv("a,b\nx,w\n", s);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("'w'"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("attribute b"),
            std::string::npos);
  EXPECT_FALSE(Relation::FromCsv("b,a\nu,x\n", s).ok());  // order
  EXPECT_FALSE(Relation::FromCsv("a\nx\n", s).ok());      // arity
}

TEST(RelationTest, FileRoundTrip) {
  Relation rel = LoadFig1();
  std::string path = ::testing::TempDir() + "/mrsl_relation_test.csv";
  ASSERT_TRUE(rel.SaveCsvFile(path).ok());
  auto again = Relation::LoadCsvFile(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), rel.num_rows());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrsl
