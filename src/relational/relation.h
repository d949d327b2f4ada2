// Relation: a single-schema bag of tuples, split into the complete part Rc
// (points) and incomplete part Ri, with support counting (Def 2.3) and
// CSV import/export ("?" marks a missing cell).

#ifndef MRSL_RELATIONAL_RELATION_H_
#define MRSL_RELATIONAL_RELATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/result.h"

namespace mrsl {

/// A relation instance over a fixed schema.
class Relation {
 public:
  Relation() = default;

  /// Creates an empty relation over `schema`.
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  size_t num_rows() const { return rows_.size(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Appends a tuple; fails if its arity differs from the schema.
  Status Append(Tuple t);

  /// Indices of complete rows (the paper's Rc).
  std::vector<uint32_t> CompleteRowIndices() const;

  /// Indices of incomplete rows (the paper's Ri).
  std::vector<uint32_t> IncompleteRowIndices() const;

  /// Number of points in Rc matching `t` (Def 2.3 numerator).
  size_t CountMatches(const Tuple& t) const;

  /// Def 2.3 support: fraction of Rc points matching `t`.
  /// Returns 0 when Rc is empty.
  double Support(const Tuple& t) const;

  /// Parses a CSV document: first row = attribute names, "?" (or empty
  /// string) = missing. Domains are built from the observed labels in
  /// first-appearance order.
  static Result<Relation> FromCsv(std::string_view text);

  /// Parses a CSV document against a fixed `schema` (e.g. a learned
  /// model's), so ValueIds agree with it whatever the row order. The
  /// header must list schema's attributes in order; a label outside an
  /// attribute's domain is an error naming both. "?" (or empty string)
  /// = missing.
  static Result<Relation> FromCsv(std::string_view text,
                                  const Schema& schema);

  /// Serializes to CSV with "?" for missing cells.
  std::string ToCsv() const;

  /// Convenience: loads FromCsv from a file.
  static Result<Relation> LoadCsvFile(const std::string& path);

  /// Convenience: writes ToCsv to a file.
  Status SaveCsvFile(const std::string& path) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace mrsl

#endif  // MRSL_RELATIONAL_RELATION_H_
