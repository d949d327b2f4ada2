// Rows live in one vector in insertion order; the Rc/Ri split and support
// counts are computed on demand rather than cached, so Append stays O(1)
// and callers that mutate tuples never see stale indices. FromCsv grows
// each attribute's dictionary in encounter order (FindOrAdd), which makes
// ValueIds — and therefore learned models — depend on row order; "?" and
// the empty string both decode to kMissingValue. FromCsv(text, schema)
// encodes against a fixed schema instead, so ValueIds match a model's.

#include "relational/relation.h"

#include <cstddef>

#include "util/csv.h"

namespace mrsl {

Status Relation::Append(Tuple t) {
  if (t.num_attrs() != schema_.num_attrs()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(t.num_attrs()) +
        " does not match schema arity " +
        std::to_string(schema_.num_attrs()));
  }
  rows_.push_back(std::move(t));
  return Status::OK();
}

std::vector<uint32_t> Relation::CompleteRowIndices() const {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].IsComplete()) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

std::vector<uint32_t> Relation::IncompleteRowIndices() const {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].IsComplete()) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

size_t Relation::CountMatches(const Tuple& t) const {
  size_t n = 0;
  for (const Tuple& row : rows_) {
    if (row.IsComplete() && t.MatchedBy(row)) ++n;
  }
  return n;
}

double Relation::Support(const Tuple& t) const {
  size_t complete = 0;
  size_t matches = 0;
  for (const Tuple& row : rows_) {
    if (!row.IsComplete()) continue;
    ++complete;
    if (t.MatchedBy(row)) ++matches;
  }
  if (complete == 0) return 0.0;
  return static_cast<double>(matches) / static_cast<double>(complete);
}

namespace {

// Shared by both FromCsv forms. With `fixed` null the schema grows from
// the header and the cells; otherwise the header must name fixed's
// attributes in order and every label must already be in its domain.
Result<Relation> ParseCsvRelation(std::string_view text,
                                  const Schema* fixed) {
  auto parsed = ParseCsv(text);
  if (!parsed.ok()) return parsed.status();
  const auto& rows = parsed.value();
  if (rows.empty()) return Status::InvalidArgument("CSV has no header row");

  Relation rel;
  if (fixed == nullptr) {
    std::vector<Attribute> attrs;
    attrs.reserve(rows[0].size());
    for (const auto& name : rows[0]) attrs.emplace_back(name);
    auto schema = Schema::Create(std::move(attrs));
    if (!schema.ok()) return schema.status();
    rel = Relation(std::move(schema).value());
  } else {
    bool header_ok = rows[0].size() == fixed->num_attrs();
    std::string want;
    for (AttrId a = 0; a < fixed->num_attrs(); ++a) {
      if (a != 0) want += ",";
      want += fixed->attr(a).name();
      header_ok = header_ok && rows[0][a] == fixed->attr(a).name();
    }
    if (!header_ok) {
      return Status::InvalidArgument("CSV header must be " + want);
    }
    rel = Relation(*fixed);
  }

  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != rel.schema().num_attrs()) {
      return Status::Corruption("row " + std::to_string(r) + " has " +
                                std::to_string(rows[r].size()) +
                                " fields, expected " +
                                std::to_string(rel.schema().num_attrs()));
    }
    Tuple t(rel.schema().num_attrs());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      const std::string& cell = rows[r][c];
      if (cell == "?" || cell.empty()) continue;
      Attribute& attr = rel.mutable_schema().attr(static_cast<AttrId>(c));
      ValueId v = fixed == nullptr ? attr.FindOrAdd(cell) : attr.Find(cell);
      if (v == kMissingValue) {
        return Status::InvalidArgument("row " + std::to_string(r) +
                                       ": unknown value '" + cell +
                                       "' for attribute " + attr.name());
      }
      t.set_value(static_cast<AttrId>(c), v);
    }
    MRSL_RETURN_IF_ERROR(rel.Append(std::move(t)));
  }
  return rel;
}

}  // namespace

Result<Relation> Relation::FromCsv(std::string_view text) {
  return ParseCsvRelation(text, nullptr);
}

Result<Relation> Relation::FromCsv(std::string_view text,
                                   const Schema& schema) {
  return ParseCsvRelation(text, &schema);
}

std::string Relation::ToCsv() const {
  std::vector<std::vector<std::string>> out;
  std::vector<std::string> header;
  for (size_t i = 0; i < schema_.num_attrs(); ++i) {
    header.push_back(schema_.attr(static_cast<AttrId>(i)).name());
  }
  out.push_back(std::move(header));
  for (const Tuple& t : rows_) {
    std::vector<std::string> row;
    for (size_t i = 0; i < schema_.num_attrs(); ++i) {
      ValueId v = t.value(static_cast<AttrId>(i));
      row.push_back(v == kMissingValue
                        ? "?"
                        : schema_.attr(static_cast<AttrId>(i)).label(v));
    }
    out.push_back(std::move(row));
  }
  return WriteCsv(out);
}

Result<Relation> Relation::LoadCsvFile(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  return FromCsv(text.value());
}

Status Relation::SaveCsvFile(const std::string& path) const {
  return WriteFile(path, ToCsv());
}

}  // namespace mrsl
