// Columnar (vectorized) intermediate results for the plan algebra.
//
// The row evaluator in pdb/plan.cc carries every intermediate row as a
// PlanRow — a heap-allocated Tuple plus its event — so the Join and
// Project inner loops pay one or more allocations per row. A
// ColumnBatch is the struct-of-arrays alternative: one contiguous
// std::vector<ValueId> per attribute, contiguous probability-interval
// arrays, and a side lineage table (LineageTable) that stores every
// row's block-key set and alternative set in shared CSR arenas —
// appending a row's lineage is an amortized-O(1) arena append, never a
// per-row vector allocation. Operators become sweeps over flat arrays:
//
//   * Select over a Scan tests the predicate while scanning, so the rows
//     it drops are never copied (ScanToBatch with a predicate); over any
//     other input it is a per-atom predicate sweep producing a selection
//     vector (SelectRows), applied with one in-place gather (Keep);
//   * Join hash-builds on a raw key column (BuildKeyIndex) and appends
//     output column-by-column in batched gather passes;
//   * Project assigns group ids in one hashing sweep over the projected
//     columns (AssignGroupIds) and then disjoins each group's events in
//     one pass — no per-row Tuple is ever materialized.
//
// The batch evaluator built on these primitives (EvaluatePlan in
// pdb/plan.h) is bit-identical to the row reference evaluator: same row
// order, same floating-point operations in the same order, same lineage
// summaries. The differential sweep in tests/ holds the two paths to
// exact equality.

#ifndef MRSL_PDB_COLUMNAR_H_
#define MRSL_PDB_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pdb/plan.h"
#include "pdb/prob_database.h"

namespace mrsl {

/// Column-oriented lineage storage for a batch of rows — the arena
/// equivalent of one Lineage per row. Row r's block keys live in
/// keys[key_off[r] .. key_off[r+1]); when simple[r] is set, the row's
/// event is "block `block[r]` of source `source[r]` chooses an
/// alternative in alts[alt_off[r] .. alt_off[r+1])". Both CSR arenas
/// are shared across the batch, so appending lineage never allocates
/// per row.
struct LineageTable {
  std::vector<uint64_t> keys;          // concatenated sorted key sets
  std::vector<uint32_t> key_off{0};    // num_rows() + 1 offsets
  std::vector<uint8_t> simple;         // per-row simple-event flag
  std::vector<uint32_t> source;        // valid when simple
  std::vector<uint64_t> block;         // valid when simple
  std::vector<uint32_t> alts;          // concatenated sorted alt sets
  std::vector<uint32_t> alt_off{0};    // num_rows() + 1 offsets

  size_t num_rows() const { return simple.size(); }

  /// Logical arena footprint (element counts × element sizes, capacity
  /// excluded so the number is deterministic across allocators) — the
  /// resource-accounting input for PlanResources::peak_lineage_bytes.
  size_t ByteSize() const;

  const uint64_t* keys_begin(size_t r) const { return keys.data() + key_off[r]; }
  size_t keys_size(size_t r) const { return key_off[r + 1] - key_off[r]; }
  const uint32_t* alts_begin(size_t r) const { return alts.data() + alt_off[r]; }
  size_t alts_size(size_t r) const { return alt_off[r + 1] - alt_off[r]; }

  void ReserveRows(size_t n);

  /// Appends a simple event: keys = {BlockKey(src, blk)}, the given
  /// sorted alternative set.
  void AppendSimple(uint32_t src, uint64_t blk,
                    const std::vector<uint32_t>& alt_set);

  /// Appends a composite event with the given sorted key set (no
  /// alternative set).
  void AppendComposite(const std::vector<uint64_t>& key_set);

  /// Appends a copy of row `r` of `other`.
  void AppendFrom(const LineageTable& other, size_t r);

  /// Appends a copy of an owned Lineage.
  void Append(const Lineage& lin);

  /// Rematerializes row `r` as an owned Lineage.
  Lineage MaterializeRow(size_t r) const;

  /// In-place gather: keeps exactly the rows named by `sel` (ascending,
  /// unique), preserving order.
  void Keep(const std::vector<uint32_t>& sel);
};

/// A struct-of-arrays run of intermediate rows: cols[a][r] is the value
/// of attribute a in row r; lo/hi are the row's probability interval;
/// lineage row r is its event summary. All arrays are aligned (same
/// number of rows).
struct ColumnBatch {
  Schema schema;
  std::vector<std::vector<ValueId>> cols;
  std::vector<double> lo;
  std::vector<double> hi;
  LineageTable lineage;

  /// False once any operator on the way here dissociated (mirrors
  /// PlanResult::safe).
  bool safe = true;

  size_t num_rows() const { return lo.size(); }
  size_t num_attrs() const { return cols.size(); }

  /// Logical footprint of the batch including its lineage arena
  /// (deterministic: element counts, not capacities). Feeds
  /// PlanResources::peak_batch_bytes.
  size_t ByteSize() const;

  /// Replaces the schema and resets the column arrays to empty columns
  /// of the new arity (row arrays untouched — call on an empty batch).
  void SetSchema(Schema s);

  /// Reserves capacity for `n` rows across every aligned array.
  void ReserveRows(size_t n);

  /// Appends one row, reading values from `values[0..num_attrs)`.
  void AppendRow(const ValueId* values, double lo_p, double hi_p,
                 const Lineage& lin);

  /// In-place gather: keeps exactly the rows named by `sel` (ascending,
  /// unique), preserving order. The selection-vector consumer.
  void Keep(const std::vector<uint32_t>& sel);
};

/// Leaf batch: every alternative of every block of `db`, block-major —
/// the same row order as the row evaluator's Scan. With `pred`, Select
/// fuses into the scan: only the alternatives satisfying it are copied,
/// and the batch equals the unfiltered one after
/// Keep(SelectRows(batch, *pred)) bit for bit. The caller validates
/// `pred` against db.schema() (cell access is unchecked).
ColumnBatch ScanToBatch(const ProbDatabase& db, uint32_t source,
                        const Predicate* pred = nullptr);

/// The predicate sweep: the ascending rows of `batch` that satisfy
/// `pred`, one column pass per atom — the selection vector Keep applies.
std::vector<uint32_t> SelectRows(const ColumnBatch& batch,
                                 const Predicate& pred);

/// Rematerializes the batch as the row representation (done once, at the
/// plan root). Consumes the batch.
PlanResult BatchToPlanResult(ColumnBatch&& batch);

/// Hash index over a raw key column: key value -> ascending row ids.
/// Duplicate keys accumulate in row order (bag semantics).
std::unordered_map<ValueId, std::vector<uint32_t>> BuildKeyIndex(
    const std::vector<ValueId>& key_col);

/// Group-id assignment for projection dedup: rows with identical values
/// on `attrs` share a group; groups are numbered in first-seen row
/// order (the row evaluator's group order).
struct GroupIds {
  std::vector<uint32_t> group_of_row;  // aligned with the batch's rows
  std::vector<uint32_t> rep_row;       // first row of each group
  size_t num_groups() const { return rep_row.size(); }
};
GroupIds AssignGroupIds(const ColumnBatch& batch,
                        const std::vector<AttrId>& attrs);

}  // namespace mrsl

#endif  // MRSL_PDB_COLUMNAR_H_
