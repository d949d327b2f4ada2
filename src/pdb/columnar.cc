// ColumnBatch primitives: the CSR lineage arena, gathers, key indexing,
// and group-id assignment. Everything here is deterministic in row
// order — hash containers are only probed, never iterated — so the
// batch evaluator built on top stays bit-identical to the row
// reference.

#include "pdb/columnar.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace mrsl {
namespace {

double ClampProb01(double p) { return std::min(1.0, std::max(0.0, p)); }

// SplitMix64-style finalizer for value hashing; mixing per cell keeps
// multi-column group keys well distributed without materializing them.
uint64_t MixValue(uint64_t h, ValueId v) {
  h ^= static_cast<uint64_t>(static_cast<uint32_t>(v)) + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 27);
}

}  // namespace

size_t LineageTable::ByteSize() const {
  return keys.size() * sizeof(uint64_t) + key_off.size() * sizeof(uint32_t) +
         simple.size() * sizeof(uint8_t) + source.size() * sizeof(uint32_t) +
         block.size() * sizeof(uint64_t) + alts.size() * sizeof(uint32_t) +
         alt_off.size() * sizeof(uint32_t);
}

void LineageTable::ReserveRows(size_t n) {
  // Simple events dominate (one key, one alternative per row); composite
  // rows grow the arenas past the guess, which is just a realloc.
  keys.reserve(n);
  key_off.reserve(n + 1);
  simple.reserve(n);
  source.reserve(n);
  block.reserve(n);
  alts.reserve(n);
  alt_off.reserve(n + 1);
}

void LineageTable::AppendSimple(uint32_t src, uint64_t blk,
                                const std::vector<uint32_t>& alt_set) {
  keys.push_back(Lineage::BlockKey(src, blk));
  key_off.push_back(static_cast<uint32_t>(keys.size()));
  simple.push_back(1);
  source.push_back(src);
  block.push_back(blk);
  alts.insert(alts.end(), alt_set.begin(), alt_set.end());
  alt_off.push_back(static_cast<uint32_t>(alts.size()));
}

void LineageTable::AppendComposite(const std::vector<uint64_t>& key_set) {
  keys.insert(keys.end(), key_set.begin(), key_set.end());
  key_off.push_back(static_cast<uint32_t>(keys.size()));
  simple.push_back(0);
  source.push_back(0);
  block.push_back(0);
  alt_off.push_back(static_cast<uint32_t>(alts.size()));
}

void LineageTable::AppendFrom(const LineageTable& other, size_t r) {
  keys.insert(keys.end(), other.keys_begin(r),
              other.keys_begin(r) + other.keys_size(r));
  key_off.push_back(static_cast<uint32_t>(keys.size()));
  simple.push_back(other.simple[r]);
  source.push_back(other.source[r]);
  block.push_back(other.block[r]);
  alts.insert(alts.end(), other.alts_begin(r),
              other.alts_begin(r) + other.alts_size(r));
  alt_off.push_back(static_cast<uint32_t>(alts.size()));
}

void LineageTable::Append(const Lineage& lin) {
  keys.insert(keys.end(), lin.blocks.begin(), lin.blocks.end());
  key_off.push_back(static_cast<uint32_t>(keys.size()));
  simple.push_back(lin.simple ? 1 : 0);
  source.push_back(lin.source);
  block.push_back(static_cast<uint64_t>(lin.block));
  alts.insert(alts.end(), lin.alts.begin(), lin.alts.end());
  alt_off.push_back(static_cast<uint32_t>(alts.size()));
}

Lineage LineageTable::MaterializeRow(size_t r) const {
  Lineage out;
  out.blocks.assign(keys_begin(r), keys_begin(r) + keys_size(r));
  out.simple = simple[r] != 0;
  if (out.simple) {
    out.source = source[r];
    out.block = static_cast<size_t>(block[r]);
    out.alts.assign(alts_begin(r), alts_begin(r) + alts_size(r));
  }
  return out;
}

void LineageTable::Keep(const std::vector<uint32_t>& sel) {
  // Forward compaction of both arenas. sel is ascending and unique, so
  // every write cursor trails the range it reads: row k lands at or
  // before row sel[k]'s old position, and the offsets read for sel[k]
  // are still original when we get there (an overwritten offset slot
  // implies an identity prefix, where the write was a no-op).
  size_t kw = 0;
  size_t aw = 0;
  for (size_t k = 0; k < sel.size(); ++k) {
    const uint32_t r = sel[k];
    const uint32_t kb = key_off[r];
    const uint32_t ke = key_off[r + 1];
    const uint32_t ab = alt_off[r];
    const uint32_t ae = alt_off[r + 1];
    for (uint32_t i = kb; i < ke; ++i) keys[kw++] = keys[i];
    for (uint32_t i = ab; i < ae; ++i) alts[aw++] = alts[i];
    simple[k] = simple[r];
    source[k] = source[r];
    block[k] = block[r];
    key_off[k + 1] = static_cast<uint32_t>(kw);
    alt_off[k + 1] = static_cast<uint32_t>(aw);
  }
  keys.resize(kw);
  alts.resize(aw);
  simple.resize(sel.size());
  source.resize(sel.size());
  block.resize(sel.size());
  key_off.resize(sel.size() + 1);
  alt_off.resize(sel.size() + 1);
}

size_t ColumnBatch::ByteSize() const {
  size_t bytes = lineage.ByteSize() +
                 (lo.size() + hi.size()) * sizeof(double);
  for (const auto& col : cols) bytes += col.size() * sizeof(ValueId);
  return bytes;
}

void ColumnBatch::SetSchema(Schema s) {
  schema = std::move(s);
  cols.assign(schema.num_attrs(), {});
}

void ColumnBatch::ReserveRows(size_t n) {
  for (std::vector<ValueId>& col : cols) col.reserve(n);
  lo.reserve(n);
  hi.reserve(n);
  lineage.ReserveRows(n);
}

void ColumnBatch::AppendRow(const ValueId* values, double lo_p, double hi_p,
                            const Lineage& lin) {
  for (size_t a = 0; a < cols.size(); ++a) cols[a].push_back(values[a]);
  lo.push_back(lo_p);
  hi.push_back(hi_p);
  lineage.Append(lin);
}

void ColumnBatch::Keep(const std::vector<uint32_t>& sel) {
  // sel is ascending, so the forward in-place gather never reads a slot
  // it already overwrote (k <= sel[k]).
  for (std::vector<ValueId>& col : cols) {
    for (size_t k = 0; k < sel.size(); ++k) col[k] = col[sel[k]];
    col.resize(sel.size());
  }
  for (size_t k = 0; k < sel.size(); ++k) {
    lo[k] = lo[sel[k]];
    hi[k] = hi[sel[k]];
  }
  lo.resize(sel.size());
  hi.resize(sel.size());
  lineage.Keep(sel);
}

ColumnBatch ScanToBatch(const ProbDatabase& db, uint32_t source,
                        const Predicate* pred) {
  ColumnBatch out;
  out.SetSchema(db.schema());
  // A selective predicate keeps a small fraction of the alternatives, so
  // only the unfiltered scan knows its size up front.
  const bool filtered = pred != nullptr && !pred->atoms().empty();
  if (!filtered) out.ReserveRows(db.num_alternatives());
  std::vector<uint32_t> one_alt(1);
  for (size_t b = 0; b < db.num_blocks(); ++b) {
    const Block& block = db.block(b);
    for (size_t j = 0; j < block.alternatives.size(); ++j) {
      const Alternative& alt = block.alternatives[j];
      if (filtered && !pred->Eval(alt.tuple)) continue;
      for (AttrId a = 0; a < out.schema.num_attrs(); ++a) {
        out.cols[a].push_back(alt.tuple.value(a));
      }
      const double p = ClampProb01(alt.prob);
      out.lo.push_back(p);
      out.hi.push_back(p);
      one_alt[0] = static_cast<uint32_t>(j);
      out.lineage.AppendSimple(source, b, one_alt);
    }
  }
  return out;
}

std::vector<uint32_t> SelectRows(const ColumnBatch& batch,
                                 const Predicate& pred) {
  // Each atom sweeps ONE column, refining the selection vector in place.
  std::vector<uint32_t> sel(batch.num_rows());
  std::iota(sel.begin(), sel.end(), 0u);
  for (const PredicateAtom& atom : pred.atoms()) {
    const std::vector<ValueId>& col = batch.cols[atom.attr];
    size_t w = 0;
    for (uint32_t r : sel) {
      if ((col[r] == atom.value) != atom.negated) sel[w++] = r;
    }
    sel.resize(w);
  }
  return sel;
}

PlanResult BatchToPlanResult(ColumnBatch&& batch) {
  PlanResult out;
  out.schema = std::move(batch.schema);
  out.safe = batch.safe;
  const size_t n = batch.num_rows();
  const size_t arity = batch.cols.size();
  out.rows.resize(n);
  for (size_t r = 0; r < n; ++r) {
    PlanRow& row = out.rows[r];
    row.tuple = Tuple(arity);
    for (AttrId a = 0; a < arity; ++a) {
      row.tuple.set_value(a, batch.cols[a][r]);
    }
    row.prob = ProbInterval::Bounds(batch.lo[r], batch.hi[r]);
    row.lineage = batch.lineage.MaterializeRow(r);
  }
  return out;
}

std::unordered_map<ValueId, std::vector<uint32_t>> BuildKeyIndex(
    const std::vector<ValueId>& key_col) {
  std::unordered_map<ValueId, std::vector<uint32_t>> index;
  index.reserve(key_col.size());
  for (size_t r = 0; r < key_col.size(); ++r) {
    index[key_col[r]].push_back(static_cast<uint32_t>(r));
  }
  return index;
}

GroupIds AssignGroupIds(const ColumnBatch& batch,
                        const std::vector<AttrId>& attrs) {
  GroupIds out;
  const size_t n = batch.num_rows();
  out.group_of_row.resize(n);
  // Open hashing on the projected cells: bucket by a mixed hash, resolve
  // collisions by comparing the candidate group's representative row
  // column-by-column. Group ids are assigned in row-scan order, so the
  // numbering is exactly the row evaluator's first-seen order.
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  buckets.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    uint64_t h = 0xA5A5A5A5DEADBEEFULL;
    for (AttrId a : attrs) h = MixValue(h, batch.cols[a][r]);
    std::vector<uint32_t>& candidates = buckets[h];
    uint32_t group = static_cast<uint32_t>(out.rep_row.size());
    for (uint32_t g : candidates) {
      const uint32_t rep = out.rep_row[g];
      bool equal = true;
      for (AttrId a : attrs) {
        if (batch.cols[a][r] != batch.cols[a][rep]) {
          equal = false;
          break;
        }
      }
      if (equal) {
        group = g;
        break;
      }
    }
    if (group == out.rep_row.size()) {
      out.rep_row.push_back(static_cast<uint32_t>(r));
      candidates.push_back(group);
    }
    out.group_of_row[r] = group;
  }
  return out;
}

}  // namespace mrsl
