// Lineage helpers and the row-at-a-time plan skeleton shared by the
// plan evaluators (pdb/plan.cc), the safe-plan compiler
// (pdb/compiler.cc) and the fingerprinter (pdb/fingerprint.cc). Internal
// to src/pdb: not part of the library's public surface.

#ifndef MRSL_PDB_PLAN_INTERNAL_H_
#define MRSL_PDB_PLAN_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pdb/plan.h"
#include "pdb/prob_database.h"
#include "util/result.h"
#include "util/status.h"

namespace mrsl {
namespace plan_internal {

inline double Clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

// Sorted-unique merge of two block-key sets.
inline std::vector<uint64_t> UnionKeys(const std::vector<uint64_t>& a,
                                       const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

inline bool KeysIntersect(const std::vector<uint64_t>& a,
                          const std::vector<uint64_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

// Clamped mass of an alternative set of one block (alts sorted, unique).
inline double AltSetMass(const ProbDatabase& db, size_t block,
                         const std::vector<uint32_t>& alts) {
  double mass = 0.0;
  for (uint32_t j : alts) mass += db.block(block).alternatives[j].prob;
  return Clamp01(mass);
}

// Disjoint-set union over event indices, used to cluster events that
// share base blocks (the correlation structure).
class Dsu {
 public:
  explicit Dsu(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

// Groups events 0..n-1 into connected components of the shared-block
// graph, each component listed by ascending first event index
// (deterministic). `for_each_key(i, fn)` calls fn(key) for every base
// block key event i reads.
template <typename ForEachKey>
std::vector<std::vector<size_t>> CorrelationComponents(
    size_t n, ForEachKey for_each_key) {
  Dsu dsu(n);
  std::unordered_map<uint64_t, size_t> owner;  // block key -> event index
  for (size_t i = 0; i < n; ++i) {
    for_each_key(i, [&](uint64_t key) {
      auto [it, inserted] = owner.emplace(key, i);
      if (!inserted) dsu.Union(i, it->second);
    });
  }
  std::unordered_map<size_t, size_t> slot;  // root -> component position
  std::vector<std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) {
    size_t root = dsu.Find(i);
    auto [it, inserted] = slot.emplace(root, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(i);
  }
  return components;
}

// An owned row event (the output of a combination rule).
struct Event {
  ProbInterval prob;
  Lineage lineage;
};

// A borrowed row event: the interval by value (16 bytes), the lineage by
// pointer into whoever stores the row — PlanRow or ColumnBatch. The
// combination rules read EventRefs so no evaluator has to copy lineage
// vectors just to combine rows.
struct EventRef {
  ProbInterval prob;
  const Lineage* lineage;
};

// Correlation components of `events`.
inline std::vector<std::vector<size_t>> CorrelationComponents(
    const std::vector<EventRef>& events) {
  return CorrelationComponents(events.size(), [&](size_t i, auto&& fn) {
    for (uint64_t key : events[i].lineage->blocks) fn(key);
  });
}

// The lineage combination rules (pdb/plan.cc).
//
// OR of all `events`: DisjoinComponent per correlation component, then
// DisjoinIndependent over the components.
Event DisjoinEvents(const std::vector<EventRef>& events,
                    const std::vector<const ProbDatabase*>& sources,
                    bool* exact);

// OR of the events `comp` indexes, one correlation component. Exact
// when it is a single event or simple events on one shared block;
// otherwise it dissociates to Frechet bounds and *exact is cleared.
Event DisjoinComponent(const std::vector<EventRef>& events,
                       const std::vector<size_t>& comp,
                       const std::vector<const ProbDatabase*>& sources,
                       bool* exact);

// OR of block-disjoint, hence independent, events: the union
// complement-multiplies. Exact on exact operands.
Event DisjoinIndependent(std::vector<Event> parts);

// AND of two row events (Join). Sets *impossible for same-block events
// with non-intersecting alternative sets (the joined pair can never
// coexist); clears *exact when dissociation bounds were needed.
Event ConjoinEvents(const EventRef& a, const EventRef& b,
                    const std::vector<const ProbDatabase*>& sources,
                    bool* exact, bool* impossible);

// Alternative j of block b of sources[source] as a row: the exact
// event "block b picks j".
inline PlanRow ScanRow(const ProbDatabase& db, size_t source, size_t b,
                       size_t j) {
  const Alternative& alt = db.block(b).alternatives[j];
  PlanRow row;
  row.tuple = alt.tuple;
  row.prob = ProbInterval::Exact(Clamp01(alt.prob));
  row.lineage.simple = true;
  row.lineage.source = static_cast<uint32_t>(source);
  row.lineage.block = b;
  row.lineage.alts = {static_cast<uint32_t>(j)};
  row.lineage.blocks = {Lineage::BlockKey(static_cast<uint32_t>(source), b)};
  return row;
}

inline Status ValidateSource(size_t source,
                             const std::vector<const ProbDatabase*>& sources) {
  if (source >= sources.size() || sources[source] == nullptr) {
    return Status::InvalidArgument("scan source out of range: " +
                                   std::to_string(source));
  }
  return Status::OK();
}

// Renders `plan` in the parser's syntax (PlanToString), or with every
// Select literal replaced by "?" when `literals` is false (the
// fingerprint's normalized text). One post-order walk that builds each
// node's output schema once; fails where PlanOutputSchema does.
Result<std::string> RenderPlan(const PlanNode& plan,
                               const std::vector<const ProbDatabase*>& sources,
                               bool literals);

// ---------------------------------------------------------------------------
// The row-at-a-time plan skeleton: Scan, Select, Project and Join over a
// vector of rows, shared by the reference evaluator and the
// possible-world evaluator (pdb/plan.cc) and by the compiler's factored
// pass (pdb/compiler.cc). They differ only in how a row carries its
// event, which an event policy supplies:
//
//   using Row = ...;    // PlanRow, a type derived from it, or a Tuple
//   void Scan(size_t source, std::vector<Row>* out);
//   bool Conjoin(const Row& l, const Row& r, Row* out);
//       // Join: fills `out` except its tuple; false drops an
//       // impossible pair
//   Row Disjoin(const std::vector<Row>& rows, const uint32_t* members,
//               size_t n, Tuple key);
//       // Project: one output row from a group's member rows
//
// The skeleton fixes the row order for every policy: Select keeps rows
// in order; Project emits groups in first-seen order, each with its
// members in row order; Join probes a hash index on the right child in
// left-row order, matches in right-row order, and concatenates left then
// right values. Plans must be validated first (PlanOutputSchema):
// nothing here fails. The columnar executor (pdb/columnar.h) shares none
// of this, so the differential tests compare two independent traversals.
// ---------------------------------------------------------------------------

// A row's values, for every Row type the skeleton runs on.
inline Tuple& RowTuple(PlanRow& row) { return row.tuple; }
inline const Tuple& RowTuple(const PlanRow& row) { return row.tuple; }
inline Tuple& RowTuple(Tuple& tuple) { return tuple; }
inline const Tuple& RowTuple(const Tuple& tuple) { return tuple; }

template <typename Policy>
class RowSkeleton {
 public:
  using Row = typename Policy::Row;

  explicit RowSkeleton(Policy* policy) : policy_(policy) {}

  std::vector<Row> Eval(const PlanNode& node) {
    switch (node.op) {
      case PlanNode::Op::kScan: {
        std::vector<Row> out;
        policy_->Scan(node.source, &out);
        return out;
      }
      case PlanNode::Op::kSelect: {
        // Row values are certain, so selection filters rows without
        // touching their events.
        std::vector<Row> rows = Eval(*node.left);
        size_t kept = 0;
        for (size_t r = 0; r < rows.size(); ++r) {
          if (!node.pred.Eval(RowTuple(rows[r]))) continue;
          if (kept != r) rows[kept] = std::move(rows[r]);
          ++kept;
        }
        rows.resize(kept);
        return rows;
      }
      case PlanNode::Op::kProject:
        return Project(Eval(*node.left), node.attrs);
      case PlanNode::Op::kJoin: {
        std::vector<Row> left = Eval(*node.left);  // left before right
        std::vector<Row> right = Eval(*node.right);
        return Join(left, right, node.left_attr, node.right_attr);
      }
    }
    return {};
  }

  // Groups `rows` by their values on `attrs` (first-seen order) and
  // disjoins each group through the policy.
  std::vector<Row> Project(const std::vector<Row>& rows,
                           const std::vector<AttrId>& attrs) {
    index_.clear();
    keys_.clear();
    group_of_.resize(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const Tuple& t = RowTuple(rows[r]);
      Tuple key(attrs.size());
      for (size_t k = 0; k < attrs.size(); ++k) {
        key.set_value(static_cast<AttrId>(k), t.value(attrs[k]));
      }
      // emplace, not try_emplace: EvaluatePlanRowwise's cost is the
      // machine yardstick of scripts/check_query_regression.py.
      auto [it, inserted] =
          index_.emplace(key, static_cast<uint32_t>(keys_.size()));
      if (inserted) keys_.push_back(std::move(key));
      group_of_[r] = it->second;
    }
    // Stable counting sort: each group's members contiguous, in row order.
    offsets_.assign(keys_.size() + 1, 0);
    for (uint32_t g : group_of_) ++offsets_[g + 1];
    for (size_t g = 0; g < keys_.size(); ++g) offsets_[g + 1] += offsets_[g];
    members_.resize(rows.size());
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    for (size_t r = 0; r < rows.size(); ++r) {
      members_[cursor_[group_of_[r]]++] = static_cast<uint32_t>(r);
    }
    std::vector<Row> out;
    out.reserve(keys_.size());
    for (size_t g = 0; g < keys_.size(); ++g) {
      out.push_back(policy_->Disjoin(rows, members_.data() + offsets_[g],
                                     offsets_[g + 1] - offsets_[g],
                                     std::move(keys_[g])));
    }
    return out;
  }

 private:
  std::vector<Row> Join(const std::vector<Row>& left,
                        const std::vector<Row>& right, AttrId left_attr,
                        AttrId right_attr) {
    std::unordered_map<ValueId, std::vector<uint32_t>> right_index;
    right_index.reserve(right.size());
    for (size_t r = 0; r < right.size(); ++r) {
      right_index[RowTuple(right[r]).value(right_attr)].push_back(
          static_cast<uint32_t>(r));
    }
    // Exact output reservation: count matches first (cheap integer
    // pass), so the append loop never reallocates mid-join.
    size_t matches = 0;
    std::vector<const std::vector<uint32_t>*> left_matches(left.size(),
                                                           nullptr);
    for (size_t l = 0; l < left.size(); ++l) {
      auto it = right_index.find(RowTuple(left[l]).value(left_attr));
      if (it == right_index.end()) continue;
      left_matches[l] = &it->second;
      matches += it->second.size();
    }
    std::vector<Row> out;
    out.reserve(matches);
    for (size_t l = 0; l < left.size(); ++l) {
      if (left_matches[l] == nullptr) continue;
      const std::vector<ValueId>& lv = RowTuple(left[l]).values();
      for (uint32_t r : *left_matches[l]) {
        Row joined;
        if (!policy_->Conjoin(left[l], right[r], &joined)) continue;
        const std::vector<ValueId>& rv = RowTuple(right[r]).values();
        std::vector<ValueId> values;
        values.reserve(lv.size() + rv.size());
        values.insert(values.end(), lv.begin(), lv.end());
        values.insert(values.end(), rv.begin(), rv.end());
        RowTuple(joined) = Tuple(std::move(values));
        out.push_back(std::move(joined));
      }
    }
    return out;
  }

  Policy* policy_;
  // Project's scratch, reused across operators and calls (a child is
  // evaluated before its parent groups, so grouping never nests).
  std::unordered_map<Tuple, uint32_t, TupleHash> index_;
  std::vector<Tuple> keys_;
  std::vector<uint32_t> group_of_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> members_;
  std::vector<uint32_t> cursor_;
};

}  // namespace plan_internal
}  // namespace mrsl

#endif  // MRSL_PDB_PLAN_INTERNAL_H_
