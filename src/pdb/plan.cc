// Extensional plan evaluation with a lineage-driven safety check.
//
// Every row event is summarized by the set of base blocks it reads plus,
// for "simple" events, the exact alternative set of its one block. The
// two exact regimes are (a) block-disjoint lineages -> independence
// (probabilities multiply, unions complement-multiply) and (b) simple
// events on the same block -> disjointness (alternative sets intersect /
// union exactly). Everything else is correlated, and the evaluator
// dissociates: Frechet-style oblivious bounds ([max(0, p+q-1), min(p,q)]
// for AND, [max(p,q), min(1, p+q)] for OR) replace the point estimate.
// All combination rules are monotone in their operands, so interval
// endpoints propagate soundly through arbitrarily nested plans.
//
// The Monte-Carlo oracle partitions trials into fixed chunks, seeds each
// chunk purely from (seed, chunk index), tallies integers, and merges in
// chunk order — bit-identical output for every thread count, the same
// contract core/engine.h makes for inference.

#include "pdb/plan.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "pdb/columnar.h"
#include "pdb/plan_internal.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace mrsl {
namespace {

using plan_internal::AltSetMass;
using plan_internal::Clamp01;
using plan_internal::ConjoinEvents;
using plan_internal::CorrelationComponents;
using plan_internal::DisjoinEvents;
using plan_internal::Event;
using plan_internal::EventRef;
using plan_internal::KeysIntersect;
using plan_internal::UnionKeys;
using plan_internal::ValidateSource;

// Poisson-binomial DP: entry k is P(exactly k of the independent
// Bernoulli(qs[i]) events occur).
std::vector<double> PoissonBinomial(const std::vector<double>& qs) {
  std::vector<double> dist(1, 1.0);
  for (double q : qs) {
    dist.push_back(0.0);
    for (size_t k = dist.size() - 1; k > 0; --k) {
      dist[k] = dist[k] * (1.0 - q) + dist[k - 1] * q;
    }
    dist[0] *= (1.0 - q);
  }
  return dist;
}

}  // namespace

namespace plan_internal {

Event DisjoinComponent(const std::vector<EventRef>& events,
                       const std::vector<size_t>& comp,
                       const std::vector<const ProbDatabase*>& sources,
                       bool* exact) {
  const Lineage& first = *events[comp[0]].lineage;
  if (comp.size() == 1) return Event{events[comp[0]].prob, first};
  bool all_simple_same_block = true;
  for (size_t i : comp) {
    const Lineage& l = *events[i].lineage;
    if (!l.simple || l.source != first.source || l.block != first.block) {
      all_simple_same_block = false;
      break;
    }
  }
  Event ev;
  if (all_simple_same_block) {
    // Disjoint-union rule: the events are alternative sets of one
    // block, so their union's mass is exact.
    std::vector<uint32_t> alts;
    for (size_t i : comp) {
      const std::vector<uint32_t>& more = events[i].lineage->alts;
      alts.insert(alts.end(), more.begin(), more.end());
    }
    std::sort(alts.begin(), alts.end());
    alts.erase(std::unique(alts.begin(), alts.end()), alts.end());
    ev.lineage.simple = true;
    ev.lineage.source = first.source;
    ev.lineage.block = first.block;
    ev.lineage.blocks = first.blocks;
    ev.prob = ProbInterval::Exact(
        AltSetMass(*sources[first.source], first.block, alts));
    ev.lineage.alts = std::move(alts);
  } else {
    // Correlated component: dissociate to Frechet disjunction bounds.
    double lo = 0.0;
    double hi = 0.0;
    for (size_t i : comp) {
      lo = std::max(lo, events[i].prob.lo);
      hi += events[i].prob.hi;
      ev.lineage.blocks =
          UnionKeys(ev.lineage.blocks, events[i].lineage->blocks);
    }
    ev.prob = ProbInterval::Bounds(lo, std::min(1.0, hi));
    *exact = false;
  }
  return ev;
}

Event DisjoinIndependent(std::vector<Event> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  // 1 - prod(1 - p) is monotone in every p, so interval endpoints map
  // through directly.
  Event out;
  double none_lo = 1.0;
  double none_hi = 1.0;
  for (const Event& ev : parts) {
    none_lo *= (1.0 - ev.prob.lo);
    none_hi *= (1.0 - ev.prob.hi);
    out.lineage.blocks = UnionKeys(out.lineage.blocks, ev.lineage.blocks);
  }
  out.prob = ProbInterval::Bounds(Clamp01(1.0 - none_lo),
                                  Clamp01(1.0 - none_hi));
  return out;
}

Event DisjoinEvents(const std::vector<EventRef>& events,
                    const std::vector<const ProbDatabase*>& sources,
                    bool* exact) {
  assert(!events.empty());
  if (events.size() == 1) return Event{events[0].prob, *events[0].lineage};
  std::vector<Event> merged;
  for (const std::vector<size_t>& comp : CorrelationComponents(events)) {
    merged.push_back(DisjoinComponent(events, comp, sources, exact));
  }
  return DisjoinIndependent(std::move(merged));
}

Event ConjoinEvents(const EventRef& a, const EventRef& b,
                    const std::vector<const ProbDatabase*>& sources,
                    bool* exact, bool* impossible) {
  *impossible = false;
  const Lineage& la = *a.lineage;
  const Lineage& lb = *b.lineage;
  Event out;
  if (la.simple && lb.simple && la.source == lb.source &&
      la.block == lb.block) {
    // Same block: the chosen alternative must lie in both sets.
    std::vector<uint32_t> alts;
    std::set_intersection(la.alts.begin(), la.alts.end(), lb.alts.begin(),
                          lb.alts.end(), std::back_inserter(alts));
    if (alts.empty()) {
      *impossible = true;
      return out;
    }
    out.lineage.simple = true;
    out.lineage.source = la.source;
    out.lineage.block = la.block;
    out.lineage.blocks = la.blocks;
    out.prob = ProbInterval::Exact(
        AltSetMass(*sources[la.source], la.block, alts));
    out.lineage.alts = std::move(alts);
    return out;
  }
  out.lineage.blocks = UnionKeys(la.blocks, lb.blocks);
  if (!KeysIntersect(la.blocks, lb.blocks)) {
    // Independent operands: probabilities multiply, exactly.
    out.prob = ProbInterval::Bounds(a.prob.lo * b.prob.lo,
                                    a.prob.hi * b.prob.hi);
    return out;
  }
  // Correlated operands: Frechet conjunction bounds.
  out.prob = ProbInterval::Bounds(
      std::max(0.0, a.prob.lo + b.prob.lo - 1.0),
      std::min(a.prob.hi, b.prob.hi));
  *exact = false;
  return out;
}

}  // namespace plan_internal

namespace {

Attribute RenamedAttribute(const Attribute& src, std::string name) {
  std::vector<std::string> labels;
  for (size_t v = 0; v < src.cardinality(); ++v) {
    labels.push_back(src.label(static_cast<ValueId>(v)));
  }
  return Attribute(std::move(name), std::move(labels));
}

// Concatenated join schema; right-hand names are suffixed with "_r"
// (repeatedly, so nested joins stay collision-free).
Result<Schema> ConcatSchemas(const Schema& left, const Schema& right) {
  std::unordered_set<std::string> used;
  std::vector<Attribute> attrs;
  for (AttrId a = 0; a < left.num_attrs(); ++a) {
    attrs.push_back(left.attr(a));
    used.insert(left.attr(a).name());
  }
  for (AttrId a = 0; a < right.num_attrs(); ++a) {
    const Attribute& src = right.attr(a);
    std::string name = src.name() + "_r";
    while (used.count(name) != 0) name += "_r";
    used.insert(name);
    attrs.push_back(RenamedAttribute(src, std::move(name)));
  }
  return Schema::Create(std::move(attrs));
}

// Output schema of a projection; a column projected twice gets numeric
// suffixes ("a", "a_2", ...) so the schema stays valid.
Result<Schema> ProjectSchema(const Schema& child,
                             const std::vector<AttrId>& attrs) {
  std::unordered_set<std::string> used;
  std::vector<Attribute> kept;
  for (AttrId a : attrs) {
    if (a >= child.num_attrs()) {
      return Status::InvalidArgument("project attr out of range");
    }
    const Attribute& src = child.attr(a);
    std::string name = src.name();
    for (int suffix = 2; used.count(name) != 0; ++suffix) {
      name = src.name() + "_" + std::to_string(suffix);
    }
    used.insert(name);
    kept.push_back(RenamedAttribute(src, std::move(name)));
  }
  return Schema::Create(std::move(kept));
}

// The reference evaluator's event policy for the row skeleton
// (plan_internal.h): a row carries its interval and lineage summary, and
// Join / Project combine them with ConjoinEvents / DisjoinEvents.
class LineagePolicy {
 public:
  using Row = PlanRow;

  explicit LineagePolicy(const std::vector<const ProbDatabase*>& sources)
      : sources_(sources) {}

  // True iff every combination so far used an exact rule.
  bool safe() const { return safe_; }

  void Scan(size_t source, std::vector<PlanRow>* out) {
    const ProbDatabase& db = *sources_[source];
    size_t total = 0;
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      total += db.block(b).alternatives.size();
    }
    out->reserve(total);
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      for (size_t j = 0; j < db.block(b).alternatives.size(); ++j) {
        out->push_back(plan_internal::ScanRow(db, source, b, j));
      }
    }
  }

  bool Conjoin(const PlanRow& l, const PlanRow& r, PlanRow* out) {
    bool impossible = false;
    Event ev = ConjoinEvents(EventRef{l.prob, &l.lineage},
                             EventRef{r.prob, &r.lineage}, sources_, &safe_,
                             &impossible);
    if (impossible) return false;
    out->prob = ev.prob;
    out->lineage = std::move(ev.lineage);
    return true;
  }

  PlanRow Disjoin(const std::vector<PlanRow>& rows, const uint32_t* members,
                  size_t n, Tuple key) {
    events_.clear();
    events_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const PlanRow& row = rows[members[i]];
      events_.push_back(EventRef{row.prob, &row.lineage});
    }
    Event ev = DisjoinEvents(events_, sources_, &safe_);
    return PlanRow{std::move(key), ev.prob, std::move(ev.lineage)};
  }

 private:
  const std::vector<const ProbDatabase*>& sources_;
  std::vector<EventRef> events_;  // Disjoin scratch
  bool safe_ = true;
};

// ---------------------------------------------------------------------------
// The columnar batch evaluator (the production path). Same operators,
// same combination rules, same row order and floating-point operations
// as the reference evaluator (LineagePolicy on the row skeleton), but
// it shares none of the skeleton's code, and intermediate rows live in
// struct-of-arrays ColumnBatches: values in one contiguous column per
// attribute, the interval in flat double arrays, lineage in a side CSR
// table. No Tuple is constructed and no PlanRow is moved until the root
// rematerializes, and the batch combination rules below append lineage
// straight into the output arena — zero per-row allocations in steady
// state, where the row reference pays one or more vector allocations
// per event.
// ---------------------------------------------------------------------------

// Sorted-unique merge of two key spans into `out` (cleared first);
// returns true when the spans share a key — the UnionKeys +
// KeysIntersect pair of the row rules in one pass.
bool MergeKeySpans(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
                   std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(an + bn);
  bool shared = false;
  size_t i = 0;
  size_t j = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j]) {
      out->push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out->push_back(b[j++]);
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
      shared = true;
    }
  }
  out->insert(out->end(), a + i, a + an);
  out->insert(out->end(), b + j, b + bn);
  return shared;
}

// Scratch reused across every batch conjoin/disjoin of one evaluation,
// so the batch rules allocate nothing per row in steady state. Block
// keys are dense (BlockKey packs (source, block) and blocks are
// contiguous per source), so the "which event owns this block" lookup
// of the correlation DSU is an epoch-stamped direct-index table rather
// than a hash map — one array read per lineage key.
struct EventScratch {
  std::vector<uint32_t> alt_set;
  std::vector<uint64_t> key_set;
  std::vector<size_t> parent;           // DSU over group members
  std::vector<size_t> block_base;       // per-source slot base (prefix sums)
  std::vector<uint32_t> owner_of_block; // slot -> owning member idx
  std::vector<uint32_t> owner_epoch;    // slot -> stamp of last write
  uint32_t epoch = 0;
  std::vector<uint32_t> comp_of_root;   // member idx -> component (or ~0u)
  std::vector<std::vector<uint32_t>> components;
  size_t num_components = 0;
};

// Concatenate + sort + unique the block keys of the member rows named
// by `comp` — the same set the row rules build by pairwise UnionKeys
// merging, without the quadratic blowup.
void CollectSortedKeys(const LineageTable& lt, const uint32_t* rows,
                       const uint32_t* comp, size_t comp_n,
                       std::vector<uint64_t>* out) {
  out->clear();
  for (size_t i = 0; i < comp_n; ++i) {
    const uint32_t r = rows[comp[i]];
    out->insert(out->end(), lt.keys_begin(r),
                lt.keys_begin(r) + lt.keys_size(r));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

// AND of row l of `left` and row r of `right`: appends the combined
// interval and lineage to `out` and returns true, or returns false for
// an impossible pair (same block, disjoint alternative sets). Mirrors
// ConjoinEvents rule for rule — same formulas, same operation order.
bool ConjoinRowsToBatch(const ColumnBatch& left, size_t l,
                        const ColumnBatch& right, size_t r,
                        const std::vector<const ProbDatabase*>& sources,
                        ColumnBatch* out, bool* exact, EventScratch* s) {
  const LineageTable& la = left.lineage;
  const LineageTable& lb = right.lineage;
  if (la.simple[l] != 0 && lb.simple[r] != 0 &&
      la.source[l] == lb.source[r] && la.block[l] == lb.block[r]) {
    // Same block: the chosen alternative must lie in both sets.
    s->alt_set.clear();
    std::set_intersection(la.alts_begin(l), la.alts_begin(l) + la.alts_size(l),
                          lb.alts_begin(r), lb.alts_begin(r) + lb.alts_size(r),
                          std::back_inserter(s->alt_set));
    if (s->alt_set.empty()) return false;
    const double mass = AltSetMass(*sources[la.source[l]],
                                   static_cast<size_t>(la.block[l]),
                                   s->alt_set);
    out->lo.push_back(mass);
    out->hi.push_back(mass);
    out->lineage.AppendSimple(la.source[l], la.block[l], s->alt_set);
    return true;
  }
  const bool shared =
      MergeKeySpans(la.keys_begin(l), la.keys_size(l), lb.keys_begin(r),
                    lb.keys_size(r), &s->key_set);
  if (!shared) {
    // Independent operands: probabilities multiply, exactly.
    out->lo.push_back(left.lo[l] * right.lo[r]);
    out->hi.push_back(left.hi[l] * right.hi[r]);
  } else {
    // Correlated operands: Frechet conjunction bounds.
    out->lo.push_back(std::max(0.0, left.lo[l] + right.lo[r] - 1.0));
    out->hi.push_back(std::min(left.hi[l], right.hi[r]));
    *exact = false;
  }
  out->lineage.AppendComposite(s->key_set);
  return true;
}

// OR of one projection group's member rows (`rows[0..n)` of `child`):
// appends the merged interval and lineage to `out`. Mirrors
// DisjoinEvents — same component structure, same formulas in the same
// order — with one representational improvement: a correlated
// component's key set is collected once and sort-uniqued instead of
// merged pairwise (identical resulting set, linear instead of
// quadratic in the component's block count). Out of line: EvalNodeBatch
// has inlining budget for one of the two batch rules, and the join's
// per-pair ConjoinRowsToBatch is the one that pays for a call.
[[gnu::noinline]] void DisjoinGroupToBatch(
    const ColumnBatch& child, const uint32_t* rows, size_t n,
    const std::vector<const ProbDatabase*>& sources, ColumnBatch* out,
    bool* exact, EventScratch* s) {
  const LineageTable& lt = child.lineage;
  assert(n != 0);
  if (n == 1) {
    out->lo.push_back(child.lo[rows[0]]);
    out->hi.push_back(child.hi[rows[0]]);
    out->lineage.AppendFrom(lt, rows[0]);
    return;
  }

  // Correlation components (mirrors CorrelationComponents): DSU over
  // the members, unioning events that share a base block; components
  // numbered by ascending first member index.
  s->parent.resize(n);
  std::iota(s->parent.begin(), s->parent.end(), 0);
  auto find = [&](size_t x) {
    while (s->parent[x] != x) {
      s->parent[x] = s->parent[s->parent[x]];
      x = s->parent[x];
    }
    return x;
  };
  if (s->block_base.empty()) {
    s->block_base.resize(sources.size() + 1, 0);
    for (size_t i = 0; i < sources.size(); ++i) {
      s->block_base[i + 1] =
          s->block_base[i] + (sources[i] != nullptr ? sources[i]->num_blocks()
                                                    : 0);
    }
    s->owner_of_block.assign(s->block_base.back(), 0);
    s->owner_epoch.assign(s->block_base.back(), 0);
  }
  ++s->epoch;
  constexpr uint64_t kBlockMask = (uint64_t{1} << 40) - 1;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* kb = lt.keys_begin(rows[i]);
    const size_t kn = lt.keys_size(rows[i]);
    for (size_t k = 0; k < kn; ++k) {
      const size_t slot =
          s->block_base[kb[k] >> 40] + static_cast<size_t>(kb[k] & kBlockMask);
      if (s->owner_epoch[slot] != s->epoch) {
        s->owner_epoch[slot] = s->epoch;
        s->owner_of_block[slot] = static_cast<uint32_t>(i);
      } else {
        s->parent[find(i)] = find(s->owner_of_block[slot]);
      }
    }
  }
  s->comp_of_root.assign(n, UINT32_MAX);
  s->num_components = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t root = find(i);
    if (s->comp_of_root[root] == UINT32_MAX) {
      s->comp_of_root[root] = static_cast<uint32_t>(s->num_components);
      if (s->components.size() == s->num_components) {
        s->components.emplace_back();
      }
      s->components[s->num_components].clear();
      ++s->num_components;
    }
    s->components[s->comp_of_root[root]].push_back(static_cast<uint32_t>(i));
  }

  // One component: its merged event IS the output row (the row rules'
  // merged.size() == 1 shortcut). Several: they touch disjoint blocks,
  // hence are independent, and the union complement-multiplies in
  // component order.
  const bool lone = s->num_components == 1;
  double none_lo = 1.0;
  double none_hi = 1.0;
  for (size_t c = 0; c < s->num_components; ++c) {
    const std::vector<uint32_t>& comp = s->components[c];
    double clo = 0.0;
    double chi = 0.0;
    if (comp.size() == 1) {
      const uint32_t r = rows[comp[0]];
      clo = child.lo[r];
      chi = child.hi[r];
      if (lone) {
        out->lo.push_back(clo);
        out->hi.push_back(chi);
        out->lineage.AppendFrom(lt, r);
        return;
      }
    } else {
      const uint32_t r0 = rows[comp[0]];
      bool all_simple_same_block = true;
      for (uint32_t i : comp) {
        const uint32_t r = rows[i];
        if (lt.simple[r] == 0 || lt.source[r] != lt.source[r0] ||
            lt.block[r] != lt.block[r0]) {
          all_simple_same_block = false;
          break;
        }
      }
      if (all_simple_same_block) {
        // Disjoint-union rule: alternative sets of one block union
        // exactly.
        s->alt_set.clear();
        for (uint32_t i : comp) {
          const uint32_t r = rows[i];
          s->alt_set.insert(s->alt_set.end(), lt.alts_begin(r),
                            lt.alts_begin(r) + lt.alts_size(r));
        }
        std::sort(s->alt_set.begin(), s->alt_set.end());
        s->alt_set.erase(std::unique(s->alt_set.begin(), s->alt_set.end()),
                         s->alt_set.end());
        clo = chi = AltSetMass(*sources[lt.source[r0]],
                               static_cast<size_t>(lt.block[r0]), s->alt_set);
        if (lone) {
          out->lo.push_back(clo);
          out->hi.push_back(chi);
          out->lineage.AppendSimple(lt.source[r0], lt.block[r0], s->alt_set);
          return;
        }
      } else {
        // Correlated component: dissociate to Frechet disjunction
        // bounds.
        for (uint32_t i : comp) {
          const uint32_t r = rows[i];
          clo = std::max(clo, child.lo[r]);
          chi += child.hi[r];
        }
        chi = std::min(1.0, chi);
        *exact = false;
        if (lone) {
          CollectSortedKeys(lt, rows, comp.data(), comp.size(), &s->key_set);
          out->lo.push_back(clo);
          out->hi.push_back(chi);
          out->lineage.AppendComposite(s->key_set);
          return;
        }
      }
    }
    none_lo *= (1.0 - clo);
    none_hi *= (1.0 - chi);
  }

  // The combined lineage reads every member's blocks; the set is the
  // same whether unioned pairwise (row rules) or collected and
  // sort-uniqued once.
  s->key_set.clear();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    s->key_set.insert(s->key_set.end(), lt.keys_begin(r),
                      lt.keys_begin(r) + lt.keys_size(r));
  }
  std::sort(s->key_set.begin(), s->key_set.end());
  s->key_set.erase(std::unique(s->key_set.begin(), s->key_set.end()),
                   s->key_set.end());
  out->lo.push_back(Clamp01(1.0 - none_lo));
  out->hi.push_back(Clamp01(1.0 - none_hi));
  out->lineage.AppendComposite(s->key_set);
}

// Predicate::Eval and the column sweep read cells unchecked, so every
// Select checks its atoms against its input schema first.
Status ValidatePredicate(const Predicate& pred, const Schema& schema) {
  if (schema.num_attrs() < kMaxAttributes &&
      (pred.AttrsTouched() >> schema.num_attrs()) != 0) {
    return Status::InvalidArgument("select predicate attr out of range");
  }
  return Status::OK();
}

// Per-operator EXPLAIN ANALYZE + resource accounting: stamps the
// operator span with its input/output cardinalities and the arena
// footprint of the output lineage, folds the output batch into the
// request's PlanResources peaks/counters, then ends the span. Two early
// returns when both feeds are off.
void CloseOpSpan(const TraceSpan& span, size_t rows_in,
                 const ColumnBatch& out, PlanResources* res) {
  if (res != nullptr) {
    res->peak_batch_bytes =
        std::max<uint64_t>(res->peak_batch_bytes, out.ByteSize());
    res->peak_lineage_bytes =
        std::max<uint64_t>(res->peak_lineage_bytes, out.lineage.ByteSize());
    res->lineage_events += out.lineage.num_rows();
  }
  if (!span.active()) return;
  span.SetAttr("rows_in", static_cast<int64_t>(rows_in));
  span.SetAttr("rows_out", static_cast<int64_t>(out.num_rows()));
  span.SetAttr("lineage_size",
               static_cast<int64_t>(out.lineage.keys.size() +
                                    out.lineage.alts.size()));
  span.End();
}

Result<ColumnBatch> EvalNodeBatch(const PlanNode& node,
                                  const std::vector<const ProbDatabase*>& sources,
                                  TraceSpan trace, PlanResources* res) {
  switch (node.op) {
    case PlanNode::Op::kScan: {
      TraceSpan span = trace.StartChild("op.scan");
      MRSL_RETURN_IF_ERROR(ValidateSource(node.source, sources));
      ColumnBatch out = ScanToBatch(*sources[node.source],
                                    static_cast<uint32_t>(node.source));
      CloseOpSpan(span, 0, out, res);
      return out;
    }

    case PlanNode::Op::kSelect: {
      TraceSpan span = trace.StartChild("op.select");
      const PlanNode& in = *node.left;
      if (in.op == PlanNode::Op::kScan) {
        // Select over Scan fuses: the scan tests the predicate on each
        // alternative and copies only the rows that pass.
        MRSL_RETURN_IF_ERROR(ValidateSource(in.source, sources));
        const ProbDatabase& db = *sources[in.source];
        MRSL_RETURN_IF_ERROR(ValidatePredicate(node.pred, db.schema()));
        ColumnBatch out =
            ScanToBatch(db, static_cast<uint32_t>(in.source), &node.pred);
        CloseOpSpan(span, db.num_alternatives(), out, res);
        return out;
      }
      auto child = EvalNodeBatch(in, sources, span, res);
      if (!child.ok()) return child.status();
      MRSL_RETURN_IF_ERROR(ValidatePredicate(node.pred, child->schema));
      const size_t rows_in = child->num_rows();
      if (!node.pred.atoms().empty()) {
        child->Keep(SelectRows(*child, node.pred));
      }
      CloseOpSpan(span, rows_in, *child, res);
      return child;
    }

    case PlanNode::Op::kProject: {
      TraceSpan span = trace.StartChild("op.project");
      auto child = EvalNodeBatch(*node.left, sources, span, res);
      if (!child.ok()) return child.status();
      auto schema = ProjectSchema(child->schema, node.attrs);
      if (!schema.ok()) return schema.status();

      // Group-id sweep over the projected columns (first-seen order),
      // then a stable counting sort so each group's member rows are
      // contiguous for the single disjoin pass.
      GroupIds groups = AssignGroupIds(*child, node.attrs);
      const size_t n = child->num_rows();
      const size_t g_count = groups.num_groups();
      std::vector<uint32_t> offsets(g_count + 1, 0);
      for (size_t r = 0; r < n; ++r) ++offsets[groups.group_of_row[r] + 1];
      for (size_t g = 0; g < g_count; ++g) offsets[g + 1] += offsets[g];
      std::vector<uint32_t> members(n);
      {
        std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
        for (size_t r = 0; r < n; ++r) {
          members[cursor[groups.group_of_row[r]]++] =
              static_cast<uint32_t>(r);
        }
      }

      ColumnBatch out;
      out.SetSchema(std::move(schema).value());
      out.safe = child->safe;
      out.ReserveRows(g_count);
      EventScratch scratch;
      for (size_t g = 0; g < g_count; ++g) {
        DisjoinGroupToBatch(*child, members.data() + offsets[g],
                            offsets[g + 1] - offsets[g], sources, &out,
                            &out.safe, &scratch);
        const uint32_t rep = groups.rep_row[g];
        for (size_t k = 0; k < node.attrs.size(); ++k) {
          out.cols[k].push_back(child->cols[node.attrs[k]][rep]);
        }
      }
      CloseOpSpan(span, n, out, res);
      return out;
    }

    case PlanNode::Op::kJoin: {
      TraceSpan span = trace.StartChild("op.join");
      auto left = EvalNodeBatch(*node.left, sources, span, res);
      if (!left.ok()) return left.status();
      auto right = EvalNodeBatch(*node.right, sources, span, res);
      if (!right.ok()) return right.status();
      if (node.left_attr >= left->schema.num_attrs() ||
          node.right_attr >= right->schema.num_attrs()) {
        return Status::InvalidArgument("join attribute out of range");
      }
      auto schema = ConcatSchemas(left->schema, right->schema);
      if (!schema.ok()) return schema.status();

      // Hash build on the raw right key column.
      std::unordered_map<ValueId, std::vector<uint32_t>> right_index =
          BuildKeyIndex(right->cols[node.right_attr]);

      ColumnBatch out;
      out.SetSchema(std::move(schema).value());
      out.safe = left->safe && right->safe;

      // Pass 1 — probe and combine events, recording the surviving
      // (left, right) row pairs. Only the event math runs per pair; no
      // values move yet.
      const std::vector<ValueId>& left_keys = left->cols[node.left_attr];
      const size_t left_n = left->num_rows();
      std::vector<uint32_t> lrows;
      std::vector<uint32_t> rrows;
      EventScratch scratch;
      for (size_t l = 0; l < left_n; ++l) {
        auto it = right_index.find(left_keys[l]);
        if (it == right_index.end()) continue;
        for (uint32_t r : it->second) {
          if (!ConjoinRowsToBatch(*left, l, *right, r, sources, &out,
                                  &out.safe, &scratch)) {
            continue;
          }
          lrows.push_back(static_cast<uint32_t>(l));
          rrows.push_back(r);
        }
      }

      // Pass 2 — batched output append: one contiguous gather per
      // output column.
      const size_t out_n = lrows.size();
      const size_t ln = left->num_attrs();
      const size_t rn = right->num_attrs();
      for (size_t a = 0; a < ln; ++a) {
        const std::vector<ValueId>& src = left->cols[a];
        std::vector<ValueId>& dst = out.cols[a];
        dst.resize(out_n);
        for (size_t k = 0; k < out_n; ++k) dst[k] = src[lrows[k]];
      }
      for (size_t a = 0; a < rn; ++a) {
        const std::vector<ValueId>& src = right->cols[a];
        std::vector<ValueId>& dst = out.cols[ln + a];
        dst.resize(out_n);
        for (size_t k = 0; k < out_n; ++k) dst[k] = src[rrows[k]];
      }
      CloseOpSpan(span, left_n + right->num_rows(), out, res);
      return out;
    }
  }
  return Status::Internal("unknown plan operator");
}

}  // namespace

std::string ProbInterval::ToString() const {
  if (exact()) return FormatDouble(lo, 4);
  return "[" + FormatDouble(lo, 4) + ", " + FormatDouble(hi, 4) + "]";
}

PlanPtr ScanPlan(size_t source) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanNode::Op::kScan;
  node->source = source;
  return node;
}

PlanPtr SelectPlan(Predicate pred, PlanPtr child) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanNode::Op::kSelect;
  node->pred = std::move(pred);
  node->left = std::move(child);
  return node;
}

PlanPtr ProjectPlan(std::vector<AttrId> attrs, PlanPtr child) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanNode::Op::kProject;
  node->attrs = std::move(attrs);
  node->left = std::move(child);
  return node;
}

PlanPtr JoinPlan(PlanPtr left, PlanPtr right, AttrId left_attr,
                 AttrId right_attr) {
  auto node = std::make_shared<PlanNode>();
  node->op = PlanNode::Op::kJoin;
  node->left = std::move(left);
  node->right = std::move(right);
  node->left_attr = left_attr;
  node->right_attr = right_attr;
  return node;
}

namespace {

// One node of PlanWalk: its output schema and its text. A Scan or Select
// borrows the schema below it; a Project or Join owns the one it built.
struct WalkedNode {
  const Schema* schema = nullptr;
  std::unique_ptr<Schema> owned;
  std::string text;
};

// Predicate::ToString with every literal replaced by "?". Atom order is
// preserved: "a=X AND b=Y" and "b=Y AND a=X" are different shapes (the
// columnar evaluator sweeps atoms in order), matching the canonical
// plan-text identity the plan cache already uses.
std::string PlaceholderPredicate(const Predicate& pred, const Schema& schema) {
  const auto& atoms = pred.atoms();
  if (atoms.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i != 0) out += " AND ";
    out += schema.attr(atoms[i].attr).name();
    out += atoms[i].negated ? "!=" : "=";
    out += '?';
  }
  return out;
}

// The one validating walk over a plan: post-order, building each node's
// output schema exactly once, so validation and rendering are linear in
// the plan size. Select literals render as labels, or as "?" when
// `literals` is false.
Result<WalkedNode> PlanWalk(const PlanNode& plan,
                            const std::vector<const ProbDatabase*>& sources,
                            bool literals) {
  switch (plan.op) {
    case PlanNode::Op::kScan: {
      MRSL_RETURN_IF_ERROR(ValidateSource(plan.source, sources));
      WalkedNode out;
      out.schema = &sources[plan.source]->schema();
      out.text = "scan(" + std::to_string(plan.source) + ")";
      return out;
    }
    case PlanNode::Op::kSelect: {
      MRSL_ASSIGN_OR_RETURN(WalkedNode out,
                            PlanWalk(*plan.left, sources, literals));
      // Every row-at-a-time path validates plans only through this walk
      // before calling Predicate::Eval, whose cell access is unchecked.
      MRSL_RETURN_IF_ERROR(ValidatePredicate(plan.pred, *out.schema));
      out.text = "select(" +
                 (literals ? plan.pred.ToString(*out.schema)
                           : PlaceholderPredicate(plan.pred, *out.schema)) +
                 "; " + out.text + ")";
      return out;
    }
    case PlanNode::Op::kProject: {
      MRSL_ASSIGN_OR_RETURN(WalkedNode child,
                            PlanWalk(*plan.left, sources, literals));
      MRSL_ASSIGN_OR_RETURN(Schema schema,
                            ProjectSchema(*child.schema, plan.attrs));
      std::vector<std::string> names;
      for (AttrId a : plan.attrs) names.push_back(child.schema->attr(a).name());
      WalkedNode out;
      out.text = "project(" + Join(names, ",") + "; " + child.text + ")";
      out.owned = std::make_unique<Schema>(std::move(schema));
      out.schema = out.owned.get();
      return out;
    }
    case PlanNode::Op::kJoin: {
      MRSL_ASSIGN_OR_RETURN(WalkedNode left,
                            PlanWalk(*plan.left, sources, literals));
      MRSL_ASSIGN_OR_RETURN(WalkedNode right,
                            PlanWalk(*plan.right, sources, literals));
      if (plan.left_attr >= left.schema->num_attrs() ||
          plan.right_attr >= right.schema->num_attrs()) {
        return Status::InvalidArgument("join attribute out of range");
      }
      MRSL_ASSIGN_OR_RETURN(Schema schema,
                            ConcatSchemas(*left.schema, *right.schema));
      WalkedNode out;
      out.text = "join(" + left.text + "; " + right.text + "; " +
                 left.schema->attr(plan.left_attr).name() + "=" +
                 right.schema->attr(plan.right_attr).name() + ")";
      out.owned = std::make_unique<Schema>(std::move(schema));
      out.schema = out.owned.get();
      return out;
    }
  }
  return Status::Internal("unknown plan operator");
}

}  // namespace

Result<Schema> PlanOutputSchema(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources) {
  // Placeholders: a literal outside its attribute's labels is legal in
  // an evaluated plan (it matches nothing) but has no label to render.
  MRSL_ASSIGN_OR_RETURN(WalkedNode node, PlanWalk(plan, sources, false));
  if (node.owned != nullptr) return std::move(*node.owned);
  return *node.schema;
}

Result<std::string> PlanToString(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources) {
  return plan_internal::RenderPlan(plan, sources, /*literals=*/true);
}

Result<std::string> plan_internal::RenderPlan(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    bool literals) {
  MRSL_ASSIGN_OR_RETURN(WalkedNode node, PlanWalk(plan, sources, literals));
  return std::move(node.text);
}

void PlanResources::Merge(const PlanResources& other) {
  peak_batch_bytes = std::max(peak_batch_bytes, other.peak_batch_bytes);
  peak_lineage_bytes = std::max(peak_lineage_bytes, other.peak_lineage_bytes);
  lineage_events += other.lineage_events;
  worlds_sampled += other.worlds_sampled;
}

Result<PlanResult> EvaluatePlan(const PlanNode& plan,
                                const std::vector<const ProbDatabase*>& sources,
                                TraceSpan trace, PlanResources* resources) {
  auto batch = EvalNodeBatch(plan, sources, trace, resources);
  if (!batch.ok()) return batch.status();
  return BatchToPlanResult(std::move(*batch));
}

Result<PlanResult> EvaluatePlanRowwise(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources) {
  PlanResult out;
  MRSL_ASSIGN_OR_RETURN(out.schema, PlanOutputSchema(plan, sources));
  LineagePolicy policy(sources);
  out.rows = plan_internal::RowSkeleton<LineagePolicy>(&policy).Eval(plan);
  out.safe = policy.safe();
  return out;
}

std::vector<DistinctMarginal> DistinctMarginals(
    const PlanResult& result,
    const std::vector<const ProbDatabase*>& sources) {
  // A projection onto every column: one group per distinct tuple.
  std::vector<AttrId> all(
      result.rows.empty() ? 0 : result.rows[0].tuple.num_attrs());
  std::iota(all.begin(), all.end(), AttrId{0});
  LineagePolicy policy(sources);  // exactness shows in each interval
  std::vector<PlanRow> groups =
      plan_internal::RowSkeleton<LineagePolicy>(&policy).Project(result.rows,
                                                                 all);
  std::vector<DistinctMarginal> out;
  out.reserve(groups.size());
  for (PlanRow& group : groups) {
    out.push_back(DistinctMarginal{std::move(group.tuple), group.prob});
  }
  return out;
}

ExistsResult ExistsFromResult(
    const PlanResult& result,
    const std::vector<const ProbDatabase*>& sources) {
  ExistsResult out;
  out.safe = result.safe;
  if (result.rows.empty()) {
    out.prob = ProbInterval::Exact(0.0);
    return out;
  }
  std::vector<EventRef> events;
  events.reserve(result.rows.size());
  for (const PlanRow& row : result.rows) {
    events.push_back(EventRef{row.prob, &row.lineage});
  }
  Event ev = DisjoinEvents(events, sources, &out.safe);
  out.prob = ev.prob;
  return out;
}

Result<ExistsResult> EvaluateExists(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources) {
  auto result = EvaluatePlan(plan, sources);
  if (!result.ok()) return result.status();
  return ExistsFromResult(*result, sources);
}

CountResult CountFromResult(
    const PlanResult& result,
    const std::vector<const ProbDatabase*>& sources) {
  // `sources` keeps the signature parallel to ExistsFromResult; the
  // count rules below need only the rows' own events.
  (void)sources;
  CountResult out;
  out.safe = result.safe;

  // Linearity of expectation: the expected bag count is the sum of row
  // probabilities regardless of correlation, so the interval sum is
  // always sound and exact whenever every row is exact.
  double lo = 0.0;
  double hi = 0.0;
  bool all_exact = true;
  for (const PlanRow& row : result.rows) {
    lo += row.prob.lo;
    hi += row.prob.hi;
    all_exact = all_exact && row.prob.exact();
  }
  out.expected = ProbInterval::Bounds(lo, hi);

  // The full count distribution needs independent Bernoulli
  // contributions: rows in distinct correlation components, or simple
  // same-block rows with pairwise-disjoint alternative sets (at most one
  // of them exists per world -> one Bernoulli of the summed mass).
  if (!all_exact) return out;
  std::vector<EventRef> events;
  events.reserve(result.rows.size());
  for (const PlanRow& row : result.rows) {
    events.push_back(EventRef{row.prob, &row.lineage});
  }
  std::vector<double> bernoullis;
  for (const std::vector<size_t>& comp : CorrelationComponents(events)) {
    if (comp.size() == 1) {
      bernoullis.push_back(events[comp[0]].prob.lo);
      continue;
    }
    double mass = 0.0;
    size_t distinct_alts = 0;
    std::vector<uint32_t> seen;
    bool mergeable = true;
    for (size_t i : comp) {
      const Lineage& l = *events[i].lineage;
      if (!l.simple || l.source != events[comp[0]].lineage->source ||
          l.block != events[comp[0]].lineage->block) {
        mergeable = false;
        break;
      }
      seen.insert(seen.end(), l.alts.begin(), l.alts.end());
      distinct_alts += l.alts.size();
      mass += events[i].prob.lo;
    }
    if (mergeable) {
      std::sort(seen.begin(), seen.end());
      seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
      // Overlapping alternative sets would let one world satisfy two
      // rows at once — the contribution is no longer Bernoulli.
      if (seen.size() != distinct_alts) mergeable = false;
    }
    if (!mergeable) return out;  // expected interval only
    bernoullis.push_back(Clamp01(mass));
  }

  out.has_distribution = true;
  out.distribution = PoissonBinomial(bernoullis);
  return out;
}

Result<CountResult> EvaluateCount(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources) {
  auto result = EvaluatePlan(plan, sources);
  if (!result.ok()) return result.status();
  return CountFromResult(*result, sources);
}

// ---------------------------------------------------------------------------
// Plan text parser.
// ---------------------------------------------------------------------------

namespace {

// Parse-time context: the original query buffer (so every error can
// carry the byte offset of the offending token — views handed around
// the parser are substrings of it) and a recursion depth guard against
// adversarially nested input.
struct ParseContext {
  const char* begin = nullptr;
  const char* end = nullptr;
  int depth = 0;
};

constexpr int kMaxParseDepth = 64;

// An InvalidArgument anchored at `where` (a substring of the original
// text; locations outside the buffer — e.g. views of normalized copies
// — fall back to the buffer start).
Status ParseError(const ParseContext& ctx, std::string_view where,
                  std::string message) {
  size_t offset = 0;
  if (where.data() >= ctx.begin && where.data() <= ctx.end) {
    offset = static_cast<size_t>(where.data() - ctx.begin);
  }
  return Status::InvalidArgument(message + " at byte " +
                                 std::to_string(offset));
}

// Splits the argument list of "op( ... )" on top-level ';', respecting
// nested parentheses. `text` excludes the outer parens. Brackets nest
// like parentheses and either kind closes either, so the half-open
// interval labels of relational/discretizer.h ("[1.5,3.0)") stay
// balanced and PlanToString's output parses back.
Result<std::vector<std::string_view>> SplitArgs(std::string_view text,
                                                const ParseContext& ctx) {
  std::vector<std::string_view> args;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') {
      --depth;
      if (depth < 0) {
        return ParseError(ctx, text.substr(i),
                          std::string("unbalanced '") + c + "'");
      }
    }
    if (c == ';' && depth == 0) {
      args.push_back(Trim(text.substr(start, i - start)));
      start = i + 1;
    }
  }
  if (depth != 0) return ParseError(ctx, text, "unbalanced '('");
  args.push_back(Trim(text.substr(start)));
  return args;
}

// "op" and the parenthesized payload of "op( ... )"; payload is empty
// (and *has_args false) for a bare identifier like "scan".
Status SplitCall(std::string_view text, const ParseContext& ctx,
                 std::string_view* op, std::string_view* payload,
                 bool* has_args) {
  text = Trim(text);
  size_t paren = text.find('(');
  if (paren == std::string_view::npos) {
    *op = text;
    *payload = std::string_view();
    *has_args = false;
    return Status::OK();
  }
  if (text.back() != ')') {
    return ParseError(ctx, text.substr(text.size() - 1),
                      "expected ')' at end of: " + std::string(text));
  }
  *op = Trim(text.substr(0, paren));
  *payload = text.substr(paren + 1, text.size() - paren - 2);
  *has_args = true;
  return Status::OK();
}

Result<AttrId> ResolveAttr(std::string_view name, const Schema& schema,
                           const ParseContext& ctx,
                           std::string_view location) {
  AttrId id = 0;
  if (!schema.FindAttr(std::string(Trim(name)), &id)) {
    return ParseError(ctx, location,
                      "unknown attribute: " + std::string(Trim(name)));
  }
  return id;
}

Result<Predicate> ParsePredicateText(std::string_view text,
                                     const Schema& schema,
                                     const ParseContext& ctx) {
  std::string norm(Trim(text));
  if (norm.empty() || norm == "true" || norm == "TRUE") return Predicate();
  // Predicate::ToString joins atoms with " AND "; accept it back.
  for (size_t pos = 0; (pos = norm.find(" AND ", pos)) != std::string::npos;) {
    norm.replace(pos, 5, " & ");
  }
  Predicate pred;
  for (const std::string& atom : Split(norm, '&')) {
    std::string_view a = Trim(atom);
    size_t ne = a.find("!=");
    size_t eq = a.find('=');
    bool negated = ne != std::string_view::npos;
    size_t op_pos = negated ? ne : eq;
    if (op_pos == std::string_view::npos) {
      // `a` views the normalized copy; anchor at the predicate text.
      return ParseError(ctx, text,
                        "bad predicate atom: " + std::string(a));
    }
    auto attr = ResolveAttr(a.substr(0, op_pos), schema, ctx, text);
    if (!attr.ok()) return attr.status();
    std::string label(Trim(a.substr(op_pos + (negated ? 2 : 1))));
    ValueId value = schema.attr(*attr).Find(label);
    if (value == kMissingValue) {
      return ParseError(ctx, text,
                        "unknown value '" + label + "' for attribute " +
                            schema.attr(*attr).name());
    }
    pred = pred.And(negated ? Predicate::Ne(*attr, value)
                            : Predicate::Eq(*attr, value));
  }
  return pred;
}

struct ParsedNode {
  PlanPtr plan;
  Schema schema;
};

Result<ParsedNode> ParseNodeText(std::string_view text,
                                 const std::vector<const ProbDatabase*>& sources,
                                 ParseContext* ctx) {
  if (++ctx->depth > kMaxParseDepth) {
    --ctx->depth;
    return ParseError(*ctx, text,
                      "plan nested deeper than " +
                          std::to_string(kMaxParseDepth) + " levels");
  }
  struct DepthGuard {
    ParseContext* ctx;
    ~DepthGuard() { --ctx->depth; }
  } guard{ctx};

  std::string_view op;
  std::string_view payload;
  bool has_args = false;
  MRSL_RETURN_IF_ERROR(SplitCall(text, *ctx, &op, &payload, &has_args));

  if (op == "scan") {
    size_t source = 0;
    if (has_args && !Trim(payload).empty()) {
      int64_t idx = 0;
      if (!ParseInt(Trim(payload), &idx) || idx < 0) {
        return ParseError(*ctx, payload,
                          "bad scan source: " + std::string(payload));
      }
      source = static_cast<size_t>(idx);
    }
    Status valid = ValidateSource(source, sources);
    if (!valid.ok()) return ParseError(*ctx, text, valid.message());
    return ParsedNode{ScanPlan(source), sources[source]->schema()};
  }
  if (!has_args) {
    return ParseError(*ctx, text.empty() ? op : text,
                      "unknown plan operator: " + std::string(op));
  }
  auto args = SplitArgs(payload, *ctx);
  if (!args.ok()) return args.status();

  if (op == "select") {
    if (args->size() != 2) {
      return ParseError(*ctx, payload,
                        "select(pred; node) takes 2 arguments");
    }
    auto child = ParseNodeText((*args)[1], sources, ctx);
    if (!child.ok()) return child.status();
    auto pred = ParsePredicateText((*args)[0], child->schema, *ctx);
    if (!pred.ok()) return pred.status();
    Schema schema = child->schema;
    return ParsedNode{SelectPlan(std::move(pred).value(),
                                 std::move(child->plan)),
                      std::move(schema)};
  }
  if (op == "project") {
    if (args->size() != 2) {
      return ParseError(*ctx, payload,
                        "project(attrs; node) takes 2 arguments");
    }
    auto child = ParseNodeText((*args)[1], sources, ctx);
    if (!child.ok()) return child.status();
    std::vector<AttrId> attrs;
    for (const std::string& name : Split((*args)[0], ',')) {
      auto attr = ResolveAttr(name, child->schema, *ctx, (*args)[0]);
      if (!attr.ok()) return attr.status();
      attrs.push_back(*attr);
    }
    auto schema = ProjectSchema(child->schema, attrs);
    if (!schema.ok()) return schema.status();
    return ParsedNode{ProjectPlan(std::move(attrs), std::move(child->plan)),
                      std::move(schema).value()};
  }
  if (op == "join") {
    if (args->size() != 3) {
      return ParseError(*ctx, payload,
                        "join(left; right; attr=attr) takes 3 arguments");
    }
    auto left = ParseNodeText((*args)[0], sources, ctx);
    if (!left.ok()) return left.status();
    auto right = ParseNodeText((*args)[1], sources, ctx);
    if (!right.ok()) return right.status();
    std::string_view cond = (*args)[2];
    size_t eq = cond.find('=');
    if (eq == std::string_view::npos) {
      return ParseError(*ctx, cond, "join condition must be attr=attr");
    }
    auto la = ResolveAttr(cond.substr(0, eq), left->schema, *ctx,
                          cond.substr(0, eq));
    if (!la.ok()) return la.status();
    auto ra = ResolveAttr(cond.substr(eq + 1), right->schema, *ctx,
                          cond.substr(eq + 1));
    if (!ra.ok()) return ra.status();
    auto schema = ConcatSchemas(left->schema, right->schema);
    if (!schema.ok()) return schema.status();
    return ParsedNode{JoinPlan(std::move(left->plan), std::move(right->plan),
                               *la, *ra),
                      std::move(schema).value()};
  }
  return ParseError(*ctx, op, "unknown plan operator: " + std::string(op));
}

}  // namespace

Result<ParsedQuery> ParsePlan(std::string_view text,
                              const std::vector<const ProbDatabase*>& sources) {
  ParseContext ctx;
  ctx.begin = text.data();
  ctx.end = text.data() + text.size();

  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return ParseError(ctx, trimmed, "empty plan text");
  }
  std::string_view op;
  std::string_view payload;
  bool has_args = false;
  MRSL_RETURN_IF_ERROR(SplitCall(trimmed, ctx, &op, &payload, &has_args));

  ParsedQuery out;
  std::string_view body = trimmed;
  if (op == "exists" || op == "count") {
    if (!has_args) {
      return ParseError(ctx, trimmed, std::string(op) + " needs a plan");
    }
    out.kind = op == "exists" ? ParsedQuery::Kind::kExists
                              : ParsedQuery::Kind::kCount;
    body = payload;
  }
  auto node = ParseNodeText(body, sources, &ctx);
  if (!node.ok()) return node.status();
  out.plan = std::move(node->plan);
  return out;
}

// ---------------------------------------------------------------------------
// The Monte-Carlo differential-testing oracle.
// ---------------------------------------------------------------------------

namespace {

// SplitMix64 finalizer over (seed, chunk): a pure function, so chunk c
// always replays the same worlds whatever thread executes it.
uint64_t OracleChunkSeed(uint64_t seed, uint64_t chunk) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (chunk + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The possible-world evaluator's policy for the row skeleton: in one
// sampled world a row is just its tuple — present or absent, with no
// event to combine. `choices` must match the sources' shapes.
class WorldPolicy {
 public:
  using Row = Tuple;

  WorldPolicy(const std::vector<const ProbDatabase*>& sources,
              const std::vector<std::vector<int32_t>>& choices)
      : sources_(sources), choices_(choices) {}

  void Scan(size_t source, std::vector<Tuple>* out) {
    const ProbDatabase& db = *sources_[source];
    const std::vector<int32_t>& picks = choices_[source];
    out->reserve(db.num_blocks());
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      if (picks[b] == kNoAlternative) continue;
      out->push_back(
          db.block(b).alternatives[static_cast<size_t>(picks[b])].tuple);
    }
  }

  bool Conjoin(const Tuple&, const Tuple&, Tuple*) { return true; }

  Tuple Disjoin(const std::vector<Tuple>&, const uint32_t*, size_t,
                Tuple key) {
    return key;
  }

 private:
  const std::vector<const ProbDatabase*>& sources_;
  const std::vector<std::vector<int32_t>>& choices_;
};

}  // namespace

Result<std::vector<Tuple>> EvaluatePlanInWorld(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    const std::vector<std::vector<int32_t>>& choices) {
  MRSL_RETURN_IF_ERROR(PlanOutputSchema(plan, sources).status());
  if (choices.size() != sources.size()) {
    return Status::InvalidArgument("need one choice vector per source");
  }
  for (size_t s = 0; s < sources.size(); ++s) {
    if (choices[s].size() != sources[s]->num_blocks()) {
      return Status::InvalidArgument("choice vector/block count mismatch");
    }
    for (size_t b = 0; b < choices[s].size(); ++b) {
      const int32_t pick = choices[s][b];
      if (pick != kNoAlternative &&
          (pick < 0 || static_cast<size_t>(pick) >=
                           sources[s]->block(b).alternatives.size())) {
        return Status::InvalidArgument(
            "choice " + std::to_string(pick) + " out of range for block " +
            std::to_string(b) + " of source " + std::to_string(s));
      }
    }
  }
  WorldPolicy policy(sources, choices);
  return plan_internal::RowSkeleton<WorldPolicy>(&policy).Eval(plan);
}

Result<OracleResult> MonteCarloPlanOracle(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    const OracleOptions& options) {
  auto schema = PlanOutputSchema(plan, sources);
  if (!schema.ok()) return schema.status();
  if (options.trials == 0) {
    return Status::InvalidArgument("oracle needs at least one trial");
  }

  const size_t chunk_size = std::max<size_t>(1, options.chunk_size);
  const size_t num_chunks = (options.trials + chunk_size - 1) / chunk_size;

  // Integer tallies per chunk; merged in chunk order below, so the
  // result is a pure function of (plan, sources, trials, seed).
  struct ChunkTally {
    uint64_t nonempty = 0;
    uint64_t total_count = 0;
    std::vector<uint64_t> count_hist;
    std::vector<std::pair<Tuple, uint64_t>> tuple_counts;  // first-seen order
  };
  std::vector<ChunkTally> tallies(num_chunks);

  auto run_chunk = [&](size_t c) {
    ChunkTally& tally = tallies[c];
    Rng rng(OracleChunkSeed(options.seed, c));
    std::vector<std::vector<int32_t>> choices(sources.size());
    std::unordered_map<Tuple, size_t, TupleHash> index;
    std::unordered_set<Tuple, TupleHash> distinct;
    WorldPolicy policy(sources, choices);
    plan_internal::RowSkeleton<WorldPolicy> world(&policy);
    const size_t begin = c * chunk_size;
    const size_t end = std::min(options.trials, begin + chunk_size);
    for (size_t t = begin; t < end; ++t) {
      for (size_t s = 0; s < sources.size(); ++s) {
        SampleWorldChoices(*sources[s], &rng, &choices[s]);
      }
      const std::vector<Tuple> bag = world.Eval(plan);
      if (!bag.empty()) ++tally.nonempty;
      tally.total_count += bag.size();
      if (tally.count_hist.size() <= bag.size()) {
        tally.count_hist.resize(bag.size() + 1, 0);
      }
      ++tally.count_hist[bag.size()];
      distinct.clear();
      for (const Tuple& tuple : bag) {
        if (!distinct.insert(tuple).second) continue;
        auto [it, inserted] = index.emplace(tuple, tally.tuple_counts.size());
        if (inserted) tally.tuple_counts.emplace_back(tuple, 0);
        ++tally.tuple_counts[it->second].second;
      }
    }
  };

  if (options.num_threads > 0) {
    ThreadPool pool(options.num_threads);
    pool.ParallelFor(num_chunks, options.num_threads, run_chunk);
  } else {
    ThreadPool::Global().ParallelFor(num_chunks, 0, run_chunk);
  }

  OracleResult out;
  out.trials = options.trials;
  out.schema = std::move(schema).value();
  uint64_t nonempty = 0;
  uint64_t total_count = 0;
  std::vector<uint64_t> hist;
  std::unordered_map<Tuple, size_t, TupleHash> index;
  std::vector<std::pair<Tuple, uint64_t>> tuple_counts;
  for (const ChunkTally& tally : tallies) {
    nonempty += tally.nonempty;
    total_count += tally.total_count;
    if (hist.size() < tally.count_hist.size()) {
      hist.resize(tally.count_hist.size(), 0);
    }
    for (size_t k = 0; k < tally.count_hist.size(); ++k) {
      hist[k] += tally.count_hist[k];
    }
    for (const auto& [tuple, count] : tally.tuple_counts) {
      auto [it, inserted] = index.emplace(tuple, tuple_counts.size());
      if (inserted) tuple_counts.emplace_back(tuple, 0);
      tuple_counts[it->second].second += count;
    }
  }
  const double n = static_cast<double>(options.trials);
  out.exists = static_cast<double>(nonempty) / n;
  out.expected_count = static_cast<double>(total_count) / n;
  if (hist.empty()) hist.resize(1, options.trials);
  out.count_distribution.reserve(hist.size());
  for (uint64_t h : hist) {
    out.count_distribution.push_back(static_cast<double>(h) / n);
  }
  out.marginals.reserve(tuple_counts.size());
  for (auto& [tuple, count] : tuple_counts) {
    out.marginals.push_back(
        ProbTuple{std::move(tuple), static_cast<double>(count) / n});
  }
  return out;
}

}  // namespace mrsl
