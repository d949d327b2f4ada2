// Safe-plan compilation: factored-event evaluation plus a lattice search
// over partial conditionings of the correlated blocks.
//
// The evaluator mirrors the extensional rules of pdb/plan.cc operator by
// operator — same schemas, same row order, same interval formulas at the
// fallback — but every tracked row additionally carries its event as a
// positive DNF over interned (block, alternative-set) atoms. That extra
// structure buys two things the lineage summary cannot:
//
//   * joins of composite events stay exact (the conjunction of two
//     conjunctions of atoms is again a conjunction of atoms, with
//     same-block atoms intersected — impossible pairs prune to zero);
//   * correlated disjunctions can be refined after the fact by
//     conditioning shared blocks (Shannon expansion), which is the
//     lattice walk CompileQuery's anytime loop performs.
//
// Every interval this file produces is contained in the interval the
// fixed dissociation of EvaluatePlan would report for the same event:
// the base rules are identical formulas over operand intervals that are
// themselves contained (monotone rules preserve containment), extra
// exactness only shrinks intervals, and refinement intersects. The
// differential suite pins that containment on randomized plans.

#include "pdb/compiler.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

#include "pdb/plan_internal.h"
#include "util/timer.h"

namespace mrsl {
namespace {

using plan_internal::AltSetMass;
using plan_internal::Clamp01;
using plan_internal::KeysIntersect;
using plan_internal::UnionKeys;
using plan_internal::ValidateSource;

// Caps on the factored representation. A row past either cap degrades
// to its lineage summary and interval (sound, just not refinable); the
// caps bound memory on adversarial plans (joins of wide disjunctions).
constexpr size_t kMaxDisjunctsPerRow = 64;
constexpr size_t kMaxAtomsPerDisjunct = 16;

// ---------------------------------------------------------------------------
// Atoms: interned "block b of source s picks an alternative in `alts`"
// literals. Scan rows intern one single-alternative atom per base
// alternative; same-block conjunctions intern intersections and
// same-block exact unions intern unions, so a disjunct never holds two
// atoms on one block.
// ---------------------------------------------------------------------------

struct AtomInfo {
  uint64_t key = 0;  // Lineage::BlockKey(source, block)
  uint32_t source = 0;
  size_t block = 0;
  std::vector<uint32_t> alts;  // sorted, unique
  double mass = 0.0;           // clamped alternative-set mass
};

class AtomTable {
 public:
  explicit AtomTable(const std::vector<const ProbDatabase*>& sources)
      : sources_(sources) {}

  uint32_t Intern(uint32_t source, size_t block, std::vector<uint32_t> alts) {
    uint64_t key = Lineage::BlockKey(source, block);
    std::vector<uint32_t>& ids = by_key_[key];
    for (uint32_t id : ids) {
      if (atoms_[id].alts == alts) return id;
    }
    AtomInfo info;
    info.key = key;
    info.source = source;
    info.block = block;
    double mass = 0.0;
    const Block& blk = sources_[source]->block(block);
    for (uint32_t j : alts) mass += blk.alternatives[j].prob;
    info.mass = Clamp01(mass);
    info.alts = std::move(alts);
    atoms_.push_back(std::move(info));
    uint32_t id = static_cast<uint32_t>(atoms_.size() - 1);
    ids.push_back(id);
    return id;
  }

  const AtomInfo& at(uint32_t id) const { return atoms_[id]; }
  const ProbDatabase& source(uint32_t s) const { return *sources_[s]; }

 private:
  const std::vector<const ProbDatabase*>& sources_;
  std::vector<AtomInfo> atoms_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_key_;
};

// A row's factored event: disjunct d covers atom ids
// [ends[d-1], ends[d]) of `atoms`, each span sorted by block key with at
// most one atom per block. `tracked == false` means the row overflowed
// a cap (or descends from one that did): only its lineage summary and
// interval remain authoritative.
struct Dnf {
  std::vector<uint32_t> atoms;
  std::vector<uint32_t> ends;
  bool tracked = false;

  size_t disjuncts() const { return ends.size(); }
  size_t begin_of(size_t d) const { return d == 0 ? 0 : ends[d - 1]; }
};

// One evaluated row: values, envelope interval, lineage summary (the
// same summary pdb/plan.cc maintains), and the factored event.
struct CRow {
  Tuple tuple;
  ProbInterval prob;
  Lineage lineage;
  Dnf dnf;
};

// No Schema here, only its width: phase 1 already validated the plan
// and owns the output schema, and copying a Schema with a large label
// vocabulary would cost more than this whole pass on big databases.
struct CTable {
  size_t num_attrs = 0;
  std::vector<CRow> rows;
};

// Single-disjunct helper: the exact product of the disjunct's atom
// masses (atoms within a disjunct are distinct blocks, hence
// independent).
double DisjunctMass(const Dnf& dnf, size_t d, const AtomTable& atoms) {
  double p = 1.0;
  for (size_t i = dnf.begin_of(d); i < dnf.ends[d]; ++i) {
    p *= atoms.at(dnf.atoms[i]).mass;
  }
  return p;
}

// AND of two tracked DNFs: the cross product of their disjunct lists,
// merging same-block atoms by alternative-set intersection. Returns
// false on cap overflow (leave the row untracked); sets *impossible
// when every product disjunct vanished — the rows cannot coexist.
bool ConjoinDnf(const Dnf& a, const Dnf& b, AtomTable* atoms, Dnf* out,
                bool* impossible) {
  *impossible = false;
  if (a.disjuncts() * b.disjuncts() > kMaxDisjunctsPerRow) return false;
  out->atoms.clear();
  out->ends.clear();
  std::vector<uint32_t> merged;
  for (size_t da = 0; da < a.disjuncts(); ++da) {
    for (size_t db = 0; db < b.disjuncts(); ++db) {
      merged.clear();
      bool dead = false;
      size_t ia = a.begin_of(da);
      size_t ib = b.begin_of(db);
      while (ia < a.ends[da] || ib < b.ends[db]) {
        if (ib == b.ends[db] || (ia != a.ends[da] &&
                                 atoms->at(a.atoms[ia]).key <
                                     atoms->at(b.atoms[ib]).key)) {
          merged.push_back(a.atoms[ia++]);
        } else if (ia == a.ends[da] ||
                   atoms->at(b.atoms[ib]).key < atoms->at(a.atoms[ia]).key) {
          merged.push_back(b.atoms[ib++]);
        } else {
          // Same block on both sides: the chosen alternative must lie in
          // both sets.
          const AtomInfo& xa = atoms->at(a.atoms[ia]);
          const AtomInfo& xb = atoms->at(b.atoms[ib]);
          std::vector<uint32_t> inter;
          std::set_intersection(xa.alts.begin(), xa.alts.end(),
                                xb.alts.begin(), xb.alts.end(),
                                std::back_inserter(inter));
          if (inter.empty()) {
            dead = true;
            break;
          }
          uint32_t src = xa.source;
          size_t blk = xa.block;
          ++ia;
          ++ib;
          merged.push_back(atoms->Intern(src, blk, std::move(inter)));
        }
      }
      if (dead) continue;
      if (merged.size() > kMaxAtomsPerDisjunct) return false;
      out->atoms.insert(out->atoms.end(), merged.begin(), merged.end());
      out->ends.push_back(static_cast<uint32_t>(out->atoms.size()));
    }
  }
  if (out->ends.empty()) {
    *impossible = true;
    return true;
  }
  out->tracked = true;
  return true;
}

// OR of tracked DNFs: plain disjunct concatenation. Returns false on
// cap overflow.
bool DisjoinDnf(const std::vector<const Dnf*>& parts, Dnf* out) {
  size_t disjuncts = 0;
  size_t total = 0;
  for (const Dnf* p : parts) {
    if (!p->tracked) return false;
    disjuncts += p->disjuncts();
    total += p->atoms.size();
  }
  if (disjuncts > kMaxDisjunctsPerRow * 4) return false;
  out->atoms.clear();
  out->ends.clear();
  out->atoms.reserve(total);
  out->ends.reserve(disjuncts);
  for (const Dnf* p : parts) {
    for (size_t d = 0; d < p->disjuncts(); ++d) {
      out->atoms.insert(out->atoms.end(), p->atoms.begin() + p->begin_of(d),
                        p->atoms.begin() + p->ends[d]);
      out->ends.push_back(static_cast<uint32_t>(out->atoms.size()));
    }
  }
  out->tracked = true;
  return true;
}

// ---------------------------------------------------------------------------
// The lattice search: weighted model counting of a positive DNF by
// independence partitioning + Shannon expansion on shared blocks, with
// a world budget. Running out of budget falls back to the oblivious
// dissociation bound — the lattice's bottom element — so every return
// value is a sound interval and exact whenever the budget sufficed.
// ---------------------------------------------------------------------------

using WorkDnf = std::vector<std::vector<uint32_t>>;  // disjuncts of atom ids

class LatticeSearch {
 public:
  LatticeSearch(const AtomTable& atoms, size_t* worlds_expanded)
      : atoms_(atoms), worlds_expanded_(worlds_expanded) {}

  ProbInterval Eval(const WorkDnf& dnf, size_t budget) {
    if (dnf.empty()) return ProbInterval::Exact(0.0);
    for (const std::vector<uint32_t>& d : dnf) {
      if (d.empty()) return ProbInterval::Exact(1.0);  // a TRUE disjunct
    }
    // Split into independent components (disjuncts sharing no block are
    // independent events) and complement-multiply.
    std::vector<std::vector<size_t>> comps = Components(dnf);
    double none_lo = 1.0;
    double none_hi = 1.0;
    for (const std::vector<size_t>& comp : comps) {
      ProbInterval p = EvalComponent(dnf, comp, budget / comps.size() +
                                                   (comps.size() == 1 ? 0 : 1));
      if (comps.size() == 1) return p;
      none_lo *= (1.0 - p.lo);
      none_hi *= (1.0 - p.hi);
    }
    return ProbInterval::Bounds(Clamp01(1.0 - none_lo),
                                Clamp01(1.0 - none_hi));
  }

 private:
  // Connected components of the shared-block graph over disjuncts,
  // ordered by ascending first disjunct index.
  std::vector<std::vector<size_t>> Components(const WorkDnf& dnf) {
    return plan_internal::CorrelationComponents(
        dnf.size(), [&](size_t i, auto&& fn) {
          for (uint32_t id : dnf[i]) fn(atoms_.at(id).key);
        });
  }

  ProbInterval EvalComponent(const WorkDnf& dnf,
                             const std::vector<size_t>& comp, size_t budget) {
    if (comp.size() == 1) {
      double p = 1.0;
      for (uint32_t id : dnf[comp[0]]) p *= atoms_.at(id).mass;
      return ProbInterval::Exact(p);
    }

    // All disjuncts a single atom on one shared block: the union of
    // their alternative sets has exact mass.
    bool one_block = true;
    for (size_t i : comp) {
      if (dnf[i].size() != 1 ||
          atoms_.at(dnf[i][0]).key != atoms_.at(dnf[comp[0]][0]).key) {
        one_block = false;
        break;
      }
    }
    if (one_block) {
      const AtomInfo& first = atoms_.at(dnf[comp[0]][0]);
      std::vector<uint32_t> alts;
      for (size_t i : comp) {
        const std::vector<uint32_t>& more = atoms_.at(dnf[i][0]).alts;
        alts.insert(alts.end(), more.begin(), more.end());
      }
      std::sort(alts.begin(), alts.end());
      alts.erase(std::unique(alts.begin(), alts.end()), alts.end());
      const Block& blk = atoms_.source(first.source).block(first.block);
      double mass = 0.0;
      for (uint32_t j : alts) mass += blk.alternatives[j].prob;
      return ProbInterval::Exact(Clamp01(mass));
    }

    // Pick the pivot: the block shared by the most disjuncts (ties to
    // the smallest key, deterministically).
    std::map<uint64_t, size_t> counts;
    for (size_t i : comp) {
      for (uint32_t id : dnf[i]) ++counts[atoms_.at(id).key];
    }
    uint64_t pivot = 0;
    size_t best = 0;
    for (const auto& [key, n] : counts) {
      if (n > best) {
        best = n;
        pivot = key;
      }
    }
    const AtomInfo* sample = nullptr;
    for (size_t i : comp) {
      for (uint32_t id : dnf[i]) {
        if (atoms_.at(id).key == pivot) sample = &atoms_.at(id);
      }
    }
    const Block& blk = atoms_.source(sample->source).block(sample->block);
    size_t branches = blk.alternatives.size() + 1;  // + absence

    if (budget < branches) return Frechet(dnf, comp);

    // Shannon expansion: condition the pivot on each alternative (and
    // absence), recurse on the restricted DNF, and take the weighted
    // sum — total probability keeps the interval sound, and each branch
    // drops the pivot block entirely, so the recursion terminates.
    *worlds_expanded_ += branches;
    size_t child_budget = budget / branches;
    double lo = 0.0;
    double hi = 0.0;
    for (size_t j = 0; j <= blk.alternatives.size(); ++j) {
      bool absent = j == blk.alternatives.size();
      double weight =
          absent ? blk.AbsentMass() : blk.alternatives[j].prob;
      if (weight <= 0.0) continue;
      WorkDnf rest;
      rest.reserve(comp.size());
      bool has_true = false;
      for (size_t i : comp) {
        std::vector<uint32_t> d;
        d.reserve(dnf[i].size());
        bool dead = false;
        for (uint32_t id : dnf[i]) {
          const AtomInfo& x = atoms_.at(id);
          if (x.key != pivot) {
            d.push_back(id);
            continue;
          }
          bool sat = !absent &&
                     std::binary_search(x.alts.begin(), x.alts.end(),
                                        static_cast<uint32_t>(j));
          if (!sat) {
            dead = true;
            break;
          }
          // Satisfied atom: drop it from the disjunct.
        }
        if (dead) continue;
        if (d.empty()) {
          has_true = true;
          break;
        }
        rest.push_back(std::move(d));
      }
      ProbInterval p = has_true ? ProbInterval::Exact(1.0)
                                : Eval(rest, child_budget);
      lo += weight * p.lo;
      hi += weight * p.hi;
    }
    return ProbInterval::Bounds(Clamp01(lo), Clamp01(hi));
  }

  // The oblivious dissociation bound on a correlated component — the
  // lattice's bottom element and the budget-exhausted fallback.
  ProbInterval Frechet(const WorkDnf& dnf, const std::vector<size_t>& comp) {
    double lo = 0.0;
    double hi = 0.0;
    for (size_t i : comp) {
      double p = 1.0;
      for (uint32_t id : dnf[i]) p *= atoms_.at(id).mass;
      lo = std::max(lo, p);
      hi += p;
    }
    return ProbInterval::Bounds(lo, std::min(1.0, hi));
  }

  const AtomTable& atoms_;
  size_t* worlds_expanded_;
};

// Estimated world count of refining a DNF exactly: the product of the
// branch factors of its distinct blocks (saturating) — the candidate's
// cost in the lattice, ordered cheapest first.
double RefineCost(const WorkDnf& dnf, const AtomTable& atoms) {
  std::map<uint64_t, size_t> branch;
  for (const std::vector<uint32_t>& d : dnf) {
    for (uint32_t id : d) {
      const AtomInfo& x = atoms.at(id);
      branch[x.key] =
          atoms.source(x.source).block(x.block).alternatives.size() + 1;
    }
  }
  double cost = 1.0;
  for (const auto& [key, b] : branch) {
    (void)key;
    cost *= static_cast<double>(b);
    if (cost > 1e18) return 1e18;
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Interval plumbing shared with pdb/plan.cc's rules (same formulas, so
// compiled intervals stay contained in the fixed-dissociation ones).
// ---------------------------------------------------------------------------

ProbInterval IntersectIntervals(ProbInterval a, ProbInterval b) {
  ProbInterval out;
  out.lo = std::max(a.lo, b.lo);
  out.hi = std::min(a.hi, b.hi);
  if (out.lo > out.hi) {
    // Numerically crossed endpoints (both operands are sound, so any
    // crossing is floating-point noise): collapse to the tighter bound.
    double mid = 0.5 * (out.lo + out.hi);
    out.lo = mid;
    out.hi = mid;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Group combination (project / distinct marginals / EXISTS): the same
// decision tree as DisjoinEvents, but correlated components keep their
// concatenated DNF so the anytime loop can refine them later. One
// PendingGroup per combined output row records the per-component
// intervals and DNFs; RecombineGroup folds refined components back in.
// ---------------------------------------------------------------------------

struct PendingComponent {
  ProbInterval prob;  // current (base or refined) component interval
  WorkDnf dnf;        // empty when the component is not refinable
  double cost = 0.0;  // estimated refinement world count
  bool correlated = false;
};

struct PendingGroup {
  std::vector<PendingComponent> components;
};

ProbInterval RecombineGroup(const PendingGroup& group) {
  if (group.components.size() == 1) return group.components[0].prob;
  double none_lo = 1.0;
  double none_hi = 1.0;
  for (const PendingComponent& c : group.components) {
    none_lo *= (1.0 - c.prob.lo);
    none_hi *= (1.0 - c.prob.hi);
  }
  return ProbInterval::Bounds(Clamp01(1.0 - none_lo),
                              Clamp01(1.0 - none_hi));
}

// Extracts a component's WorkDnf from member rows, or an empty one when
// any member is untracked / the concatenation overflows.
WorkDnf ComponentDnf(const std::vector<const CRow*>& members) {
  WorkDnf out;
  size_t disjuncts = 0;
  for (const CRow* row : members) {
    if (!row->dnf.tracked) return WorkDnf();
    disjuncts += row->dnf.disjuncts();
  }
  if (disjuncts > kMaxDisjunctsPerRow * 4) return WorkDnf();
  out.reserve(disjuncts);
  for (const CRow* row : members) {
    for (size_t d = 0; d < row->dnf.disjuncts(); ++d) {
      out.emplace_back(row->dnf.atoms.begin() + row->dnf.begin_of(d),
                       row->dnf.atoms.begin() + row->dnf.ends[d]);
    }
  }
  return out;
}

// OR of member rows: exact where the lineage rules allow, the oblivious
// dissociation bound where they correlate — with each correlated
// component's DNF parked in *pending for the lattice walk. `*safe` is
// cleared exactly when DisjoinEvents would have cleared it.
CRow DisjoinRows(const std::vector<const CRow*>& members, Tuple tuple,
                 AtomTable* atoms, bool* safe, PendingGroup* pending) {
  CRow out;
  out.tuple = std::move(tuple);
  if (members.size() == 1) {
    out.prob = members[0]->prob;
    out.lineage = members[0]->lineage;
    out.dnf = members[0]->dnf;
    if (pending != nullptr) {
      PendingComponent pc;
      pc.prob = out.prob;
      // A lone non-exact row (an unsafe join survivor) is itself a
      // refinable lattice candidate.
      if (!out.prob.exact() && out.dnf.tracked) {
        pc.correlated = true;
        pc.dnf = ComponentDnf({members[0]});
      }
      pending->components.push_back(std::move(pc));
    }
    return out;
  }

  // Correlation components over the members' block-key summaries.
  std::vector<std::vector<size_t>> comps =
      plan_internal::CorrelationComponents(
          members.size(), [&](size_t i, auto&& fn) {
            for (uint64_t key : members[i]->lineage.blocks) fn(key);
          });

  std::vector<PendingComponent> pcs;
  std::vector<const Dnf*> comp_rows;
  std::vector<const CRow*> comp_members;
  for (const std::vector<size_t>& comp : comps) {
    PendingComponent pc;
    if (comp.size() == 1) {
      const CRow& row = *members[comp[0]];
      pc.prob = row.prob;
      if (!row.prob.exact() && row.dnf.tracked) {
        pc.correlated = true;
        pc.dnf = ComponentDnf({&row});
      }
      out.lineage.blocks = UnionKeys(out.lineage.blocks, row.lineage.blocks);
      pcs.push_back(std::move(pc));
      continue;
    }
    bool all_simple_same_block = true;
    const Lineage& first = members[comp[0]]->lineage;
    for (size_t i : comp) {
      const Lineage& l = members[i]->lineage;
      if (!l.simple || l.source != first.source || l.block != first.block) {
        all_simple_same_block = false;
        break;
      }
    }
    if (all_simple_same_block) {
      // Disjoint-union rule: alternative sets of one block union
      // exactly.
      std::vector<uint32_t> alts;
      for (size_t i : comp) {
        const std::vector<uint32_t>& more = members[i]->lineage.alts;
        alts.insert(alts.end(), more.begin(), more.end());
      }
      std::sort(alts.begin(), alts.end());
      alts.erase(std::unique(alts.begin(), alts.end()), alts.end());
      pc.prob = ProbInterval::Exact(AltSetMass(
          atoms->source(first.source), first.block, alts));
      if (comps.size() == 1) {
        // The whole group is one block: keep the simple lineage (and a
        // refinable single-atom DNF) like DisjoinEvents does.
        out.lineage.simple = true;
        out.lineage.source = first.source;
        out.lineage.block = first.block;
        out.lineage.alts = alts;
        out.dnf.tracked = true;
        out.dnf.atoms = {
            atoms->Intern(first.source, first.block, std::move(alts))};
        out.dnf.ends = {1};
      }
      out.lineage.blocks = UnionKeys(out.lineage.blocks, first.blocks);
      pcs.push_back(std::move(pc));
      continue;
    }
    // Correlated component: the oblivious dissociation bound now, the
    // concatenated DNF parked for refinement.
    double lo = 0.0;
    double hi = 0.0;
    comp_members.clear();
    for (size_t i : comp) {
      lo = std::max(lo, members[i]->prob.lo);
      hi += members[i]->prob.hi;
      out.lineage.blocks =
          UnionKeys(out.lineage.blocks, members[i]->lineage.blocks);
      comp_members.push_back(members[i]);
    }
    pc.prob = ProbInterval::Bounds(lo, std::min(1.0, hi));
    pc.correlated = true;
    pc.dnf = ComponentDnf(comp_members);
    *safe = false;
    pcs.push_back(std::move(pc));
  }

  // Components are block-disjoint, hence independent: complement-
  // multiply (the monotone rule maps interval endpoints directly).
  PendingGroup group;
  group.components = std::move(pcs);
  out.prob = RecombineGroup(group);

  // Keep the group's OR as the row's own DNF when everything tracked —
  // parents (nested projects, joins above projects) then stay factored.
  if (!out.dnf.tracked) {
    comp_rows.clear();
    for (const CRow* row : members) comp_rows.push_back(&row->dnf);
    Dnf merged;
    if (DisjoinDnf(comp_rows, &merged)) out.dnf = std::move(merged);
  }

  if (pending != nullptr) *pending = std::move(group);
  return out;
}

// ---------------------------------------------------------------------------
// The factored evaluator: EvalNode's operators with DNF bookkeeping.
// ---------------------------------------------------------------------------

class CompiledEval {
 public:
  CompiledEval(const std::vector<const ProbDatabase*>& sources,
               const CompileOptions& options, AtomTable* atoms,
               const WallTimer* clock, CompileStats* stats)
      : sources_(sources),
        options_(options),
        atoms_(atoms),
        clock_(clock),
        stats_(stats) {}

  bool safe() const { return safe_; }

  // Restricts scans to alternatives of the listed block keys (sorted).
  // CompileQuery's two-phase split: the columnar executor has already
  // answered every group whose blocks are NOT in this set exactly, so
  // the factored pass only needs the rows that can reach a non-exact
  // group — a group's marginal depends only on rows whose every lineage
  // block is in the group's union (the plan-cache invalidation
  // guarantee), so dropping other rows changes nothing it reports.
  void set_block_filter(const std::vector<uint64_t>* filter) {
    block_filter_ = filter;
  }

  // True while interior refinement may still spend time.
  bool ClockAllows() const {
    return options_.budget_ms <= 0.0 ||
           clock_->ElapsedMillis() < options_.budget_ms;
  }

  Result<CTable> Eval(const PlanNode& node) {
    switch (node.op) {
      case PlanNode::Op::kScan:
        return EvalScan(node);
      case PlanNode::Op::kSelect:
        return EvalSelect(node);
      case PlanNode::Op::kProject:
        return EvalProject(node);
      case PlanNode::Op::kJoin:
        return EvalJoin(node);
    }
    return Status::Internal("unknown plan operator");
  }

  // The projection grouping, exposed so CompileQuery can run the ROOT
  // projection (and the distinct-marginal grouping) with deferred
  // refinement — those groups are the answer's marginals, and the
  // anytime loop wants to order them cheapest-first itself.
  Result<CTable> ProjectRows(const CTable& child,
                             const std::vector<AttrId>& attrs,
                             std::vector<PendingGroup>* pending) {
    for (AttrId a : attrs) {
      if (a >= child.num_attrs) {
        return Status::InvalidArgument("project attribute out of range");
      }
    }
    std::unordered_map<Tuple, size_t, TupleHash> index;
    std::vector<std::pair<Tuple, std::vector<size_t>>> groups;
    for (size_t r = 0; r < child.rows.size(); ++r) {
      Tuple proj(attrs.size());
      for (size_t k = 0; k < attrs.size(); ++k) {
        proj.set_value(static_cast<AttrId>(k),
                       child.rows[r].tuple.value(attrs[k]));
      }
      auto [it, inserted] = index.emplace(proj, groups.size());
      if (inserted) groups.emplace_back(std::move(proj),
                                        std::vector<size_t>());
      groups[it->second].second.push_back(r);
    }

    CTable out;
    out.num_attrs = attrs.size();
    out.rows.reserve(groups.size());
    std::vector<const CRow*> members;
    for (auto& [proj, rows] : groups) {
      members.clear();
      members.reserve(rows.size());
      for (size_t r : rows) members.push_back(&child.rows[r]);
      PendingGroup group;
      CRow row = DisjoinRows(members, std::move(proj), atoms_, &safe_,
                             pending != nullptr ? &group : nullptr);
      if (pending != nullptr) {
        pending->push_back(std::move(group));
      } else {
        RefineInline(&row, &group);
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

  // Refines an interior group immediately (no cross-group ordering to
  // honor below the root), respecting the world cap and the clock.
  void RefineInline(CRow* row, PendingGroup* group) {
    (void)group;
    if (!row->prob.exact() && row->dnf.tracked &&
        options_.max_worlds_per_group > 0 && !options_.propagation_only &&
        ClockAllows()) {
      WorkDnf dnf;
      dnf.reserve(row->dnf.disjuncts());
      for (size_t d = 0; d < row->dnf.disjuncts(); ++d) {
        dnf.emplace_back(row->dnf.atoms.begin() + row->dnf.begin_of(d),
                         row->dnf.atoms.begin() + row->dnf.ends[d]);
      }
      LatticeSearch search(*atoms_, &stats_->worlds_expanded);
      ProbInterval refined =
          search.Eval(dnf, options_.max_worlds_per_group);
      row->prob = IntersectIntervals(row->prob, refined);
    }
  }

 private:
  Result<CTable> EvalScan(const PlanNode& node) {
    MRSL_RETURN_IF_ERROR(ValidateSource(node.source, sources_));
    const ProbDatabase& db = *sources_[node.source];
    CTable out;
    out.num_attrs = db.schema().num_attrs();
    size_t total = 0;
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      total += db.block(b).alternatives.size();
    }
    out.rows.reserve(total);
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      if (block_filter_ != nullptr &&
          !std::binary_search(
              block_filter_->begin(), block_filter_->end(),
              Lineage::BlockKey(static_cast<uint32_t>(node.source), b))) {
        continue;
      }
      const Block& block = db.block(b);
      for (size_t j = 0; j < block.alternatives.size(); ++j) {
        CRow row;
        row.tuple = block.alternatives[j].tuple;
        row.prob = ProbInterval::Exact(Clamp01(block.alternatives[j].prob));
        row.lineage.simple = true;
        row.lineage.source = static_cast<uint32_t>(node.source);
        row.lineage.block = b;
        row.lineage.alts = {static_cast<uint32_t>(j)};
        row.lineage.blocks = {
            Lineage::BlockKey(static_cast<uint32_t>(node.source), b)};
        row.dnf.tracked = true;
        row.dnf.atoms = {atoms_->Intern(static_cast<uint32_t>(node.source),
                                        b, {static_cast<uint32_t>(j)})};
        row.dnf.ends = {1};
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  Result<CTable> EvalSelect(const PlanNode& node) {
    auto child = Eval(*node.left);
    if (!child.ok()) return child.status();
    AttrMask touched = node.pred.AttrsTouched();
    if (child->num_attrs < kMaxAttributes &&
        (touched >> child->num_attrs) != 0) {
      return Status::InvalidArgument("select predicate attr out of range");
    }
    CTable out;
    out.num_attrs = child->num_attrs;
    for (CRow& row : child->rows) {
      if (node.pred.Eval(row.tuple)) out.rows.push_back(std::move(row));
    }
    return out;
  }

  Result<CTable> EvalProject(const PlanNode& node) {
    auto child = Eval(*node.left);
    if (!child.ok()) return child.status();
    return ProjectRows(*child, node.attrs, nullptr);
  }

  Result<CTable> EvalJoin(const PlanNode& node) {
    auto left = Eval(*node.left);
    if (!left.ok()) return left.status();
    auto right = Eval(*node.right);
    if (!right.ok()) return right.status();
    if (node.left_attr >= left->num_attrs ||
        node.right_attr >= right->num_attrs) {
      return Status::InvalidArgument("join attribute out of range");
    }

    std::unordered_map<ValueId, std::vector<size_t>> right_index;
    right_index.reserve(right->rows.size());
    for (size_t r = 0; r < right->rows.size(); ++r) {
      right_index[right->rows[r].tuple.value(node.right_attr)].push_back(r);
    }

    CTable out;
    const size_t ln = left->num_attrs;
    const size_t rn = right->num_attrs;
    out.num_attrs = ln + rn;
    for (const CRow& lr : left->rows) {
      auto it = right_index.find(lr.tuple.value(node.left_attr));
      if (it == right_index.end()) continue;
      for (size_t r : it->second) {
        const CRow& rr = right->rows[r];
        CRow joined;
        if (!ConjoinRows(lr, rr, &joined)) continue;  // impossible pair
        joined.tuple = Tuple(ln + rn);
        for (AttrId a = 0; a < ln; ++a) {
          joined.tuple.set_value(a, lr.tuple.value(a));
        }
        for (AttrId a = 0; a < rn; ++a) {
          joined.tuple.set_value(static_cast<AttrId>(ln + a),
                                 rr.tuple.value(a));
        }
        out.rows.push_back(std::move(joined));
      }
    }
    return out;
  }

  // AND of two rows. Returns false when the pair is impossible (exactly
  // zero): simple same-block events with disjoint alternative sets, or
  // tracked DNFs whose every product disjunct died. `safe_` mirrors
  // ConjoinEvents — cleared whenever the LINEAGE rules alone would have
  // dissociated, even where the DNF recovered exactness.
  bool ConjoinRows(const CRow& a, const CRow& b, CRow* out) {
    const Lineage& la = a.lineage;
    const Lineage& lb = b.lineage;
    if (la.simple && lb.simple && la.source == lb.source &&
        la.block == lb.block) {
      std::vector<uint32_t> alts;
      std::set_intersection(la.alts.begin(), la.alts.end(), lb.alts.begin(),
                            lb.alts.end(), std::back_inserter(alts));
      if (alts.empty()) return false;
      out->lineage.simple = true;
      out->lineage.source = la.source;
      out->lineage.block = la.block;
      out->lineage.blocks = la.blocks;
      out->prob = ProbInterval::Exact(
          AltSetMass(atoms_->source(la.source), la.block, alts));
      out->dnf.tracked = true;
      out->dnf.atoms = {atoms_->Intern(la.source, la.block, alts)};
      out->dnf.ends = {1};
      out->lineage.alts = std::move(alts);
      return true;
    }

    out->lineage.blocks = UnionKeys(la.blocks, lb.blocks);
    bool independent = !KeysIntersect(la.blocks, lb.blocks);
    bool impossible = false;
    bool tracked = a.dnf.tracked && b.dnf.tracked &&
                   ConjoinDnf(a.dnf, b.dnf, atoms_, &out->dnf, &impossible);
    if (!independent) safe_ = false;
    if (tracked && impossible) return false;

    if (independent) {
      out->prob = ProbInterval::Bounds(a.prob.lo * b.prob.lo,
                                       a.prob.hi * b.prob.hi);
    } else if (tracked && out->dnf.disjuncts() == 1) {
      // The conjunction collapsed to one conjunction of atoms over
      // distinct blocks: exact, where the summary rules only bound.
      out->prob = ProbInterval::Exact(DisjunctMass(out->dnf, 0, *atoms_));
    } else {
      out->prob = ProbInterval::Bounds(
          std::max(0.0, a.prob.lo + b.prob.lo - 1.0),
          std::min(a.prob.hi, b.prob.hi));
    }
    return true;
  }

  const std::vector<const ProbDatabase*>& sources_;
  const CompileOptions& options_;
  AtomTable* atoms_;
  const WallTimer* clock_;
  CompileStats* stats_;
  const std::vector<uint64_t>* block_filter_ = nullptr;  // sorted keys
  bool safe_ = true;
};

// Propagation score of a pending group: every disjunct treated as an
// independent event (the relevance-propagation recurrence), which
// deliberately double-counts shared blocks. A ranking score, not a
// sound bound.
double PropagationScore(const PendingGroup& group, const AtomTable& atoms) {
  double none = 1.0;
  for (const PendingComponent& c : group.components) {
    if (c.correlated && !c.dnf.empty()) {
      for (const std::vector<uint32_t>& d : c.dnf) {
        double p = 1.0;
        for (uint32_t id : d) p *= atoms.at(id).mass;
        none *= (1.0 - p);
      }
    } else {
      none *= (1.0 - c.prob.mid());
    }
  }
  return Clamp01(1.0 - none);
}

double MeanWidth(const std::vector<DistinctMarginal>& marginals) {
  if (marginals.empty()) return 0.0;
  double w = 0.0;
  for (const DistinctMarginal& m : marginals) w += m.prob.hi - m.prob.lo;
  return w / static_cast<double>(marginals.size());
}

}  // namespace

Result<CompiledQuery> CompileQuery(
    const PlanNode& plan, const std::vector<const ProbDatabase*>& sources,
    const CompileOptions& options, TraceSpan trace,
    PlanResources* resources) {
  WallTimer clock;
  CompiledQuery out;

  // Phase 1: the columnar executor (the production serving path) runs
  // the whole plan once. Its exact rules fire wherever the lineage
  // permits, so safe plans — and every exact group of unsafe ones — are
  // fully answered here at EvaluatePlan speed. The factored machinery
  // below only ever touches what this pass could not close.
  TraceSpan phase1 = trace.StartChild("phase1");
  auto base_r = EvaluatePlan(plan, sources, phase1, resources);
  if (!base_r.ok()) return base_r.status();
  PlanResult base = std::move(*base_r);

  // A root projection's rows ARE the distinct marginals: the columnar
  // Project deduplicates by value and disjoins each group, and
  // DistinctMarginals over singleton groups returns the row intervals
  // unchanged. Skipping the redundant distinct pass (its hash build is
  // pure overhead here) is the compiled path's latency edge over the
  // plain evaluator on ranking-shaped queries.
  const bool root_project = plan.op == PlanNode::Op::kProject;
  std::vector<DistinctMarginal> marginals;
  if (root_project) {
    marginals.reserve(base.rows.size());
    for (const PlanRow& row : base.rows) {
      marginals.push_back(DistinctMarginal{row.tuple, row.prob});
    }
  } else {
    marginals = DistinctMarginals(base, sources);
  }

  out.schema = base.schema;
  out.stats.plan_safe = base.safe;
  out.stats.groups_total = marginals.size();
  out.stats.propagation = options.propagation_only;
  for (const DistinctMarginal& m : marginals) {
    if (!m.prob.exact()) ++out.stats.groups_unsafe;
  }
  out.stats.mean_width_base = MeanWidth(marginals);
  if (phase1.active()) {
    phase1.SetAttr("rows", static_cast<int64_t>(base.rows.size()));
    phase1.SetAttr("groups", static_cast<int64_t>(marginals.size()));
    phase1.SetAttr("groups_unsafe",
                   static_cast<int64_t>(out.stats.groups_unsafe));
    phase1.End();
  }

  // Index of the non-exact (refinable) groups by value — everything the
  // factored pass below exists for. Exact groups never enter it.
  std::unordered_map<Tuple, size_t, TupleHash> refinable_index;
  refinable_index.reserve(out.stats.groups_unsafe);
  for (size_t i = 0; i < marginals.size(); ++i) {
    if (!marginals[i].prob.exact()) {
      refinable_index.emplace(marginals[i].tuple, i);
    }
  }

  // The refinement universe: every block some non-exact group read. A
  // group's marginal depends only on rows whose lineage blocks all sit
  // inside the group's own union (the plan-cache invalidation
  // guarantee), so a factored pass whose scans are restricted to this
  // set reproduces the non-exact groups' DNFs verbatim while skipping
  // the — typically dominant — safe remainder of the database.
  std::vector<uint64_t> universe;
  for (size_t r = 0; r < base.rows.size(); ++r) {
    const PlanRow& row = base.rows[r];
    bool refinable = root_project
                         ? !marginals[r].prob.exact()
                         : refinable_index.count(row.tuple) > 0;
    if (!refinable) continue;
    universe.insert(universe.end(), row.lineage.blocks.begin(),
                    row.lineage.blocks.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  // EXISTS spans every row; its factored refinement is only faithful
  // when the restricted pass saw them all.
  bool rows_covered = !base.rows.empty();
  for (const PlanRow& row : base.rows) {
    if (!std::includes(universe.begin(), universe.end(),
                       row.lineage.blocks.begin(),
                       row.lineage.blocks.end())) {
      rows_covered = false;
      break;
    }
  }

  // Final per-group envelopes, seeded with the phase-1 intervals; the
  // factored pass only ever intersects into these.
  std::vector<ProbInterval> final_prob;
  final_prob.reserve(marginals.size());
  for (const DistinctMarginal& m : marginals) final_prob.push_back(m.prob);

  const bool width_already_met =
      !options.propagation_only && options.width_target > 0.0 &&
      out.stats.mean_width_base <= options.width_target;
  const bool budget_spent = options.budget_ms > 0.0 &&
                            clock.ElapsedMillis() >= options.budget_ms;
  if (budget_spent && out.stats.groups_unsafe > 0) {
    out.stats.budget_exhausted = true;
  }
  const bool need_factored =
      out.stats.groups_unsafe > 0 && !width_already_met && !budget_spent &&
      (options.propagation_only || options.max_worlds_per_group > 0);

  bool exists_refined = false;
  ProbInterval exists_envelope;

  TraceSpan phase2;
  if (need_factored) {
    phase2 = trace.StartChild("phase2");
    // Phase 2: the factored evaluator over the universe. The root
    // projection (or, for other roots, the distinct-value grouping)
    // rebuilds the non-exact groups' events as DNFs and defers their
    // refinement to the anytime loop.
    AtomTable atoms(sources);
    CompiledEval eval(sources, options, &atoms, &clock, &out.stats);
    eval.set_block_filter(&universe);

    std::vector<PendingGroup> pending;
    CTable top;
    if (root_project) {
      auto child = eval.Eval(*plan.left);
      if (!child.ok()) return child.status();
      auto projected = eval.ProjectRows(*child, plan.attrs, &pending);
      if (!projected.ok()) return projected.status();
      top = std::move(*projected);
    } else {
      auto table = eval.Eval(plan);
      if (!table.ok()) return table.status();
      top = std::move(*table);
    }

    // One group per NON-EXACT phase-1 marginal. A group whose phase-1
    // answer is exact can still surface in `top` with PARTIAL
    // membership — it shares a block with an unsafe group but owns
    // others outside the universe — and its factored interval is then
    // meaningless; the refinable index skips it. The groups built here
    // are complete: a refinable group's lineage is inside the universe
    // by construction, so every row feeding it survived the restricted
    // scans.
    struct MarginalGroup {
      size_t base = 0;  // index into `marginals`/`final_prob`
      CRow combined;
      PendingGroup group;
    };
    std::vector<MarginalGroup> groups;
    bool marginal_safe = true;
    if (root_project) {
      groups.reserve(refinable_index.size());
      for (size_t r = 0; r < top.rows.size(); ++r) {
        auto it = refinable_index.find(top.rows[r].tuple);
        if (it == refinable_index.end()) continue;
        MarginalGroup g;
        g.base = it->second;
        g.combined = top.rows[r];  // copy: `top` stays whole for EXISTS
        g.group = std::move(pending[r]);
        groups.push_back(std::move(g));
      }
    } else {
      std::unordered_map<Tuple, size_t, TupleHash> index;
      std::vector<std::pair<Tuple, std::vector<const CRow*>>> by_value;
      for (const CRow& row : top.rows) {
        if (refinable_index.count(row.tuple) == 0) continue;
        auto [it, inserted] = index.emplace(row.tuple, by_value.size());
        if (inserted) {
          by_value.emplace_back(row.tuple, std::vector<const CRow*>());
        }
        by_value[it->second].second.push_back(&row);
      }
      groups.reserve(by_value.size());
      for (auto& [tuple, members] : by_value) {
        MarginalGroup g;
        g.base = refinable_index.at(tuple);
        g.combined = DisjoinRows(members, std::move(tuple), &atoms,
                                 &marginal_safe, &g.group);
        groups.push_back(std::move(g));
      }
    }
    (void)marginal_safe;  // phase 1 already settled plan safety

    if (options.propagation_only) {
      // Ranking fast path: one pass, scores in place of bounds.
      for (MarginalGroup& g : groups) {
        final_prob[g.base] =
            g.combined.prob.exact()
                ? g.combined.prob
                : ProbInterval::Exact(PropagationScore(g.group, atoms));
      }
    } else {
      // The factored re-evaluation is itself tighter than the fixed
      // dissociation wherever composite joins stayed exact — bank that
      // before spending any worlds.
      double mean_width = out.stats.mean_width_base;
      const double n = static_cast<double>(marginals.size());
      for (MarginalGroup& g : groups) {
        double before = final_prob[g.base].hi - final_prob[g.base].lo;
        final_prob[g.base] =
            IntersectIntervals(final_prob[g.base], g.combined.prob);
        double after = final_prob[g.base].hi - final_prob[g.base].lo;
        mean_width -= (before - after) / n;
      }

      // The anytime lattice walk: refinable components of every
      // phase-1-unsafe group, costed by world count, refined cheapest-
      // first until the width target is met or the clock runs out.
      struct Candidate {
        size_t group = 0;
        size_t component = 0;
        double cost = 0.0;
      };
      std::vector<Candidate> candidates;
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        PendingGroup& pg = groups[gi].group;
        for (size_t ci = 0; ci < pg.components.size(); ++ci) {
          PendingComponent& pc = pg.components[ci];
          if (pc.correlated && !pc.dnf.empty() && !pc.prob.exact()) {
            pc.cost = RefineCost(pc.dnf, atoms);
            candidates.push_back(Candidate{gi, ci, pc.cost});
          }
        }
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.cost < b.cost;
                       });
      if (options.refine_limit > 0 &&
          candidates.size() > options.refine_limit) {
        candidates.resize(options.refine_limit);
      }

      std::vector<bool> group_refined(groups.size(), false);
      size_t candidates_tried = 0;
      for (const Candidate& cand : candidates) {
        if (options.width_target > 0.0 &&
            mean_width <= options.width_target) {
          out.stats.width_target_met = true;
          break;
        }
        if (options.budget_ms > 0.0 &&
            clock.ElapsedMillis() >= options.budget_ms) {
          out.stats.budget_exhausted = true;
          break;
        }
        ++candidates_tried;
        TraceSpan refine = phase2.StartChild("lattice.refine");
        const size_t worlds_before = out.stats.worlds_expanded;
        MarginalGroup& g = groups[cand.group];
        PendingComponent& pc = g.group.components[cand.component];
        LatticeSearch search(atoms, &out.stats.worlds_expanded);
        ProbInterval refined =
            search.Eval(pc.dnf, options.max_worlds_per_group);
        pc.prob = IntersectIntervals(pc.prob, refined);
        double before = final_prob[g.base].hi - final_prob[g.base].lo;
        g.combined.prob =
            IntersectIntervals(g.combined.prob, RecombineGroup(g.group));
        final_prob[g.base] =
            IntersectIntervals(final_prob[g.base], g.combined.prob);
        double after = final_prob[g.base].hi - final_prob[g.base].lo;
        mean_width -= (before - after) / n;
        if (!group_refined[cand.group]) {
          group_refined[cand.group] = true;
          ++out.stats.groups_refined;
        }
        if (refine.active()) {
          refine.SetAttr("group", static_cast<int64_t>(cand.group));
          refine.SetAttr("cost_worlds", static_cast<int64_t>(cand.cost));
          refine.SetAttr("worlds",
                         static_cast<int64_t>(out.stats.worlds_expanded -
                                              worlds_before));
          refine.End();
        }
      }
      if (phase2.active()) {
        phase2.SetAttr("candidates",
                       static_cast<int64_t>(candidates.size()));
        phase2.SetAttr("candidates_tried",
                       static_cast<int64_t>(candidates_tried));
      }
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        if (group_refined[gi] && final_prob[groups[gi].base].exact()) {
          ++out.stats.groups_exact;
        }
      }

      // EXISTS: one more group over every row, refined through the same
      // lattice (unbounded by the width target; still on the clock).
      // Faithful only when the universe covered every result row — the
      // fully-correlated regime; otherwise the phase-1 bound stands.
      if (options.want_exists && rows_covered &&
          top.rows.size() == base.rows.size()) {
        // Full coverage means the restricted pass reproduced every row
        // (same order as phase 1 — the factored evaluator mirrors the
        // extensional one row for row), so its DNFs describe the whole
        // disjunction.
        std::vector<CRow> shadow;
        shadow.reserve(top.rows.size());
        for (size_t r = 0; r < top.rows.size(); ++r) {
          CRow s;
          s.prob = root_project ? final_prob[r] : top.rows[r].prob;
          s.lineage = std::move(top.rows[r].lineage);
          s.dnf = std::move(top.rows[r].dnf);
          shadow.push_back(std::move(s));
        }
        std::vector<const CRow*> all;
        all.reserve(shadow.size());
        for (const CRow& row : shadow) all.push_back(&row);
        bool exists_safe = out.stats.plan_safe;
        PendingGroup eg;
        CRow combined = DisjoinRows(all, Tuple(), &atoms, &exists_safe, &eg);
        for (PendingComponent& pc : eg.components) {
          if (!pc.correlated || pc.dnf.empty() || pc.prob.exact()) continue;
          if (options.budget_ms > 0.0 &&
              clock.ElapsedMillis() >= options.budget_ms) {
            out.stats.budget_exhausted = true;
            break;
          }
          LatticeSearch search(atoms, &out.stats.worlds_expanded);
          pc.prob = IntersectIntervals(
              pc.prob, search.Eval(pc.dnf, options.max_worlds_per_group));
        }
        combined.prob =
            IntersectIntervals(combined.prob, RecombineGroup(eg));
        exists_envelope = combined.prob;
        exists_refined = true;
      }
    }
    if (phase2.active()) {
      phase2.SetAttr("worlds_evaluated",
                     static_cast<int64_t>(out.stats.worlds_expanded));
      phase2.SetAttr("groups_refined",
                     static_cast<int64_t>(out.stats.groups_refined));
      if (out.stats.propagation) phase2.SetAttr("propagation", 1);
      phase2.End();
    }
  }

  TraceSpan combine = trace.StartChild("combine");
  // Assemble. Marginals and root-project rows take their group's final
  // envelope; bag-root rows keep the phase-1 intervals (COUNT's
  // linearity holds under any correlation, so those stay sound).
  out.marginals = std::move(marginals);
  for (size_t i = 0; i < out.marginals.size(); ++i) {
    out.marginals[i].prob = final_prob[i];
  }
  out.stats.mean_width_final = MeanWidth(out.marginals);
  if (!options.propagation_only && options.width_target > 0.0 &&
      out.stats.mean_width_final <= options.width_target) {
    out.stats.width_target_met = true;
  }

  out.result.schema = std::move(base.schema);
  out.result.rows = std::move(base.rows);
  if (root_project) {
    for (size_t r = 0; r < out.result.rows.size(); ++r) {
      out.result.rows[r].prob = final_prob[r];
    }
  }
  bool all_exact = true;
  for (const PlanRow& row : out.result.rows) {
    all_exact = all_exact && row.prob.exact();
  }
  for (const DistinctMarginal& m : out.marginals) {
    all_exact = all_exact && m.prob.exact();
  }

  // EXISTS (when wanted): the phase-1 bound over the (envelope-
  // tightened) rows, intersected with the factored refinement when one
  // was faithful.
  if (options.want_exists) {
    if (out.result.rows.empty()) {
      out.exists.prob = ProbInterval::Exact(0.0);
    } else {
      out.result.safe = out.stats.plan_safe;
      ExistsResult base_exists = ExistsFromResult(out.result, sources);
      out.exists.prob =
          exists_refined
              ? IntersectIntervals(base_exists.prob, exists_envelope)
              : base_exists.prob;
    }
    out.exists.safe = out.stats.plan_safe;
    all_exact = all_exact && out.exists.prob.exact();
  }

  // COUNT (when wanted): linearity over the (refined) row intervals;
  // the distribution machinery keys on lineage summaries, which the
  // rows kept.
  if (options.want_count) {
    out.result.safe = out.stats.plan_safe;
    out.count = CountFromResult(out.result, sources);
    out.count.safe = out.stats.plan_safe;
  }
  out.result.safe = all_exact;
  combine.End();

  out.stats.compile_seconds = clock.ElapsedSeconds();
  if (resources != nullptr) {
    resources->worlds_sampled += out.stats.worlds_expanded;
  }
  return out;
}

std::string CompileCacheSuffix(const CompileOptions& options) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "#compiled;w=%.17g;b=%.17g;mw=%zu;k=%zu%s",
                options.width_target, options.budget_ms,
                options.max_worlds_per_group, options.refine_limit,
                options.propagation_only ? ";prop" : "");
  return std::string(buf);
}

}  // namespace mrsl
