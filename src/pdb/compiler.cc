// Safe-plan compilation: factored-event evaluation plus a lattice search
// over partial conditionings of the correlated blocks.
//
// The evaluator runs on the row skeleton (pdb/plan_internal.h) with the
// reference evaluator's rules and row order, but every tracked row also
// carries its event as a positive DNF over interned (block,
// alternative-set) atoms. That extra structure buys two things the
// lineage summary cannot:
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
#include <numeric>
#include <unordered_map>
#include <utility>

#include "pdb/plan_internal.h"
#include "util/timer.h"

namespace mrsl {
namespace {

using plan_internal::AltSetMass;
using plan_internal::Clamp01;
using plan_internal::ConjoinEvents;
using plan_internal::DisjoinComponent;
using plan_internal::DisjoinIndependent;
using plan_internal::Event;
using plan_internal::EventRef;
using plan_internal::UnionKeys;

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
    info.mass = AltSetMass(*sources_[source], block, alts);
    info.alts = std::move(alts);
    atoms_.push_back(std::move(info));
    uint32_t id = static_cast<uint32_t>(atoms_.size() - 1);
    ids.push_back(id);
    return id;
  }

  const AtomInfo& at(uint32_t id) const { return atoms_[id]; }
  const ProbDatabase& source(uint32_t s) const { return *sources_[s]; }
  const std::vector<const ProbDatabase*>& sources() const { return sources_; }

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

  // The event that is exactly one atom.
  static Dnf Atom(uint32_t atom) { return Dnf{{atom}, {1}, true}; }
};

// One evaluated row: the reference evaluator's row (values, envelope
// interval, lineage summary) plus the factored event.
struct CRow : PlanRow {
  Dnf dnf;
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
      return ProbInterval::Exact(
          AltSetMass(atoms_.source(first.source), first.block, alts));
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

// OR of member rows: DisjoinEvents' rules component by component, with
// each correlated component's DNF parked in *pending for the lattice
// walk. `*safe` is cleared exactly when DisjoinEvents would clear it.
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

  std::vector<EventRef> events;
  events.reserve(members.size());
  for (const CRow* row : members) {
    events.push_back(EventRef{row->prob, &row->lineage});
  }
  PendingGroup group;
  std::vector<Event> merged;
  std::vector<const CRow*> comp_members;
  for (const std::vector<size_t>& comp :
       plan_internal::CorrelationComponents(events)) {
    bool exact = true;
    merged.push_back(
        DisjoinComponent(events, comp, atoms->sources(), &exact));
    PendingComponent pc;
    pc.prob = merged.back().prob;
    const CRow& first = *members[comp[0]];
    if (comp.size() == 1 && !first.prob.exact() && first.dnf.tracked) {
      // A non-exact row alone in its component stays refinable.
      pc.correlated = true;
      pc.dnf = ComponentDnf({&first});
    } else if (!exact) {
      // Correlated component: the oblivious dissociation bound now, the
      // concatenated DNF parked for refinement.
      comp_members.clear();
      for (size_t i : comp) comp_members.push_back(members[i]);
      pc.correlated = true;
      pc.dnf = ComponentDnf(comp_members);
      *safe = false;
    }
    group.components.push_back(std::move(pc));
  }
  Event combined = DisjoinIndependent(std::move(merged));
  out.prob = combined.prob;
  out.lineage = std::move(combined.lineage);

  if (out.lineage.simple) {
    // The whole group is one block: a refinable single-atom DNF.
    out.dnf = Dnf::Atom(atoms->Intern(out.lineage.source, out.lineage.block,
                                      out.lineage.alts));
  } else {
    // Keep the group's OR as the row's own DNF when everything tracked —
    // parents (nested projects, joins above projects) then stay factored.
    std::vector<const Dnf*> parts;
    for (const CRow* row : members) parts.push_back(&row->dnf);
    Dnf dnf;
    if (DisjoinDnf(parts, &dnf)) out.dnf = std::move(dnf);
  }

  if (pending != nullptr) *pending = std::move(group);
  return out;
}

// ---------------------------------------------------------------------------
// The factored evaluator: the compiler's event policy for the row
// skeleton (plan_internal.h), the reference evaluator's rules plus DNF
// bookkeeping.
// ---------------------------------------------------------------------------

class FactoredPolicy {
 public:
  using Row = CRow;

  // Scans only alternatives of the blocks in `universe` (sorted keys).
  // CompileQuery's two-phase split: the columnar executor has already
  // answered every group whose blocks are NOT in this set exactly, so
  // the factored pass only needs the rows that can reach a non-exact
  // group — a group's marginal depends only on rows whose every lineage
  // block is in the group's union (the plan-cache invalidation
  // guarantee), so dropping other rows changes nothing it reports.
  FactoredPolicy(const CompileOptions& options, AtomTable* atoms,
                 const WallTimer* clock, CompileStats* stats,
                 const std::vector<uint64_t>& universe)
      : options_(options),
        atoms_(atoms),
        clock_(clock),
        stats_(stats),
        universe_(universe) {}

  // From now on, Disjoin parks each group's components in `pending`
  // instead of refining them inline: CompileQuery groups the answer's
  // marginals this way, and the anytime loop orders them cheapest-first
  // itself.
  void DeferGroups(std::vector<PendingGroup>* pending) { deferred_ = pending; }

  void Scan(size_t source, std::vector<CRow>* out) {
    const ProbDatabase& db = atoms_->source(static_cast<uint32_t>(source));
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      if (!std::binary_search(
              universe_.begin(), universe_.end(),
              Lineage::BlockKey(static_cast<uint32_t>(source), b))) {
        continue;
      }
      for (size_t j = 0; j < db.block(b).alternatives.size(); ++j) {
        CRow row;
        static_cast<PlanRow&>(row) = plan_internal::ScanRow(db, source, b, j);
        row.dnf = Dnf::Atom(atoms_->Intern(static_cast<uint32_t>(source), b,
                                           {static_cast<uint32_t>(j)}));
        out->push_back(std::move(row));
      }
    }
  }

  // AND of two rows: ConjoinEvents, then the DNF conjunction. Returns
  // false when the pair is impossible (exactly zero): simple same-block
  // events with disjoint alternative sets, or tracked DNFs whose every
  // product disjunct died. `safe_` is cleared whenever the LINEAGE rules
  // alone dissociated, even where the DNF recovered exactness.
  bool Conjoin(const CRow& a, const CRow& b, CRow* out) {
    bool exact = true;
    bool impossible = false;
    Event ev = ConjoinEvents(EventRef{a.prob, &a.lineage},
                             EventRef{b.prob, &b.lineage}, atoms_->sources(),
                             &exact, &impossible);
    if (impossible) return false;
    out->prob = ev.prob;
    out->lineage = std::move(ev.lineage);
    if (out->lineage.simple) {
      // Same block: the intersected alternative set is one atom.
      out->dnf = Dnf::Atom(atoms_->Intern(
          out->lineage.source, out->lineage.block, out->lineage.alts));
      return true;
    }
    if (!exact) safe_ = false;
    bool dnf_impossible = false;
    const bool tracked =
        a.dnf.tracked && b.dnf.tracked &&
        ConjoinDnf(a.dnf, b.dnf, atoms_, &out->dnf, &dnf_impossible);
    if (tracked && dnf_impossible) return false;
    if (!exact && tracked && out->dnf.disjuncts() == 1) {
      // The conjunction collapsed to one conjunction of atoms over
      // distinct blocks: exact, where the summary rules only bound.
      out->prob = ProbInterval::Exact(DisjunctMass(out->dnf, 0, *atoms_));
    }
    return true;
  }

  // OR of one projection group (DisjoinRows), refined inline below the
  // root or parked for the anytime loop (DeferGroups).
  CRow Disjoin(const std::vector<CRow>& rows, const uint32_t* members,
               size_t n, Tuple key) {
    members_.clear();
    members_.reserve(n);
    for (size_t i = 0; i < n; ++i) members_.push_back(&rows[members[i]]);
    PendingGroup group;
    CRow row = DisjoinRows(members_, std::move(key), atoms_, &safe_,
                           deferred_ != nullptr ? &group : nullptr);
    if (deferred_ != nullptr) {
      deferred_->push_back(std::move(group));
    } else {
      RefineInline(&row);
    }
    return row;
  }

 private:
  // Refines an interior group immediately (no cross-group ordering to
  // honor below the root), respecting the world cap and the clock.
  void RefineInline(CRow* row) {
    if (!row->prob.exact() && row->dnf.tracked &&
        options_.max_worlds_per_group > 0 && !options_.propagation_only &&
        (options_.budget_ms <= 0.0 ||
         clock_->ElapsedMillis() < options_.budget_ms)) {
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

  const CompileOptions& options_;
  AtomTable* atoms_;
  const WallTimer* clock_;
  CompileStats* stats_;
  const std::vector<uint64_t>& universe_;  // sorted block keys
  std::vector<PendingGroup>* deferred_ = nullptr;
  std::vector<const CRow*> members_;  // Disjoin scratch
  bool safe_ = true;  // plan safety is phase 1's; kept for the rules
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
    FactoredPolicy policy(options, &atoms, &clock, &out.stats, universe);
    plan_internal::RowSkeleton<FactoredPolicy> eval(&policy);

    // `top` is the restricted pass's result; `grouped` holds one
    // combined row per answer group, its components deferred into
    // `pending` in step: the root projection's own groups, or (other
    // roots) the distinct-value groups of the rows of refinable groups.
    std::vector<PendingGroup> pending;
    std::vector<CRow> top;
    std::vector<CRow> distinct;
    if (root_project) {
      std::vector<CRow> child = eval.Eval(*plan.left);
      policy.DeferGroups(&pending);
      top = eval.Project(child, plan.attrs);
    } else {
      top = eval.Eval(plan);
      std::vector<CRow> refinable;
      for (const CRow& row : top) {
        if (refinable_index.count(row.tuple) != 0) refinable.push_back(row);
      }
      std::vector<AttrId> all(base.schema.num_attrs());
      std::iota(all.begin(), all.end(), AttrId{0});
      policy.DeferGroups(&pending);
      distinct = eval.Project(refinable, all);
    }
    const std::vector<CRow>& grouped = root_project ? top : distinct;

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
    groups.reserve(refinable_index.size());
    for (size_t r = 0; r < grouped.size(); ++r) {
      auto it = refinable_index.find(grouped[r].tuple);
      if (it == refinable_index.end()) continue;
      // A copy: `top` stays whole for EXISTS.
      groups.push_back(
          MarginalGroup{it->second, grouped[r], std::move(pending[r])});
    }

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
          top.size() == base.rows.size()) {
        // Full coverage means the restricted pass reproduced every row
        // (same order as phase 1 — the factored evaluator mirrors the
        // extensional one row for row), so its DNFs describe the whole
        // disjunction.
        std::vector<CRow> shadow;
        shadow.reserve(top.size());
        for (size_t r = 0; r < top.size(); ++r) {
          CRow s;
          s.prob = root_project ? final_prob[r] : top[r].prob;
          s.lineage = std::move(top[r].lineage);
          s.dnf = std::move(top[r].dnf);
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
  std::snprintf(buf, sizeof(buf), "#compiled;w=%.17g;b=%.17g;mw=%zu%s",
                options.width_target, options.budget_ms,
                options.max_worlds_per_group,
                options.propagation_only ? ";prop" : "");
  return std::string(buf);
}

}  // namespace mrsl
