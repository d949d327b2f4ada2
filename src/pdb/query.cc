// Predicates are conjunctions of =/!= atoms.
// SampleWorldChoices draws one possible world per call: each block
// independently picks an alternative or, with its absent mass, nothing.

#include "pdb/query.h"

namespace mrsl {

Predicate Predicate::Eq(AttrId attr, ValueId value) {
  Predicate p;
  p.atoms_.push_back(PredicateAtom{attr, value, false});
  return p;
}

Predicate Predicate::Ne(AttrId attr, ValueId value) {
  Predicate p;
  p.atoms_.push_back(PredicateAtom{attr, value, true});
  return p;
}

Predicate Predicate::And(const Predicate& other) const {
  Predicate p = *this;
  p.atoms_.insert(p.atoms_.end(), other.atoms_.begin(), other.atoms_.end());
  return p;
}

bool Predicate::Eval(const Tuple& t) const {
  for (const PredicateAtom& a : atoms_) {
    bool eq = t.value(a.attr) == a.value;
    if (eq == a.negated) return false;
  }
  return true;
}

AttrMask Predicate::AttrsTouched() const {
  AttrMask mask = 0;
  for (const PredicateAtom& a : atoms_) mask |= AttrMask{1} << a.attr;
  return mask;
}

std::string Predicate::ToString(const Schema& schema) const {
  if (atoms_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i != 0) out += " AND ";
    out += schema.attr(atoms_[i].attr).name();
    out += atoms_[i].negated ? "!=" : "=";
    out += schema.attr(atoms_[i].attr).label(atoms_[i].value);
  }
  return out;
}

void SampleWorldChoices(const ProbDatabase& db, Rng* rng,
                        std::vector<int32_t>* choices) {
  choices->resize(db.num_blocks());
  std::vector<double> weights;
  for (size_t i = 0; i < db.num_blocks(); ++i) {
    const Block& b = db.block(i);
    // Sample an alternative (or absence) from the block. AbsentMass is
    // clamped, so a block whose mass overshoots 1 within the validation
    // epsilon never yields a negative weight.
    weights.clear();
    for (const Alternative& a : b.alternatives) weights.push_back(a.prob);
    double absent = b.AbsentMass();
    if (absent > 0.0) weights.push_back(absent);
    size_t pick = rng->SampleDiscrete(weights);
    (*choices)[i] = pick < b.alternatives.size()
                        ? static_cast<int32_t>(pick)
                        : kNoAlternative;
  }
}

}  // namespace mrsl
