// Predicates and possible-world sampling over BID probabilistic
// databases: the building blocks of the plan algebra. Queries go
// through pdb/plan.h, which evaluates Scan/Select/Project/Join plans and
// their Exists/Count aggregates extensionally and differential-tests
// them against MonteCarloPlanOracle, built on SampleWorldChoices below.

#ifndef MRSL_PDB_QUERY_H_
#define MRSL_PDB_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdb/prob_database.h"
#include "util/rng.h"

namespace mrsl {

/// One =/!= atom of a predicate conjunction.
struct PredicateAtom {
  AttrId attr;
  ValueId value;
  bool negated;
};

/// A conjunction of (attr = value) / (attr != value) atoms.
class Predicate {
 public:
  /// The always-true predicate.
  Predicate() = default;

  /// attr = value.
  static Predicate Eq(AttrId attr, ValueId value);

  /// attr != value.
  static Predicate Ne(AttrId attr, ValueId value);

  /// Conjunction with another predicate.
  Predicate And(const Predicate& other) const;

  /// Evaluates against a complete tuple.
  bool Eval(const Tuple& t) const;

  /// Bitmask of the attributes this predicate reads.
  AttrMask AttrsTouched() const;

  /// e.g. "inc=100K AND nw!=500K".
  std::string ToString(const Schema& schema) const;

  /// The conjunction's atoms in evaluation order — the columnar
  /// evaluator (pdb/columnar.h) sweeps one column per atom.
  const std::vector<PredicateAtom>& atoms() const { return atoms_; }

 private:
  std::vector<PredicateAtom> atoms_;
};

/// An answer tuple with its marginal probability.
struct ProbTuple {
  Tuple tuple;
  double prob = 0.0;
};

/// Sentinel world choice: the block contributes no tuple to the world.
inline constexpr int32_t kNoAlternative = -1;

/// Samples one possible world of `db`: per block, the index of the
/// chosen alternative, or kNoAlternative with the block's (clamped)
/// absent mass. `choices` is resized to db.num_blocks(). This is the
/// sampling primitive behind MonteCarloPlanOracle (pdb/plan.h).
void SampleWorldChoices(const ProbDatabase& db, Rng* rng,
                        std::vector<int32_t>* choices);

}  // namespace mrsl

#endif  // MRSL_PDB_QUERY_H_
