// Lineage helpers shared by the plan evaluators (pdb/plan.cc) and the
// safe-plan compiler (pdb/compiler.cc). Internal to src/pdb: not part
// of the library's public surface.

#ifndef MRSL_PDB_PLAN_INTERNAL_H_
#define MRSL_PDB_PLAN_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "pdb/prob_database.h"

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

}  // namespace plan_internal
}  // namespace mrsl

#endif  // MRSL_PDB_PLAN_INTERNAL_H_
