// Lineage helpers shared by the plan evaluators (pdb/plan.cc), the
// safe-plan compiler (pdb/compiler.cc) and the lazy deriver
// (pdb/lazy.cc). Internal to src/pdb: not part of the library's public
// surface.

#ifndef MRSL_PDB_PLAN_INTERNAL_H_
#define MRSL_PDB_PLAN_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdb/prob_database.h"
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

// Poisson-binomial DP: entry k is P(exactly k of the independent
// Bernoulli(qs[i]) events occur).
inline std::vector<double> PoissonBinomial(const std::vector<double>& qs) {
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

inline Status ValidateSource(size_t source,
                             const std::vector<const ProbDatabase*>& sources) {
  if (source >= sources.size() || sources[source] == nullptr) {
    return Status::InvalidArgument("scan source out of range: " +
                                   std::to_string(source));
  }
  return Status::OK();
}

}  // namespace plan_internal
}  // namespace mrsl

#endif  // MRSL_PDB_PLAN_INTERNAL_H_
