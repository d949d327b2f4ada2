// Query fingerprinting for workload analytics (pg_stat_statements
// style): canonicalize a parsed plan by replacing every Select literal
// with a placeholder, render the normalized text, and hash it to a
// stable 64-bit fingerprint.
//
// The normalized rendering is PlanToString's own walk — same operator
// syntax, same attribute names, same join keys — except that predicate
// atoms render as "attr=?" / "attr!=?" instead of "attr=LABEL". The
// aggregate wrapper (exists/count) is part of the text, so the same
// plan body under different query kinds fingerprints apart. Two
// properties follow, and the property test in
// tests/pdb_fingerprint_test.cc pins both over randomized plans:
//
//   * literal-insensitivity: plans differing ONLY in predicate
//     constants share a fingerprint (their normalized texts are equal);
//   * shape-sensitivity: plans differing in operator structure,
//     attribute sets, negation, join keys, or query kind never do
//     (distinct normalized texts; hash collisions aside).
//
// The fingerprint is FNV-1a over the normalized text, so it is stable
// across processes and restarts — a digest key that can be logged,
// joined against, and carried in dashboards.

#ifndef MRSL_PDB_FINGERPRINT_H_
#define MRSL_PDB_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdb/plan.h"
#include "pdb/prob_database.h"
#include "util/result.h"

namespace mrsl {

/// A literal-insensitive identity for one query shape.
struct QueryFingerprint {
  uint64_t hash = 0;        ///< FNV-1a64 of `normalized`
  std::string normalized;   ///< e.g. "count(select(edu=?; scan(0)))"
};

/// 16 lowercase hex digits of `hash` — the wire/JSON rendering.
std::string FingerprintHex(uint64_t hash);

/// "relation" / "exists" / "count" — the digest's kind label.
const char* QueryKindName(ParsedQuery::Kind kind);

/// Fingerprints `plan` under `kind`. Fails only where PlanToString
/// would (invalid source / attribute references).
Result<QueryFingerprint> FingerprintPlan(
    const PlanNode& plan, ParsedQuery::Kind kind,
    const std::vector<const ProbDatabase*>& sources);

/// FingerprintPlan over a parsed query.
Result<QueryFingerprint> FingerprintQuery(
    const ParsedQuery& query,
    const std::vector<const ProbDatabase*>& sources);

}  // namespace mrsl

#endif  // MRSL_PDB_FINGERPRINT_H_
