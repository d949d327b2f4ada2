#include "pdb/fingerprint.h"

#include <cstdio>

#include "pdb/plan_internal.h"

namespace mrsl {

namespace {

// FNV-1a, 64-bit: stable across platforms and dependency-free. Digest
// keys must survive process restarts (dashboards join on them), so no
// std::hash (implementation-defined) and no seed.
uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string FingerprintHex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf, 16);
}

const char* QueryKindName(ParsedQuery::Kind kind) {
  switch (kind) {
    case ParsedQuery::Kind::kRelation:
      return "relation";
    case ParsedQuery::Kind::kExists:
      return "exists";
    case ParsedQuery::Kind::kCount:
      return "count";
  }
  return "unknown";
}

Result<QueryFingerprint> FingerprintPlan(
    const PlanNode& plan, ParsedQuery::Kind kind,
    const std::vector<const ProbDatabase*>& sources) {
  auto body = plan_internal::RenderPlan(plan, sources, /*literals=*/false);
  if (!body.ok()) return body.status();
  QueryFingerprint out;
  switch (kind) {
    case ParsedQuery::Kind::kRelation:
      out.normalized = std::move(*body);
      break;
    case ParsedQuery::Kind::kExists:
      out.normalized = "exists(" + *body + ")";
      break;
    case ParsedQuery::Kind::kCount:
      out.normalized = "count(" + *body + ")";
      break;
  }
  out.hash = Fnv1a64(out.normalized);
  return out;
}

Result<QueryFingerprint> FingerprintQuery(
    const ParsedQuery& query,
    const std::vector<const ProbDatabase*>& sources) {
  if (query.plan == nullptr) {
    return Status::InvalidArgument("parsed query has no plan");
  }
  return FingerprintPlan(*query.plan, query.kind, sources);
}

}  // namespace mrsl
