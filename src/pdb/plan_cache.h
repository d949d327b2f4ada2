// Block-keyed plan-result cache for the versioned BID store.
//
// Serving the same extensional plans against a database that changes in
// small deltas means most commits leave most cached answers valid. An
// entry records the sorted set of base-block keys its result actually
// depends on (the union of every surviving row's lineage — plan.cc
// guarantees this covers every block that influenced a row's value,
// probability, or safety flag). On an index-stable commit (updates and
// appends only; see RelationDelta::IndexStable) an entry survives iff
// every dirtied block
//   (a) is outside the entry's touched set — so it contributed nothing
//       to the old result — AND
//   (b) cannot contribute to the new result either, checked by a
//       conservative walk of the plan tree over the block's NEW
//       alternatives (BlockMayContribute): a block whose alternatives
//       all fail the plan's selections can never add a row.
// Anything the walk cannot prove harmless invalidates the entry; a
// non-index-stable commit (deletes shift block indices) clears the
// cache wholesale. Both rules are sound: a surviving entry is
// bit-identical to re-evaluating the plan at the new epoch.

#ifndef MRSL_PDB_PLAN_CACHE_H_
#define MRSL_PDB_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdb/compiler.h"
#include "pdb/plan.h"
#include "pdb/prob_database.h"

namespace mrsl {

/// One fully evaluated query, every payload the CLI/serving path needs.
/// Which members are meaningful depends on `kind`. The evaluated rows
/// are not kept: once the store has taken their touched blocks, readers
/// need only the answer.
struct PlanEvaluation {
  ParsedQuery::Kind kind = ParsedQuery::Kind::kRelation;
  Schema schema;                             // PlanResult::schema
  bool safe = true;                          // PlanResult::safe
  std::vector<DistinctMarginal> marginals;   // kRelation
  ExistsResult exists;                       // kExists
  CountResult count;                         // kCount

  /// Set when the safe-plan compiler produced this entry. The cache key
  /// of a compiled entry carries CompileCacheSuffix(options), so entries
  /// at different width targets / world budgets never collide with each
  /// other or with plain EvaluatePlan entries. `compile_stats` has its
  /// compile_seconds zeroed before insertion: a cached body must be
  /// identical on hit and miss — wall time is per-request
  /// (StoreQueryResult::stages), not part of the answer.
  bool compiled = false;
  CompileStats compile_stats;
};

/// A sharded-nothing, mutex-guarded LRU cache of plan evaluations, one
/// per BidStore. Thread-safe; evaluations are immutable and shared.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64);

  /// The cached evaluation of `text` at `epoch`, or nullptr. An entry
  /// carried forward across commits reports the current epoch.
  std::shared_ptr<const PlanEvaluation> Lookup(const std::string& text,
                                               uint64_t epoch);

  /// Caches an evaluation of `plan` (parsed from `text`) performed at
  /// `epoch`. `touched_blocks` is the sorted, unique union of the block
  /// keys of every result row's lineage. A no-op when the cache already
  /// holds `text` at the same or a newer epoch (a pinned-snapshot reader
  /// finishing late must not evict the servable entry).
  void Insert(const std::string& text, PlanPtr plan, uint64_t epoch,
              std::vector<uint64_t> touched_blocks,
              std::shared_ptr<const PlanEvaluation> eval);

  /// Advances the cache to `new_epoch` after a commit. `index_stable`
  /// and `dirty_blocks` (sorted keys of every rebuilt or appended block)
  /// come from the commit; `new_db` is the post-commit database used for
  /// the contribution walk. Entries that survive are re-stamped to
  /// `new_epoch`; the rest are dropped.
  void OnCommit(uint64_t new_epoch, bool index_stable,
                const std::vector<uint64_t>& dirty_blocks,
                const ProbDatabase& new_db);

  void Clear();

  size_t size() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidated = 0;       // entries dropped by commits
    uint64_t carried_forward = 0;   // entries surviving a commit
    uint64_t evicted = 0;           // LRU capacity evictions
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string text;
    PlanPtr plan;
    uint64_t epoch = 0;
    std::vector<uint64_t> touched_blocks;  // sorted, unique
    std::shared_ptr<const PlanEvaluation> eval;
  };

  mutable std::mutex mutex_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

/// Conservative contribution test: false only when block `block_index`
/// of source `source` provably cannot contribute any row to `plan`'s
/// result (every alternative dies at some Select along each path).
/// Joins and unknown value flows report true. Exposed for tests.
bool BlockMayContribute(const PlanNode& plan, uint32_t source,
                        size_t block_index, const Block& block);

}  // namespace mrsl

#endif  // MRSL_PDB_PLAN_CACHE_H_
