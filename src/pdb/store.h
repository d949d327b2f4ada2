// The versioned BID store: epoch snapshots, incremental re-derivation,
// and snapshot serving.
//
// A BidStore owns a sequence of immutable StoreSnapshot epochs, each a
// (base relation, derived ProbDatabase) pair plus the derivation cache
// that makes the next commit incremental. Readers call snapshot() — a
// lock-free atomic shared_ptr load — and keep the returned epoch pinned
// for as long as they use it; writers run Commit/ApplyDelta under a
// single-writer mutex and publish the new epoch atomically, so a reader
// always observes one fully consistent epoch and never blocks.
//
// Incrementality: the engine derives Δt per subsumption-DAG component
// with a seed that is a pure function of the component's ordered tuple
// list (core/engine.h). A commit therefore partitions the new workload
// into components (core/delta.h), reuses the previous epoch's results
// for every component whose ordered tuple list is unchanged, and
// re-infers ONLY the dirty components — in one batch, so the result is
// bit-identical to a from-scratch derivation at any thread count.
// Untouched blocks are shared structurally (shared_ptr) with the
// previous epoch; rebuilt and appended block keys are reported to the
// plan cache, which invalidates at block granularity (pdb/plan_cache.h).
//
// Restart: SaveSnapshot writes the current epoch to the binary format
// of pdb/snapshot_io.h; Restore adopts a saved epoch (derivation
// options included) without re-running inference.

#ifndef MRSL_PDB_STORE_H_
#define MRSL_PDB_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/delta.h"
#include "core/engine.h"
#include "core/workload.h"
#include "pdb/compiler.h"
#include "pdb/plan_cache.h"
#include "pdb/prob_database.h"
#include "pdb/snapshot_io.h"
#include "pdb/wal.h"
#include "util/result.h"

namespace mrsl {

/// Store construction knobs: how derivations run and how results are
/// materialized. These are part of each snapshot's identity — cached Δt
/// values are only reused under the options that produced them.
struct StoreOptions {
  /// Sampling strategy for derivations. kAllAtATime is rejected (its one
  /// global chain has no component structure to re-derive incrementally).
  SamplingMode mode = SamplingMode::kTupleDag;

  /// Gibbs parameters + cycle cap used for every derivation.
  WorkloadOptions workload;

  /// Alternatives below this probability are dropped from blocks (see
  /// ProbDatabase::FromInference).
  double min_prob = 0.0;

  /// Plan-cache capacity (entries).
  size_t plan_cache_capacity = 64;
};

/// One immutable epoch of the store. Snapshots are published behind
/// shared_ptr<const StoreSnapshot>; everything here is safe to read
/// concurrently and never mutates after publication.
class StoreSnapshot {
 public:
  /// One derivation component: the engine's ordered sub-workload and the
  /// shared Δt of each tuple (aligned). Clean commits alias these
  /// pointers across epochs.
  struct Component {
    std::vector<Tuple> tuples;
    std::vector<std::shared_ptr<const JointDist>> dists;
  };

  uint64_t epoch() const { return epoch_; }
  const Relation& base() const { return base_; }
  const ProbDatabase& database() const { return *db_; }
  const std::shared_ptr<const ProbDatabase>& shared_database() const {
    return db_;
  }
  const std::vector<Component>& components() const { return components_; }

 private:
  friend class BidStore;

  uint64_t epoch_ = 0;
  Relation base_;
  std::shared_ptr<const ProbDatabase> db_;
  std::vector<Component> components_;

  // Ordered component tuples -> index into components_.
  std::unordered_map<std::vector<Tuple>, size_t, TupleVectorHash>
      component_index_;
  // Distinct incomplete tuple -> its Δt (aliases components_' entries).
  std::unordered_map<Tuple, std::shared_ptr<const JointDist>, TupleHash>
      dist_index_;
  // Source row tuple -> derived block, for structural reuse.
  std::unordered_map<Tuple, std::shared_ptr<const Block>, TupleHash>
      block_cache_;
};

using SnapshotPtr = std::shared_ptr<const StoreSnapshot>;

/// What one commit did — the observable contract of incrementality.
struct CommitStats {
  uint64_t epoch = 0;              // epoch the commit published
  size_t components_total = 0;     // components in the new derivation
  size_t components_reinferred = 0;
  size_t tuples_total = 0;         // distinct incomplete tuples
  size_t tuples_reinferred = 0;    // tuples actually sent to the engine
  size_t blocks_total = 0;
  size_t blocks_reused = 0;        // blocks shared with the previous epoch
  bool index_stable = false;       // block indices map 1:1 from the parent
  double wall_seconds = 0.0;
  WorkloadStats inference;         // the engine's cost counters
};

/// What OpenWal found and did while bringing the store back up.
struct WalRecoveryStats {
  uint64_t replayed_records = 0;  // deltas re-applied on top of the base
  uint64_t skipped_records = 0;   // records the base epoch already had
  bool torn_tail = false;         // the final record was torn (crash)
  uint64_t truncated_bytes = 0;   // torn bytes discarded from the tail
};

/// Wall time spent in each stage of answering one query. `parse` covers
/// ParsePlan plus the canonical rendering (paid on every query, hit or
/// miss); `evaluate` is the plan evaluation proper and `combine` the
/// aggregation over its rows (marginals / exists / count) — both zero
/// on a cache hit. The server exports these as per-stage histograms.
struct QueryStageTimes {
  double parse_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double combine_seconds = 0.0;
};

/// A cache-aware query answer: the evaluation plus where it came from.
/// `fingerprint`/`normalized_text` are the literal-insensitive digest
/// identity (pdb/fingerprint.h), computed on every call — cache hits
/// included — so the workload-analytics layer can attribute each call
/// to its shape. `resources` holds the evaluator's per-request peaks
/// and counters; like `stages.evaluate_seconds`, it stays zero on
/// cache hits (nothing was evaluated) except for `worlds_sampled`,
/// which counts the oracle's trials. `oracle` is the Monte-Carlo
/// cross-check when one was asked for (`oracle.trials` is 0 otherwise);
/// it is recomputed on every call and never cached.
struct StoreQueryResult {
  uint64_t epoch = 0;
  bool from_cache = false;
  std::string canonical_text;  // PlanToString rendering (the cache key)
  uint64_t fingerprint = 0;    // FNV-1a64 of normalized_text
  std::string normalized_text; // literals replaced by "?" (fingerprint.h)
  std::shared_ptr<const PlanEvaluation> eval;
  OracleResult oracle;
  QueryStageTimes stages;
  PlanResources resources;
};

/// The epoch-versioned store. All methods are thread-safe: reads are
/// lock-free, writes serialize on an internal single-writer mutex.
class BidStore {
 public:
  /// `engine` must outlive the store and is shared with other users (the
  /// store only issues batched InferBatch calls).
  explicit BidStore(Engine* engine, StoreOptions options = StoreOptions());

  /// Derives the first epoch (or wholesale-replaces the base relation;
  /// replacement commits reuse any component that survived unchanged but
  /// clear the plan cache, since block indices may shift arbitrarily).
  Result<CommitStats> Commit(Relation rel);

  /// Applies `delta` to the current epoch's relation, re-infers only the
  /// dirtied components, and publishes the next epoch. Requires a prior
  /// Commit or Restore.
  ///
  /// `expected_epoch` (when non-zero) is a compare-and-swap guard for
  /// index-addressed deltas: the commit proceeds only if the current
  /// epoch still equals it, otherwise FailedPrecondition. Deltas carry
  /// row indices of the epoch their author read — applying them after
  /// an interleaved commit shifted those indices would silently mutate
  /// the wrong rows (the server's concurrent /update hazard).
  ///
  /// `trace` (when active) receives "partition" / "infer" (with the
  /// engine's per-component spans nested) / "assemble" / "publish"
  /// children from the commit pipeline plus "wal_append" for the log
  /// write. The group-commit leader's fsync is the service's span, not
  /// the store's (one fsync covers many deltas).
  Result<CommitStats> ApplyDelta(const RelationDelta& delta,
                                 uint64_t expected_epoch = 0,
                                 TraceSpan trace = TraceSpan());

  /// The current epoch, pinned for the caller (nullptr before the first
  /// commit). Lock-free.
  SnapshotPtr snapshot() const;

  /// Current epoch number (0 before the first commit). Lock-free.
  uint64_t epoch() const;

  /// The store's derivation options, by value: Restore() replaces them
  /// with a snapshot's saved options, so a reference would race with a
  /// concurrent restore.
  StoreOptions options() const;

  Engine* engine() const { return engine_; }
  PlanCache& plan_cache() { return plan_cache_; }

  /// Parses and evaluates `plan_text` against the current epoch, serving
  /// from the plan cache when the canonical plan was already evaluated
  /// at this epoch (entries carried across commits included).
  Result<StoreQueryResult> Query(const std::string& plan_text);

  /// Query through the safe-plan compiler (pdb/compiler.h): unsafe shapes
  /// get a dissociation-lattice [lower, upper] envelope instead of the
  /// evaluator's fixed-dissociation bounds. Cached under
  /// canonical_text + CompileCacheSuffix(options), so results at
  /// different width targets / world budgets never collide with each
  /// other or with plain Query entries.
  Result<StoreQueryResult> Query(const std::string& plan_text,
                                 const CompileOptions& compile_options);

  /// Query against an explicitly pinned snapshot of THIS store — the
  /// one query path behind `mrsl query` (--plan and --where) and the
  /// server's POST /query: the caller pins one epoch and evaluates any
  /// number of plans against it while commits race ahead. Cache
  /// interaction stays sound: hits are served only when the entry's
  /// epoch matches `snap`'s, and an insert stamped with a superseded
  /// epoch is simply never served and dropped at the next commit.
  ///
  /// `compile` (when non-null) routes evaluation through the safe-plan
  /// compiler with those options; the cache key then carries
  /// CompileCacheSuffix(*compile) so compiled answers configured
  /// differently — or the plain-evaluator answer — are distinct entries.
  ///
  /// `trace` (when active) receives "parse", "evaluate" (per-operator
  /// spans — or the compiler's phase1/phase2 — nested inside), and
  /// "combine" children, plus a "cache" = hit|miss attribute. Spans
  /// never influence the answer and never enter the plan cache: a
  /// traced response body is byte-identical to an untraced one.
  ///
  /// `oracle` (when non-null) also runs MonteCarloPlanOracle with those
  /// options on `snap` — on hits and misses alike, under an "oracle"
  /// span — into StoreQueryResult::oracle, and adds its trials to
  /// `resources.worlds_sampled`.
  Result<StoreQueryResult> QueryOn(const SnapshotPtr& snap,
                                   const std::string& plan_text,
                                   const CompileOptions* compile = nullptr,
                                   TraceSpan trace = TraceSpan(),
                                   const OracleOptions* oracle = nullptr);

  /// The current epoch as snapshot_io bytes (what SaveSnapshot writes,
  /// without the file) — the GET /snapshot payload. Fails before the
  /// first commit. `epoch` (optional) receives the serialized epoch,
  /// which a racing commit may already have superseded.
  Result<std::string> SerializeCurrentSnapshot(
      uint64_t* epoch = nullptr) const;

  /// Persists the current epoch to `path` (snapshot_io format). Fails
  /// before the first commit.
  Status SaveSnapshot(const std::string& path) const;

  /// Replaces the store's state with a saved epoch: adopts the file's
  /// derivation options and epoch number and rebuilds the database from
  /// the cached distributions — no inference unless the file is missing
  /// components (then only those are re-inferred). Clears the plan cache.
  Status Restore(const std::string& path);

  /// Attaches a write-ahead log in `dir` (created if missing) and makes
  /// every subsequent ApplyDelta durable. Requires an epoch (Commit or
  /// Restore first). Recovery happens here: any records beyond the
  /// current epoch are replayed (re-deriving each commit, bit-identical
  /// to the pre-crash epochs), a torn final record is discarded, and a
  /// fresh active segment is started. Fails with Corruption on an epoch
  /// gap or mid-log damage — losses a crash cannot explain.
  Result<WalRecoveryStats> OpenWal(const std::string& dir, WalSyncMode mode);

  /// Makes every appended-but-unsynced WAL record durable (no-op without
  /// a WAL or in kNone mode). The group-commit leader's fsync.
  Status SyncWal();

  /// Atomically saves the current epoch to `path` and compacts the WAL
  /// behind it (deletes every record the snapshot now covers). Runs
  /// under the writer mutex, so no commit can slip between the save and
  /// the compaction. Without a WAL this is SaveSnapshot.
  Status Checkpoint(const std::string& path);

  bool has_wal() const;
  /// Mode and counters of the attached WAL (zeroes when none).
  WalStats wal_stats() const;

 private:
  /// Shared commit path. `parent` supplies reuse caches (may be null);
  /// `epoch` is the number to publish; `index_stable` gates block-level
  /// plan-cache carry-forward.
  Result<CommitStats> CommitInternal(Relation new_rel,
                                     const StoreSnapshot* parent,
                                     uint64_t epoch, bool index_stable,
                                     TraceSpan trace = TraceSpan());

  /// Captures (head, options) as a consistent pair and builds the
  /// serializable image behind SaveSnapshot / SerializeCurrentSnapshot.
  Result<SnapshotImage> BuildSnapshotImage() const;

  /// BuildSnapshotImage with writer_mutex_ already held.
  Result<SnapshotImage> BuildSnapshotImageLocked() const;

  Engine* engine_;
  StoreOptions options_;
  PlanCache plan_cache_;

  mutable std::mutex writer_mutex_;  // serializes commits
  SnapshotPtr head_;                 // atomic_load/atomic_store access

  // The durable write path (null until OpenWal). Guarded by
  // writer_mutex_ like every other write-side structure. Once an append
  // fails the store refuses further deltas (wal_failed_): the in-memory
  // epoch would otherwise run ahead of the log and a later replay would
  // hit an epoch gap.
  std::unique_ptr<WriteAheadLog> wal_;
  bool wal_failed_ = false;
};

}  // namespace mrsl

#endif  // MRSL_PDB_STORE_H_
