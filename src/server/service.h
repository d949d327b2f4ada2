// StoreService: the HTTP face of a BidStore.
//
// Endpoints (all on the loopback server of server.h):
//
//   POST /query      body = plan text (pdb/plan.h syntax). Answers JSON:
//                    epoch, canonical plan, kind, safety flag, and the
//                    kind's payload (rows with [lower, upper] marginals /
//                    exists interval / expected count + distribution).
//                    `?oracle=N` adds a Monte-Carlo cross-check over N
//                    sampled worlds (the CLI's --oracle). `?width=W` /
//                    `?budget_ms=B` route the plan through the safe-plan
//                    compiler (pdb/compiler.h): unsafe shapes answer a
//                    dissociation-lattice envelope tightened until the
//                    mean bounds width reaches W or the time budget B is
//                    spent (either alone works; width=0 means "as tight
//                    as the world budget allows"). Compiled answers add
//                    a "compile" JSON object and the X-Mrsl-Compiled
//                    header, and are cached apart from plain answers —
//                    the cache key carries the compiler configuration.
//                    The body is a pure function of (epoch, plan,
//                    oracle, compiler options) — cache status travels in
//                    the X-Mrsl-Cache header and wall times in metrics,
//                    so hits and misses stay byte-identical.
//   POST /update     body = delta CSV (core/delta.h). Applies the delta
//                    with incremental re-derivation and answers the
//                    commit stats as JSON. Row-indexed deltas (updates/
//                    deletes) are guarded by an epoch compare-and-swap:
//                    if another commit landed since this request's
//                    epoch (or the one pinned via the X-Mrsl-Epoch
//                    request header), the answer is 409 and nothing is
//                    applied — re-read and re-address the delta.
//   GET  /snapshot   the current epoch as snapshot_io bytes.
//   GET  /healthz    liveness + current epoch + library version.
//   GET  /metrics    Prometheus text: the server's per-endpoint series
//                    plus this service's query/cache/commit series.
//   GET  /debug/traces  recent completed traces from the process-wide
//                    TraceStore ring (?trace=1 forces one; --trace-sample
//                    samples in the background). `?format=chrome` renders
//                    Chrome trace_event JSON for chrome://tracing;
//                    `?limit=N` keeps only the N newest.
//   GET  /debug/slow the slow-query log: queries whose handler wall time
//                    reached slow_query_ms, newest-capped ring of 32,
//                    each with its canonical plan, elapsed time, epoch,
//                    and (when the request was traced) its span tree.
//
// EXPLAIN ANALYZE: POST /query?trace=1 forces a trace and appends a
// "trace" object (the query span subtree: parse / evaluate / combine,
// or the compiler's phases) to the response body. The body up to that
// field is byte-identical to the untraced response — the trace never
// joins the plan-cache key and spans never influence evaluation.
//
// Query concurrency: each /query pins store->snapshot() on its own
// handler thread and answers through ONE BidStore::QueryOn call, so
// concurrent queries evaluate in parallel and each resolves against one
// consistent epoch (a commit landing mid-query never splits it). The
// PlanCache, the StatementStore and the metric handles are safe for
// concurrent use; two concurrent misses on one text may both evaluate,
// and PlanCache::Insert keeps one.
//
// Update group commit: /update requests batch into groups. One commit
// leader at a time drains one group, merges every insert-only unpinned
// delta into ONE combined commit (one epoch, one re-derivation),
// applies the remaining epoch-guarded deltas individually, then issues
// ONE BidStore::SyncWal for the whole group — so N concurrent writers
// cost one fsync, and nobody sees HTTP 200 before the fsync that covers
// their record returned. Without a WAL the sync is a no-op and the
// batching still amortizes commit overhead.

#ifndef MRSL_SERVER_SERVICE_H_
#define MRSL_SERVER_SERVICE_H_

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pdb/store.h"
#include "server/http.h"
#include "server/server.h"
#include "server/statements.h"

namespace mrsl {

struct StoreServiceOptions {
  /// Cap on deltas committed per drained update group — the group-commit
  /// unit: one leader drains a group, commits it, and issues ONE WAL
  /// fsync for all of it before anyone is acknowledged.
  size_t max_update_batch = 32;

  /// Cap on ?oracle trials (the oracle is CPU-heavy; a remote caller
  /// must not be able to order up an unbounded amount of sampling).
  size_t max_oracle_trials = 200000;

  /// Cap on ?budget_ms — the anytime compiler keeps a core busy for the
  /// whole budget, so a remote caller must not be able to order up an
  /// unbounded amount of refinement.
  size_t max_compile_budget_ms = 10000;

  /// Slow-query threshold in milliseconds: a /query whose handler wall
  /// time reaches this lands in the GET /debug/slow ring. 0 logs every
  /// query (tests); negative disables the log entirely.
  double slow_query_ms = 250.0;

  /// Total statement-digest cap across the StatementStore's shards
  /// (LRU per shard beyond it; evictions are counted and exported).
  size_t statement_capacity = 512;

  /// Statement tracking is always-on in production (the bench gates its
  /// overhead at <5%); this switch exists so bench_serve can measure a
  /// tracking-off baseline against the same binary.
  bool track_statements = true;
};

/// One GET /debug/slow entry. `fingerprint` links it to its
/// /debug/statements digest and `trace_id` (also echoed to the client
/// as X-Mrsl-Trace-Id) to its /debug/traces entry.
struct SlowQueryEntry {
  std::string trace_id;    // 16 hex digits; "" when the request was untraced
  std::string plan;        // canonical plan text
  uint64_t fingerprint = 0;
  double elapsed_ms = 0.0; // handler wall time
  uint64_t epoch = 0;
  PlanResources resources; // evaluator accounting (zero on cache hits)
  std::string spans_json;  // the query span subtree; "" when untraced
};

/// Binds a BidStore to an HttpServer. The store, engine, and server must
/// outlive the service; the service must outlive the server's Stop().
class StoreService {
 public:
  explicit StoreService(BidStore* store,
                        StoreServiceOptions options = StoreServiceOptions());

  /// Registers every endpoint on `server` and adopts its metrics
  /// registry. Call before server->Start().
  void Attach(HttpServer* server);

  /// Queries evaluated since Attach, for tests.
  uint64_t queries_served() const;

  /// Group commit: enqueues the delta, runs or joins the commit leader,
  /// returns once this delta is committed AND the WAL fsync covering it
  /// returned (the durability line an HTTP 200 stands for). Insert-only
  /// deltas with no epoch pin merge into one combined commit (one
  /// epoch); everything in the drained group shares one fsync. Public
  /// as the embedded programmatic write entry — /update is this plus
  /// CSV parsing and a JSON envelope.
  Result<CommitStats> BatchedUpdate(RelationDelta delta,
                                    uint64_t expected_epoch,
                                    TraceSpan trace = TraceSpan());

  /// The workload-analytics digests (exported at /debug/statements);
  /// exposed for tests and embedded use.
  StatementStore* statements() { return &statements_; }

 private:
  struct PendingUpdate;

  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleUpdate(const HttpRequest& request);
  HttpResponse HandleSnapshot(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleDebugTraces(const HttpRequest& request);
  HttpResponse HandleDebugSlow(const HttpRequest& request);
  HttpResponse HandleDebugStatements(const HttpRequest& request);
  HttpResponse HandleDebugStatementsReset(const HttpRequest& request);

  /// Appends one entry to the /debug/slow ring (capacity 32, oldest
  /// evicted) and bumps mrsl_slow_queries_total.
  void RecordSlowQuery(SlowQueryEntry entry);

  /// Commits one drained group: merged inserts first, then the
  /// individually-guarded deltas, then one SyncWal for everything.
  void CommitUpdateGroup(
      const std::vector<std::shared_ptr<PendingUpdate>>& group);

  /// Records one query's per-stage wall times into the
  /// mrsl_query_stage_seconds{stage=parse|evaluate|combine} histograms
  /// (evaluate/combine only on plan-cache misses).
  void ObserveQueryStages(const QueryStageTimes& stages, bool from_cache);

  /// Publishes the WAL depth gauges after a commit or checkpoint.
  void UpdateWalGauges();

  BidStore* store_;
  StoreServiceOptions options_;
  MetricsRegistry* metrics_ = nullptr;  // owned by the attached server

  // Series handles, resolved once in Attach: registration takes the
  // registry mutex, the request path then only touches atomics. Null
  // until Attach (programmatic BatchedUpdate records no metrics).
  struct MetricHandles {
    Counter* queries = nullptr;
    Counter* cache_hits = nullptr;
    Counter* cache_misses = nullptr;
    Histogram* stage_parse = nullptr;
    Histogram* stage_evaluate = nullptr;
    Histogram* stage_combine = nullptr;
    Histogram* compile_seconds = nullptr;
    Histogram* bounds_width = nullptr;
    Counter* slow_queries = nullptr;
    Counter* commits = nullptr;
    Histogram* wal_sync_seconds = nullptr;
    Histogram* update_group_size = nullptr;
    Gauge* wal_live_records = nullptr;
    Gauge* wal_live_bytes = nullptr;
    Gauge* wal_segments = nullptr;
    Gauge* uptime = nullptr;
  };
  MetricHandles m_;

  // The update (group-commit) batcher: one leader at a time drains and
  // commits a group; queries never wait behind it.
  std::mutex update_mutex_;
  std::condition_variable update_cv_;
  bool update_leader_active_ = false;
  std::vector<std::shared_ptr<PendingUpdate>> update_queue_;
  // Last drained group's size — the adaptive target for the commit
  // window (1 = serial workload, window off). Guarded by update_mutex_.
  size_t last_update_group_ = 1;

  // Per-shape workload digests (always-on; see statements.h).
  StatementStore statements_;

  // The /debug/slow ring (see SlowQueryEntry).
  static constexpr size_t kSlowRingCapacity = 32;
  mutable std::mutex slow_mutex_;
  std::vector<SlowQueryEntry> slow_ring_;
  size_t slow_next_ = 0;        // write cursor, valid once full
  uint64_t slow_recorded_ = 0;  // total ever recorded
};

}  // namespace mrsl

#endif  // MRSL_SERVER_SERVICE_H_
