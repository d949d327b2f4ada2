// The persistent inference engine: the serving-oriented entry point of
// the library.
//
// Every legacy entry point is a stateless free function that rebuilds its
// working state per call — InferSingleAttribute re-derives matcher
// scratch, and each RunWorkload constructs a fresh GibbsSampler (and with
// it a cold CpdCache). An Engine inverts that: it owns a loaded MrslModel, a
// long-lived work-stealing thread pool, and a checkout pool of reusable
// InferenceContexts, so a steady stream of batched requests executes with
// zero per-request index, cache, or thread construction.
//
// Determinism contract: InferBatch partitions a batch into the connected
// components of its tuple-subsumption DAG (sample sharing never crosses
// components) and gives each component an RNG stream seeded by
// WorkloadComponentSeed — a pure function of the request seed and the
// component's tuples. Results are therefore bit-identical for any thread
// count, any EngineOptions, and any interleaving with other batches, and
// they match each component run alone through RunWorkload. Context reuse
// is invisible in the output: a warm CpdCache only returns conditionals
// that recomputation would produce bit-for-bit.

#ifndef MRSL_CORE_ENGINE_H_
#define MRSL_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/gibbs.h"
#include "core/model.h"
#include "core/workload.h"
#include "relational/relation.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mrsl {

// Defined in pdb/prob_database.h; forward-declared so the serving core
// does not depend on the pdb layer's headers (pdb already includes
// core, and the layering stays one-way). DeriveDatabase callers include
// pdb/prob_database.h themselves.
class ProbDatabase;

/// Deterministic per-component seed: combines the request's base seed
/// with an order-independent hash of the component's tuples. Shared by
/// the engine and the legacy parallel runner so both produce identical
/// streams (and exposed for the equivalence tests).
uint64_t WorkloadComponentSeed(uint64_t base, const std::vector<Tuple>& tuples);

/// One worker's reusable inference state: a persistent GibbsSampler
/// bundling the per-attribute MatchScratch, the conditional-CPD cache,
/// the deterministic per-stream RNG, and the match-result scratch
/// buffers. Contexts are checked out of the engine's pool for the span
/// of one component and returned warm; not thread-safe — one checkout,
/// one thread.
class InferenceContext {
 public:
  /// `model` must outlive the context.
  explicit InferenceContext(const MrslModel* model)
      : sampler_(model, GibbsOptions()) {}

  /// Re-aims the context at a request stream: reseeds the RNG from
  /// `options.seed`, keeps the CPD cache warm when the options allow it
  /// (see GibbsSampler::Reconfigure).
  GibbsSampler* PrepareSampler(const GibbsOptions& options) {
    sampler_.Reconfigure(options);
    return &sampler_;
  }

  GibbsSampler* sampler() { return &sampler_; }
  const CpdCache& cache() const { return sampler_.cache(); }

 private:
  GibbsSampler sampler_;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads. 0 borrows the process-wide shared pool
  /// (ThreadPool::Global()); > 0 gives the engine a private pool AND
  /// caps concurrent executors at exactly that count (so num_threads=1
  /// is genuinely serial — the baseline thread-scaling benchmarks
  /// divide by). Results never depend on this.
  size_t num_threads = 0;

  /// Explicit cap on concurrently executing components per batch
  /// (0 = num_threads when set, otherwise pool width plus the calling
  /// thread). Results never depend on this either.
  size_t max_parallelism = 0;
};

/// Cumulative serving counters (monotone over the engine's lifetime).
struct EngineStats {
  uint64_t batches = 0;            // InferBatch/DeriveBatch calls served
  uint64_t tuples = 0;             // workload tuples answered
  uint64_t components = 0;         // DAG components executed
  uint64_t contexts_created = 0;   // InferenceContexts ever constructed
  uint64_t cache_hits = 0;         // CPD-cache hits across all requests
  uint64_t cpd_evaluations = 0;    // CPD-cache misses (computed CPDs)
};

/// A long-lived inference server over one loaded model. All public
/// methods are thread-safe; concurrent batches share the context pool.
class Engine {
 public:
  /// Owning constructor: the engine holds the model for its lifetime.
  explicit Engine(MrslModel model, EngineOptions options = EngineOptions());

  /// Borrowing constructor: `model` must outlive the engine. Used by the
  /// legacy free-function wrappers.
  explicit Engine(const MrslModel* model,
                  EngineOptions options = EngineOptions());

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const MrslModel& model() const { return *model_; }

  /// Width of the pool this engine schedules on.
  size_t num_threads() const { return pool_->num_threads(); }

  /// Batched multi-attribute inference: one Δt per tuple of `batch`,
  /// aligned with the batch order. Every SamplingMode is supported
  /// (kAllAtATime runs its single global chain on one context).
  /// Deterministic per the contract above. `stats` may be null.
  ///
  /// `trace` (when active) receives one "component" child span per DAG
  /// component executed (attrs: tuples, seed-derived component index);
  /// TraceContext is thread-safe, so the pool workers record into it
  /// directly. Spans never influence inference.
  Result<std::vector<JointDist>> InferBatch(const std::vector<Tuple>& batch,
                                            SamplingMode mode,
                                            const WorkloadOptions& options,
                                            WorkloadStats* stats = nullptr,
                                            TraceSpan trace = TraceSpan());

  /// InferBatch over `tuples` in chunks of `batch_size` (0 = one
  /// batch), concatenating the aligned results and summing `stats`.
  /// Bounds peak memory for very large workloads; chunk boundaries
  /// limit DAG sample sharing, so results depend on batch_size (never
  /// on thread count).
  Result<std::vector<JointDist>> InferChunked(
      const std::vector<Tuple>& tuples, SamplingMode mode,
      const WorkloadOptions& options, size_t batch_size,
      WorkloadStats* stats = nullptr);

  /// Single-tuple convenience: InferBatch of one. The default mode is
  /// the right one for a lone tuple (no DAG to share samples across).
  Result<JointDist> Infer(const Tuple& t, const WorkloadOptions& options,
                          SamplingMode mode = SamplingMode::kTupleAtATime);

  /// Single-attribute inference (Algorithm 2) on a pooled context.
  Result<Cpd> InferAttribute(const Tuple& t, AttrId attr,
                             const VotingOptions& voting);

  /// End-to-end derivation: Δt for every incomplete row of `rel`, in
  /// the order of rel.IncompleteRowIndices(), `batch_size` rows per
  /// engine batch (0 = one batch; see InferChunked). Feed the result to
  /// ProbDatabase::FromInference to materialize the probabilistic
  /// database.
  Result<std::vector<JointDist>> DeriveBatch(const Relation& rel,
                                             SamplingMode mode,
                                             const WorkloadOptions& options,
                                             size_t batch_size = 0,
                                             WorkloadStats* stats = nullptr);

  /// DeriveBatch followed by ProbDatabase::FromInference: the one-call
  /// path from an incomplete relation to the queryable BID database
  /// (the input of pdb/plan.h's extensional plans). Alternatives below
  /// `min_prob` are dropped and each block renormalized.
  Result<ProbDatabase> DeriveDatabase(const Relation& rel, SamplingMode mode,
                                      const WorkloadOptions& options,
                                      double min_prob = 0.0,
                                      size_t batch_size = 0,
                                      WorkloadStats* stats = nullptr);

  /// Snapshot of the serving counters.
  EngineStats stats() const;

  /// Contexts currently alive in the pool (grows to the high-water mark
  /// of concurrent component executions, then stays flat — the reuse the
  /// engine exists for).
  size_t context_pool_size() const;

 private:
  InferenceContext* AcquireContext();
  void ReleaseContext(InferenceContext* ctx);
  void RecordBatch(const WorkloadStats& stats, size_t components,
                   size_t tuples);

  MrslModel owned_model_;        // engaged only by the owning constructor
  const MrslModel* model_;       // always valid
  EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;  // engaged when num_threads > 0
  ThreadPool* pool_;                        // always valid

  mutable std::mutex mutex_;  // guards contexts_, free_, stats_
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
  std::vector<InferenceContext*> free_;
  EngineStats stats_;
};

}  // namespace mrsl

#endif  // MRSL_CORE_ENGINE_H_
