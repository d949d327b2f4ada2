// Commit pipeline: partition the new workload into engine components
// (PlanIncrementalDerivation mirrors Engine::InferBatch exactly), batch
// every dirty component through ONE InferBatch call — concatenating
// whole components preserves each component's ordered tuple list, hence
// its canonical seed, hence bit-identity with a from-scratch derivation
// — then assemble the new database, aliasing the previous epoch's block
// pointers wherever neither the row nor its Δt changed. Publication is
// a single atomic_store; readers pin epochs with atomic_load and never
// take the writer mutex.

#include "pdb/store.h"

#include <sys/stat.h>

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "pdb/fingerprint.h"
#include "pdb/plan.h"
#include "pdb/snapshot_io.h"
#include "util/timer.h"

namespace mrsl {

BidStore::BidStore(Engine* engine, StoreOptions options)
    : engine_(engine),
      options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity) {}

SnapshotPtr BidStore::snapshot() const {
  return std::atomic_load(&head_);
}

uint64_t BidStore::epoch() const {
  SnapshotPtr snap = snapshot();
  return snap == nullptr ? 0 : snap->epoch();
}

StoreOptions BidStore::options() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return options_;
}

Result<CommitStats> BidStore::Commit(Relation rel) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (wal_ != nullptr) {
    // A wholesale replacement is not representable as a WAL record, so
    // replaying the log over the pre-replacement snapshot would rebuild
    // the wrong store.
    return Status::FailedPrecondition(
        "Commit would bypass the write-ahead log; checkpoint and reopen "
        "instead of replacing the base relation wholesale");
  }
  SnapshotPtr parent = std::atomic_load(&head_);
  const uint64_t next_epoch = parent == nullptr ? 1 : parent->epoch() + 1;
  // A wholesale replacement has no index mapping to the parent: block
  // positions may shift arbitrarily, so the plan cache cannot carry
  // entries forward (component-level Δt reuse still applies).
  return CommitInternal(std::move(rel), parent.get(), next_epoch,
                        /*index_stable=*/false);
}

Result<CommitStats> BidStore::ApplyDelta(const RelationDelta& delta,
                                         uint64_t expected_epoch,
                                         TraceSpan trace) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  SnapshotPtr parent = std::atomic_load(&head_);
  if (parent == nullptr) {
    return Status::FailedPrecondition(
        "ApplyDelta needs a base epoch: call Commit or Restore first");
  }
  if (wal_failed_) {
    return Status::IOError(
        "the write-ahead log failed earlier; the store is read-only "
        "until restarted");
  }
  if (expected_epoch != 0 && parent->epoch() != expected_epoch) {
    return Status::FailedPrecondition(
        "delta targets epoch " + std::to_string(expected_epoch) +
        " but the store is at epoch " +
        std::to_string(parent->epoch()) +
        "; re-read the current epoch and re-address the delta");
  }
  MRSL_ASSIGN_OR_RETURN(Relation new_rel,
                        mrsl::ApplyDelta(parent->base(), delta));
  MRSL_ASSIGN_OR_RETURN(
      CommitStats stats,
      CommitInternal(std::move(new_rel), parent.get(), parent->epoch() + 1,
                     delta.IndexStable(), trace));
  if (wal_ != nullptr) {
    // Log after the commit published (a failed inference must not leave
    // a phantom record) but before returning: the caller may only
    // acknowledge once the covering Sync returned — immediately in
    // kAlways mode, at the group leader's SyncWal otherwise.
    TraceSpan wal_span = trace.StartChild("wal_append");
    Status logged = wal_->Append(stats.epoch, delta);
    wal_span.End();
    if (!logged.ok()) {
      // Memory is now ahead of the log; further commits would leave an
      // epoch gap that replay must reject. Freeze the write path.
      wal_failed_ = true;
      return logged;
    }
  }
  return stats;
}

Result<CommitStats> BidStore::CommitInternal(Relation new_rel,
                                             const StoreSnapshot* parent,
                                             uint64_t epoch,
                                             bool index_stable,
                                             TraceSpan trace) {
  if (options_.mode == SamplingMode::kAllAtATime) {
    return Status::InvalidArgument(
        "kAllAtATime has no component structure to re-derive "
        "incrementally; use another sampling mode");
  }
  WallTimer timer;
  CommitStats stats;
  stats.epoch = epoch;
  stats.index_stable = index_stable;

  // The engine workload: incomplete rows in row order (duplicates kept,
  // exactly what Engine::DeriveBatch would submit).
  TraceSpan partition_span = trace.StartChild("partition");
  std::vector<Tuple> workload;
  for (uint32_t r : new_rel.IncompleteRowIndices()) {
    workload.push_back(new_rel.row(r));
  }

  IncrementalPlan plan = PlanIncrementalDerivation(
      workload, [parent](const std::vector<Tuple>& component) {
        return parent != nullptr &&
               parent->component_index_.count(component) != 0;
      });
  stats.components_total = plan.components.size();
  stats.components_reinferred = plan.num_dirty_components;
  stats.tuples_reinferred = plan.dirty_workload.size();
  for (const std::vector<Tuple>& component : plan.components) {
    stats.tuples_total += component.size();
  }
  if (partition_span.active()) {
    partition_span.SetAttr("components",
                           static_cast<int64_t>(stats.components_total));
    partition_span.SetAttr(
        "components_dirty",
        static_cast<int64_t>(stats.components_reinferred));
    partition_span.End();
  }

  // One batch over the concatenated dirty components: same per-component
  // sub-workloads and seeds as a full derivation, so the results are
  // bit-identical to deriving everything from scratch.
  std::vector<JointDist> fresh;
  if (!plan.dirty_workload.empty()) {
    TraceSpan infer_span = trace.StartChild("infer");
    if (infer_span.active()) {
      infer_span.SetAttr("tuples",
                         static_cast<int64_t>(plan.dirty_workload.size()));
    }
    auto inferred =
        engine_->InferBatch(plan.dirty_workload, options_.mode,
                            options_.workload, &stats.inference, infer_span);
    infer_span.End();
    if (!inferred.ok()) return inferred.status();
    fresh = std::move(inferred).value();
  }

  TraceSpan assemble_span = trace.StartChild("assemble");
  auto snap = std::make_shared<StoreSnapshot>();
  snap->epoch_ = epoch;

  // Stitch components: clean ones alias the parent's shared Δt pointers,
  // dirty ones adopt the fresh results in concatenation order.
  size_t next_fresh = 0;
  std::unordered_set<const JointDist*> from_parent_dists;
  for (size_t c = 0; c < plan.components.size(); ++c) {
    StoreSnapshot::Component comp;
    comp.tuples = plan.components[c];
    if (plan.dirty[c]) {
      comp.dists.reserve(comp.tuples.size());
      for (size_t i = 0; i < comp.tuples.size(); ++i) {
        comp.dists.push_back(
            std::make_shared<const JointDist>(std::move(fresh[next_fresh])));
        ++next_fresh;
      }
    } else {
      const StoreSnapshot::Component& old =
          parent->components_[parent->component_index_.at(comp.tuples)];
      comp.dists = old.dists;
      for (const std::shared_ptr<const JointDist>& d : comp.dists) {
        from_parent_dists.insert(d.get());
      }
    }
    for (size_t i = 0; i < comp.tuples.size(); ++i) {
      snap->dist_index_.emplace(comp.tuples[i], comp.dists[i]);
    }
    snap->component_index_.emplace(comp.tuples, snap->components_.size());
    snap->components_.push_back(std::move(comp));
  }

  // Assemble the database, sharing every block whose row and Δt both
  // survived from the parent epoch. Everything else is rebuilt (a pure
  // function of row, Δt, and min_prob) and reported dirty to the plan
  // cache.
  auto db = std::make_shared<ProbDatabase>(new_rel.schema());
  std::vector<uint64_t> dirty_block_keys;
  std::unordered_map<Tuple, bool, TupleHash> reused_from_parent;
  for (size_t r = 0; r < new_rel.num_rows(); ++r) {
    const Tuple& row = new_rel.row(r);
    std::shared_ptr<const Block> block;
    auto cached = snap->block_cache_.find(row);
    if (cached != snap->block_cache_.end()) {
      block = cached->second;  // duplicate row within this commit
    } else {
      bool reusable = false;
      if (parent != nullptr) {
        auto old = parent->block_cache_.find(row);
        if (old != parent->block_cache_.end()) {
          if (row.IsComplete()) {
            reusable = true;  // certain blocks depend on the row alone
          } else {
            auto dist = snap->dist_index_.find(row);
            reusable = dist != snap->dist_index_.end() &&
                       from_parent_dists.count(dist->second.get()) != 0;
          }
          if (reusable) block = old->second;
        }
      }
      if (!reusable) {
        if (row.IsComplete()) {
          Block fresh_block;
          fresh_block.alternatives.push_back(Alternative{row, 1.0});
          block = std::make_shared<const Block>(std::move(fresh_block));
        } else {
          auto dist = snap->dist_index_.find(row);
          if (dist == snap->dist_index_.end()) {
            return Status::Internal("incomplete row missing its Δt");
          }
          MRSL_ASSIGN_OR_RETURN(
              Block fresh_block,
              BlockFromInference(row, *dist->second, options_.min_prob));
          block = std::make_shared<const Block>(std::move(fresh_block));
        }
      }
      snap->block_cache_.emplace(row, block);
      reused_from_parent.emplace(row, reusable);
    }
    MRSL_RETURN_IF_ERROR(db->AddSharedBlock(block));
    if (reused_from_parent.at(row)) ++stats.blocks_reused;
    // Dirty reporting for the plan cache is POSITIONAL, not content
    // based: an index-stable update that rewrites row r to a tuple some
    // other row already had reuses that tuple's block object (correct
    // structural sharing) but still changes what block index r holds —
    // cached plans that read index r must be invalidated. Clean means
    // "the parent epoch had this very block object at this very index".
    const size_t index = db->num_blocks() - 1;
    const bool position_clean =
        index_stable && parent != nullptr &&
        index < parent->database().num_blocks() &&
        block.get() == parent->shared_database()->shared_block(index).get();
    if (!position_clean) {
      dirty_block_keys.push_back(Lineage::BlockKey(0, index));
    }
  }
  stats.blocks_total = db->num_blocks();

  snap->db_ = std::move(db);
  snap->base_ = std::move(new_rel);
  if (assemble_span.active()) {
    assemble_span.SetAttr("blocks",
                          static_cast<int64_t>(stats.blocks_total));
    assemble_span.SetAttr("blocks_reused",
                          static_cast<int64_t>(stats.blocks_reused));
    assemble_span.End();
  }

  TraceSpan publish_span = trace.StartChild("publish");
  std::sort(dirty_block_keys.begin(), dirty_block_keys.end());
  plan_cache_.OnCommit(epoch, index_stable, dirty_block_keys,
                       snap->database());

  std::atomic_store(&head_, SnapshotPtr(std::move(snap)));
  publish_span.End();
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

Result<StoreQueryResult> BidStore::Query(const std::string& plan_text) {
  return QueryOn(snapshot(), plan_text);
}

Result<StoreQueryResult> BidStore::Query(
    const std::string& plan_text, const CompileOptions& compile_options) {
  return QueryOn(snapshot(), plan_text, &compile_options);
}

namespace {

// The Monte-Carlo cross-check of a QueryOn answer: samples the pinned
// snapshot under an "oracle" span, on hits and misses alike, and is
// never cached. A no-op without options.
Status RunOracle(const PlanNode& plan,
                 const std::vector<const ProbDatabase*>& sources,
                 const OracleOptions* options, TraceSpan& trace,
                 StoreQueryResult* out) {
  if (options == nullptr) return Status::OK();
  TraceSpan span = trace.StartChild("oracle");
  MRSL_ASSIGN_OR_RETURN(out->oracle,
                        MonteCarloPlanOracle(plan, sources, *options));
  if (span.active()) {
    span.SetAttr("trials", static_cast<int64_t>(options->trials));
    span.End();
  }
  out->resources.worlds_sampled += out->oracle.trials;
  return Status::OK();
}

}  // namespace

Result<StoreQueryResult> BidStore::QueryOn(const SnapshotPtr& snap,
                                           const std::string& plan_text,
                                           const CompileOptions* compile,
                                           TraceSpan trace,
                                           const OracleOptions* oracle) {
  if (snap == nullptr) {
    return Status::FailedPrecondition("store has no epoch yet");
  }
  std::vector<const ProbDatabase*> sources = {&snap->database()};
  WallTimer stage_timer;
  TraceSpan parse_span = trace.StartChild("parse");
  MRSL_ASSIGN_OR_RETURN(ParsedQuery parsed, ParsePlan(plan_text, sources));
  MRSL_ASSIGN_OR_RETURN(std::string rendered,
                        PlanToString(*parsed.plan, sources));
  StoreQueryResult out;
  out.epoch = snap->epoch();
  switch (parsed.kind) {
    case ParsedQuery::Kind::kRelation:
      out.canonical_text = rendered;
      break;
    case ParsedQuery::Kind::kExists:
      out.canonical_text = "exists(" + rendered + ")";
      break;
    case ParsedQuery::Kind::kCount:
      out.canonical_text = "count(" + rendered + ")";
      break;
  }
  // The digest identity rides along on every call — cache hits too, so
  // the statement store attributes hits to their shape. PlanToString
  // succeeded above, so normalization (same validation walk) cannot
  // fail; folded into parse time since it is the same kind of work.
  if (auto fp = FingerprintQuery(parsed, sources); fp.ok()) {
    out.fingerprint = fp->hash;
    out.normalized_text = std::move(fp->normalized);
  }
  out.stages.parse_seconds = stage_timer.ElapsedSeconds();
  parse_span.End();

  // Compiled answers depend on the compiler configuration, not just the
  // plan: the same canonical text at two width targets yields two
  // different envelopes. The suffix (never empty for a compiled query)
  // keys them apart — and apart from plain-evaluator entries, whose key
  // is the bare canonical text.
  std::string cache_key = out.canonical_text;
  if (compile != nullptr) cache_key += CompileCacheSuffix(*compile);

  if (auto hit = plan_cache_.Lookup(cache_key, out.epoch)) {
    out.from_cache = true;
    out.eval = std::move(hit);
    trace.SetAttr("cache", "hit");
    MRSL_RETURN_IF_ERROR(
        RunOracle(*parsed.plan, sources, oracle, trace, &out));
    return out;
  }
  trace.SetAttr("cache", "miss");

  auto eval = std::make_shared<PlanEvaluation>();
  eval->kind = parsed.kind;
  PlanResult result;
  if (compile != nullptr) {
    stage_timer.Reset();
    // Scope the compiler to the answers this query kind reads, mirroring
    // the plain path's kind switch below. The cache key stays on the
    // caller's options: the canonical text already carries the kind.
    CompileOptions scoped = *compile;
    scoped.want_exists = parsed.kind == ParsedQuery::Kind::kExists;
    scoped.want_count = parsed.kind == ParsedQuery::Kind::kCount;
    // The compiler nests its own phase1/phase2/combine children under
    // this request's "evaluate" span.
    TraceSpan eval_span = trace.StartChild("evaluate");
    MRSL_ASSIGN_OR_RETURN(
        CompiledQuery cq,
        CompileQuery(*parsed.plan, sources, scoped, eval_span,
                     &out.resources));
    eval_span.End();
    out.stages.evaluate_seconds = stage_timer.ElapsedSeconds();
    eval->compiled = true;
    result = std::move(cq.result);
    eval->marginals = std::move(cq.marginals);
    eval->exists = cq.exists;
    eval->count = cq.count;
    eval->compile_stats = cq.stats;
    // Wall time is per-request, not part of the answer: a cache hit must
    // return a body identical to the miss that populated it.
    eval->compile_stats.compile_seconds = 0.0;
  } else {
    stage_timer.Reset();
    TraceSpan eval_span = trace.StartChild("evaluate");
    MRSL_ASSIGN_OR_RETURN(
        result,
        EvaluatePlan(*parsed.plan, sources, eval_span, &out.resources));
    if (eval_span.active()) {
      eval_span.SetAttr("rows", static_cast<int64_t>(result.rows.size()));
      eval_span.End();
    }
    out.stages.evaluate_seconds = stage_timer.ElapsedSeconds();
    // Combine: aggregate the evaluated rows. The aggregates reuse the
    // relation result (ExistsFromResult / CountFromResult) instead of
    // evaluating the plan a second time.
    stage_timer.Reset();
    TraceSpan combine_span = trace.StartChild("combine");
    switch (parsed.kind) {
      case ParsedQuery::Kind::kRelation:
        eval->marginals = DistinctMarginals(result, sources);
        break;
      case ParsedQuery::Kind::kExists:
        eval->exists = ExistsFromResult(result, sources);
        break;
      case ParsedQuery::Kind::kCount:
        eval->count = CountFromResult(result, sources);
        break;
    }
    combine_span.End();
    out.stages.combine_seconds = stage_timer.ElapsedSeconds();
  }

  // The entry keeps the answer, not the rows: its dependency set is
  // every block any surviving row reads.
  eval->schema = std::move(result.schema);
  eval->safe = result.safe;
  std::vector<uint64_t> touched;
  for (const PlanRow& row : result.rows) {
    touched.insert(touched.end(), row.lineage.blocks.begin(),
                   row.lineage.blocks.end());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()),
                touched.end());
  plan_cache_.Insert(cache_key, parsed.plan, out.epoch,
                     std::move(touched), eval);
  out.eval = std::move(eval);
  MRSL_RETURN_IF_ERROR(RunOracle(*parsed.plan, sources, oracle, trace, &out));
  return out;
}

Result<SnapshotImage> BidStore::BuildSnapshotImage() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return BuildSnapshotImageLocked();
}

Result<SnapshotImage> BidStore::BuildSnapshotImageLocked() const {
  // Epoch and options must be captured as a consistent pair — Restore
  // swaps both, and a file pairing one epoch's components with another
  // restore's options would poison every cached Δt it carries.
  SnapshotPtr snap = std::atomic_load(&head_);
  StoreOptions opts = options_;
  if (snap == nullptr) {
    return Status::FailedPrecondition("store has no epoch to save");
  }
  SnapshotImage image;
  image.epoch = snap->epoch();
  image.mode = opts.mode;
  image.workload = opts.workload;
  image.min_prob = opts.min_prob;
  image.base = snap->base();
  image.components.reserve(snap->components().size());
  for (const StoreSnapshot::Component& comp : snap->components()) {
    SnapshotComponentImage ci;
    ci.tuples = comp.tuples;
    ci.dists = comp.dists;
    image.components.push_back(std::move(ci));
  }
  return image;
}

Status BidStore::SaveSnapshot(const std::string& path) const {
  MRSL_ASSIGN_OR_RETURN(SnapshotImage image, BuildSnapshotImage());
  return SaveSnapshotFile(image, path);
}

Result<std::string> BidStore::SerializeCurrentSnapshot(
    uint64_t* epoch) const {
  MRSL_ASSIGN_OR_RETURN(SnapshotImage image, BuildSnapshotImage());
  if (epoch != nullptr) *epoch = image.epoch;
  return SerializeSnapshot(image);
}

Status BidStore::Restore(const std::string& path) {
  MRSL_ASSIGN_OR_RETURN(SnapshotImage image, LoadSnapshotFile(path));

  // The snapshot's ValueIds are indices into ITS schema's label lists;
  // feeding them to a model with different labels would silently
  // misinterpret every cell, so names, cardinalities, and labels must
  // all line up.
  Status compatible =
      CheckSchemasMatch(engine_->model().schema(), image.base.schema());
  if (!compatible.ok()) {
    return Status::InvalidArgument("snapshot does not fit the engine's "
                                   "model: " +
                                   compatible.message());
  }

  std::lock_guard<std::mutex> lock(writer_mutex_);

  // A pseudo-parent carrying the file's derivation cache: the commit
  // below then reuses every saved component and re-infers only what the
  // file is missing (nothing, for an intact snapshot).
  StoreSnapshot seed;
  for (SnapshotComponentImage& ci : image.components) {
    StoreSnapshot::Component comp;
    comp.tuples = std::move(ci.tuples);
    comp.dists = std::move(ci.dists);
    for (size_t i = 0; i < comp.tuples.size(); ++i) {
      if (i >= comp.dists.size()) {
        return Status::Corruption("snapshot component missing dists");
      }
      seed.dist_index_.emplace(comp.tuples[i], comp.dists[i]);
    }
    seed.component_index_.emplace(comp.tuples, seed.components_.size());
    seed.components_.push_back(std::move(comp));
  }

  // Adopt the file's derivation options only around the commit — the
  // seed's cached Δt values are only valid under them.
  const StoreOptions previous_options = options_;
  options_.mode = image.mode;
  options_.workload = image.workload;
  options_.min_prob = image.min_prob;
  auto committed = CommitInternal(std::move(image.base), &seed, image.epoch,
                                  /*index_stable=*/false);
  if (!committed.ok()) {
    // Nothing was published: roll the options back too, or a later
    // commit would reuse the CURRENT epoch's cached components under
    // options that did not produce them.
    options_ = previous_options;
    return committed.status();
  }
  return Status::OK();
}

Result<WalRecoveryStats> BidStore::OpenWal(const std::string& dir,
                                           WalSyncMode mode) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a write-ahead log is already open");
  }
  SnapshotPtr head = std::atomic_load(&head_);
  if (head == nullptr) {
    return Status::FailedPrecondition(
        "OpenWal needs a base epoch: call Commit or Restore first");
  }

  MRSL_ASSIGN_OR_RETURN(WalReplay replay,
                        ReplayWalDir(dir, head->base().schema()));
  WalRecoveryStats recovery;
  for (const WalRecord& record : replay.records) {
    SnapshotPtr parent = std::atomic_load(&head_);
    if (record.epoch <= parent->epoch()) {
      // The snapshot the store restored from already covers this record
      // (a checkpoint raced the crash).
      ++recovery.skipped_records;
      continue;
    }
    if (record.epoch != parent->epoch() + 1) {
      return Status::Corruption(
          "WAL replay hit an epoch gap: store is at " +
          std::to_string(parent->epoch()) + ", next record is " +
          std::to_string(record.epoch));
    }
    // Re-deriving the logged delta reproduces the pre-crash epoch bit
    // for bit — the same incremental-derivation invariant every commit
    // relies on.
    MRSL_ASSIGN_OR_RETURN(Relation new_rel,
                          mrsl::ApplyDelta(parent->base(), record.delta));
    MRSL_ASSIGN_OR_RETURN(
        CommitStats stats,
        CommitInternal(std::move(new_rel), parent.get(), record.epoch,
                       record.delta.IndexStable()));
    (void)stats;
    ++recovery.replayed_records;
  }

  if (!replay.tail.ok()) {
    recovery.torn_tail = true;
    struct stat st;
    if (::stat(replay.tail_path.c_str(), &st) == 0 &&
        static_cast<uint64_t>(st.st_size) > replay.tail_valid_bytes) {
      recovery.truncated_bytes =
          static_cast<uint64_t>(st.st_size) - replay.tail_valid_bytes;
    }
    MRSL_RETURN_IF_ERROR(
        TruncateWalSegment(replay.tail_path, replay.tail_valid_bytes));
  }

  MRSL_ASSIGN_OR_RETURN(
      wal_, WriteAheadLog::Open(dir, std::atomic_load(&head_)->epoch(),
                                mode, replay.records.size()));
  return recovery;
}

Status BidStore::SyncWal() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (wal_ == nullptr) return Status::OK();
  Status synced = wal_->Sync();
  if (!synced.ok()) wal_failed_ = true;
  return synced;
}

Status BidStore::Checkpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  MRSL_ASSIGN_OR_RETURN(SnapshotImage image, BuildSnapshotImageLocked());
  MRSL_RETURN_IF_ERROR(SaveSnapshotFile(image, path));
  if (wal_ != nullptr) {
    // The snapshot (atomically in place) now covers every record; held
    // under the writer mutex, no commit can append past image.epoch
    // before the compaction lands.
    MRSL_RETURN_IF_ERROR(wal_->Compact(image.epoch));
  }
  return Status::OK();
}

bool BidStore::has_wal() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return wal_ != nullptr;
}

WalStats BidStore::wal_stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return wal_ == nullptr ? WalStats() : wal_->stats();
}

}  // namespace mrsl
