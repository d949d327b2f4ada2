#include "server/service.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "core/delta.h"
#include "pdb/fingerprint.h"
#include "pdb/plan.h"
#include "util/log.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"
#include "util/version.h"

namespace mrsl {
namespace {

// %.17g round-trips doubles exactly, so a response body is a pure
// function of the evaluation — the whole-epoch smoke test compares
// bodies byte for byte.
void AppendNum(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendInterval(std::string* out, const ProbInterval& p) {
  *out += "{\"lo\":";
  AppendNum(out, p.lo);
  *out += ",\"hi\":";
  AppendNum(out, p.hi);
  *out += "}";
}

int HttpCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    default:
      return 500;
  }
}

HttpResponse JsonError(const Status& status) {
  HttpResponse resp;
  resp.status = HttpCodeFor(status);
  resp.body = "{\"error\":\"" + JsonEscape(status.ToString()) + "\"}\n";
  return resp;
}

std::string RenderQueryBody(const StoreQueryResult& result) {
  const PlanEvaluation& eval = *result.eval;
  std::string body = "{\"epoch\":" + std::to_string(result.epoch) +
                     ",\"plan\":\"" + JsonEscape(result.canonical_text) +
                     "\"";
  switch (eval.kind) {
    case ParsedQuery::Kind::kRelation: {
      body += ",\"kind\":\"relation\",\"safe\":";
      body += eval.safe ? "true" : "false";
      body += ",\"rows\":[";
      const Schema& schema = eval.schema;
      for (size_t i = 0; i < eval.marginals.size(); ++i) {
        const DistinctMarginal& m = eval.marginals[i];
        if (i > 0) body += ",";
        body += "{\"values\":[";
        for (AttrId a = 0; a < schema.num_attrs(); ++a) {
          if (a > 0) body += ",";
          const ValueId v = m.tuple.value(a);
          body += "\"";
          body += v == kMissingValue ? "?"
                                     : JsonEscape(schema.attr(a).label(v));
          body += "\"";
        }
        body += "],\"p\":";
        AppendInterval(&body, m.prob);
        body += "}";
      }
      body += "]";
      break;
    }
    case ParsedQuery::Kind::kExists:
      body += ",\"kind\":\"exists\",\"safe\":";
      body += eval.exists.safe ? "true" : "false";
      body += ",\"exists\":";
      AppendInterval(&body, eval.exists.prob);
      break;
    case ParsedQuery::Kind::kCount:
      body += ",\"kind\":\"count\",\"safe\":";
      body += eval.count.safe ? "true" : "false";
      body += ",\"count\":";
      AppendInterval(&body, eval.count.expected);
      if (eval.count.has_distribution) {
        body += ",\"distribution\":[";
        for (size_t k = 0; k < eval.count.distribution.size(); ++k) {
          if (k > 0) body += ",";
          AppendNum(&body, eval.count.distribution[k]);
        }
        body += "]";
      }
      break;
  }
  const OracleResult& oracle = result.oracle;
  if (oracle.trials > 0) {  // a ?oracle=N cross-check ran
    body += ",\"oracle\":{\"trials\":" + std::to_string(oracle.trials) +
            ",\"exists\":";
    AppendNum(&body, oracle.exists);
    body += ",\"expected_count\":";
    AppendNum(&body, oracle.expected_count);
    body += "}";
  }
  if (eval.compiled) {
    // compile_seconds is deliberately absent: the entry is cached and a
    // hit must serve the byte-identical body (wall time goes to the
    // mrsl_compile_seconds metric instead).
    const CompileStats& cs = eval.compile_stats;
    body += ",\"compile\":{\"plan_safe\":";
    body += cs.plan_safe ? "true" : "false";
    body += ",\"groups_total\":" + std::to_string(cs.groups_total) +
            ",\"groups_refined\":" + std::to_string(cs.groups_refined) +
            ",\"worlds_expanded\":" + std::to_string(cs.worlds_expanded) +
            ",\"mean_width_base\":";
    AppendNum(&body, cs.mean_width_base);
    body += ",\"mean_width_final\":";
    AppendNum(&body, cs.mean_width_final);
    body += ",\"width_target_met\":";
    body += cs.width_target_met ? "true" : "false";
    body += ",\"budget_exhausted\":";
    body += cs.budget_exhausted ? "true" : "false";
    body += "}";
  }
  body += "}\n";
  return body;
}

}  // namespace

struct StoreService::PendingUpdate {
  RelationDelta delta;
  uint64_t expected_epoch = 0;
  TraceSpan span;  // this request's "update" span (usually inert)
  // Insert-only and unpinned: commutes with its group peers, so the
  // leader may fold it into one combined commit.
  bool mergeable = false;
  Result<CommitStats> result = Status::Internal("not committed");
  bool done = false;
};

StoreService::StoreService(BidStore* store, StoreServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      statements_(options_.statement_capacity) {}

void StoreService::Attach(HttpServer* server) {
  metrics_ = server->metrics();
  server->Handle("POST", "/query",
                 [this](const HttpRequest& r) { return HandleQuery(r); });
  server->Handle("POST", "/update",
                 [this](const HttpRequest& r) { return HandleUpdate(r); });
  server->Handle("GET", "/snapshot",
                 [this](const HttpRequest& r) { return HandleSnapshot(r); });
  server->Handle("GET", "/healthz",
                 [this](const HttpRequest& r) { return HandleHealthz(r); });
  server->Handle("GET", "/metrics",
                 [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Handle("GET", "/debug/traces", [this](const HttpRequest& r) {
    return HandleDebugTraces(r);
  });
  server->Handle("GET", "/debug/slow",
                 [this](const HttpRequest& r) { return HandleDebugSlow(r); });
  server->Handle("GET", "/debug/statements", [this](const HttpRequest& r) {
    return HandleDebugStatements(r);
  });
  server->Handle("POST", "/debug/statements/reset",
                 [this](const HttpRequest& r) {
                   return HandleDebugStatementsReset(r);
                 });
  // The conventional build-metadata gauge: the value is always 1, the
  // interesting part is the label set.
  metrics_
      ->GetGauge("mrsl_build_info",
                 "Build metadata; the value is always 1 and the library "
                 "version travels in the version label.",
                 {{"version", MRSL_VERSION_STRING}})
      ->Set(1.0);
  metrics_
      ->GetGauge("mrsl_process_start_time_seconds",
                 "Unix time the process started, in seconds.")
      ->Set(ProcessStartUnixSeconds());
  // Every series the request and commit paths touch is resolved once
  // here, so those families are exported (at zero) from the first
  // scrape on.
  MetricsRegistry& reg = *metrics_;
  m_.uptime = reg.GetGauge("mrsl_uptime_seconds",
                           "Seconds since process start.");
  m_.uptime->Set(ProcessUptimeSeconds());
  m_.queries = reg.GetCounter("mrsl_queries_total",
                              "Plans evaluated through the store.");
  m_.cache_hits = reg.GetCounter("mrsl_query_cache_total",
                                 "Plan-cache consultations.",
                                 {{"result", "hit"}});
  m_.cache_misses = reg.GetCounter("mrsl_query_cache_total",
                                   "Plan-cache consultations.",
                                   {{"result", "miss"}});
  auto stage = [&reg](const char* name) {
    return reg.GetHistogram(
        "mrsl_query_stage_seconds",
        "Wall time per query stage (parse covers every query; "
        "evaluate/combine only cache misses).",
        MetricsRegistry::DefaultLatencyBoundsSeconds(), {{"stage", name}});
  };
  m_.stage_parse = stage("parse");
  m_.stage_evaluate = stage("evaluate");
  m_.stage_combine = stage("combine");
  m_.compile_seconds =
      reg.GetHistogram("mrsl_compile_seconds",
                       "Wall time in CompileQuery (cache misses only).",
                       MetricsRegistry::DefaultLatencyBoundsSeconds());
  m_.bounds_width = reg.GetHistogram(
      "mrsl_bounds_width",
      "Mean [lower, upper] envelope width of compiled answers.",
      {0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0});
  m_.slow_queries =
      reg.GetCounter("mrsl_slow_queries_total",
                     "Queries at or over the slow-query threshold.");
  m_.commits = reg.GetCounter("mrsl_store_commits_total",
                              "Delta commits applied through POST /update.");
  m_.wal_sync_seconds =
      reg.GetHistogram("mrsl_wal_sync_seconds",
                       "Group-commit WAL fsync latency.",
                       MetricsRegistry::DefaultLatencyBoundsSeconds());
  m_.update_group_size =
      reg.GetHistogram("mrsl_update_group_size",
                       "Deltas per group-commit batch.",
                       {1, 2, 4, 8, 16, 32, 64});
  m_.wal_live_records = reg.GetGauge(
      "mrsl_wal_live_records", "WAL records not yet covered by a snapshot.");
  m_.wal_live_bytes = reg.GetGauge(
      "mrsl_wal_live_bytes", "WAL bytes not yet covered by a snapshot.");
  m_.wal_segments =
      reg.GetGauge("mrsl_wal_segments", "WAL segment files on disk.");
  statements_.BindMetrics(
      metrics_->GetGauge("mrsl_statements_tracked",
                         "Statement digests currently tracked."),
      metrics_->GetCounter(
          "mrsl_statement_evictions_total",
          "Statement digests evicted at the capacity cap (LRU)."));
}

uint64_t StoreService::queries_served() const {
  return m_.queries == nullptr ? 0 : m_.queries->value();
}

void StoreService::ObserveQueryStages(const QueryStageTimes& stages,
                                      bool from_cache) {
  m_.stage_parse->Observe(stages.parse_seconds);
  if (!from_cache) {
    // A hit never ran these stages; observing their zeros would drown
    // the evaluate/combine distributions in cache-hit noise.
    m_.stage_evaluate->Observe(stages.evaluate_seconds);
    m_.stage_combine->Observe(stages.combine_seconds);
  }
}

void StoreService::UpdateWalGauges() {
  if (metrics_ == nullptr) return;  // not attached: programmatic use
  const WalStats stats = store_->wal_stats();
  m_.wal_live_records->Set(static_cast<double>(stats.live_records));
  m_.wal_live_bytes->Set(static_cast<double>(stats.live_bytes));
  m_.wal_segments->Set(static_cast<double>(stats.segments));
}

void StoreService::CommitUpdateGroup(
    const std::vector<std::shared_ptr<PendingUpdate>>& group) {
  // Fold the mergeable run into one combined insert commit: one epoch,
  // one re-derivation, one WAL record.
  std::vector<PendingUpdate*> merged;
  RelationDelta combined;
  for (const auto& p : group) {
    if (!p->mergeable) continue;
    merged.push_back(p.get());
    combined.inserts.insert(combined.inserts.end(), p->delta.inserts.begin(),
                            p->delta.inserts.end());
  }
  if (merged.size() > 1) {
    // The combined commit traces into the first traced member (one
    // commit, one span tree; peers still get their wal_fsync span).
    TraceSpan merged_span;
    for (PendingUpdate* p : merged) {
      if (p->span.active()) {
        merged_span = p->span;
        break;
      }
    }
    Result<CommitStats> stats = store_->ApplyDelta(combined, 0, merged_span);
    if (stats.ok()) {
      for (PendingUpdate* p : merged) p->result = stats;
    } else {
      // One poisoned delta must not fail its peers: fall back to
      // individual commits and let each delta stand on its own.
      for (PendingUpdate* p : merged) {
        p->result = store_->ApplyDelta(p->delta, 0, p->span);
      }
    }
  } else if (merged.size() == 1) {
    merged[0]->result = store_->ApplyDelta(merged[0]->delta, 0,
                                           merged[0]->span);
  }
  for (const auto& p : group) {
    if (p->mergeable) continue;
    p->result = store_->ApplyDelta(p->delta, p->expected_epoch, p->span);
  }

  // ONE fsync covers every record the group appended. Nothing above is
  // acknowledged until this returns OK. Every traced member gets its own
  // "wal_fsync" span bracketing the shared sync — the leader writing
  // into follower traces is safe (TraceContext is thread-safe), and the
  // span makes the group-commit amortization visible per request.
  std::vector<TraceSpan> fsync_spans;
  for (const auto& p : group) {
    if (p->span.active()) {
      fsync_spans.push_back(p->span.StartChild("wal_fsync"));
    }
  }
  WallTimer sync_timer;
  Status synced = store_->SyncWal();
  for (const TraceSpan& s : fsync_spans) s.End();
  if (metrics_ != nullptr) {
    m_.wal_sync_seconds->Observe(sync_timer.ElapsedSeconds());
    m_.update_group_size->Observe(static_cast<double>(group.size()));
  }
  if (!synced.ok()) {
    // A commit without its covering fsync may be lost by a crash, so no
    // entry may report success.
    LogError("wal", "group-commit fsync failed; failing the whole group",
             {{"error", synced.ToString()},
              {"group_size", static_cast<uint64_t>(group.size())}});
    for (const auto& p : group) {
      if (p->result.ok()) p->result = synced;
    }
  }
  UpdateWalGauges();
}

Result<CommitStats> StoreService::BatchedUpdate(RelationDelta delta,
                                                uint64_t expected_epoch,
                                                TraceSpan trace) {
  auto mine = std::make_shared<PendingUpdate>();
  mine->mergeable = delta.updates.empty() && delta.deletes.empty() &&
                    expected_epoch == 0;
  mine->delta = std::move(delta);
  mine->expected_epoch = expected_epoch;
  mine->span = trace;
  std::unique_lock<std::mutex> lock(update_mutex_);
  update_queue_.push_back(mine);
  // Leadership rotates per drained group: one leader commits ONE drained
  // group (fsync included), releases leadership, and returns once its
  // own entry is done. Under sustained load the next waiter leads the
  // next group, so no writer is delayed behind later arrivals.
  for (;;) {
    if (mine->done) return std::move(mine->result);
    if (update_leader_active_) {
      update_cv_.wait(lock);
      continue;
    }
    update_leader_active_ = true;
    if (options_.max_update_batch > 1 && last_update_group_ > 1) {
      // Commit window: writers released by the previous group are
      // re-submitting right now. Waiting a fraction of an fsync for the
      // queue to refill to the last group's size turns a would-be
      // singleton group into a full one — the wait is repaid many times
      // over by the per-member fsync it amortizes. A serial workload
      // never enters (its groups are singletons), so the uncontended
      // path pays nothing.
      WallTimer window;
      while (update_queue_.size() < last_update_group_ &&
             update_queue_.size() < options_.max_update_batch &&
             window.ElapsedSeconds() < 150e-6) {
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
      }
    }
    const size_t group_size =
        update_queue_.size() < options_.max_update_batch
            ? update_queue_.size()
            : options_.max_update_batch;
    std::vector<std::shared_ptr<PendingUpdate>> group(
        update_queue_.begin(), update_queue_.begin() + group_size);
    update_queue_.erase(update_queue_.begin(),
                        update_queue_.begin() + group_size);
    lock.unlock();

    CommitUpdateGroup(group);

    lock.lock();
    for (const auto& p : group) p->done = true;
    last_update_group_ = group.size();
    update_leader_active_ = false;
    update_cv_.notify_all();
  }
}

HttpResponse StoreService::HandleQuery(const HttpRequest& request) {
  WallTimer wall;
  const std::string text(Trim(request.body));
  if (text.empty()) {
    return JsonError(Status::InvalidArgument(
        "empty body; POST the plan text, e.g. count(scan)"));
  }
  // ?trace validation mirrors ?oracle: a malformed value is a 400, never
  // a silent fallback to an untraced answer.
  const std::string trace_param = request.QueryParam("trace", "");
  if (!trace_param.empty() && trace_param != "0" && trace_param != "1") {
    return JsonError(Status::InvalidArgument("?trace must be 0 or 1"));
  }
  // The server created the trace (it owns the sampling decision); the
  // explicit form additionally embeds the span tree in the body.
  const bool explicit_trace = trace_param == "1" && request.trace != nullptr;
  int64_t oracle_trials = 0;
  const std::string oracle_param = request.QueryParam("oracle", "");
  if (!oracle_param.empty() &&
      (!ParseInt(oracle_param, &oracle_trials) || oracle_trials < 0 ||
       static_cast<size_t>(oracle_trials) > options_.max_oracle_trials)) {
    return JsonError(Status::InvalidArgument(
        "?oracle must be an integer in [0, " +
        std::to_string(options_.max_oracle_trials) + "]"));
  }

  // ?width= / ?budget_ms= select the safe-plan compiler. Validation
  // mirrors ?oracle: a malformed or out-of-range value is a 400, never a
  // silent fallback to the plain evaluator.
  CompileOptions copts;
  bool with_compile = false;
  const std::string width_param = request.QueryParam("width", "");
  if (!width_param.empty()) {
    double width = 0.0;
    if (!ParseDouble(width_param, &width) || width < 0.0 || width > 1.0) {
      return JsonError(Status::InvalidArgument(
          "?width must be a bounds-width target in [0, 1]"));
    }
    copts.width_target = width;
    with_compile = true;
  }
  const std::string budget_param = request.QueryParam("budget_ms", "");
  if (!budget_param.empty()) {
    double budget_ms = 0.0;
    if (!ParseDouble(budget_param, &budget_ms) || budget_ms < 0.0 ||
        budget_ms > static_cast<double>(options_.max_compile_budget_ms)) {
      return JsonError(Status::InvalidArgument(
          "?budget_ms must be a number in [0, " +
          std::to_string(options_.max_compile_budget_ms) + "]"));
    }
    copts.budget_ms = budget_ms;
    with_compile = true;
  }

  TraceSpan qspan;
  if (request.trace != nullptr) {
    qspan = request.trace->root().StartChild("query");
  }

  // Every query pins its own snapshot on its handler thread, so
  // concurrent queries evaluate in parallel; the oracle samples the very
  // snapshot the answer came from.
  const bool with_oracle = oracle_trials > 0;
  OracleOptions oo;
  oo.trials = static_cast<size_t>(oracle_trials);
  Result<StoreQueryResult> result =
      store_->QueryOn(store_->snapshot(), text,
                      with_compile ? &copts : nullptr, qspan,
                      with_oracle ? &oo : nullptr);
  qspan.End();
  if (!result.ok()) {
    // Failed calls still count: a client hammering a broken shape shows
    // up as one error digest, not as silence. The shape is unknown
    // (parsing is what failed), so errors pool under a reserved digest.
    if (options_.track_statements) {
      StatementSample sample;
      sample.kind = "error";
      sample.normalized = "<error>";
      sample.error = true;
      sample.elapsed_seconds = wall.ElapsedSeconds();
      statements_.Record(sample);
    }
    return JsonError(result.status());
  }

  m_.queries->Increment();
  (result->from_cache ? m_.cache_hits : m_.cache_misses)->Increment();
  ObserveQueryStages(result->stages, result->from_cache);
  if (with_compile && result->eval->compiled) {
    if (!result->from_cache) {
      // Compilation IS the evaluate stage of a compiled miss.
      m_.compile_seconds->Observe(result->stages.evaluate_seconds);
    }
    m_.bounds_width->Observe(result->eval->compile_stats.mean_width_final);
  }

  HttpResponse resp;
  resp.body = RenderQueryBody(*result);
  if (explicit_trace) {
    // EXPLAIN ANALYZE: splice the query span subtree in before the
    // closing brace. Everything before this field is byte-identical to
    // the untraced body (spans never touch the evaluation or the cache).
    resp.body.erase(resp.body.size() - 2);  // "}\n"
    resp.body += ",\"trace\":{\"trace_id\":\"" +
                 request.trace->trace_id_hex() + "\",\"fingerprint\":\"" +
                 FingerprintHex(result->fingerprint) + "\",\"spans\":" +
                 SpanSubtreeJson(*request.trace, qspan.index()) + "}}\n";
  }
  resp.extra_headers.emplace_back("X-Mrsl-Epoch",
                                  std::to_string(result->epoch));
  resp.extra_headers.emplace_back("X-Mrsl-Cache",
                                  result->from_cache ? "hit" : "miss");
  if (request.trace != nullptr) {
    // The link from a response (and its /debug/slow entry) to its
    // /debug/traces record.
    resp.extra_headers.emplace_back("X-Mrsl-Trace-Id",
                                    request.trace->trace_id_hex());
  }
  if (with_compile) {
    resp.extra_headers.emplace_back(
        "X-Mrsl-Compiled",
        result->eval->compile_stats.plan_safe ? "safe" : "bounds");
  }

  const double elapsed_ms = wall.ElapsedSeconds() * 1000.0;
  if (options_.track_statements) {
    StatementSample sample;
    sample.fingerprint = result->fingerprint;
    sample.kind = QueryKindName(result->eval->kind);
    sample.normalized = result->normalized_text;
    sample.cache_hit = result->from_cache;
    sample.compiled = result->eval->compiled;
    sample.elapsed_seconds = elapsed_ms / 1000.0;
    sample.resources = result->resources;
    const PlanEvaluation& ev = *result->eval;
    switch (ev.kind) {
      case ParsedQuery::Kind::kRelation: {
        sample.rows = ev.marginals.size();
        double width_sum = 0.0;
        for (const DistinctMarginal& m : ev.marginals) {
          width_sum += m.prob.hi - m.prob.lo;
        }
        sample.width = ev.marginals.empty()
                           ? 0.0
                           : width_sum / static_cast<double>(
                                             ev.marginals.size());
        break;
      }
      case ParsedQuery::Kind::kExists:
        sample.width = ev.exists.prob.hi - ev.exists.prob.lo;
        break;
      case ParsedQuery::Kind::kCount:
        sample.width = ev.count.expected.hi - ev.count.expected.lo;
        break;
    }
    statements_.Record(sample);
  }
  if (options_.slow_query_ms >= 0.0 &&
      elapsed_ms >= options_.slow_query_ms) {
    SlowQueryEntry slow;
    slow.plan = result->canonical_text;
    slow.fingerprint = result->fingerprint;
    slow.epoch = result->epoch;
    slow.elapsed_ms = elapsed_ms;
    slow.resources = result->resources;
    if (request.trace != nullptr) {
      slow.trace_id = request.trace->trace_id_hex();
      slow.spans_json = SpanSubtreeJson(*request.trace, qspan.index());
    }
    RecordSlowQuery(std::move(slow));
  }
  return resp;
}

HttpResponse StoreService::HandleUpdate(const HttpRequest& request) {
  TraceSpan uspan;
  if (request.trace != nullptr) {
    uspan = request.trace->root().StartChild("update");
  }
  SnapshotPtr snap = store_->snapshot();
  if (snap == nullptr) {
    return JsonError(
        Status::FailedPrecondition("store has no epoch to update"));
  }
  TraceSpan parse_span = uspan.StartChild("update.parse");
  auto delta = ParseDeltaCsv(snap->base().schema(), request.body);
  parse_span.End();
  if (!delta.ok()) return JsonError(delta.status());

  // Row-indexed deltas (updates/deletes) address rows of a specific
  // epoch; applying them after another commit shifted the indices would
  // silently hit the wrong rows. Default the compare-and-swap guard to
  // the epoch this request was parsed against; a client can pin another
  // via the X-Mrsl-Epoch request header. Pure-insert deltas commute
  // across epochs and skip the guard unless the client pins one.
  uint64_t expected_epoch =
      delta->updates.empty() && delta->deletes.empty() ? 0 : snap->epoch();
  auto epoch_header = request.headers.find("x-mrsl-epoch");
  if (epoch_header != request.headers.end()) {
    int64_t claimed = 0;
    if (!ParseInt(epoch_header->second, &claimed) || claimed <= 0) {
      return JsonError(Status::InvalidArgument(
          "X-Mrsl-Epoch must be a positive integer"));
    }
    expected_epoch = static_cast<uint64_t>(claimed);
  }
  auto stats = BatchedUpdate(std::move(delta).value(), expected_epoch, uspan);
  uspan.End();
  if (!stats.ok()) return JsonError(stats.status());  // races answer 409

  m_.commits->Increment();

  std::string body =
      "{\"epoch\":" + std::to_string(stats->epoch) +
      ",\"components_total\":" + std::to_string(stats->components_total) +
      ",\"components_reinferred\":" +
      std::to_string(stats->components_reinferred) +
      ",\"tuples_total\":" + std::to_string(stats->tuples_total) +
      ",\"tuples_reinferred\":" + std::to_string(stats->tuples_reinferred) +
      ",\"blocks_total\":" + std::to_string(stats->blocks_total) +
      ",\"blocks_reused\":" + std::to_string(stats->blocks_reused) +
      ",\"index_stable\":" + (stats->index_stable ? "true" : "false") +
      ",\"points_sampled\":" +
      std::to_string(stats->inference.points_sampled) + ",\"wall_seconds\":";
  AppendNum(&body, stats->wall_seconds);
  body += "}\n";

  HttpResponse resp;
  resp.body = std::move(body);
  resp.extra_headers.emplace_back("X-Mrsl-Epoch",
                                  std::to_string(stats->epoch));
  return resp;
}

HttpResponse StoreService::HandleSnapshot(const HttpRequest&) {
  uint64_t epoch = 0;
  auto bytes = store_->SerializeCurrentSnapshot(&epoch);
  if (!bytes.ok()) return JsonError(bytes.status());
  HttpResponse resp;
  resp.content_type = "application/octet-stream";
  resp.body = std::move(bytes).value();
  resp.extra_headers.emplace_back("X-Mrsl-Epoch", std::to_string(epoch));
  return resp;
}

HttpResponse StoreService::HandleHealthz(const HttpRequest&) {
  HttpResponse resp;
  resp.body = "{\"status\":\"ok\",\"epoch\":" +
              std::to_string(store_->epoch()) + ",\"version\":\"" +
              MRSL_VERSION_STRING + "\",\"uptime_seconds\":";
  AppendNum(&resp.body, ProcessUptimeSeconds());
  resp.body += ",\"start_time_unix_seconds\":";
  AppendNum(&resp.body, ProcessStartUnixSeconds());
  resp.body += "}\n";
  return resp;
}

HttpResponse StoreService::HandleMetrics(const HttpRequest&) {
  // Refresh the point-in-time gauges the scrape is about to read.
  m_.uptime->Set(ProcessUptimeSeconds());
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = metrics_->RenderPrometheus();
  return resp;
}

HttpResponse StoreService::HandleDebugTraces(const HttpRequest& request) {
  const std::string format = request.QueryParam("format", "json");
  if (format != "json" && format != "chrome") {
    return JsonError(
        Status::InvalidArgument("?format must be json or chrome"));
  }
  int64_t limit = 0;
  const std::string limit_param = request.QueryParam("limit", "");
  if (!limit_param.empty() && (!ParseInt(limit_param, &limit) || limit < 0)) {
    return JsonError(
        Status::InvalidArgument("?limit must be a non-negative integer"));
  }
  const std::vector<std::shared_ptr<const TraceContext>> traces =
      TraceStore::Global().Recent(static_cast<size_t>(limit));
  HttpResponse resp;
  resp.body =
      format == "chrome" ? TracesChromeJson(traces) : TracesJson(traces);
  return resp;
}

void StoreService::RecordSlowQuery(SlowQueryEntry entry) {
  SlowQueryEntry logged;
  logged.plan = entry.plan;
  logged.fingerprint = entry.fingerprint;
  logged.elapsed_ms = entry.elapsed_ms;
  logged.epoch = entry.epoch;
  logged.trace_id = entry.trace_id;
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    if (slow_ring_.size() < kSlowRingCapacity) {
      slow_ring_.push_back(std::move(entry));
    } else {
      slow_ring_[slow_next_] = std::move(entry);
      slow_next_ = (slow_next_ + 1) % kSlowRingCapacity;
    }
    ++slow_recorded_;
  }
  if (metrics_ != nullptr) m_.slow_queries->Increment();
  LogWarn("query", "slow query",
          {{"plan", logged.plan},
           {"fingerprint", FingerprintHex(logged.fingerprint)},
           {"elapsed_ms", logged.elapsed_ms},
           {"epoch", logged.epoch},
           {"trace_id", logged.trace_id}});
}

HttpResponse StoreService::HandleDebugSlow(const HttpRequest&) {
  std::vector<SlowQueryEntry> entries;
  uint64_t recorded = 0;
  {
    std::lock_guard<std::mutex> lock(slow_mutex_);
    entries.reserve(slow_ring_.size());
    const size_t start =
        slow_ring_.size() < kSlowRingCapacity ? 0 : slow_next_;
    for (size_t i = 0; i < slow_ring_.size(); ++i) {
      entries.push_back(slow_ring_[(start + i) % slow_ring_.size()]);
    }
    recorded = slow_recorded_;
  }
  std::string body = "{\"threshold_ms\":";
  AppendNum(&body, options_.slow_query_ms);
  body += ",\"recorded\":" + std::to_string(recorded) + ",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& e = entries[i];
    if (i > 0) body += ",";
    body += "{\"trace_id\":\"" + e.trace_id + "\",\"fingerprint\":\"" +
            FingerprintHex(e.fingerprint) + "\",\"plan\":\"" +
            JsonEscape(e.plan) + "\",\"elapsed_ms\":";
    AppendNum(&body, e.elapsed_ms);
    body += ",\"epoch\":" + std::to_string(e.epoch) + ",\"resources\":{" +
            "\"peak_batch_bytes\":" +
            std::to_string(e.resources.peak_batch_bytes) +
            ",\"peak_lineage_bytes\":" +
            std::to_string(e.resources.peak_lineage_bytes) +
            ",\"lineage_events\":" +
            std::to_string(e.resources.lineage_events) +
            ",\"worlds_sampled\":" +
            std::to_string(e.resources.worlds_sampled) + "},\"spans\":";
    body += e.spans_json.empty() ? "null" : e.spans_json;
    body += "}";
  }
  body += "]}\n";
  HttpResponse resp;
  resp.body = std::move(body);
  return resp;
}

HttpResponse StoreService::HandleDebugStatements(const HttpRequest& request) {
  const std::string sort = request.QueryParam("sort", "total_time");
  if (sort != "total_time" && sort != "calls" && sort != "p99" &&
      sort != "width") {
    return JsonError(Status::InvalidArgument(
        "?sort must be total_time, calls, p99, or width"));
  }
  const std::string format = request.QueryParam("format", "json");
  if (format != "json" && format != "tsv") {
    return JsonError(Status::InvalidArgument("?format must be json or tsv"));
  }
  int64_t limit = 0;
  const std::string limit_param = request.QueryParam("limit", "");
  if (!limit_param.empty() && (!ParseInt(limit_param, &limit) || limit < 0)) {
    return JsonError(
        Status::InvalidArgument("?limit must be a non-negative integer"));
  }

  std::vector<StatementDigest> digests = statements_.Snapshot();
  auto sort_key = [&sort](const StatementDigest& d) {
    if (sort == "calls") return static_cast<double>(d.calls);
    if (sort == "p99") return d.p99_seconds;
    if (sort == "width") return d.max_width;
    return d.total_seconds;
  };
  // Descending by the sort key; (fingerprint, kind) breaks ties so the
  // listing is stable across scrapes.
  std::sort(digests.begin(), digests.end(),
            [&sort_key](const StatementDigest& a, const StatementDigest& b) {
              const double ka = sort_key(a);
              const double kb = sort_key(b);
              if (ka != kb) return ka > kb;
              if (a.fingerprint != b.fingerprint) {
                return a.fingerprint < b.fingerprint;
              }
              return a.kind < b.kind;
            });
  const size_t tracked = digests.size();
  if (limit > 0 && digests.size() > static_cast<size_t>(limit)) {
    digests.resize(static_cast<size_t>(limit));
  }

  HttpResponse resp;
  if (format == "tsv") {
    // The `mrsl top` feed: one header line, one row per digest, tabs
    // only between columns (normalized text goes last — it contains
    // spaces but never tabs).
    std::string body =
        "fingerprint\tkind\tcalls\terrors\tcache_hits\tcache_misses"
        "\tcompiled\ttotal_ms\tmean_ms\tp50_ms\tp99_ms\tmax_ms\trows"
        "\tmean_width\tpeak_batch_bytes\tpeak_lineage_bytes"
        "\tlineage_events\tworlds\tnormalized\n";
    for (const StatementDigest& d : digests) {
      const double calls = static_cast<double>(d.calls);
      body += FingerprintHex(d.fingerprint) + "\t" + d.kind + "\t" +
              std::to_string(d.calls) + "\t" + std::to_string(d.errors) +
              "\t" + std::to_string(d.cache_hits) + "\t" +
              std::to_string(d.cache_misses) + "\t" +
              std::to_string(d.compiled_calls) + "\t";
      AppendNum(&body, d.total_seconds * 1000.0);
      body += "\t";
      AppendNum(&body, d.calls == 0 ? 0.0 : d.total_seconds * 1000.0 / calls);
      body += "\t";
      AppendNum(&body, d.p50_seconds * 1000.0);
      body += "\t";
      AppendNum(&body, d.p99_seconds * 1000.0);
      body += "\t";
      AppendNum(&body, d.max_seconds * 1000.0);
      body += "\t" + std::to_string(d.total_rows) + "\t";
      AppendNum(&body, d.calls == 0 ? 0.0 : d.total_width / calls);
      body += "\t" + std::to_string(d.peak_batch_bytes) + "\t" +
              std::to_string(d.peak_lineage_bytes) + "\t" +
              std::to_string(d.lineage_events) + "\t" +
              std::to_string(d.worlds_sampled) + "\t" + d.normalized +
              "\n";
    }
    resp.content_type = "text/tab-separated-values";
    resp.body = std::move(body);
    return resp;
  }

  std::string body = "{\"tracked\":" + std::to_string(tracked) +
                     ",\"evictions\":" +
                     std::to_string(statements_.evictions()) +
                     ",\"sort\":\"" + sort + "\",\"statements\":[";
  for (size_t i = 0; i < digests.size(); ++i) {
    const StatementDigest& d = digests[i];
    const double calls = static_cast<double>(d.calls);
    if (i > 0) body += ",";
    body += "{\"fingerprint\":\"" + FingerprintHex(d.fingerprint) +
            "\",\"kind\":\"" + JsonEscape(d.kind) +
            "\",\"normalized\":\"" + JsonEscape(d.normalized) +
            "\",\"calls\":" + std::to_string(d.calls) +
            ",\"errors\":" + std::to_string(d.errors) +
            ",\"cache_hits\":" + std::to_string(d.cache_hits) +
            ",\"cache_misses\":" + std::to_string(d.cache_misses) +
            ",\"compiled_calls\":" + std::to_string(d.compiled_calls) +
            ",\"total_seconds\":";
    AppendNum(&body, d.total_seconds);
    body += ",\"mean_seconds\":";
    AppendNum(&body, d.calls == 0 ? 0.0 : d.total_seconds / calls);
    body += ",\"p50_seconds\":";
    AppendNum(&body, d.p50_seconds);
    body += ",\"p99_seconds\":";
    AppendNum(&body, d.p99_seconds);
    body += ",\"max_seconds\":";
    AppendNum(&body, d.max_seconds);
    body += ",\"total_rows\":" + std::to_string(d.total_rows) +
            ",\"mean_width\":";
    AppendNum(&body, d.calls == 0 ? 0.0 : d.total_width / calls);
    body += ",\"max_width\":";
    AppendNum(&body, d.max_width);
    body += ",\"peak_batch_bytes\":" + std::to_string(d.peak_batch_bytes) +
            ",\"peak_lineage_bytes\":" +
            std::to_string(d.peak_lineage_bytes) +
            ",\"lineage_events\":" + std::to_string(d.lineage_events) +
            ",\"worlds_sampled\":" + std::to_string(d.worlds_sampled) +
            "}";
  }
  body += "]}\n";
  resp.body = std::move(body);
  return resp;
}

HttpResponse StoreService::HandleDebugStatementsReset(const HttpRequest&) {
  const size_t dropped = statements_.Reset();
  HttpResponse resp;
  resp.body =
      "{\"reset\":true,\"dropped\":" + std::to_string(dropped) + "}\n";
  return resp;
}

}  // namespace mrsl
