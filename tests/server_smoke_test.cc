// End-to-end smoke test of the serving subsystem over real loopback
// sockets: the full endpoint surface, byte-identity of HTTP answers
// with the in-process (CLI) query path, and the whole-epoch guarantee —
// a /query racing an /update commit returns a body byte-identical to
// either the pre- or post-commit epoch, never a mix (the store-label
// race tests, extended through the server).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bn/bayes_net.h"
#include "core/learner.h"
#include "pdb/snapshot_io.h"
#include "pdb/store.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "util/csv.h"
#include "util/trace.h"
#include "util/version.h"

namespace mrsl {
namespace {

Tuple T(std::vector<int> vals) {
  Tuple t(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    t.set_value(static_cast<AttrId>(i), vals[i]);
  }
  return t;
}

class ServerSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    bn_ = BayesNet::RandomInstance(Topology::Crown(4, 3), &rng);
    Relation train = bn_.SampleRelation(6000, &rng);
    schema_ = train.schema();
    LearnOptions lo;
    lo.support_threshold = 0.002;
    auto model = LearnModel(train, lo);
    ASSERT_TRUE(model.ok());
    model_ = std::move(model).value();

    engine_ = std::make_unique<Engine>(&model_);
    StoreOptions so;
    so.workload.gibbs.samples = 120;
    so.workload.gibbs.burn_in = 20;
    so.workload.gibbs.seed = 4242;
    store_ = std::make_unique<BidStore>(engine_.get(), so);
    ASSERT_TRUE(store_->Commit(BaseRelation()).ok());

    service_ = std::make_unique<StoreService>(store_.get());
    server_ = std::make_unique<HttpServer>();
    service_->Attach(server_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  // The StoreTest fixture relation: three subsumption components plus
  // three complete rows.
  Relation BaseRelation() {
    Relation rel(schema_);
    EXPECT_TRUE(rel.Append(T({0, 1, 2, 0})).ok());
    EXPECT_TRUE(rel.Append(T({0, 0, -1, -1})).ok());
    EXPECT_TRUE(rel.Append(T({0, 0, 1, -1})).ok());
    EXPECT_TRUE(rel.Append(T({1, 0, 2, 1})).ok());
    EXPECT_TRUE(rel.Append(T({1, 1, -1, -1})).ok());
    EXPECT_TRUE(rel.Append(T({2, 2, 0, -1})).ok());
    EXPECT_TRUE(rel.Append(T({2, 2, -1, 0})).ok());
    EXPECT_TRUE(rel.Append(T({2, 2, -1, -1})).ok());
    EXPECT_TRUE(rel.Append(T({2, 0, 1, 1})).ok());
    return rel;
  }

  // A plan that reads real probability mass: count rows with attr0 = 0.
  std::string CountPlan() {
    return "count(select(" + schema_.attr(0).name() + "=" +
           schema_.attr(0).label(0) + "; scan))";
  }

  // Delta CSV inserting the singleton component (1, 2, ?, ?).
  std::string InsertDeltaCsv() {
    std::string csv = "op,row";
    for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
      csv += "," + schema_.attr(a).name();
    }
    csv += "\ninsert,," + schema_.attr(0).label(1) + "," +
           schema_.attr(1).label(2) + ",?,?\n";
    return csv;
  }

  Result<HttpResponseMessage> Call(const std::string& method,
                                   const std::string& target,
                                   const std::string& body = "") {
    HttpClient client;
    MRSL_RETURN_IF_ERROR(client.Connect("127.0.0.1", server_->port()));
    return client.RoundTrip(method, target, body);
  }

  BayesNet bn_;
  Schema schema_;
  MrslModel model_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<BidStore> store_;
  std::unique_ptr<StoreService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerSmokeTest, HealthzReportsTheEpochVersionAndUptime) {
  auto resp = Call("GET", "/healthz");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  // The fixed prefix is exact; uptime/start-time are clock readings.
  EXPECT_EQ(resp->body.rfind("{\"status\":\"ok\",\"epoch\":1,\"version\":\""
                             MRSL_VERSION_STRING
                             "\",\"uptime_seconds\":",
                             0),
            0u)
      << resp->body;
  EXPECT_NE(resp->body.find("\"start_time_unix_seconds\":"),
            std::string::npos);
}

TEST_F(ServerSmokeTest, QueryAnswersMatchTheInProcessPath) {
  auto resp = Call("POST", "/query", CountPlan());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, 200);
  EXPECT_EQ(resp->Header("x-mrsl-cache", ""), "miss");
  EXPECT_EQ(resp->Header("x-mrsl-epoch", ""), "1");

  // The in-process evaluation (the CLI path) must agree bit for bit:
  // the body embeds %.17g renderings of the same doubles.
  auto direct = store_->Query(CountPlan());
  ASSERT_TRUE(direct.ok());
  char lo[64];
  std::snprintf(lo, sizeof(lo), "%.17g",
                direct->eval->count.expected.lo);
  EXPECT_NE(resp->body.find(std::string("\"count\":{\"lo\":") + lo),
            std::string::npos)
      << resp->body;

  // Same plan again: a cache hit with a byte-identical body.
  auto again = Call("POST", "/query", CountPlan());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Header("x-mrsl-cache", ""), "hit");
  EXPECT_EQ(again->body, resp->body);
}

TEST_F(ServerSmokeTest, RelationAndExistsAndOracleKinds) {
  const std::string select_plan = "select(" + schema_.attr(0).name() + "=" +
                                  schema_.attr(0).label(0) + "; scan)";
  auto rows = Call("POST", "/query", select_plan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->status, 200);
  EXPECT_NE(rows->body.find("\"kind\":\"relation\""), std::string::npos);
  EXPECT_NE(rows->body.find("\"rows\":["), std::string::npos);
  EXPECT_NE(rows->body.find("\"values\":[\"" + schema_.attr(0).label(0)),
            std::string::npos);

  auto exists = Call("POST", "/query", "exists(" + select_plan + ")");
  ASSERT_TRUE(exists.ok());
  EXPECT_NE(exists->body.find("\"kind\":\"exists\""), std::string::npos);

  auto oracle =
      Call("POST", "/query?oracle=2000", "exists(" + select_plan + ")");
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->status, 200);
  EXPECT_NE(oracle->body.find("\"oracle\":{\"trials\":2000"),
            std::string::npos);

  // Deterministic oracle: identical request, identical body.
  auto oracle2 =
      Call("POST", "/query?oracle=2000", "exists(" + select_plan + ")");
  ASSERT_TRUE(oracle2.ok());
  EXPECT_EQ(oracle2->body, oracle->body);
}

TEST_F(ServerSmokeTest, CompiledQueriesCarryEnvelopeAndCacheApart) {
  // Self-join on the incomplete attr2: correlated lineage, so the
  // compiler actually has something to refine.
  const std::string a2 = schema_.attr(2).name();
  const std::string plan = "project(" + schema_.attr(1).name() +
                           "; join(scan; scan; " + a2 + "=" + a2 + "))";

  auto compiled = Call("POST", "/query?width=0", plan);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->status, 200);
  EXPECT_EQ(compiled->Header("x-mrsl-cache", ""), "miss");
  EXPECT_FALSE(compiled->Header("x-mrsl-compiled", "").empty());
  EXPECT_NE(compiled->body.find("\"compile\":{"), std::string::npos);
  EXPECT_NE(compiled->body.find("\"mean_width_final\":"),
            std::string::npos);
  // compile wall time is a metric, never part of the (cacheable) body.
  EXPECT_EQ(compiled->body.find("compile_seconds"), std::string::npos);

  // Identical configuration: cache hit, byte-identical body.
  auto hit = Call("POST", "/query?width=0", plan);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->Header("x-mrsl-cache", ""), "hit");
  EXPECT_EQ(hit->body, compiled->body);

  // A different width target is a different cache entry...
  auto other_width = Call("POST", "/query?width=0.5", plan);
  ASSERT_TRUE(other_width.ok());
  ASSERT_EQ(other_width->status, 200);
  EXPECT_EQ(other_width->Header("x-mrsl-cache", ""), "miss");

  // ...and the plain evaluator neither serves nor is served a compiled
  // envelope.
  auto plain = Call("POST", "/query", plan);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  EXPECT_EQ(plain->Header("x-mrsl-cache", ""), "miss");
  EXPECT_TRUE(plain->Header("x-mrsl-compiled", "").empty());
  EXPECT_EQ(plain->body.find("\"compile\":{"), std::string::npos);

  // A safe plan compiles to a point answer and says so in the header.
  auto safe = Call("POST", "/query?width=0", "count(scan)");
  ASSERT_TRUE(safe.ok());
  ASSERT_EQ(safe->status, 200);
  EXPECT_EQ(safe->Header("x-mrsl-compiled", ""), "safe");

  // The compile metrics are exported.
  auto metrics = Call("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("mrsl_compile_seconds"), std::string::npos);
  EXPECT_NE(metrics->body.find("mrsl_bounds_width"), std::string::npos);
}

TEST_F(ServerSmokeTest, BadRequestsGetCleanJsonErrors) {
  auto empty = Call("POST", "/query", "   ");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status, 400);
  auto bad_plan = Call("POST", "/query", "frobnicate(scan)");
  ASSERT_TRUE(bad_plan.ok());
  EXPECT_EQ(bad_plan->status, 400);
  EXPECT_NE(bad_plan->body.find("\"error\""), std::string::npos);
  auto bad_oracle = Call("POST", "/query?oracle=-5", "count(scan)");
  ASSERT_TRUE(bad_oracle.ok());
  EXPECT_EQ(bad_oracle->status, 400);
  auto bad_width = Call("POST", "/query?width=2", "count(scan)");
  ASSERT_TRUE(bad_width.ok());
  EXPECT_EQ(bad_width->status, 400);
  auto bad_budget = Call("POST", "/query?budget_ms=junk", "count(scan)");
  ASSERT_TRUE(bad_budget.ok());
  EXPECT_EQ(bad_budget->status, 400);
  auto bad_trace = Call("POST", "/query?trace=2", "count(scan)");
  ASSERT_TRUE(bad_trace.ok());
  EXPECT_EQ(bad_trace->status, 400);
  auto bad_delta = Call("POST", "/update", "not,a,delta\n");
  ASSERT_TRUE(bad_delta.ok());
  EXPECT_EQ(bad_delta->status, 400);
}

TEST_F(ServerSmokeTest, UpdateCommitsAndInvalidatesQueries) {
  auto before = Call("POST", "/query", CountPlan());
  ASSERT_TRUE(before.ok());

  auto update = Call("POST", "/update", InsertDeltaCsv());
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  ASSERT_EQ(update->status, 200) << update->body;
  EXPECT_NE(update->body.find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(update->body.find("\"components_reinferred\":1"),
            std::string::npos);
  EXPECT_EQ(update->Header("x-mrsl-epoch", ""), "2");

  auto after = Call("POST", "/query", CountPlan());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Header("x-mrsl-epoch", ""), "2");
  // The inserted row has attr0 = label(1): the count of attr0 = label(0)
  // rows is unchanged, and the entry may even have carried forward — but
  // the epoch stamp in the body must move.
  EXPECT_NE(after->body.find("\"epoch\":2"), std::string::npos);
}

// Concurrent index-addressed updates can't silently hit shifted rows:
// the loser of an epoch race gets 409, not a wrong-row mutation.
TEST_F(ServerSmokeTest, StaleRowAddressedUpdateAnswers409) {
  // A delete delta is row-addressed, so it defaults to a CAS on the
  // epoch it was parsed against. Pin epoch 1 explicitly, commit an
  // insert in between, then watch the stale delete bounce.
  std::string delete_csv = "op,row";
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    delete_csv += "," + schema_.attr(a).name();
  }
  delete_csv += "\ndelete,8,,,,\n";

  ASSERT_EQ(Call("POST", "/update", InsertDeltaCsv())->status, 200);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto stale = client.RoundTrip("POST", "/update", delete_csv,
                                "text/csv", {{"X-Mrsl-Epoch", "1"}});
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->status, 409);
  EXPECT_NE(stale->body.find("re-read"), std::string::npos);
  EXPECT_EQ(store_->epoch(), 2u);  // nothing applied

  // Addressed against the current epoch it applies.
  auto fresh = client.RoundTrip("POST", "/update", delete_csv,
                                "text/csv", {{"X-Mrsl-Epoch", "2"}});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->status, 200) << fresh->body;
  EXPECT_EQ(store_->epoch(), 3u);

  // Pure inserts commute and need no pin even across epochs.
  auto insert = client.RoundTrip("POST", "/update", InsertDeltaCsv(),
                                 "text/csv");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->status, 200) << insert->body;
}

TEST_F(ServerSmokeTest, SnapshotEndpointServesLoadableBytes) {
  auto resp = Call("GET", "/snapshot");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  EXPECT_EQ(resp->Header("content-type", ""), "application/octet-stream");
  auto image = DeserializeSnapshot(resp->body);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->epoch, 1u);
  EXPECT_EQ(image->base.num_rows(), 9u);

  // The served bytes restore a store that answers identically.
  Engine engine2(&model_);
  BidStore restored(&engine2, StoreOptions());
  const std::string path = ::testing::TempDir() + "/served_snapshot.bin";
  ASSERT_TRUE(WriteFile(path, resp->body).ok());
  ASSERT_TRUE(restored.Restore(path).ok());
  auto a = store_->Query(CountPlan());
  auto b = restored.Query(CountPlan());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->eval->count.expected.lo, b->eval->count.expected.lo);
  EXPECT_EQ(a->eval->count.expected.hi, b->eval->count.expected.hi);
  std::remove(path.c_str());
}

TEST_F(ServerSmokeTest, MetricsExposePerEndpointSeries) {
  ASSERT_TRUE(Call("POST", "/query", CountPlan()).ok());
  ASSERT_TRUE(Call("POST", "/query", CountPlan()).ok());
  ASSERT_TRUE(Call("GET", "/healthz").ok());
  auto metrics = Call("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  const std::string& text = metrics->body;
  EXPECT_NE(text.find("mrsl_http_requests_total{endpoint=\"/query\","
                      "method=\"POST\",code=\"200\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mrsl_http_request_seconds_bucket{"
                      "endpoint=\"/query\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("mrsl_query_cache_total{result=\"hit\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mrsl_query_cache_total{result=\"miss\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mrsl_build_info{version=\"" MRSL_VERSION_STRING
                      "\"} 1"),
            std::string::npos);
  EXPECT_EQ(service_->queries_served(), 2u);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE and the /debug introspection surface.
// ---------------------------------------------------------------------------

// Finds a recorded trace in the process-wide ring by its hex id.
std::shared_ptr<const TraceContext> FindTrace(const std::string& id_hex) {
  for (const auto& t : TraceStore::Global().Recent()) {
    if (t->trace_id_hex() == id_hex) return t;
  }
  return nullptr;
}

// The span-tree invariant the EXPLAIN-ANALYZE body stands on: at every
// node of a sequential span tree, child durations sum to at most the
// parent's duration.
void ExpectChildDurationsNested(const std::vector<TraceSpanData>& spans) {
  std::vector<uint64_t> child_sum(spans.size(), 0);
  for (size_t i = 1; i < spans.size(); ++i) {
    ASSERT_LT(spans[i].parent, spans.size());
    child_sum[spans[i].parent] += spans[i].duration_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LE(child_sum[i], spans[i].duration_ns)
        << "children of '" << spans[i].name << "' overrun their parent";
  }
}

TEST_F(ServerSmokeTest, TraceReturnsSpanTreeCoveringTheQueryPath) {
  TraceStore::Global().Clear();
  // The correlated self-join: evaluation has real operator structure.
  const std::string a2 = schema_.attr(2).name();
  const std::string plan = "project(" + schema_.attr(1).name() +
                           "; join(scan; scan; " + a2 + "=" + a2 + "))";

  // Traced first (a cache miss, so the tree covers the full pipeline).
  auto traced = Call("POST", "/query?trace=1", plan);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->status, 200) << traced->body;
  const std::string id = traced->Header("x-mrsl-trace-id", "");
  ASSERT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);

  // The body carries the EXPLAIN-ANALYZE tree: parse -> evaluate (with
  // per-operator children) -> combine under the "query" span.
  EXPECT_NE(traced->body.find("\"trace\":{\"trace_id\":\"" + id + "\""),
            std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"evaluate\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"combine\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"op."), std::string::npos);
  EXPECT_NE(traced->body.find("\"rows_out\""), std::string::npos);

  // Byte-identity: the untraced answer (a cache hit on the same plan)
  // is exactly the traced body minus the trace object.
  auto plain = Call("POST", "/query", plan);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  EXPECT_EQ(plain->Header("x-mrsl-cache", ""), "hit");
  EXPECT_TRUE(plain->Header("x-mrsl-trace-id", "").empty());
  EXPECT_EQ(plain->body.find("\"trace\""), std::string::npos);
  ASSERT_GE(plain->body.size(), 2u);
  const std::string shared_prefix =
      plain->body.substr(0, plain->body.size() - 2);  // minus "}\n"
  EXPECT_EQ(traced->body.compare(0, shared_prefix.size(), shared_prefix),
            0);
  EXPECT_EQ(traced->body.substr(shared_prefix.size(), 10), ",\"trace\":{");

  // The recorded trace satisfies the nesting invariant the acceptance
  // criterion pins: child durations sum to <= the parent at every node.
  auto recorded = FindTrace(id);
  ASSERT_NE(recorded, nullptr) << "forced trace not in the global ring";
  ExpectChildDurationsNested(recorded->Snapshot());
}

TEST_F(ServerSmokeTest, TraceCoversCompilePhasesWhenWidthIsSet) {
  TraceStore::Global().Clear();
  const std::string a2 = schema_.attr(2).name();
  const std::string plan = "project(" + schema_.attr(1).name() +
                           "; join(scan; scan; " + a2 + "=" + a2 + "))";
  auto traced = Call("POST", "/query?width=0&trace=1", plan);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->status, 200) << traced->body;
  // The compiled pipeline replaces the plain evaluator inside the
  // "evaluate" span: phase 1 (extensional base), phase 2 (lattice
  // refinement of the unsafe shape), then the combine stage.
  EXPECT_NE(traced->body.find("\"name\":\"evaluate\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"phase1\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"phase2\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"name\":\"combine\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"candidates\""), std::string::npos);

  const std::string id = traced->Header("x-mrsl-trace-id", "");
  auto recorded = FindTrace(id);
  ASSERT_NE(recorded, nullptr);
  ExpectChildDurationsNested(recorded->Snapshot());
}

TEST_F(ServerSmokeTest, DebugTracesServesTheRingInBothFormats) {
  TraceStore::Global().Clear();
  ASSERT_EQ(Call("POST", "/query?trace=1", CountPlan())->status, 200);
  ASSERT_EQ(Call("POST", "/update?trace=1", InsertDeltaCsv())->status, 200);

  auto traces = Call("GET", "/debug/traces");
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->status, 200);
  EXPECT_EQ(traces->body.rfind("{\"count\":2,\"traces\":[", 0), 0u);
  EXPECT_NE(traces->body.find("\"name\":\"POST /query\""),
            std::string::npos);
  EXPECT_NE(traces->body.find("\"name\":\"POST /update\""),
            std::string::npos);
  // The update trace covers the commit pipeline.
  EXPECT_NE(traces->body.find("\"name\":\"infer\""), std::string::npos);
  EXPECT_NE(traces->body.find("\"name\":\"publish\""), std::string::npos);

  auto limited = Call("GET", "/debug/traces?limit=1");
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->status, 200);
  EXPECT_EQ(limited->body.rfind("{\"count\":1,", 0), 0u);

  auto chrome = Call("GET", "/debug/traces?format=chrome");
  ASSERT_TRUE(chrome.ok());
  ASSERT_EQ(chrome->status, 200);
  EXPECT_EQ(chrome->body.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome->body.find("\"ph\":\"X\""), std::string::npos);

  EXPECT_EQ(Call("GET", "/debug/traces?format=waterfall")->status, 400);
  EXPECT_EQ(Call("GET", "/debug/traces?limit=junk")->status, 400);
}

TEST_F(ServerSmokeTest, DebugSlowLogsQueriesAboveTheThreshold) {
  // A second service over the same store with the threshold at 0 (log
  // everything); the fixture's default-250ms service would need a
  // genuinely slow query.
  StoreServiceOptions opts;
  opts.slow_query_ms = 0.0;
  StoreService slow_service(store_.get(), opts);
  HttpServer slow_server;
  slow_service.Attach(&slow_server);
  ASSERT_TRUE(slow_server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", slow_server.port()).ok());
  ASSERT_EQ(client.RoundTrip("POST", "/query?trace=1", CountPlan())->status,
            200);
  auto slow = client.RoundTrip("GET", "/debug/slow");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->status, 200);
  EXPECT_EQ(slow->body.rfind("{\"threshold_ms\":0,", 0), 0u) << slow->body;
  EXPECT_NE(slow->body.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(slow->body.find("\"plan\":\""), std::string::npos);
  EXPECT_NE(slow->body.find("\"elapsed_ms\":"), std::string::npos);
  // Each entry links to its statement digest and carries the
  // evaluator's resource accounting.
  EXPECT_NE(slow->body.find("\"fingerprint\":\""), std::string::npos);
  EXPECT_NE(slow->body.find("\"resources\":{\"peak_batch_bytes\":"),
            std::string::npos);
  // The request was traced, so the entry carries its span tree.
  EXPECT_NE(slow->body.find("\"spans\":{\"name\":\"query\""),
            std::string::npos);

  // An ?oracle request's entry counts its trials, as its statement
  // digest does (the plain count plan itself samples no worlds).
  ASSERT_EQ(client.RoundTrip("POST", "/query?oracle=123", CountPlan())->status,
            200);
  slow = client.RoundTrip("GET", "/debug/slow");
  ASSERT_TRUE(slow.ok());
  EXPECT_NE(slow->body.find("\"recorded\":2"), std::string::npos)
      << slow->body;
  const size_t second = slow->body.rfind("{\"trace_id\":");
  ASSERT_NE(second, std::string::npos) << slow->body;
  EXPECT_NE(slow->body.find("\"worlds_sampled\":123}", second),
            std::string::npos)
      << slow->body;

  // The fixture's own service (threshold 250ms) logged nothing for the
  // fast cached queries above.
  auto fast = Call("GET", "/debug/slow");
  ASSERT_TRUE(fast.ok());
  EXPECT_NE(fast->body.find("\"recorded\":0"), std::string::npos);
  slow_server.Stop();
}

TEST_F(ServerSmokeTest, StatementsCollapseLiteralVariantsIntoOneDigest) {
  // Three calls of one shape — two distinct literals plus one repeat
  // (a plan-cache hit) — must fold into ONE digest with exact counts.
  const std::string attr = schema_.attr(0).name();
  const std::string q0 =
      "count(select(" + attr + "=" + schema_.attr(0).label(0) + "; scan))";
  const std::string q1 =
      "count(select(" + attr + "=" + schema_.attr(0).label(1) + "; scan))";
  ASSERT_EQ(Call("POST", "/query", q0)->status, 200);
  ASSERT_EQ(Call("POST", "/query", q1)->status, 200);
  ASSERT_EQ(Call("POST", "/query", q0)->status, 200);  // cache hit

  auto resp = Call("GET", "/debug/statements");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"tracked\":1"), std::string::npos)
      << resp->body;
  EXPECT_NE(resp->body.find("\"kind\":\"count\""), std::string::npos);
  EXPECT_NE(resp->body.find("\"calls\":3"), std::string::npos);
  EXPECT_NE(resp->body.find("\"cache_hits\":1"), std::string::npos);
  EXPECT_NE(resp->body.find("\"cache_misses\":2"), std::string::npos);
  // The digest text is the placeholder shape, not any literal.
  EXPECT_NE(resp->body.find(attr + "=?; scan(0)"), std::string::npos);
  EXPECT_EQ(resp->body.find(schema_.attr(0).label(0)), std::string::npos);

  // Aggregates are monotone: one more call, same digest.
  ASSERT_EQ(Call("POST", "/query", q1)->status, 200);
  auto again = Call("GET", "/debug/statements");
  EXPECT_NE(again->body.find("\"calls\":4"), std::string::npos);
  EXPECT_NE(again->body.find("\"cache_hits\":2"), std::string::npos);
}

TEST_F(ServerSmokeTest, StatementsValidateSortFormatAndLimit) {
  ASSERT_EQ(Call("POST", "/query", CountPlan())->status, 200);
  ASSERT_EQ(Call("POST", "/query", "exists(scan)")->status, 200);

  EXPECT_EQ(Call("GET", "/debug/statements?sort=nope")->status, 400);
  EXPECT_EQ(Call("GET", "/debug/statements?format=xml")->status, 400);
  EXPECT_EQ(Call("GET", "/debug/statements?limit=-1")->status, 400);
  EXPECT_EQ(Call("GET", "/debug/statements?limit=abc")->status, 400);

  // TSV is the `mrsl top` feed: header first, one row per digest.
  auto tsv = Call("GET", "/debug/statements?format=tsv");
  ASSERT_EQ(tsv->status, 200);
  EXPECT_NE(tsv->Header("content-type", "").find("tab-separated"),
            std::string::npos);
  EXPECT_EQ(tsv->body.rfind("fingerprint\tkind\tcalls", 0), 0u);

  // ?limit truncates the listing but reports the full tracked count.
  auto limited = Call("GET", "/debug/statements?limit=1");
  ASSERT_EQ(limited->status, 200);
  EXPECT_NE(limited->body.find("\"tracked\":2"), std::string::npos);
  size_t first = limited->body.find("\"fingerprint\":");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(limited->body.find("\"fingerprint\":", first + 1),
            std::string::npos);

  // sort=calls puts the busier digest first.
  ASSERT_EQ(Call("POST", "/query", CountPlan())->status, 200);
  auto by_calls = Call("GET", "/debug/statements?sort=calls");
  ASSERT_EQ(by_calls->status, 200);
  size_t count_pos = by_calls->body.find("\"kind\":\"count\"");
  size_t exists_pos = by_calls->body.find("\"kind\":\"exists\"");
  ASSERT_NE(count_pos, std::string::npos);
  ASSERT_NE(exists_pos, std::string::npos);
  EXPECT_LT(count_pos, exists_pos);
}

TEST_F(ServerSmokeTest, StatementsResetDropsTheDigests) {
  ASSERT_EQ(Call("POST", "/query", CountPlan())->status, 200);
  auto reset = Call("POST", "/debug/statements/reset");
  ASSERT_EQ(reset->status, 200);
  EXPECT_EQ(reset->body, "{\"reset\":true,\"dropped\":1}\n");
  auto resp = Call("GET", "/debug/statements");
  EXPECT_NE(resp->body.find("\"tracked\":0"), std::string::npos);
}

TEST_F(ServerSmokeTest, StatementEvictionAtCapBumpsTheCounter) {
  // Capacity 1 floors at one digest per shard (16 shards); 18 distinct
  // shapes pigeonhole at least two evictions somewhere.
  StoreServiceOptions opts;
  opts.statement_capacity = 1;
  StoreService capped_service(store_.get(), opts);
  HttpServer capped_server;
  capped_service.Attach(&capped_server);
  ASSERT_TRUE(capped_server.Start().ok());

  std::vector<std::string> shapes;
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    const std::string sel = "select(" + schema_.attr(a).name() + "=" +
                            schema_.attr(a).label(0) + "; scan)";
    shapes.push_back("count(" + sel + ")");
    shapes.push_back("exists(" + sel + ")");
    shapes.push_back(sel);
  }
  const std::string pair = "select(" + schema_.attr(0).name() + "=" +
                           schema_.attr(0).label(0) + " & " +
                           schema_.attr(1).name() + "=" +
                           schema_.attr(1).label(0) + "; scan)";
  shapes.push_back("count(" + pair + ")");
  shapes.push_back("exists(" + pair + ")");
  shapes.push_back(pair);
  shapes.push_back("count(scan)");
  shapes.push_back("exists(scan)");
  shapes.push_back("scan");
  ASSERT_GE(shapes.size(), 17u);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", capped_server.port()).ok());
  for (const std::string& shape : shapes) {
    ASSERT_EQ(client.RoundTrip("POST", "/query", shape)->status, 200)
        << shape;
  }

  auto resp = client.RoundTrip("GET", "/debug/statements");
  ASSERT_TRUE(resp.ok());
  const std::string evictions_key = "\"evictions\":";
  size_t at = resp->body.find(evictions_key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::atoll(resp->body.c_str() + at + evictions_key.size()), 0)
      << resp->body;

  // The registry mirrors both series.
  auto metrics = client.RoundTrip("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("mrsl_statements_tracked"),
            std::string::npos);
  // Anchor on the sample line, not the # HELP line.
  size_t evm = metrics->body.find("\nmrsl_statement_evictions_total ");
  ASSERT_NE(evm, std::string::npos);
  EXPECT_GT(
      std::atof(metrics->body.c_str() + evm +
                std::strlen("\nmrsl_statement_evictions_total ")),
      0.0);
  capped_server.Stop();
}

TEST_F(ServerSmokeTest, MetricsExposeUptimeAndProcessStart) {
  auto resp = Call("GET", "/metrics");
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp->body.find("# TYPE mrsl_uptime_seconds gauge"),
            std::string::npos);
  EXPECT_NE(resp->body.find("mrsl_process_start_time_seconds"),
            std::string::npos);
  EXPECT_NE(resp->body.find("mrsl_statements_tracked"), std::string::npos);
  EXPECT_NE(resp->body.find("mrsl_statement_evictions_total"),
            std::string::npos);
}

TEST_F(ServerSmokeTest, TracedQueriesCarryFingerprintAndTraceIdHeader) {
  auto resp = Call("POST", "/query?trace=1", CountPlan());
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  // The trace id echoes in a response header (the /debug/slow and log
  // join key) and the trace object names the statement fingerprint.
  const std::string trace_id = resp->Header("x-mrsl-trace-id", "");
  EXPECT_EQ(trace_id.size(), 16u) << trace_id;
  EXPECT_NE(resp->body.find("\"trace\":{\"trace_id\":\"" + trace_id +
                            "\",\"fingerprint\":\""),
            std::string::npos)
      << resp->body;
}

// The acceptance-criterion test: queries racing a commit see exactly the
// pre- or the post-commit epoch, byte for byte — never a torn mix.
TEST_F(ServerSmokeTest, QueryDuringCommitSeesWholeEpochsOnly) {
  // Two plans whose bodies both change shape across commits would widen
  // coverage, but one high-traffic plan keeps the loop tight; epoch
  // stamps inside the body catch any tear.
  const std::string plan = CountPlan();

  for (int cycle = 0; cycle < 3; ++cycle) {
    auto pre = Call("POST", "/query", plan);
    ASSERT_TRUE(pre.ok());
    ASSERT_EQ(pre->status, 200);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    std::vector<std::vector<std::string>> observed(4);
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&, r]() {
        HttpClient client;
        if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
        while (!stop.load(std::memory_order_relaxed)) {
          auto resp = client.RoundTrip("POST", "/query", plan);
          if (!resp.ok() || resp->status != 200) return;
          observed[r].push_back(resp->body);
        }
      });
    }

    // Give the readers a moment to race, then commit underneath them.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto update = Call("POST", "/update", InsertDeltaCsv());
    ASSERT_TRUE(update.ok());
    ASSERT_EQ(update->status, 200) << update->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
    for (auto& t : readers) t.join();

    auto post = Call("POST", "/query", plan);
    ASSERT_TRUE(post.ok());
    ASSERT_EQ(post->status, 200);
    ASSERT_NE(post->body, pre->body);  // the epoch stamp moved

    size_t total = 0;
    for (const auto& bodies : observed) {
      for (const std::string& body : bodies) {
        ++total;
        EXPECT_TRUE(body == pre->body || body == post->body)
            << "torn response in cycle " << cycle << ": " << body;
      }
    }
    EXPECT_GT(total, 0u) << "readers never observed the race";
  }
}

TEST_F(ServerSmokeTest, DrainWaitsForInFlightQueries) {
  std::atomic<int> completed{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&]() {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      auto resp = client.RoundTrip("POST", "/query", CountPlan());
      if (resp.ok() && resp->status == 200) completed.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server_->Stop();
  for (auto& t : callers) t.join();
  // Every request that was admitted before the drain got its answer;
  // none were dropped mid-handling. (Some callers may have raced the
  // listen-socket close and never connected — that's fine.)
  EXPECT_EQ(server_->requests_served(),
            static_cast<uint64_t>(completed.load()));
}

}  // namespace
}  // namespace mrsl
