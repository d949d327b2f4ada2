// mrsl — command-line front end for the library.
//
// Subcommands:
//   learn   --in data.csv --out model.txt [--support θ] [--max-itemsets K]
//           [--discretize col:buckets:width|freq]...
//           Learn an MRSL model from the complete rows of a CSV relation.
//   stats   --model model.txt
//           Print a model summary (lattice sizes, roots).
//   infer   --model model.txt --in data.csv [--out blocks.txt]
//           [--samples N] [--burn-in B] [--mode dag|tuple|product]
//           Derive Δt for every incomplete row; print/write the blocks.
//   repair  --model model.txt --in data.csv --out repaired.csv
//           [--min-confidence p] [--samples N] [--burn-in B]
//           Replace missing cells with their most probable completion.
//   query   --model model.txt --in data.csv --where attr=value[,attr=value...]
//           [--samples N]
//           Expected count / existence probability of rows matching the
//           conjunction: count(select(...; scan)) and
//           exists(select(...; scan)) on the same path as --plan.
//   query   --model model.txt --in data.csv --plan "<plan>"
//           [--oracle N] [--min-prob p] [--width W] [--budget-ms B]
//           [--propagation 1]
//           Extensional plan evaluation over the fully derived BID
//           database, committed into a BidStore and answered through
//           BidStore::QueryOn like serve's POST /query:
//           select/project/join/exists/count with exact probabilities
//           on safe plans and [lower, upper] dissociation bounds on
//           unsafe ones; --oracle N cross-checks against N Monte-Carlo
//           sampled possible worlds.
//           --plan-file reads the plan text from a file (large plans
//           without shell quoting).
//           --width / --budget-ms / --propagation route the plan through
//           the safe-plan compiler (pdb/compiler.h): anytime lattice
//           refinement until the mean bounds width reaches W or B ms
//           are spent; --propagation 1 prints ranking scores instead.
//   update  --model model.txt --snapshot store.bin [--in data.csv]
//           [--delta delta.csv] [--samples N] [--burn-in B]
//           Versioned-store maintenance: restore the store from the
//           snapshot file (or derive epoch 1 from --in when the file
//           does not exist yet), apply an optional delta CSV with
//           incremental re-derivation, and save the new epoch back.
//   serve   --model model.txt --snapshot store.bin [--in data.csv]
//           [--port 8080] [--max-inflight 64] [--threads N]
//           [--trace-sample R] [--slow-query-ms MS]
//           [--log-level SPEC] [--log-format text|json]
//           Serve the versioned store over HTTP on 127.0.0.1: POST
//           /query (plan text), POST /update (delta CSV), GET
//           /snapshot, GET /healthz, GET /metrics, GET /debug/traces,
//           GET /debug/slow, GET /debug/statements. SIGINT/SIGTERM
//           drains in-flight requests and saves the snapshot back.
//   top     [--port 8080] [--sort total_time] [--limit 20]
//           [--interval-ms 2000] [--iterations 0]
//           Live workload view: polls a serving process's
//           /debug/statements and renders the digests as a table,
//           top-like, until interrupted (or for --iterations rounds).
//   tune    --in data.csv [--candidates 0.001,0.01,0.1] [--holdout 0.2]
//           Pick the support threshold by masked holdout log-loss.
//
// Unknown flags are usage errors (exit 2), never silently ignored;
// `mrsl <command> --help` prints that command's flags. Exit codes:
// 0 success, 1 runtime failure, 2 usage error.

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/delta.h"
#include "core/engine.h"
#include "core/learner.h"
#include "core/model_io.h"
#include "core/repair.h"
#include "core/tuning.h"
#include "core/workload.h"
#include "pdb/compiler.h"
#include "pdb/plan.h"
#include "pdb/prob_database.h"
#include "pdb/store.h"
#include "relational/discretizer.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace mrsl {
namespace {

// Per-subcommand usage blocks: `mrsl <cmd> --help` prints exactly one of
// these, and a flag error inside a subcommand prints its own block
// instead of the whole catalog.
const std::map<std::string, std::string>& CmdUsageTexts() {
  static const auto* kTexts = new std::map<std::string, std::string>{
      {"learn",
       "mrsl learn --in data.csv --out model.txt [--support 0.01]\n"
       "    [--max-itemsets 1000] [--discretize col:buckets:width|freq]\n"
       "  Learn an MRSL model from the complete rows of a CSV relation.\n"},
      {"stats",
       "mrsl stats --model model.txt\n"
       "  Print a model summary (lattice sizes, roots).\n"},
      {"infer",
       "mrsl infer --model model.txt --in data.csv [--out blocks.txt]\n"
       "    [--samples 2000] [--burn-in 100] [--mode dag|tuple|product]\n"
       "    [--threads 0] [--batch-size 0]\n"
       "  Derive Δt for every incomplete row; print/write the blocks.\n"},
      {"repair",
       "mrsl repair --model model.txt --in data.csv --out repaired.csv\n"
       "    [--min-confidence 0] [--samples 2000] [--burn-in 100]\n"
       "    [--mode dag|tuple|product] [--threads 0] [--batch-size 0]\n"
       "  Replace missing cells with their most probable completion.\n"},
      {"query",
       "mrsl query --model model.txt --in data.csv --where a=v[,b=w...]\n"
       "    [--min-prob 0] [--samples 2000] [--threads 0]\n"
       "mrsl query --model model.txt --in data.csv --plan PLAN\n"
       "    [--plan-file plan.txt] [--oracle 0] [--min-prob 0]\n"
       "    [--samples 2000] [--threads 0]\n"
       "    [--width W] [--budget-ms B] [--propagation 1]\n"
       "  PLAN: scan | select(pred; node) | project(attrs; node)\n"
       "        | join(node; node; a=b) | exists(node) | count(node)\n"
       "  e.g. \"count(select(edu=HS & inc=100K; scan))\"\n"
       "  Both forms derive the whole relation and answer through the\n"
       "  store's query path, as serve's POST /query does; --where is\n"
       "  count(select(a=v & ...; scan)) plus exists(...) of the same.\n"
       "  --width/--budget-ms compile the plan: anytime dissociation-\n"
       "  lattice refinement until the mean bounds width <= W (in [0,1])\n"
       "  or B ms elapse; --propagation 1 prints ranking scores only.\n"},
      {"update",
       "mrsl update --model model.txt --snapshot store.bin [--in data.csv]\n"
       "    [--delta delta.csv] [--wal-dir DIR] [--sync-mode always|group|\n"
       "    none] [--samples 2000] [--burn-in 100]\n"
       "    [--mode dag|tuple|product] [--min-prob 0] [--threads 0]\n"
       "  Restore the store from the snapshot (or derive epoch 1 from\n"
       "  --in), apply an optional delta CSV incrementally, save back.\n"
       "  delta CSV: header op,row,<attrs>; rows insert/update/delete\n"
       "  --wal-dir makes every commit durable before it is reported:\n"
       "  records beyond the snapshot are replayed on start, and the\n"
       "  final save checkpoints + compacts the log.\n"},
      {"serve",
       "mrsl serve --model model.txt --snapshot store.bin [--in data.csv]\n"
       "    [--port 8080] [--max-inflight 64] [--wal-dir DIR]\n"
       "    [--sync-mode always|group|none] [--samples 2000]\n"
       "    [--burn-in 100] [--mode dag|tuple|product] [--min-prob 0]\n"
       "    [--threads 0] [--trace-sample 0] [--slow-query-ms 250]\n"
       "    [--log-level info] [--log-format text]\n"
       "  Serve the versioned store over HTTP on 127.0.0.1:\n"
       "    POST /query     plan text -> JSON rows with [lo, hi] probs\n"
       "                    (?oracle=N adds a Monte-Carlo cross-check;\n"
       "                    ?trace=1 appends an EXPLAIN-ANALYZE span tree)\n"
       "    POST /update    delta CSV -> incremental commit, new epoch\n"
       "    GET  /snapshot  the current epoch as snapshot bytes\n"
       "    GET  /healthz   liveness + epoch + version\n"
       "    GET  /metrics   Prometheus text (per-endpoint counters,\n"
       "                    latency histograms, batch/cache series)\n"
       "    GET  /debug/traces  recent traces (?format=chrome for\n"
       "                    chrome://tracing; ?limit=N)\n"
       "    GET  /debug/slow    queries slower than --slow-query-ms\n"
       "    GET  /debug/statements  per-query-shape workload digests\n"
       "                    (?sort=total_time|calls|p99|width, ?limit=N,\n"
       "                    ?format=json|tsv); POST .../reset clears them\n"
       "  --trace-sample R records a trace for a random fraction R in\n"
       "  [0,1] of requests; --slow-query-ms < 0 disables the slow log.\n"
       "  --log-level takes a level (debug|info|warn|error|off) with\n"
       "  optional per-component overrides, e.g. 'info,wal=debug';\n"
       "  --log-format json emits JSON-lines records on stderr.\n"
       "  SIGINT/SIGTERM drains in-flight requests, then saves the\n"
       "  snapshot back to --snapshot (checkpointing + compacting the\n"
       "  WAL when --wal-dir is set). With a WAL, every /update is\n"
       "  fsync-durable before its HTTP 200 — kill -9 the server and\n"
       "  restart with the same flags to replay the tail.\n"},
      {"top",
       "mrsl top [--port 8080] [--sort total_time] [--limit 20]\n"
       "    [--interval-ms 2000] [--iterations 0]\n"
       "  Poll a serving process's GET /debug/statements and render the\n"
       "  workload digests as a live table (clears the screen between\n"
       "  rounds; --iterations 0 polls until interrupted; 1 prints one\n"
       "  snapshot and exits). --sort: total_time|calls|p99|width.\n"},
      {"tune",
       "mrsl tune --in data.csv [--candidates t1,t2,...] [--holdout 0.2]\n"
       "  Pick the support threshold by masked holdout log-loss.\n"},
  };
  return *kTexts;
}

void PrintCmdUsage(const std::string& cmd, std::FILE* out) {
  std::fprintf(out, "usage: %s", CmdUsageTexts().at(cmd).c_str());
}

/// Usage error scoped to one subcommand (exit code 2).
int UsageFor(const std::string& cmd) {
  PrintCmdUsage(cmd, stderr);
  return 2;
}

void PrintGlobalUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: mrsl <learn|stats|infer|repair|query|update|serve|top|tune> "
      "[options]\n"
      "run `mrsl <command> --help` for that command's flags\n"
      "\n");
  for (const auto& [cmd, text] : CmdUsageTexts()) {
    (void)cmd;
    std::fprintf(out, "%s", text.c_str());
  }
  std::fprintf(
      out,
      "\n"
      "  --threads N     inference thread-pool width (0 = all cores);\n"
      "                  results are identical for every thread count\n"
      "  --batch-size K  tuples per engine batch (0 = one batch)\n");
}

int Usage() {
  PrintGlobalUsage(stderr);
  return 2;
}

// Parses --key value pairs; returns false on stray arguments and on
// flags the subcommand does not accept (silently ignoring a typo like
// --sample would run with defaults the user never asked for).
bool ParseFlags(int argc, char** argv, int start,
                const std::set<std::string>& allowed,
                std::map<std::string, std::vector<std::string>>* flags) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "stray argument: %s\n", arg.c_str());
      return false;
    }
    std::string key = arg.substr(2);
    if (allowed.count(key) == 0) {
      std::fprintf(stderr, "unknown flag for this subcommand: %s\n",
                   arg.c_str());
      return false;
    }
    (*flags)[std::move(key)].push_back(argv[++i]);
  }
  return true;
}

std::string GetFlag(const std::map<std::string, std::vector<std::string>>& f,
                    const std::string& key, const std::string& fallback) {
  auto it = f.find(key);
  return it == f.end() ? fallback : it->second.back();
}

bool GetDoubleFlag(const std::map<std::string, std::vector<std::string>>& f,
                   const std::string& key, double fallback, double* out) {
  std::string s = GetFlag(f, key, "");
  if (s.empty()) {
    *out = fallback;
    return true;
  }
  return ParseDouble(s, out);
}

bool GetIntFlag(const std::map<std::string, std::vector<std::string>>& f,
                const std::string& key, int64_t fallback, int64_t* out) {
  std::string s = GetFlag(f, key, "");
  if (s.empty()) {
    *out = fallback;
    return true;
  }
  return ParseInt(s, out) && *out >= 0;
}

// Reads --in. Commands that pair it with a model pass the model's
// schema, so labels map to the ValueIds the model was learned with
// whatever the row order; tune passes null and grows the schema from
// the file, as learn does.
Result<Relation> LoadInput(
    const std::map<std::string, std::vector<std::string>>& flags,
    const Schema* model_schema) {
  std::string path = GetFlag(flags, "in", "");
  if (path.empty()) return Status::InvalidArgument("missing --in");
  if (model_schema == nullptr) return Relation::LoadCsvFile(path);
  MRSL_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return Relation::FromCsv(text, *model_schema);
}

int CmdLearn(const std::map<std::string, std::vector<std::string>>& flags) {
  // Shadows the global catalog: flag errors print learn's block only.
  const auto Usage = [] { return UsageFor("learn"); };
  std::string in = GetFlag(flags, "in", "");
  std::string out = GetFlag(flags, "out", "");
  if (in.empty() || out.empty()) return Usage();

  LearnOptions learn;
  int64_t max_itemsets = 0;
  if (!GetDoubleFlag(flags, "support", 0.01, &learn.support_threshold) ||
      !GetIntFlag(flags, "max-itemsets", 1000, &max_itemsets)) {
    return Usage();
  }
  learn.max_itemsets = static_cast<size_t>(max_itemsets);

  // Optional discretization passes.
  Relation rel;
  auto csv = ReadFile(in);
  if (!csv.ok()) {
    std::fprintf(stderr, "error: %s\n", csv.status().ToString().c_str());
    return 1;
  }
  auto disc_it = flags.find("discretize");
  if (disc_it != flags.end()) {
    std::vector<DiscretizeSpec> specs;
    for (const std::string& raw : disc_it->second) {
      auto parts = Split(raw, ':');
      if (parts.size() != 3) {
        std::fprintf(stderr, "bad --discretize spec: %s\n", raw.c_str());
        return 2;
      }
      DiscretizeSpec spec;
      spec.attribute = parts[0];
      int64_t buckets = 0;
      if (!ParseInt(parts[1], &buckets) || buckets < 2) return Usage();
      spec.num_buckets = static_cast<size_t>(buckets);
      if (parts[2] == "width") {
        spec.strategy = BucketStrategy::kEqualWidth;
      } else if (parts[2] == "freq") {
        spec.strategy = BucketStrategy::kEqualFrequency;
      } else {
        return Usage();
      }
      specs.push_back(std::move(spec));
    }
    auto result = DiscretizeCsv(*csv, specs);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    rel = std::move(result).value().relation;
  } else {
    auto parsed = Relation::FromCsv(*csv);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    rel = std::move(parsed).value();
  }

  LearnStats stats;
  auto model = LearnModel(rel, learn, &stats);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  Status st = SaveModelFile(*model, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "learned %zu meta-rules from %zu complete rows "
      "(%zu itemsets, %.3fs) -> %s\n",
      model->TotalMetaRules(), rel.CompleteRowIndices().size(),
      stats.num_frequent_itemsets, stats.total_seconds, out.c_str());
  return 0;
}

int CmdStats(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("stats"); };
  std::string path = GetFlag(flags, "model", "");
  if (path.empty()) return Usage();
  auto model = LoadModelFile(path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("model: %zu attributes, %zu meta-rules\n", model->num_attrs(),
              model->TotalMetaRules());
  for (AttrId a = 0; a < model->num_attrs(); ++a) {
    const Mrsl& lattice = model->mrsl(a);
    std::printf("  %-16s card=%zu rules=%zu root=%s\n",
                model->schema().attr(a).name().c_str(),
                model->schema().attr(a).cardinality(), lattice.num_rules(),
                lattice.root() >= 0 ? "yes" : "NO");
  }
  return 0;
}

// Shared --threads / --batch-size handling for the engine-backed
// subcommands.
bool ParseEngineFlags(
    const std::map<std::string, std::vector<std::string>>& flags,
    EngineOptions* engine_opts, size_t* batch_size) {
  int64_t threads = 0;
  int64_t batch = 0;
  if (!GetIntFlag(flags, "threads", 0, &threads) ||
      !GetIntFlag(flags, "batch-size", 0, &batch)) {
    return false;
  }
  engine_opts->num_threads = static_cast<size_t>(threads);
  *batch_size = static_cast<size_t>(batch);
  return true;
}

bool ParseGibbs(const std::map<std::string, std::vector<std::string>>& flags,
                WorkloadOptions* opts, SamplingMode* mode) {
  int64_t samples = 0;
  int64_t burn = 0;
  if (!GetIntFlag(flags, "samples", 2000, &samples) ||
      !GetIntFlag(flags, "burn-in", 100, &burn)) {
    return false;
  }
  opts->gibbs.samples = static_cast<size_t>(samples);
  opts->gibbs.burn_in = static_cast<size_t>(burn);
  std::string mode_str = GetFlag(flags, "mode", "dag");
  if (mode_str == "dag") {
    *mode = SamplingMode::kTupleDag;
  } else if (mode_str == "tuple") {
    *mode = SamplingMode::kTupleAtATime;
  } else if (mode_str == "product") {
    *mode = SamplingMode::kIndependentProduct;
  } else {
    return false;
  }
  return true;
}

int CmdInfer(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("infer"); };
  std::string model_path = GetFlag(flags, "model", "");
  if (model_path.empty()) return Usage();
  auto model = LoadModelFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto rel = LoadInput(flags, &model->schema());
  if (!rel.ok()) {
    std::fprintf(stderr, "error: %s\n", rel.status().ToString().c_str());
    return 1;
  }
  WorkloadOptions opts;
  SamplingMode mode;
  EngineOptions engine_opts;
  size_t batch_size = 0;
  if (!ParseGibbs(flags, &opts, &mode) ||
      !ParseEngineFlags(flags, &engine_opts, &batch_size)) {
    return Usage();
  }

  const size_t num_incomplete = rel->IncompleteRowIndices().size();
  if (num_incomplete == 0) {
    std::printf("no incomplete rows; nothing to infer\n");
    return 0;
  }

  // Batched parallel derivation through the persistent engine, straight
  // to the queryable BID database.
  Engine engine(&*model, engine_opts);
  WorkloadStats stats;
  auto db = engine.DeriveDatabase(*rel, mode, opts, /*min_prob=*/0.0,
                                  batch_size, &stats);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::string dump = db->ToString(db->num_blocks());
  std::string out = GetFlag(flags, "out", "");
  if (out.empty()) {
    std::printf("%s", dump.c_str());
  } else {
    Status st = WriteFile(out, dump);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "inferred %zu tuples (%llu distinct) with %llu sampled "
               "points in %.2fs\n",
               num_incomplete,
               static_cast<unsigned long long>(stats.distinct_tuples),
               static_cast<unsigned long long>(stats.points_sampled),
               stats.wall_seconds);
  return 0;
}

int CmdRepair(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("repair"); };
  std::string model_path = GetFlag(flags, "model", "");
  std::string out = GetFlag(flags, "out", "");
  if (model_path.empty() || out.empty()) return Usage();
  auto model = LoadModelFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto rel = LoadInput(flags, &model->schema());
  if (!rel.ok()) {
    std::fprintf(stderr, "error: %s\n", rel.status().ToString().c_str());
    return 1;
  }
  RepairOptions opts;
  EngineOptions engine_opts;
  if (!ParseGibbs(flags, &opts.workload, &opts.mode) ||
      !ParseEngineFlags(flags, &engine_opts, &opts.batch_size)) {
    return Usage();
  }
  if (!GetDoubleFlag(flags, "min-confidence", 0.0, &opts.min_confidence)) {
    return Usage();
  }
  Engine engine(&*model, engine_opts);
  RepairStats stats;
  auto repaired = RepairRelation(&engine, *rel, opts, &stats);
  if (!repaired.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 repaired.status().ToString().c_str());
    return 1;
  }
  Status st = repaired->SaveCsvFile(out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("repaired %zu rows (%zu below confidence %.3f), mean "
              "confidence %.3f -> %s\n",
              stats.repaired, stats.skipped_low_conf, opts.min_confidence,
              stats.mean_confidence, out.c_str());
  return 0;
}

// Parses the store/engine flags shared by query, update and serve.
bool ParseStoreFlags(
    const std::map<std::string, std::vector<std::string>>& flags,
    StoreOptions* store_opts, EngineOptions* engine_opts) {
  int64_t threads = 0;
  if (!ParseGibbs(flags, &store_opts->workload, &store_opts->mode) ||
      !GetIntFlag(flags, "threads", 0, &threads) ||
      !GetDoubleFlag(flags, "min-prob", 0.0, &store_opts->min_prob)) {
    return false;
  }
  engine_opts->num_threads = static_cast<size_t>(threads);
  return true;
}

// Derives `rel` as the first epoch of `store`; false (after reporting
// the error) when the derivation fails.
bool CommitQueryInput(BidStore* store, Relation rel) {
  auto committed = store->Commit(std::move(rel));
  if (!committed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 committed.status().ToString().c_str());
    return false;
  }
  return true;
}

// Plan evaluation over the fully derived BID database, on the one query
// path the server uses: commit the relation into a BidStore and answer
// through BidStore::QueryOn — exact on safe plans, dissociation bounds
// on unsafe ones, the safe-plan compiler when a compiler flag is given —
// optionally cross-checked with the Monte-Carlo possible-world oracle.
int RunPlanQuery(const MrslModel& model, Relation rel,
                 const std::map<std::string, std::vector<std::string>>& flags,
                 const std::string& plan_text) {
  const auto Usage = [] { return UsageFor("query"); };
  StoreOptions store_opts;
  EngineOptions engine_opts;
  int64_t oracle_trials = 0;
  CompileOptions copts;
  int64_t propagation = 0;
  if (!ParseStoreFlags(flags, &store_opts, &engine_opts) ||
      !GetIntFlag(flags, "oracle", 0, &oracle_trials) ||
      !GetDoubleFlag(flags, "width", 0.0, &copts.width_target) ||
      !GetDoubleFlag(flags, "budget-ms", 0.0, &copts.budget_ms) ||
      !GetIntFlag(flags, "propagation", 0, &propagation) ||
      copts.width_target < 0.0 || copts.width_target > 1.0 ||
      copts.budget_ms < 0.0) {
    return Usage();
  }
  copts.propagation_only = propagation != 0;
  // Any compiler flag routes the plan through the safe-plan compiler.
  const bool with_compile = flags.count("width") != 0 ||
                            flags.count("budget-ms") != 0 ||
                            flags.count("propagation") != 0;
  const bool with_oracle = oracle_trials > 0;
  OracleOptions oo;
  oo.trials = static_cast<size_t>(oracle_trials);
  oo.num_threads = engine_opts.num_threads;

  Engine engine(&model, engine_opts);
  BidStore store(&engine, store_opts);
  if (!CommitQueryInput(&store, std::move(rel))) return 1;
  const SnapshotPtr snap = store.snapshot();
  auto answer = store.QueryOn(snap, plan_text,
                              with_compile ? &copts : nullptr, TraceSpan(),
                              with_oracle ? &oo : nullptr);
  if (!answer.ok()) {
    std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
    return answer.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  std::printf("PLAN %s  (%zu blocks)\n", answer->canonical_text.c_str(),
              snap->database().num_blocks());

  const OracleResult& oracle = answer->oracle;
  const PlanEvaluation& eval = *answer->eval;
  const CompileStats& cs = eval.compile_stats;
  // Where the answer's probabilities come from; `safe` is the plain
  // evaluator's verdict for this query kind.
  const auto how = [&eval, &cs](bool safe) {
    if (!eval.compiled) return safe ? "exact" : "dissociation bounds";
    if (cs.propagation) return "propagation scores (ranking only)";
    return cs.plan_safe ? "exact (safe plan)" : "compiled envelope";
  };
  switch (eval.kind) {
    case ParsedQuery::Kind::kRelation: {
      std::printf("%s: %zu distinct tuples\n", how(eval.safe),
                  eval.marginals.size());
      std::unordered_map<Tuple, double, TupleHash> freq;
      for (const ProbTuple& pt : oracle.marginals) {
        freq.emplace(pt.tuple, pt.prob);
      }
      for (const DistinctMarginal& m : eval.marginals) {
        std::printf("  %s  p=%s", m.tuple.ToString(eval.schema).c_str(),
                    m.prob.ToString().c_str());
        if (with_oracle) {
          auto it = freq.find(m.tuple);
          std::printf("  oracle=%.4f", it == freq.end() ? 0.0 : it->second);
        }
        std::printf("\n");
      }
      break;
    }
    case ParsedQuery::Kind::kExists:
      std::printf("P(result non-empty) = %s  (%s)\n",
                  eval.exists.prob.ToString().c_str(), how(eval.exists.safe));
      if (with_oracle) {
        std::printf("oracle (%zu worlds):  %.4f\n", oracle.trials,
                    oracle.exists);
      }
      break;
    case ParsedQuery::Kind::kCount:
      std::printf("E[count] = %s  (%s)\n",
                  eval.count.expected.ToString().c_str(),
                  how(eval.count.safe));
      if (eval.count.has_distribution) {
        for (size_t k = 0; k < eval.count.distribution.size() && k < 16;
             ++k) {
          if (eval.count.distribution[k] < 1e-9) continue;
          std::printf("  P(count=%zu) = %.6f\n", k,
                      eval.count.distribution[k]);
        }
      }
      if (with_oracle) {
        std::printf("oracle (%zu worlds):  E[count] = %.4f\n",
                    oracle.trials, oracle.expected_count);
      }
      break;
  }
  if (eval.compiled) {
    // The cached entry carries no wall time; the compile ran as this
    // query's evaluate stage.
    std::printf(
        "compile: groups=%zu unsafe=%zu refined=%zu worlds=%zu "
        "width %.4f -> %.4f in %.1f ms%s%s\n",
        cs.groups_total, cs.groups_unsafe, cs.groups_refined,
        cs.worlds_expanded, cs.mean_width_base, cs.mean_width_final,
        answer->stages.evaluate_seconds * 1e3,
        cs.width_target_met ? "  [width target met]" : "",
        cs.budget_exhausted ? "  [budget exhausted]" : "");
    if (cs.propagation) {
      std::printf(
          "note: propagation scores rank tuples but are NOT sound "
          "probability bounds\n");
    }
  }
  return 0;
}

// --where a=v[,b=w...]: the conjunction answered as count(select(pred;
// scan)) and exists(select(pred; scan)) on the same store and query
// path as --plan.
int RunWhereQuery(const MrslModel& model, Relation rel,
                  const std::map<std::string, std::vector<std::string>>& flags,
                  const std::string& where) {
  const auto Usage = [] { return UsageFor("query"); };
  // Parse the conjunction against the *model's* schema (the source of
  // truth for value ids).
  Predicate pred;
  for (const std::string& atom : Split(where, ',')) {
    auto kv = Split(atom, '=');
    if (kv.size() != 2) return Usage();
    AttrId attr = 0;
    if (!model.schema().FindAttr(std::string(Trim(kv[0])), &attr)) {
      std::fprintf(stderr, "unknown attribute: %s\n", kv[0].c_str());
      return 2;
    }
    ValueId value = model.schema().attr(attr).Find(std::string(Trim(kv[1])));
    if (value == kMissingValue) {
      std::fprintf(stderr, "unknown value '%s' for attribute %s\n",
                   kv[1].c_str(), kv[0].c_str());
      return 2;
    }
    pred = pred.And(Predicate::Eq(attr, value));
  }
  StoreOptions store_opts;
  EngineOptions engine_opts;
  if (!ParseStoreFlags(flags, &store_opts, &engine_opts)) return Usage();

  const size_t num_rows = rel.num_rows();
  Engine engine(&model, engine_opts);
  BidStore store(&engine, store_opts);
  if (!CommitQueryInput(&store, std::move(rel))) return 1;
  const SnapshotPtr snap = store.snapshot();
  const auto ask = [&](const std::string& kind) -> Result<StoreQueryResult> {
    MRSL_ASSIGN_OR_RETURN(
        std::string select,
        PlanToString(*SelectPlan(pred, ScanPlan()), {&snap->database()}));
    return store.QueryOn(snap, kind + "(" + select + ")");
  };
  auto count = ask("count");
  auto exists = ask("exists");
  if (!count.ok() || !exists.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!count.ok() ? count.status() : exists.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  // A select over one scan is a safe plan: both answers are points.
  std::printf("WHERE %s\n", pred.ToString(model.schema()).c_str());
  std::printf("  expected matching rows: %.4f of %zu\n",
              count->eval->count.expected.lo, num_rows);
  std::printf("  P(at least one match):  %.6f\n",
              exists->eval->exists.prob.lo);
  return 0;
}

int CmdQuery(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("query"); };
  std::string model_path = GetFlag(flags, "model", "");
  std::string where = GetFlag(flags, "where", "");
  std::string plan_text = GetFlag(flags, "plan", "");
  std::string plan_file = GetFlag(flags, "plan-file", "");
  if (!plan_file.empty()) {
    if (!plan_text.empty()) {
      std::fprintf(stderr, "--plan and --plan-file are exclusive\n");
      return Usage();
    }
    auto text = ReadFile(plan_file);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
      return 1;
    }
    plan_text = std::string(Trim(*text));
    if (plan_text.empty()) {
      std::fprintf(stderr, "plan file %s is empty\n", plan_file.c_str());
      return 2;
    }
  }
  // Exactly one of --where / --plan (or --plan-file).
  if (model_path.empty() || where.empty() == plan_text.empty()) {
    return Usage();
  }
  auto model = LoadModelFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto rel = LoadInput(flags, &model->schema());
  if (!rel.ok()) {
    std::fprintf(stderr, "error: %s\n", rel.status().ToString().c_str());
    return 1;
  }

  if (!plan_text.empty()) {
    return RunPlanQuery(*model, std::move(rel).value(), flags, plan_text);
  }
  return RunWhereQuery(*model, std::move(rel).value(), flags, where);
}

void PrintCommitStats(const char* what, const CommitStats& stats) {
  std::printf(
      "%s: epoch %llu — re-inferred %zu/%zu tuples "
      "(%zu/%zu components), reused %zu/%zu blocks, %.3fs\n",
      what, static_cast<unsigned long long>(stats.epoch),
      stats.tuples_reinferred, stats.tuples_total,
      stats.components_reinferred, stats.components_total,
      stats.blocks_reused, stats.blocks_total, stats.wall_seconds);
}

// Shared by update and serve: restore `store` from the snapshot file
// when it exists, otherwise derive epoch 1 from --in. Existence is
// checked explicitly — an existing but unreadable/corrupt file must
// fail loudly, never fall through to a fresh derivation that would
// overwrite the epoch history. Returns 0 or the process exit code.
int RestoreOrDerive(BidStore* store,
                    const std::map<std::string, std::vector<std::string>>&
                        flags,
                    const std::string& snapshot_path) {
  std::error_code probe_ec;
  bool have_snapshot = std::filesystem::exists(snapshot_path, probe_ec);
  if (probe_ec) {
    std::fprintf(stderr, "error probing %s: %s\n", snapshot_path.c_str(),
                 probe_ec.message().c_str());
    return 1;
  }
  if (have_snapshot) {
    Status st = store->Restore(snapshot_path);
    if (!st.ok()) {
      std::cerr << "error restoring " << snapshot_path << ": " << st
                << "\n";
      return 1;
    }
    std::printf("restored %s at epoch %llu (%zu blocks)\n",
                snapshot_path.c_str(),
                static_cast<unsigned long long>(store->epoch()),
                store->snapshot()->database().num_blocks());
    if (flags.count("in") != 0) {
      std::fprintf(stderr,
                   "note: --in ignored — %s already holds epoch %llu; "
                   "delete the snapshot to re-derive from the CSV, or "
                   "describe the changes with --delta\n",
                   snapshot_path.c_str(),
                   static_cast<unsigned long long>(store->epoch()));
    }
    // The snapshot's saved derivation options supersede any flags (the
    // cached Δt values are only reusable under them) — say so instead
    // of silently overriding the user.
    for (const char* key : {"samples", "burn-in", "mode", "min-prob"}) {
      if (flags.count(key) != 0) {
        std::fprintf(stderr,
                     "note: --%s ignored — the snapshot's saved "
                     "derivation options take precedence (samples=%zu, "
                     "burn-in=%zu, mode=%s, min-prob=%g)\n",
                     key, store->options().workload.gibbs.samples,
                     store->options().workload.gibbs.burn_in,
                     SamplingModeName(store->options().mode),
                     store->options().min_prob);
        break;
      }
    }
  } else {
    auto rel = LoadInput(flags, &store->engine()->model().schema());
    if (!rel.ok()) {
      std::cerr << "error: " << rel.status() << " (no snapshot at "
                << snapshot_path
                << "; --in is required to derive the first epoch)\n";
      return 1;
    }
    auto committed = store->Commit(std::move(rel).value());
    if (!committed.ok()) {
      std::cerr << "error: " << committed.status() << "\n";
      return 1;
    }
    PrintCommitStats("derived", *committed);
  }
  return 0;
}

// Shared by update and serve: attach the write-ahead log when --wal-dir
// is given, replaying any records the snapshot missed. Returns 0, or the
// process exit code on failure. `*wal_enabled` reports whether a WAL is
// now attached (the final save must Checkpoint instead of SaveSnapshot).
int OpenWalFromFlags(BidStore* store,
                     const std::map<std::string, std::vector<std::string>>&
                         flags,
                     bool* wal_enabled) {
  *wal_enabled = false;
  std::string wal_dir = GetFlag(flags, "wal-dir", "");
  std::string sync_text = GetFlag(flags, "sync-mode", "group");
  if (wal_dir.empty()) {
    if (flags.count("sync-mode") != 0) {
      std::fprintf(stderr, "error: --sync-mode requires --wal-dir\n");
      return 2;
    }
    return 0;
  }
  auto mode = ParseWalSyncMode(sync_text);
  if (!mode.ok()) {
    std::fprintf(stderr, "error: %s\n", mode.status().ToString().c_str());
    return 2;
  }
  auto recovered = store->OpenWal(wal_dir, *mode);
  if (!recovered.ok()) {
    std::fprintf(stderr, "error opening WAL %s: %s\n", wal_dir.c_str(),
                 recovered.status().ToString().c_str());
    return 1;
  }
  *wal_enabled = true;
  std::printf("WAL %s (sync-mode %s): replayed %llu records, skipped "
              "%llu%s -> epoch %llu\n",
              wal_dir.c_str(), WalSyncModeName(*mode),
              static_cast<unsigned long long>(recovered->replayed_records),
              static_cast<unsigned long long>(recovered->skipped_records),
              recovered->torn_tail ? " (discarded a torn tail record)" : "",
              static_cast<unsigned long long>(store->epoch()));
  return 0;
}

// The final save: with a WAL, Checkpoint (atomic save + log compaction);
// without one, the plain snapshot write.
int SaveOrCheckpoint(BidStore* store, const std::string& snapshot_path,
                     bool wal_enabled) {
  Status saved = wal_enabled ? store->Checkpoint(snapshot_path)
                             : store->SaveSnapshot(snapshot_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error saving snapshot: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("saved epoch %llu -> %s%s\n",
              static_cast<unsigned long long>(store->epoch()),
              snapshot_path.c_str(),
              wal_enabled ? " (WAL compacted)" : "");
  return 0;
}

// Versioned-store maintenance: restore-or-derive, optionally apply a
// delta with incremental re-derivation, save the new epoch back.
int CmdUpdate(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("update"); };
  std::string model_path = GetFlag(flags, "model", "");
  std::string snapshot_path = GetFlag(flags, "snapshot", "");
  if (model_path.empty() || snapshot_path.empty()) return Usage();
  auto model = LoadModelFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }

  StoreOptions store_opts;
  EngineOptions engine_opts;
  if (!ParseStoreFlags(flags, &store_opts, &engine_opts)) return Usage();

  Engine engine(&*model, engine_opts);
  BidStore store(&engine, store_opts);
  const int rc = RestoreOrDerive(&store, flags, snapshot_path);
  if (rc != 0) return rc;
  bool wal_enabled = false;
  const int wal_rc = OpenWalFromFlags(&store, flags, &wal_enabled);
  if (wal_rc != 0) return wal_rc;

  std::string delta_path = GetFlag(flags, "delta", "");
  if (!delta_path.empty()) {
    auto text = ReadFile(delta_path);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
      return 1;
    }
    auto delta = ParseDeltaCsv(store.snapshot()->base().schema(), *text);
    if (!delta.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   delta.status().ToString().c_str());
      return 1;
    }
    auto committed = store.ApplyDelta(*delta);
    if (!committed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   committed.status().ToString().c_str());
      return 1;
    }
    PrintCommitStats("applied delta", *committed);
    if (wal_enabled) {
      Status synced = store.SyncWal();
      if (!synced.ok()) {
        std::fprintf(stderr, "error: %s\n", synced.ToString().c_str());
        return 1;
      }
    }
  }

  return SaveOrCheckpoint(&store, snapshot_path, wal_enabled);
}

// Self-pipe for the serve drain: the signal handler may only call
// async-signal-safe functions, so it writes one byte and the serve loop,
// blocked on the pipe, does the actual Stop().
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int) {
  const char byte = 1;
  (void)!write(g_shutdown_pipe[1], &byte, 1);
}

// Network serving: restore-or-derive like update, then serve the store
// over HTTP until SIGINT/SIGTERM, drain, and save the snapshot back.
int CmdServe(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("serve"); };
  std::string model_path = GetFlag(flags, "model", "");
  std::string snapshot_path = GetFlag(flags, "snapshot", "");
  if (model_path.empty() || snapshot_path.empty()) return Usage();
  auto model = LoadModelFile(model_path);
  if (!model.ok()) {
    std::cerr << "error: " << model.status() << "\n";
    return 1;
  }

  StoreOptions store_opts;
  EngineOptions engine_opts;
  int64_t port = 0;
  int64_t max_inflight = 0;
  double trace_sample = 0.0;
  double slow_query_ms = 250.0;
  if (!ParseStoreFlags(flags, &store_opts, &engine_opts) ||
      !GetIntFlag(flags, "port", 8080, &port) || port > 65535 ||
      !GetIntFlag(flags, "max-inflight", 64, &max_inflight) ||
      max_inflight == 0 ||
      !GetDoubleFlag(flags, "trace-sample", 0.0, &trace_sample) ||
      trace_sample < 0.0 || trace_sample > 1.0 ||
      !GetDoubleFlag(flags, "slow-query-ms", 250.0, &slow_query_ms)) {
    return Usage();
  }

  // Logging is configured before anything that might emit a record.
  LogOptions log_opts;
  const std::string log_spec = GetFlag(flags, "log-level", "info");
  if (Status parsed_spec = ParseLogLevelSpec(log_spec, &log_opts);
      !parsed_spec.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed_spec.ToString().c_str());
    return Usage();
  }
  const std::string log_format = GetFlag(flags, "log-format", "text");
  if (log_format == "json") {
    log_opts.json = true;
  } else if (log_format != "text") {
    std::fprintf(stderr, "error: --log-format must be text or json\n");
    return Usage();
  }
  Logger::Global().Configure(log_opts);

  Engine engine(&*model, engine_opts);
  BidStore store(&engine, store_opts);
  const int rc = RestoreOrDerive(&store, flags, snapshot_path);
  if (rc != 0) return rc;
  bool wal_enabled = false;
  const int wal_rc = OpenWalFromFlags(&store, flags, &wal_enabled);
  if (wal_rc != 0) return wal_rc;

  // The drain pipe and handlers go in before the listen socket opens, so
  // a signal racing the start-up is never lost.
  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  ServerOptions server_opts;
  server_opts.port = static_cast<uint16_t>(port);
  server_opts.max_inflight = static_cast<size_t>(max_inflight);
  server_opts.trace_sample = trace_sample;
  HttpServer server(server_opts);
  StoreServiceOptions service_opts;
  service_opts.slow_query_ms = slow_query_ms;
  StoreService service(&store, service_opts);
  service.Attach(&server);
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error starting server: " << started << "\n";
    return 1;
  }
  std::printf(
      "serving epoch %llu on http://127.0.0.1:%u  "
      "(engine threads=%zu, max-inflight=%zu)\n"
      "endpoints: POST /query  POST /update  GET /snapshot  "
      "GET /healthz  GET /metrics  GET /debug/traces  GET /debug/slow  "
      "GET /debug/statements\n"
      "Ctrl-C drains and saves the snapshot\n",
      static_cast<unsigned long long>(store.epoch()), server.port(),
      engine.num_threads(), server_opts.max_inflight);
  std::fflush(stdout);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "shutdown signal received: draining...\n");
  server.Stop();
  std::printf("drained: %llu requests served, %llu shed by admission "
              "control\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(server.requests_shed()));

  return SaveOrCheckpoint(&store, snapshot_path, wal_enabled);
}

// Live workload view: polls /debug/statements on a serving process and
// renders the TSV digests as an aligned table, `top`-style.
int CmdTop(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("top"); };
  int64_t port = 0;
  int64_t limit = 0;
  int64_t interval_ms = 0;
  int64_t iterations = 0;
  std::string sort = GetFlag(flags, "sort", "total_time");
  if (!GetIntFlag(flags, "port", 8080, &port) || port > 65535 ||
      !GetIntFlag(flags, "limit", 20, &limit) ||
      !GetIntFlag(flags, "interval-ms", 2000, &interval_ms) ||
      !GetIntFlag(flags, "iterations", 0, &iterations)) {
    return Usage();
  }
  if (sort != "total_time" && sort != "calls" && sort != "p99" &&
      sort != "width") {
    std::fprintf(stderr,
                 "error: --sort must be total_time, calls, p99, or width\n");
    return Usage();
  }
  const std::string target = "/debug/statements?format=tsv&sort=" + sort +
                             "&limit=" + std::to_string(limit);

  HttpClient client;
  for (int64_t round = 0; iterations == 0 || round < iterations; ++round) {
    if (!client.connected()) {
      Status connected =
          client.Connect("127.0.0.1", static_cast<uint16_t>(port));
      if (!connected.ok()) {
        std::fprintf(stderr, "error: connect 127.0.0.1:%lld: %s\n",
                     static_cast<long long>(port),
                     connected.ToString().c_str());
        return 1;
      }
    }
    auto response = client.RoundTrip("GET", target);
    if (!response.ok()) {
      // A serve restart closes the connection; reconnect next round.
      client.Close();
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      if (iterations != 0 && round + 1 >= iterations) return 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    if (response->status != 200) {
      std::fprintf(stderr, "error: server answered %d: %s\n",
                   response->status, response->body.c_str());
      return 1;
    }

    // TSV -> table: first line is the header, `normalized` is last so
    // the digest text (which may be wide) does not break alignment.
    std::vector<std::string> lines = Split(response->body, '\n');
    if (lines.empty()) {
      std::fprintf(stderr, "error: empty /debug/statements response\n");
      return 1;
    }
    std::vector<std::string> headers;
    for (const std::string& h : Split(lines[0], '\t')) headers.push_back(h);
    TablePrinter table(headers);
    size_t digests = 0;
    for (size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      table.AddRow(Split(lines[i], '\t'));
      ++digests;
    }
    if (iterations != 1) {
      std::printf("\x1b[H\x1b[2J");  // cursor home + clear, top-style
    }
    std::printf("mrsl top — 127.0.0.1:%lld  sort=%s  digests=%zu\n\n%s",
                static_cast<long long>(port), sort.c_str(), digests,
                table.ToString().c_str());
    std::fflush(stdout);
    if (iterations != 0 && round + 1 >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int CmdTune(const std::map<std::string, std::vector<std::string>>& flags) {
  const auto Usage = [] { return UsageFor("tune"); };
  auto rel = LoadInput(flags, nullptr);
  if (!rel.ok()) {
    std::fprintf(stderr, "error: %s\n", rel.status().ToString().c_str());
    return 1;
  }
  TuningOptions opts;
  std::string cands = GetFlag(flags, "candidates", "");
  if (!cands.empty()) {
    opts.candidates.clear();
    for (const std::string& c : Split(cands, ',')) {
      double v = 0.0;
      if (!ParseDouble(c, &v) || v <= 0.0 || v > 1.0) return Usage();
      opts.candidates.push_back(v);
    }
  }
  if (!GetDoubleFlag(flags, "holdout", 0.2, &opts.holdout_fraction)) {
    return Usage();
  }
  auto result = TuneSupportThreshold(*rel, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%-10s %-10s %-8s %-10s\n", "support", "log-loss", "top-1",
              "meta-rules");
  for (const CandidateScore& s : result->scores) {
    std::printf("%-10.4f %-10.4f %-8.3f %-10zu%s\n", s.support, s.log_loss,
                s.top1, s.model_size,
                s.support == result->best_support ? "  <- best" : "");
  }
  std::printf("recommended: --support %g\n", result->best_support);
  return 0;
}

}  // namespace
}  // namespace mrsl

int main(int argc, char** argv) {
  using namespace mrsl;
  if (argc < 2) return Usage();
  // The flags each subcommand accepts; anything else is a usage error.
  static const std::map<std::string, std::set<std::string>> kAllowedFlags = {
      {"learn", {"in", "out", "support", "max-itemsets", "discretize"}},
      {"stats", {"model"}},
      {"infer",
       {"model", "in", "out", "samples", "burn-in", "mode", "threads",
        "batch-size"}},
      {"repair",
       {"model", "in", "out", "min-confidence", "samples", "burn-in",
        "mode", "threads", "batch-size"}},
      {"query",
       {"model", "in", "where", "plan", "plan-file", "oracle", "min-prob",
        "samples", "threads", "width", "budget-ms", "propagation"}},
      {"update",
       {"model", "in", "delta", "snapshot", "wal-dir", "sync-mode",
        "samples", "burn-in", "mode", "min-prob", "threads"}},
      {"serve",
       {"model", "in", "snapshot", "port", "max-inflight", "wal-dir",
        "sync-mode", "samples", "burn-in", "mode", "min-prob", "threads",
        "trace-sample", "slow-query-ms", "log-level", "log-format"}},
      {"top", {"port", "sort", "limit", "interval-ms", "iterations"}},
      {"tune", {"in", "candidates", "holdout"}},
  };
  std::string cmd = argv[1];
  // An explicit help request succeeds on stdout, same as the
  // per-subcommand form below.
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintGlobalUsage(stdout);
    return 0;
  }
  auto allowed = kAllowedFlags.find(cmd);
  if (allowed == kAllowedFlags.end()) return Usage();
  // `mrsl <cmd> --help` prints that subcommand's flags and succeeds.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintCmdUsage(cmd, stdout);
      return 0;
    }
  }
  std::map<std::string, std::vector<std::string>> flags;
  if (!ParseFlags(argc, argv, 2, allowed->second, &flags)) {
    return UsageFor(cmd);
  }
  if (cmd == "learn") return CmdLearn(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "infer") return CmdInfer(flags);
  if (cmd == "repair") return CmdRepair(flags);
  if (cmd == "query") return CmdQuery(flags);
  if (cmd == "update") return CmdUpdate(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "top") return CmdTop(flags);
  if (cmd == "tune") return CmdTune(flags);
  return Usage();  // a command in kAllowedFlags must also dispatch here
}
