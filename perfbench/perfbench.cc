// perfbench: the repository's end-to-end benchmark.
//
// One binary, three workloads over BN15-shaped data (chain(6,6), learned
// at support 0.005, 35% incomplete rows with 1-2 missing cells):
//
//   query   read-only analysts: 4 closed-loop HTTP clients against an
//           in-process HttpServer + StoreService over a 10k-row store.
//           80% of requests draw from a hot set of 32 plan texts (fits
//           the 64-entry plan cache), 20% from a cold space of >2,000
//           select-literal variants (misses). Loads server/*, the plan
//           cache, pdb/plan + pdb/columnar and pdb/compiler; the engine
//           and the WAL stay idle.
//   ingest  a 5k-row store with a WAL in group sync mode: 2 writers POST
//           insert-only /update deltas (1-4 incomplete tuples each, a
//           fixed count from a seeded sequence per writer) while 2
//           readers replay the hot set until the writers are done.
//           Loads core/delta, core/engine, pdb/wal, group commit and
//           plan-cache invalidation.
//   derive  batch derivation, no server: LearnModel on a 15k-row sample,
//           then a from-scratch BidStore::Commit of a 20k-row relation,
//           repeated. Loads the Gibbs engine and DAG partitioning; HTTP,
//           the evaluator and the WAL stay idle.
//
// Every workload reports the same end-to-end metric names (their meaning
// per workload is in perfbench/METRICS.md) and checks its outputs. With
// --trace 1 the run is followed by a layer replay: the benchmark calls
// each layer's public functions itself, with spans from util/trace
// around each call (spans are never passed into the library), and
// reports the per-layer metrics plus the share of the untraced mean
// operation time the replayed layers do not account for.
//
// The last line of stdout is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bn/bayes_net.h"
#include "bn/exact.h"
#include "core/delta.h"
#include "core/engine.h"
#include "core/learner.h"
#include "expfw/metrics.h"
#include "expfw/networks.h"
#include "pdb/compiler.h"
#include "pdb/plan.h"
#include "pdb/store.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

namespace mrsl {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload definition. Changing any of these changes the benchmark.
// ---------------------------------------------------------------------------

// The BN15 instance and the stored rows are fixed; --seed drives the
// Gibbs sampler's seed, the request streams (hot-set draws, the cold-plan
// stream) and the writers' deltas. Per-seed rows would change the
// subsumption components and the join selectivities, and with them every
// timing and the bounds widths, by more than the bounds allow.
constexpr uint64_t kNetworkSeed = 0xB15B15;
constexpr uint64_t kDataSeed = 0xDA7A;
constexpr double kSupport = 0.005;
constexpr double kIncompleteShare = 0.35;

constexpr size_t kQueryRows = 10000;       // query store
constexpr size_t kIngestRows = 5000;       // ingest store (initial)
constexpr size_t kDeriveTrainRows = 15000; // derive: LearnModel sample
constexpr size_t kDeriveRows = 20000;      // derive: committed relation

constexpr size_t kGibbsSamples = 600;
// Inference threads of derive's engine (0: the shared pool). On the
// shared pool one from-scratch commit took 2.3-3.3 s from one repeat to
// the next at a fixed seed, by when the giant component got a worker;
// on one thread, 3.0-3.4 s.
constexpr size_t kDeriveEngineThreads = 1;
constexpr size_t kGibbsBurnIn = 40;

constexpr size_t kClients = 4;        // closed-loop connections
constexpr size_t kIngestWriters = 2;  // of kClients, on ingest
// Each ingest writer posts a fixed number of deltas, this many per second
// of --seconds (sized from the acked rate on a 4-vCPU x86 host), so the
// relation grows the same way in every run at a given seed.
constexpr double kDeltasPerWriterSecond = 4.0;
constexpr double kHotShare = 0.8;
constexpr size_t kPlanCacheCapacity = 64;
constexpr size_t kSetupRepeats = 5;   // setup_s is their median

constexpr size_t kWidthJoins = 32;  // bounds_width list: 3 plans per join

// Layer-replay sizes (--trace 1).
constexpr size_t kReplayRequests = 200;
constexpr size_t kReplayDeltas = 4;

constexpr double kMassEpsilon = 1e-9;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// FNV-1a over a response body: the byte-identity check keeps hashes, not
// bodies (a relation answer can be hundreds of kilobytes).
uint64_t HashBytes(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The wire bytes HttpClient sends for one request (server/http.cc) —
// what the traced replay feeds to ParseHttpRequest.
std::string RequestBytes(const std::string& method, const std::string& target,
                         const std::string& body,
                         const std::string& content_type) {
  return method + " " + target + " HTTP/1.1\r\nHost: loopback\r\n" +
         "Content-Type: " + content_type + "\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

BayesNet Network() {
  auto spec = Must(NetworkByName("BN15"), "NetworkByName");
  Rng rng(kNetworkSeed);
  return BayesNet::RandomInstance(spec.topology, &rng);
}

// A forward sample with 1-2 cells punched out.
Tuple IncompleteTuple(const BayesNet& bn, Rng* rng) {
  Tuple t = bn.ForwardSample(rng);
  const size_t holes = rng->Bernoulli(0.3) ? 2 : 1;
  size_t punched = 0;
  while (punched < holes) {
    const AttrId a = static_cast<AttrId>(rng->UniformInt(t.num_attrs()));
    if (t.value(a) == kMissingValue) continue;
    t.set_value(a, kMissingValue);
    ++punched;
  }
  return t;
}

Relation IncompleteRelation(const BayesNet& bn, size_t rows, Rng* rng) {
  Relation rel(bn.MakeSchema());
  for (size_t i = 0; i < rows; ++i) {
    Tuple t = rng->Bernoulli(kIncompleteShare) ? IncompleteTuple(bn, rng)
                                               : bn.ForwardSample(rng);
    MustOk(rel.Append(std::move(t)), "Append");
  }
  return rel;
}

StoreOptions MakeStoreOptions(uint64_t sampler_seed) {
  StoreOptions so;
  so.workload.gibbs.seed = sampler_seed;
  so.workload.gibbs.samples = kGibbsSamples;
  so.workload.gibbs.burn_in = kGibbsBurnIn;
  so.plan_cache_capacity = kPlanCacheCapacity;
  return so;
}

// ---------------------------------------------------------------------------
// Plan texts.
// ---------------------------------------------------------------------------

struct PlanSpec {
  std::string text;   // POST body
  std::string target; // "/query" or "/query?width=0"
  std::string shape;  // select | count | exists | project | join | compiled
  bool compiled() const { return shape == "compiled"; }
};

class PlanSpace {
 public:
  explicit PlanSpace(const BayesNet& bn) : schema_(bn.MakeSchema()) {
    // Literal order per attribute: most frequent value first, from a
    // fixed-seed sample of the fixed network, so hot selections never
    // come back empty.
    Rng rng(kNetworkSeed + 1);
    Relation sample = bn.SampleRelation(4000, &rng);
    const size_t n = schema_.num_attrs();
    top_.resize(n);
    for (AttrId a = 0; a < n; ++a) {
      std::vector<std::pair<size_t, ValueId>> freq;
      for (size_t v = 0; v < schema_.attr(a).cardinality(); ++v) {
        freq.emplace_back(0, static_cast<ValueId>(v));
      }
      for (size_t r = 0; r < sample.num_rows(); ++r) {
        ++freq[sample.row(r).value(a)].first;
      }
      std::sort(freq.begin(), freq.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      for (const auto& f : freq) top_[a].push_back(f.second);
    }
    BuildHotSet();
  }

  const std::vector<PlanSpec>& hot() const { return hot_; }

  // The bounds-width list: kWidthJoins join variants, each as exists and
  // project under the plain evaluator (fixed dissociation) and as project
  // under the compiler at width=0. Compiled exists over a join is left
  // out: its lattice walk costs seconds. Per-plan widths are close to 0
  // or 1 depending on the data, so the mean needs many plans to be steady
  // across seeds. The hot joins are the first variants of this list.
  std::vector<PlanSpec> Unsafe() const {
    std::vector<PlanSpec> out;
    for (size_t k = 0; k < kWidthJoins; ++k) {
      out.push_back({"exists(" + Join(k) + ")", "/query", "join"});
      out.push_back({JoinProject(k), "/query", "join"});
      out.push_back({JoinProject(k), "/query?width=0", "compiled"});
    }
    return out;
  }

  // One draw from the cold space: a wrapper over a two-attribute
  // selection with uniform literals (4 x 15 x 36 = 2,160 texts, > 10x the
  // plan cache), never a hot text.
  PlanSpec Cold(Rng* rng) const {
    for (;;) {
      const size_t n = schema_.num_attrs();
      const AttrId a = static_cast<AttrId>(rng->UniformInt(n));
      AttrId b = static_cast<AttrId>(rng->UniformInt(n - 1));
      if (b >= a) ++b;
      const std::string sel =
          "select(" + Atom(std::min(a, b), Lit(std::min(a, b), rng)) + " & " +
          Atom(std::max(a, b), Lit(std::max(a, b), rng)) + "; scan)";
      PlanSpec p;
      p.target = "/query";
      switch (rng->UniformInt(4)) {
        case 0: p.shape = "select"; p.text = sel; break;
        case 1: p.shape = "count"; p.text = "count(" + sel + ")"; break;
        case 2: p.shape = "exists"; p.text = "exists(" + sel + ")"; break;
        default: {
          AttrId k = static_cast<AttrId>((std::max(a, b) + 1) % n);
          p.shape = "project";
          p.text = "project(" + Name(k) + "; " + sel + ")";
        }
      }
      if (hot_texts_.count(p.text) == 0) return p;
    }
  }

 private:
  std::string Name(AttrId a) const { return schema_.attr(a).name(); }
  std::string Label(AttrId a, size_t rank) const {
    return schema_.attr(a).label(top_[a][rank % top_[a].size()]);
  }
  std::string Lit(AttrId a, Rng* rng) const {
    return schema_.attr(a).label(
        static_cast<ValueId>(rng->UniformInt(schema_.attr(a).cardinality())));
  }
  std::string Atom(AttrId a, const std::string& label) const {
    return Name(a) + "=" + label;
  }
  std::string Atom(AttrId a, size_t rank) const {
    return Atom(a, Label(a, rank));
  }

  void Add(std::string shape, std::string text, bool compiled = false) {
    PlanSpec p;
    p.shape = std::move(shape);
    p.text = std::move(text);
    p.target = compiled ? "/query?width=0" : "/query";
    hot_texts_.insert(p.text);
    hot_.push_back(std::move(p));
  }

  // 32 texts: 6 each of select / count / exists / project over frequent
  // literals, 4 selective self-joins (unsafe: fixed dissociation), and 4
  // projections over joins compiled at ?width=0.
  void BuildHotSet() {
    const size_t n = schema_.num_attrs();
    for (size_t i = 0; i < 6; ++i) {
      const AttrId a = static_cast<AttrId>(i % n);
      const AttrId b = static_cast<AttrId>((i + 1) % n);
      const std::string sel = "select(" + Atom(std::min(a, b), i / 3) +
                              " & " + Atom(std::max(a, b), 0) + "; scan)";
      Add("select", sel);
      Add("count", "count(" + sel + ")");
      Add("exists", "exists(" + sel + ")");
      Add("project",
          "project(" + Name(static_cast<AttrId>((i + 3) % n)) + "; select(" +
              Atom(a, i / 3) + "; scan))");
    }
    Add("join", "exists(" + Join(0) + ")");
    Add("join", "exists(" + Join(1) + ")");
    Add("join", JoinProject(0));
    Add("join", JoinProject(1));
    for (size_t k = 0; k < 4; ++k) Add("compiled", JoinProject(k), true);
  }

  // Join variant k projected on the left side's A3, which the selections
  // leave free: one answer group per A3 value, each a disjunction over
  // pairs that share right-hand rows, so most groups are unsafe and the
  // compiler's factored phase runs on them. (Projecting a selected
  // attribute gives one group, exact already in the base evaluation.)
  std::string JoinProject(size_t k) const {
    return "project(" + Name(3) + "; " + Join(k) + ")";
  }

  // Join variant k (k < 81): three-atom selections on disjoint attributes
  // over mid-frequency literals (ranks 1-3, digits of k in base 3) keep
  // each input to a few hundred alternatives, and the key (a2) is
  // constrained on the left only, so a miss costs tens of milliseconds.
  // Blocks whose alternatives pass both sides correlate, so answers over
  // the join are dissociation bounds.
  std::string Join(size_t k) const {
    const std::string left = "select(" + Atom(0, 1 + k % 3) + " & " +
                             Atom(1, 1 + k / 3 % 3) + " & " +
                             Atom(2, k % 2) + "; scan)";
    const std::string right = "select(" + Atom(3, 1 + k / 9 % 3) + " & " +
                              Atom(4, 1 + k / 27 % 3) + " & " +
                              Atom(5, 2 + k % 2) + "; scan)";
    return "join(" + left + "; " + right + "; " + Name(2) + "=" + Name(2) +
           ")";
  }

  Schema schema_;
  std::vector<std::vector<ValueId>> top_;
  std::vector<PlanSpec> hot_;
  std::unordered_set<std::string> hot_texts_;
};

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

// Every probability interval in a /query body satisfies
// 0 <= lo <= hi <= 1; expected-count intervals satisfy 0 <= lo <= hi.
bool IntervalsValid(const std::string& body) {
  auto scan = [&body](const char* key, bool probability) {
    size_t pos = 0;
    const std::string needle = std::string("\"") + key + "\":{\"lo\":";
    while ((pos = body.find(needle, pos)) != std::string::npos) {
      pos += needle.size();
      char* end = nullptr;
      const double lo = std::strtod(body.c_str() + pos, &end);
      const size_t hi_at = body.find("\"hi\":", pos);
      if (hi_at == std::string::npos) return false;
      const double hi = std::strtod(body.c_str() + hi_at + 5, nullptr);
      if (!(lo >= 0.0 && lo <= hi)) return false;
      if (probability && hi > 1.0) return false;
    }
    return true;
  };
  return scan("p", true) && scan("exists", true) && scan("count", false);
}

// Bit-identity of two derived databases: same blocks, same alternatives,
// same probabilities (bitwise).
bool SameDatabase(const ProbDatabase& a, const ProbDatabase& b) {
  if (a.num_blocks() != b.num_blocks()) return false;
  for (size_t i = 0; i < a.num_blocks(); ++i) {
    const auto& x = a.block(i).alternatives;
    const auto& y = b.block(i).alternatives;
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (!(x[j].tuple == y[j].tuple)) return false;
      if (std::memcmp(&x[j].prob, &y[j].prob, sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool MassesValid(const ProbDatabase& db) {
  for (size_t i = 0; i < db.num_blocks(); ++i) {
    const double m = db.block(i).TotalMass();
    if (!(m >= 0.0 && m <= 1.0 + kMassEpsilon)) return false;
  }
  return true;
}

// Mean KL(TrueDistribution || derived Δt) over the distinct incomplete
// tuples of `snap`.
double MeanKl(const BayesNet& bn, const StoreSnapshot& snap) {
  AccuracyAccumulator acc;
  for (const auto& comp : snap.components()) {
    for (size_t i = 0; i < comp.tuples.size(); ++i) {
      JointDist truth =
          Must(TrueDistribution(bn, comp.tuples[i]), "TrueDistribution");
      acc.Add(KlDivergence(truth, *comp.dists[i]), false);
    }
  }
  return acc.MeanKl();
}

// Mean interval width over the unsafe plan list, each plan once, against
// the current epoch of `store` (plain plans: fixed dissociation; compiled
// plans: the width=0 envelope).
double BoundsWidth(BidStore* store, const std::vector<PlanSpec>& unsafe) {
  SnapshotPtr snap = store->snapshot();
  CompileOptions copts;
  double sum = 0.0;
  for (const PlanSpec& p : unsafe) {
    auto r = Must(store->QueryOn(snap, p.text, p.compiled() ? &copts : nullptr),
                  "bounds-width query");
    const PlanEvaluation& ev = *r.eval;
    double w = 0.0;
    if (ev.kind == ParsedQuery::Kind::kExists) {
      w = ev.exists.prob.hi - ev.exists.prob.lo;
    } else {
      for (const DistinctMarginal& m : ev.marginals) w += m.prob.hi - m.prob.lo;
      if (!ev.marginals.empty()) w /= static_cast<double>(ev.marginals.size());
    }
    sum += w;
  }
  return unsafe.empty() ? 0.0 : sum / static_cast<double>(unsafe.size());
}

// ---------------------------------------------------------------------------
// Result printing.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    ++failed_;
    ++attempted_;
    correct_ = false;
  }
  bool correct() const { return correct_ && failed_ == 0; }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::string out = "{\"correct\":";
    out += correct() ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(std::max<uint64_t>(attempted_, 1));
    out += ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) out += ",";
      out += "\"" + metrics_[i].name + "\":{\"value\":" + buf +
             ",\"unit\":\"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Span recording (--trace 1). One TraceContext per replayed operation;
// each layer call gets a child span named after its module.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  bool enabled = false;

  TraceSpan Begin(const std::string& op) {
    if (!enabled) return TraceSpan();
    traces_.push_back(std::make_shared<TraceContext>(NextTraceId(), op));
    return traces_.back()->root();
  }

  // Times `fn` under a child span of `parent` named `layer`, with the
  // called function as an attribute. `part_of` names the layer of a
  // sibling span whose call already runs this work inside itself (the
  // replay re-runs it to time it alone). Returns the call's wall seconds.
  template <typename Fn>
  static double Call(TraceSpan parent, const char* layer, const char* call,
                     Fn&& fn, const char* part_of = nullptr) {
    TraceSpan span = parent.StartChild(layer);
    span.SetAttr("call", std::string(call));
    if (part_of != nullptr) span.SetAttr("part_of", std::string(part_of));
    WallTimer t;
    fn();
    const double s = t.ElapsedSeconds();
    span.End();
    return s;
  }

  // Mean per-operation self time (ms) of each layer over the traces whose
  // root is `op`; the root's own self time is reported as "(gaps)". A
  // part_of span is listed as "<layer> (in <part_of>)" and left out of
  // `*covered_ms`, the mean time the layer spans account for.
  std::map<std::string, double> SelfMs(const std::string& op, size_t* ops,
                                       double* covered_ms) const {
    std::map<std::string, double> self;
    *ops = 0;
    *covered_ms = 0.0;
    for (const auto& t : traces_) {
      if (t->name() != op) continue;
      ++*ops;
      std::vector<TraceSpanData> spans = t->Snapshot();
      std::vector<double> child_ns(spans.size(), 0.0);
      for (const auto& s : spans) {
        if (s.parent != TraceContext::kNoParent) {
          child_ns[s.parent] += static_cast<double>(s.duration_ns);
        }
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        std::string name = i == 0 ? "(gaps)" : spans[i].name;
        bool part = false;
        for (const auto& [key, value] : spans[i].str_attrs) {
          if (key == "part_of") {
            name += " (in " + value + ")";
            part = true;
          }
        }
        const double ms =
            (static_cast<double>(spans[i].duration_ns) - child_ns[i]) / 1e6;
        self[name] += ms;
        if (i > 0 && !part) *covered_ms += ms;
      }
    }
    const double n = static_cast<double>(std::max<size_t>(*ops, 1));
    for (auto& [name, ms] : self) ms /= n;
    *covered_ms /= n;
    return self;
  }

  bool WriteChrome(const std::string& path) const {
    std::vector<std::shared_ptr<const TraceContext>> all(traces_.begin(),
                                                         traces_.end());
    std::ofstream out(path);
    out << TracesChromeJson(all);
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::shared_ptr<TraceContext>> traces_;
};

// What the replay measured around commits of one kind.
struct CommitSamples {
  std::vector<double> partition_ms, commit_ms, overhead_ms;
  double reinferred = 0.0, inserted = 0.0, infer_s = 0.0;
  uint64_t infer_tuples = 0, cpd_hits = 0, cpd_evals = 0;

  void Add(double partition_s, double commit_s, const CommitStats& stats,
           size_t inserted_tuples) {
    partition_ms.push_back(partition_s * 1e3);
    commit_ms.push_back(commit_s * 1e3);
    overhead_ms.push_back(
        (commit_s - partition_s - stats.inference.wall_seconds) * 1e3);
    reinferred += static_cast<double>(stats.tuples_reinferred);
    inserted += static_cast<double>(inserted_tuples);
    infer_s += stats.inference.wall_seconds;
    infer_tuples += stats.inference.distinct_tuples;
    cpd_hits += stats.inference.cache_hits;
    cpd_evals += stats.inference.cpd_evaluations;
  }
};

// Per-layer accumulators filled by the replay.
struct LayerSamples {
  std::vector<double> http_parse_us, http_render_us, healthz_rtt_us;
  std::vector<double> store_parse_us, store_hit_us;
  std::map<std::string, std::vector<double>> evaluate_ms;  // by shape
  double rows_in = 0.0, evaluate_s = 0.0;
  uint64_t peak_batch_bytes = 0;
  std::vector<double> compile_ms, worlds_expanded, width_final;
  CommitSamples derive;  // from-scratch derivations (setup, derive op)
  CommitSamples write;   // replayed delta commits
  std::vector<double> wal_sync_ms;
  double learn_s = 0.0;
};

// ---------------------------------------------------------------------------
// Derivation (learn + commit), shared by every workload's setup.
// ---------------------------------------------------------------------------

struct Derived {
  std::unique_ptr<MrslModel> model;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<BidStore> store;
  double learn_s = 0.0;
  double commit_s = 0.0;
  CommitStats stats;
};

std::unordered_set<std::vector<Tuple>, TupleVectorHash> ComponentSet(
    const StoreSnapshot* snap) {
  std::unordered_set<std::vector<Tuple>, TupleVectorHash> out;
  if (snap == nullptr) return out;
  for (const auto& c : snap->components()) out.insert(c.tuples);
  return out;
}

// Times PlanIncrementalDerivation over `rel`'s incomplete rows against
// the components of `parent` (null: from scratch) — the partition the
// store runs inside every commit, so its span is part of the commit's.
double TimePartition(const Relation& rel, const StoreSnapshot* parent,
                     TraceSpan op) {
  std::vector<Tuple> workload;
  for (uint32_t r : rel.IncompleteRowIndices()) workload.push_back(rel.row(r));
  const auto clean = ComponentSet(parent);
  return Tracer::Call(
      op, "core.delta", "PlanIncrementalDerivation",
      [&] {
        IncrementalPlan plan = PlanIncrementalDerivation(
            workload, [&clean](const std::vector<Tuple>& c) {
              return clean.count(c) != 0;
            });
        if (plan.components.empty() && !workload.empty()) Die("empty partition");
      },
      "pdb.store");
}

Derived Derive(const Relation& train, const Relation& rel,
               uint64_t sampler_seed, size_t engine_threads, TraceSpan op,
               LayerSamples* layers) {
  Derived d;
  LearnOptions lo;
  lo.support_threshold = kSupport;
  d.learn_s = Tracer::Call(op, "core.learner", "LearnModel", [&] {
    d.model = std::make_unique<MrslModel>(Must(LearnModel(train, lo), "LearnModel"));
  });
  EngineOptions eo;
  eo.num_threads = engine_threads;
  d.engine = std::make_unique<Engine>(d.model.get(), eo);
  d.store = std::make_unique<BidStore>(d.engine.get(),
                                       MakeStoreOptions(sampler_seed));
  const double partition_s =
      op.active() ? TimePartition(rel, nullptr, op) : 0.0;
  d.commit_s = Tracer::Call(op, "pdb.store", "BidStore::Commit", [&] {
    d.stats = Must(d.store->Commit(rel), "Commit");
  });
  if (op.active()) {
    layers->learn_s = d.learn_s;
    layers->derive.Add(partition_s, d.commit_s, d.stats,
                       rel.IncompleteRowIndices().size());
  }
  op.End();
  return d;
}

size_t MaxComponentTuples(const StoreSnapshot& snap) {
  size_t m = 0;
  for (const auto& c : snap.components()) m = std::max(m, c.tuples.size());
  return m;
}

// ---------------------------------------------------------------------------
// The serving system: a derived store behind HttpServer + StoreService.
// ---------------------------------------------------------------------------

struct Serving {
  Derived derived;
  std::string wal_dir;  // empty: no WAL
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<StoreService> service;

  BidStore* store() { return derived.store.get(); }
  ~Serving() {
    if (server) server->Stop();
    if (!wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir, ec);
    }
  }
};

// Puts `s`'s derived store behind HttpServer + StoreService and requests
// each of `warm` once, so those plans are cached.
void StartServer(Serving* s, const std::vector<PlanSpec>& warm) {
  ServerOptions so;
  so.max_inflight = 256;
  s->server = std::make_unique<HttpServer>(so);
  s->service = std::make_unique<StoreService>(s->store());
  s->service->Attach(s->server.get());
  MustOk(s->server->Start(), "HttpServer::Start");
  HttpClient client;
  MustOk(client.Connect("127.0.0.1", s->server->port()), "Connect");
  for (const PlanSpec& p : warm) {
    auto resp = Must(client.RoundTrip("POST", p.target, p.text), "warm query");
    if (resp.status != 200) Die("warm query " + p.text + ": " + resp.body);
  }
}

std::unique_ptr<Serving> StartServing(const Relation& base,
                                      uint64_t sampler_seed,
                                      const std::string& wal_dir,
                                      const std::vector<PlanSpec>& warm,
                                      TraceSpan op, LayerSamples* layers) {
  auto s = std::make_unique<Serving>();
  s->derived = Derive(base, base, sampler_seed, 0, op, layers);
  if (!wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    s->wal_dir = wal_dir;
    Must(s->store()->OpenWal(wal_dir, WalSyncMode::kGroup), "OpenWal");
  }
  StartServer(s.get(), warm);
  return s;
}

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

struct ReadLogEntry {
  const PlanSpec* plan = nullptr;
  PlanSpec cold;  // owned copy when the request was cold
  bool hit = false;
  double ms = 0.0;
};

struct ClientLog {
  std::vector<double> ms;       // latency of answered requests
  std::vector<double> miss_ms;  // subset: plan-cache misses
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  // (epoch, text) -> body hash, for the byte-identity check.
  std::map<std::pair<uint64_t, std::string>, uint64_t> bodies;
  std::vector<ReadLogEntry> log;  // first kReplayRequests requests
  std::vector<Tuple> acked_inserts;
};

void ReadLoop(uint16_t port, const std::vector<PlanSpec>& hot,
              const PlanSpace& space, uint64_t seed, double hot_share,
              const std::atomic<bool>* stop, ClientLog* out) {
  Rng rng(seed);
  HttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    out->attempted = out->failed = 1;
    out->problems.push_back("connect failed");
    return;
  }
  while (!stop->load()) {
    ReadLogEntry e;
    if (rng.Bernoulli(hot_share)) {
      e.plan = &hot[rng.UniformInt(hot.size())];
    } else {
      e.cold = space.Cold(&rng);
    }
    const PlanSpec& p = e.plan != nullptr ? *e.plan : e.cold;
    ++out->attempted;
    WallTimer one;
    auto resp = client.RoundTrip("POST", p.target, p.text);
    const double ms = one.ElapsedMillis();
    if (!resp.ok() || resp->status != 200) {
      ++out->failed;
      if (out->problems.size() < 5) {
        out->problems.push_back(p.text + ": " +
                                (resp.ok() ? resp->body : resp.status().ToString()));
      }
      if (!resp.ok()) return;
      continue;
    }
    const uint64_t epoch =
        std::strtoull(resp->Header("x-mrsl-epoch", "0").c_str(), nullptr, 10);
    const uint64_t h = HashBytes(resp->body);
    auto [it, inserted] =
        out->bodies.emplace(std::make_pair(epoch, p.target + " " + p.text), h);
    if (!inserted && it->second != h) {
      ++out->failed;
      out->problems.push_back("body changed at a fixed epoch: " + p.text);
      continue;
    }
    if (!IntervalsValid(resp->body)) {
      ++out->failed;
      out->problems.push_back("interval outside [0,1] or lo > hi: " + p.text);
      continue;
    }
    e.hit = resp->Header("x-mrsl-cache", "") == "hit";
    e.ms = ms;
    out->ms.push_back(ms);
    if (!e.hit) out->miss_ms.push_back(ms);
    if (out->log.size() < kReplayRequests) out->log.push_back(std::move(e));
  }
}

std::string DeltaCsv(const Schema& schema, const std::vector<Tuple>& inserts) {
  std::string csv = "op,row";
  for (AttrId a = 0; a < schema.num_attrs(); ++a) csv += "," + schema.attr(a).name();
  csv += "\n";
  for (const Tuple& t : inserts) {
    csv += "insert,";
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      const ValueId v = t.value(a);
      csv += ",";
      csv += v == kMissingValue ? "?" : schema.attr(a).label(v);
    }
    csv += "\n";
  }
  return csv;
}

// Writer w's seeded delta sequence: 1-4 incomplete inserts per delta.
class DeltaStream {
 public:
  DeltaStream(const BayesNet* bn, uint64_t seed) : bn_(bn), rng_(seed) {}
  std::vector<Tuple> Next() {
    std::vector<Tuple> inserts(1 + rng_.UniformInt(4));
    for (Tuple& t : inserts) t = IncompleteTuple(*bn_, &rng_);
    return inserts;
  }

 private:
  const BayesNet* bn_;
  Rng rng_;
};

void WriteLoop(uint16_t port, const BayesNet& bn, uint64_t seed,
               size_t count, ClientLog* out) {
  const Schema schema = bn.MakeSchema();
  DeltaStream deltas(&bn, seed);
  HttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    out->attempted = out->failed = 1;
    out->problems.push_back("connect failed");
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    std::vector<Tuple> inserts = deltas.Next();
    const std::string csv = DeltaCsv(schema, inserts);
    ++out->attempted;
    WallTimer one;
    auto resp = client.RoundTrip("POST", "/update", csv, "text/csv");
    const double ms = one.ElapsedMillis();
    if (!resp.ok() || resp->status != 200) {
      ++out->failed;
      if (out->problems.size() < 5) {
        out->problems.push_back("/update: " + (resp.ok() ? resp->body
                                                         : resp.status().ToString()));
      }
      if (!resp.ok()) return;
      continue;
    }
    out->ms.push_back(ms);
    out->acked_inserts.insert(out->acked_inserts.end(), inserts.begin(),
                              inserts.end());
  }
}

// Sum/count of a histogram in a Prometheus text scrape.
std::pair<double, double> ScrapeHistogram(uint16_t port, const std::string& name) {
  HttpClient client;
  MustOk(client.Connect("127.0.0.1", port), "Connect");
  auto resp = Must(client.RoundTrip("GET", "/metrics"), "GET /metrics");
  auto value = [&resp](const std::string& series) {
    const size_t at = resp.body.find("\n" + series + " ");
    return at == std::string::npos
               ? 0.0
               : std::atof(resp.body.c_str() + at + series.size() + 2);
  };
  return {value(name + "_sum"), value(name + "_count")};
}

// The serving stack's public counters at one moment.
struct Counters {
  uint64_t epoch = 0;
  std::pair<double, double> batch;  // mrsl_query_batch_size sum, count
  PlanCache::Stats cache;
  WalStats wal;
  uint64_t served = 0;
  uint64_t shed = 0;
};

Counters ReadCounters(Serving* s) {
  Counters c;
  c.epoch = s->store()->epoch();
  c.batch = ScrapeHistogram(s->server->port(), "mrsl_query_batch_size");
  c.cache = s->store()->plan_cache().stats();
  c.wal = s->store()->wal_stats();
  c.served = s->server->requests_served();
  c.shed = s->server->requests_shed();
  return c;
}

// Per-layer serving numbers over a window. The write-side fields stay 0
// when the window acked no updates; the write replay fills them then.
struct ServingStats {
  double shed_frac = 0.0;
  double batch_mean = 0.0;
  double hit_ratio = 0.0;
  double invalidated_per_commit = 0.0;
  double updates_per_fsync = 0.0;
  double wal_bytes_per_update = 0.0;
};

ServingStats Between(const Counters& a, const Counters& b, size_t acked) {
  ServingStats s;
  const double served = static_cast<double>(b.served - a.served);
  const double shed = static_cast<double>(b.shed - a.shed);
  s.shed_frac = served + shed > 0 ? shed / (served + shed) : 0.0;
  const double batches = b.batch.second - a.batch.second;
  s.batch_mean = batches > 0 ? (b.batch.first - a.batch.first) / batches : 0.0;
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  s.hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double commits = static_cast<double>(b.epoch - a.epoch);
  if (acked > 0 && commits > 0) {
    s.invalidated_per_commit =
        static_cast<double>(b.cache.invalidated - a.cache.invalidated) / commits;
    s.updates_per_fsync =
        static_cast<double>(acked) /
        std::max(1.0, static_cast<double>(b.wal.syncs - a.wal.syncs));
    s.wal_bytes_per_update =
        static_cast<double>(b.wal.bytes_appended - a.wal.bytes_appended) /
        static_cast<double>(acked);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Layer replay (--trace 1).
// ---------------------------------------------------------------------------

struct ReplayContext {
  Tracer* tracer;
  LayerSamples* layers;
};

// Microseconds ParseHttpRequest takes over the wire bytes of one request.
double TimeHttpParse(TraceSpan op, const std::string& target,
                     const std::string& body, const std::string& content_type) {
  const std::string bytes = RequestBytes("POST", target, body, content_type);
  return 1e6 * Tracer::Call(op, "server.http", "ParseHttpRequest", [&] {
    HttpRequest req;
    size_t consumed = 0;
    std::string err;
    if (ParseHttpRequest(bytes, &req, &consumed, &err) != HttpParseState::kDone) {
      Die("replay parse: " + err);
    }
  });
}

// Microseconds SerializeHttpResponse takes over a 200 with `body`.
double TimeHttpRender(TraceSpan op, const std::string& body) {
  HttpResponse resp;
  resp.body = body;
  return 1e6 * Tracer::Call(op, "server.http", "SerializeHttpResponse", [&] {
    if (SerializeHttpResponse(resp, true).size() < body.size()) {
      Die("short render");
    }
  });
}

// One read request replayed through the layers it crosses: HTTP parse,
// then the store (a hit) or the evaluator / compiler (a miss), then HTTP
// render of the response body.
void ReplayRead(ReplayContext* rc, const char* op_name, BidStore* store,
                const ProbDatabase& db, const PlanSpec& p, bool hit,
                const std::string& body) {
  LayerSamples* L = rc->layers;
  TraceSpan op = rc->tracer->Begin(op_name);
  L->http_parse_us.push_back(TimeHttpParse(op, p.target, p.text, "text/plain"));
  const std::vector<const ProbDatabase*> sources = {&db};
  CompileOptions copts;
  if (hit) {
    StoreQueryResult r;
    const double s = Tracer::Call(op, "pdb.store", "BidStore::QueryOn", [&] {
      r = Must(store->QueryOn(store->snapshot(), p.text,
                              p.compiled() ? &copts : nullptr),
               "replay QueryOn");
    });
    L->store_hit_us.push_back(s * 1e6);
    L->store_parse_us.push_back(r.stages.parse_seconds * 1e6);
  } else if (p.compiled()) {
    CompiledQuery cq;
    PlanResources res;
    const double s = Tracer::Call(op, "pdb.compiler", "CompileQuery", [&] {
      ParsedQuery q = Must(ParsePlan(p.text, sources), "ParsePlan");
      copts.want_exists = q.kind == ParsedQuery::Kind::kExists;
      copts.want_count = q.kind == ParsedQuery::Kind::kCount;
      cq = Must(CompileQuery(*q.plan, sources, copts, TraceSpan(), &res),
                "CompileQuery");
    });
    L->compile_ms.push_back(s * 1e3);
    L->worlds_expanded.push_back(static_cast<double>(cq.stats.worlds_expanded));
    L->width_final.push_back(cq.stats.mean_width_final);  } else {
    PlanResources res;
    size_t scans = 0;
    const double s = Tracer::Call(op, "pdb.plan", "EvaluatePlan", [&] {
      ParsedQuery q = Must(ParsePlan(p.text, sources), "ParsePlan");
      PlanResult result =
          Must(EvaluatePlan(*q.plan, sources, TraceSpan(), &res), "EvaluatePlan");
      switch (q.kind) {
        case ParsedQuery::Kind::kRelation:
          (void)DistinctMarginals(result, sources);
          break;
        case ParsedQuery::Kind::kExists:
          (void)ExistsFromResult(result, sources);
          break;
        case ParsedQuery::Kind::kCount:
          (void)CountFromResult(result, sources);
          break;
      }
      std::function<void(const PlanNode&)> count_scans = [&](const PlanNode& n) {
        if (n.op == PlanNode::Op::kScan) ++scans;
        if (n.left) count_scans(*n.left);
        if (n.right) count_scans(*n.right);
      };
      count_scans(*q.plan);
    });
    size_t alternatives = 0;
    for (size_t b = 0; b < db.num_blocks(); ++b) {
      alternatives += db.block(b).alternatives.size();
    }
    L->evaluate_ms[p.shape].push_back(s * 1e3);
    L->rows_in += static_cast<double>(scans * alternatives);
    L->evaluate_s += s;
    L->peak_batch_bytes = std::max(L->peak_batch_bytes, res.peak_batch_bytes);
  }
  L->http_render_us.push_back(TimeHttpRender(op, body));
  op.End();
}

// The write path replayed on a side store over `base`: from-scratch
// commit, hot set cached, WAL in group mode, then kReplayDeltas deltas
// each through HTTP parse, delta CSV parse, partition, ApplyDelta, the
// group-commit fsync and HTTP render. When `write_stats` is given (the
// live run acked no updates), its write-side fields are filled from the
// side store's plan cache and WAL.
void ReplayWrites(ReplayContext* rc, Engine* engine,
                  const StoreOptions& options, const Relation& base,
                  const BayesNet& bn, const PlanSpace& space, uint64_t seed,
                  const std::string& wal_dir, ServingStats* write_stats) {
  LayerSamples* L = rc->layers;
  BidStore side(engine, options);
  Must(side.Commit(base), "side Commit");
  CompileOptions copts;
  for (const PlanSpec& p : space.hot()) {
    if (p.compiled()) {
      Must(side.Query(p.text, copts), "side warm");
    } else {
      Must(side.Query(p.text), "side warm");
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  Must(side.OpenWal(wal_dir, WalSyncMode::kGroup), "side OpenWal");
  const PlanCache::Stats before = side.plan_cache().stats();
  const Schema schema = bn.MakeSchema();
  DeltaStream deltas(&bn, seed);
  for (size_t i = 0; i < kReplayDeltas; ++i) {
    const std::vector<Tuple> inserts = deltas.Next();
    const std::string csv = DeltaCsv(schema, inserts);
    TraceSpan op = rc->tracer->Begin("write");
    L->http_parse_us.push_back(TimeHttpParse(op, "/update", csv, "text/csv"));
    RelationDelta delta;
    Tracer::Call(op, "core.delta", "ParseDeltaCsv", [&] {
      delta = Must(ParseDeltaCsv(schema, csv), "ParseDeltaCsv");
    });
    SnapshotPtr parent = side.snapshot();
    Relation next = Must(ApplyDelta(parent->base(), delta), "ApplyDelta(rel)");
    const double partition_s = TimePartition(next, parent.get(), op);
    CommitStats stats;
    const double commit_s = Tracer::Call(op, "pdb.store", "BidStore::ApplyDelta", [&] {
      stats = Must(side.ApplyDelta(delta), "side ApplyDelta");
    });
    const double sync_s = Tracer::Call(op, "pdb.wal", "BidStore::SyncWal", [&] {
      MustOk(side.SyncWal(), "SyncWal");
    });
    L->http_render_us.push_back(TimeHttpRender(
        op, "{\"epoch\":" + std::to_string(stats.epoch) +
                ",\"tuples_reinferred\":" +
                std::to_string(stats.tuples_reinferred) + "}\n"));
    op.End();
    L->write.Add(partition_s, commit_s, stats, inserts.size());
    L->wal_sync_ms.push_back(sync_s * 1e3);
  }
  if (write_stats != nullptr) {
    const PlanCache::Stats after = side.plan_cache().stats();
    const WalStats wal = side.wal_stats();
    write_stats->invalidated_per_commit =
        static_cast<double>(after.invalidated - before.invalidated) / kReplayDeltas;
    write_stats->updates_per_fsync =
        static_cast<double>(kReplayDeltas) /
        static_cast<double>(std::max<uint64_t>(wal.syncs, 1));
    write_stats->wal_bytes_per_update =
        static_cast<double>(wal.bytes_appended) / kReplayDeltas;
  }
  std::filesystem::remove_all(wal_dir, ec);
}

// The read side of the replay: the hot set as misses (direct evaluation)
// and as hits (through the store's cache), plus `logged` — requests
// replayed as they were served in the live run (hit or miss) — and a few
// /healthz round trips. Bodies come from the live server.
void ReplayReads(ReplayContext* rc, Serving* serving, const PlanSpace& space,
                 const std::vector<ReadLogEntry>& logged) {
  HttpClient client;
  MustOk(client.Connect("127.0.0.1", serving->server->port()), "Connect");
  auto body_of = [&client](const PlanSpec& p) {
    return Must(client.RoundTrip("POST", p.target, p.text), "replay fetch").body;
  };
  BidStore* store = serving->store();
  SnapshotPtr snap = store->snapshot();
  for (const PlanSpec& p : space.hot()) {
    const std::string body = body_of(p);  // also leaves the plan cached
    ReplayRead(rc, "probe", store, snap->database(), p, /*hit=*/false, body);
    ReplayRead(rc, "probe", store, snap->database(), p, /*hit=*/true, body);
  }
  for (const ReadLogEntry& e : logged) {
    const PlanSpec& p = e.plan != nullptr ? *e.plan : e.cold;
    const std::string body = body_of(p);
    ReplayRead(rc, "read", store, snap->database(), p, e.hit, body);
  }
  for (int i = 0; i < 50; ++i) {
    WallTimer t;
    auto resp = Must(client.RoundTrip("GET", "/healthz"), "healthz");
    if (resp.status != 200) Die("healthz");
    rc->layers->healthz_rtt_us.push_back(t.ElapsedSeconds() * 1e6);
  }
}

void ReportLayers(const LayerSamples& L, const ServingStats& serving,
                  const StoreSnapshot& main, bool derive_workload,
                  double unaccounted, Report* report) {
  auto mean = [](const std::vector<double>& v) { return Mean(v); };
  report->Add("http.parse_us", mean(L.http_parse_us), "us");
  report->Add("http.render_us", mean(L.http_render_us), "us");
  report->Add("server.healthz_rtt_us", Percentile(L.healthz_rtt_us, 0.5), "us");
  report->Add("server.shed_frac", serving.shed_frac, "fraction");
  report->Add("service.query_batch_mean", serving.batch_mean, "plans");
  report->Add("service.updates_per_fsync", serving.updates_per_fsync, "updates");
  report->Add("plan_cache.hit_ratio", serving.hit_ratio, "fraction");
  report->Add("plan_cache.invalidated_per_commit",
              serving.invalidated_per_commit, "entries");
  report->Add("store.parse_us", mean(L.store_parse_us), "us");
  report->Add("store.hit_us", mean(L.store_hit_us), "us");
  std::vector<double> all_eval;
  for (const char* shape : {"select", "count", "exists", "project", "join"}) {
    auto it = L.evaluate_ms.find(shape);
    const std::vector<double> none;
    const auto& v = it == L.evaluate_ms.end() ? none : it->second;
    all_eval.insert(all_eval.end(), v.begin(), v.end());
    report->Add(std::string("plan.evaluate_ms.") + shape, mean(v), "ms");
  }
  report->Add("plan.evaluate_ms", mean(all_eval), "ms");
  report->Add("plan.rows_in_per_s", L.evaluate_s > 0 ? L.rows_in / L.evaluate_s : 0,
              "1/s");
  report->Add("plan.peak_batch_bytes", static_cast<double>(L.peak_batch_bytes),
              "bytes");
  report->Add("compiler.compile_ms", mean(L.compile_ms), "ms");
  report->Add("compiler.worlds_expanded", mean(L.worlds_expanded), "count");
  report->Add("compiler.width_final", mean(L.width_final), "probability");
  // Commit-path metrics describe the workload's own commits: derivations
  // on derive, the replayed delta commits elsewhere.
  const CommitSamples& C = derive_workload ? L.derive : L.write;
  report->Add("delta.partition_ms", mean(C.partition_ms), "ms");
  report->Add("engine.tuples_per_s",
              C.infer_s > 0 ? static_cast<double>(C.infer_tuples) / C.infer_s : 0,
              "1/s");
  report->Add("engine.cpd_cache_hit_ratio",
              C.cpd_hits + C.cpd_evals > 0
                  ? static_cast<double>(C.cpd_hits) /
                        static_cast<double>(C.cpd_hits + C.cpd_evals)
                  : 0.0,
              "fraction");
  report->Add("engine.max_component_tuples",
              static_cast<double>(MaxComponentTuples(main)), "tuples");
  report->Add("store.commit_ms", mean(C.commit_ms), "ms");
  report->Add("store.commit_overhead_ms", mean(C.overhead_ms), "ms");
  report->Add("store.reinfer_amplification",
              C.inserted > 0 ? C.reinferred / C.inserted : 0.0, "ratio");
  report->Add("wal.sync_ms", mean(L.wal_sync_ms), "ms");
  report->Add("wal.bytes_per_update", serving.wal_bytes_per_update, "bytes");
  report->Add("learner.learn_s", L.learn_s, "s");
  report->Add("trace.unaccounted_frac", unaccounted, "fraction");
}

// Prints the per-layer self-time table of one op class and returns the
// share of `untraced_ms` (the live run's mean op time; 0: the op class
// has no untraced counterpart) the layer spans do not cover.
double PrintSelfTimes(const Tracer& tracer, const std::string& op,
                      double untraced_ms) {
  size_t ops = 0;
  double layers_ms = 0.0;
  const auto self = tracer.SelfMs(op, &ops, &layers_ms);
  std::fprintf(stderr, "self time per '%s' op (%zu replayed ops):\n", op.c_str(), ops);
  for (const auto& [name, ms] : self) {
    std::fprintf(stderr, "  %-26s %12.4f ms\n", name.c_str(), ms);
  }
  std::fprintf(stderr, "  layers cover %.4f ms", layers_ms);
  if (untraced_ms <= 0) {
    std::fprintf(stderr, "\n");
    return 0.0;
  }
  const double unaccounted = std::max(0.0, 1.0 - layers_ms / untraced_ms);
  std::fprintf(stderr, " of an untraced mean %.4f ms; unaccounted %.3f\n",
               untraced_ms, unaccounted);
  return unaccounted;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

uint64_t Stream(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1;
}

void MergeLogs(const std::vector<ClientLog>& logs, size_t begin, size_t end,
               std::vector<double>* ms, std::vector<double>* miss_ms,
               Report* report) {
  std::map<std::pair<uint64_t, std::string>, uint64_t> bodies;
  for (size_t c = begin; c < end; ++c) {
    const ClientLog& log = logs[c];
    report->CountOps(log.attempted, log.failed);
    for (const std::string& p : log.problems) {
      std::fprintf(stderr, "perfbench: client %zu: %s\n", c, p.c_str());
    }
    ms->insert(ms->end(), log.ms.begin(), log.ms.end());
    if (miss_ms) miss_ms->insert(miss_ms->end(), log.miss_ms.begin(), log.miss_ms.end());
    for (const auto& [key, h] : log.bodies) {
      auto [it, inserted] = bodies.emplace(key, h);
      if (!inserted && it->second != h) {
        report->Fail("clients saw different bodies at one epoch: " + key.second);
      }
    }
  }
}

// query and ingest.
int RunServing(const Args& args, bool ingest) {
  Report report;
  const BayesNet bn = Network();
  const PlanSpace space(bn);
  const std::string wal_dir =
      ingest ? args.workdir + "/wal-" + std::to_string(::getpid()) : "";
  // The plans the readers replay. Ingest's readers leave out the compiled
  // plans: on the growing store each post-commit miss re-runs a lattice
  // walk of 50-100+ ms whose cost depends on the epoch it lands on, which
  // spread the readers' p99 by 40-90% across seeds.
  std::vector<PlanSpec> hot;
  for (const PlanSpec& p : space.hot()) {
    if (!ingest || !p.compiled()) hot.push_back(p);
  }

  // Setup, kSetupRepeats times: generate, learn, derive, start the
  // server, open the WAL, warm the readers' plans. The last instance
  // serves.
  Tracer tracer;
  tracer.enabled = args.trace;
  LayerSamples layers;
  std::vector<double> setup_s;
  std::unique_ptr<Serving> serving;
  Relation base;
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    serving.reset();
    WallTimer t;
    Rng rng(kDataSeed);
    base = IncompleteRelation(bn, ingest ? kIngestRows : kQueryRows, &rng);
    serving = StartServing(base, args.seed, wal_dir, hot,
                           tracer.Begin("derive"), &layers);
    setup_s.push_back(t.ElapsedSeconds());
  }
  BidStore* store = serving->store();
  const uint16_t port = serving->server->port();
  const Counters before = ReadCounters(serving.get());

  // The live run. Readers run for --seconds on query, and until the
  // writers have posted their fixed count on ingest.
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  const size_t writers = ingest ? kIngestWriters : 0;
  const size_t deltas_per_writer = std::max<size_t>(
      1, static_cast<size_t>(std::lround(kDeltasPerWriterSecond * args.seconds)));
  std::atomic<bool> stop{false};
  WallTimer wall;
  for (size_t c = 0; c < kClients; ++c) {
    if (c < writers) {
      threads.emplace_back(WriteLoop, port, std::cref(bn), Stream(args.seed, 100 + c),
                           deltas_per_writer, &logs[c]);
    } else {
      threads.emplace_back(ReadLoop, port, std::cref(hot), std::cref(space),
                           Stream(args.seed, 200 + c), ingest ? 1.0 : kHotShare,
                           &stop, &logs[c]);
    }
  }
  for (size_t c = 0; c < writers; ++c) threads[c].join();
  if (!ingest) std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
  const double elapsed = wall.ElapsedSeconds();
  stop.store(true);
  for (size_t c = writers; c < kClients; ++c) threads[c].join();

  std::vector<double> read_ms, miss_ms, write_ms;
  MergeLogs(logs, writers, kClients, &read_ms, &miss_ms, &report);
  MergeLogs(logs, 0, writers, &write_ms, nullptr, &report);

  // Checks.
  SnapshotPtr final_snap = store->snapshot();
  if (!ingest && final_snap->epoch() != before.epoch) {
    report.Fail("epoch moved on a read-only workload");
  }
  if (!MassesValid(final_snap->database())) report.Fail("block mass > 1");
  if (ingest) {
    std::vector<Tuple> acked;
    for (size_t c = 0; c < writers; ++c) {
      acked.insert(acked.end(), logs[c].acked_inserts.begin(),
                   logs[c].acked_inserts.end());
    }
    const Relation& fb = final_snap->base();
    bool rows_ok = fb.num_rows() == base.num_rows() + acked.size();
    for (size_t r = 0; rows_ok && r < base.num_rows(); ++r) {
      rows_ok = fb.row(r) == base.row(r);
    }
    if (rows_ok) {
      std::unordered_map<Tuple, int64_t, TupleHash> pending;
      for (const Tuple& t : acked) ++pending[t];
      for (size_t r = base.num_rows(); r < fb.num_rows(); ++r) --pending[fb.row(r)];
      for (const auto& [t, n] : pending) rows_ok = rows_ok && n == 0;
    }
    if (!rows_ok) report.Fail("final base != initial rows + acked inserts");
    BidStore fresh(serving->derived.engine.get(), store->options());
    Must(fresh.Commit(fb), "from-scratch Commit");
    if (!SameDatabase(fresh.snapshot()->database(), final_snap->database())) {
      report.Fail("final epoch differs from a from-scratch derivation");
    }
  }

  if (!args.trace) {
    const std::vector<double>& primary = ingest ? write_ms : read_ms;
    report.Add("setup_s", Percentile(setup_s, 0.5), "s");
    report.Add("throughput_per_s", static_cast<double>(primary.size()) / elapsed, "1/s");
    report.Add("latency_ms", Percentile(primary, 0.5), "ms");
    report.Add("latency_tail_ms", Percentile(primary, ingest ? 0.9 : 0.99), "ms");
    report.Add("bounds_width", BoundsWidth(store, space.Unsafe()), "probability");
    report.Add("kl_nats", MeanKl(bn, *final_snap), "nats");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    std::fprintf(stderr, "perfbench %s: %zu reads (%zu misses), %zu acked updates in %.2fs\n",
                 args.workload.c_str(), read_ms.size(), miss_ms.size(),
                 write_ms.size(), elapsed);
  } else {
    ServingStats stats =
        Between(before, ReadCounters(serving.get()), write_ms.size());
    ReplayContext rc{&tracer, &layers};
    const ClientLog& reader = logs[writers];
    ReplayReads(&rc, serving.get(), space, reader.log);
    ReplayWrites(&rc, serving->derived.engine.get(), store->options(),
                 final_snap->base(), bn, space, Stream(args.seed, 300),
                 args.workdir + "/wal-replay-" + std::to_string(::getpid()),
                 ingest ? nullptr : &stats);
    // The primary op's untraced mean against its replayed layer chain.
    double unaccounted = 0.0;
    if (ingest) {
      unaccounted = PrintSelfTimes(tracer, "write", Mean(write_ms));
    } else {
      // Only the replayed live-log requests ("read") sample the served
      // mix; the hot-set probes are their own op class.
      std::vector<double> logged_ms;
      for (const ReadLogEntry& e : reader.log) logged_ms.push_back(e.ms);
      unaccounted = PrintSelfTimes(tracer, "read", Mean(logged_ms));
    }
    PrintSelfTimes(tracer, "derive", 0.0);
    ReportLayers(layers, stats, *final_snap, false, unaccounted, &report);
    const std::string path = args.workdir + "/trace-" + args.workload + ".json";
    if (tracer.WriteChrome(path)) std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

int RunDerive(const Args& args) {
  Report report;
  const BayesNet bn = Network();
  Tracer tracer;
  tracer.enabled = args.trace;
  LayerSamples layers;

  // Setup: generate the inputs and run the reference derivation (the
  // bit-identity baseline), kSetupRepeats times.
  std::vector<double> setup_s;
  Relation train, rel;
  std::unique_ptr<Derived> reference;
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    reference.reset();
    WallTimer t;
    Rng rng(kDataSeed + 1);
    train = bn.SampleRelation(kDeriveTrainRows, &rng);
    rel = IncompleteRelation(bn, kDeriveRows, &rng);
    reference = std::make_unique<Derived>(
        Derive(train, rel, args.seed, kDeriveEngineThreads,
               tracer.Begin("derive"), &layers));
    setup_s.push_back(t.ElapsedSeconds());
  }
  const SnapshotPtr ref_snap = reference->store->snapshot();
  const StoreSnapshot& ref = *ref_snap;
  if (!MassesValid(ref.database())) report.Fail("block mass > 1");
  report.CountOp(true);

  // The live run: repeated from-scratch derivations.
  std::vector<double> derive_ms, rates;
  WallTimer window;
  while (window.ElapsedSeconds() < args.seconds) {
    WallTimer t;
    Derived d = Derive(train, rel, args.seed, kDeriveEngineThreads, TraceSpan(),
                       nullptr);
    const double s = t.ElapsedSeconds();
    if (!SameDatabase(d.store->snapshot()->database(), ref.database())) {
      report.Fail("repeated derivation at the same seed is not bit-identical");
      continue;
    }
    report.CountOp(true);
    derive_ms.push_back(s * 1e3);
    rates.push_back(static_cast<double>(d.stats.tuples_total) / s);
  }

  if (!args.trace) {
    report.Add("setup_s", Percentile(setup_s, 0.5), "s");
    // Best of the run's repeats: on a shared host a single-threaded
    // derivation's median moved 15-20% between runs with the load of the
    // other tenants; its fastest repeat moved 7%.
    report.Add("throughput_per_s", Percentile(rates, 1.0), "1/s");
    report.Add("latency_ms", Percentile(derive_ms, 0.0), "ms");
    report.Add("latency_tail_ms", Percentile(derive_ms, 1.0), "ms");
    PlanSpace space(bn);
    report.Add("bounds_width", BoundsWidth(reference->store.get(), space.Unsafe()),
               "probability");
    report.Add("kl_nats", MeanKl(bn, ref), "nats");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    std::fprintf(stderr, "perfbench derive: %zu derivations of %zu tuples in %.2fs\n",
                 derive_ms.size(), reference->stats.tuples_total,
                 window.ElapsedSeconds());
  } else {
    // Serve the derived store for the read replay (no live HTTP traffic
    // in this workload: its serving-side counters come from the replay).
    const PlanSpace space(bn);
    auto serving = std::make_unique<Serving>();
    serving->derived = std::move(*reference);
    reference.reset();
    StartServer(serving.get(), {});
    const Counters before = ReadCounters(serving.get());
    ReplayContext rc{&tracer, &layers};
    ReplayReads(&rc, serving.get(), space, {});
    ServingStats stats = Between(before, ReadCounters(serving.get()), 0);
    ReplayWrites(&rc, serving->derived.engine.get(), serving->store()->options(),
                 rel, bn, space, Stream(args.seed, 300),
                 args.workdir + "/wal-replay-" + std::to_string(::getpid()),
                 &stats);
    const double unaccounted = PrintSelfTimes(tracer, "derive", Mean(derive_ms));
    PrintSelfTimes(tracer, "probe", 0.0);
    PrintSelfTimes(tracer, "write", 0.0);
    ReportLayers(layers, stats, *serving->store()->snapshot(), true,
                 unaccounted, &report);
    const std::string path = args.workdir + "/trace-" + args.workload + ".json";
    if (tracer.WriteChrome(path)) std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) {
    Die("usage: perfbench --workload query|ingest|derive --seed N --seconds S "
        "--trace 0|1 [--workdir DIR]");
  }
  if (args.workload == "query") return RunServing(args, false);
  if (args.workload == "ingest") return RunServing(args, true);
  if (args.workload == "derive") return RunDerive(args);
  Die("unknown workload " + args.workload);
}

}  // namespace
}  // namespace perfbench
}  // namespace mrsl

int main(int argc, char** argv) { return mrsl::perfbench::Main(argc, argv); }
