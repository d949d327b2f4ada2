// Serving-style throughput benchmark for the persistent engine: one
// long-lived Engine per thread configuration replays a mixed request
// stream — single-hole batches, multi-hole Gibbs batches, and chunked
// whole-relation derivation — and reports tuples/sec vs. thread count.
// Unlike the per-figure drivers, this measures the steady state the
// ROADMAP targets: warm per-thread contexts, no per-request thread or
// cache construction, and bit-identical output for every pool width.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bn/bayes_net.h"
#include "core/engine.h"
#include "core/learner.h"
#include "expfw/networks.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

struct BatchRequest {
  mrsl::SamplingMode mode;
  std::vector<mrsl::Tuple> tuples;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mrsl;
  auto flags = bench::BenchFlags::Parse(argc, argv);
  bench::Banner("Throughput",
                "persistent-engine serving throughput vs. thread count",
                flags.full);

  // Same regime as bench_parallel: a higher-cardinality network keeps
  // evidence combinations distinct, so the workload fragments into many
  // independent DAG components — the unit of engine parallelism.
  auto spec = NetworkByName("BN15");
  Rng rng(0x7B31);
  BayesNet bn = BayesNet::RandomInstance(spec->topology, &rng);
  Relation train = bn.SampleRelation(flags.full ? 50000 : 15000, &rng);
  LearnOptions lo;
  lo.support_threshold = 0.005;
  auto model = LearnModel(train, lo);
  if (!model.ok()) {
    std::fprintf(stderr, "learn failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  WorkloadOptions opts;
  opts.gibbs.samples = flags.full ? 500 : 250;
  opts.gibbs.burn_in = 50;

  // The replayed request stream: alternating single-hole and multi-hole
  // batches (tuple-DAG mode, the production default).
  const size_t batch_size = flags.full ? 250 : 100;
  const size_t num_single_batches = flags.full ? 6 : 4;
  const size_t num_multi_batches = flags.full ? 4 : 3;
  Rng wrng(0x7B32);
  std::vector<BatchRequest> requests;
  size_t batch_tuples = 0;
  for (size_t b = 0; b < num_single_batches + num_multi_batches; ++b) {
    BatchRequest req;
    req.mode = SamplingMode::kTupleDag;
    const bool multi = b >= num_single_batches;
    while (req.tuples.size() < batch_size) {
      Tuple t = bn.ForwardSample(&wrng);
      size_t holes = multi ? 2 + wrng.UniformInt(2) : 1;
      for (size_t j = 0; j < holes; ++j) {
        t.set_value(static_cast<AttrId>(wrng.UniformInt(6)),
                    kMissingValue);
      }
      req.tuples.push_back(std::move(t));
    }
    batch_tuples += req.tuples.size();
    requests.push_back(std::move(req));
  }

  // The derivation share of the stream: an incomplete relation whose
  // incomplete rows are derived `batch_size` at a time (InferChunked).
  Relation derive_rel(train.schema());
  Rng lrng(0x7B33);
  for (size_t i = 0; i < (flags.full ? 1200u : 400u); ++i) {
    Tuple t = bn.ForwardSample(&lrng);
    if (lrng.Bernoulli(0.5)) {
      t.set_value(static_cast<AttrId>(lrng.UniformInt(6)), kMissingValue);
    }
    if (!derive_rel.Append(std::move(t)).ok()) return 1;
  }
  const size_t derive_tuples = derive_rel.IncompleteRowIndices().size();

  TablePrinter table({"threads", "wall (s)", "tuples/s", "speedup",
                      "identical output"});
  std::vector<bench::JsonObject> json_rows;
  // Flattened probabilities per batch; the derivation is the last entry.
  std::vector<std::vector<double>> reference;
  double base_secs = 0.0;
  double speedup_at_8 = 0.0;

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    EngineOptions eo;
    eo.num_threads = threads;
    Engine engine(&*model, eo);

    std::vector<std::vector<double>> outputs;
    const auto flatten = [&outputs](const std::vector<JointDist>& dists) {
      std::vector<double> flat;
      for (const JointDist& d : dists) {
        flat.insert(flat.end(), d.probs().begin(), d.probs().end());
      }
      outputs.push_back(std::move(flat));
    };
    WallTimer timer;

    // Phase 1+2: batched single-hole / multi-hole inference.
    for (const BatchRequest& req : requests) {
      auto dists = engine.InferBatch(req.tuples, req.mode, opts);
      if (!dists.ok()) {
        std::fprintf(stderr, "batch failed: %s\n",
                     dists.status().ToString().c_str());
        return 1;
      }
      flatten(*dists);
    }

    // Phase 3: whole-relation derivation, batch_size rows per chunk.
    auto derived = engine.DeriveBatch(derive_rel, SamplingMode::kTupleDag,
                                      opts, batch_size);
    if (!derived.ok()) {
      std::fprintf(stderr, "derive failed: %s\n",
                   derived.status().ToString().c_str());
      return 1;
    }
    flatten(*derived);

    const double secs = timer.ElapsedSeconds();
    const size_t total_tuples = batch_tuples + derive_tuples;
    const double tuples_per_sec =
        static_cast<double>(total_tuples) / secs;

    bool identical = true;
    if (threads == 1) {
      reference = outputs;
      base_secs = secs;
    } else {
      identical = outputs == reference;
    }
    const double speedup = base_secs / secs;
    if (threads == 8) speedup_at_8 = speedup;

    table.AddRow({std::to_string(threads), FormatDouble(secs, 3),
                  FormatDouble(tuples_per_sec, 1),
                  FormatDouble(speedup, 2),
                  threads == 1 ? "(reference)"
                               : (identical ? "yes" : "NO")});
    json_rows.push_back(
        bench::JsonObject()
            .SetInt("threads", threads)
            .SetNum("wall_seconds", secs)
            .SetNum("tuples_per_sec", tuples_per_sec)
            .SetNum("speedup", speedup)
            .SetBool("identical_output", identical)
            .SetInt("tuples", total_tuples)
            .SetInt("contexts", engine.context_pool_size())
            .SetInt("cache_hits", engine.stats().cache_hits)
            .SetInt("cpd_evaluations", engine.stats().cpd_evaluations));
  }
  std::printf("%s", table.ToString().c_str());

  if (!flags.json_path.empty()) {
    bench::JsonObject()
        .SetStr("bench", "bench_throughput")
        .SetBool("full", flags.full)
        .SetStr("network", "BN15")
        .SetInt("batch_tuples", batch_tuples)
        .SetInt("batch_size", batch_size)
        .SetInt("samples", opts.gibbs.samples)
        .SetInt("burn_in", opts.gibbs.burn_in)
        .SetInt("derive_rows", derive_rel.num_rows())
        .SetNum("speedup_at_8_threads", speedup_at_8)
        .SetArray("rows", json_rows)
        .WriteTo(flags.json_path);
  }

  std::printf(
      "\nFINDING: one persistent Engine serves a mixed stream (single-\n"
      "hole, multi-hole Gibbs, chunked derivation) with warm per-thread\n"
      "contexts and bit-identical output at every pool width; throughput\n"
      "scales with threads up to the component granularity and the\n"
      "machine's core count.\n");
  return 0;
}
