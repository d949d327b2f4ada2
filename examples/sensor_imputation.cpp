// Scientific / sensor data imputation — the "noisy or missing
// experimental results" setting from the paper's introduction.
//
// A weather-station chain (solar -> temperature -> humidity -> battery
// drain -> alarm) produces discretized readings; radio glitches drop a
// couple of fields from many rows. We impute the missing readings with
// the MRSL ensemble and compare joint Gibbs inference against the naive
// independent-product baseline, then ask for the probability that a
// station is actually in the alarm state.
//
// Build & run:  ./build/examples/sensor_imputation

#include <cstdio>

#include "bn/bayes_net.h"
#include "bn/exact.h"
#include "core/learner.h"
#include "core/workload.h"
#include "expfw/metrics.h"
#include "pdb/plan.h"
#include "util/rng.h"

namespace {

mrsl::BayesNet BuildStationNetwork() {
  using namespace mrsl;
  // solar ∈ {low,med,high}; temp ∈ {cold,mild,warm,hot};
  // humidity ∈ {dry,normal,humid}; drain ∈ {low,high};
  // alarm ∈ {off,on}.
  auto topo = Topology::Create(
      {"solar", "temp", "humidity", "drain", "alarm"}, {3, 4, 3, 2, 2},
      {{}, {0}, {1}, {1, 2}, {3}});
  std::vector<std::vector<double>> cpts(5);
  cpts[0] = {0.25, 0.45, 0.30};
  // P(temp | solar): hotter with more sun.
  cpts[1] = {0.45, 0.35, 0.15, 0.05,
             0.15, 0.40, 0.30, 0.15,
             0.05, 0.15, 0.40, 0.40};
  // P(humidity | temp): drier when hot.
  cpts[2] = {0.10, 0.45, 0.45,
             0.20, 0.50, 0.30,
             0.40, 0.45, 0.15,
             0.60, 0.30, 0.10};
  // P(drain | temp, humidity): high drain in extremes.
  for (int t = 0; t < 4; ++t) {
    for (int h = 0; h < 3; ++h) {
      double high = 0.15 + 0.18 * std::abs(t - 1.5) + 0.10 * (h == 2);
      if (high > 0.9) high = 0.9;
      cpts[3].insert(cpts[3].end(), {1.0 - high, high});
    }
  }
  // P(alarm | drain).
  cpts[4] = {0.97, 0.03, 0.55, 0.45};
  auto bn = BayesNet::Create(std::move(topo).value(), std::move(cpts));
  if (!bn.ok()) {
    std::fprintf(stderr, "bad network: %s\n",
                 bn.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(bn).value();
}

}  // namespace

int main() {
  using namespace mrsl;
  BayesNet bn = BuildStationNetwork();
  Rng rng(777);

  // 30,000 telemetry rows; 20% lose two correlated fields (temp+humidity
  // often vanish together when the sensor head resets).
  Relation telemetry = bn.SampleRelation(30000, &rng);
  Relation damaged(telemetry.schema());
  for (const Tuple& row : telemetry.rows()) {
    Tuple copy = row;
    if (rng.Bernoulli(0.2)) {
      copy.set_value(1, kMissingValue);  // temp
      copy.set_value(2, kMissingValue);  // humidity
      if (rng.Bernoulli(0.3)) copy.set_value(3, kMissingValue);  // drain
    }
    if (!damaged.Append(std::move(copy)).ok()) return 1;
  }
  std::printf("telemetry: %zu rows, %zu with missing readings\n",
              damaged.num_rows(), damaged.IncompleteRowIndices().size());

  LearnOptions learn;
  learn.support_threshold = 0.001;
  auto model = LearnModel(damaged, learn);
  if (!model.ok()) return 1;
  std::printf("MRSL model: %zu meta-rules\n", model->TotalMetaRules());

  // Workload: all incomplete rows (first 400 for the demo's runtime).
  std::vector<Tuple> workload;
  for (uint32_t row : damaged.IncompleteRowIndices()) {
    workload.push_back(damaged.row(row));
    if (workload.size() == 400) break;
  }

  // Joint Gibbs vs independent-product, scored against the generator.
  AccuracyAccumulator gibbs_acc;
  AccuracyAccumulator prod_acc;
  for (SamplingMode mode :
       {SamplingMode::kTupleDag, SamplingMode::kIndependentProduct}) {
    WorkloadOptions wl;
    wl.gibbs.samples = 1500;
    wl.gibbs.burn_in = 100;
    auto dists = RunWorkload(*model, workload, mode, wl);
    if (!dists.ok()) return 1;
    for (size_t i = 0; i < workload.size(); ++i) {
      auto truth = TrueDistribution(bn, workload[i]);
      if (!truth.ok()) return 1;
      (mode == SamplingMode::kTupleDag ? gibbs_acc : prod_acc)
          .Add(KlDivergence(*truth, (*dists)[i]),
               Top1Match(*truth, (*dists)[i]));
    }
  }
  std::printf(
      "\nimputation accuracy vs ground truth over %zu rows:\n"
      "  joint Gibbs (tuple-DAG):   KL %.4f   top-1 %.3f\n"
      "  independent product:       KL %.4f   top-1 %.3f\n",
      workload.size(), gibbs_acc.MeanKl(), gibbs_acc.Top1Rate(),
      prod_acc.MeanKl(), prod_acc.Top1Rate());

  // Derive the probabilistic DB for the demo subset and query alarms.
  Relation subset(damaged.schema());
  for (const Tuple& t : workload) {
    if (!subset.Append(t).ok()) return 1;
  }
  WorkloadOptions wl;
  wl.gibbs.samples = 1500;
  wl.gibbs.burn_in = 100;
  auto dists = RunWorkload(*model, workload, SamplingMode::kTupleDag, wl);
  if (!dists.ok()) return 1;
  auto db = ProbDatabase::FromInference(subset, *dists, 0.002);
  if (!db.ok()) return 1;

  AttrId alarm = 0;
  db->schema().FindAttr("alarm", &alarm);
  auto alarms = EvaluateCount(
      *SelectPlan(Predicate::Eq(alarm, 1), ScanPlan(0)), {&*db});
  if (!alarms.ok() || !alarms->has_distribution) return 1;
  std::printf(
      "\nalarm analytics over the imputed rows:\n"
      "  expected alarms: %.2f of %zu stations\n"
      "  P(no alarms at all) = %.4f\n",
      alarms->expected.lo, db->num_blocks(), alarms->distribution[0]);
  return 0;
}
