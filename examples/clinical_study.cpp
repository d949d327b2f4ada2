// Clinical study integration — the paper's data-integration motivation
// with the full preprocessing stack:
//   1. a *numeric* lab-results table is discretized into sub-ranges
//      (Sec II's treatment of continuous attributes),
//   2. joined to a patient dimension via primary/foreign key (Sec I-B's
//      cross-relation correlations),
//   3. the MRSL model is learned over the joined relation, and
//   4. missing lab values are imputed and the cohort is queried.
//
// Build & run:  ./build/examples/clinical_study

#include <cstdio>

#include "core/engine.h"
#include "core/learner.h"
#include "core/repair.h"
#include "core/workload.h"
#include "pdb/plan.h"
#include "pdb/store.h"
#include "relational/discretizer.h"
#include "relational/join.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

// Synthesizes the two source tables. Glucose correlates with BMI band
// and age band; readings vanish for some visits (assay failures).
struct Tables {
  std::string patients_csv;  // pid, ageband, bmi
  std::string labs_csv;      // visit, pid, glucose (numeric), hba1c (numeric)
};

Tables Synthesize(size_t n_patients, size_t n_visits) {
  using namespace mrsl;
  Rng rng(90210);
  const char* agebands[] = {"young", "mid", "senior"};
  const char* bmibands[] = {"normal", "over", "obese"};

  std::string patients = "pid,ageband,bmi\n";
  std::vector<int> age_of(n_patients);
  std::vector<int> bmi_of(n_patients);
  for (size_t p = 0; p < n_patients; ++p) {
    int age = static_cast<int>(rng.SampleDiscrete({0.35, 0.4, 0.25}));
    // BMI drifts upward with age band.
    std::vector<double> bmi_w = {0.55 - 0.1 * age, 0.3, 0.15 + 0.1 * age};
    int bmi = static_cast<int>(rng.SampleDiscrete(bmi_w));
    age_of[p] = age;
    bmi_of[p] = bmi;
    patients += "p" + std::to_string(p) + "," + agebands[age] + "," +
                bmibands[bmi] + "\n";
  }

  std::string labs = "visit,pid,glucose,hba1c\n";
  for (size_t v = 0; v < n_visits; ++v) {
    size_t p = rng.UniformInt(n_patients);
    // Baselines rise with age and BMI; glucose in mg/dL, HbA1c in %.
    double glucose = 82 + 9.0 * age_of[p] + 14.0 * bmi_of[p] +
                     rng.NextDouble() * 24.0;
    double hba1c =
        5.0 + 0.35 * age_of[p] + 0.5 * bmi_of[p] + rng.NextDouble() * 0.8;
    std::string g = rng.Bernoulli(0.18) ? "?" : FormatDouble(glucose, 1);
    std::string h = rng.Bernoulli(0.12) ? "?" : FormatDouble(hba1c, 2);
    labs += "v" + std::to_string(v) + ",p" + std::to_string(p) + "," + g +
            "," + h + "\n";
  }
  return {patients, labs};
}

}  // namespace

int main() {
  using namespace mrsl;
  Tables tables = Synthesize(/*n_patients=*/600, /*n_visits=*/12000);

  // ---- 1. Discretize the numeric lab columns ----
  auto labs = DiscretizeCsv(
      tables.labs_csv,
      {{"glucose", 3, BucketStrategy::kEqualFrequency},
       {"hba1c", 3, BucketStrategy::kEqualFrequency}});
  if (!labs.ok()) {
    std::fprintf(stderr, "discretize failed: %s\n",
                 labs.status().ToString().c_str());
    return 1;
  }
  std::printf("lab table: %zu visits; glucose buckets:",
              labs->relation.num_rows());
  for (const std::string& label : labs->maps[0].labels) {
    std::printf(" %s", label.c_str());
  }
  std::printf("\n");

  // ---- 2. Join with the patient dimension ----
  auto patients = Relation::FromCsv(tables.patients_csv);
  if (!patients.ok()) return 1;
  JoinOptions jopts;
  jopts.drop_key_columns = true;  // pid is unique per patient: pure noise
  auto joined = PkFkJoin(labs->relation, "pid", *patients, "pid", jopts);
  if (!joined.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 joined.status().ToString().c_str());
    return 1;
  }
  // `visit` is a key too; project it away by dropping through a CSV pass.
  AttrId visit_id = 0;
  joined->schema().FindAttr("visit", &visit_id);
  std::printf("joined relation: %zu rows x %zu attrs (%zu incomplete)\n",
              joined->num_rows(), joined->schema().num_attrs(),
              joined->IncompleteRowIndices().size());

  // ---- 3. Learn the ensemble over the joined data ----
  // The visit id would flood the miner with singleton itemsets; keep the
  // support threshold above 1/|visits| so it never becomes frequent.
  LearnOptions learn;
  learn.support_threshold = 0.01;
  LearnStats lstats;
  auto model = LearnModel(*joined, learn, &lstats);
  if (!model.ok()) return 1;
  std::printf("MRSL model: %zu meta-rules in %.3fs\n",
              model->TotalMetaRules(), lstats.total_seconds);

  // ---- 4a. Repair: fill the missing assays for the cohort report ----
  RepairOptions ropts;
  ropts.workload.gibbs.samples = 600;
  ropts.workload.gibbs.burn_in = 80;
  ropts.min_confidence = 0.45;
  RepairStats rstats;
  auto repaired = RepairRelation(*model, *joined, ropts, &rstats);
  if (!repaired.ok()) return 1;
  std::printf(
      "repair: %zu visits completed (mean confidence %.2f), %zu left "
      "incomplete below the %.2f guardrail\n",
      rstats.repaired, rstats.mean_confidence, rstats.skipped_low_conf,
      ropts.min_confidence);

  // ---- 4b. Cohort query over the *unrepaired* data ----
  // Derive the BID database into a store and ask the plan algebra
  // count(select(glucose=<top> & ageband=senior; scan)).
  AttrId glucose_id = 0;
  AttrId age_id = 0;
  model->schema().FindAttr("glucose", &glucose_id);
  model->schema().FindAttr("ageband", &age_id);
  // Top glucose bucket = last label of the learned map.
  ValueId top_glucose = model->schema().attr(glucose_id).Find(
      labs->maps[0].labels.back());
  ValueId senior = model->schema().attr(age_id).Find("senior");
  if (top_glucose == kMissingValue || senior == kMissingValue) return 1;

  StoreOptions sopts;
  sopts.workload.gibbs.samples = 600;
  sopts.workload.gibbs.burn_in = 80;
  Engine engine(&*model);
  BidStore store(&engine, sopts);
  if (!store.Commit(*joined).ok()) return 1;
  const SnapshotPtr snap = store.snapshot();
  Predicate risky =
      Predicate::Eq(glucose_id, top_glucose).And(Predicate::Eq(age_id, senior));
  auto select =
      PlanToString(*SelectPlan(risky, ScanPlan()), {&snap->database()});
  if (!select.ok()) return 1;
  auto count = store.QueryOn(snap, "count(" + *select + ")");
  if (!count.ok()) return 1;
  std::printf("cohort %s: expected %.1f of %zu visits\n",
              count->canonical_text.c_str(), count->eval->count.expected.lo,
              joined->num_rows());
  return 0;
}
