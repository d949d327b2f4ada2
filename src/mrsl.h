// Umbrella header: the full public API of the mrsl library.
//
//   #include "mrsl.h"
//
// pulls in the relational layer, the learning and inference pipeline,
// the probabilistic-database layer, and the experiment framework. Fine-
// grained headers remain available for faster incremental builds.

#ifndef MRSL_MRSL_H_
#define MRSL_MRSL_H_

// Utilities. The version macros (MRSL_VERSION_STRING et al.) live in
// util/version.h.
#include "util/csv.h"          // IWYU pragma: export
#include "util/fault_file.h"   // IWYU pragma: export
#include "util/metrics.h"      // IWYU pragma: export
#include "util/mixed_radix.h"  // IWYU pragma: export
#include "util/result.h"       // IWYU pragma: export
#include "util/rng.h"          // IWYU pragma: export
#include "util/status.h"       // IWYU pragma: export
#include "util/thread_pool.h"  // IWYU pragma: export
#include "util/trace.h"        // IWYU pragma: export
#include "util/version.h"      // IWYU pragma: export
#include "util/wire.h"         // IWYU pragma: export

// Relational substrate.
#include "relational/discretizer.h"  // IWYU pragma: export
#include "relational/join.h"         // IWYU pragma: export
#include "relational/joint_dist.h"   // IWYU pragma: export
#include "relational/relation.h"     // IWYU pragma: export
#include "relational/schema.h"       // IWYU pragma: export
#include "relational/tuple.h"        // IWYU pragma: export

// Mining.
#include "mining/apriori.h"  // IWYU pragma: export

// Bayesian-network substrate (ground truth / experiment framework).
#include "bn/bayes_net.h"  // IWYU pragma: export
#include "bn/exact.h"      // IWYU pragma: export
#include "bn/topology.h"   // IWYU pragma: export

// The MRSL core.
#include "core/delta.h"         // IWYU pragma: export
#include "core/diagnostics.h"   // IWYU pragma: export
#include "core/engine.h"        // IWYU pragma: export
#include "core/gibbs.h"         // IWYU pragma: export
#include "core/infer_single.h"  // IWYU pragma: export
#include "core/learner.h"       // IWYU pragma: export
#include "core/model.h"         // IWYU pragma: export
#include "core/model_io.h"      // IWYU pragma: export
#include "core/repair.h"        // IWYU pragma: export
#include "core/tuning.h"        // IWYU pragma: export
#include "core/workload.h"      // IWYU pragma: export

// Probabilistic database.
#include "pdb/plan.h"           // IWYU pragma: export
#include "pdb/plan_cache.h"     // IWYU pragma: export
#include "pdb/prob_database.h"  // IWYU pragma: export
#include "pdb/query.h"          // IWYU pragma: export
#include "pdb/snapshot_io.h"    // IWYU pragma: export
#include "pdb/store.h"          // IWYU pragma: export
#include "pdb/wal.h"            // IWYU pragma: export

// Network serving layer.
#include "server/http.h"     // IWYU pragma: export
#include "server/server.h"   // IWYU pragma: export
#include "server/service.h"  // IWYU pragma: export

// Experiment framework.
#include "expfw/datagen.h"   // IWYU pragma: export
#include "expfw/metrics.h"   // IWYU pragma: export
#include "expfw/networks.h"  // IWYU pragma: export
#include "expfw/runner.h"    // IWYU pragma: export

#endif  // MRSL_MRSL_H_
