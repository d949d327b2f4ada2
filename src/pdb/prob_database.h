// ProbDatabase: a disjoint-independent (block-independent-disjoint)
// probabilistic database — the output model of the paper (Sec I-A).
//
// Every incomplete tuple of the source relation becomes a block: a set of
// mutually exclusive complete alternatives annotated with probabilities
// summing to (at most) 1. Complete source tuples become certain blocks
// with a single probability-1 alternative. A possible world picks one
// alternative from each block independently (or none, when the block's
// mass is below 1).

#ifndef MRSL_PDB_PROB_DATABASE_H_
#define MRSL_PDB_PROB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relational/joint_dist.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/result.h"

namespace mrsl {

/// One complete alternative of a block.
struct Alternative {
  Tuple tuple;
  double prob = 0.0;
};

/// A block of mutually exclusive alternatives (the paper's Δt).
struct Block {
  std::vector<Alternative> alternatives;

  /// Total probability mass; 1 - TotalMass() is the chance the block
  /// contributes no tuple to a world. May exceed 1 by up to the
  /// validation epsilon (AddBlock tolerates tiny floating-point
  /// overshoot), so consumers must not assume 1 - TotalMass() >= 0.
  double TotalMass() const;

  /// Probability that the block contributes no tuple, clamped to
  /// [0, 1]: max(0, 1 - TotalMass()). Use this instead of hand-rolled
  /// 1 - TotalMass() arithmetic, which goes (slightly) negative when a
  /// block's mass overshoots 1 within the epsilon.
  double AbsentMass() const;
};

/// Derives one block from an incomplete row and its inferred Δt: every
/// combination of `dist` completes the row's missing cells, alternatives
/// below `min_prob` are dropped, and the block is renormalized to full
/// mass. Blocks are pure functions of (row, dist, min_prob) — the
/// versioned store (pdb/store.h) relies on this to reuse blocks across
/// epochs bit-identically.
Result<Block> BlockFromInference(const Tuple& row, const JointDist& dist,
                                 double min_prob = 0.0);

/// A BID probabilistic database. Blocks are held behind shared immutable
/// pointers, so two databases (e.g. consecutive store epochs) can share
/// every block the newer one did not change.
class ProbDatabase {
 public:
  ProbDatabase() = default;
  explicit ProbDatabase(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_blocks() const { return blocks_.size(); }
  /// Alternatives summed over every block (the rows a scan produces).
  size_t num_alternatives() const { return num_alternatives_; }
  const Block& block(size_t i) const { return *blocks_[i]; }

  /// The shared handle of block `i`, for structural sharing across
  /// database versions (see pdb/store.h).
  const std::shared_ptr<const Block>& shared_block(size_t i) const {
    return blocks_[i];
  }

  /// Adds a certain tuple (single alternative, probability 1).
  /// Fails if `t` is incomplete or of the wrong arity.
  Status AddCertain(Tuple t);

  /// Adds a block. Fails if any alternative is incomplete, a probability
  /// is outside [0, 1], or the block's mass exceeds 1 (+ epsilon).
  Status AddBlock(Block block);

  /// Adds an already-validated shared block without copying it — the
  /// structural-sharing path. Runs the same validation as AddBlock.
  Status AddSharedBlock(std::shared_ptr<const Block> block);

  /// Builds the probabilistic database the paper derives: complete rows
  /// of `rel` become certain tuples; for the i-th incomplete row, the
  /// i-th entry of `dists` (aligned with rel.IncompleteRowIndices())
  /// supplies Δt. Alternatives below `min_prob` are dropped and the block
  /// renormalized, bounding block width for downstream query processing
  /// (pass 0 to keep everything).
  static Result<ProbDatabase> FromInference(const Relation& rel,
                                            const std::vector<JointDist>& dists,
                                            double min_prob = 0.0);

  /// Product of per-block choice counts (worlds with an "absent" choice
  /// counted when mass < 1); saturates at uint64 max.
  uint64_t NumPossibleWorlds() const;

  /// Enumerates every possible world: `fn(world_tuples, probability)`.
  /// Fails when NumPossibleWorlds() exceeds `max_worlds`.
  Status ForEachWorld(
      uint64_t max_worlds,
      const std::function<void(const std::vector<const Tuple*>&, double)>& fn)
      const;

  /// Human-readable dump (blocks with alternatives and probabilities).
  std::string ToString(size_t max_blocks = 20) const;

 private:
  Schema schema_;
  std::vector<std::shared_ptr<const Block>> blocks_;
  size_t num_alternatives_ = 0;
};

}  // namespace mrsl

#endif  // MRSL_PDB_PROB_DATABASE_H_
