// AddBlock is the single validation gate: complete alternatives, arity
// match, per-alternative and total mass within [0, 1+eps] — everything
// downstream (query evaluation) trusts these invariants instead of
// re-checking. FromInference pairs the relation's incomplete rows with
// the distributions in row order, drops alternatives below min_prob, and
// renormalizes each block, so a derived block always carries full mass
// even after truncation.

#include "pdb/prob_database.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace mrsl {
namespace {

constexpr double kMassEpsilon = 1e-6;

}  // namespace

double Block::TotalMass() const {
  double mass = 0.0;
  for (const Alternative& a : alternatives) mass += a.prob;
  return mass;
}

double Block::AbsentMass() const {
  return std::max(0.0, 1.0 - TotalMass());
}

Status ProbDatabase::AddCertain(Tuple t) {
  if (!t.IsComplete()) {
    return Status::InvalidArgument("certain tuple must be complete");
  }
  Block b;
  b.alternatives.push_back(Alternative{std::move(t), 1.0});
  return AddBlock(std::move(b));
}

Status ProbDatabase::AddBlock(Block block) {
  return AddSharedBlock(std::make_shared<const Block>(std::move(block)));
}

Status ProbDatabase::AddSharedBlock(std::shared_ptr<const Block> block) {
  if (block == nullptr || block->alternatives.empty()) {
    return Status::InvalidArgument("block has no alternatives");
  }
  double mass = 0.0;
  for (const Alternative& a : block->alternatives) {
    if (a.tuple.num_attrs() != schema_.num_attrs()) {
      return Status::InvalidArgument("alternative arity mismatch");
    }
    if (!a.tuple.IsComplete()) {
      return Status::InvalidArgument("alternative must be complete");
    }
    if (a.prob < 0.0 || a.prob > 1.0 + kMassEpsilon) {
      return Status::InvalidArgument("alternative probability out of range");
    }
    mass += a.prob;
  }
  if (mass > 1.0 + kMassEpsilon) {
    return Status::InvalidArgument("block mass exceeds 1: " +
                                   FormatDouble(mass, 6));
  }
  num_alternatives_ += block->alternatives.size();
  blocks_.push_back(std::move(block));
  return Status::OK();
}

Result<Block> BlockFromInference(const Tuple& row, const JointDist& dist,
                                 double min_prob) {
  Block block;
  std::vector<ValueId> combo(dist.vars().size());
  for (uint64_t code = 0; code < dist.size(); ++code) {
    double p = dist.prob(code);
    if (p <= 0.0 || p < min_prob) continue;
    dist.codec().DecodeInto(code, combo.data());
    Tuple completed = row;
    for (size_t i = 0; i < dist.vars().size(); ++i) {
      completed.set_value(dist.vars()[i], combo[i]);
    }
    block.alternatives.push_back(Alternative{std::move(completed), p});
  }
  // Renormalize after the min_prob cut so the block stays a proper Δt.
  double mass = block.TotalMass();
  if (mass <= 0.0) {
    return Status::Internal("block lost all probability mass");
  }
  for (Alternative& a : block.alternatives) a.prob /= mass;
  return block;
}

Result<ProbDatabase> ProbDatabase::FromInference(
    const Relation& rel, const std::vector<JointDist>& dists,
    double min_prob) {
  std::vector<uint32_t> incomplete = rel.IncompleteRowIndices();
  if (incomplete.size() != dists.size()) {
    return Status::InvalidArgument(
        "need one distribution per incomplete row: have " +
        std::to_string(dists.size()) + ", want " +
        std::to_string(incomplete.size()));
  }
  ProbDatabase db(rel.schema());
  size_t next_dist = 0;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    const Tuple& row = rel.row(r);
    if (row.IsComplete()) {
      MRSL_RETURN_IF_ERROR(db.AddCertain(row));
      continue;
    }
    MRSL_ASSIGN_OR_RETURN(Block block,
                          BlockFromInference(row, dists[next_dist++],
                                             min_prob));
    MRSL_RETURN_IF_ERROR(db.AddBlock(std::move(block)));
  }
  return db;
}

uint64_t ProbDatabase::NumPossibleWorlds() const {
  uint64_t worlds = 1;
  for (const std::shared_ptr<const Block>& bp : blocks_) {
    const Block& b = *bp;
    uint64_t choices = b.alternatives.size() +
                       (b.AbsentMass() > kMassEpsilon ? 1 : 0);
    if (worlds > std::numeric_limits<uint64_t>::max() / choices) {
      return std::numeric_limits<uint64_t>::max();
    }
    worlds *= choices;
  }
  return worlds;
}

Status ProbDatabase::ForEachWorld(
    uint64_t max_worlds,
    const std::function<void(const std::vector<const Tuple*>&, double)>& fn)
    const {
  uint64_t total = NumPossibleWorlds();
  if (total > max_worlds) {
    return Status::FailedPrecondition(
        "too many possible worlds: " + std::to_string(total) + " > " +
        std::to_string(max_worlds));
  }
  std::vector<const Tuple*> world;
  std::function<void(size_t, double)> rec = [&](size_t i, double p) {
    if (i == blocks_.size()) {
      fn(world, p);
      return;
    }
    const Block& b = *blocks_[i];
    for (const Alternative& a : b.alternatives) {
      world.push_back(&a.tuple);
      rec(i + 1, p * a.prob);
      world.pop_back();
    }
    double absent = b.AbsentMass();
    if (absent > kMassEpsilon) rec(i + 1, p * absent);
  };
  rec(0, 1.0);
  return Status::OK();
}

std::string ProbDatabase::ToString(size_t max_blocks) const {
  std::string out = "ProbDatabase: " + std::to_string(blocks_.size()) +
                    " blocks\n";
  for (size_t i = 0; i < blocks_.size() && i < max_blocks; ++i) {
    out += "block " + std::to_string(i) + ":\n";
    for (const Alternative& a : blocks_[i]->alternatives) {
      out += "  " + a.tuple.ToString(schema_) + "  p=" +
             FormatDouble(a.prob, 4) + "\n";
    }
  }
  if (blocks_.size() > max_blocks) out += "  ...\n";
  return out;
}

}  // namespace mrsl
