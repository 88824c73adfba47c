#include "diagnosis/superposition_pruner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "common/gf2.hpp"

namespace scandiag {

CandidateSet SuperpositionPruner::prune(const std::vector<Partition>& partitions,
                                        const GroupVerdicts& verdicts,
                                        const CandidateSet& candidates,
                                        PruneStats* stats) const {
  return prune(PreparedPartitionSet(partitions), verdicts, candidates, stats);
}

CandidateSet SuperpositionPruner::prune(const PreparedPartitionSet& prepared,
                                        const GroupVerdicts& verdicts,
                                        const CandidateSet& candidates,
                                        PruneStats* stats) const {
  CandidateSet pruned = candidates;
  const PruneStats local = prunePositions(prepared, verdicts, pruned.positions);
  if (local.prunedPositions > 0) pruned.cells = topology_->expandPositions(pruned.positions);
  if (stats) *stats = local;
  return pruned;
}

PruneStats SuperpositionPruner::prunePositions(const PreparedPartitionSet& prepared,
                                               const GroupVerdicts& verdicts,
                                               BitVector& positions) const {
  SCANDIAG_REQUIRE(verdicts.hasSignatures,
                   "superposition pruning needs error signatures (set computeSignatures)");
  SCANDIAG_REQUIRE(prepared.size() == verdicts.failing.size(),
                   "verdicts do not match partitions");
  PruneStats stats;
  if (positions.none() || prepared.empty()) return stats;
  SCANDIAG_REQUIRE(prepared.length() == positions.size(),
                   "partitions do not span the candidates' selection axis");
  const std::size_t numPartitions = prepared.size();

  // Atoms: candidate positions sorted by membership row (the transposed
  // table's global group ids, one per partition), so each run of equal rows
  // is one atom. The sort order numbers the atoms; nothing downstream depends
  // on that numbering (see the header).
  std::vector<std::uint32_t> order;
  order.reserve(positions.count());
  positions.forEachSet(
      [&](std::size_t pos) { order.push_back(static_cast<std::uint32_t>(pos)); });
  const auto rowLess = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t* ra = prepared.groupsAtPosition(a);
    const std::uint32_t* rb = prepared.groupsAtPosition(b);
    return std::lexicographical_compare(ra, ra + numPartitions, rb, rb + numPartitions);
  };
  std::sort(order.begin(), order.end(), rowLess);
  std::vector<std::uint32_t> atomStart;  // atom a is order[atomStart[a], atomStart[a + 1])
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    if (i == 0 || rowLess(order[i - 1], order[i])) atomStart.push_back(i);
  }
  const std::size_t numAtoms = atomStart.size();
  atomStart.push_back(static_cast<std::uint32_t>(order.size()));
  stats.atoms = numAtoms;

  // One equation per failing group: XOR of member atoms' signatures equals the
  // observed group error signature. (Passing groups contain no candidate
  // positions, hence no atoms — their equations would be 0 = 0.) A failing
  // group with no atom stays as 0 = sig: aliasing shows up as inconsistency.
  const unsigned degree = verdicts.signatureDegree;
  const std::uint64_t rhsMask =
      degree >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << degree) - 1;
  constexpr std::uint32_t kNoEquation = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> equationOf(prepared.totalGroups(), kNoEquation);
  Gf2System system(numAtoms, degree);
  for (std::size_t p = 0; p < numPartitions; ++p) {
    verdicts.failing[p].forEachSet([&](std::size_t g) {
      equationOf[prepared.groupOffset(p) + g] =
          static_cast<std::uint32_t>(system.addEquation(verdicts.errorSig[p][g] & rhsMask));
    });
  }
  // One pass over the atoms fills every equation: atom a sits in exactly one
  // group per partition, read off its first position's row.
  for (std::size_t a = 0; a < numAtoms; ++a) {
    const std::uint32_t* row = prepared.groupsAtPosition(order[atomStart[a]]);
    for (std::size_t p = 0; p < numPartitions; ++p) {
      if (equationOf[row[p]] != kNoEquation) system.setCoefficient(equationOf[row[p]], a);
    }
  }

  if (!system.reduce()) {
    // Inconsistent observations (MISR aliasing): pruning would be unsound.
    stats.consistent = false;
    return stats;
  }
  for (std::size_t a = 0; a < numAtoms; ++a) {
    if (!system.forcedZero(a)) continue;
    ++stats.prunedAtoms;
    for (std::uint32_t i = atomStart[a]; i < atomStart[a + 1]; ++i) {
      positions.reset(order[i]);
      ++stats.prunedPositions;
    }
  }
  return stats;
}

}  // namespace scandiag
