#include "diagnosis/session_engine.hpp"

#include <bit>
#include <string>

#include "bist/primitive_polys.hpp"
#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

SessionEngine::SessionEngine(const ScanTopology& topology, const SessionConfig& config)
    : topology_(&topology), config_(config) {
  SCANDIAG_REQUIRE(config.numPatterns >= 1, "session needs at least one pattern");
  if (config.mode != SignatureMode::Misr && !config.computeSignatures) return;
  const unsigned degree = config.mode == SignatureMode::Misr ? config.misrDegree : kPruneDegree;
  const std::uint64_t taps = primitiveTapMask(degree);
  const SpaceCompactor* compactor = config.compactor;
  if (compactor) {
    SCANDIAG_REQUIRE(compactor->inputChains() == topology.numChains(),
                     "compactor width does not match topology");
  }
  const std::size_t lines = compactor ? compactor->outputLines() : topology.numChains();
  SCANDIAG_REQUIRE(lines <= degree, "a " + std::to_string(degree) +
                                        "-bit signature register takes at most " +
                                        std::to_string(degree) + " scan-out lines, not " +
                                        std::to_string(lines));
  // Chain c drives its own MISR line, or every line the compactor folds it
  // into.
  std::vector<std::uint64_t> inputs(topology.numChains());
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    inputs[c] = compactor ? compactor->columnMask(c) : std::uint64_t{1} << c;
  }
  model_.emplace(degree, taps, topology.maxChainLength(), config.numPatterns, inputs);
}

std::uint64_t SessionEngine::cellErrorSignature(std::size_t cell,
                                                const BitVector& errorStream) const {
  SCANDIAG_REQUIRE(model_.has_value(), "this session configuration computes no signatures");
  const ScanTopology::CellLoc loc = topology_->location(cell);
  return model_->cellSignature(loc.chain, loc.position, errorStream);
}

void SessionEngine::requireMatchingLength(const PreparedPartitionSet& prepared) const {
  SCANDIAG_REQUIRE(prepared.empty() || prepared.length() == topology_->maxChainLength(),
                   "partition length does not match topology");
}

PartitionVerdictRow SessionEngine::computeRow(const PreparedPartitionSet& prepared,
                                              std::size_t index,
                                              const BitVector& failingPositions,
                                              const std::vector<std::size_t>& cellPos,
                                              const std::vector<std::uint64_t>& cellSig,
                                              bool needSignatures) const {
  const Partition& partition = prepared.partition(index);
  const std::size_t b = partition.groupCount();
  PartitionVerdictRow row;
  row.failing = BitVector(b);
  std::vector<std::uint64_t> sig(b, 0);
  if (needSignatures) {
    const std::vector<std::size_t>& table = prepared.groupTable(index);
    for (std::size_t i = 0; i < cellPos.size(); ++i) sig[table[cellPos[i]]] ^= cellSig[i];
  }
  for (std::size_t g = 0; g < b; ++g) {
    const bool exactFail = partition.groups[g].intersects(failingPositions);
    const bool verdict = config_.mode == SignatureMode::Exact ? exactFail : (sig[g] != 0);
    if (verdict) row.failing.set(g);
  }
  if (needSignatures) row.errorSig = std::move(sig);
  return row;
}

void SessionEngine::prepareCells(const FaultResponse& response, bool needSignatures,
                                 BitVector& failingPositions, std::vector<std::size_t>& cellPos,
                                 std::vector<std::uint64_t>& cellSig) const {
  // Positions holding at least one failing cell (drives exact verdicts).
  failingPositions = topology_->collapseCells(response.failingCells);
  // Per failing cell: chain position and (optionally) error signature.
  const std::size_t numFailing = response.failingCellOrdinals.size();
  cellPos.assign(numFailing, 0);
  cellSig.assign(numFailing, 0);
  std::uint64_t hashedWords = 0;
  for (std::size_t i = 0; i < numFailing; ++i) {
    const ScanTopology::CellLoc loc = topology_->location(response.failingCellOrdinals[i]);
    cellPos[i] = loc.position;
    if (needSignatures) {
      cellSig[i] = model_->cellSignature(loc.chain, loc.position, response.errorStreams[i]);
      hashedWords += response.errorStreams[i].wordCount();
    }
  }
  if (hashedWords > 0) obs::count(obs::Counter::SignatureWordsHashed, hashedWords);
}

GroupVerdicts SessionEngine::runReference(const PreparedPartitionSet& prepared,
                                          const FaultResponse& response) const {
  // Counters only — no PhaseScope, as in run(): the per-fault paths read no
  // clock. Phase timing for session work happens in runPartition (the
  // per-partition retry path), where a call does enough work to amortize the
  // clock reads.
  requireMatchingLength(prepared);
  const bool needSignatures = model_.has_value();

  BitVector failingPositions;
  std::vector<std::size_t> cellPos;
  std::vector<std::uint64_t> cellSig;
  prepareCells(response, needSignatures, failingPositions, cellPos, cellSig);

  GroupVerdicts verdicts;
  verdicts.failing.reserve(prepared.size());
  if (needSignatures) {
    verdicts.hasSignatures = true;
    verdicts.signatureDegree = model_->degree();
    verdicts.errorSig.reserve(prepared.size());
  }

  for (std::size_t p = 0; p < prepared.size(); ++p) {
    PartitionVerdictRow row =
        computeRow(prepared, p, failingPositions, cellPos, cellSig, needSignatures);
    verdicts.failing.push_back(std::move(row.failing));
    if (needSignatures) verdicts.errorSig.push_back(std::move(row.errorSig));
  }
  obs::count(obs::Counter::PartitionsEvaluated, prepared.size());
  obs::count(obs::Counter::SessionsRun, prepared.totalGroups());
  return verdicts;
}

GroupVerdicts SessionEngine::run(const PreparedPartitionSet& prepared,
                                 const FaultResponse& response,
                                 SessionBatchScratch* scratch) const {
  // Counters only — no PhaseScope: this is the per-fault hot path of the
  // batch DR drivers, and two steady_clock reads per call cost several
  // percent of a whole diagnosis.
  requireMatchingLength(prepared);
  const bool needSignatures = model_.has_value();
  const std::size_t numPartitions = prepared.size();
  const std::size_t total = prepared.totalGroups();

  SessionBatchScratch local;
  SessionBatchScratch& s = scratch ? *scratch : local;
  if (needSignatures) {
    prepareCells(response, true, s.failingPositions, s.cellPos, s.cellSig);
  } else {
    // Exact verdicts need only the collapsed failing positions; skip the
    // per-cell position/signature pass entirely (the reference path keeps it
    // because computeRow's interface is shared with the signature modes).
    // Filling the scratch vector from the dense ordinal list — rather than
    // ScanTopology::collapseCells — means a reused scratch allocates nothing
    // and nothing scans the full per-cell bit vector. The bit vector dedupes
    // positions shared by cells on different chains.
    s.failingPositions.resize(topology_->maxChainLength());
    s.failingPositions.resetAll();
    BitVector::Word* seen = s.failingPositions.data();
    for (const std::size_t cell : response.failingCellOrdinals) {
      const std::size_t pos = topology_->location(cell).position;
      seen[pos / BitVector::kWordBits] |= BitVector::Word{1}
                                          << (pos % BitVector::kWordBits);
    }
    s.cellPos.clear();
    s.cellSig.clear();
  }

  // Flat scoreboards over the schedule's global group ids; reset in place so
  // a reused scratch allocates nothing in steady state.
  std::uint64_t contribCells = 0;
  if (needSignatures) {
    s.flatSig.assign(total, 0);
    for (std::size_t i = 0; i < s.cellPos.size(); ++i) {
      const std::uint32_t* row = prepared.groupsAtPosition(s.cellPos[i]);
      const std::uint64_t sig = s.cellSig[i];
      for (std::size_t p = 0; p < numPartitions; ++p) s.flatSig[row[p]] ^= sig;
    }
    contribCells += s.cellPos.size() * numPartitions;
  }
  if (config_.mode == SignatureMode::Exact) {
    s.groupFail.resize(total);
    s.groupFail.resetAll();
    BitVector::Word* words = s.groupFail.data();
    // Word-wise iteration over failing positions: findNext() is an
    // out-of-line call per set bit, which dominates the whole scorer once
    // everything else is a fused pass.
    const BitVector::Word* fw = s.failingPositions.data();
    const std::size_t nw = s.failingPositions.wordCount();
    for (std::size_t wi = 0; wi < nw; ++wi) {
      BitVector::Word bits = fw[wi];
      while (bits) {
        const std::size_t pos =
            wi * BitVector::kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t* row = prepared.groupsAtPosition(pos);
        for (std::size_t p = 0; p < numPartitions; ++p) {
          const std::uint32_t id = row[p];
          words[id / BitVector::kWordBits] |= BitVector::Word{1}
                                              << (id % BitVector::kWordBits);
        }
        contribCells += numPartitions;
      }
    }
  }

  GroupVerdicts verdicts;
  verdicts.failing.reserve(numPartitions);
  if (needSignatures) {
    verdicts.hasSignatures = true;
    verdicts.signatureDegree = model_->degree();
    verdicts.errorSig.reserve(numPartitions);
  }
  for (std::size_t p = 0; p < numPartitions; ++p) {
    verdicts.failing.emplace_back(prepared.partition(p).groupCount());
  }
  if (config_.mode == SignatureMode::Exact) {
    // Sparse compose: one word-wise sweep over the set bits of the flat
    // scoreboard. Global group ids ascend with the partition index, so the
    // partition cursor only ever moves forward.
    std::size_t p = 0;
    const BitVector::Word* gw = s.groupFail.data();
    const std::size_t nw = s.groupFail.wordCount();
    for (std::size_t wi = 0; wi < nw; ++wi) {
      BitVector::Word bits = gw[wi];
      while (bits) {
        const std::size_t id =
            wi * BitVector::kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        while (id >= prepared.groupOffset(p + 1)) ++p;
        verdicts.failing[p].set(id - prepared.groupOffset(p));
      }
    }
  }
  if (needSignatures) {
    for (std::size_t p = 0; p < numPartitions; ++p) {
      const std::size_t b = prepared.partition(p).groupCount();
      const std::size_t off = prepared.groupOffset(p);
      if (config_.mode != SignatureMode::Exact) {
        BitVector& failing = verdicts.failing[p];
        for (std::size_t g = 0; g < b; ++g) {
          if (s.flatSig[off + g] != 0) failing.set(g);
        }
      }
      verdicts.errorSig.emplace_back(s.flatSig.begin() + static_cast<std::ptrdiff_t>(off),
                                     s.flatSig.begin() + static_cast<std::ptrdiff_t>(off + b));
    }
  }

  // PartitionsEvaluated / SessionsRun deltas match runReference exactly (the
  // counter-parity contract); the two batch counters tally batched-only work.
  obs::count(obs::Counter::PartitionsEvaluated, numPartitions);
  obs::count(obs::Counter::SessionsRun, total);
  obs::count(obs::Counter::BatchedGroupScores, total);
  if (contribCells > 0) obs::count(obs::Counter::BatchContribCells, contribCells);
  return verdicts;
}

GroupVerdicts SessionEngine::run(const std::vector<Partition>& partitions,
                                 const FaultResponse& response) const {
  return runReference(PreparedPartitionSet(partitions), response);
}

PartitionVerdictRow SessionEngine::runPartition(const PreparedPartitionSet& prepared,
                                                std::size_t index,
                                                const FaultResponse& response) const {
  obs::PhaseScope phase(obs::Phase::SignatureCompare);
  requireMatchingLength(prepared);
  obs::count(obs::Counter::PartitionsEvaluated);
  obs::count(obs::Counter::SessionsRun, prepared.partition(index).groupCount());
  const bool needSignatures = model_.has_value();
  BitVector failingPositions;
  std::vector<std::size_t> cellPos;
  std::vector<std::uint64_t> cellSig;
  prepareCells(response, needSignatures, failingPositions, cellPos, cellSig);
  return computeRow(prepared, index, failingPositions, cellPos, cellSig, needSignatures);
}

PartitionVerdictRow SessionEngine::runPartition(const Partition& partition,
                                                const FaultResponse& response) const {
  return runPartition(PreparedPartitionSet({partition}), 0, response);
}

}  // namespace scandiag
