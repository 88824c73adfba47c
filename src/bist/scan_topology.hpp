// Scan chain topology: which scan cell sits where.
//
// A topology maps dense cell ids [0, numCells) — for a single circuit these
// are DFF ordinals, for an SOC they are global cell ids across all cores —
// onto W scan chains with per-chain positions. Position 0 is the scan-out
// end: the cell at position p of any chain leaves the chain at unload cycle p.
//
// The scan-cell selection hardware (paper Fig. 1) has ONE compare logic fed
// by the shift clock, so selection is by *shift position*: when position p is
// selected, the cells at position p of every chain enter the compactor
// together. Partitions therefore live on [0, maxChainLength) (the "selection
// axis"), and expandPositions() translates a set of positions back into the
// set of cells diagnosed together.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bitvector.hpp"

namespace scandiag {

class ScanTopology {
 public:
  struct CellLoc {
    std::size_t chain;
    std::size_t position;
  };

  /// One chain containing cells 0..numCells-1 in order.
  static ScanTopology singleChain(std::size_t numCells);

  /// numChains chains of (near-)equal length; cells split into contiguous
  /// blocks so structural locality maps to positional locality per chain.
  /// blockChains(n, 1) is singleChain(n).
  static ScanTopology blockChains(std::size_t numCells, std::size_t numChains);

  /// Arbitrary stitching: chains[c] lists cell ids from scan-out to scan-in.
  /// Every cell id in [0, numCells) must appear exactly once, where numCells
  /// is the total count across chains.
  static ScanTopology fromChains(std::vector<std::vector<std::size_t>> chains);

  std::size_t numCells() const { return loc_.size(); }
  std::size_t numChains() const { return chains_.size(); }
  std::size_t chainLength(std::size_t chain) const { return chains_[chain].size(); }
  /// Length of the selection axis (= unload cycles per pattern).
  std::size_t maxChainLength() const { return maxLen_; }

  CellLoc location(std::size_t cell) const;
  const std::vector<std::size_t>& chain(std::size_t c) const { return chains_[c]; }

  /// Cells sitting at the given selection positions (positions.size() ==
  /// maxChainLength()); result sized numCells(). Costs O(set positions x
  /// chains), not O(numCells()).
  BitVector expandPositions(const BitVector& positions) const;

  /// Selection positions occupied by at least one of the given cells
  /// (cells.size() == numCells()); result sized maxChainLength().
  BitVector collapseCells(const BitVector& cells) const;

 private:
  std::vector<std::vector<std::size_t>> chains_;
  std::vector<CellLoc> loc_;
  std::size_t maxLen_ = 0;
};

}  // namespace scandiag
