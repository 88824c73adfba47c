#include "bist/prpg.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace scandiag {

namespace {

/// In-place 64 x 64 bit-matrix transpose: bit j of a[i] <-> bit i of a[j].
/// Each pass swaps the off-diagonal j x j blocks of every 2j x 2j block.
void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// The 64 bits of `bits` starting at bit `pos` (one word of slack past the
/// end keeps the read in bounds).
std::uint64_t bitsAt(const std::vector<std::uint64_t>& bits, std::size_t pos) {
  const std::size_t w = pos / 64, off = pos % 64;
  return off == 0 ? bits[w] : (bits[w] >> off) | (bits[w + 1] << (64 - off));
}

}  // namespace

PatternSet generatePatterns(const Netlist& netlist, std::size_t numPatterns,
                            const PrpgConfig& config) {
  PatternSet patterns(netlist, numPatterns);
  Lfsr lfsr(config.lfsr, config.seed);
  // Pattern t takes stream bits [t * S, (t + 1) * S), in row order, so row r
  // of pattern t is stream bit t * S + r. Each 64-pattern word column is
  // filled in one block, then turned into rows 64 x 64 bits at a time: row
  // r0 + j of the tile is bit j of the 64 words read at t * S + r0.
  const std::size_t sources = patterns.sourceCount();
  std::vector<std::uint64_t> column(sources + 1);
  std::array<std::uint64_t, 64> tile;
  for (std::size_t w = 0; w < patterns.wordCount(); ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, numPatterns - 64 * w);
    lfsr.fill(column.data(), lanes * sources);
    for (std::size_t r0 = 0; r0 < sources; r0 += 64) {
      for (std::size_t t = 0; t < 64; ++t) tile[t] = t < lanes ? bitsAt(column, t * sources + r0) : 0;
      transpose64(tile);
      for (std::size_t j = 0; j < 64 && r0 + j < sources; ++j) patterns.row(r0 + j)[w] = tile[j];
    }
  }
  return patterns;
}

}  // namespace scandiag
