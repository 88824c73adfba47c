// Pseudorandom pattern generation (the PRPG of a STUMPS-style scan-BIST).
//
// One LFSR supplies, per test pattern, a scan-load bit for every scan cell
// and a stimulus bit for every primary input. The mapping from LFSR output
// stream to (cell, pattern) is fixed and deterministic, so every BIST session
// of a diagnosis run applies the *same* patterns — the precondition for
// comparing per-group signatures across sessions and partitions.
#pragma once

#include <cstdint>

#include "bist/lfsr.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag {

struct PrpgConfig {
  LfsrConfig lfsr{/*degree=*/24, /*tapMask=*/0};
  std::uint64_t seed = 0x5eed;
};

/// Fills a PatternSet for `netlist`: for each pattern, first the scan-load
/// bits of all DFFs (netlist DFF order), then the primary-input bits — the
/// PatternSet's row order, so pattern t is one run of the LFSR's stream.
PatternSet generatePatterns(const Netlist& netlist, std::size_t numPatterns,
                            const PrpgConfig& config = {});

}  // namespace scandiag
