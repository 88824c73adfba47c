// Levelization: topological ordering of the combinational part of a netlist.
//
// Sources (primary inputs, DFF outputs, constants) sit at level 0 and are not
// in the evaluation order. Every other gate appears after all of its fanins.
// A combinational cycle (a loop not broken by a DFF) is a structural error and
// raises std::invalid_argument naming a gate on the cycle.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"

namespace scandiag {

struct Levelization {
  /// Combinational gates in dependency order (fanins precede users).
  std::vector<GateId> order;
  /// level[g]: 0 for sources, 1 + max(fanin levels) otherwise.
  std::vector<std::size_t> level;
  std::size_t maxLevel = 0;
};

struct NetlistImage;

/// Fresh levelization over the netlist's image (built and cached first if the
/// netlist has none); Netlist::levelization() caches this result.
Levelization levelize(const Netlist& netlist);

/// The same pass over an explicit image of `netlist`: how the netlist builds
/// its image and levelization together.
Levelization levelize(const Netlist& netlist, const NetlistImage& image);

}  // namespace scandiag
