// Deterministic synthetic circuit generator with locality-controlled structure.
//
// Substitute for the original ISCAS-89 netlists (DESIGN.md §5): for a given
// size profile it builds a levelized random sequential circuit in which gates
// draw fanins from structurally nearby signals. "Nearby" is defined on a
// one-dimensional position axis shared with the scan-cell ordering, so a
// fault's output cone reaches a *clustered* run of next-state flops — the
// physical phenomenon (paper §3) whose exploitation is the point of
// interval-based partitioning. A small global-wire probability reproduces the
// occasional long-range signal (resets, control) that de-clusters some cones.
//
// The generator is fully deterministic: a profile → identical netlist on every
// platform. Its shape parameters are fixed constants (synthetic_generator.cpp).
#pragma once

#include "netlist/iscas89_profiles.hpp"
#include "netlist/netlist.hpp"

namespace scandiag {

/// Builds a circuit matching `profile`'s PI/PO/DFF/gate counts exactly.
/// Postconditions: validate() passes; every DFF has a D driver; every
/// combinational gate has at least one observing path (PO or DFF).
/// The generator seed is mixed with the profile name, so equal-size profiles
/// with different names get distinct netlists.
Netlist generateCircuit(const Iscas89Profile& profile);

/// generateCircuit(iscas89Profile(name)).
Netlist generateNamedCircuit(std::string_view name);

}  // namespace scandiag
