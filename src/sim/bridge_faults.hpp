// Two-line bridging faults — a second defect model beyond single stuck-at.
//
// A resistive short between two nets makes them interact: wired-AND/OR (both
// nets take the AND/OR of their driven values) or dominant (the aggressor
// overwrites the victim). Diagnosis-wise a bridge is interesting because its
// failing cells come from the UNION of two fault cones — exactly the paper's
// Fig. 2 discussion of overlapping/non-overlapping cone segments — so it
// stresses two-step partitioning's clustering assumption harder than any
// single stuck-at. The diagnosis stack consumes the resulting FaultResponse
// unchanged (it never cared what produced the error streams); a bridge is
// simulated by FaultSimulator::simulateBridge against the good machine.
//
// Only non-feedback bridges are modeled (no combinational path between the
// two nets in either direction): feedback bridges can oscillate and need a
// different evaluation semantics entirely.
#pragma once

#include <vector>

#include "sim/fault_simulator.hpp"

namespace scandiag {

enum class BridgeKind : std::uint8_t {
  WiredAnd,    // both nets read a AND b
  WiredOr,     // both nets read a OR b
  ADominatesB, // net b reads a; a unaffected
  BDominatesA, // net a reads b; b unaffected
};

std::string_view bridgeKindName(BridgeKind kind);

struct BridgeFault {
  GateId a = kInvalidGate;
  GateId b = kInvalidGate;
  BridgeKind kind = BridgeKind::WiredAnd;
};

/// True iff no combinational path connects a and b in either direction
/// (bridging them cannot create a loop).
bool isFeedbackFree(const Netlist& netlist, GateId a, GateId b);

/// Deterministically samples up to `count` feedback-free bridge candidates,
/// biased toward structurally nearby net pairs (shorts happen between
/// neighbouring wires). Kinds cycle through all four.
std::vector<BridgeFault> enumerateBridgeCandidates(const Netlist& netlist, std::size_t count,
                                                   std::uint64_t seed);

}  // namespace scandiag
