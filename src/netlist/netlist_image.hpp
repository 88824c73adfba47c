// Flat, read-only image of a netlist: the one structure every simulator,
// cone walker, bridge check and PODEM search reads.
//
// Netlist::validate() builds it next to the levelization, in O(gates + edges)
// with counting passes and no comparison sort; copies of the netlist share
// it and every mutator drops it. It holds:
//  * gate types, and CSR (compressed sparse row) fanins and fanouts. A
//    gate's users are listed in ascending user id, one entry per fanin edge
//    (a gate reading one driver twice is listed twice) — the order the
//    levelizer's Kahn pass and PODEM's event queue depend on. DFF D edges
//    are included;
//  * source rows: DFF ordinal k (index into dffs()), or numDffs + the
//    primary-input ordinal — the PRPG's emission order and PatternSet's rows;
//  * output positions (index into outputs());
//  * the evaluation program: constants, then the combinational gates grouped
//    by (level, gate type), ascending id within a group; each group is split
//    by fanin count (1 to 4, then 5 or more). Gates of one level never feed
//    each other, so any order within a level computes the same values;
//    grouping by type turns the per-gate type dispatch into long runs of one
//    operator, and by fanin count gives each run's fanin loop one trip count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace scandiag {

struct Levelization;

struct NetlistImage {
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// program[previous run's end, end) all have gate type `type`.
  struct Run {
    GateType type;
    std::uint32_t end;
  };

  /// Topology only; the program stays empty until buildProgram().
  explicit NetlistImage(const Netlist& netlist);
  /// Fills program and runs from `lev` (the levelization of this image).
  void buildProgram(const Levelization& lev);

  std::size_t gateCount() const { return type.size(); }
  std::span<const GateId> fanins(GateId g) const {
    return {fanin.data() + faninStart[g], fanin.data() + faninStart[g + 1]};
  }
  std::span<const GateId> fanouts(GateId g) const {
    return {fanout.data() + fanoutStart[g], fanout.data() + fanoutStart[g + 1]};
  }
  /// Ordinal of DFF `g` in dffs(), or kNone for any other gate.
  std::uint32_t dffOrdinal(GateId g) const {
    return sourceRow[g] < numDffs ? sourceRow[g] : kNone;
  }

  std::vector<GateType> type;             // [gate]
  std::vector<std::uint32_t> faninStart;  // [gate], [gate + 1] bound fanin
  std::vector<GateId> fanin;              // an unconnected DFF D reads kInvalidGate
  std::vector<std::uint32_t> fanoutStart;
  std::vector<GateId> fanout;
  std::vector<std::uint32_t> sourceRow;  // [gate] see above; kNone for other gates
  std::vector<std::uint32_t> outputPos;  // [gate] index in outputs(), or kNone
  std::uint32_t numDffs = 0;
  std::vector<GateId> program;
  std::vector<Run> runs;
};

}  // namespace scandiag
