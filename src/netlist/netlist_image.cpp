#include "netlist/netlist_image.hpp"

#include <algorithm>

#include "netlist/levelizer.hpp"

namespace scandiag {

namespace {

constexpr std::size_t kGateTypes = static_cast<std::size_t>(GateType::Const1) + 1;
/// Fanin-count classes of the program's runs: 0 to 4 fanins, then 5 or more.
constexpr std::size_t kFaninClasses = 6;

/// Counts in starts[i + 1] become bucket bounds: starts[i] = begin of i.
void prefixSum(std::vector<std::uint32_t>& starts) {
  for (std::size_t i = 1; i < starts.size(); ++i) starts[i] += starts[i - 1];
}

}  // namespace

NetlistImage::NetlistImage(const Netlist& netlist) {
  const std::size_t n = netlist.gateCount();
  std::size_t edges = 0;
  for (GateId id = 0; id < n; ++id) edges += netlist.gate(id).fanins.size();

  type.resize(n);
  faninStart.resize(n + 1);
  fanin.reserve(edges);
  fanoutStart.assign(n + 1, 0);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = netlist.gate(id);
    type[id] = g.type;
    faninStart[id] = static_cast<std::uint32_t>(fanin.size());
    for (const GateId f : g.fanins) {
      fanin.push_back(f);
      if (f != kInvalidGate) ++fanoutStart[f + 1];
    }
  }
  faninStart[n] = static_cast<std::uint32_t>(fanin.size());

  // Users in ascending id: one pass over the gates in id order, each edge
  // placed at its driver's cursor (fanoutStart[f] advances to f's end, then
  // the bounds shift back by one slot).
  prefixSum(fanoutStart);
  fanout.resize(fanoutStart[n]);
  for (GateId id = 0; id < n; ++id) {
    for (const GateId f : fanins(id)) {
      if (f != kInvalidGate) fanout[fanoutStart[f]++] = id;
    }
  }
  for (std::size_t i = n; i > 0; --i) fanoutStart[i] = fanoutStart[i - 1];
  fanoutStart[0] = 0;

  numDffs = static_cast<std::uint32_t>(netlist.dffs().size());
  sourceRow.assign(n, kNone);
  for (std::uint32_t k = 0; k < numDffs; ++k) sourceRow[netlist.dffs()[k]] = k;
  for (std::size_t i = 0; i < netlist.inputs().size(); ++i)
    sourceRow[netlist.inputs()[i]] = numDffs + static_cast<std::uint32_t>(i);
  outputPos.assign(n, kNone);
  for (std::size_t k = 0; k < netlist.outputs().size(); ++k)
    outputPos[netlist.outputs()[k]] = static_cast<std::uint32_t>(k);
}

void NetlistImage::buildProgram(const Levelization& lev) {
  // One counting sort on (level, type, fanin class); constants sit at level
  // 0 and so come first. Inputs and DFFs are loaded by the caller, not
  // evaluated.
  const std::size_t n = gateCount();
  const auto evaluated = [&](GateId g) {
    return type[g] != GateType::Input && type[g] != GateType::Dff;
  };
  const auto key = [&](GateId g) {
    const std::size_t fanins = std::min<std::size_t>(faninStart[g + 1] - faninStart[g],
                                                     kFaninClasses - 1);
    return (lev.level[g] * kGateTypes + static_cast<std::size_t>(type[g])) * kFaninClasses +
           fanins;
  };
  const std::size_t keys = (lev.maxLevel + 1) * kGateTypes * kFaninClasses;
  std::vector<std::uint32_t> bound(keys + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    if (evaluated(g)) ++bound[key(g) + 1];
  }
  prefixSum(bound);
  program.resize(bound[keys]);
  for (GateId g = 0; g < n; ++g) {
    if (evaluated(g)) program[bound[key(g)]++] = g;
  }
  // bound[k] is now the end of bucket k.
  runs.clear();
  std::uint32_t begin = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    if (bound[k] == begin) continue;
    runs.push_back(Run{static_cast<GateType>(k / kFaninClasses % kGateTypes), bound[k]});
    begin = bound[k];
  }
}

}  // namespace scandiag
