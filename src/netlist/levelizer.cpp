#include "netlist/levelizer.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "netlist/netlist_image.hpp"

namespace scandiag {

Levelization levelize(const Netlist& netlist) { return levelize(netlist, *netlist.image()); }

Levelization levelize(const Netlist& netlist, const NetlistImage& image) {
  const std::size_t n = image.gateCount();
  Levelization out;
  out.level.assign(n, 0);

  // Kahn's algorithm over combinational gates only. A DFF's D-input edge is a
  // *sequential* edge: the DFF's output does not depend combinationally on it,
  // so DFFs contribute no in-degree and never enter the order.
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<GateId> ready;
  std::vector<GateId> kahn;
  for (GateId id = 0; id < n; ++id) {
    if (isSourceType(image.type[id])) continue;
    std::uint32_t unresolved = 0;
    for (const GateId f : image.fanins(id)) {
      SCANDIAG_REQUIRE(f != kInvalidGate, "dangling fanin during levelization");
      if (!isSourceType(image.type[f])) ++unresolved;
    }
    pending[id] = unresolved;
    if (unresolved == 0) ready.push_back(id);
  }

  while (!ready.empty()) {
    const GateId id = ready.back();
    ready.pop_back();
    std::size_t lvl = 0;
    for (const GateId f : image.fanins(id)) lvl = std::max(lvl, out.level[f] + 1);
    out.level[id] = lvl;
    out.maxLevel = std::max(out.maxLevel, lvl);
    kahn.push_back(id);
    for (const GateId user : image.fanouts(id)) {
      if (isSourceType(image.type[user])) continue;  // DFF D edge is sequential
      if (--pending[user] == 0) ready.push_back(user);
    }
  }

  if (kahn.size() != netlist.combGateCount()) {
    for (GateId id = 0; id < n; ++id) {
      if (!isSourceType(image.type[id]) && pending[id] != 0)
        SCANDIAG_REQUIRE(false, "combinational cycle through gate " + netlist.gateName(id));
    }
  }
  // Gates at lower levels can appear after higher ones with a stack; bucket
  // them by level (stable in Kahn order) so cone-restricted evaluation can
  // binary-slice later.
  std::vector<std::uint32_t> bound(out.maxLevel + 2, 0);
  for (const GateId id : kahn) ++bound[out.level[id] + 1];
  for (std::size_t l = 1; l < bound.size(); ++l) bound[l] += bound[l - 1];
  out.order.resize(kahn.size());
  for (const GateId id : kahn) out.order[bound[out.level[id]]++] = id;
  return out;
}

}  // namespace scandiag
