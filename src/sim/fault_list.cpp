#include "sim/fault_list.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace scandiag {

FaultList::FaultList(std::vector<FaultSite> faults)
    : faults_(std::make_shared<const std::vector<FaultSite>>(std::move(faults))) {}

FaultList::FaultList(std::shared_ptr<const std::vector<FaultSite>> faults)
    : faults_(std::move(faults)) {}

FaultList FaultList::enumerateCollapsed(const Netlist& netlist) {
  return FaultList(netlist.collapsedFaults());
}

FaultList FaultList::enumerateAll(const Netlist& netlist) {
  return FaultList(enumerateFaultSites(netlist, /*collapse=*/false));
}

std::vector<FaultSite> FaultList::sample(std::size_t n, std::uint64_t seed) const {
  const std::vector<FaultSite>& pool = *faults_;
  SCANDIAG_REQUIRE(pool.size() < std::numeric_limits<std::uint32_t>::max(),
                   "fault universe too large to sample");
  const std::size_t take = std::min(n, pool.size());
  // Partial Fisher-Yates over the index array 0..size-1, kept sparse: a slot
  // a swap wrote maps to the index it now holds, every other slot holds its
  // own. Step i swaps slots i and j >= i and emits slot i, which no later step
  // reads, so only slot j is written back. The map is open addressing with
  // linear probing at load <= 1/4 (short probes keep the draws' divisions
  // overlapped), keyed by slot + 1 (0 marks a free entry); the slots are
  // uniform draws, so their low bits hash them.
  struct Moved {
    std::uint32_t key = 0, index = 0;
  };
  std::vector<Moved> moved(std::bit_ceil(4 * take + 1));
  const std::size_t mask = moved.size() - 1;
  const auto find = [&](std::size_t slot) -> Moved& {
    std::size_t h = slot & mask;
    while (moved[h].key != 0 && moved[h].key != slot + 1) h = (h + 1) & mask;
    return moved[h];
  };
  Xoroshiro128 rng(seed);
  std::vector<FaultSite> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.nextBelow(pool.size() - i);
    const Moved& atI = find(i);
    const std::uint32_t held = atI.key != 0 ? atI.index : static_cast<std::uint32_t>(i);
    Moved& atJ = find(j);
    out.push_back(pool[atJ.key != 0 ? atJ.index : j]);
    atJ = {static_cast<std::uint32_t>(j + 1), held};
  }
  return out;
}

}  // namespace scandiag
