#include "sim/fault_list.hpp"

#include <algorithm>

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
  std::vector<FaultSite> pool = *faults_;
  Xoroshiro128 rng(seed);
  // Partial Fisher-Yates: the first min(n, size) entries become the sample.
  const std::size_t take = std::min(n, pool.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.nextBelow(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(take);
  return pool;
}

}  // namespace scandiag
