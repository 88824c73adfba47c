// Single-stuck-at fault universe and its deterministic sampling. The
// enumeration and its collapsing rule live in netlist/fault_sites; the
// collapsed universe is the netlist's own cached list, shared, not copied.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logic_simulator.hpp"

namespace scandiag {

class FaultList {
 public:
  FaultList() = default;
  explicit FaultList(std::vector<FaultSite> faults);

  /// Collapsed fault universe of `netlist`: shares netlist.collapsedFaults().
  static FaultList enumerateCollapsed(const Netlist& netlist);
  /// Uncollapsed universe (all stems + all branches at fanout stems),
  /// enumerated afresh.
  static FaultList enumerateAll(const Netlist& netlist);

  const std::vector<FaultSite>& faults() const { return *faults_; }
  std::size_t size() const { return faults_->size(); }

  /// Deterministic uniform sample of min(n, size()) distinct faults.
  std::vector<FaultSite> sample(std::size_t n, std::uint64_t seed) const;

 private:
  explicit FaultList(std::shared_ptr<const std::vector<FaultSite>> faults);

  std::shared_ptr<const std::vector<FaultSite>> faults_ =
      std::make_shared<const std::vector<FaultSite>>();
};

}  // namespace scandiag
