#include "netlist/fault_sites.hpp"

#include "common/assert.hpp"
#include "netlist/netlist_image.hpp"

namespace scandiag {

namespace {

/// True if the branch fault (type, stuckAt) on an input pin is equivalent to
/// a stem fault of the same gate and should be dropped when collapsing.
bool branchCollapses(GateType type, bool stuckAt) {
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      return stuckAt == false;  // controlling value 0
    case GateType::Or:
    case GateType::Nor:
      return stuckAt == true;  // controlling value 1
    case GateType::Buf:
    case GateType::Not:
      return true;  // single-input: both input faults map to output faults
    default:
      return false;  // XOR/XNOR/DFF: no controlling value
  }
}

/// Calls emit(site) for every site in enumeration order.
template <typename Emit>
void forEachFaultSite(const Netlist& netlist, bool collapse, Emit&& emit) {
  const NetlistImage& image = *netlist.image();
  for (GateId id = 0; id < image.gateCount(); ++id) {
    const GateType type = image.type[id];
    if (type == GateType::Const0 || type == GateType::Const1) continue;
    // Stem faults. A stem that drives nothing is unobservable; skip it so the
    // sampler never wastes budget on structurally undetectable faults.
    if (!image.fanouts(id).empty() || image.outputPos[id] != NetlistImage::kNone) {
      emit(FaultSite{id, FaultSite::kOutputPin, false});
      emit(FaultSite{id, FaultSite::kOutputPin, true});
    }
    // Branch faults where the driver fans out.
    const std::span<const GateId> fanins = image.fanins(id);
    for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
      const GateId driver = fanins[pin];
      SCANDIAG_REQUIRE(driver != kInvalidGate, "dangling fanin during fault enumeration");
      if (image.fanouts(driver).size() <= 1) continue;
      for (const bool sa : {false, true}) {
        if (!collapse || !branchCollapses(type, sa))
          emit(FaultSite{id, static_cast<int>(pin), sa});
      }
    }
  }
}

}  // namespace

std::vector<FaultSite> enumerateFaultSites(const Netlist& netlist, bool collapse) {
  // Counted first so the list is one exact-size allocation: netlists keep
  // it for life, and growth by doubling would leave up to half of it slack.
  std::size_t count = 0;
  forEachFaultSite(netlist, collapse, [&](const FaultSite&) { ++count; });
  std::vector<FaultSite> sites;
  sites.reserve(count);
  forEachFaultSite(netlist, collapse, [&](const FaultSite& site) { sites.push_back(site); });
  return sites;
}

}  // namespace scandiag
