#include "sim/logic_simulator.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace scandiag {

std::string describeFault(const Netlist& netlist, const FaultSite& fault) {
  std::ostringstream os;
  os << netlist.gateName(fault.gate);
  if (!fault.isOutputFault()) os << ".in" << fault.pin;
  os << "/SA" << (fault.stuckAt ? 1 : 0);
  return os.str();
}

LogicSimulator::LogicSimulator(const Netlist& netlist)
    : netlist_(&netlist), lev_(&netlist.levelization()) {}

namespace {

SimWord combine(GateType type, const std::vector<GateId>& fanins,
                const std::vector<SimWord>& values, int faultPin, SimWord forced) {
  auto in = [&](std::size_t k) -> SimWord {
    return static_cast<int>(k) == faultPin ? forced : values[fanins[k]];
  };
  SimWord acc;
  switch (type) {
    case GateType::Buf:
      return in(0);
    case GateType::Not:
      return ~in(0);
    case GateType::And:
    case GateType::Nand:
      acc = in(0);
      for (std::size_t k = 1; k < fanins.size(); ++k) acc &= in(k);
      return type == GateType::And ? acc : ~acc;
    case GateType::Or:
    case GateType::Nor:
      acc = in(0);
      for (std::size_t k = 1; k < fanins.size(); ++k) acc |= in(k);
      return type == GateType::Or ? acc : ~acc;
    case GateType::Xor:
    case GateType::Xnor:
      acc = in(0);
      for (std::size_t k = 1; k < fanins.size(); ++k) acc ^= in(k);
      return type == GateType::Xor ? acc : ~acc;
    case GateType::Const0:
      return SimWord{0};
    case GateType::Const1:
      return ~SimWord{0};
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  throw std::logic_error("combine() called on a source gate");
}

}  // namespace

void LogicSimulator::evaluate(std::vector<SimWord>& values) const {
  SCANDIAG_REQUIRE(values.size() == netlist_->gateCount(), "value vector size mismatch");
  for (GateId id = 0; id < netlist_->gateCount(); ++id) {
    const GateType t = netlist_->gate(id).type;
    if (t == GateType::Const0) values[id] = SimWord{0};
    if (t == GateType::Const1) values[id] = ~SimWord{0};
  }
  for (GateId id : lev_->order) {
    const Gate& g = netlist_->gate(id);
    values[id] = combine(g.type, g.fanins, values, FaultSite::kOutputPin, 0);
  }
}

SimWord LogicSimulator::evalGate(GateId id, const std::vector<SimWord>& values) const {
  const Gate& g = netlist_->gate(id);
  return combine(g.type, g.fanins, values, FaultSite::kOutputPin, 0);
}

SimWord LogicSimulator::evalGateWithPinFault(GateId id, const std::vector<SimWord>& values,
                                             int pin, SimWord forced) const {
  const Gate& g = netlist_->gate(id);
  return combine(g.type, g.fanins, values, pin, forced);
}

void LogicSimulator::evaluateFaulty(const FaultSite& fault, const FaultCone& cone,
                                    std::vector<SimWord>& values) const {
  SCANDIAG_REQUIRE(values.size() == netlist_->gateCount(), "value vector size mismatch");
  const SimWord stuck = fault.stuckAt ? ~SimWord{0} : SimWord{0};
  const GateType siteType = netlist_->gate(fault.gate).type;

  if (fault.isOutputFault() && isSourceType(siteType)) {
    values[fault.gate] = stuck;
  }
  for (GateId id : cone.gates) {
    if (id == fault.gate) {
      if (fault.isOutputFault()) {
        values[id] = stuck;
      } else {
        values[id] = evalGateWithPinFault(id, values, fault.pin, stuck);
      }
    } else {
      const Gate& g = netlist_->gate(id);
      values[id] = combine(g.type, g.fanins, values, FaultSite::kOutputPin, 0);
    }
  }
  // A pin fault whose owner is not in the cone list (e.g. a DFF D pin) has no
  // combinational re-evaluation at all; the fault simulator handles the
  // capture-side effect directly.
}

}  // namespace scandiag
