#include "sim/logic_simulator.hpp"

#include <sstream>
#include <stdexcept>

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
    : netlist_(&netlist), image_(netlist.image().get()), lev_(&netlist.levelization()) {}

namespace {

/// Every evaluated gate is one operator folded over its fanin words from the
/// operator's identity, then XORed with an inversion mask: BUF and NOT are
/// one-input AND and NAND, and the constants fold no fanin at all.
enum class Fold : std::uint8_t { And, Or, Xor };

/// Calls f.template operator()<F>(invert) with the fold and the inversion
/// mask of `type`: the one place a gate type becomes its operator, so a
/// program run and a single gate dispatch alike.
template <typename Fn>
decltype(auto) withOperator(GateType type, Fn&& f) {
  constexpr SimWord kInvert = ~SimWord{0};
  switch (type) {
    case GateType::Buf:
    case GateType::And:
    case GateType::Const1:
      return f.template operator()<Fold::And>(SimWord{0});
    case GateType::Not:
    case GateType::Nand:
    case GateType::Const0:
      return f.template operator()<Fold::And>(kInvert);
    case GateType::Or:
      return f.template operator()<Fold::Or>(SimWord{0});
    case GateType::Nor:
      return f.template operator()<Fold::Or>(kInvert);
    case GateType::Xor:
      return f.template operator()<Fold::Xor>(SimWord{0});
    case GateType::Xnor:
      return f.template operator()<Fold::Xor>(kInvert);
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  throw std::logic_error("gate evaluation on a source gate");
}

template <Fold F>
constexpr SimWord kIdentity = F == Fold::And ? ~SimWord{0} : SimWord{0};

template <Fold F>
SimWord fold(SimWord acc, const GateId* in, const GateId* end, const SimWord* values) {
  for (; in != end; ++in) {
    if constexpr (F == Fold::And) {
      acc &= values[*in];
    } else if constexpr (F == Fold::Or) {
      acc |= values[*in];
    } else {
      acc ^= values[*in];
    }
  }
  return acc;
}

/// One run of the program: every gate shares the operator and the fanin
/// count, so the loop has no per-gate type dispatch.
template <Fold F>
void evalRun(const NetlistImage& image, const GateId* gate, const GateId* last, SimWord invert,
             SimWord* values) {
  const std::uint32_t* start = image.faninStart.data();
  const GateId* fanin = image.fanin.data();
  for (; gate != last; ++gate) {
    const GateId g = *gate;
    values[g] = fold<F>(kIdentity<F>, fanin + start[g], fanin + start[g + 1], values) ^ invert;
  }
}

/// Fold with fanin `pin` reading `forced` instead (kOutputPin: none).
template <Fold F>
SimWord foldPinned(const GateId* in, const GateId* end, const SimWord* values, int pin,
                   SimWord forced) {
  if (pin == FaultSite::kOutputPin) return fold<F>(kIdentity<F>, in, end, values);
  return fold<F>(fold<F>(forced, in, in + pin, values), in + pin + 1, end, values);
}

SimWord evalOne(const NetlistImage& image, GateId id, const SimWord* values, int pin,
                SimWord forced) {
  const GateId* in = image.fanin.data() + image.faninStart[id];
  const GateId* end = image.fanin.data() + image.faninStart[id + 1];
  return withOperator(image.type[id], [&]<Fold F>(SimWord invert) {
    return foldPinned<F>(in, end, values, pin, forced) ^ invert;
  });
}

}  // namespace

void LogicSimulator::evaluate(std::vector<SimWord>& values) const {
  SCANDIAG_REQUIRE(values.size() == netlist_->gateCount(), "value vector size mismatch");
  const NetlistImage& image = *image_;
  const GateId* gates = image.program.data();
  std::uint32_t begin = 0;
  for (const NetlistImage::Run& run : image.runs) {
    withOperator(run.type, [&]<Fold F>(SimWord invert) {
      evalRun<F>(image, gates + begin, gates + run.end, invert, values.data());
    });
    begin = run.end;
  }
}

SimWord LogicSimulator::evalGate(GateId id, const std::vector<SimWord>& values) const {
  return evalOne(*image_, id, values.data(), FaultSite::kOutputPin, 0);
}

void LogicSimulator::evaluateFaulty(const FaultSite& fault, const FaultCone& cone,
                                    std::vector<SimWord>& values) const {
  SCANDIAG_REQUIRE(values.size() == netlist_->gateCount(), "value vector size mismatch");
  const SimWord stuck = fault.stuckAt ? ~SimWord{0} : SimWord{0};
  const GateType siteType = image_->type[fault.gate];

  if (fault.isOutputFault() && isSourceType(siteType)) {
    values[fault.gate] = stuck;
  }
  for (GateId id : cone.gates) {
    if (id == fault.gate) {
      if (fault.isOutputFault()) {
        values[id] = stuck;
      } else {
        values[id] = evalOne(*image_, id, values.data(), fault.pin, stuck);
      }
    } else {
      values[id] = evalOne(*image_, id, values.data(), FaultSite::kOutputPin, 0);
    }
  }
  // A pin fault whose owner is not in the cone list (e.g. a DFF D pin) has no
  // combinational re-evaluation at all; the fault simulator handles the
  // capture-side effect directly.
}

}  // namespace scandiag
