#include "atpg/podem.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "netlist/cone_analysis.hpp"

namespace scandiag {

namespace {

// 3-valued logic: 0, 1, X.
using V3 = std::uint8_t;
constexpr V3 V0 = 0;
constexpr V3 V1 = 1;
constexpr V3 VX = 2;

V3 v3Not(V3 a) { return a == VX ? VX : (a == V0 ? V1 : V0); }

V3 evalGate3(GateType type, const GateId* fanins, std::size_t arity, const V3* values,
             int faultPin, V3 forced) {
  auto in = [&](std::size_t k) -> V3 {
    return static_cast<int>(k) == faultPin ? forced : values[fanins[k]];
  };
  switch (type) {
    case GateType::Buf:
      return in(0);
    case GateType::Not:
      return v3Not(in(0));
    case GateType::And:
    case GateType::Nand: {
      bool anyX = false;
      for (std::size_t k = 0; k < arity; ++k) {
        const V3 v = in(k);
        if (v == V0) return type == GateType::And ? V0 : V1;
        anyX |= (v == VX);
      }
      if (anyX) return VX;
      return type == GateType::And ? V1 : V0;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool anyX = false;
      for (std::size_t k = 0; k < arity; ++k) {
        const V3 v = in(k);
        if (v == V1) return type == GateType::Or ? V1 : V0;
        anyX |= (v == VX);
      }
      if (anyX) return VX;
      return type == GateType::Or ? V0 : V1;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint8_t parity = type == GateType::Xnor ? 1 : 0;
      for (std::size_t k = 0; k < arity; ++k) {
        const V3 v = in(k);
        if (v == VX) return VX;
        parity ^= v;
      }
      return parity ? V1 : V0;
    }
    case GateType::Const0:
      return V0;
    case GateType::Const1:
      return V1;
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  throw std::logic_error("evalGate3 on a source gate");
}

/// Non-controlling input value that lets a D pass through the gate.
V3 nonControlling(GateType type) {
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      return V1;
    case GateType::Or:
    case GateType::Nor:
      return V0;
    default:
      return V0;  // XOR family propagates under any value
  }
}

bool invertingType(GateType type) {
  return type == GateType::Nand || type == GateType::Nor || type == GateType::Not ||
         type == GateType::Xnor;
}

struct Decision {
  GateId source;
  bool value;
  bool flipped;
};

}  // namespace

void TestCube::applyTo(PatternSet& patterns, std::size_t t, const Netlist& netlist,
                       std::uint64_t fillSeed) const {
  // Fill bits are drawn in GateId order: the merge of dffs() and inputs(),
  // both ascending, visits exactly the sources in that order.
  Xoroshiro128 rng(fillSeed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
  const std::vector<GateId>& dffs = netlist.dffs();
  const std::vector<GateId>& inputs = netlist.inputs();
  std::size_t k = 0, i = 0;
  while (k < dffs.size() || i < inputs.size()) {
    const bool dff = i == inputs.size() || (k < dffs.size() && dffs[k] < inputs[i]);
    const GateId id = dff ? dffs[k] : inputs[i];
    const std::size_t row = dff ? k++ : dffs.size() + i++;
    const bool bit = (id < care.size() && care.test(id)) ? value.test(id) : rng.nextBool();
    patterns.setRowBit(row, t, bit);
  }
}

PodemAtpg::PodemAtpg(const Netlist& netlist) : sim_(netlist), image_(&sim_.image()) {
  const Levelization& lev = sim_.levelization();
  const std::size_t n = image_->gateCount();
  orderPos_.assign(n, 0);
  for (std::size_t i = 0; i < lev.order.size(); ++i)
    orderPos_[lev.order[i]] = static_cast<std::uint32_t>(i);

  allX_.assign(n, VX);
  for (GateId id = 0; id < n; ++id) {
    if (image_->type[id] == GateType::Const0) allX_[id] = V0;
    if (image_->type[id] == GateType::Const1) allX_[id] = V1;
  }
  for (GateId id : lev.order) allX_[id] = eval(id, allX_.data(), FaultSite::kOutputPin, VX);
}

std::uint8_t PodemAtpg::eval(GateId id, const std::uint8_t* plane, int pin,
                             std::uint8_t forced) const {
  const std::span<const GateId> fanins = image_->fanins(id);
  return evalGate3(image_->type[id], fanins.data(), fanins.size(), plane, pin, forced);
}

AtpgResult PodemAtpg::generate(const FaultSite& fault, std::size_t backtrackLimit) const {
  const Netlist& nl = sim_.netlist();
  const NetlistImage& image = *image_;
  SCANDIAG_REQUIRE(fault.gate < nl.gateCount(), "fault site out of range");
  AtpgResult result;

  // The "fault line" whose good value must be the complement of the stuck
  // value: the site's output, or the driver seen by the faulted pin.
  const GateId faultLine =
      fault.isOutputFault() ? fault.gate : image.fanins(fault.gate)[fault.pin];
  const V3 stuck = fault.stuckAt ? V1 : V0;
  const V3 activate = v3Not(stuck);
  const bool dffPinFault = !fault.isOutputFault() && image.type[fault.gate] == GateType::Dff;

  std::vector<V3> good = allX_;
  std::vector<V3> faulty = allX_;
  std::vector<Decision> decisions;

  // Event queue: one bucket per level. A gate's users sit at strictly higher
  // levels, so one low-to-high sweep settles every change.
  const Levelization& lev = sim_.levelization();
  std::vector<std::vector<GateId>> buckets(lev.maxLevel + 1);
  std::vector<std::uint8_t> queued(nl.gateCount(), 0);
  auto schedule = [&](GateId id) {
    for (const GateId user : image.fanouts(id)) {
      // A DFF's D edge is sequential: only combinational users get events.
      if (isSourceType(image.type[user]) || queued[user]) continue;
      queued[user] = 1;
      buckets[lev.level[user]].push_back(user);
    }
  };
  auto imply = [&] {
    for (std::vector<GateId>& bucket : buckets) {
      for (const GateId id : bucket) {
        queued[id] = 0;
        const V3 g = eval(id, good.data(), FaultSite::kOutputPin, VX);
        V3 f;
        if (id != fault.gate) {
          f = eval(id, faulty.data(), FaultSite::kOutputPin, VX);
        } else {
          f = fault.isOutputFault() ? stuck : eval(id, faulty.data(), fault.pin, stuck);
        }
        if (g == good[id] && f == faulty[id]) continue;
        good[id] = g;
        faulty[id] = f;
        schedule(id);
      }
      bucket.clear();
    }
  };
  // A source-output fault stays pinned to its stuck value in the faulty plane.
  auto assign = [&](GateId source, V3 value) {
    good[source] = value;
    faulty[source] = fault.isOutputFault() && source == fault.gate ? stuck : value;
    schedule(source);
  };

  // Inject the fault. A DFF D-pin fault lives in the capture, not in either
  // plane.
  if (fault.isOutputFault()) {
    faulty[fault.gate] = stuck;
  } else if (!dffPinFault) {
    faulty[fault.gate] = eval(fault.gate, faulty.data(), fault.pin, stuck);
  }
  if (faulty[fault.gate] != good[fault.gate]) schedule(fault.gate);
  imply();

  // Only the fault's fanout cone can carry a D: the D-frontier scans its
  // combinational gates in levelized order (the first qualifying gate picks
  // the objective), and the observation check its PO / DFF-driver lines.
  std::vector<GateId> cone;
  std::vector<GateId> coneObs;
  if (!dffPinFault) {
    FaultCone reach = computeCone(nl, lev, fault.gate);
    // computeCone breaks level ties by id; the frontier must follow lev.order.
    cone = std::move(reach.gates);
    std::sort(cone.begin(), cone.end(),
              [&](GateId a, GateId b) { return orderPos_[a] < orderPos_[b]; });
    coneObs = std::move(reach.reachableOutputs);
    for (std::size_t k = reach.reachableDffs.findFirst(); k != BitVector::npos;
         k = reach.reachableDffs.findNext(k))
      coneObs.push_back(image.fanins(nl.dffs()[k])[0]);
  }

  auto isD = [&](GateId line) {
    return good[line] != VX && faulty[line] != VX && good[line] != faulty[line];
  };

  auto observed = [&] {
    // A DFF D-pin fault is observed at its own cell once activated.
    if (dffPinFault) return good[faultLine] == activate;
    for (GateId line : coneObs) {
      if (isD(line)) return true;
    }
    return false;
  };

  auto dFrontierPick = [&]() -> std::optional<std::pair<GateId, V3>> {
    for (GateId id : cone) {
      if (good[id] != VX && faulty[id] != VX) continue;  // output already set
      // For a pin fault, the D is injected *inside* the owning gate's
      // evaluation, so the owner belongs to the frontier as soon as the
      // fault is activated even though no fanin carries a plane-level D.
      bool hasD = !fault.isOutputFault() && id == fault.gate && good[faultLine] == activate;
      GateId xInput = kInvalidGate;
      for (const GateId f : image.fanins(id)) {
        if (isD(f)) hasD = true;
        if (good[f] == VX && xInput == kInvalidGate) xInput = f;
      }
      if (hasD && xInput != kInvalidGate)
        return std::make_pair(xInput, nonControlling(image.type[id]));
    }
    return std::nullopt;
  };

  // Backtrace an objective to a source decision through X-valued gates.
  auto backtrace = [&](GateId line, V3 target) -> std::optional<std::pair<GateId, bool>> {
    while (!isSourceType(image.type[line])) {
      if (invertingType(image.type[line])) target = v3Not(target);
      GateId next = kInvalidGate;
      for (const GateId f : image.fanins(line)) {
        if (good[f] == VX) {
          next = f;
          break;
        }
      }
      if (next == kInvalidGate) return std::nullopt;  // no X path: conflict
      line = next;
    }
    return std::make_pair(line, target == V1);
  };

  // Flips the deepest unflipped decision, resetting every popped source to X
  // on the way; the caller implies the result.
  auto backtrack = [&]() -> bool {
    while (!decisions.empty()) {
      Decision& d = decisions.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value = !d.value;
        ++result.stats.backtracks;
        assign(d.source, d.value ? V1 : V0);
        return true;
      }
      assign(d.source, VX);
      decisions.pop_back();
    }
    return false;
  };

  while (true) {
    if (good[faultLine] == activate && observed()) {
      result.outcome = AtpgOutcome::Detected;
      result.cube.care = BitVector(nl.gateCount());
      result.cube.value = BitVector(nl.gateCount());
      for (const Decision& d : decisions) {
        result.cube.care.set(d.source);
        if (d.value) result.cube.value.set(d.source);
      }
      return result;
    }

    // Choose the next objective.
    std::optional<std::pair<GateId, V3>> objective;
    bool conflict = false;
    if (good[faultLine] == stuck) {
      conflict = true;  // fault can no longer be activated
    } else if (good[faultLine] == VX) {
      objective = std::make_pair(faultLine, activate);
    } else if (!dffPinFault) {
      objective = dFrontierPick();
      conflict = !objective.has_value();  // activated but D-frontier dead
    } else {
      conflict = true;  // dff pin fault activated implies observed; unreachable
    }

    std::optional<std::pair<GateId, bool>> decision;
    if (!conflict) {
      decision = backtrace(objective->first, objective->second);
      conflict = !decision.has_value();
    }
    if (conflict) {
      if (result.stats.backtracks >= backtrackLimit) {
        result.outcome = AtpgOutcome::Aborted;
        return result;
      }
      if (!backtrack()) {
        result.outcome = AtpgOutcome::Untestable;
        return result;
      }
      imply();
      continue;
    }
    decisions.push_back(Decision{decision->first, decision->second, false});
    ++result.stats.decisions;
    assign(decision->first, decision->second ? V1 : V0);
    imply();
  }
}

std::vector<TestCube> PodemAtpg::generateCompactSet(const std::vector<FaultSite>& faults,
                                                    std::size_t backtrackLimit) const {
  std::vector<TestCube> cubes;
  // Fault dropping: a fault already detected by the accumulated patterns gets
  // no new cube. The simulator is rebuilt in blocks to amortize its setup.
  std::unique_ptr<PatternSet> patterns;
  std::unique_ptr<FaultSimulator> sim;
  std::size_t patternsInSim = 0;
  auto rebuild = [&] {
    if (cubes.empty()) return;
    const Netlist& nl = sim_.netlist();
    patterns = std::make_unique<PatternSet>(nl, cubes.size());
    for (std::size_t t = 0; t < cubes.size(); ++t) cubes[t].applyTo(*patterns, t, nl, 0xF111);
    sim = std::make_unique<FaultSimulator>(nl, *patterns);
    patternsInSim = cubes.size();
  };
  for (const FaultSite& fault : faults) {
    if (sim && sim->simulate(fault).detected()) continue;  // dropped
    const AtpgResult r = generate(fault, backtrackLimit);
    if (r.outcome != AtpgOutcome::Detected) continue;
    cubes.push_back(r.cube);
    if (cubes.size() - patternsInSim >= 32 || !sim) rebuild();
  }
  return cubes;
}

PatternSet patternsFromCubes(const Netlist& netlist, const std::vector<TestCube>& cubes,
                             std::uint64_t fillSeed) {
  SCANDIAG_REQUIRE(!cubes.empty(), "no cubes to assemble");
  PatternSet patterns(netlist, cubes.size());
  for (std::size_t t = 0; t < cubes.size(); ++t)
    cubes[t].applyTo(patterns, t, netlist, fillSeed);
  return patterns;
}

}  // namespace scandiag
