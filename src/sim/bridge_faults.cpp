#include "sim/bridge_faults.hpp"

#include <algorithm>
#include <iterator>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "netlist/cone_analysis.hpp"

namespace scandiag {

std::string_view bridgeKindName(BridgeKind kind) {
  switch (kind) {
    case BridgeKind::WiredAnd:
      return "wired-AND";
    case BridgeKind::WiredOr:
      return "wired-OR";
    case BridgeKind::ADominatesB:
      return "a-dominates-b";
    case BridgeKind::BDominatesA:
      return "b-dominates-a";
  }
  throw std::logic_error("unknown BridgeKind");
}

namespace {

/// Bridge feedback check over one netlist's image. The gate-indexed visit
/// stamps are allocated once, so each check costs O(the two fanout cones
/// walked), not O(gates) — the ConeWalker idiom. Single-owner: a check
/// mutates the stamps.
class FeedbackChecker {
 public:
  explicit FeedbackChecker(const Netlist& netlist)
      : image_(netlist.image().get()), stamp_(netlist.gateCount(), 0) {}

  bool feedbackFree(GateId a, GateId b) { return !reaches(a, b) && !reaches(b, a); }

 private:
  // Forward DFS over combinational fanout from `from`; true if `to` reached.
  bool reaches(GateId from, GateId to) {
    if (++epoch_ == 0) {  // wrapped: clear stamps so no stale one aliases an epoch
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    stamp_[from] = epoch_;
    stack_.assign(1, from);
    while (!stack_.empty()) {
      const GateId g = stack_.back();
      stack_.pop_back();
      for (const GateId user : image_->fanouts(g)) {
        if (image_->type[user] == GateType::Dff) continue;  // sequential edge
        if (user == to) return true;
        if (stamp_[user] == epoch_) continue;
        stamp_[user] = epoch_;
        stack_.push_back(user);
      }
    }
    return false;
  }

  const NetlistImage* image_;
  std::vector<std::uint32_t> stamp_;  // [gate] epoch of its last visit
  std::vector<GateId> stack_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

bool isFeedbackFree(const Netlist& netlist, GateId a, GateId b) {
  return FeedbackChecker(netlist).feedbackFree(a, b);
}

std::vector<BridgeFault> enumerateBridgeCandidates(const Netlist& netlist, std::size_t count,
                                                   std::uint64_t seed) {
  SCANDIAG_REQUIRE(netlist.gateCount() >= 2, "need at least two nets to bridge");
  Xoroshiro128 rng(seed);
  FeedbackChecker checker(netlist);
  std::vector<BridgeFault> bridges;
  const BridgeKind kinds[] = {BridgeKind::WiredAnd, BridgeKind::WiredOr,
                              BridgeKind::ADominatesB, BridgeKind::BDominatesA};
  std::size_t guard = 0;
  while (bridges.size() < count && ++guard < count * 200 + 1000) {
    const GateId a = static_cast<GateId>(rng.nextBelow(netlist.gateCount()));
    // Nearby ids are structurally nearby under the generator's locality.
    const std::size_t span = std::max<std::size_t>(netlist.gateCount() / 50, 4);
    const std::int64_t offset =
        static_cast<std::int64_t>(rng.nextBelow(2 * span + 1)) - static_cast<std::int64_t>(span);
    const std::int64_t bi = static_cast<std::int64_t>(a) + offset;
    if (bi < 0 || bi >= static_cast<std::int64_t>(netlist.gateCount())) continue;
    const GateId b = static_cast<GateId>(bi);
    if (a == b) continue;
    const GateType ta = netlist.gate(a).type, tb = netlist.gate(b).type;
    if (ta == GateType::Const0 || ta == GateType::Const1 || tb == GateType::Const0 ||
        tb == GateType::Const1)
      continue;
    if (!checker.feedbackFree(a, b)) continue;
    bridges.push_back(BridgeFault{a, b, kinds[bridges.size() % 4]});
  }
  return bridges;
}

FaultResponse FaultSimulator::simulateBridge(const BridgeFault& bridge) const {
  SCANDIAG_REQUIRE(bridge.a < netlist_->gateCount() && bridge.b < netlist_->gateCount(),
                   "bridge net out of range");
  SCANDIAG_REQUIRE(bridge.a != bridge.b, "bridge needs two distinct nets");
  const std::size_t numPatterns = patterns_->numPatterns();
  const std::size_t words = patterns_->wordCount();

  // Union of the two cones, merged in evaluation order. The walker is the
  // simulator's own; the cone cache is not consulted (it counts its hits).
  const FaultCone coneA = walker_.walk(bridge.a);
  const FaultCone coneB = walker_.walk(bridge.b);
  const auto& level = sim_.levelization().level;
  std::vector<GateId> gates;
  std::set_union(coneA.gates.begin(), coneA.gates.end(), coneB.gates.begin(), coneB.gates.end(),
                 std::back_inserter(gates), [&](GateId x, GateId y) {
                   return level[x] != level[y] ? level[x] < level[y] : x < y;
                 });
  const BitVector reachable = coneA.reachableDffs | coneB.reachableDffs;

  FaultResponse resp;
  resp.fault = FaultSite{bridge.a, FaultSite::kOutputPin, false};  // reporting only
  resp.failingCells = BitVector(netlist_->dffs().size());
  if (reachable.none()) return resp;

  const std::vector<std::size_t> ordinals = reachable.toIndices();
  std::vector<GateId> drivers;
  drivers.reserve(ordinals.size());
  for (const std::size_t k : ordinals) {
    drivers.push_back(sim_.image().fanins(netlist_->dffs()[k])[0]);
  }
  // Save slots: the union cone's gates, then both bridged nets (a source net
  // lies outside its own cone; a net in the cone is simply saved twice).
  const std::size_t numGates = gates.size();
  const std::size_t numCells = ordinals.size();
  scratch_.saved.resize(numGates + 2);
  scratch_.errWords.assign(numCells * words, SimWord{0});
  const std::size_t rem = numPatterns % 64;
  const SimWord tailMask = rem == 0 ? ~SimWord{0} : (SimWord{1} << rem) - 1;

  for (std::size_t w = 0; w < words; ++w) {
    std::vector<SimWord>& values = goodValues_[w];
    for (std::size_t j = 0; j < numGates; ++j) scratch_.saved[j] = values[gates[j]];
    scratch_.saved[numGates] = values[bridge.a];
    scratch_.saved[numGates + 1] = values[bridge.b];
    for (std::size_t i = 0; i < numCells; ++i) {
      scratch_.errWords[i * words + w] = values[drivers[i]];  // good; XORed below
    }
    // Bridged net values from the (independent) driven values. No feedback:
    // neither net's driven value depends on the other, so one application is
    // the fixed point.
    const SimWord va = values[bridge.a], vb = values[bridge.b];
    SimWord na = va, nb = vb;
    switch (bridge.kind) {
      case BridgeKind::WiredAnd:
        na = nb = va & vb;
        break;
      case BridgeKind::WiredOr:
        na = nb = va | vb;
        break;
      case BridgeKind::ADominatesB:
        nb = va;
        break;
      case BridgeKind::BDominatesA:
        na = vb;
        break;
    }
    values[bridge.a] = na;
    values[bridge.b] = nb;
    for (const GateId id : gates) {
      if (id == bridge.a || id == bridge.b) continue;  // bridged values stay forced
      values[id] = sim_.evalGate(id, values);
    }
    const SimWord mask = w + 1 == words ? tailMask : ~SimWord{0};
    for (std::size_t i = 0; i < numCells; ++i) {
      SimWord& err = scratch_.errWords[i * words + w];
      err = (err ^ values[drivers[i]]) & mask;
    }
    for (std::size_t j = 0; j < numGates; ++j) values[gates[j]] = scratch_.saved[j];
    values[bridge.a] = scratch_.saved[numGates];
    values[bridge.b] = scratch_.saved[numGates + 1];
  }

  for (std::size_t i = 0; i < numCells; ++i) {
    const SimWord* ew = scratch_.errWords.data() + i * words;
    if (std::all_of(ew, ew + words, [](SimWord x) { return x == 0; })) continue;
    BitVector err(numPatterns);
    for (std::size_t w = 0; w < words; ++w) err.setWord(w, ew[w]);
    resp.failingCells.set(ordinals[i]);
    resp.failingCellOrdinals.push_back(ordinals[i]);
    resp.errorStreams.push_back(std::move(err));
  }
  return resp;
}

}  // namespace scandiag
