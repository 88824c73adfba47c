#include "netlist/synthetic_generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace scandiag {

namespace {

// Generator shape. Changing any value changes every generated netlist (and so
// every golden); GoldenValues.GeneratedNetlistFingerprint pins all profiles.
constexpr std::uint64_t kSeed = 1;
/// Number of combinational logic levels between scan-out and capture.
constexpr std::size_t kLevels = 6;
/// Half-width of the fanin selection window as a fraction of the position
/// axis. Smaller → tighter fault-cone clusters.
constexpr double kLocalityWindow = 0.01;
/// Probability that a fanin taps a source (PI / scan cell) instead of the
/// previous logic level (keeps logic shallow and testable).
constexpr double kSourceTap = 0.05;
/// Probability that a fanin ignores locality and taps anywhere in the
/// previous level (long global wires).
constexpr double kGlobalTap = 0.005;
/// Gate-type mix in percent. XOR/XNOR propagate errors unconditionally, so
/// their share controls how far fault effects travel — i.e. how many scan
/// cells a typical fault corrupts.
constexpr unsigned kPctNand = 25, kPctNor = 18, kPctAnd = 9, kPctOr = 9;
constexpr unsigned kPctNot = 10, kPctBuf = 4, kPctXor = 15, kPctXnor = 10;
static_assert(kPctNand + kPctNor + kPctAnd + kPctOr + kPctNot + kPctBuf + kPctXor + kPctXnor ==
              100);
/// Share of 3-input gates among the variable-arity types (rest are 2-input).
constexpr unsigned kPctArity3 = 20;
/// High-fanout "hub" nets (clock enables, control signals): kPctHub percent
/// of each level's gates become hubs, and each fanin taps a hub with
/// probability kHubTap. Hubs give a minority of faults very wide cones — the
/// heavy tail of failing-cell counts the paper observes in real circuits
/// ("some faults may cause a large number of failing scan cells").
constexpr unsigned kPctHub = 3;
constexpr double kHubTap = 0.02;

struct Slot {
  GateId id;
  double pos;
};

/// Picks a slot whose position is within `window` of `p`, widening the window
/// geometrically when the interval is empty. `slots` must be sorted by pos.
const Slot& pickNear(const std::vector<Slot>& slots, double p, double window,
                     Xoroshiro128& rng) {
  SCANDIAG_REQUIRE(!slots.empty(), "pickNear on empty slot list");
  // Widen until the window holds a minimum candidate pool: with fewer than
  // ~6 candidates per window the same few signals get re-picked constantly,
  // the logic reconverges on itself, and error propagation dies of
  // correlation. Small circuits therefore get effectively wider windows;
  // large circuits keep the configured (tight) locality.
  constexpr std::size_t kMinPool = 6;
  double w = window > 0 ? window : 1.0 / static_cast<double>(slots.size());
  while (true) {
    const auto lo = std::lower_bound(slots.begin(), slots.end(), p - w,
                                     [](const Slot& s, double v) { return s.pos < v; });
    const auto hi = std::upper_bound(slots.begin(), slots.end(), p + w,
                                     [](double v, const Slot& s) { return v < s.pos; });
    const std::size_t span = static_cast<std::size_t>(hi - lo);
    if (span >= kMinPool || w > 1.0) {
      if (span == 0) return slots[rng.nextBelow(slots.size())];
      return *(lo + static_cast<std::ptrdiff_t>(rng.nextBelow(span)));
    }
    w *= 2;
  }
}

GateType sampleGateType(Xoroshiro128& rng) {
  // Weighted mix; inverting gates keep internal signal probabilities near 1/2
  // (random-pattern testability), XOR share keeps error propagation alive.
  const std::uint64_t r = rng.nextBelow(100);
  std::uint64_t acc = kPctNand;
  if (r < acc) return GateType::Nand;
  if (r < (acc += kPctNor)) return GateType::Nor;
  if (r < (acc += kPctAnd)) return GateType::And;
  if (r < (acc += kPctOr)) return GateType::Or;
  if (r < (acc += kPctNot)) return GateType::Not;
  if (r < (acc += kPctBuf)) return GateType::Buf;
  if (r < (acc += kPctXor)) return GateType::Xor;
  return GateType::Xnor;
}

std::size_t arityFor(GateType t, Xoroshiro128& rng) {
  switch (t) {
    case GateType::Not:
    case GateType::Buf:
      return 1;
    case GateType::Xor:
    case GateType::Xnor:
      return 2;
    default:
      return rng.nextBelow(100) < kPctArity3 ? 3 : 2;
  }
}

bool variableArity(GateType t) {
  return t == GateType::And || t == GateType::Nand || t == GateType::Or ||
         t == GateType::Nor || t == GateType::Xor || t == GateType::Xnor;
}

std::uint64_t mixName(std::uint64_t seed, std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Netlist generateCircuit(const Iscas89Profile& profile) {
  SCANDIAG_REQUIRE(profile.numInputs > 0, "profile needs at least one input");
  SCANDIAG_REQUIRE(profile.numDffs > 0, "profile needs at least one DFF");
  SCANDIAG_REQUIRE(profile.numGates >= 1, "profile needs at least one gate");
  SCANDIAG_REQUIRE(profile.numOutputs >= 1, "profile needs at least one output");

  Xoroshiro128 rng(mixName(kSeed, profile.name));
  Netlist nl(profile.name);

  // --- Sources with stratified positions; DFF ordinal order == position order
  // so the natural scan stitching is layout-like (DESIGN.md §6).
  std::vector<Slot> sources;
  std::vector<Slot> dffSlots;
  for (std::size_t i = 0; i < profile.numInputs; ++i) {
    const GateId id = nl.addInput("pi" + std::to_string(i));
    sources.push_back({id, (static_cast<double>(i) + 0.5) / static_cast<double>(profile.numInputs)});
  }
  for (std::size_t i = 0; i < profile.numDffs; ++i) {
    const GateId id = nl.addDff("ff" + std::to_string(i));
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(profile.numDffs);
    sources.push_back({id, p});
    dffSlots.push_back({id, p});
  }
  std::sort(sources.begin(), sources.end(), [](const Slot& a, const Slot& b) { return a.pos < b.pos; });

  // --- Level sizing: roughly equal levels, last level capped at the number of
  // available consumers (DFFs + POs) so every last-level gate is observed.
  const std::size_t numConsumers = profile.numDffs + profile.numOutputs;
  std::size_t numLevels = std::min(kLevels, profile.numGates / 3 + 1);
  numLevels = std::max<std::size_t>(numLevels, 1);
  std::vector<std::size_t> levelSize(numLevels, profile.numGates / numLevels);
  for (std::size_t l = 0; l < profile.numGates % numLevels; ++l) ++levelSize[l];
  if (levelSize.back() > numConsumers && numLevels > 1) {
    std::size_t overflow = levelSize.back() - numConsumers;
    levelSize.back() = numConsumers;
    for (std::size_t l = 0; overflow > 0; l = (l + 1) % (numLevels - 1)) {
      ++levelSize[l];
      --overflow;
    }
  }

  // --- Build levels.
  std::vector<std::vector<Slot>> levels(numLevels);
  std::vector<std::vector<GateId>> hubs(numLevels);  // per-level high-fanout nets
  std::size_t gateCounter = 0;
  for (std::size_t l = 0; l < numLevels; ++l) {
    const std::vector<Slot>& prev = (l == 0) ? sources : levels[l - 1];
    const std::vector<GateId>& prevHubs = (l == 0) ? std::vector<GateId>{} : hubs[l - 1];
    levels[l].reserve(levelSize[l]);
    for (std::size_t i = 0; i < levelSize[l]; ++i) {
      // Stratified position with jitter keeps each level sorted by pos.
      const double p = (static_cast<double>(i) + rng.nextDouble()) /
                       static_cast<double>(std::max<std::size_t>(levelSize[l], 1));
      const GateType type = sampleGateType(rng);
      const std::size_t arity = arityFor(type, rng);
      std::vector<GateId> fanins;
      fanins.reserve(arity);
      for (std::size_t k = 0; k < arity; ++k) {
        const double roll = rng.nextDouble();
        GateId pick;
        if (!prevHubs.empty() && roll < kHubTap) {
          pick = prevHubs[rng.nextBelow(prevHubs.size())];
        } else if (roll < kHubTap + kGlobalTap) {
          pick = prev[rng.nextBelow(prev.size())].id;
        } else if (l > 0 && roll < kHubTap + kGlobalTap + kSourceTap) {
          pick = pickNear(sources, p, kLocalityWindow, rng).id;
        } else {
          pick = pickNear(prev, p, kLocalityWindow, rng).id;
        }
        // Prefer distinct fanins; duplicates are legal but uninteresting.
        for (int retry = 0; retry < 3 && std::find(fanins.begin(), fanins.end(), pick) != fanins.end();
             ++retry) {
          pick = pickNear(prev, p, kLocalityWindow, rng).id;
        }
        fanins.push_back(pick);
      }
      const GateId id = nl.addGate(type, "g" + std::to_string(gateCounter++), std::move(fanins));
      levels[l].push_back({id, p});
    }
    // Designate this level's hubs (skip tiny levels: a hub in a 4-gate level
    // would dominate the netlist).
    if (levelSize[l] >= 8) {
      const std::size_t hubCount =
          std::max<std::size_t>(levelSize[l] * kPctHub / 100, 1);
      for (std::size_t h = 0; h < hubCount; ++h)
        hubs[l].push_back(levels[l][rng.nextBelow(levels[l].size())].id);
    }
  }

  // --- Observe every last-level gate: proportional position-monotone mapping
  // from consumers (DFF D inputs + PO slots, sorted by position) onto the
  // last level. consumers >= lastSize, so the floor mapping is surjective.
  const std::vector<Slot>& last = levels.back();
  struct Consumer {
    double pos;
    bool isDff;
    std::size_t index;  // dff ordinal or output slot
  };
  std::vector<Consumer> consumers;
  consumers.reserve(numConsumers);
  for (std::size_t k = 0; k < dffSlots.size(); ++k)
    consumers.push_back({dffSlots[k].pos, true, k});
  for (std::size_t k = 0; k < profile.numOutputs; ++k)
    consumers.push_back(
        {(static_cast<double>(k) + 0.5) / static_cast<double>(profile.numOutputs), false, k});
  std::sort(consumers.begin(), consumers.end(),
            [](const Consumer& a, const Consumer& b) { return a.pos < b.pos; });

  std::vector<GateId> poPicks;
  poPicks.reserve(profile.numOutputs);
  for (std::size_t j = 0; j < consumers.size(); ++j) {
    const std::size_t gi = j * last.size() / consumers.size();
    const GateId driver = last[gi].id;
    if (consumers[j].isDff) {
      nl.setDffInput(dffSlots[consumers[j].index].id, driver);
    } else {
      poPicks.push_back(driver);
    }
  }
  // De-duplicate PO picks so the PO count matches the profile exactly.
  std::vector<bool> isPo(nl.gateCount(), false);
  std::vector<GateId> backfill;
  for (std::size_t l = numLevels; l-- > 0;) {
    for (const Slot& s : levels[l]) backfill.push_back(s.id);
  }
  std::size_t backfillCursor = 0;
  for (GateId& pick : poPicks) {
    if (isPo[pick]) {
      while (backfillCursor < backfill.size() && isPo[backfill[backfillCursor]]) ++backfillCursor;
      SCANDIAG_ASSERT(backfillCursor < backfill.size(), "not enough gates for distinct POs");
      pick = backfill[backfillCursor];
    }
    isPo[pick] = true;
    nl.markOutput(pick);
  }

  // --- Observability sweep for inner levels: any gate nobody reads becomes an
  // extra fanin of a nearby variable-arity gate one level up.
  std::vector<std::size_t> uses(nl.gateCount(), 0);
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    for (GateId f : nl.gate(id).fanins) {
      if (f != kInvalidGate) ++uses[f];
    }
  }
  for (std::size_t l = 0; l + 1 < numLevels; ++l) {
    // Variable-arity gates of the nearest later level that has any, by
    // position (tiny levels may contain only NOT/BUF gates).
    std::vector<Slot> sinks;
    for (std::size_t u = l + 1; u < numLevels && sinks.empty(); ++u) {
      for (const Slot& s : levels[u]) {
        if (variableArity(nl.gate(s.id).type)) sinks.push_back(s);
      }
    }
    for (const Slot& s : levels[l]) {
      if (uses[s.id] != 0 || isPo[s.id]) continue;
      if (!sinks.empty()) {
        const GateId sink = pickNear(sinks, s.pos, kLocalityWindow, rng).id;
        nl.appendFanin(sink, s.id);
        ++uses[s.id];
      } else {
        nl.markOutput(s.id);  // last resort: no variable-arity gate above at all
        isPo[s.id] = true;
      }
    }
  }

  nl.validate();
  return nl;
}

Netlist generateNamedCircuit(std::string_view name) {
  return generateCircuit(iscas89Profile(name));
}

}  // namespace scandiag
