#include "netlist/netlist_image.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/logic_simulator.hpp"

namespace scandiag {
namespace {

/// A seeded random netlist with every gate type: constants, one-input BUF and
/// NOT, and AND/NAND/OR/NOR/XOR/XNOR with one to five fanins, repeated
/// drivers included. Gates only read earlier ids, so id order is an
/// evaluation order that owes nothing to the levelizer.
Netlist randomNetlist(std::uint64_t seed) {
  Xoroshiro128 rng(seed);
  Netlist nl("random" + std::to_string(seed));
  std::vector<GateId> pool;
  const std::size_t inputs = 2 + rng.nextBelow(6), dffs = 1 + rng.nextBelow(6);
  for (std::size_t i = 0; i < inputs; ++i) pool.push_back(nl.addInput("i" + std::to_string(i)));
  std::vector<GateId> cells;
  for (std::size_t k = 0; k < dffs; ++k) {
    cells.push_back(nl.addDff("q" + std::to_string(k)));
    pool.push_back(cells.back());
  }
  pool.push_back(nl.addGate(GateType::Const0, "c0", {}));
  pool.push_back(nl.addGate(GateType::Const1, "c1", {}));
  const GateType kinds[] = {GateType::Buf, GateType::Not, GateType::And, GateType::Nand,
                            GateType::Or,  GateType::Nor, GateType::Xor, GateType::Xnor};
  const std::size_t gates = 20 + rng.nextBelow(80);
  for (std::size_t g = 0; g < gates; ++g) {
    const GateType type = kinds[rng.nextBelow(8)];
    const std::size_t arity =
        type == GateType::Buf || type == GateType::Not ? 1 : 1 + rng.nextBelow(5);
    std::vector<GateId> fanins;
    for (std::size_t k = 0; k < arity; ++k) fanins.push_back(pool[rng.nextBelow(pool.size())]);
    pool.push_back(nl.addGate(type, "g" + std::to_string(g), fanins));
  }
  for (const GateId q : cells) nl.setDffInput(q, pool[rng.nextBelow(pool.size())]);
  for (std::size_t k = 0; k < 3; ++k) nl.markOutput(pool[rng.nextBelow(pool.size())]);
  nl.validate();
  return nl;
}

/// Oracle: one pass in id order over the gates' own fanin lists.
std::vector<SimWord> referenceEvaluate(const Netlist& nl, std::vector<SimWord> values) {
  for (GateId id = 0; id < nl.gateCount(); ++id) {
    const Gate& g = nl.gate(id);
    SimWord acc = 0;
    switch (g.type) {
      case GateType::Input:
      case GateType::Dff:
        continue;
      case GateType::Const0:
        acc = 0;
        break;
      case GateType::Const1:
        acc = ~SimWord{0};
        break;
      case GateType::Buf:
      case GateType::Not:
      case GateType::And:
      case GateType::Nand:
        acc = ~SimWord{0};
        for (const GateId f : g.fanins) acc &= values[f];
        break;
      case GateType::Or:
      case GateType::Nor:
        for (const GateId f : g.fanins) acc |= values[f];
        break;
      case GateType::Xor:
      case GateType::Xnor:
        for (const GateId f : g.fanins) acc ^= values[f];
        break;
    }
    const bool invert = g.type == GateType::Not || g.type == GateType::Nand ||
                        g.type == GateType::Nor || g.type == GateType::Xnor;
    values[id] = invert ? ~acc : acc;
  }
  return values;
}

TEST(NetlistImage, ProgramMatchesReferenceEvaluator) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Netlist nl = randomNetlist(seed);
    const LogicSimulator sim(nl);
    Xoroshiro128 rng(seed * 31);
    for (int word = 0; word < 4; ++word) {
      std::vector<SimWord> values(nl.gateCount(), 0);
      for (const GateId id : nl.inputs()) values[id] = rng.next();
      for (const GateId id : nl.dffs()) values[id] = rng.next();
      const std::vector<SimWord> expected = referenceEvaluate(nl, values);
      // Stale garbage in every evaluated entry: evaluate() must overwrite it.
      for (GateId id = 0; id < nl.gateCount(); ++id) {
        const GateType t = nl.gate(id).type;
        if (t != GateType::Input && t != GateType::Dff) values[id] = rng.next();
      }
      sim.evaluate(values);
      ASSERT_EQ(values, expected) << nl.name() << " word " << word;
      for (GateId id = 0; id < nl.gateCount(); ++id) {
        if (isSourceType(nl.gate(id).type)) continue;
        EXPECT_EQ(sim.evalGate(id, values), expected[id]) << nl.gateName(id);
      }
    }
  }
}

TEST(NetlistImage, ProgramRunsByLevelThenType) {
  for (const Netlist& nl : {randomNetlist(7), generateNamedCircuit("s953")}) {
    const NetlistImage& image = *nl.image();
    const Levelization& lev = nl.levelization();
    const auto faninClass = [&](GateId g) { return std::min<std::size_t>(image.fanins(g).size(), 5); };
    std::vector<int> seen(nl.gateCount(), 0);
    std::uint32_t begin = 0;
    std::tuple<std::size_t, GateType, std::size_t> last{0, GateType::Input, 0};
    for (const NetlistImage::Run& run : image.runs) {
      ASSERT_LT(begin, run.end);
      const GateId first = image.program[begin];
      const std::tuple<std::size_t, GateType, std::size_t> key{lev.level[first], run.type,
                                                               faninClass(first)};
      EXPECT_LT(last, key) << "runs out of (level, type, fanin count) order";
      last = key;
      for (std::uint32_t i = begin; i < run.end; ++i) {
        const GateId g = image.program[i];
        EXPECT_EQ(image.type[g], run.type);
        EXPECT_EQ(lev.level[g], std::get<0>(key));
        EXPECT_EQ(faninClass(g), std::get<2>(key));
        if (i > begin) {
          EXPECT_LT(image.program[i - 1], g);
        }
        // Every fanin is loaded by the caller or evaluated earlier.
        for (const GateId f : image.fanins(g)) {
          EXPECT_TRUE(image.type[f] == GateType::Input || image.type[f] == GateType::Dff ||
                      seen[f])
              << nl.gateName(g) << " reads " << nl.gateName(f) << " before it is evaluated";
        }
        ++seen[g];
      }
      begin = run.end;
    }
    EXPECT_EQ(begin, image.program.size());
    for (GateId id = 0; id < nl.gateCount(); ++id) {
      const bool loaded = nl.gate(id).type == GateType::Input || nl.gate(id).type == GateType::Dff;
      EXPECT_EQ(seen[id], loaded ? 0 : 1) << nl.gateName(id);
    }
  }
}

TEST(NetlistImage, CsrAndOrdinalsMatchTheGates) {
  for (const Netlist& nl : {randomNetlist(11), generateNamedCircuit("s1423")}) {
    const NetlistImage& image = *nl.image();
    ASSERT_EQ(image.gateCount(), nl.gateCount());
    std::vector<std::vector<GateId>> users(nl.gateCount());
    for (GateId id = 0; id < nl.gateCount(); ++id) {
      EXPECT_EQ(image.type[id], nl.gate(id).type);
      const std::span<const GateId> fanins = image.fanins(id);
      EXPECT_EQ(std::vector<GateId>(fanins.begin(), fanins.end()), nl.gate(id).fanins);
      for (const GateId f : nl.gate(id).fanins) users[f].push_back(id);  // ascending, repeats kept
    }
    for (GateId id = 0; id < nl.gateCount(); ++id) {
      const std::span<const GateId> fanouts = image.fanouts(id);
      EXPECT_EQ(std::vector<GateId>(fanouts.begin(), fanouts.end()), users[id]);
    }
    ASSERT_EQ(image.numDffs, nl.dffs().size());
    std::vector<std::uint32_t> row(nl.gateCount(), NetlistImage::kNone);
    for (std::size_t k = 0; k < nl.dffs().size(); ++k) row[nl.dffs()[k]] = k;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i)
      row[nl.inputs()[i]] = nl.dffs().size() + i;
    EXPECT_EQ(image.sourceRow, row);
    for (std::size_t k = 0; k < nl.outputs().size(); ++k)
      EXPECT_EQ(image.outputPos[nl.outputs()[k]], k);
  }
}

TEST(NetlistImage, CopiesShareItAndEveryMutatorDropsIt) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId q = nl.addDff("q");
  const GateId g = nl.addGate(GateType::And, "g", {a, q});
  nl.setDffInput(q, g);
  nl.validate();
  const Netlist copy = nl;
  EXPECT_EQ(copy.image().get(), nl.image().get());
  EXPECT_EQ(&copy.levelization(), &nl.levelization());

  // Each step mutates `nl`; the image held across it must not be the one
  // read afterwards, and the copy keeps the original.
  const std::shared_ptr<const NetlistImage> original = copy.image();
  std::vector<std::pair<const char*, std::function<void()>>> steps{
      {"addInput", [&] { nl.addInput("b"); }},
      {"addDff", [&] { nl.setDffInput(nl.addDff("r"), a); }},
      {"addGate", [&] { nl.addGate(GateType::Not, "n", {a}); }},
      {"setDffInput", [&] { nl.setDffInput(q, a); }},
      {"markOutput", [&] { nl.markOutput(g); }},
      {"appendFanin", [&] { nl.appendFanin(g, a); }},
  };
  for (const auto& [name, mutate] : steps) {
    const std::shared_ptr<const NetlistImage> before = nl.image();
    mutate();
    const std::shared_ptr<const NetlistImage>& after = nl.image();
    EXPECT_NE(after.get(), before.get()) << name;
    EXPECT_EQ(after->gateCount(), nl.gateCount()) << name;
  }
  EXPECT_EQ(copy.image(), original);
  EXPECT_EQ(original->gateCount(), 3u);
  EXPECT_EQ(nl.image()->fanins(g).size(), 3u);
  EXPECT_EQ(nl.image()->outputPos[g], 0u);
}

}  // namespace
}  // namespace scandiag
