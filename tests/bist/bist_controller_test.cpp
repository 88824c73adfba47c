// Hardware-in-the-loop validation: the clock-by-clock BIST session model and
// the analytic GF(2) session engine must agree on signatures. This pins every
// ordering convention — scan-out direction, chain-to-MISR-line mapping, the
// cycle index of each (pattern, position) bit, and the masking model — to
// physically simulated behaviour.

#include "bist/bist_controller.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/session_engine.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/fault_list.hpp"

namespace scandiag {
namespace {

struct Harness {
  Netlist nl;
  ScanTopology topo;
  PatternSet patterns;
  BistControllerConfig config;

  Harness(const char* circuit, std::size_t chains, std::size_t numPatterns)
      : nl(generateNamedCircuit(circuit)),
        topo(chains <= 1 ? ScanTopology::singleChain(nl.dffs().size())
                         : ScanTopology::blockChains(nl.dffs().size(), chains)),
        patterns(generatePatterns(nl, numPatterns)) {
    config.numPatterns = numPatterns;
  }
};

TEST(BistController, FaultFreeSessionIsDeterministic) {
  Harness s("s298", 1, 8);
  const BistController ctrl(s.nl, s.topo, s.config);
  const BitVector all(s.topo.maxChainLength(), true);
  EXPECT_EQ(ctrl.runSession(s.patterns, all), ctrl.runSession(s.patterns, all));
}

TEST(BistController, MaskedOutCellsDoNotAffectSignature) {
  Harness s("s298", 1, 8);
  const BistController ctrl(s.nl, s.topo, s.config);
  const BitVector none(s.topo.maxChainLength());
  EXPECT_EQ(ctrl.runSession(s.patterns, none), 0u);  // nothing enters the MISR
}

TEST(BistController, UndetectedFaultGivesZeroErrorSignature) {
  Harness s("s298", 1, 8);
  const BistController ctrl(s.nl, s.topo, s.config);
  const BitVector all(s.topo.maxChainLength(), true);
  // Find a fault with no failing cells under these patterns.
  const FaultSimulator fsim(s.nl, s.patterns);
  const FaultList universe = FaultList::enumerateCollapsed(s.nl);
  for (const FaultSite& f : universe.faults()) {
    if (!fsim.simulate(f).detected()) {
      EXPECT_EQ(ctrl.sessionErrorSignature(s.patterns, all, f), 0u)
          << describeFault(s.nl, f);
      return;
    }
  }
  GTEST_SKIP() << "all faults detected; nothing to check";
}

// The circuit is a std::string so gtest prints it (and names the case) by
// value; a const char* parameter prints as its address, which differs per run.
class ControllerVsEngine
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(ControllerVsEngine, ErrorSignaturesMatchAnalyticModel) {
  const auto [circuit, chains] = GetParam();
  const std::size_t numPatterns = 8;
  Harness s(circuit.c_str(), chains, numPatterns);
  const BistController ctrl(s.nl, s.topo, s.config);

  SessionConfig sessionConfig{SignatureMode::Misr, numPatterns};
  sessionConfig.misrDegree = s.config.misrDegree;
  const SessionEngine engine(s.topo, sessionConfig);

  // An interval partition supplies representative masks (fewer groups for
  // tiny chains like s27's 3 cells).
  const std::size_t groups = std::min<std::size_t>(4, s.topo.maxChainLength());
  IntervalPartitioner gen(IntervalPartitionerConfig{}, s.topo.maxChainLength(), groups);
  const std::vector<Partition> partitions{gen.next()};

  const FaultSimulator fsim(s.nl, s.patterns);
  const auto faults = FaultList::enumerateCollapsed(s.nl).sample(25, 0xC7A1);
  std::size_t checked = 0;
  for (const FaultSite& fault : faults) {
    const FaultResponse resp = fsim.simulate(fault);
    if (!resp.detected()) continue;
    ++checked;
    const GroupVerdicts verdicts = engine.run(partitions, resp);
    for (std::size_t g = 0; g < partitions[0].groupCount(); ++g) {
      const std::uint64_t physical =
          ctrl.sessionErrorSignature(s.patterns, partitions[0].groups[g], fault);
      EXPECT_EQ(physical, verdicts.errorSig[0][g])
          << describeFault(s.nl, fault) << " group " << g << " on " << circuit;
    }
  }
  EXPECT_GT(checked, 5u);
}

INSTANTIATE_TEST_SUITE_P(Configs, ControllerVsEngine,
                         ::testing::Values(std::make_tuple("s27", std::size_t{1}),
                                           std::make_tuple("s298", std::size_t{1}),
                                           std::make_tuple("s298", std::size_t{3}),
                                           std::make_tuple("s344", std::size_t{2}),
                                           std::make_tuple("s526", std::size_t{4})));

TEST(BistController, ConfigValidation) {
  Harness s("s298", 1, 8);
  BistControllerConfig bad = s.config;
  bad.numPatterns = 0;
  EXPECT_THROW(BistController(s.nl, s.topo, bad), std::invalid_argument);
  const ScanTopology wrong = ScanTopology::singleChain(3);
  EXPECT_THROW(BistController(s.nl, wrong, s.config), std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
