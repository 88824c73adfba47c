// Defect-zoo scenarios and the robust multi-defect pipeline: spec parsing,
// the union overlay composition, the replayable intermittent activation
// contract, deterministic scenario generation, and the degrade-never-lie
// guarantees of DefectZooPipeline (no true failing cell is ever excluded;
// intermittency degrades to a calibrated superset instead of erroring;
// evaluation is bit-identical at every thread count).

#include "inject/defect_zoo.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "netlist/synthetic_generator.hpp"
#include "obs/metrics.hpp"

namespace scandiag {
namespace {

FaultResponse makeResponse(std::size_t numCells, std::size_t numPatterns,
                           const std::vector<std::pair<std::size_t, std::vector<std::size_t>>>&
                               cellsWithFailingPatterns) {
  FaultResponse r;
  r.failingCells = BitVector(numCells);
  for (const auto& [cell, fails] : cellsWithFailingPatterns) {
    r.failingCells.set(cell);
    r.failingCellOrdinals.push_back(cell);
    BitVector stream(numPatterns);
    for (std::size_t t : fails) stream.set(t);
    r.errorStreams.push_back(stream);
  }
  return r;
}

TEST(DefectSpec, ParsesEveryField) {
  const DefectMix plain = parseDefectSpec("3");
  EXPECT_EQ(plain.k, 3u);
  EXPECT_FALSE(plain.bridges);
  EXPECT_FALSE(plain.opens);
  EXPECT_DOUBLE_EQ(plain.intermittentP, 0.0);

  const DefectMix mixed = parseDefectSpec("2,bridge,open,intermittent:0.5,seed:0x123");
  EXPECT_EQ(mixed.k, 2u);
  EXPECT_TRUE(mixed.bridges);
  EXPECT_TRUE(mixed.opens);
  EXPECT_DOUBLE_EQ(mixed.intermittentP, 0.5);
  EXPECT_EQ(mixed.seed, 0x123u);
}

TEST(DefectSpec, DescribeRoundTrips) {
  for (const char* spec : {"1", "2,bridge", "3,bridge,open", "2,intermittent:0.25"}) {
    const DefectMix mix = parseDefectSpec(spec);
    const DefectMix again = parseDefectSpec(describeDefectMix(mix));
    EXPECT_EQ(again.k, mix.k) << spec;
    EXPECT_EQ(again.bridges, mix.bridges) << spec;
    EXPECT_EQ(again.opens, mix.opens) << spec;
    EXPECT_DOUBLE_EQ(again.intermittentP, mix.intermittentP) << spec;
  }
}

TEST(DefectSpec, RejectsMalformedInput) {
  for (const char* bad : {"", "0", "x", "2,bogus", "2,intermittent:0", "2,intermittent:1",
                          "2,intermittent:-0.5", "2,intermittent:abc", "2,seed:zz",
                          // One number rule: no space, sign, wrap-around or empty field.
                          " 2", "2 ", "-2", "+2", "2,intermittent: 0.5", "2,intermittent:0.5 ",
                          "2,intermittent:nan", "2,seed:-1", "2,seed: 5", "2,seed:",
                          "99999999999999999999", "2,", ",2", "2,,bridge"}) {
    EXPECT_THROW(parseDefectSpec(bad), std::invalid_argument) << "spec '" << bad << "'";
  }
}

TEST(UnionOverlay, ComposeOrsStreamsAndUnionsCells) {
  const FaultResponse a = makeResponse(8, 4, {{1, {0, 2}}, {5, {1}}});
  const FaultResponse b = makeResponse(8, 4, {{1, {2, 3}}, {6, {0}}});
  const FaultResponse u = composeUnionResponse({&a, &b});

  EXPECT_EQ(u.failingCellOrdinals, (std::vector<std::size_t>{1, 5, 6}));
  EXPECT_TRUE(u.failingCells.test(1));
  EXPECT_TRUE(u.failingCells.test(5));
  EXPECT_TRUE(u.failingCells.test(6));
  EXPECT_EQ(u.failingCellCount(), 3u);
  // Cell 1 appears in both: its stream is the OR {0, 2} | {2, 3}.
  EXPECT_EQ(u.errorStreams[0].toIndices(), (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(u.errorStreams[1].toIndices(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(u.errorStreams[2].toIndices(), (std::vector<std::size_t>{0}));
}

TEST(UnionOverlay, MaskResponseDropsFullySilencedCells) {
  const FaultResponse r = makeResponse(8, 4, {{2, {0, 1}}, {4, {3}}});
  BitVector active(4);
  active.set(0);
  active.set(1);
  const FaultResponse masked = maskResponse(r, active);
  // Cell 4 only failed at pattern 3, which the mask silences — dropped.
  EXPECT_EQ(masked.failingCellOrdinals, (std::vector<std::size_t>{2}));
  EXPECT_FALSE(masked.failingCells.test(4));
  EXPECT_EQ(masked.errorStreams[0].toIndices(), (std::vector<std::size_t>{0, 1}));
}

TEST(IntermittentMask, IsAPureFunctionOfItsArguments) {
  const BitVector m1 = intermittentActivationMask(0xABC, 3, 1, 2, 5, 0.5, 128);
  const BitVector m2 = intermittentActivationMask(0xABC, 3, 1, 2, 5, 0.5, 128);
  EXPECT_EQ(m1.toIndices(), m2.toIndices());
  EXPECT_GT(m1.count(), 0u);
  EXPECT_LT(m1.count(), 128u);

  // Every identity coordinate draws an independent stream: varying any one
  // of (scenario, component, attempt, partition) changes the mask.
  EXPECT_NE(m1.toIndices(), intermittentActivationMask(0xABC, 4, 1, 2, 5, 0.5, 128).toIndices());
  EXPECT_NE(m1.toIndices(), intermittentActivationMask(0xABC, 3, 0, 2, 5, 0.5, 128).toIndices());
  EXPECT_NE(m1.toIndices(), intermittentActivationMask(0xABC, 3, 1, 3, 5, 0.5, 128).toIndices());
  EXPECT_NE(m1.toIndices(), intermittentActivationMask(0xABC, 3, 1, 2, 6, 0.5, 128).toIndices());
}

struct ZooFixture {
  ZooFixture()
      : nl(generateNamedCircuit("s953")),
        patterns(generatePatterns(nl, config.numPatterns, PrpgConfig{})),
        sim(nl, patterns),
        topology(ScanTopology::singleChain(nl.dffs().size())) {}

  DiagnosisConfig config;  // two-step, 8 partitions x 16 groups, 128 patterns
  Netlist nl;
  PatternSet patterns;
  FaultSimulator sim;
  ScanTopology topology;
};

TEST(DefectScenarioGeneratorTest, DeterministicDetectedAndMixed) {
  const ZooFixture f;
  DefectMix mix;
  mix.k = 3;
  mix.bridges = true;
  mix.opens = true;
  const DefectScenarioGenerator generator(f.sim, mix);

  const DefectScenario once = generator.generate(4);
  const DefectScenario again = generator.generate(4);
  ASSERT_EQ(once.k(), 3u);
  EXPECT_EQ(once.seed, again.seed);
  EXPECT_EQ(once.composed.failingCells.toIndices(), again.composed.failingCells.toIndices());
  for (std::size_t c = 0; c < once.components.size(); ++c) {
    EXPECT_EQ(once.components[c].kind, again.components[c].kind) << c;
    EXPECT_EQ(once.components[c].response.failingCellOrdinals,
              again.components[c].response.failingCellOrdinals)
        << c;
    // Every drawn component is detected (nonempty permanent response).
    EXPECT_TRUE(once.components[c].response.detected()) << c;
  }
  // Distinct indices draw distinct scenarios.
  EXPECT_NE(once.seed, generator.generate(5).seed);
}

TEST(DefectScenarioGeneratorTest, UndrawableSpecsAreRefusedInPlainWords) {
  // Every defect occupies its own gates, so k above the gate count is
  // refused at construction; a k the gates admit but the detected sites do
  // not fails the draw. Both name the spec and carry no source location.
  const Netlist nl = generateNamedCircuit("s27");
  const PatternSet patterns = generatePatterns(nl, 64, PrpgConfig{});
  const FaultSimulator sim(nl, patterns);
  const auto message = [](const auto& run) {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  DefectMix mix;
  mix.k = nl.gateCount() + 1;
  const std::string tooMany = message([&] { (void)DefectScenarioGenerator(sim, mix); });
  EXPECT_NE(tooMany.find("defect spec '" + std::to_string(mix.k) + "'"), std::string::npos)
      << tooMany;
  EXPECT_EQ(tooMany.find(".cpp:"), std::string::npos) << tooMany;

  mix.k = nl.gateCount();
  const DefectScenarioGenerator generator(sim, mix);
  const std::string sparse = message([&] { generator.generate(3); });
  EXPECT_NE(sparse.find("scenario 3"), std::string::npos) << sparse;
  EXPECT_NE(sparse.find("k = " + std::to_string(mix.k)), std::string::npos) << sparse;
  EXPECT_EQ(sparse.find(".cpp:"), std::string::npos) << sparse;
}

TEST(DefectZooPipelineTest, PermanentUnionsNeverExcludeTrueFailingCells) {
  const ZooFixture f;
  DefectMix mix;
  mix.k = 2;
  mix.bridges = true;
  mix.opens = true;
  const DefectScenarioGenerator generator(f.sim, mix);
  const DefectZooPipeline zoo(f.sim, f.topology, f.config, DefectPolicy{});
  for (std::size_t i = 0; i < 8; ++i) {
    const DefectScenario scenario = generator.generate(i);
    const DefectDiagnosis d = zoo.diagnose(scenario);
    EXPECT_FALSE(d.misdiagnosed) << "scenario " << i;
    EXPECT_TRUE(scenario.composed.failingCells.isSubsetOf(d.candidates.cells))
        << "scenario " << i;
    EXPECT_GT(d.confidence, 0.0) << "scenario " << i;
  }
}

TEST(DefectZooPipelineTest, IntermittencyDegradesToCalibratedSuperset) {
  const ZooFixture f;
  DefectMix mix;
  mix.k = 2;
  mix.intermittentP = 0.5;
  const DefectScenarioGenerator generator(f.sim, mix);
  const DefectZooPipeline zoo(f.sim, f.topology, f.config, DefectPolicy{});
  for (std::size_t i = 0; i < 4; ++i) {
    const DefectScenario scenario = generator.generate(i);
    ASSERT_TRUE(scenario.intermittent()) << i;
    const DefectDiagnosis d = zoo.diagnose(scenario);
    EXPECT_FALSE(d.resolved) << i;
    EXPECT_FALSE(d.misdiagnosed) << i;
    EXPECT_GT(d.confidence, 0.0) << i;
    EXPECT_LT(d.confidence, 1.0) << i;
    EXPECT_GT(d.extraSessions, 0u) << i;
  }
}

TEST(DefectZooPipelineTest, EvaluateIsBitIdenticalAcrossThreadCounts) {
  const ZooFixture f;
  DefectMix mix;
  mix.k = 2;
  mix.bridges = true;
  const DefectScenarioGenerator generator(f.sim, mix);
  std::vector<DefectScenario> scenarios;
  for (std::size_t i = 0; i < 6; ++i) scenarios.push_back(generator.generate(i));
  const DefectZooPipeline zoo(f.sim, f.topology, f.config, DefectPolicy{});

  setGlobalThreadCount(1);
  const DefectZooReport one = zoo.evaluate(scenarios);
  setGlobalThreadCount(4);
  const DefectZooReport four = zoo.evaluate(scenarios);
  setGlobalThreadCount(1);

  EXPECT_EQ(one.sumCandidates, four.sumCandidates);
  EXPECT_EQ(one.sumActual, four.sumActual);
  EXPECT_EQ(one.degraded, four.degraded);
  EXPECT_EQ(one.totalInconsistencies, four.totalInconsistencies);
  EXPECT_EQ(one.totalUnionSplits, four.totalUnionSplits);
  EXPECT_EQ(one.totalAtpgPatterns, four.totalAtpgPatterns);
  EXPECT_EQ(one.totalExtraSessions, four.totalExtraSessions);
  EXPECT_DOUBLE_EQ(one.dr, four.dr);
  EXPECT_DOUBLE_EQ(one.misdiagnosisRate, four.misdiagnosisRate);
  EXPECT_DOUBLE_EQ(one.meanConfidence, four.meanConfidence);
}

TEST(DefectZooPipelineTest, StarvedRefinementHandsOffToPodemAtAnyThreadCount) {
  // A starved refinement budget leaves positions unresolved, so the PODEM
  // stall-breaker runs: pool workers share one PodemAtpg and each builds its
  // own mini-session simulators, which must not change any answer.
  const ZooFixture f;
  DefectMix mix;
  mix.k = 3;
  mix.bridges = true;
  mix.opens = true;
  const DefectScenarioGenerator generator(f.sim, mix);
  std::vector<DefectScenario> scenarios;
  for (std::size_t i = 0; i < 8; ++i) scenarios.push_back(generator.generate(i));
  DefectPolicy policy;
  policy.refineSessionBudget = 8;
  const DefectZooPipeline zoo(f.sim, f.topology, f.config, policy);

  setGlobalThreadCount(1);
  const DefectZooReport one = zoo.evaluate(scenarios);
  setGlobalThreadCount(4);
  const DefectZooReport four = zoo.evaluate(scenarios);
  setGlobalThreadCount(1);

  EXPECT_GT(one.totalAtpgPatterns, 0u);
  EXPECT_DOUBLE_EQ(one.dr, four.dr);
  EXPECT_EQ(one.scenarios, four.scenarios);
  EXPECT_EQ(one.sumCandidates, four.sumCandidates);
  EXPECT_EQ(one.sumActual, four.sumActual);
  EXPECT_DOUBLE_EQ(one.misdiagnosisRate, four.misdiagnosisRate);
  EXPECT_DOUBLE_EQ(one.meanConfidence, four.meanConfidence);
  EXPECT_EQ(one.degraded, four.degraded);
  EXPECT_EQ(one.totalInconsistencies, four.totalInconsistencies);
  EXPECT_EQ(one.totalUnionSplits, four.totalUnionSplits);
  EXPECT_EQ(one.totalAtpgPatterns, four.totalAtpgPatterns);
  EXPECT_EQ(one.totalExtraSessions, four.totalExtraSessions);
}

std::size_t maximalRuns(const BitVector& positions) {
  std::size_t runs = 0;
  bool inRun = false;
  for (std::size_t p = 0; p < positions.size(); ++p) {
    if (positions.test(p) && !inRun) ++runs;
    inRun = positions.test(p);
  }
  return runs;
}

TEST(DefectZooPipelineTest, ClustersBeyondMaxUnionFaultsDegradeExactCandidates) {
  // Three stuck-at faults on s9234 at the default refine budget: refinement
  // confirms every failing position, so the candidates are exact either way.
  // Scenario 0's confirmed positions form 6 maximal runs — more clusters
  // than kMaxUnionFaults resolves — so its answer is superset-only at half
  // confidence; scenario 1's form 4 and resolve.
  const Netlist nl = generateNamedCircuit("s9234");
  const DiagnosisConfig config;
  const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
  const FaultSimulator sim(nl, patterns);
  const ScanTopology topology = ScanTopology::singleChain(nl.dffs().size());
  const DefectScenarioGenerator generator(sim, parseDefectSpec("3"));
  const DefectZooPipeline zoo(sim, topology, config, DefectPolicy{});
  for (const auto& [index, runs, resolved] :
       {std::tuple{0u, 6u, false}, std::tuple{1u, 4u, true}}) {
    SCOPED_TRACE("scenario " + std::to_string(index));
    const DefectScenario scenario = generator.generate(index);
    const DefectDiagnosis d = zoo.diagnose(scenario);
    EXPECT_EQ(d.candidates.cells, scenario.composed.failingCells);
    EXPECT_EQ(maximalRuns(d.candidates.positions), runs);
    EXPECT_EQ(d.resolved, resolved);
    EXPECT_DOUBLE_EQ(d.confidence, resolved ? 1.0 : 0.5);
  }
}

TEST(DefectZooPipelineTest, EvaluateStopsBeforeAnyScenarioWhenCancelled) {
  const ZooFixture f;
  DefectMix mix;
  mix.k = 2;
  const DefectScenarioGenerator generator(f.sim, mix);
  const std::vector<DefectScenario> scenarios = {generator.generate(0), generator.generate(1)};
  const DefectZooPipeline zoo(f.sim, f.topology, f.config, DefectPolicy{});
  CancellationToken token;
  token.cancel("test cancel");
  const auto scenariosRun = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(
        obs::Counter::DefectScenariosRun);
  };
  const std::uint64_t before = scenariosRun();
  EXPECT_THROW(zoo.evaluate(scenarios, RunControl{&token, nullptr}), OperationCancelled);
  EXPECT_EQ(scenariosRun() - before, 0u);
}

TEST(DefectZooPipelineTest, AdaptiveSchemeIsRejected) {
  const ZooFixture f;
  DiagnosisConfig adaptive = f.config;
  adaptive.scheme = SchemeKind::Adaptive;
  EXPECT_THROW(DefectZooPipeline(f.sim, f.topology, adaptive, DefectPolicy{}),
               std::logic_error);
}

TEST(DefectZooPipelineTest, ZeroPartitionsIsRejected) {
  const ZooFixture f;
  DiagnosisConfig empty = f.config;
  empty.numPartitions = 0;
  EXPECT_THROW(DefectZooPipeline(f.sim, f.topology, empty, DefectPolicy{}),
               std::invalid_argument);
}

// ---- Pinned scenarios -------------------------------------------------------

std::uint64_t digestScenario(const DefectScenario& s, std::uint64_t h) {
  h = fnv1a64(static_cast<std::uint64_t>(s.components.size()), h);
  for (const DefectComponent& c : s.components) {
    h = fnv1a64(static_cast<std::uint64_t>(c.kind), h);
    h = fnv1a64(static_cast<std::uint64_t>(c.fault.gate), h);
    h = fnv1a64(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.fault.pin)), h);
    h = fnv1a64(static_cast<std::uint64_t>(c.fault.stuckAt), h);
    h = fnv1a64(static_cast<std::uint64_t>(c.bridge.a), h);
    h = fnv1a64(static_cast<std::uint64_t>(c.bridge.b), h);
    h = fnv1a64(static_cast<std::uint64_t>(c.bridge.kind), h);
    h = fnv1a64(static_cast<std::uint64_t>(c.intermittent()), h);
  }
  for (const std::size_t cell : s.composed.failingCells.toIndices())
    h = fnv1a64(static_cast<std::uint64_t>(cell), h);
  return h;
}

TEST(DefectZoo, ScenariosMatchParentDigests) {
  // Scenarios 0-63 of serve's mix on s9234 and of two s953 mixes, drawn
  // through the generator's pools. Recorded while each generator still
  // enumerated its own copy of the collapsed universe and feedback-checked
  // bridges with two gate-sized arrays per candidate, so sharing the
  // netlist's universe and the stamped walk provably kept every draw.
  struct Expected {
    const char* circuit;
    const char* spec;
    std::uint64_t seed;  // 0: the spec's default
    std::uint64_t digest;
  };
  const Expected expected[] = {
      {"s9234", "2,bridge,open", 0x5E7E, 0x8b6637f6475a9600ULL},
      {"s953", "3", 0, 0x6bc8c2c8ea9955c9ULL},
      {"s953", "2,intermittent:0.5", 0, 0x229b501442b0f46fULL},
  };
  for (const Expected& e : expected) {
    SCOPED_TRACE(std::string(e.circuit) + " " + e.spec);
    const Netlist nl = generateNamedCircuit(e.circuit);
    const PatternSet patterns = generatePatterns(nl, DiagnosisConfig{}.numPatterns, PrpgConfig{});
    const FaultSimulator sim(nl, patterns);
    DefectMix mix = parseDefectSpec(e.spec);
    if (e.seed != 0) mix.seed = e.seed;
    const DefectScenarioGenerator generator(sim, mix);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t index = 0; index < 64; ++index) h = digestScenario(generator.generate(index), h);
    EXPECT_EQ(h, e.digest);
  }
}

}  // namespace
}  // namespace scandiag
