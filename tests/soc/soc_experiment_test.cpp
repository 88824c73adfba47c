#include "soc/soc_experiment_driver.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "atpg/podem.hpp"
#include "bist/prpg.hpp"
#include "inject/defect_zoo.hpp"
#include "netlist/synthetic_generator.hpp"
#include "sim/bridge_faults.hpp"
#include "sim/fault_list.hpp"
#include "soc/soc_builder.hpp"

namespace scandiag {
namespace {

Soc miniSoc(std::size_t tamWidth = 1) {
  return buildSocFromModules("mini", {"s298", "s344", "s526"}, tamWidth);
}

WorkloadConfig quickWorkload() {
  WorkloadConfig wc;
  wc.numPatterns = 64;
  wc.numFaults = 40;
  return wc;
}

TEST(SocExperiment, ResponsesAreGlobalAndConfinedToFailingCore) {
  const Soc soc = miniSoc();
  const std::size_t coreIdx = 1;
  const auto responses = socResponsesForFailingCore(soc, coreIdx, quickWorkload());
  ASSERT_FALSE(responses.empty());
  const CoreInstance& core = soc.core(coreIdx);
  for (const FaultResponse& r : responses) {
    EXPECT_TRUE(r.detected());
    EXPECT_EQ(r.failingCells.size(), soc.totalCells());
    for (std::size_t cell : r.failingCells.toIndices()) {
      EXPECT_GE(cell, core.cellOffset);
      EXPECT_LT(cell, core.cellOffset + core.numCells());
    }
    // Parallel arrays consistent.
    ASSERT_EQ(r.failingCellOrdinals.size(), r.errorStreams.size());
    for (std::size_t ord : r.failingCellOrdinals) EXPECT_TRUE(r.failingCells.test(ord));
  }
}

TEST(SocExperiment, DifferentCoresGetDifferentFaultSamples) {
  const Soc soc = miniSoc();
  const auto r0 = socResponsesForFailingCore(soc, 0, quickWorkload());
  const auto r2 = socResponsesForFailingCore(soc, 2, quickWorkload());
  ASSERT_FALSE(r0.empty());
  ASSERT_FALSE(r2.empty());
  EXPECT_FALSE(r0[0].failingCells.intersects(r2[0].failingCells));
}

TEST(SocExperiment, DiagnosisOnSocIsSound) {
  const Soc soc = miniSoc();
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 4;
  config.groupsPerPartition = 8;
  config.numPatterns = 64;
  const DiagnosisPipeline pipeline(soc.topology(), config);
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    for (const FaultResponse& r : socResponsesForFailingCore(soc, k, quickWorkload())) {
      const FaultDiagnosis d = pipeline.diagnose(r);
      EXPECT_TRUE(r.failingCells.isSubsetOf(d.candidates.cells));
    }
  }
}

TEST(SocExperiment, EvaluateSocDrCoversEveryCore) {
  const Soc soc = miniSoc();
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 4;
  config.groupsPerPartition = 8;
  config.numPatterns = 64;
  const auto rows = evaluateSocDr(soc, quickWorkload(), config);
  ASSERT_EQ(rows.size(), soc.coreCount());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k].failingCore, soc.core(k).name);
    EXPECT_GT(rows[k].report.faults, 0u);
    EXPECT_GE(rows[k].report.dr, 0.0);
  }
}

TEST(SocExperiment, MultiChainSocWorks) {
  const Soc soc = miniSoc(4);
  EXPECT_EQ(soc.topology().numChains(), 4u);
  DiagnosisConfig config;
  config.scheme = SchemeKind::TwoStep;
  config.numPartitions = 4;
  config.groupsPerPartition = 4;
  config.numPatterns = 64;
  const DiagnosisPipeline pipeline(soc.topology(), config);
  const auto responses = socResponsesForFailingCore(soc, 0, quickWorkload());
  const DrReport report = pipeline.evaluate(responses);
  EXPECT_GT(report.faults, 0u);
}

TEST(SocExperiment, InvalidCoreIndexRejected) {
  const Soc soc = miniSoc();
  EXPECT_THROW(socResponsesForFailingCore(soc, 99, quickWorkload()), std::invalid_argument);
}

TEST(SharedNetlist, FourThreadsReadItLikeOneThread) {
  // rep:s298x4's four cores share one netlist. Four threads, unsynchronized
  // after they start, each draw core k's fault sample from its cached
  // collapsed universe and build a defect generator on it (the pools serve
  // builds outside its simulator lock). validate() filled every cache when
  // the module was generated, so the threads only read: the results match
  // one thread's, and the sanitizer jobs see no race.
  const Soc soc = buildSocFromSpec("rep:s298x4");
  ASSERT_EQ(soc.coreCount(), 4u);
  for (std::size_t k = 1; k < soc.coreCount(); ++k)
    ASSERT_EQ(soc.core(k).netlist.get(), soc.core(0).netlist.get());
  const auto run = [&](std::size_t k) {
    std::vector<std::size_t> out;
    for (const FaultResponse& r : socResponsesForFailingCore(soc, k, quickWorkload()))
      out.insert(out.end(), r.failingCellOrdinals.begin(), r.failingCellOrdinals.end());
    const Netlist& nl = *soc.core(k).netlist;
    const PatternSet patterns = generatePatterns(nl, 64, PrpgConfig{});
    const FaultSimulator sim(nl, patterns);
    const DefectScenarioGenerator generator(sim, parseDefectSpec("2,bridge,open"));
    for (const std::size_t cell : generator.generate(k).composed.failingCellOrdinals)
      out.push_back(cell);
    return out;
  };
  // Threads first: a serial pass would fill any cache validate() had left
  // empty before the threads could race on it.
  std::vector<std::vector<std::size_t>> parallel(soc.coreCount()), serial(soc.coreCount());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < soc.coreCount(); ++k)
    threads.emplace_back([&, k] { parallel[k] = run(k); });
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < soc.coreCount(); ++k) serial[k] = run(k);
  EXPECT_EQ(parallel, serial);
}

TEST(SharedNetlist, FourThreadsReadOneImageLikeOneThread) {
  // One validated netlist, four unsynchronized threads, each through every
  // reader of its image: the PRPG fill, the good machine's program, cone
  // walks and the fault simulator, bridge checks and simulation, PODEM and
  // the cube fill. validate() built the image with the levelization, so the
  // threads only read it: the results match one thread's, and the sanitizer
  // jobs see no race.
  const Netlist nl = generateNamedCircuit("s1423");
  const auto run = [&](std::size_t k) {
    std::vector<std::uint64_t> out;
    PrpgConfig prpg;
    prpg.seed = 0x5eed + k;
    const PatternSet patterns = generatePatterns(nl, 96, prpg);
    const FaultSimulator sim(nl, patterns);
    for (const BitVector& stream : sim.goodCaptures()) out.push_back(stream.word(0));
    const std::vector<FaultSite> faults = FaultList::enumerateCollapsed(nl).sample(30, 0xA0 + k);
    for (const FaultSite& f : faults) {
      const FaultResponse r = sim.simulate(f);
      out.insert(out.end(), r.failingCellOrdinals.begin(), r.failingCellOrdinals.end());
    }
    for (const BridgeFault& b : enumerateBridgeCandidates(nl, 8, k)) {
      const FaultResponse r = sim.simulateBridge(b);
      out.insert(out.end(), r.failingCellOrdinals.begin(), r.failingCellOrdinals.end());
    }
    const PodemAtpg atpg(nl);
    std::vector<TestCube> cubes;
    for (const FaultSite& f : faults) {
      AtpgResult r = atpg.generate(f, 100);
      out.push_back(static_cast<std::uint64_t>(r.outcome));
      if (r.outcome == AtpgOutcome::Detected) cubes.push_back(std::move(r.cube));
    }
    if (!cubes.empty()) {
      const PatternSet fill = patternsFromCubes(nl, cubes, k);
      for (const GateId id : nl.dffs()) out.push_back(fill.word(id, 0));
    }
    return out;
  };
  std::vector<std::vector<std::uint64_t>> parallel(4), serial(4);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < 4; ++k) threads.emplace_back([&, k] { parallel[k] = run(k); });
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < 4; ++k) serial[k] = run(k);
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace scandiag
