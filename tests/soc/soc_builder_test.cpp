#include "soc/soc_builder.hpp"

#include <gtest/gtest.h>

namespace scandiag {
namespace {

// Small custom SOC used by most tests to keep runtimes low.
Soc smallSoc(std::size_t tamWidth = 1) {
  return buildSocFromModules("mini", {"s298", "s344", "s526"}, tamWidth);
}

TEST(SocBuilder, OffsetsAreContiguous) {
  const Soc soc = smallSoc();
  std::size_t expected = 0;
  for (const CoreInstance& core : soc.cores()) {
    EXPECT_EQ(core.cellOffset, expected);
    expected += core.numCells();
  }
  EXPECT_EQ(soc.totalCells(), expected);
}

TEST(SocBuilder, CoreOfCellMapsBoundariesCorrectly) {
  const Soc soc = smallSoc();
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    const CoreInstance& core = soc.core(k);
    EXPECT_EQ(soc.coreOfCell(core.cellOffset), k);
    EXPECT_EQ(soc.coreOfCell(core.cellOffset + core.numCells() - 1), k);
  }
  EXPECT_THROW(soc.coreOfCell(soc.totalCells()), std::invalid_argument);
}

TEST(SocBuilder, CoreIndexByName) {
  const Soc soc = smallSoc();
  EXPECT_EQ(soc.coreIndex("s344"), 1u);
  EXPECT_THROW(soc.coreIndex("sXXX"), std::invalid_argument);
}

TEST(SocBuilder, Soc1IsSixLargestSingleChain) {
  const Soc soc = buildSoc1();
  EXPECT_EQ(soc.coreCount(), 6u);
  EXPECT_EQ(soc.topology().numChains(), 1u);
  std::size_t dffSum = 0;
  for (const std::string& name : sixLargestIscas89()) dffSum += iscas89Profile(name).numDffs;
  EXPECT_EQ(soc.totalCells(), dffSum);
  EXPECT_EQ(soc.topology().maxChainLength(), dffSum);
}

TEST(SocBuilder, D695HasEightCoresOnEightChains) {
  const Soc soc = buildD695();
  EXPECT_EQ(soc.coreCount(), 8u);
  EXPECT_EQ(soc.topology().numChains(), 8u);
  EXPECT_EQ(soc.core(0).name, "s838");  // daisy-chain order of paper Fig. 4
  EXPECT_EQ(soc.core(3).name, "s38584");
}

TEST(SocBuilder, CoresOccupyContiguousPositionRuns) {
  const Soc soc = smallSoc(2);
  for (std::size_t k = 0; k < soc.coreCount(); ++k) {
    const CoreInstance& core = soc.core(k);
    // Collect this core's positions; they must form at most tamWidth runs
    // whose union is an interval per chain. Cheap check: position spread per
    // chain <= core cell count.
    std::vector<std::size_t> minPos(soc.topology().numChains(), static_cast<std::size_t>(-1));
    std::vector<std::size_t> maxPos(soc.topology().numChains(), 0);
    std::vector<std::size_t> perChain(soc.topology().numChains(), 0);
    for (std::size_t cell = core.cellOffset; cell < core.cellOffset + core.numCells(); ++cell) {
      const auto loc = soc.topology().location(cell);
      minPos[loc.chain] = std::min(minPos[loc.chain], loc.position);
      maxPos[loc.chain] = std::max(maxPos[loc.chain], loc.position);
      ++perChain[loc.chain];
    }
    for (std::size_t c = 0; c < perChain.size(); ++c) {
      if (perChain[c] == 0) continue;
      EXPECT_EQ(maxPos[c] - minPos[c] + 1, perChain[c])
          << "core " << core.name << " fragmented on chain " << c;
    }
  }
}

TEST(SocBuilder, ValidatesCoreNetlists) {
  const Soc soc = smallSoc();
  for (const CoreInstance& core : soc.cores()) EXPECT_NO_THROW(core.netlist->validate());
}

TEST(SocBuilder, RefusedSpecsBuildNoSoc) {
  // R and W follow the one number rule and are at least 1, R x the module's
  // cells stays within kMaxReplicatedScanCells and W within the SOC's cells;
  // anything else is refused as std::invalid_argument, before any core is
  // built (the last two once reached an allocation that failed).
  for (const char* bad :
       {"rep:s298x2zz:w2", "rep:s298x2:w2 junk", "rep:s298x2:w99999999999999999999",
        "rep:s298x2:wabc", "rep:s298x2:w0", "rep:s298x2:w-1", "rep:s298x2:w", "rep:s298x2:",
        "rep:s298x2:x2", "rep:s298x0", "rep:s298x-2", "rep:s298x 2", "rep:s298x+2",
        "rep:s298x99999999999999999999", "rep:s298x", "rep:x2", "rep:s298", "soc2",
        "rep:s298x2:w29", "rep:s298x2:w9223372036854775807", "rep:s298x100000000000"}) {
    EXPECT_THROW(buildSocFromSpec(bad), std::invalid_argument) << "spec '" << bad << "'";
  }
}

TEST(Soc, ConstructionInvariantsEnforced) {
  std::vector<CoreInstance> cores;
  CoreInstance c;
  c.name = "a";
  c.netlist = std::make_shared<const Netlist>(generateNamedCircuit("s298"));
  c.cellOffset = 5;  // wrong: must start at 0
  cores.push_back(std::move(c));
  EXPECT_THROW(Soc("bad", std::move(cores), ScanTopology::singleChain(14)),
               std::invalid_argument);
}

}  // namespace
}  // namespace scandiag
