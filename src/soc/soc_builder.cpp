#include "soc/soc_builder.hpp"

#include <map>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/errors.hpp"
#include "soc/meta_scan_builder.hpp"

namespace scandiag {

namespace {

Soc assembleSoc(const std::string& socName, std::vector<CoreInstance> cores,
                std::size_t tamWidth) {
  std::vector<std::size_t> cellCounts;
  cellCounts.reserve(cores.size());
  std::size_t offset = 0;
  for (CoreInstance& core : cores) {
    core.cellOffset = offset;
    offset += core.numCells();
    cellCounts.push_back(core.numCells());
  }
  return Soc(socName, std::move(cores), buildMetaChains(cellCounts, tamWidth));
}

}  // namespace

Soc buildSocFromModules(const std::string& socName, const std::vector<std::string>& modules,
                        std::size_t tamWidth) {
  // Arena: one generated netlist per distinct module name; repeated names
  // alias it (the generator is deterministic, so the dedup is exact).
  std::map<std::string, std::shared_ptr<const Netlist>> arena;
  std::vector<CoreInstance> cores;
  cores.reserve(modules.size());
  for (const std::string& m : modules) {
    auto it = arena.find(m);
    if (it == arena.end()) {
      it = arena.emplace(m, std::make_shared<const Netlist>(generateNamedCircuit(m)))
               .first;
    }
    cores.push_back(CoreInstance{m, it->second, 0});
  }
  return assembleSoc(socName, std::move(cores), tamWidth);
}

Soc buildSoc1() { return buildSocFromModules("soc1", sixLargestIscas89(), /*tamWidth=*/1); }

Soc buildD695() { return buildSocFromModules("d695", d695Iscas89Modules(), /*tamWidth=*/8); }

Soc buildReplicatedSoc(const std::string& module, std::size_t replication,
                       std::size_t tamWidth) {
  SCANDIAG_REQUIRE(replication >= 1, "replication must be >= 1");
  const auto shared = std::make_shared<const Netlist>(generateNamedCircuit(module));
  std::vector<CoreInstance> cores;
  cores.reserve(replication);
  for (std::size_t k = 0; k < replication; ++k) {
    cores.push_back(CoreInstance{module + "#" + std::to_string(k), shared, 0});
  }
  return assembleSoc("rep-" + module + "x" + std::to_string(replication), std::move(cores),
                     tamWidth);
}

Soc buildSocFromSpec(const std::string& spec) {
  if (spec == "soc1") return buildSoc1();
  if (spec == "d695") return buildD695();
  if (spec.rfind("rep:", 0) != 0) {
    throw std::invalid_argument("unknown SOC spec '" + spec +
                                "' (expected soc1, d695, or rep:<module>x<R>[:w<W>])");
  }
  // rep:<module>x<R>[:w<W>]
  std::string body = spec.substr(4);
  std::size_t tamWidth = 1;
  const std::size_t colon = body.find(':');
  if (colon != std::string::npos) {
    if (body.compare(colon + 1, 1, "w") != 0) {
      throw std::invalid_argument("bad SOC spec '" + spec + "': expected ':w<W>' suffix");
    }
    tamWidth = parseUnsigned(body.substr(colon + 2), "SOC spec '" + spec + "' TAM width W");
    body.resize(colon);
  }
  const std::size_t x = body.rfind('x');
  if (x == std::string::npos || x == 0) {
    throw std::invalid_argument("bad SOC spec '" + spec +
                                "': expected rep:<module>x<R>[:w<W>]");
  }
  const std::size_t replication =
      parseUnsigned(body.substr(x + 1), "SOC spec '" + spec + "' replication R");
  if (replication == 0 || tamWidth == 0) {
    throw std::invalid_argument("bad SOC spec '" + spec + "': R and W must be at least 1");
  }
  const std::string module = body.substr(0, x);
  const std::size_t moduleCells = iscas89Profile(module).numDffs;
  if (replication > kMaxReplicatedScanCells / moduleCells) {
    throw std::invalid_argument("bad SOC spec '" + spec + "': R copies of " + module + "'s " +
                                std::to_string(moduleCells) + " scan cells exceed the " +
                                std::to_string(kMaxReplicatedScanCells) + "-cell cap");
  }
  if (tamWidth > replication * moduleCells) {
    throw std::invalid_argument("bad SOC spec '" + spec + "': TAM width W exceeds the SOC's " +
                                std::to_string(replication * moduleCells) + " scan cells");
  }
  return buildReplicatedSoc(module, replication, tamWidth);
}

}  // namespace scandiag
