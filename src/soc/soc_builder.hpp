// Builders for the paper's two evaluation SOCs (§5) plus replicated SOCs.
//
//  * SOC-1: the six largest ISCAS-89 circuits stitched behind a single meta
//    scan chain (one TestRail wire). 32 groups per partition in the paper.
//  * d695 variant: the eight full-scan ISCAS-89 modules of the ITC'02 d695
//    benchmark on an 8-bit TAM with 8 balanced meta chains, cores daisy-
//    chained in Fig. 4 order. 8 groups per partition in the paper.
//  * Replicated SOCs ("rep:<module>x<R>[:w<W>]"): R instances of one module —
//    the distributed-identical-blocks shape of Wang/Wu/Ivanov — used by the
//    million-cell dedup sweeps. All R instances share ONE arena-owned netlist
//    (memory is flat in R), and buildSocFromModules likewise generates each
//    distinct module name once and aliases repeats.
//
// Core netlists come from the synthetic generator (DESIGN.md §5); pass a
// custom module list to build any other core mix.
#pragma once

#include "netlist/synthetic_generator.hpp"
#include "soc/core_instance.hpp"

namespace scandiag {

/// Generic builder: generates one netlist per *distinct* ISCAS-89 profile
/// name (repeated names alias the same arena netlist) and threads `tamWidth`
/// meta chains through the instances in daisy-chain order.
Soc buildSocFromModules(const std::string& socName, const std::vector<std::string>& modules,
                        std::size_t tamWidth);

/// Six largest ISCAS-89 circuits, single meta scan chain.
Soc buildSoc1();

/// d695 variant: 8 ISCAS-89 modules, 8-bit TAM.
Soc buildD695();

/// `replication` instances of one module (named "<module>#<k>") sharing a
/// single generated netlist, behind a `tamWidth`-bit TAM.
Soc buildReplicatedSoc(const std::string& module, std::size_t replication,
                       std::size_t tamWidth);

/// Most scan cells a "rep:" spec may ask for (R x the module's cells): 2^24,
/// about 16 times the largest SOC any sweep builds ("rep:s38584x702:w8",
/// about 1M cells).
inline constexpr std::size_t kMaxReplicatedScanCells = std::size_t{1} << 24;

/// SOC spec grammar shared by the CLI and benches:
///   "soc1" | "d695" | "rep:<module>x<R>[:w<W>]"  (e.g. "rep:s38584x702:w8").
/// Throws std::invalid_argument, before any core is built, on a malformed
/// spec, an unknown module, more than kMaxReplicatedScanCells cells, or a
/// TAM width W above the SOC's scan-cell count.
Soc buildSocFromSpec(const std::string& spec);

}  // namespace scandiag
