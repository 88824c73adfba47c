// Million-cell SOC scale bench: structural dedup speedup + streaming faults.
//
// Three sections:
//  1. Dedup ladder — rep:s5378xR for R in {8, 32}: the class sweep with
//     structural dedup against the no-dedup baseline (every instance
//     evaluated from scratch). The speedup must GROW with replication —
//     dedup's whole point is that work is per-class, not per-instance.
//  2. Million-cell sweep — rep:s38584x702:w8 (702 x 1426 = 1,001,052 cells,
//     >= 100x bench_table3's SOC-1 at 6,173 cells), class-deduped: one
//     representative evaluation stands for all 702 instances. Reports
//     cells/sec over the whole SOC.
//  3. Fault universe walk over every core at meta scale: per-fault memory
//     must be flat (each module's collapsed universe is cached once on its
//     shared netlist; nothing per core or per fault is materialized). VmRSS
//     growth across ~7M walked sites is reported as timing and gated in CI
//     via stream_rss_flat.
//
// Counters are deterministic and golden-gated (results/golden/
// BENCH_soc_scale.json) by the workflow_dispatch big-sweep CI job — not by
// PR CI, which names its benches explicitly. Timing fields are wall-clock
// and never golden-compared.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "core/scandiag.hpp"

using namespace scandiag;
using namespace scandiag::benchutil;

namespace {

/// Resident set size in KiB from /proc/self/status (0 where unsupported).
std::size_t rssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

double seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

DiagnosisConfig sweepConfig() {
  DiagnosisConfig c;
  c.scheme = SchemeKind::TwoStep;
  c.numPartitions = 8;
  c.groupsPerPartition = 16;
  c.numPatterns = 64;
  return c;
}

/// One timed class sweep; returns wall seconds.
double timedSweep(const Soc& soc, const WorkloadConfig& workload, const DiagnosisConfig& config,
                  bool dedup, const RunControl& control) {
  SocSweepOptions options;
  options.dedupClasses = dedup;
  const auto start = std::chrono::steady_clock::now();
  runSocClassSweep(soc, workload, config, options, control);
  return seconds(start, std::chrono::steady_clock::now());
}

}  // namespace

int main(int argc, char** argv) {
  banner("SOC scale: structural core dedup + million-cell class sweeps",
         "dedup speedup grows with replication; per-fault memory stays flat");

  BenchRun run(argc, argv);
  BenchReport report("soc_scale");

  WorkloadConfig ladderWorkload;
  ladderWorkload.numPatterns = 64;
  ladderWorkload.numFaults = 48;
  const DiagnosisConfig config = sweepConfig();

  try {
    // --- 1. Dedup ladder -------------------------------------------------
    row("%-18s | %9s %9s %8s", "soc", "no-dedup", "dedup", "speedup");
    double speedups[2] = {0, 0};
    const std::size_t ladder[2] = {8, 32};
    for (int i = 0; i < 2; ++i) {
      const std::string spec =
          "rep:s5378x" + std::to_string(ladder[i]) + ":w8";
      const Soc soc = buildSocFromSpec(spec);
      const double cold = timedSweep(soc, ladderWorkload, config, false, run.control());
      const double warm = timedSweep(soc, ladderWorkload, config, true, run.control());
      speedups[i] = warm > 0 ? cold / warm : 0.0;
      row("%-18s | %8.2fs %8.2fs %7.2fx", spec.c_str(), cold, warm, speedups[i]);
      report.row({{"soc", spec},
                  {"seconds_no_dedup", cold},
                  {"seconds_dedup", warm},
                  {"dedup_speedup", speedups[i]}});
    }
    report.timing("dedup_speedup_r8", speedups[0]);
    report.timing("dedup_speedup_r32", speedups[1]);
    // Wall-clock ratios wobble on noisy runners; the CI gate uses the
    // coarser monotonicity signal (r32 must beat r8 by any margin).
    report.timing("dedup_speedup_growth", speedups[0] > 0 ? speedups[1] / speedups[0] : 0.0);

    // --- 2. Million-cell class sweep -------------------------------------
    const std::string bigSpec = "rep:s38584x702:w8";
    const auto buildStart = std::chrono::steady_clock::now();
    const Soc big = buildSocFromSpec(bigSpec);
    const double buildSecs = seconds(buildStart, std::chrono::steady_clock::now());
    row("");
    row("%s: %zu cores, %zu cells (built in %.2fs)", bigSpec.c_str(), big.coreCount(),
        big.totalCells(), buildSecs);

    WorkloadConfig bigWorkload;
    bigWorkload.numPatterns = 64;
    bigWorkload.numFaults = 96;
    const auto sweepStart = std::chrono::steady_clock::now();
    SocSweepOptions options;
    const SocSweepResult result = runSocClassSweep(big, bigWorkload, config, options,
                                                   run.control());
    const double sweepSecs = seconds(sweepStart, std::chrono::steady_clock::now());
    const double cellsPerSec = sweepSecs > 0 ? double(big.totalCells()) / sweepSecs : 0.0;
    for (const SocClassRow& r : result.classes) {
      row("  class %-10s x%-4zu DR = %7.3f (%zu faults) — %.2fs, %.0f cells/sec",
          r.className.c_str(), r.instanceCount, r.report.dr, r.report.faults, sweepSecs,
          cellsPerSec);
      report.row({{"soc", bigSpec},
                  {"class_name", r.className},
                  {"instances", r.instanceCount},
                  {"faults", r.report.faults},
                  {"dr", r.report.dr}});
    }
    report.context("soc", bigSpec);
    report.context("cores", big.coreCount());
    report.context("cells", big.totalCells());
    report.context("classes", result.classCount);
    report.timing("build_seconds", buildSecs);
    report.timing("sweep_seconds", sweepSecs);
    report.timing("cells_per_sec", cellsPerSec);

    // --- 3. Fault universe walk, flat memory -------------------------------
    // validate() cached each module's collapsed universe when the SOC was
    // built, and sibling cores share their module's netlist, so walking every
    // core's universe at meta scale must allocate nothing per fault.
    const std::size_t rssBefore = rssKb();
    const auto streamStart = std::chrono::steady_clock::now();
    std::uint64_t streamed = 0;
    for (std::size_t k = 0; k < big.coreCount(); ++k) {
      for (const FaultSite& site : FaultList::enumerateCollapsed(*big.core(k).netlist).faults())
        streamed += site.gate != kInvalidGate ? 1 : 0;
    }
    const double streamSecs = seconds(streamStart, std::chrono::steady_clock::now());
    const std::size_t rssAfter = rssKb();
    const std::size_t growthKb = rssAfter > rssBefore ? rssAfter - rssBefore : 0;
    // "Flat" allows allocator noise, not per-fault state: 7M+ sites at even
    // one byte each would blow straight through this bound.
    const bool flat = growthKb < 4096;
    row("");
    row("walked %llu fault sites over %zu cores in %.2fs — RSS growth %zu KiB (%s)",
        static_cast<unsigned long long>(streamed), big.coreCount(), streamSecs, growthKb,
        flat ? "flat" : "NOT FLAT");
    report.timing("stream_sites", streamed);
    report.timing("stream_seconds", streamSecs);
    report.timing("stream_rss_growth_kb", growthKb);
    report.timing("stream_rss_flat", flat ? 1.0 : 0.0);
    report.timing("hardware_concurrency",
                  static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  } catch (const OperationCancelled& err) {
    return run.interrupted(report, err);
  }
  report.write();
  return 0;
}
