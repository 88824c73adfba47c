// scandiag — command-line front end.
//
// Grammar (tools/cli_args.hpp, shared with scandiag_client):
//   scandiag <command> [<positional>...] [--option value]... [--flag]...
// Each command takes only the options and flags it reads (kCommands below);
// --threads and --metrics are common to every command. Any other --name,
// and any empty value (--report ''), exits 2 before any work, naming the
// option. Values:
//   count    one whole unsigned number: decimal, 0x hex or leading-0 octal
//            (12, 0xFA17; 010 is 8); no sign, space or trailing text
//   real     one whole finite real (0.5, 1e-3); no space, nan or inf
//   ms       a count of milliseconds below 2^32 (about 49 days)
//   shard    i/N: counts with i < N < 2^32
//   rep:     rep:<module>x<R>[:w<W>]: counts R, W >= 1 (W defaults to 1),
//            R x the module's scan cells <= 2^24 (kMaxReplicatedScanCells),
//            W <= that cell count
//   defects  k[,bridge][,open][,intermittent:p][,seed:n]: counts k >= 1 and
//            n, a real p in (0,1); k at most the circuit's gate count; serve
//            reads the same spec off its socket
//
// Subcommands:
//   info <circuit>                       circuit statistics and fault universe
//   emit <circuit> --o <file.bench>      write a synthetic circuit as .bench
//   diagnose <circuit> --fault <site>    diagnose one injected stuck-at fault
//   dr <circuit>                         DR experiment on one circuit
//   soc-dr <soc1|d695|rep:...>           DR per failing core on a built-in SOC;
//                                        --shard/--report/--class-sweep (or a
//                                        rep: spec) diagnose each structural
//                                        core class once, on its core-local
//                                        topology, for every sibling instance
//   merge-journals <j0> <j1> ... [--out F]  merge a sharded class sweep's
//                                        journals into the byte-identical
//                                        unsharded `soc-dr --report` output
//   plan <circuit>                       calibrate (groups, partitions) for a DR target
//   offline --log <file> --cells N       diagnose from a tester session log
//   partitions <length>                  print a partition sequence
//   serve <circuit> --socket <path>      diagnosis-as-a-service daemon
//   serve-ledger --journal <file>        replay a serve request ledger
//
// <circuit> is either a .bench file path (contains '.' or '/') or a built-in
// ISCAS-89 profile name (s27, s953, ..., s38584).
//
// Schedule and workload options (kCommands lists which command takes which):
//   --scheme interval|random|two-step|deterministic|adaptive  (default
//                     two-step; adaptive picks each next partition online per
//                     fault — dr/soc-dr/diagnose/plan only, and incompatible
//                     with --prune and the `partitions` command)
//   --partitions N    (default 8)      --groups N      (default 16; interval
//                     and two-step need at most one group per chain position,
//                     random and two-step a power of two — else exit 2)
//   --patterns N      (default 128, at most 16384)   --faults N (default 500)
//   --chains N        (default 1)      --prune         (off; <= 32 chains)
//   --seed N          (dr's fault-sample seed, default 0xFA17)
//   --sa 0|1          diagnose's stuck-at value (default 1)
//   --json            machine-readable output
//   --target X        DR target for plan, a real (default 0.5)
//
// Common to every command:
//   --threads N       (worker threads for the per-fault loops; default
//                      SCANDIAG_THREADS, else all hardware threads; results
//                      are bit-identical for every value)
//   --metrics F       write a pipeline metrics snapshot (counters, phase
//                     timers, worker utilization) to F as JSON after the
//                     command finishes (any command; also written on exit 8
//                     and flushed when the command is interrupted with exit 6)
//
// Class-sweep / shard options (soc-dr, merge-journals):
//   --class-sweep     force the class-sweep protocol for soc1/d695 (rep:
//                     specs always use it)
//   --shard i/N       run fault-range shard i of N (0-based); requires
//                     --checkpoint (each shard owns its own journal)
//   --report F        write the class-sweep report JSON to F (atomic);
//                     unsharded runs only — shards publish via their journal
//   --no-dedup        disable structural dedup (every instance evaluated
//                     from scratch; the A/B baseline for dedup speedup)
//   --out F           merge-journals: write the merged report to F instead
//                     of stdout
//
// Crash safety / long-run options (dr, soc-dr):
//   --deadline-ms N   watchdog: cancel the run after N milliseconds of wall
//                     clock and exit 6 with whatever was journaled/flushed
//                     (every mode: clean, --noise, --defects; SIGINT/SIGTERM
//                     drain the same way)
//   --checkpoint F    journal every completed fault to F (fsync'd, CRC-framed);
//                     clean runs only — refused (exit 2) with the noise flags
//                     and with --defects
//   --resume          continue from F instead of starting over; refuses a
//                     journal written for a different circuit/workload setup;
//                     final DR/counters are bit-identical to an uninterrupted
//                     run at any thread count
//
// Serve options (serve):
//   --socket PATH     unix-domain socket to listen on (required)
//   --queue N         admission queue depth; one more connection is shed BUSY
//                     (default 16)
//   --handlers N      handler threads for framing I/O (default 2; compute runs
//                     on the --threads pool)
//   (serve runs the fixed schedule without pruning: it refuses --scheme
//   adaptive and does not take --prune)
//   --request-deadline-ms N   per-request watchdog; exceeding it degrades the
//                     reply to DEADLINE with a partial superset (default 0 = off)
//   --io-timeout-ms N whole-frame read/write deadline (slowloris bound,
//                     default 5000)
//   --drain-ms N      stage-one drain budget after SIGINT/SIGTERM; requests
//                     still running past it are cancelled ABORTED (default 5000)
//   --journal F       crash-safe request-accounting ledger (fsync'd, CRC-framed)
//   --metrics F       metrics snapshot written atomically at drain
//
// Defect-zoo options (dr, soc-dr):
//   --defects SPEC    diagnose k-fault union scenarios instead of single
//                     stuck-at faults, e.g. "2,bridge,open" (grammar above).
//                     dr: --faults N scenarios through the full
//                     detection -> union analysis -> refinement -> degradation
//                     ladder; soc-dr: k simultaneous failing cores (stuck-at
//                     only; bridge/open/intermittent are core-local models).
//                     Takes precedence over the noise flags. Incompatible with
//                     --scheme adaptive and --checkpoint/--resume (soc-dr:
//                     also --shard/--report).
//   --refine-budget N extra interval sessions per scenario for active union
//                     refinement (default 96; 0 = passive superset only)
//   --atpg-budget N   PODEM mini-sessions per scenario when refinement stalls
//                     (default 16; 0 disables the stall breaker)
//   --samples N       full-schedule observations for intermittent scenarios
//                     (default 3)
//
// Noise / resilience options (diagnose, dr; R is a real):
//   --noise R         raw verdict-flip rate per session (both directions)
//   --intermittent R  intermittent fail->pass rate per failing session
//   --xmask R         per-position X-masking rate
//   --alias R         forced MISR aliasing rate per failing session
//   --noise-seed N    noise stream seed (default 0x7E57ED)
//   --retry-budget N  max extra sessions spent re-running suspect partitions
//   --max-retries N   re-runs per suspect partition (default 2)
//
// Exit codes:
//   0  success
//   1  internal/runtime failure
//   2  usage error (an option or flag the command does not take, unknown
//      command or scheme, missing argument, a value that breaks the grammar
//      above, zero partitions, a group count the scheme cannot build on the
//      chain)
//   3  input file not found
//   4  input file failed to parse
//   5  diagnosis still inconsistent after the retry budget was exhausted
//      (a widened candidate superset was still printed)
//   6  interrupted (SIGINT/SIGTERM or watchdog deadline); the checkpoint
//      journal and any --metrics snapshot were flushed and are valid; for
//      serve: the drain completed, the request ledger balances
//   7  server fatal (serve could not bind/listen or open its journal)
//   8  diagnosis resolved only to a guaranteed superset (--defects: k
//      exceeded the resolvable cluster budget, the refinement/ATPG budget ran
//      out, or intermittency degraded the answer; noisy dr: some fault was
//      still unresolved after the retry budget). The printed candidates are a
//      sound superset with calibrated confidence — degrade, never lie; stderr
//      says how many; --metrics is written as for 0

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_args.hpp"
#include "common/watchdog.hpp"
#include "core/scandiag.hpp"
#include "diagnosis/checkpoint.hpp"
#include "serve/accounting.hpp"
#include "serve/server.hpp"

using namespace scandiag;
using namespace scandiag::cli;

namespace {

/// Diagnosis stayed inconsistent after recovery; the CLI maps this to exit 5.
struct InconsistentDiagnosisError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Netlist loadCircuit(const std::string& spec) {
  if (spec.find('/') != std::string::npos || spec.find('.') != std::string::npos)
    return parseBenchFile(spec);
  return generateNamedCircuit(spec);
}

/// Most patterns one command applies. Every count the repo runs fits (the
/// largest is 8,192), and a set of cells x patterns bits stays allocatable.
constexpr std::uint64_t kMaxPatterns = 16384;

/// --patterns (diagnose, dr, soc-dr, plan, serve). Zero patterns apply no
/// test at all, so it is a usage error, refused with any count above the cap
/// before any work.
std::size_t patternsFrom(const Args& args) {
  const std::size_t patterns = args.getN("patterns", 128, kMaxPatterns);
  if (patterns == 0) throw std::invalid_argument("--patterns must be at least 1");
  return patterns;
}

DiagnosisConfig configFrom(const Args& args) {
  DiagnosisConfig c;
  c.scheme = parseSchemeKind(args.get("scheme", "two-step"));
  c.numPartitions = args.getN("partitions", 8);
  c.groupsPerPartition = args.getN("groups", 16);
  c.numPatterns = patternsFrom(args);
  c.pruning = args.getFlag("prune");
  return c;
}

/// --prune feeds every scan chain into its own line of the pruning signature
/// register, so it cannot run on more chains than the register is wide.
/// Checked before any circuit is simulated.
void requirePruneWidth(const DiagnosisConfig& config, std::size_t chains) {
  if (!config.pruning || chains <= kPruneDegree) return;
  throw std::invalid_argument("--prune supports at most " + std::to_string(kPruneDegree) +
                              " scan chains (the width of its signature register), not " +
                              std::to_string(chains));
}

/// Noise model requested on the command line; nullopt when no noise flag given.
std::optional<NoiseConfig> noiseFrom(const Args& args) {
  const bool any = args.options.count("noise") || args.options.count("intermittent") ||
                   args.options.count("xmask") || args.options.count("alias");
  if (!any) return std::nullopt;
  NoiseConfig noise;
  noise.flipRate = args.getReal("noise", 0.0);
  noise.intermittentRate = args.getReal("intermittent", 0.0);
  noise.xMaskRate = args.getReal("xmask", 0.0);
  noise.aliasRate = args.getReal("alias", 0.0);
  noise.seed = args.getN("noise-seed", 0x7E57ED);
  return noise;
}

/// --faults (dr, soc-dr, plan). Zero faults leaves nothing to diagnose — DR
/// would be 0/0 — so it is a usage error, not an empty run.
std::size_t faultsFrom(const Args& args, std::size_t def) {
  const std::size_t faults = args.getN("faults", def);
  if (faults == 0) throw std::invalid_argument("--faults must be at least 1");
  return faults;
}

/// --retry-budget / --max-retries over the mode's defaults.
RetryPolicy retryFrom(const Args& args, RetryPolicy retry = {}) {
  retry.sessionBudget = args.getN("retry-budget", retry.sessionBudget);
  retry.maxRetriesPerSession = args.getN("max-retries", retry.maxRetriesPerSession);
  return retry;
}

/// Watchdog + checkpoint state for the long-running commands (dr, soc-dr).
/// Everything stays null/inert when the flags are absent.
struct CliRunState {
  std::unique_ptr<Watchdog> watchdog;
  std::unique_ptr<SweepCheckpoint> checkpoint;
  RunControl control() const { return RunControl{&globalCancelToken(), watchdog.get()}; }
};

/// Builds the run state from --deadline-ms / --checkpoint / --resume.
/// `setupDigest` must cover the circuit + workload (not the thread count) so
/// a journal can only be resumed against the setup that produced it.
CliRunState cliRunFrom(const Args& args, std::uint64_t setupDigest,
                       const std::string& setupInfo) {
  CliRunState state;
  const std::size_t deadlineMs = args.getN("deadline-ms", 0, kMaxMilliseconds);
  if (deadlineMs > 0)
    state.watchdog = std::make_unique<Watchdog>(globalCancelToken(),
                                                std::chrono::milliseconds(deadlineMs));
  const std::string path = args.get("checkpoint", "");
  if (path.empty()) {
    if (args.getFlag("resume"))
      throw std::invalid_argument("--resume requires --checkpoint <file>");
    return state;
  }
  state.checkpoint = std::make_unique<SweepCheckpoint>(path, setupDigest, setupInfo,
                                                       args.getFlag("resume"));
  if (args.getFlag("resume")) {
    std::fprintf(stderr, "resuming from %s: %zu journaled fault records%s\n", path.c_str(),
                 state.checkpoint->loadedRecords(),
                 state.checkpoint->hadTruncatedTail() ? " (torn tail truncated)" : "");
  }
  return state;
}

/// Run state for the noisy and defect modes: the watchdog of a clean run,
/// but no journal (a fault record carries no confidence or recovery counts).
CliRunState unjournaledRunFrom(const Args& args, const std::string& mode) {
  if (!args.get("checkpoint", "").empty() || args.getFlag("resume"))
    throw std::invalid_argument(mode + " does not support --checkpoint/--resume");
  return cliRunFrom(args, 0, "");
}

int cmdInfo(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  std::printf("circuit   %s\n", nl.name().c_str());
  std::printf("inputs    %zu\n", nl.inputs().size());
  std::printf("outputs   %zu\n", nl.outputs().size());
  std::printf("scancells %zu\n", nl.dffs().size());
  std::printf("gates     %zu (depth %zu)\n", nl.combGateCount(), nl.levelization().maxLevel);
  std::printf("faults    %zu collapsed / %zu uncollapsed\n",
              FaultList::enumerateCollapsed(nl).size(), FaultList::enumerateAll(nl).size());
  return kExitOk;
}

int cmdEmit(const Args& args) {
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const std::string out = args.get("o", nl.name() + ".bench");
  writeBenchFile(nl, out);
  std::printf("wrote %s (%zu gates)\n", out.c_str(), nl.gateCount());
  return kExitOk;
}

int diagnoseNoisy(const Netlist& nl, const Args& args, const FaultSite& fault,
                  const std::string& faultSpec, const NoiseConfig& noise) {
  const DiagnosisConfig config = configFrom(args);
  const ScanTopology topology = ScanTopology::blockChains(
      nl.dffs().size(), std::max<std::size_t>(args.getN("chains", 1), 1));
  const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
  const FaultSimulator sim(nl, patterns);
  const FaultResponse response = sim.simulate(fault);
  if (!response.detected()) {
    std::printf("fault %s not detected by %zu patterns\n", faultSpec.c_str(),
                config.numPatterns);
    return kExitOk;
  }
  const NoisyPipeline noisy(topology, config, noise, retryFrom(args));
  const ResilientDiagnosis d = noisy.diagnose(response, /*faultKey=*/0);

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", nl.name())
        .field("fault", faultSpec)
        .field("detected", true)
        .field("candidateCount", d.candidateCount)
        .field("actualCount", d.actualCount)
        .field("misdiagnosed", d.misdiagnosed)
        .field("confidence", d.confidence)
        .field("resolved", d.resolved)
        .field("inconsistencies", d.inconsistencies)
        .field("retrySessions", d.retrySessions)
        .field("injectedEvents", d.injectedEvents);
    json.key("candidateCells").beginArray();
    for (std::size_t c : d.candidates.cells.toIndices()) json.value(c);
    json.endArray().endObject();
    std::printf("\n");
  } else {
    std::printf("fault %s under noise: %zu failing cells, %zu candidates "
                "(confidence %.3f, %zu injected events, %zu inconsistencies, "
                "%zu retry sessions)\n",
                faultSpec.c_str(), d.actualCount, d.candidateCount, d.confidence,
                d.injectedEvents, d.inconsistencies, d.retrySessions);
    std::printf("candidates:");
    for (std::size_t c : d.candidates.cells.toIndices()) std::printf(" %zu", c);
    std::printf("\n");
  }
  if (!d.resolved)
    throw InconsistentDiagnosisError(
        "diagnosis of " + faultSpec + " is still inconsistent after the retry budget (" +
        std::to_string(d.retrySessions) + " retry sessions spent); candidates were widened");
  return kExitOk;
}

int cmdDiagnose(const Args& args) {
  const DiagnosisConfig config = configFrom(args);  // refuses bad counts before any work
  Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const std::string faultSpec = args.get("fault", "");
  if (faultSpec.empty()) throw std::invalid_argument("diagnose needs --fault <gate-name>");
  const GateId site = nl.findByName(faultSpec);
  if (site == kInvalidGate) throw std::invalid_argument("no gate named '" + faultSpec + "'");
  const bool sa = args.getN("sa", 1, 1) != 0;
  const FaultSite fault{site, FaultSite::kOutputPin, sa};

  if (const std::optional<NoiseConfig> noise = noiseFrom(args))
    return diagnoseNoisy(nl, args, fault, faultSpec + "/SA" + (sa ? "1" : "0"), *noise);

  DiagnoserOptions opts;
  opts.diagnosis = config;
  opts.numChains = args.getN("chains", 1);
  const Diagnoser diag(std::move(nl), opts);
  const Diagnoser::Result r = diag.diagnoseInjectedFault(fault);
  if (!r.detected) {
    std::printf("fault %s/SA%d not detected by %zu patterns\n", faultSpec.c_str(), sa ? 1 : 0,
                opts.diagnosis.numPatterns);
    return kExitOk;
  }
  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", diag.netlist().name())
        .field("fault", faultSpec + "/SA" + (sa ? "1" : "0"))
        .field("detected", true)
        .field("exact", r.exact());
    json.key("actualFailingCells").beginArray();
    for (std::size_t c : r.actualFailingCells) json.value(diag.cellName(c));
    json.endArray();
    json.key("candidateCells").beginArray();
    for (std::size_t c : r.candidateCells) json.value(diag.cellName(c));
    json.endArray();
    json.endObject();
    std::printf("\n");
    return kExitOk;
  }
  std::printf("fault %s/SA%d: %zu failing cells, %zu candidates (%s)\n", faultSpec.c_str(),
              sa ? 1 : 0, r.actualFailingCells.size(), r.candidateCells.size(),
              r.exact() ? "exact" : "superset");
  std::printf("candidates:");
  for (std::size_t c : r.candidateCells) std::printf(" %s", diag.cellName(c).c_str());
  std::printf("\n");
  const DiagnosisCost cost = partitionRunCost(opts.diagnosis.numPartitions,
                                              opts.diagnosis.groupsPerPartition,
                                              opts.diagnosis.numPatterns,
                                              diag.topology().maxChainLength());
  std::printf("cost: %zu sessions, %llu clock cycles\n", cost.sessions,
              static_cast<unsigned long long>(cost.clockCycles));
  return kExitOk;
}

/// Degrade-never-lie: when `degraded` of `total` diagnoses resolved only to
/// a guaranteed superset, say so on stderr and map the run to exit 8.
int supersetExit(std::size_t degraded, std::size_t total, const char* what,
                 const char* detail = "") {
  if (degraded == 0) return kExitOk;
  std::fprintf(stderr, "%zu of %zu %s resolved only to a guaranteed superset%s\n", degraded,
               total, what, detail);
  return kExitDefectSuperset;
}

/// `scandiag dr --noise ...`: faults still unresolved after the retry budget
/// map to exit 8, on the text and --json paths alike.
int drNoisy(const Netlist& nl, const Args& args, const NoiseConfig& noise) {
  const CliRunState run = unjournaledRunFrom(args, "noisy dr");
  const DiagnosisConfig config = configFrom(args);
  WorkloadConfig wc;
  wc.numPatterns = config.numPatterns;
  wc.numFaults = faultsFrom(args, 500);
  wc.faultSeed = args.getN("seed", 0xFA17);
  const CircuitWorkload work = prepareWorkload(nl, wc, args.getN("chains", 1));
  const NoisyPipeline noisy(work.topology, config, noise, retryFrom(args));
  const NoisyDrReport rep = noisy.evaluate(work.responses, run.control());

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", nl.name())
        .field("scheme", schemeName(config.scheme))
        .field("partitions", config.numPartitions)
        .field("groups", config.groupsPerPartition)
        .field("noiseFlipRate", noise.flipRate)
        .field("retryBudget", retryFrom(args).sessionBudget)
        .field("faults", rep.faults)
        .field("dr", rep.dr)
        .field("misdiagnosisRate", rep.misdiagnosisRate)
        .field("emptyRate", rep.emptyRate)
        .field("meanConfidence", rep.meanConfidence)
        .field("inconsistencies", rep.totalInconsistencies)
        .field("retrySessions", rep.totalRetrySessions)
        .field("unresolved", rep.unresolved)
        .endObject();
    std::printf("\n");
  } else {
    std::printf("%s %s under noise: DR = %.4f over %zu faults "
                "(misdiagnosis %.4f, empty %.4f, confidence %.3f, "
                "%zu inconsistencies, %zu retry sessions, %zu unresolved)\n",
                nl.name().c_str(), schemeName(config.scheme).c_str(), rep.dr, rep.faults,
                rep.misdiagnosisRate, rep.emptyRate, rep.meanConfidence,
                rep.totalInconsistencies, rep.totalRetrySessions, rep.unresolved);
  }
  return supersetExit(rep.unresolved, rep.faults, "fault(s)",
                      " under the retry budget (candidates are sound; confidence is "
                      "calibrated)");
}

/// `scandiag dr --defects`: k-fault union scenarios through the defect-zoo
/// pipeline. No checkpoint support (scenarios are cheap to regenerate and the
/// journal schema is per-single-fault); degraded scenarios map to exit 8.
int drDefects(const Netlist& nl, const Args& args) {
  const DefectMix mix = parseDefectSpec(args.get("defects", ""));
  const std::size_t count = faultsFrom(args, 100);
  const CliRunState run = unjournaledRunFrom(args, "--defects");
  const DiagnosisConfig config = configFrom(args);
  if (config.scheme == SchemeKind::Adaptive)
    throw std::invalid_argument("--defects is incompatible with --scheme adaptive");
  const ScanTopology topology = ScanTopology::blockChains(
      nl.dffs().size(), std::max<std::size_t>(args.getN("chains", 1), 1));
  const PatternSet patterns = generatePatterns(nl, config.numPatterns, PrpgConfig{});
  const FaultSimulator sim(nl, patterns);
  const DefectScenarioGenerator generator(sim, mix);

  std::vector<DefectScenario> scenarios;
  scenarios.reserve(count);
  // Serial: generation fault-simulates on the shared simulator (diagnosis
  // below is the parallel part).
  for (std::size_t i = 0; i < count; ++i) scenarios.push_back(generator.generate(i));

  DefectPolicy policy;
  policy.retry = retryFrom(args, policy.retry);
  policy.refineSessionBudget = args.getN("refine-budget", policy.refineSessionBudget);
  policy.atpgSessionBudget = args.getN("atpg-budget", policy.atpgSessionBudget);
  policy.intermittentSamples = args.getN("samples", policy.intermittentSamples);
  const DefectZooPipeline zoo(sim, topology, config, policy);
  const DefectZooReport rep = zoo.evaluate(scenarios, run.control());

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", nl.name())
        .field("scheme", schemeName(config.scheme))
        .field("defects", describeDefectMix(mix))
        .field("scenarios", rep.scenarios)
        .field("dr", rep.dr)
        .field("sumCandidates", rep.sumCandidates)
        .field("sumActual", rep.sumActual)
        .field("misdiagnosisRate", rep.misdiagnosisRate)
        .field("meanConfidence", rep.meanConfidence)
        .field("degraded", rep.degraded)
        .field("inconsistencies", rep.totalInconsistencies)
        .field("unionSplits", rep.totalUnionSplits)
        .field("atpgPatterns", rep.totalAtpgPatterns)
        .field("extraSessions", rep.totalExtraSessions)
        .endObject();
    std::printf("\n");
  } else {
    std::printf("%s %s defects %s: DR = %.4f over %zu scenarios "
                "(misdiagnosis %.4f, confidence %.3f, %zu degraded, "
                "%zu union splits, %zu ATPG patterns, %zu extra sessions)\n",
                nl.name().c_str(), schemeName(config.scheme).c_str(),
                describeDefectMix(mix).c_str(), rep.dr, rep.scenarios, rep.misdiagnosisRate,
                rep.meanConfidence, rep.degraded, rep.totalUnionSplits, rep.totalAtpgPatterns,
                rep.totalExtraSessions);
  }
  return supersetExit(rep.degraded, rep.scenarios, "scenario(s)",
                      " under the defect budget (candidates are sound; confidence is "
                      "calibrated)");
}

int cmdDr(const Args& args) {
  requirePruneWidth(configFrom(args), args.getN("chains", 1));
  Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  if (args.options.count("defects")) return drDefects(nl, args);
  if (const std::optional<NoiseConfig> noise = noiseFrom(args)) return drNoisy(nl, args, *noise);

  const std::size_t faults = faultsFrom(args, 500);
  const std::size_t seed = args.getN("seed", 0xFA17);
  DiagnoserOptions opts;
  opts.diagnosis = configFrom(args);
  opts.numChains = args.getN("chains", 1);
  const Diagnoser diag(std::move(nl), opts);
  std::uint64_t digest = fnv1a64(std::string("scandiag dr"));
  digest = setupDigestPiece("circuit", diag.netlist().name(), digest);
  digest = setupDigestPiece("cells", diag.netlist().dffs().size(), digest);
  digest = setupDigestPiece("chains", opts.numChains, digest);
  digest = setupDigestPiece("patterns", opts.diagnosis.numPatterns, digest);
  digest = setupDigestPiece("faults", faults, digest);
  digest = setupDigestPiece("seed", seed, digest);
  digest = setupDigestPiece("schema", obs::kMetricsSchemaVersion, digest);
  CliRunState run =
      cliRunFrom(args, digest, "scandiag dr " + diag.netlist().name());
  const DrReport rep =
      diag.evaluateResolution(faults, seed, run.control(), run.checkpoint.get());
  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", diag.netlist().name())
        .field("scheme", schemeName(opts.diagnosis.scheme))
        .field("partitions", opts.diagnosis.numPartitions)
        .field("groups", opts.diagnosis.groupsPerPartition)
        .field("pruning", opts.diagnosis.pruning)
        .field("faults", rep.faults)
        .field("sumCandidates", rep.sumCandidates)
        .field("sumActual", rep.sumActual)
        .field("dr", rep.dr)
        .endObject();
    std::printf("\n");
    return kExitOk;
  }
  std::printf("%s %s: DR = %.4f over %zu detected faults "
              "(candidates %llu, actual %llu)\n",
              diag.netlist().name().c_str(), schemeName(opts.diagnosis.scheme).c_str(), rep.dr,
              rep.faults, static_cast<unsigned long long>(rep.sumCandidates),
              static_cast<unsigned long long>(rep.sumActual));
  return kExitOk;
}

/// The class-sweep leg of soc-dr: structural dedup, optional --shard i/N,
/// optional --report. The journal's own digest mixes the shard spec (wrong
/// shard → refused resume); the unsharded base digest travels in the shard
/// meta record so merge-journals can match sibling journals.
int socClassSweepCmd(const Args& args, const std::string& spec, const Soc& soc,
                     const WorkloadConfig& workload, const DiagnosisConfig& config) {
  SocSweepOptions options;
  options.socSpec = spec;
  options.dedupClasses = !args.getFlag("no-dedup");
  if (args.options.count("shard")) {
    options.shard = parseShardSpec(args.get("shard", ""));
    if (args.get("checkpoint", "").empty())
      throw std::invalid_argument("--shard requires --checkpoint <file> (one journal per shard)");
  }
  if (options.shard.count != 1 && args.options.count("report"))
    throw std::invalid_argument(
        "--report needs the full sweep; run unsharded, or merge the shard journals with "
        "merge-journals");

  std::uint64_t base = fnv1a64(std::string("scandiag soc-class-sweep"));
  base = setupDigestPiece("soc", spec, base);
  base = setupDigestPiece("cores", soc.coreCount(), base);
  base = setupDigestPiece("cells", soc.totalCells(), base);
  base = setupDigestPiece("patterns", workload.numPatterns, base);
  base = setupDigestPiece("faults", workload.numFaults, base);
  base = setupDigestPiece("fault_seed", workload.faultSeed, base);
  base = setupDigestPiece("config", sweepIdFor(config), base);
  base = setupDigestPiece("dedup", options.dedupClasses ? 1 : 0, base);
  base = setupDigestPiece("schema", obs::kMetricsSchemaVersion, base);
  options.baseDigest = base;
  std::uint64_t digest = setupDigestPiece("shard_index", options.shard.index, base);
  digest = setupDigestPiece("shard_count", options.shard.count, digest);

  CliRunState run = cliRunFrom(args, digest,
                               "scandiag soc-dr " + spec + " --shard " +
                                   std::to_string(options.shard.index) + "/" +
                                   std::to_string(options.shard.count));
  MemoryRecordSink collector;
  const SocSweepResult result = runSocClassSweep(soc, workload, config, options, run.control(),
                                                 run.checkpoint.get(), &collector);

  std::printf("%s: %zu cores, %zu cells, %zu classes — %s%s, shard %u/%u%s\n",
              soc.name().c_str(), result.coreCount, result.totalCells, result.classCount,
              schemeName(config.scheme).c_str(), config.pruning ? " + pruning" : "",
              options.shard.index, options.shard.count,
              options.dedupClasses ? "" : ", no dedup");
  for (const SocClassRow& row : result.classes) {
    std::printf("  class %-9s x%-4zu DR = %8.3f (%zu of %zu faults)\n", row.className.c_str(),
                row.instanceCount, row.report.dr, row.report.faults, row.responseCount);
  }

  const std::string reportPath = args.get("report", "");
  if (!reportPath.empty()) {
    SocReportMeta meta;
    meta.soc = spec;
    meta.baseDigest = base;
    atomicWriteFile(reportPath, renderSocReport(meta, result.manifests, collector.records()));
    std::printf("report: %s\n", reportPath.c_str());
  }
  return kExitOk;
}

/// `scandiag soc-dr --defects k`: k simultaneous failing cores (the paper's
/// multiple-spot-defect view). Responses are unions of per-core responses on
/// the meta topology; diagnosis runs detection + recovery (the union
/// short-circuit included), and any unresolved scenario maps to exit 8.
/// Bridge/open/intermittent components are core-local models — rejected here;
/// use `scandiag dr --defects` on a single circuit for those.
int socDrDefects(const Args& args, const Soc& soc, const WorkloadConfig& workload,
                 const DiagnosisConfig& config) {
  const DefectMix mix = parseDefectSpec(args.get("defects", ""));
  if (args.options.count("shard") || args.options.count("report"))
    throw std::invalid_argument("soc-dr --defects does not support --shard/--report");
  const CliRunState run = unjournaledRunFrom(args, "soc-dr --defects");
  if (mix.bridges || mix.opens || mix.intermittentP > 0.0)
    throw std::invalid_argument(
        "soc-dr --defects models k simultaneous failing cores (stuck-at only); "
        "bridge/open/intermittent are core-local — use `scandiag dr --defects`");
  if (mix.k > soc.coreCount())
    throw std::invalid_argument("soc-dr --defects: k=" + std::to_string(mix.k) + " exceeds " +
                                std::to_string(soc.coreCount()) + " cores");
  if (config.scheme == SchemeKind::Adaptive)
    throw std::invalid_argument("--defects is incompatible with --scheme adaptive");

  std::vector<std::size_t> failingCores(mix.k);
  for (std::size_t i = 0; i < mix.k; ++i) failingCores[i] = i;
  const std::vector<FaultResponse> responses =
      socResponsesForFailingCores(soc, failingCores, workload);

  const ScanTopology& topology = soc.topology();
  const DiagnosisPipeline pipeline(topology, config);
  const DiagnosisRecovery recovery(topology, retryFrom(args, DefectPolicy{}.retry));
  const PreparedPartitionSet& prepared = pipeline.prepared();

  struct Slot {
    std::size_t candidates = 0;
    std::size_t actual = 0;
    bool misdiagnosed = false;
    bool resolved = true;
    double confidence = 1.0;
  };
  std::vector<Slot> slots(responses.size());
  globalPool().parallelFor(responses.size(), [&](std::size_t i) {
    run.control().throwIfStopped();
    obs::count(obs::Counter::DefectScenariosRun);
    const FaultResponse& response = responses[i];
    const GroupVerdicts verdicts = pipeline.engine().run(prepared, response);
    const PartitionRerun rerun = [&](std::size_t p, std::size_t) {
      return pipeline.engine().runPartition(prepared, p, response);
    };
    const RecoveredDiagnosis recovered =
        recovery.recover(prepared.partitions(), verdicts, rerun);
    slots[i].candidates = recovered.candidates.cellCount();
    slots[i].actual = response.failingCellCount();
    slots[i].misdiagnosed = !response.failingCells.isSubsetOf(recovered.candidates.cells);
    slots[i].resolved = recovered.resolved;
    slots[i].confidence = recovered.confidence;
  });

  DrAccumulator acc;
  std::size_t unresolved = 0;
  std::size_t misdiagnosed = 0;
  double confidenceSum = 0.0;
  for (const Slot& s : slots) {
    acc.add(s.candidates, s.actual);
    if (!s.resolved) ++unresolved;
    if (s.misdiagnosed) ++misdiagnosed;
    confidenceSum += s.confidence;
  }
  const double dr = acc.sumActual() > 0 ? acc.dr() : 0.0;
  const double meanConfidence =
      slots.empty() ? 1.0 : confidenceSum / static_cast<double>(slots.size());

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("soc", soc.name())
        .field("scheme", schemeName(config.scheme))
        .field("failingCores", mix.k)
        .field("scenarios", slots.size())
        .field("dr", dr)
        .field("sumCandidates", acc.sumCandidates())
        .field("sumActual", acc.sumActual())
        .field("misdiagnosed", misdiagnosed)
        .field("meanConfidence", meanConfidence)
        .field("unresolved", unresolved)
        .endObject();
    std::printf("\n");
  } else {
    std::printf("%s with %zu failing cores: DR = %.4f over %zu union scenarios "
                "(misdiagnosed %zu, confidence %.3f, %zu unresolved)\n",
                soc.name().c_str(), mix.k, dr, slots.size(), misdiagnosed, meanConfidence,
                unresolved);
  }
  return supersetExit(unresolved, slots.size(), "union scenario(s)");
}

int cmdSocDr(const Args& args) {
  const std::string which = args.positionalAt(1, "soc spec");
  WorkloadConfig workload = presets::socWorkload();
  workload.numFaults = faultsFrom(args, 500);
  workload.numPatterns = patternsFrom(args);
  const Soc soc = buildSocFromSpec(which);
  const bool preset = which == "soc1" || which == "d695";
  const DiagnosisConfig given = configFrom(args);
  DiagnosisConfig config = which == "soc1"   ? presets::soc1Config(given.scheme, given.pruning)
                           : which == "d695" ? presets::d695Config(given.scheme, given.pruning)
                                             : given;
  config.numPartitions = args.getN("partitions", config.numPartitions);
  config.groupsPerPartition = args.getN("groups", config.groupsPerPartition);
  requirePruneWidth(config, soc.topology().numChains());

  if (args.options.count("defects")) return socDrDefects(args, soc, workload, config);

  // rep: SOCs only make sense class-deduped; for the presets the legacy
  // per-failing-core protocol (paper Tables 3-4) stays the default.
  const bool classSweep = !preset || args.getFlag("class-sweep") || args.getFlag("no-dedup") ||
                          args.options.count("shard") || args.options.count("report");
  if (classSweep) return socClassSweepCmd(args, which, soc, workload, config);

  std::uint64_t digest = fnv1a64(std::string("scandiag soc-dr"));
  digest = setupDigestPiece("soc", which, digest);
  digest = setupDigestPiece("cores", soc.coreCount(), digest);
  digest = setupDigestPiece("cells", soc.totalCells(), digest);
  digest = setupDigestPiece("patterns", workload.numPatterns, digest);
  digest = setupDigestPiece("faults", workload.numFaults, digest);
  digest = setupDigestPiece("fault_seed", workload.faultSeed, digest);
  digest = setupDigestPiece("schema", obs::kMetricsSchemaVersion, digest);
  CliRunState run = cliRunFrom(args, digest, "scandiag soc-dr " + which);
  std::printf("%s: %zu cores, %zu cells, %zu meta chains — %s%s\n", soc.name().c_str(),
              soc.coreCount(), soc.totalCells(), soc.topology().numChains(),
              schemeName(config.scheme).c_str(), config.pruning ? " + pruning" : "");
  for (const SocDrRow& row :
       evaluateSocDr(soc, workload, config, run.control(), run.checkpoint.get())) {
    std::printf("  failing %-9s DR = %8.3f (%zu faults)\n", row.failingCore.c_str(),
                row.report.dr, row.report.faults);
  }
  return kExitOk;
}

int cmdMergeJournals(const Args& args) {
  if (args.positional.size() < 2)
    throw std::invalid_argument("merge-journals needs at least one journal path");
  const std::vector<std::string> paths(args.positional.begin() + 1, args.positional.end());
  const MergedJournals merged = mergeShardJournals(paths);
  SocReportMeta meta;
  meta.soc = merged.socSpec;
  meta.baseDigest = merged.baseDigest;
  const std::string report = renderSocReport(meta, merged.manifests, merged.records);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    atomicWriteFile(out, report);
    std::printf("merged %zu journals (%llu fault records, %u shards) -> %s\n", paths.size(),
                static_cast<unsigned long long>(merged.faultRecordsMerged), merged.shardCount,
                out.c_str());
  }
  return kExitOk;
}

int cmdPlan(const Args& args) {
  WorkloadConfig wc;
  wc.numPatterns = patternsFrom(args);
  wc.numFaults = faultsFrom(args, 200);
  const Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));
  const CircuitWorkload work = prepareWorkload(nl, wc, args.getN("chains", 1));

  PlanRequest request;
  request.targetDr = args.getReal("target", 0.5);
  request.maxPartitions = args.getN("partitions", 16);
  request.scheme = parseSchemeKind(args.get("scheme", "two-step"));
  request.numPatterns = wc.numPatterns;
  const PlanResult plan = planDiagnosis(work.topology, work.responses, request);

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("circuit", nl.name())
        .field("targetDr", request.targetDr)
        .field("feasible", plan.feasible);
    if (plan.feasible) {
      json.field("partitions", plan.config.numPartitions)
          .field("groups", plan.config.groupsPerPartition)
          .field("achievedDr", plan.achievedDr)
          .field("sessions", plan.cost.sessions)
          .field("clockCycles", plan.cost.clockCycles);
    }
    json.endObject();
    std::printf("\n");
    return kExitOk;
  }
  std::printf("rule-of-thumb group count for %zu positions: %zu\n",
              work.topology.maxChainLength(),
              recommendGroupCount(work.topology.maxChainLength()));
  if (!plan.feasible) {
    std::printf("no candidate configuration reaches DR <= %.3f within %zu partitions\n",
                request.targetDr, request.maxPartitions);
    return kExitFailure;
  }
  std::printf("cheapest plan for DR <= %.3f (%s): %zu partitions x %zu groups\n",
              request.targetDr, schemeName(request.scheme).c_str(),
              plan.config.numPartitions, plan.config.groupsPerPartition);
  std::printf("achieved DR %.3f at %zu sessions (%llu clock cycles)\n", plan.achievedDr,
              plan.cost.sessions, static_cast<unsigned long long>(plan.cost.clockCycles));
  return kExitOk;
}

int cmdOffline(const Args& args) {
  const std::string logPath = args.get("log", "");
  if (logPath.empty()) throw std::invalid_argument("offline needs --log <file>");
  const std::size_t cells = args.getN("cells", 0);
  if (cells == 0) throw std::invalid_argument("offline needs --cells <scan cell count>");
  const ScanTopology topology =
      ScanTopology::blockChains(cells, std::max<std::size_t>(args.getN("chains", 1), 1));
  // A --partitions/--groups the log's sessions header does not have is
  // refused on that line (exit 4); an absent one takes the log's.
  const TesterLog log = parseTesterLogFile(
      logPath, SessionShape{args.getN("partitions", 0), args.getN("groups", 0)});
  DiagnosisConfig config = configFrom(args);
  config.numPartitions = args.getN("partitions", log.numPartitions);
  config.groupsPerPartition = args.getN("groups", log.groupsPerPartition);

  // A recorded log cannot be re-run, so an inconsistent session set can only
  // be degraded — DiagnosisRecovery with a null re-run callback drops the
  // offending partitions and applies leave-one-out widening, so corrupted
  // logs are reported instead of silently intersected away.
  const std::vector<Partition> partitions = buildPartitions(config, topology.maxChainLength());
  const DiagnosisRecovery recovery(topology, RetryPolicy{});
  const RecoveredDiagnosis recovered = recovery.recover(partitions, log.verdicts, nullptr);

  CandidateSet candidates;
  if (recovered.consistent()) {
    candidates = diagnoseFromLog(topology, config, log);
  } else {
    for (const InconsistencyReport& report : recovered.inconsistencies)
      std::fprintf(stderr, "inconsistency: %s\n", report.describe().c_str());
    candidates = recovered.candidates;
  }

  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("log", logPath)
        .field("cells", cells)
        .field("consistent", recovered.consistent())
        .field("inconsistencies", recovered.inconsistencies.size())
        .field("confidence", recovered.confidence)
        .field("candidateCount", candidates.cellCount());
    json.key("candidateCells").beginArray();
    for (std::size_t c : candidates.cells.toIndices()) json.value(c);
    json.endArray().endObject();
    std::printf("\n");
  } else {
    std::printf("%zu candidate failing cell(s):", candidates.cellCount());
    for (std::size_t c : candidates.cells.toIndices()) std::printf(" %zu", c);
    std::printf("\n");
  }
  if (!recovered.consistent())
    throw InconsistentDiagnosisError(
        "session log " + logPath + " is inconsistent (" +
        std::to_string(recovered.inconsistencies.size()) +
        " inconsistency report(s)); a widened candidate superset was printed");
  return kExitOk;
}

int cmdPartitions(const Args& args) {
  const std::size_t length =
      parseUnsigned(args.positionalAt(1, "chain length"), "chain length");
  if (length == 0) throw std::invalid_argument("partitions needs a positive chain length");
  DiagnosisConfig config = configFrom(args);
  const auto partitions = buildPartitions(config, length);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    std::printf("partition %zu (%s):\n", p, schemeName(config.scheme).c_str());
    for (std::size_t g = 0; g < partitions[p].groupCount(); ++g) {
      std::printf("  group %2zu (%4zu cells):", g, partitions[p].groups[g].count());
      const auto idx = partitions[p].groups[g].toIndices();
      for (std::size_t i = 0; i < idx.size() && i < 16; ++i) std::printf(" %zu", idx[i]);
      if (idx.size() > 16) std::printf(" ...");
      std::printf("\n");
    }
  }
  return kExitOk;
}

int cmdServe(const Args& args) {
  const std::string socketPath = args.get("socket", "");
  if (socketPath.empty()) throw std::invalid_argument("serve needs --socket <path>");
  serve::ServiceConfig serviceConfig;
  serviceConfig.diagnosis = configFrom(args);
  serviceConfig.numChains = args.getN("chains", 1);
  // The daemon runs the fixed schedule one partition at a time and answers
  // from the intersection: it has no online planner (and takes no --prune).
  if (serviceConfig.diagnosis.scheme == SchemeKind::Adaptive)
    throw std::invalid_argument("serve is incompatible with --scheme adaptive");
  Netlist nl = loadCircuit(args.positionalAt(1, "circuit"));

  serve::ServeOptions options;
  options.socketPath = socketPath;
  options.queueCapacity = args.getN("queue", 16);
  options.handlers = args.getN("handlers", 2);
  options.requestDeadlineMs = args.getN("request-deadline-ms", 0, kMaxMilliseconds);
  options.ioTimeoutMs = args.getN("io-timeout-ms", 5000, kMaxMilliseconds);
  options.drainBudgetMs = args.getN("drain-ms", 5000, kMaxMilliseconds);
  options.journalPath = args.get("journal", "");
  options.metricsPath = args.get("metrics", "");
  options.metricsCircuit = args.positionalAt(1, "circuit");
  options.stopToken = &globalCancelToken();

  std::fprintf(stderr,
               "scandiag serve: warming %s (%zu cells, %zu partitions x %zu groups)...\n",
               nl.name().c_str(), nl.dffs().size(), serviceConfig.diagnosis.numPartitions,
               serviceConfig.diagnosis.groupsPerPartition);
  const serve::DiagnosisService service(std::move(nl), serviceConfig);
  serve::DiagnosisServer server(service, options);
  std::fprintf(stderr, "scandiag serve: listening on %s (queue %zu, %zu handlers)\n",
               socketPath.c_str(), options.queueCapacity, options.handlers);
  return server.run();
}

int cmdServeLedger(const Args& args) {
  const std::string path = args.get("journal", "");
  if (path.empty()) throw std::invalid_argument("serve-ledger needs --journal <file>");
  const serve::ServeLedger ledger = serve::replayLedger(path);
  if (args.getFlag("json")) {
    JsonWriter json(std::cout);
    json.beginObject()
        .field("journal", path)
        .field("accepted", ledger.accepted)
        .field("ok", ledger.ok)
        .field("shed", ledger.shed)
        .field("degraded", ledger.degraded)
        .field("aborted", ledger.aborted)
        .field("abortedInFlight", ledger.abortedInFlight)
        .field("truncatedTail", ledger.truncatedTail)
        .field("balanced", ledger.balanced())
        .endObject();
    std::printf("\n");
  } else {
    std::printf("ledger %s:%s\n", path.c_str(),
                ledger.truncatedTail ? " (torn tail truncated)" : "");
    std::printf("  accepted  %llu\n", static_cast<unsigned long long>(ledger.accepted));
    std::printf("  ok        %llu\n", static_cast<unsigned long long>(ledger.ok));
    std::printf("  shed      %llu\n", static_cast<unsigned long long>(ledger.shed));
    std::printf("  degraded  %llu\n", static_cast<unsigned long long>(ledger.degraded));
    std::printf("  aborted   %llu (%llu in flight at exit)\n",
                static_cast<unsigned long long>(ledger.aborted),
                static_cast<unsigned long long>(ledger.abortedInFlight));
    std::printf("  balance   %s\n", ledger.balanced() ? "exact" : "BROKEN");
  }
  // Replay books crash survivors as aborted, so an unbalanced ledger can only
  // mean the journal lied — surface it as a hard failure for the chaos CI job.
  return ledger.balanced() ? kExitOk : kExitFailure;
}

/// One row per command: what it runs and the options and flags it reads,
/// beyond the common --threads and --metrics. Args::parse refuses any other.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  Grammar grammar;
};

const std::vector<Command> kCommands{
    {"info", cmdInfo, {}},
    {"emit", cmdEmit, {{"o"}, {}}},
    {"diagnose", cmdDiagnose,
     {{"fault", "sa", "scheme", "partitions", "groups", "patterns", "chains", "noise",
       "intermittent", "xmask", "alias", "noise-seed", "retry-budget", "max-retries"},
      {"prune", "json"}}},
    {"dr", cmdDr,
     {{"faults", "seed", "scheme", "partitions", "groups", "patterns", "chains", "deadline-ms",
       "checkpoint", "noise", "intermittent", "xmask", "alias", "noise-seed", "retry-budget",
       "max-retries", "defects", "refine-budget", "atpg-budget", "samples"},
      {"prune", "json", "resume"}}},
    {"soc-dr", cmdSocDr,
     {{"faults", "scheme", "partitions", "groups", "patterns", "deadline-ms", "checkpoint",
       "shard", "report", "defects", "retry-budget", "max-retries"},
      {"prune", "json", "resume", "class-sweep", "no-dedup"}}},
    {"merge-journals", cmdMergeJournals, {{"out"}, {}}},
    {"plan", cmdPlan,
     {{"faults", "target", "scheme", "partitions", "patterns", "chains"}, {"json"}}},
    {"offline", cmdOffline,
     {{"log", "cells", "chains", "scheme", "partitions", "groups"}, {"prune", "json"}}},
    {"partitions", cmdPartitions, {{"scheme", "partitions", "groups"}, {}}},
    {"serve", cmdServe,
     {{"socket", "scheme", "partitions", "groups", "patterns", "chains", "queue", "handlers",
       "request-deadline-ms", "io-timeout-ms", "drain-ms", "journal"}, {}}},
    {"serve-ledger", cmdServeLedger, {{"journal"}, {"json"}}},
};

int usage() {
  std::string names;
  for (const Command& c : kCommands) names += (names.empty() ? "" : "|") + std::string(c.name);
  std::fprintf(stderr, "usage: scandiag <%s> ... (see header)\n", names.c_str());
  return kExitUsage;
}

void writeMetricsIfRequested(const Args& args) {
  const auto it = args.options.find("metrics");
  if (it == args.options.end()) return;
  obs::MetricsContext context;
  context.circuit = args.positional.size() > 1 ? args.positional[1] : "";
  context.scheme = args.get("scheme", "two-step");
  context.threads = globalPool().threadCount();
  obs::writeMetricsFile(it->second, context);
  std::fprintf(stderr, "wrote metrics to %s\n", it->second.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed;
  try {
    installCancellationSignalHandlers();
    if (argc < 2) return usage();
    const auto command = std::find_if(kCommands.begin(), kCommands.end(),
                                      [&](const Command& c) { return c.name == argv[1]; });
    if (command == kCommands.end()) {
      std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
      return usage();
    }
    Grammar grammar = command->grammar;
    grammar.options.insert(grammar.options.end(), {"threads", "metrics"});
    parsed = Args::parse(argc, argv, grammar, std::string(command->name));
    const Args& args = *parsed;
    if (args.options.count("threads")) setGlobalThreadCount(args.getN("threads", 0));
    const int rc = command->run(args);
    // A failed command did no meaningful work; don't let its metrics
    // snapshot clobber a previous valid one at the same path. Exit 8 is a
    // completed run with a sound superset, so its snapshot is written.
    if (rc == kExitOk || rc == kExitDefectSuperset) writeMetricsIfRequested(args);
    return rc;
  } catch (const OperationCancelled& e) {
    // The journal (if any) holds every completed fault; the counters reflect
    // the work actually done, so the snapshot is still worth flushing.
    std::fprintf(stderr, "interrupted: %s\n", e.what());
    if (parsed) {
      try {
        writeMetricsIfRequested(*parsed);
      } catch (const std::exception& flush) {
        std::fprintf(stderr, "error: metrics flush failed: %s\n", flush.what());
      }
    }
    return kExitInterrupted;
  } catch (const FileNotFoundError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFileNotFound;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParseError;
  } catch (const InconsistentDiagnosisError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUnresolved;
  } catch (const serve::ServerFatalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitServerFatal;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
