#include "diagnosis/tester_log.hpp"

#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/errors.hpp"

namespace scandiag {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ParseError("session log", line, msg);
}

// Tester logs come from outside this process; a corrupted header must not be
// able to request a multi-terabyte verdict table. Real schedules are a few
// dozen partitions x a few hundred groups.
constexpr std::size_t kMaxPartitions = 1 << 16;
constexpr std::size_t kMaxGroups = 1 << 16;
constexpr std::size_t kMaxSessions = 1 << 24;

}  // namespace

TesterLog parseTesterLog(std::istream& in, std::optional<SessionShape> expected) {
  TesterLog log;
  bool sawHeader = false;
  std::size_t failingSessions = 0, failingWithSig = 0;
  std::string raw;
  int lineNo = 0;
  while (std::getline(in, raw)) {
    ++lineNo;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream is(raw);
    std::string keyword;
    if (!(is >> keyword)) continue;

    if (keyword == "sessions") {
      if (sawHeader) fail(lineNo, "duplicate sessions header");
      if (!(is >> log.numPartitions >> log.groupsPerPartition) || log.numPartitions == 0 ||
          log.groupsPerPartition == 0)
        fail(lineNo, "sessions needs positive <partitions> <groups>");
      if (log.numPartitions > kMaxPartitions || log.groupsPerPartition > kMaxGroups ||
          log.numPartitions * log.groupsPerPartition > kMaxSessions)
        fail(lineNo, "sessions header requests an implausibly large schedule");
      std::string trailing;
      if (is >> trailing) fail(lineNo, "unexpected trailing token '" + trailing + "'");
      const std::size_t partitions =
          expected && expected->partitions ? expected->partitions : log.numPartitions;
      const std::size_t groups =
          expected && expected->groups ? expected->groups : log.groupsPerPartition;
      if (log.numPartitions != partitions || log.groupsPerPartition != groups) {
        fail(lineNo, "schedule " + std::to_string(log.numPartitions) + "x" +
                         std::to_string(log.groupsPerPartition) + " does not match the expected " +
                         std::to_string(partitions) + "x" + std::to_string(groups));
      }
      sawHeader = true;
      log.verdicts.failing.assign(log.numPartitions, BitVector(log.groupsPerPartition));
      log.verdicts.errorSig.assign(log.numPartitions,
                                   std::vector<std::uint64_t>(log.groupsPerPartition, 0));
    } else if (keyword == "verdict") {
      if (!sawHeader) fail(lineNo, "verdict before sessions header");
      std::size_t p = 0, g = 0;
      std::string result;
      if (!(is >> p >> g >> result)) fail(lineNo, "verdict needs <partition> <group> pass|fail");
      if (p >= log.numPartitions || g >= log.groupsPerPartition)
        fail(lineNo, "verdict indices out of range");
      if (result == "fail") {
        log.verdicts.failing[p].set(g);
        ++failingSessions;
      } else if (result != "pass") {
        fail(lineNo, "verdict result must be pass or fail, got '" + result + "'");
      }
      std::string sigKeyword;
      if (is >> sigKeyword) {
        if (sigKeyword != "sig") fail(lineNo, "expected 'sig <hex>', got '" + sigKeyword + "'");
        std::string hex;
        if (!(is >> hex)) fail(lineNo, "sig needs a hex value");
        std::size_t consumed = 0;
        try {
          log.verdicts.errorSig[p][g] = std::stoull(hex, &consumed, 16);
        } catch (const std::exception&) {
          fail(lineNo, "bad hex signature '" + hex + "'");
        }
        if (consumed != hex.size()) fail(lineNo, "bad hex signature '" + hex + "'");
        if (result == "fail") ++failingWithSig;
        std::string trailing;
        if (is >> trailing) fail(lineNo, "unexpected trailing token '" + trailing + "'");
      }
    } else {
      fail(lineNo, "unknown keyword '" + keyword + "'");
    }
  }
  if (!sawHeader) fail(lineNo, "missing sessions header");
  // Signatures are usable for pruning only when every failing session has one
  // (a failing session with an unknown signature would make the GF(2) system
  // fictitious).
  log.verdicts.hasSignatures = failingSessions > 0 && failingWithSig == failingSessions;
  log.verdicts.signatureDegree = log.verdicts.hasSignatures ? 64 : 0;
  return log;
}

TesterLog parseTesterLogString(const std::string& text, std::optional<SessionShape> expected) {
  std::istringstream in(text);
  return parseTesterLog(in, expected);
}

TesterLog parseTesterLogFile(const std::string& path, std::optional<SessionShape> expected) {
  std::ifstream in(path);
  if (!in.good()) throw FileNotFoundError(path);
  return parseTesterLog(in, expected);
}

std::string writeTesterLog(const GroupVerdicts& verdicts) {
  SCANDIAG_REQUIRE(!verdicts.failing.empty(), "no sessions to write");
  std::ostringstream os;
  os << "# scandiag session log\n";
  os << "sessions " << verdicts.failing.size() << ' ' << verdicts.failing[0].size() << "\n";
  for (std::size_t p = 0; p < verdicts.failing.size(); ++p) {
    for (std::size_t g = 0; g < verdicts.failing[p].size(); ++g) {
      if (!verdicts.failing[p].test(g)) continue;
      os << "verdict " << p << ' ' << g << " fail";
      if (verdicts.hasSignatures) {
        os << " sig " << std::hex << verdicts.errorSig[p][g] << std::dec;
      }
      os << "\n";
    }
  }
  return os.str();
}

CandidateSet diagnoseFromLog(const ScanTopology& topology, const DiagnosisConfig& config,
                             const TesterLog& log) {
  SCANDIAG_REQUIRE(log.numPartitions == config.numPartitions &&
                       log.groupsPerPartition == config.groupsPerPartition,
                   "log session shape does not match the diagnosis configuration");
  const std::vector<Partition> partitions =
      buildPartitions(config, topology.maxChainLength());
  const CandidateAnalyzer analyzer(topology);
  CandidateSet candidates = analyzer.analyze(partitions, log.verdicts);
  if (config.pruning && log.verdicts.hasSignatures) {
    const SuperpositionPruner pruner(topology);
    candidates = pruner.prune(partitions, log.verdicts, candidates);
  }
  return candidates;
}

}  // namespace scandiag
