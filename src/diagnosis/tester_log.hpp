// Tester session logs: the bridge from silicon to this library.
//
// Everything else in scandiag can derive verdicts from simulation because it
// owns the DUT model. On real hardware the only diagnosis inputs are the
// tester's per-session results: for each (partition, group) session, pass or
// fail, and optionally the MISR error signature (observed XOR expected). This
// module defines a line-oriented log format for exactly that data and the
// offline entry point that turns a log into candidate failing cells:
//
//   # scandiag session log
//   sessions <partitions> <groups>
//   verdict <partition> <group> pass|fail [sig <hex>]
//
// Unlisted sessions default to pass (testers usually log failures only).
// diagnoseFromLog() replays the inclusion-exclusion (and, when every failing
// session carries a signature, the superposition pruner) against the SAME
// partition sequence the BIST controller used — which the deterministic
// generators reproduce from the configuration alone.
#pragma once

#include <istream>
#include <optional>
#include <string>

#include "diagnosis/candidate_analyzer.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/session_engine.hpp"

namespace scandiag {

struct TesterLog {
  std::size_t numPartitions = 0;
  std::size_t groupsPerPartition = 0;
  GroupVerdicts verdicts;  // hasSignatures iff every failing session had one
};

/// Session shape of a schedule: partitions x groups per partition. As an
/// expected shape, a zero count accepts whatever the log's header says.
struct SessionShape {
  std::size_t partitions = 0;
  std::size_t groups = 0;
};

/// `expected`, when given, is the only shape the caller accepts: a sessions
/// header naming another is a ParseError before any verdict table is sized,
/// so a server with a fixed schedule never allocates for a log it would
/// refuse. Without it the shape comes from the log.
TesterLog parseTesterLog(std::istream& in, std::optional<SessionShape> expected = std::nullopt);
TesterLog parseTesterLogString(const std::string& text,
                               std::optional<SessionShape> expected = std::nullopt);
TesterLog parseTesterLogFile(const std::string& path,
                             std::optional<SessionShape> expected = std::nullopt);

/// Serializes verdicts in the log format (failing sessions only, plus the
/// header). Inverse of parseTesterLog for diagnosis purposes.
std::string writeTesterLog(const GroupVerdicts& verdicts);

/// Offline diagnosis: rebuilds the partition sequence from `config` (which
/// must match what was burned into the BIST controller), applies the log's
/// verdicts, and returns candidate failing cells. Signature-carrying logs
/// get superposition pruning when config.pruning is set.
CandidateSet diagnoseFromLog(const ScanTopology& topology, const DiagnosisConfig& config,
                             const TesterLog& log);

}  // namespace scandiag
