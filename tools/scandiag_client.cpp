// scandiag_client — talks to a running `scandiag serve` daemon.
//
// Grammar: scandiag's (tools/cli_args.hpp). It takes only the options and
// flags below, and no positional argument; anything else exits 2 before it
// connects. Every N is a count (one whole unsigned number: decimal, 0x hex
// or leading-0 octal), --timeout-ms below 2^32; SPEC is scandiag's defect
// spec, parsed by the server.
//
// Modes (exactly one):
//   --fault <gate> [--sa 0|1]   diagnose an injected stuck-at fault by name
//   --log <file>                diagnose a recorded tester session log
//   --defects SPEC              diagnose a generated defect-zoo scenario;
//                               [--defect-index N] picks the scenario
//                               (N < 2^32), [--defect-seed N] overrides
//                               the spec seed
//   --ping                      liveness probe (one round trip, no retry)
//   --stats                     fetch the server's live request totals
//
// Common options:
//   --socket PATH      unix-domain socket the server listens on (required)
//   --retries N        total attempts incl. the first (default 5); connect
//                      failures, BUSY replies, and dropped connections retry
//                      with capped exponential backoff + jitter
//   --timeout-ms N     whole-frame I/O deadline per read/write (default 5000)
//   --jitter-seed N    backoff jitter seed (default 0xC11E57; fix for tests)
//   --json             machine-readable output
//
// Exit codes:
//   0  terminal reply received (Ok, or Deadline with a usable superset)
//   1  request failed (server Error reply, retry budget exhausted, protocol
//      garbage)
//   2  usage error (an option the client does not take, a positional
//      argument, a count that breaks the grammar)
//   3  --log file not found
//   5  reply unresolved (deadline degraded or widened superset) — the
//      candidates printed are a sound superset, same meaning as scandiag's
//      exit 5
//   8  --defects reply resolved only to a guaranteed superset under the
//      defect budget (deadline pressure or union beyond the fault budget) —
//      same meaning as scandiag's exit 8
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_args.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"

using namespace scandiag;
using namespace scandiag::cli;

namespace {

const Grammar kGrammar{{"socket", "retries", "timeout-ms", "jitter-seed", "fault", "sa", "log",
                        "defects", "defect-index", "defect-seed"},
                       {"ping", "stats", "json"}};

serve::ClientOptions clientOptionsFrom(const Args& args) {
  serve::ClientOptions options;
  options.socketPath = args.get("socket", "");
  if (options.socketPath.empty())
    throw std::invalid_argument("scandiag_client needs --socket <path>");
  options.maxAttempts = args.getN("retries", 5);
  options.ioTimeoutMs = args.getN("timeout-ms", 5000, kMaxMilliseconds);
  options.jitterSeed = args.getN("jitter-seed", 0xC11E57);
  return options;
}

int printReply(const serve::DiagnoseReply& reply, bool json, bool defectRequest) {
  if (json) {
    JsonWriter out(std::cout);
    out.beginObject()
        .field("status", serve::replyStatusName(reply.status))
        .field("requestId", reply.requestId)
        .field("detected", reply.detected)
        .field("resolved", reply.resolved)
        .field("confidence", reply.confidence)
        .field("partitionsUsed", static_cast<std::uint64_t>(reply.partitionsUsed))
        .field("partitionsTotal", static_cast<std::uint64_t>(reply.partitionsTotal))
        .field("message", reply.message);
    out.key("candidateCells").beginArray();
    for (std::uint32_t c : reply.candidateCells) out.value(static_cast<std::uint64_t>(c));
    out.endArray().endObject();
    std::printf("\n");
  } else if (reply.status == serve::ReplyStatus::Error) {
    std::fprintf(stderr, "error: request %llu failed: %s\n",
                 static_cast<unsigned long long>(reply.requestId), reply.message.c_str());
  } else if (!reply.detected) {
    std::printf("request %llu: fault not detected under the server's patterns\n",
                static_cast<unsigned long long>(reply.requestId));
  } else {
    std::printf("request %llu [%s]: %zu candidate(s), confidence %.3f, "
                "partitions %u/%u%s\n",
                static_cast<unsigned long long>(reply.requestId),
                serve::replyStatusName(reply.status), reply.candidateCells.size(),
                reply.confidence, reply.partitionsUsed, reply.partitionsTotal,
                reply.resolved ? "" : " (unresolved superset)");
    std::printf("candidates:");
    for (std::uint32_t c : reply.candidateCells) std::printf(" %u", c);
    std::printf("\n");
  }
  if (reply.status == serve::ReplyStatus::Error) return kExitFailure;
  if (reply.resolved) return kExitOk;
  // Same degradation, distinct ladder rung: a defect-scenario superset gets
  // its own exit code so harnesses can tell "defect budget hit" from a plain
  // unresolved single-fault reply.
  return defectRequest ? kExitDefectSuperset : kExitUnresolved;
}

int run(const Args& args) {
  const serve::ClientOptions options = clientOptionsFrom(args);

  if (args.getFlag("ping")) {
    serve::ping(options);
    std::printf("pong\n");
    return kExitOk;
  }

  if (args.getFlag("stats")) {
    const serve::StatsReply stats = serve::fetchStats(options);
    if (args.getFlag("json")) {
      JsonWriter out(std::cout);
      out.beginObject()
          .field("accepted", stats.accepted)
          .field("ok", stats.ok)
          .field("shed", stats.shed)
          .field("degraded", stats.degraded)
          .field("aborted", stats.aborted)
          .field("framesRejected", stats.framesRejected)
          .endObject();
      std::printf("\n");
    } else {
      std::printf("accepted %llu  ok %llu  shed %llu  degraded %llu  aborted %llu  "
                  "frames-rejected %llu\n",
                  static_cast<unsigned long long>(stats.accepted),
                  static_cast<unsigned long long>(stats.ok),
                  static_cast<unsigned long long>(stats.shed),
                  static_cast<unsigned long long>(stats.degraded),
                  static_cast<unsigned long long>(stats.aborted),
                  static_cast<unsigned long long>(stats.framesRejected));
    }
    return kExitOk;
  }

  serve::DiagnoseRequest request;
  const std::string gate = args.get("fault", "");
  const std::string logPath = args.get("log", "");
  const std::string defects = args.get("defects", "");
  const int modes = (gate.empty() ? 0 : 1) + (logPath.empty() ? 0 : 1) + (defects.empty() ? 0 : 1);
  if (modes != 1) {
    throw std::invalid_argument(
        "pick exactly one mode: --fault <gate>, --log <file>, --defects <spec>, --ping, or "
        "--stats");
  }
  if (!gate.empty()) {
    request.kind = serve::DiagnoseRequest::Kind::InjectFault;
    request.gateName = gate;
    request.stuckAt1 = args.getN("sa", 1, 1) != 0;
  } else if (!logPath.empty()) {
    std::ifstream in(logPath);
    if (!in) {
      std::fprintf(stderr, "error: cannot open log file '%s'\n", logPath.c_str());
      return kExitFileNotFound;
    }
    std::ostringstream text;
    text << in.rdbuf();
    request.kind = serve::DiagnoseRequest::Kind::TesterLog;
    request.logText = text.str();
  } else {
    request.kind = serve::DiagnoseRequest::Kind::DefectScenario;
    request.defectSpec = defects;
    request.defectSeed = args.getN("defect-seed", 0);
    request.defectIndex = static_cast<std::uint32_t>(args.getN("defect-index", 0, UINT32_MAX));
  }

  return printReply(serve::requestDiagnosis(options, request), args.getFlag("json"),
                    /*defectRequest=*/!defects.empty());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Args::parse(argc, argv, kGrammar, "scandiag_client");
    if (!args.positional.empty())
      throw std::invalid_argument("unexpected argument '" + args.positional[0] + "'");
    return run(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: scandiag_client --socket PATH "
                 "(--fault GATE [--sa 0|1] | --log FILE | "
                 "--defects SPEC [--defect-index N] [--defect-seed N] | --ping | --stats) "
                 "[--retries N] [--timeout-ms N] [--json]\n");
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
