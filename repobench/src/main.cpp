// repobench: the repository benchmark driver (see repobench/README.md).
//
//   repobench --workload soc_sweep|serve_s9234|resilience_s35932 --seed N
//             --seconds S --trace 0|1 --expected-dir DIR --run-dir DIR
//             --trace-dir DIR --scandiag PATH [--threads N] [--smoke]
//             [--record] [--perturb-expected]
//
// Prints human-readable result lines, then one JSON line with the metrics,
// the operation counts and the correctness verdict.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "harness.hpp"

namespace {

repobench::Options parseOptions(int argc, char** argv) {
  repobench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--seed") o.seed = std::stoull(next());
    else if (arg == "--seconds") o.seconds = std::stod(next());
    else if (arg == "--trace") o.trace = next() != "0";
    else if (arg == "--threads") o.threads = std::stoul(next());
    else if (arg == "--expected-dir") o.expectedDir = next();
    else if (arg == "--run-dir") o.runDir = next();
    else if (arg == "--trace-dir") o.traceDir = next();
    else if (arg == "--scandiag") o.scandiagBin = next();
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--record") o.record = true;
    else if (arg == "--perturb-expected") o.perturb = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  if (o.expectedDir.empty() || o.runDir.empty() || o.traceDir.empty()) {
    throw std::invalid_argument("--expected-dir, --run-dir and --trace-dir are required");
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (o.threads == 0 || o.threads > hw) o.threads = hw;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const repobench::Options options = parseOptions(argc, argv);
    std::filesystem::create_directories(options.runDir);
    std::filesystem::create_directories(options.traceDir);
    scandiag::setGlobalThreadCount(options.threads);
    repobench::Report report(options);
    int rc = 0;
    if (options.workload == "soc_sweep") {
      rc = repobench::runSocSweep(options, report);
    } else if (options.workload == "serve_s9234") {
      rc = repobench::runServe(options, report);
    } else if (options.workload == "resilience_s35932") {
      rc = repobench::runResilience(options, report);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    if (rc != 0 || options.record) return rc;
    if (report.attemptedCount() == 0) throw std::logic_error("the run attempted nothing");
    std::printf("%s: seed %llu, %zu pool threads, failed_share %.6f (%zu of %zu operations)\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.threads,
                static_cast<double>(report.failedCount()) / static_cast<double>(report.attemptedCount()),
                report.failedCount(), report.attemptedCount());
    const bool correct = report.failedCount() == 0 && report.valid();
    std::printf("%s\n", report.json(correct).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: error: %s\n", e.what());
    return 1;
  }
}
