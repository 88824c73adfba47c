// The command-line grammar of scandiag and scandiag_client: one option parser
// and one set of exit codes. An argument is `--name value` for a name in the
// command's options, `--name` for one of its flags, or a positional; any other
// `--name` is a usage error before any work, so a misspelt option never
// silently runs the default. So is an empty value (`--report ''`): no option
// reads "" as a value, and callers would take it for an absent option. Values
// follow the number rule of common/errors.hpp: a count is parseUnsigned, a
// real parseReal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/errors.hpp"

namespace scandiag::cli {

enum ExitCode {
  kExitOk = 0,
  kExitFailure = 1,
  kExitUsage = 2,
  kExitFileNotFound = 3,
  kExitParseError = 4,
  kExitUnresolved = 5,
  kExitInterrupted = 6,
  kExitServerFatal = 7,
  kExitDefectSuperset = 8,
};

/// Longest millisecond budget an option takes (2^32 - 1 ms, about 49 days):
/// a longer one would overflow the steady clock's deadline arithmetic.
constexpr std::uint64_t kMaxMilliseconds = UINT32_MAX;

/// The names one command accepts: options take a value, flags take none.
struct Grammar {
  std::vector<std::string_view> options;
  std::vector<std::string_view> flags;
};

inline bool isOneOf(std::string_view key, const std::vector<std::string_view>& names) {
  return std::find(names.begin(), names.end(), key) != names.end();
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::set<std::string> flags;

  /// Parses argv[1..argc) against `grammar`; `command` names the caller in
  /// the refusal of a name the grammar does not list.
  static Args parse(int argc, char** argv, const Grammar& grammar, const std::string& command) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        args.positional.push_back(a);
        continue;
      }
      const std::string key = a.substr(2);
      if (isOneOf(key, grammar.flags)) {
        args.flags.insert(key);
      } else if (!isOneOf(key, grammar.options)) {
        throw std::invalid_argument(command + " does not take --" + key);
      } else if (i + 1 < argc && *argv[i + 1] != '\0') {
        args.options[key] = argv[++i];
      } else {
        throw std::invalid_argument("option --" + key + " needs a value");
      }
    }
    return args;
  }

  bool getFlag(const std::string& key) const { return flags.count(key) != 0; }

  const std::string& positionalAt(std::size_t i, const std::string& what) const {
    if (i >= positional.size()) throw std::invalid_argument("missing " + what + " argument");
    return positional[i];
  }
  std::string get(const std::string& key, const std::string& def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  std::uint64_t getN(const std::string& key, std::uint64_t def,
                     std::uint64_t max = UINT64_MAX) const {
    const auto it = options.find(key);
    return it == options.end() ? def : parseUnsigned(it->second, "option --" + key, max);
  }
  double getReal(const std::string& key, double def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : parseReal(it->second, "option --" + key);
  }
};

}  // namespace scandiag::cli
