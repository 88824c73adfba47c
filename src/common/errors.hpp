// Typed error hierarchy for external-input failures.
//
// The parsers (.bench netlists, tester session logs) face data produced
// outside this process — truncated uploads, corrupted tester dumps,
// hand-edited files. Every malformed input must surface as a typed
// exception carrying the source location, never as UB or silent acceptance,
// so callers (and scandiag_cli's exit-code mapping) can distinguish
//   * ParseError         — the bytes are wrong (carries a 1-based line),
//   * FileNotFoundError  — the path is wrong,
// from plain std::invalid_argument (caller misuse / usage errors).
// ParseError derives from std::invalid_argument so existing catch sites keep
// working; FileNotFoundError derives from std::runtime_error because the
// input itself was never inspected.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace scandiag {

class ParseError : public std::invalid_argument {
 public:
  /// `format` names the input kind ("session log", ".bench");
  /// `line` is 1-based, 0 when the error is not tied to one line.
  ParseError(std::string format, int line, const std::string& message)
      : std::invalid_argument(compose(format, line, message)),
        format_(std::move(format)),
        line_(line) {}

  const std::string& format() const { return format_; }
  int line() const { return line_; }

 private:
  static std::string compose(const std::string& format, int line, const std::string& message) {
    std::string out = format + " parse error";
    if (line > 0) out += " at line " + std::to_string(line);
    out += ": " + message;
    return out;
  }

  std::string format_;
  int line_;
};

class FileNotFoundError : public std::runtime_error {
 public:
  explicit FileNotFoundError(const std::string& path)
      : std::runtime_error("cannot open file: " + path), path_(path) {}

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The number rule of every command-line option and spec field (shard i/N,
/// rep:<module>x<R>:w<W>, a defect mix), with parseReal. A count or seed: the
/// whole of `text` is one unsigned integer in strtoull base-0 syntax (decimal,
/// 0x hex, leading-0 octal) no larger than `max`. A sign, whitespace, trailing
/// characters or overflow throw std::invalid_argument naming `what`.
inline std::uint64_t parseUnsigned(const std::string& text, const std::string& what,
                                   std::uint64_t max = UINT64_MAX) {
  const bool digitFirst = !text.empty() && text[0] >= '0' && text[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = digitFirst ? std::strtoull(text.c_str(), &end, 0) : 0;
  if (!digitFirst || *end != '\0' || errno == ERANGE || value > max) {
    const std::string bound = max < UINT64_MAX ? " up to " + std::to_string(max) : "";
    throw std::invalid_argument(what + " needs an unsigned number" + bound + ", got '" + text +
                                "'");
  }
  return value;
}

/// A rate or target: the whole of `text` is one finite real in strtod syntax;
/// leading whitespace, trailing characters, nan and infinities are refused.
inline double parseReal(const std::string& text, const std::string& what) {
  const bool spaceFirst = text.empty() || std::isspace(static_cast<unsigned char>(text[0]));
  char* end = nullptr;
  const double value = spaceFirst ? 0.0 : std::strtod(text.c_str(), &end);
  if (spaceFirst || end == text.c_str() || *end != '\0' || !std::isfinite(value))
    throw std::invalid_argument(what + " needs a finite real number, got '" + text + "'");
  return value;
}

}  // namespace scandiag
