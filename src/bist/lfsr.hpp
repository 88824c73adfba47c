// Fibonacci linear-feedback shift register, the randomness source of every
// on-chip structure in the paper's Figure 1: the PRPG, the per-cell group
// labels of random-selection partitioning, and the interval lengths of
// interval-based partitioning.
//
// Convention: the register is `degree` stages, stage 0 is the output end.
// One step shifts right (stage i+1 -> stage i); the feedback bit — the XOR of
// the stages in the tap mask — enters at stage degree-1; the bit that fell
// out of stage 0 is the output. With a primitive tap mask the state sequence
// has period 2^degree - 1 over the nonzero states.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bist/primitive_polys.hpp"

namespace scandiag {

struct LfsrConfig {
  unsigned degree = 16;
  std::uint64_t tapMask = 0;  // 0 => use primitiveTapMask(degree)

  std::uint64_t effectiveTapMask() const {
    return tapMask ? tapMask : primitiveTapMask(degree);
  }
};

class Lfsr {
 public:
  /// seed must be nonzero in the low `degree` bits (the all-zero state is the
  /// stuck state of any LFSR).
  Lfsr(const LfsrConfig& config, std::uint64_t seed);

  unsigned degree() const { return degree_; }
  std::uint64_t tapMask() const { return tapMask_; }
  std::uint64_t state() const { return state_; }
  void setState(std::uint64_t state);

  /// One shift; returns the output bit (old stage 0).
  bool step();

  /// n output bits, LSB-first packed (n <= 64).
  std::uint64_t stepBits(unsigned n);

  /// The next n output bits into words[0 .. ceil(n / 64)), LSB-first — the
  /// bits n calls of step() return, leaving the same state. Block form: with
  /// m the smallest tap exponent, the next m bits depend only on bits
  /// already in the register, so one step of the recurrence yields m of them
  /// (m = 17 for the degree-24 PRPG; m = 1 is the bit-by-bit loop). Bits of
  /// the last word beyond n are cleared.
  void fill(std::uint64_t* words, std::size_t n);

  /// The low r stage values as an r-bit label, without stepping. This models
  /// "the output of any r stages of the LFSR ... regarded as an r-bit binary
  /// label" (paper §2.1).
  std::uint64_t lowBits(unsigned r) const;

 private:
  unsigned degree_;
  std::uint64_t tapMask_;
  std::uint64_t stateMask_;
  std::uint64_t state_;
};

}  // namespace scandiag
