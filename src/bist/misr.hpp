// Multiple-input signature register (MISR) and its GF(2)-linear model.
//
// The MISR compacts the scan-out stream(s) into a short signature. Its next-
// state function is linear over GF(2):
//     s' = A·s ⊕ x          A = shift ⊕ feedback, x = input word
// so after K clocks from the zero state the signature is
//     sig = Σ_k A^(K-1-k) · x_k                                    (XOR sum)
// Two consequences the diagnosis engine exploits (the superposition principle
// of Bayraktaroglu & Orailoglu):
//   * sig(good ⊕ error) ⊕ sig(good) = sig(error): a session's *error
//     signature* depends only on the error bits, not on the good data;
//   * the error signature of a set of failing cells is the XOR of the cells'
//     individual error signatures.
// MisrLinearModel factors the impulse weights A^(K-1-k)·x so a cell's error
// signature costs one XOR per error bit plus one degree-column multiply, from
// tables of O(chain length · degree + chains · patterns) words.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"

namespace scandiag {

class Misr {
 public:
  /// degree = register length (signature width); tapMask as in Lfsr;
  /// inputWidth = number of parallel scan-out lines (<= degree).
  Misr(unsigned degree, std::uint64_t tapMask, unsigned inputWidth);

  unsigned degree() const { return degree_; }
  unsigned inputWidth() const { return inputWidth_; }

  void reset(std::uint64_t state = 0);
  /// One clock with `inputs` (low inputWidth bits XOR into stages 0..w-1).
  void clock(std::uint64_t inputs);
  std::uint64_t signature() const { return state_; }

  /// The linear map A applied to an arbitrary state vector.
  std::uint64_t transition(std::uint64_t state) const;

 private:
  unsigned degree_;
  unsigned inputWidth_;
  std::uint64_t tapMask_;
  std::uint64_t stateMask_;
  std::uint64_t state_ = 0;
};

/// Factored impulse response of a Misr over one session: `patterns` scan
/// unloads of L = `chainLength` clocks each (K = patterns · L clocks). An
/// error bit of the cell at position p of chain c in pattern t enters at
/// clock k = t·L + p, so its final-signature weight factors as
///     A^(K-1-k) · x_c = A^(L-1-p) · W[c][t],    W[c][t] = (A^L)^(T-1-t) · x_c
/// where x_c is the input word chain c drives (its own line, or every line a
/// space compactor folds it into). The model stores W (chains × patterns
/// words) and the columns of A^r for r in [0, L) (L × degree words), built
/// with L × degree register transitions.
class MisrLinearModel {
 public:
  /// chainInputs[c] = MISR input word of chain c (nonzero, within degree).
  MisrLinearModel(unsigned degree, std::uint64_t tapMask, std::size_t chainLength,
                  std::size_t patterns, const std::vector<std::uint64_t>& chainInputs);

  unsigned degree() const { return degree_; }

  /// Error signature of the cell at (chain, position): the XOR of its
  /// weights over the set bits of `errorStream` (indexed by pattern),
  /// computed as one XOR of W per error bit and one multiply by A^(L-1-p).
  /// A one-bit stream gives the weight of that single error bit.
  std::uint64_t cellSignature(std::size_t chain, std::size_t position,
                              const BitVector& errorStream) const;

 private:
  unsigned degree_;
  std::size_t chainLength_;
  std::size_t patterns_;
  std::size_t chains_;
  std::vector<std::uint64_t> patternWeights_;  // W[c][t] at [c * patterns + t]
  std::vector<std::uint64_t> powerColumns_;    // A^r · e_j at [r * degree + j]
};

/// Theoretical aliasing probability of a degree-bit MISR: the chance that a
/// random nonzero error stream compacts to signature 0 is 1/(2^degree - 1)
/// (2^-degree for degree >= 64). The noise injector's forced-aliasing rate
/// and bench_noise report against this reference.
double misrAliasingProbability(unsigned degree);

}  // namespace scandiag
