#include "bist/misr.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace scandiag {

Misr::Misr(unsigned degree, std::uint64_t tapMask, unsigned inputWidth)
    : degree_(degree),
      inputWidth_(inputWidth),
      tapMask_(tapMask),
      stateMask_(degree >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << degree) - 1) {
  SCANDIAG_REQUIRE(degree_ >= 2 && degree_ <= 63, "MISR degree must be in [2, 63]");
  SCANDIAG_REQUIRE(inputWidth_ >= 1 && inputWidth_ <= degree_,
                   "MISR input width must be in [1, degree]");
  SCANDIAG_REQUIRE((tapMask_ & ~stateMask_) == 0, "tap mask exceeds degree");
  SCANDIAG_REQUIRE(tapMask_ >> (degree_ - 1), "tap mask must include the top stage");
}

void Misr::reset(std::uint64_t state) { state_ = state & stateMask_; }

std::uint64_t Misr::transition(std::uint64_t state) const {
  // Same left-shift Fibonacci form as Lfsr::step — linear over GF(2).
  const std::uint64_t feedback =
      static_cast<std::uint64_t>(std::popcount(state & tapMask_) & 1);
  return ((state << 1) | feedback) & stateMask_;
}

void Misr::clock(std::uint64_t inputs) {
  const std::uint64_t inMask = (std::uint64_t{1} << inputWidth_) - 1;
  state_ = transition(state_) ^ (inputs & inMask);
}

namespace {

/// M · v for a GF(2) matrix M given by its `degree` columns: the XOR of the
/// columns v selects, without a data-dependent branch.
std::uint64_t multiplyColumns(const std::uint64_t* columns, unsigned degree, std::uint64_t v) {
  std::uint64_t out = 0;
  for (unsigned j = 0; j < degree; ++j) out ^= columns[j] & (std::uint64_t{0} - ((v >> j) & 1));
  return out;
}

}  // namespace

MisrLinearModel::MisrLinearModel(unsigned degree, std::uint64_t tapMask,
                                 std::size_t chainLength, std::size_t patterns,
                                 const std::vector<std::uint64_t>& chainInputs)
    : degree_(degree),
      chainLength_(chainLength),
      patterns_(patterns),
      chains_(chainInputs.size()) {
  SCANDIAG_REQUIRE(chainLength >= 1 && patterns >= 1, "session must have at least one cycle");
  const Misr reference(degree, tapMask, 1);
  // Columns of A^r: A^0 = I, then one transition per column per power.
  powerColumns_.resize(chainLength * degree);
  for (unsigned j = 0; j < degree; ++j) powerColumns_[j] = std::uint64_t{1} << j;
  for (std::size_t r = 1; r < chainLength; ++r) {
    for (unsigned j = 0; j < degree; ++j) {
      powerColumns_[r * degree + j] = reference.transition(powerColumns_[(r - 1) * degree + j]);
    }
  }
  // A^L = A · A^(L-1) moves a weight one whole unload earlier.
  std::vector<std::uint64_t> unload(degree);
  for (unsigned j = 0; j < degree; ++j) {
    unload[j] = reference.transition(powerColumns_[(chainLength - 1) * degree + j]);
  }
  patternWeights_.resize(chains_ * patterns);
  for (std::size_t c = 0; c < chains_; ++c) {
    std::uint64_t v = chainInputs[c];
    SCANDIAG_REQUIRE(v != 0 && (v >> degree) == 0,
                     "MISR input word must be nonzero and lie within the register");
    for (std::size_t t = patterns; t-- > 0;) {
      patternWeights_[c * patterns + t] = v;
      v = multiplyColumns(unload.data(), degree, v);
    }
  }
}

std::uint64_t MisrLinearModel::cellSignature(std::size_t chain, std::size_t position,
                                             const BitVector& errorStream) const {
  SCANDIAG_REQUIRE(chain < chains_ && position < chainLength_ && errorStream.size() <= patterns_,
                   "cell or error stream outside the MISR session");
  const std::uint64_t* w = patternWeights_.data() + chain * patterns_;
  std::uint64_t v = 0;
  errorStream.forEachSet([&](std::size_t t) { v ^= w[t]; });
  return multiplyColumns(powerColumns_.data() + (chainLength_ - 1 - position) * degree_, degree_,
                         v);
}

double misrAliasingProbability(unsigned degree) {
  SCANDIAG_REQUIRE(degree >= 1, "MISR degree must be at least 1");
  if (degree >= 64) return std::ldexp(1.0, -static_cast<int>(degree));
  return 1.0 / (std::ldexp(1.0, static_cast<int>(degree)) - 1.0);
}

}  // namespace scandiag
