#include "bist/lfsr.hpp"

#include <bit>

#include "common/assert.hpp"

namespace scandiag {

Lfsr::Lfsr(const LfsrConfig& config, std::uint64_t seed)
    : degree_(config.degree),
      tapMask_(config.effectiveTapMask()),
      stateMask_(degree_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << degree_) - 1) {
  SCANDIAG_REQUIRE(degree_ >= 2 && degree_ <= 63, "LFSR degree must be in [2, 63]");
  SCANDIAG_REQUIRE((tapMask_ & ~stateMask_) == 0, "tap mask exceeds degree");
  SCANDIAG_REQUIRE(tapMask_ >> (degree_ - 1), "tap mask must include the top stage");
  setState(seed);
}

void Lfsr::setState(std::uint64_t state) {
  state &= stateMask_;
  SCANDIAG_REQUIRE(state != 0, "LFSR state must be nonzero");
  state_ = state;
}

bool Lfsr::step() {
  // Left-shift Fibonacci form: with stage i holding s_{k-1-i}, the new bit is
  // s_k = XOR over taps t of s_{k-t} = parity(state & tapMask) (tap exponent t
  // maps to stage t-1). The bit falling out of the top stage is the output.
  const bool out = (state_ >> (degree_ - 1)) & 1u;
  const std::uint64_t feedback =
      static_cast<std::uint64_t>(std::popcount(state_ & tapMask_) & 1);
  state_ = ((state_ << 1) | feedback) & stateMask_;
  return out;
}

std::uint64_t Lfsr::stepBits(unsigned n) {
  SCANDIAG_REQUIRE(n <= 64, "at most 64 bits per call");
  std::uint64_t bits = 0;
  for (unsigned i = 0; i < n; ++i) bits |= static_cast<std::uint64_t>(step()) << i;
  return bits;
}

std::uint64_t Lfsr::lowBits(unsigned r) const {
  SCANDIAG_REQUIRE(r >= 1 && r <= degree_, "label width must be in [1, degree]");
  return state_ & ((std::uint64_t{1} << r) - 1);
}

}  // namespace scandiag
