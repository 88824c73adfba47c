#include "bist/lfsr.hpp"

#include <algorithm>
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
  fill(&bits, n);
  return bits;
}

namespace {

/// Bit i of the result is bit width-1-i of `bits`.
std::uint64_t reverseBits(std::uint64_t bits, unsigned width) {
  std::uint64_t out = 0;
  for (unsigned i = 0; i < width; ++i) out |= ((bits >> i) & 1u) << (width - 1 - i);
  return out;
}

}  // namespace

void Lfsr::fill(std::uint64_t* words, std::size_t n) {
  // Chronological form: with s the bit sequence (s_k = XOR over taps t of
  // s_{k-t}) and K the index of the next bit to be generated, stage i holds
  // s_{K-1-i}, so the reversed register h holds s_{K-degree+q} at bit q —
  // oldest first, which is also the order the outputs leave. For j < m every
  // s_{K+j-t} is already in h, so the next m bits are the XOR over taps of
  // h's windows starting at bit degree - t, and the outputs of those m steps
  // are h's low m bits.
  const unsigned m = static_cast<unsigned>(std::countr_zero(tapMask_)) + 1;
  std::uint64_t h = reverseBits(state_, degree_);
  auto advance = [&](unsigned count) {  // count <= m; returns the count outputs
    const std::uint64_t low = (std::uint64_t{1} << count) - 1;  // count < 64
    std::uint64_t next = 0;
    for (std::uint64_t taps = tapMask_; taps != 0; taps &= taps - 1) {
      const unsigned t = static_cast<unsigned>(std::countr_zero(taps)) + 1;
      next ^= h >> (degree_ - t);
    }
    const std::uint64_t out = h & low;
    h = (h >> count) | ((next & low) << (degree_ - count));
    return out;
  };
  const std::size_t wordCount = (n + 63) / 64;
  for (std::size_t w = 0; w < wordCount; ++w) words[w] = 0;
  std::size_t done = 0;
  while (done < n) {
    const unsigned count = static_cast<unsigned>(std::min<std::size_t>(m, n - done));
    const std::uint64_t out = advance(count);
    const std::size_t w = done / 64, off = done % 64;
    words[w] |= out << off;
    if (off + count > 64) words[w + 1] |= out >> (64 - off);
    done += count;
  }
  state_ = reverseBits(h, degree_);
}

std::uint64_t Lfsr::lowBits(unsigned r) const {
  SCANDIAG_REQUIRE(r >= 1 && r <= degree_, "label width must be in [1, degree]");
  return state_ & ((std::uint64_t{1} << r) - 1);
}

}  // namespace scandiag
