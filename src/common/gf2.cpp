#include "common/gf2.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace scandiag {

Gf2System::Gf2System(std::size_t numVars, std::size_t rhsBits)
    : numVars_(numVars),
      rhsBits_(rhsBits),
      coeffWords_((numVars + BitVector::kWordBits - 1) / BitVector::kWordBits),
      stride_(coeffWords_ + 1),
      pivotRowOfVar_(numVars, npos) {
  SCANDIAG_REQUIRE(rhsBits <= BitVector::kWordBits, "right-hand sides wider than one word");
}

void Gf2System::addEquation(const BitVector& coeffs, const BitVector& rhs) {
  SCANDIAG_REQUIRE(coeffs.size() == numVars_, "coefficient width mismatch");
  SCANDIAG_REQUIRE(rhs.size() == rhsBits_, "rhs width mismatch");
  const std::size_t row = addEquation(rhs.wordCount() ? rhs.word(0) : Word{0});
  std::copy(coeffs.data(), coeffs.data() + coeffWords_,
            words_.begin() + static_cast<std::ptrdiff_t>(row * stride_));
}

std::size_t Gf2System::addEquation(Word rhs) {
  SCANDIAG_REQUIRE(!reduced_, "cannot add equations after reduce()");
  SCANDIAG_REQUIRE(rhsBits_ == BitVector::kWordBits || (rhs >> rhsBits_) == 0,
                   "rhs wider than rhsBits()");
  words_.resize(words_.size() + stride_, Word{0});
  words_.back() = rhs;
  return numRows_++;
}

void Gf2System::setCoefficient(std::size_t row, std::size_t var) {
  SCANDIAG_REQUIRE(!reduced_, "cannot add equations after reduce()");
  SCANDIAG_REQUIRE(row < numRows_ && var < numVars_, "equation or variable out of range");
  words_[row * stride_ + var / BitVector::kWordBits] |= Word{1} << (var % BitVector::kWordBits);
}

bool Gf2System::reduce() {
  SCANDIAG_REQUIRE(!reduced_, "reduce() called twice");
  reduced_ = true;
  // Forward elimination with immediate back-substitution (Gauss-Jordan): after
  // the loop every pivot column has exactly one set bit across all rows.
  for (std::size_t r = 0; r < numRows_; ++r) {
    const Word* row = words_.data() + r * stride_;
    std::size_t pw = 0;
    while (pw < coeffWords_ && row[pw] == 0) ++pw;
    if (pw == coeffWords_) continue;  // may still be inconsistent; checked below
    const int low = std::countr_zero(row[pw]);
    const std::size_t pivot = pw * BitVector::kWordBits + static_cast<std::size_t>(low);
    // Eliminate this pivot from every other row. Words below pw are zero in
    // the pivot row, so the XOR starts at the pivot's word. Branch-free: a row
    // without the pivot XORs with zero, which beats a mispredicted skip on the
    // short rows pruning builds.
    for (std::size_t other = 0; other < numRows_; ++other) {
      Word* o = words_.data() + other * stride_;
      const Word mask = other == r ? Word{0} : Word{0} - ((o[pw] >> low) & 1);
      for (std::size_t w = pw; w < stride_; ++w) o[w] ^= row[w] & mask;
    }
    pivotRowOfVar_[pivot] = r;
    ++rank_;
  }
  for (std::size_t r = 0; r < numRows_; ++r) {
    const Word* row = words_.data() + r * stride_;
    const bool zeroCoeffs = std::all_of(row, row + coeffWords_, [](Word w) { return w == 0; });
    if (zeroCoeffs && row[coeffWords_] != 0) return false;
  }
  return true;
}

const Gf2System::Word* Gf2System::forcedRow(std::size_t var) const {
  SCANDIAG_REQUIRE(reduced_, "call reduce() first");
  SCANDIAG_REQUIRE(var < numVars_, "variable index out of range");
  const std::size_t r = pivotRowOfVar_[var];
  if (r == npos) return nullptr;  // free variable
  const Word* row = words_.data() + r * stride_;
  int weight = 0;
  for (std::size_t w = 0; w < coeffWords_; ++w) weight += std::popcount(row[w]);
  return weight == 1 ? row : nullptr;  // else entangled with free vars
}

std::optional<BitVector> Gf2System::forcedValue(std::size_t var) const {
  const Word* row = forcedRow(var);
  if (!row) return std::nullopt;
  BitVector value(rhsBits_);
  if (value.wordCount()) value.setWord(0, row[coeffWords_]);
  return value;
}

bool Gf2System::forcedZero(std::size_t var) const {
  const Word* row = forcedRow(var);
  return row && row[coeffWords_] == 0;
}

}  // namespace scandiag
