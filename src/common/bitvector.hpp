// Dynamic bit vector with 64-bit word access.
//
// This is the workhorse container of scandiag: pattern batches in the logic
// simulator, per-cell error streams in the fault simulator, group membership
// masks in partitions, and candidate sets in the diagnosis engine are all
// BitVectors. The diagnosis inner loops are word-wise (AND/OR/XOR/popcount),
// which is what makes sweeping hundreds of partition configurations over the
// same fault-response data cheap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace scandiag {

class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;
  explicit BitVector(std::size_t nbits, bool value = false);

  /// Builds from a string of '0'/'1' characters, index 0 first.
  static BitVector fromString(const std::string& bits);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t wordCount() const { return words_.size(); }

  void resize(std::size_t nbits, bool value = false);
  void clear();

  bool test(std::size_t i) const;
  void set(std::size_t i, bool value = true);
  void reset(std::size_t i) { set(i, false); }
  void flip(std::size_t i);

  void setAll();
  void resetAll();

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }
  bool all() const;

  /// Index of first set bit, or npos if none.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t findFirst() const;
  std::size_t findNext(std::size_t after) const;

  /// Calls f(i) for every set bit i, ascending, a word at a time — the sparse
  /// loop for hot paths (findNext() is an out-of-line call per bit).
  template <typename F>
  void forEachSet(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (Word bits = words_[w]; bits; bits &= bits - 1) {
        f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Word access for bit-parallel kernels. The tail word is kept masked so
  /// word-wise reductions (count/any) never see garbage bits.
  Word word(std::size_t w) const { return words_[w]; }
  void setWord(std::size_t w, Word value);
  const Word* data() const { return words_.data(); }
  Word* data() { return words_.data(); }

  BitVector& operator&=(const BitVector& rhs);
  BitVector& operator|=(const BitVector& rhs);
  BitVector& operator^=(const BitVector& rhs);
  /// this &= ~rhs
  BitVector& andNot(const BitVector& rhs);

  friend BitVector operator&(BitVector lhs, const BitVector& rhs) { return lhs &= rhs; }
  friend BitVector operator|(BitVector lhs, const BitVector& rhs) { return lhs |= rhs; }
  friend BitVector operator^(BitVector lhs, const BitVector& rhs) { return lhs ^= rhs; }

  bool operator==(const BitVector& rhs) const;
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// True iff this and rhs share at least one set bit.
  bool intersects(const BitVector& rhs) const;
  /// True iff every set bit of this is also set in rhs.
  bool isSubsetOf(const BitVector& rhs) const;

  /// Set bits listed as indices (ascending).
  std::vector<std::size_t> toIndices() const;
  std::string toString() const;

 private:
  void maskTail();

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

}  // namespace scandiag
