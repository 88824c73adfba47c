// GF(2) linear system with vector-valued right-hand sides.
//
// Used by the superposition pruner: each BIST group contributes one equation
//   XOR_{atoms a contained in group g} sig(a) = errorSignature(g)
// where sig(a) is the (unknown) aggregate MISR error signature of atom a.
// Because the MISR is linear over GF(2), signatures superpose, so the system
// is linear with m-bit vector unknowns — equivalently, m independent scalar
// GF(2) systems sharing one coefficient matrix. We row-reduce the coefficient
// matrix once and carry the m-bit RHS along.
//
// Rows live in one flat word array (coefficient words, then the RHS word), so
// building, eliminating and querying a system allocates nothing per row or
// per query.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"

namespace scandiag {

class Gf2System {
 public:
  using Word = BitVector::Word;

  /// numVars unknowns, each an rhsBits-wide GF(2) vector (rhsBits <= 64).
  Gf2System(std::size_t numVars, std::size_t rhsBits);

  std::size_t numVars() const { return numVars_; }
  std::size_t rhsBits() const { return rhsBits_; }

  /// coeffs.size() == numVars(), rhs.size() == rhsBits().
  void addEquation(const BitVector& coeffs, const BitVector& rhs);

  /// Word form: appends the equation 0 = rhs and returns its row index;
  /// setCoefficient() then adds unknowns to its left-hand side.
  std::size_t addEquation(Word rhs);
  void setCoefficient(std::size_t row, std::size_t var);

  /// Gauss-Jordan elimination. Returns false iff the system is inconsistent
  /// (a zero coefficient row with nonzero RHS), which in the diagnosis setting
  /// signals MISR aliasing or a masking-model violation.
  bool reduce();

  /// After reduce(): the unique value of variable v if the system forces one
  /// (v is a pivot whose row involves no other variable), nullopt otherwise.
  std::optional<BitVector> forcedValue(std::size_t var) const;

  /// After reduce(): true iff variable v is forced to the all-zero vector.
  /// Such an atom carries no error signal in any solution.
  bool forcedZero(std::size_t var) const;

  std::size_t rank() const { return rank_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The reduced row that forces `var`, or nullptr when var is free or
  /// entangled with a free variable.
  const Word* forcedRow(std::size_t var) const;

  std::size_t numVars_;
  std::size_t rhsBits_;
  std::size_t coeffWords_;
  std::size_t stride_;  // coeffWords_ + 1: the RHS word closes each row
  std::size_t numRows_ = 0;
  std::vector<Word> words_;                 // [row * stride_ + word]
  std::vector<std::size_t> pivotRowOfVar_;  // npos if var is not a pivot
  std::size_t rank_ = 0;
  bool reduced_ = false;
};

}  // namespace scandiag
