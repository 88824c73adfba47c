#include "diagnosis/partition.hpp"

#include "common/assert.hpp"

namespace scandiag {

std::size_t Partition::groupOf(std::size_t pos) const {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].test(pos)) return g;
  }
  SCANDIAG_ASSERT(false, "position not covered by any group");
}

std::vector<std::size_t> Partition::groupTable() const {
  std::vector<std::size_t> table(length(), static_cast<std::size_t>(-1));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t pos = groups[g].findFirst(); pos != BitVector::npos;
         pos = groups[g].findNext(pos)) {
      SCANDIAG_ASSERT(table[pos] == static_cast<std::size_t>(-1), "overlapping groups");
      table[pos] = g;
    }
  }
  for (std::size_t pos = 0; pos < table.size(); ++pos)
    SCANDIAG_ASSERT(table[pos] != static_cast<std::size_t>(-1), "uncovered position");
  return table;
}

BitVector Partition::failingUnion(const BitVector& failing) const {
  BitVector out(length());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (failing.test(g)) out |= groups[g];
  }
  return out;
}

void Partition::validate() const {
  SCANDIAG_ASSERT(!groups.empty(), "partition has no groups");
  for (const BitVector& g : groups)
    SCANDIAG_ASSERT(g.size() == length(), "group size mismatch");
  (void)groupTable();  // checks disjointness + coverage
}

std::vector<Partition> takePartitions(PartitionScheme& scheme, std::size_t count) {
  std::vector<Partition> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(scheme.next());
  return out;
}

}  // namespace scandiag
