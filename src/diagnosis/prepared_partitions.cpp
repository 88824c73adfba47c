#include "diagnosis/prepared_partitions.hpp"

#include <limits>

#include "common/assert.hpp"

namespace scandiag {

PreparedPartitionSet::PreparedPartitionSet(std::vector<Partition> partitions)
    : partitions_(std::move(partitions)) {
  length_ = partitions_.empty() ? 0 : partitions_.front().length();
  tables_.reserve(partitions_.size());
  groupOffsets_.assign(partitions_.size() + 1, 0);
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    SCANDIAG_REQUIRE(partitions_[p].length() == length_,
                     "every partition of a schedule must span the same selection axis");
    tables_.push_back(partitions_[p].groupTable());
    groupOffsets_[p + 1] = groupOffsets_[p] + partitions_[p].groupCount();
  }
  totalGroups_ = groupOffsets_.back();
  SCANDIAG_REQUIRE(totalGroups_ <= std::numeric_limits<std::uint32_t>::max(),
                   "a schedule's global group ids must fit in 32 bits");

  posGroups_.resize(length_ * partitions_.size());
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const std::vector<std::size_t>& table = tables_[p];
    const std::uint32_t offset = static_cast<std::uint32_t>(groupOffsets_[p]);
    for (std::size_t pos = 0; pos < length_; ++pos) {
      posGroups_[pos * partitions_.size() + p] = offset + static_cast<std::uint32_t>(table[pos]);
    }
  }
}

}  // namespace scandiag
