#include "netlist/cone_analysis.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace scandiag {

ConeWalker::ConeWalker(const Netlist& netlist, const Levelization& lev, std::uint32_t epoch)
    : image_(netlist.image().get()), lev_(&lev), epoch_(epoch), stamp_(netlist.gateCount(), 0) {}

FaultCone ConeWalker::walk(GateId site) {
  SCANDIAG_REQUIRE(site < stamp_.size(), "cone site out of range");
  if (++epoch_ == 0) {  // wrapped: clear stamps so no stale one aliases an epoch
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  const NetlistImage& image = *image_;
  FaultCone cone;
  cone.reachableDffs = BitVector(image.numDffs);
  auto visit = [&](GateId g) {
    stamp_[g] = epoch_;
    if (image.outputPos[g] != kNone) cone.reachableOutputs.push_back(g);
  };
  visit(site);
  stack_.assign(1, site);
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    if (!isSourceType(image.type[g])) cone.gates.push_back(g);
    for (const GateId user : image.fanouts(g)) {
      // An error reaching a DFF is captured; no same-cycle propagation
      // through it. Marked even when user == site: a scan cell whose Q-cone
      // feeds back to its own D captures its own fault effect.
      const std::uint32_t k = image.dffOrdinal(user);
      if (k != kNone) cone.reachableDffs.set(k);
      if (stamp_[user] == epoch_) continue;
      visit(user);
      if (k == kNone) stack_.push_back(user);
    }
  }
  // The site gate itself is in cone.gates only if combinational; a faulty
  // source (PI / scan cell output stuck) needs no re-evaluation of itself.
  // Evaluation order is (level, id): one sort of packed keys.
  const auto& level = lev_->level;
  keys_.clear();
  for (const GateId g : cone.gates) keys_.push_back((std::uint64_t{level[g]} << 32) | g);
  std::sort(keys_.begin(), keys_.end());
  for (std::size_t i = 0; i < keys_.size(); ++i) cone.gates[i] = static_cast<GateId>(keys_[i]);
  std::sort(cone.reachableOutputs.begin(), cone.reachableOutputs.end(),
            [&](GateId a, GateId b) { return image.outputPos[a] < image.outputPos[b]; });
  return cone;
}

FaultCone computeCone(const Netlist& netlist, const Levelization& lev, GateId site) {
  return ConeWalker(netlist, lev).walk(site);
}

ConeSpan coneSpan(const FaultCone& cone, const std::vector<std::size_t>& cellOrder,
                  std::size_t chainLength) {
  SCANDIAG_REQUIRE(cellOrder.size() == cone.reachableDffs.size(),
                   "cell order size must match DFF count");
  ConeSpan span;
  bool first = true;
  for (std::size_t k = cone.reachableDffs.findFirst(); k != BitVector::npos;
       k = cone.reachableDffs.findNext(k)) {
    const std::size_t pos = cellOrder[k];
    if (first) {
      span.firstPos = span.lastPos = pos;
      first = false;
    } else {
      span.firstPos = std::min(span.firstPos, pos);
      span.lastPos = std::max(span.lastPos, pos);
    }
    ++span.cells;
  }
  if (span.cells > 0 && chainLength > 0) {
    span.spanFraction =
        static_cast<double>(span.lastPos - span.firstPos + 1) / static_cast<double>(chainLength);
  }
  return span;
}

}  // namespace scandiag
