// Fault-cone (forward reachability) analysis.
//
// The output cone of a fault site is the set of gates a value change at the
// site can reach through combinational paths, and — what diagnosis cares
// about — the set of DFFs whose D input lies in that cone: only those scan
// cells can ever capture an error from the fault. Propagation stops at DFFs
// because full-scan BIST captures exactly one functional cycle per pattern.
//
// Used for (a) cone-restricted faulty re-simulation in the fault simulator
// and (b) the clustering statistics that motivate interval-based partitioning.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/netlist.hpp"
#include "netlist/netlist_image.hpp"

namespace scandiag {

struct FaultCone {
  /// Combinational gates whose value can differ, in evaluation (level) order.
  std::vector<GateId> gates;
  /// reachableDffs.test(k) == DFF ordinal k (index into netlist.dffs()) can
  /// capture an error.
  BitVector reachableDffs;
  /// Primary-output gates in the cone (observed on chip pins, not scan cells).
  std::vector<GateId> reachableOutputs;
};

/// Reusable forward walk over one netlist's image. The netlist constants
/// (DFF ordinals, output positions) are the image's, so a fresh walker
/// allocates only its gate-indexed visit stamps and each walk costs O(cone),
/// not O(gates). Single-owner: a walk mutates the stamps and reused buffers.
class ConeWalker {
 public:
  static constexpr std::uint32_t kNone = NetlistImage::kNone;

  /// `epoch` is the stamp of the last walk (tests start it near the wrap).
  ConeWalker(const Netlist& netlist, const Levelization& lev, std::uint32_t epoch = 0);

  /// Cone of a value change on the *output* of gate `site` (any gate kind;
  /// for a source gate the cone is its combinational fanout).
  FaultCone walk(GateId site);

  /// Ordinal of DFF `id` in netlist.dffs(), or kNone for other gates.
  std::uint32_t dffOrdinal(GateId id) const { return image_->dffOrdinal(id); }

 private:
  const NetlistImage* image_;
  const Levelization* lev_;
  std::uint32_t epoch_;
  std::vector<std::uint32_t> stamp_;  // [gate] epoch of its last visit
  std::vector<GateId> stack_;
  std::vector<std::uint64_t> keys_;   // (level << 32) | id of the cone's gates
};

/// One walk on a fresh ConeWalker (O(gates) setup; hot loops keep a walker).
FaultCone computeCone(const Netlist& netlist, const Levelization& lev, GateId site);

/// Span statistics of a cone's captured cells along an ordering of the DFFs
/// (cellOrder[k] = chain position of DFF ordinal k): min/max position and
/// count, quantifying the "clustered failing cells" phenomenon of the paper.
struct ConeSpan {
  std::size_t cells = 0;
  std::size_t firstPos = 0;
  std::size_t lastPos = 0;
  /// (lastPos - firstPos + 1) / chainLength; 0 when no cell is reachable.
  double spanFraction = 0.0;
};

ConeSpan coneSpan(const FaultCone& cone, const std::vector<std::size_t>& cellOrder,
                  std::size_t chainLength);

}  // namespace scandiag
