// 64-way bit-parallel gate-level logic simulation.
//
// One evaluation processes 64 independent patterns at once: each gate's value
// is a 64-bit word whose bit t is the gate's logic value under pattern t.
// Primary inputs and scan-loaded DFF outputs are set by the caller;
// evaluate() runs the netlist image's program — the constants, then the
// combinational gates level by level in runs of one gate type.
//
// The faulty-evaluation entry point re-evaluates only the fault's output cone
// against a completed good evaluation, which keeps per-fault cost proportional
// to cone size instead of circuit size.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/cone_analysis.hpp"
#include "netlist/fault_sites.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/netlist.hpp"
#include "netlist/netlist_image.hpp"

namespace scandiag {

using SimWord = std::uint64_t;

/// Human-readable fault name, e.g. "g42/SA1" or "g42.in2/SA0".
std::string describeFault(const Netlist& netlist, const FaultSite& fault);

/// Reads the netlist's cached image and levelization: the netlist must
/// outlive the simulator unmodified.
class LogicSimulator {
 public:
  explicit LogicSimulator(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }
  const NetlistImage& image() const { return *image_; }
  const Levelization& levelization() const { return *lev_; }

  /// values.size() == gateCount(). Input and DFF entries must be pre-set by
  /// the caller; constants and every combinational entry are (re)computed.
  void evaluate(std::vector<SimWord>& values) const;

  /// Evaluates one gate from the given value vector (no fault).
  SimWord evalGate(GateId id, const std::vector<SimWord>& values) const;

  /// Faulty re-evaluation restricted to `cone` (which must be
  /// computeCone(..., fault.gate)). `values` must hold a completed good
  /// evaluation on entry; on return, entries of cone gates (and of
  /// fault.gate, for source-output faults) hold faulty values. Other entries
  /// are untouched — callers needing the good values again must keep a copy.
  void evaluateFaulty(const FaultSite& fault, const FaultCone& cone,
                      std::vector<SimWord>& values) const;

 private:
  const Netlist* netlist_;
  const NetlistImage* image_;
  const Levelization* lev_;
};

}  // namespace scandiag
