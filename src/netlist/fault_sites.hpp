// Single-stuck-at fault sites of a netlist and their enumeration.
//
// Enumeration follows standard practice:
//  * a stem (output) fault pair on every gate, including primary inputs and
//    DFF outputs (a stuck scan-cell Q) and DFF D pins (a stuck capture path);
//  * branch (input-pin) fault pairs only where the driving net fans out —
//    with fanout 1 the branch fault is identical to the stem fault.
// Collapsing applies the classic controlling-value equivalences
// (AND in-SA0 ≡ out-SA0, NAND in-SA0 ≡ out-SA1, OR in-SA1 ≡ out-SA1,
// NOR in-SA1 ≡ out-SA0, BUF/NOT input faults ≡ output faults).
//
// The collapsed universe is a pure function of the netlist, so
// Netlist::collapsedFaults() caches it next to the levelization;
// sim/fault_list samples that cached list.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace scandiag {

/// Single stuck-at fault site. pin == kOutputPin is a stem (output) fault;
/// otherwise the fault sits on fanin `pin` of `gate` (a branch fault, distinct
/// from the stem when the driver has fanout > 1).
struct FaultSite {
  GateId gate = kInvalidGate;
  int pin = kOutputPin;
  bool stuckAt = false;

  static constexpr int kOutputPin = -1;

  bool isOutputFault() const { return pin == kOutputPin; }
  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

/// Fresh enumeration in gate order: each gate's stem pair (when observed),
/// then its branch pairs pin by pin, SA0 before SA1. `collapse` drops the
/// branch faults equivalent to a stem fault of the same gate.
std::vector<FaultSite> enumerateFaultSites(const Netlist& netlist, bool collapse);

}  // namespace scandiag
