// Gate-level netlist for full-scan sequential circuits (ISCAS-89 style).
//
// Model: a netlist is a set of gates identified by dense GateId. Two gate
// kinds are *sources* for combinational evaluation — primary inputs and DFF
// outputs (the scan-loaded state). A DFF gate's single fanin is its D input;
// the capture step of a scan-BIST pattern samples that fanin. Primary outputs
// are markers on existing gates. There is no separate net object: a gate and
// the net it drives are identified (standard for ISCAS-89 benchmarks, where
// every signal has exactly one driver).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace scandiag {

struct Levelization;  // netlist/levelizer.hpp
struct FaultSite;     // netlist/fault_sites.hpp
struct NetlistImage;  // netlist/netlist_image.hpp

using GateId = std::uint32_t;
inline constexpr GateId kInvalidGate = static_cast<GateId>(-1);

enum class GateType : std::uint8_t {
  Input,   // primary input (source; no fanins)
  Dff,     // state element (source; fanin[0] = D input, set via setDffInput)
  Buf,
  Not,
  And,
  Nand,
  Or,
  Nor,
  Xor,
  Xnor,
  Const0,  // constant driver (no fanins)
  Const1,
};

/// Human-readable gate type name ("NAND" etc.), as used in .bench files.
std::string_view gateTypeName(GateType t);

/// Parse a .bench gate keyword (case-insensitive); nullopt if unknown.
std::optional<GateType> gateTypeFromName(std::string_view name);

/// True for gates whose value is an evaluation input (Input, Dff, Const*).
bool isSourceType(GateType t);

struct Gate {
  GateType type = GateType::Buf;
  std::vector<GateId> fanins;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  // ---- construction ----
  GateId addInput(const std::string& name);
  /// Adds a DFF whose D input is connected later with setDffInput().
  GateId addDff(const std::string& name);
  GateId addGate(GateType type, const std::string& name, std::vector<GateId> fanins);
  void setDffInput(GateId dff, GateId driver);
  void markOutput(GateId gate);
  /// Appends an extra fanin to a variable-arity gate (AND/NAND/OR/NOR/XOR/
  /// XNOR). Used by the synthetic generator's observability sweep.
  void appendFanin(GateId gate, GateId driver);

  // ---- topology ----
  std::size_t gateCount() const { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_.at(id); }
  const std::string& gateName(GateId id) const { return names_.at(id); }
  GateId findByName(std::string_view name) const;  // kInvalidGate if absent

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& dffs() const { return dffs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }

  /// Number of combinational gates (everything that is not Input/Dff).
  std::size_t combGateCount() const;

  /// The flat read-only image every simulator, walker and PODEM reads
  /// (types, CSR fanins/fanouts, source ordinals, the evaluation program).
  /// Built lazily with the levelization, cached, shared by copies, and
  /// dropped by every mutator, like the two caches below.
  const std::shared_ptr<const NetlistImage>& image() const;

  /// levelize(*this), cached and built with the image (copies share it).
  const Levelization& levelization() const;

  /// enumerateFaultSites(*this, collapse=true), cached and shared like the
  /// levelization: the collapsed single-stuck-at universe every fault sample
  /// is drawn from.
  const std::shared_ptr<const std::vector<FaultSite>>& collapsedFaults() const;

  /// Structural validation: every fanin resolved, every DFF has a D input,
  /// fanin arities match gate types, no combinational cycles.
  /// Throws std::invalid_argument describing the first violation. Fills all
  /// three caches (image, levelization, collapsed faults); only a validated
  /// netlist may be shared across threads.
  void validate() const;

 private:
  void invalidateCaches();

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<std::string> names_;
  std::vector<GateId> inputs_;
  std::vector<GateId> dffs_;
  std::vector<GateId> outputs_;
  std::unordered_map<std::string, GateId> byName_;
  mutable std::shared_ptr<const NetlistImage> image_;         // lazy cache
  mutable std::shared_ptr<const Levelization> levelization_;  // built with image_
  mutable std::shared_ptr<const std::vector<FaultSite>> collapsedFaults_;  // lazy cache
};

}  // namespace scandiag
