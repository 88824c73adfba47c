#include "netlist/netlist.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "common/assert.hpp"
#include "netlist/fault_sites.hpp"
#include "netlist/levelizer.hpp"
#include "netlist/netlist_image.hpp"

namespace scandiag {

namespace {

struct TypeInfo {
  GateType type;
  std::string_view name;
  std::size_t minArity;
  std::size_t maxArity;  // SIZE_MAX = unbounded
};

constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

constexpr std::array<TypeInfo, 12> kTypeTable{{
    {GateType::Input, "INPUT", 0, 0},
    {GateType::Dff, "DFF", 1, 1},
    {GateType::Buf, "BUF", 1, 1},
    {GateType::Not, "NOT", 1, 1},
    {GateType::And, "AND", 1, kUnbounded},
    {GateType::Nand, "NAND", 1, kUnbounded},
    {GateType::Or, "OR", 1, kUnbounded},
    {GateType::Nor, "NOR", 1, kUnbounded},
    {GateType::Xor, "XOR", 1, kUnbounded},
    {GateType::Xnor, "XNOR", 1, kUnbounded},
    {GateType::Const0, "CONST0", 0, 0},
    {GateType::Const1, "CONST1", 0, 0},
}};

const TypeInfo& typeInfo(GateType t) {
  for (const TypeInfo& ti : kTypeTable)
    if (ti.type == t) return ti;
  throw std::logic_error("unknown GateType");
}

}  // namespace

std::string_view gateTypeName(GateType t) { return typeInfo(t).name; }

std::optional<GateType> gateTypeFromName(std::string_view name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (upper == "BUFF") upper = "BUF";  // common .bench spelling
  for (const TypeInfo& ti : kTypeTable)
    if (ti.name == upper) return ti.type;
  return std::nullopt;
}

bool isSourceType(GateType t) {
  return t == GateType::Input || t == GateType::Dff || t == GateType::Const0 ||
         t == GateType::Const1;
}

GateId Netlist::addInput(const std::string& name) {
  return addGate(GateType::Input, name, {});
}

GateId Netlist::addDff(const std::string& name) {
  // D input connected later; kInvalidGate placeholder until setDffInput().
  invalidateCaches();
  const GateId id = static_cast<GateId>(gates_.size());
  SCANDIAG_REQUIRE(byName_.emplace(name, id).second, "duplicate gate name: " + name);
  gates_.push_back(Gate{GateType::Dff, {kInvalidGate}});
  names_.push_back(name);
  dffs_.push_back(id);
  return id;
}

GateId Netlist::addGate(GateType type, const std::string& name, std::vector<GateId> fanins) {
  SCANDIAG_REQUIRE(type != GateType::Dff, "use addDff() for state elements");
  const TypeInfo& ti = typeInfo(type);
  SCANDIAG_REQUIRE(fanins.size() >= ti.minArity &&
                       (ti.maxArity == kUnbounded || fanins.size() <= ti.maxArity),
                   "bad fanin arity for gate " + name);
  for (GateId f : fanins)
    SCANDIAG_REQUIRE(f < gates_.size(), "unresolved fanin of gate " + name);
  invalidateCaches();
  const GateId id = static_cast<GateId>(gates_.size());
  SCANDIAG_REQUIRE(byName_.emplace(name, id).second, "duplicate gate name: " + name);
  gates_.push_back(Gate{type, std::move(fanins)});
  names_.push_back(name);
  if (type == GateType::Input) inputs_.push_back(id);
  return id;
}

void Netlist::setDffInput(GateId dff, GateId driver) {
  SCANDIAG_REQUIRE(dff < gates_.size() && gates_[dff].type == GateType::Dff,
                   "setDffInput target is not a DFF");
  SCANDIAG_REQUIRE(driver < gates_.size(), "unresolved DFF driver");
  invalidateCaches();
  gates_[dff].fanins[0] = driver;
}

void Netlist::markOutput(GateId gate) {
  SCANDIAG_REQUIRE(gate < gates_.size(), "unresolved output gate");
  if (std::find(outputs_.begin(), outputs_.end(), gate) != outputs_.end()) return;
  invalidateCaches();  // an observed stem joins the fault universe
  outputs_.push_back(gate);
}

void Netlist::appendFanin(GateId gate, GateId driver) {
  SCANDIAG_REQUIRE(gate < gates_.size(), "appendFanin target out of range");
  SCANDIAG_REQUIRE(driver < gates_.size(), "appendFanin driver out of range");
  const GateType t = gates_[gate].type;
  SCANDIAG_REQUIRE(t == GateType::And || t == GateType::Nand || t == GateType::Or ||
                       t == GateType::Nor || t == GateType::Xor || t == GateType::Xnor,
                   "appendFanin requires a variable-arity gate");
  invalidateCaches();
  gates_[gate].fanins.push_back(driver);
}

GateId Netlist::findByName(std::string_view name) const {
  const auto it = byName_.find(std::string(name));
  return it == byName_.end() ? kInvalidGate : it->second;
}

std::size_t Netlist::combGateCount() const {
  std::size_t n = 0;
  for (const Gate& g : gates_)
    if (!isSourceType(g.type)) ++n;
  return n;
}

const std::shared_ptr<const NetlistImage>& Netlist::image() const {
  if (!image_) {
    // The levelization runs over the image's CSR and the program needs the
    // levels, so both are built here and published together.
    auto image = std::make_shared<NetlistImage>(*this);
    auto lev = std::make_shared<const Levelization>(levelize(*this, *image));
    image->buildProgram(*lev);
    levelization_ = std::move(lev);
    image_ = std::move(image);
  }
  return image_;
}

const Levelization& Netlist::levelization() const {
  if (!levelization_) (void)image();
  return *levelization_;
}

const std::shared_ptr<const std::vector<FaultSite>>& Netlist::collapsedFaults() const {
  if (!collapsedFaults_) {
    collapsedFaults_ =
        std::make_shared<const std::vector<FaultSite>>(enumerateFaultSites(*this, true));
  }
  return collapsedFaults_;
}

void Netlist::validate() const {
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    for (GateId f : g.fanins) {
      SCANDIAG_REQUIRE(f != kInvalidGate, "dangling fanin (unconnected DFF D?) at gate " + names_[id]);
      SCANDIAG_REQUIRE(f < gates_.size(), "fanin out of range at gate " + names_[id]);
    }
  }
  // Levelization throws on combinational cycles; the results stay cached.
  (void)image();
  (void)collapsedFaults();
}

void Netlist::invalidateCaches() {
  image_.reset();
  levelization_.reset();
  collapsedFaults_.reset();
}

}  // namespace scandiag
