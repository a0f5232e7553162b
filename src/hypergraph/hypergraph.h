// Immutable netlist hypergraph in compressed sparse row (CSR) form.
//
// Both incidence directions are stored: net -> pins (the modules a net
// connects) and module -> nets (the nets a module belongs to). The structure
// is immutable after construction; coarsening (Induce) and generators create
// new hypergraphs through HypergraphBuilder.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hypergraph/types.h"

namespace mlpart {

class HypergraphBuilder;
class HypergraphAssembler;

/// Immutable netlist hypergraph H(V, E).
///
/// Invariants established at construction:
///  - every net has >= 2 pins (degenerate nets are dropped by the builder),
///  - pin module ids are valid and unique within a net,
///  - module areas are >= 0 and net weights are >= 1,
///  - CSR offset arrays are consistent with the flat pin arrays.
class Hypergraph {
public:
    Hypergraph() = default;

    /// Number of modules |V|.
    [[nodiscard]] ModuleId numModules() const { return static_cast<ModuleId>(moduleNetOffsets_.empty() ? 0 : moduleNetOffsets_.size() - 1); }
    /// Number of nets |E|.
    [[nodiscard]] NetId numNets() const { return static_cast<NetId>(netPinOffsets_.empty() ? 0 : netPinOffsets_.size() - 1); }
    /// Total number of pins (sum of net sizes).
    [[nodiscard]] std::int64_t numPins() const { return static_cast<std::int64_t>(netPins_.size()); }

    /// Modules connected by net `e` (size >= 2).
    [[nodiscard]] std::span<const ModuleId> pins(NetId e) const {
        return {netPins_.data() + netPinOffsets_[e], netPins_.data() + netPinOffsets_[e + 1]};
    }
    /// Nets incident to module `v`.
    [[nodiscard]] std::span<const NetId> nets(ModuleId v) const {
        return {moduleNets_.data() + moduleNetOffsets_[v], moduleNets_.data() + moduleNetOffsets_[v + 1]};
    }
    /// Number of pins of net `e`.
    [[nodiscard]] std::int32_t netSize(NetId e) const { return static_cast<std::int32_t>(netPinOffsets_[e + 1] - netPinOffsets_[e]); }
    /// Number of nets incident to module `v`.
    [[nodiscard]] std::int32_t degree(ModuleId v) const { return static_cast<std::int32_t>(moduleNetOffsets_[v + 1] - moduleNetOffsets_[v]); }

    /// Area of module `v` (unit by default).
    [[nodiscard]] Area area(ModuleId v) const { return areas_[v]; }
    /// Total area A(V).
    [[nodiscard]] Area totalArea() const { return totalArea_; }
    /// Largest single-module area A(v*); 0 for an empty hypergraph.
    [[nodiscard]] Area maxArea() const { return maxArea_; }
    /// Weight of net `e` in cut objectives.
    [[nodiscard]] Weight netWeight(NetId e) const { return netWeights_[e]; }

    /// Optional human-readable name of module `v` (empty if none were set).
    [[nodiscard]] const std::string& moduleName(ModuleId v) const;
    /// True when module names were supplied to the builder.
    [[nodiscard]] bool hasModuleNames() const { return !moduleNames_.empty(); }

    /// Largest sum of incident net weights over all modules; upper bound on
    /// any FM move gain, used to size gain-bucket arrays.
    [[nodiscard]] Weight maxModuleGain() const { return maxModuleGain_; }

private:
    friend class HypergraphBuilder;
    friend class HypergraphAssembler;

    std::vector<std::int64_t> netPinOffsets_;    // size numNets()+1
    std::vector<ModuleId> netPins_;              // size numPins()
    std::vector<std::int64_t> moduleNetOffsets_; // size numModules()+1
    std::vector<NetId> moduleNets_;              // size numPins()
    std::vector<Area> areas_;                    // size numModules()
    std::vector<Weight> netWeights_;             // size numNets()
    std::vector<std::string> moduleNames_;       // empty or size numModules()
    Area totalArea_ = 0;
    Area maxArea_ = 0;
    Weight maxModuleGain_ = 0;
};

} // namespace mlpart
