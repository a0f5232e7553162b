// Allocation-free coarsening kernel (the hot half of the V-cycle).
//
// induce() originally detoured through HypergraphBuilder::build(): one
// scratch.assign + std::sort per fine net, then an FNV hash into a
// std::unordered_map<uint64, vector<NetId>> for parallel-net merging —
// O(pins log deg) comparisons and O(nets) node allocations per level.
// This kernel produces a bit-identical coarse hypergraph with
//  - cluster-stamp dedup of mapped pins, then an in-place sort of each
//    deduped span (most coarse nets are a few pins long),
//  - parallel-net merging in one pass over the nets through an
//    open-addressing table of net ids keyed by a pin-list fingerprint,
// with every scratch buffer owned by a CoarsenWorkspace that the caller
// keeps alive for the whole V-cycle — after the first level no scratch
// allocation happens on the hot path. Only the arrays owned by the
// returned Hypergraph itself are freshly allocated (they outlive the
// call by design).
//
// Bit-identical means: netPinOffsets, netPins, netWeights, module-net CSR,
// areas, and all cached statistics equal the legacy builder path's output
// exactly. src/check's differential oracle (verifyIdenticalHypergraphs)
// guards this in every checked build, and tests/coarsen_kernel_test pins
// it across the gen suite and full-scale Table I levels.
#pragma once

#include <cstdint>
#include <vector>

#include "coarsen/clustering.h"
#include "hypergraph/hypergraph.h"

namespace mlpart::robust {
class ThreadPool; // robust/thread_pool.h
} // namespace mlpart::robust

namespace mlpart {

/// Scratch buffers for induceInto(), reused across levels, cycles, and
/// starts. Default-constructed empty; every buffer is (re)sized by
/// assign/resize inside the kernel, so capacity only ever grows — one
/// warm-up V-cycle leaves the workspace allocation-free for all smaller
/// or equal levels that follow.
struct CoarsenWorkspace {
    std::vector<NetId> pinStamp;           ///< per cluster: last net that touched it
    std::vector<std::int64_t> tentOffsets; ///< tentative-net pin CSR offsets
    std::vector<ModuleId> tentPinsSorted;  ///< tentative pins, ascending per net
    std::vector<Weight> tentWeights;       ///< tentative-net weights (merge sums; 0 = merged away)
    std::vector<std::uint64_t> fingerprints; ///< per tentative net: pin-list hash
    /// Merge table: 2 slots per tentative net, each a kept net id or
    /// kInvalidNet. The parallel path first counts each fine net's pins
    /// here, a use that ends before the table is filled.
    std::vector<NetId> slots;
    // Parallel-path scratch (used only when induceInto runs on a pool):
    std::vector<NetId> fineTent;           ///< per fine net: tentative id (kInvalidNet = dropped)
    std::vector<std::vector<std::int64_t>> threadStamp; ///< per worker: cluster stamp array

    /// Releases every scratch buffer back to the allocator (see
    /// refine::Workspace::shrinkToFit for the long-lived-host rationale).
    void shrinkToFit() {
        std::vector<NetId>().swap(pinStamp);
        std::vector<std::int64_t>().swap(tentOffsets);
        std::vector<ModuleId>().swap(tentPinsSorted);
        std::vector<Weight>().swap(tentWeights);
        std::vector<std::uint64_t>().swap(fingerprints);
        std::vector<NetId>().swap(slots);
        std::vector<NetId>().swap(fineTent);
        std::vector<std::vector<std::int64_t>>().swap(threadStamp);
    }

    /// Bytes of heap capacity currently held.
    [[nodiscard]] std::size_t capacityBytes() const {
        std::size_t n = pinStamp.capacity() * sizeof(NetId) +
                        tentOffsets.capacity() * sizeof(std::int64_t) +
                        tentPinsSorted.capacity() * sizeof(ModuleId) +
                        tentWeights.capacity() * sizeof(Weight) +
                        fingerprints.capacity() * sizeof(std::uint64_t) +
                        slots.capacity() * sizeof(NetId) +
                        fineTent.capacity() * sizeof(NetId) +
                        threadStamp.capacity() * sizeof(std::vector<std::int64_t>);
        for (const auto& row : threadStamp) n += row.capacity() * sizeof(std::int64_t);
        return n;
    }
};

/// Definition 1 coarsening through the dedicated kernel: the coarse
/// hypergraph induced by `c`, bit-identical to the HypergraphBuilder
/// path. `ws` supplies all scratch storage. When `pool` is non-null and
/// has more than one thread, the tentative-net construction (pin dedup,
/// per-net pin sorting, fingerprinting) runs in parallel over fixed
/// net chunks — the output stays bit-identical to the serial path for
/// every thread count, because each net's span and fingerprint are
/// chunk-confined and the serial merge/emission tail is shared.
[[nodiscard]] Hypergraph induceInto(const Hypergraph& h, const Clustering& c,
                                    CoarsenWorkspace& ws,
                                    robust::ThreadPool* pool = nullptr);

} // namespace mlpart
