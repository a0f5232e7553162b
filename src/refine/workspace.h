// Pooled working storage for the refinement engines.
//
// FMRefiner and KWayFMRefiner are constructed per hierarchy level by the
// multilevel driver, so any buffer owned by the refiner object itself is
// reallocated O(levels) times per V-cycle — and the per-module/per-net
// buffers made that O(levels x modules) heap traffic. A Workspace owns
// every such buffer and outlives the refiners: the driver keeps one per
// V-cycle (one per worker thread under parallelMultiStart) and hands it to
// each refiner via Refiner::setWorkspace(). Buffers are only ever
// assign()/resize()'d, so capacity grows monotonically — after the first
// (largest) level of the first cycle the hot path performs no scratch
// allocation at all.
//
// Engines that are never given a workspace lazily create a private one, so
// standalone use (flat FM tests, LSMC, recursive bisection) is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/types.h"
#include "perf/simd.h"
#include "refine/gain_bucket.h"

namespace mlpart::refine {

/// One accepted/attempted move of the bipartition engine.
struct FMMove {
    ModuleId v;
    PartId from;
    Weight delta; ///< true active-cut reduction of this move
};

/// One move of the k-way engine.
struct KWayMove {
    ModuleId v;
    PartId from, to;
    Weight delta;
};

namespace detail {

template <typename T>
void releaseVector(std::vector<T>& v) {
    std::vector<T>().swap(v); // clear() keeps capacity; swap releases it
}

template <typename T>
[[nodiscard]] std::size_t vectorCapacityBytes(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
}

} // namespace detail

struct Workspace {
    // --- Bipartition FM (FMRefiner) ---
    std::vector<char> activeNet;
    /// Locked pins per side of each net (lookahead >= 2 only), interleaved
    /// as [2e + side] so both sides of a net share a cache line.
    std::vector<std::int32_t> lockedPc;
    /// Per-net hot records ({pc0, pc1, w}, 16 bytes): the one array
    /// FMRefiner's applyMove/undoMoves/computeGain touch per net, so a
    /// random net visit costs one cache line instead of three (counts,
    /// weight, active flag). Inactive nets carry the pc[0] == -1 sentinel.
    /// The parallel V-cycle's LP pre-pass keeps its pin counts here too.
    std::vector<perf::NetHot> netHot;
    /// Per-module move state, one byte: bit 0 = locked this pass, bit 1 =
    /// CDIP-blocked. Merged so the delta-gain update's eligibility test is
    /// a single load.
    std::vector<char> moveState;
    std::vector<std::int32_t> moveCount;
    /// Per-module gains of the parallel V-cycle's LP pre-pass.
    std::vector<Weight> gains;
    std::vector<FMMove> moves;
    std::vector<ModuleId> lazyInsert;
    /// Pass-start net classification planes (perf::classifyNetsHot): entry
    /// [s*numNets + e] is what one side-s pin of net e contributes to its
    /// module's gain, given the frozen pass-start pin counts. SoA per side
    /// so buildBuckets' gather-sums stream one contiguous plane.
    std::vector<Weight> netSideGain;
    std::vector<char> netCut; ///< pass-start cut flags (boundaryInit only)
    GainBucketArray bucket[2];
    /// Backing store for both sides' bucket head/tail lists: FMRefiner
    /// sizes it once per level, then bump-binds bucket[0] and bucket[1]
    /// at disjoint offsets — one allocation (amortized zero when warm)
    /// instead of four per level.
    std::vector<ModuleId> bucketArena;

    // --- k-way FM (KWayFMRefiner) --- kept separate from the 2-way pools
    // so a driver that alternates engine kinds does not thrash either set.
    std::vector<char> kActiveNet;
    std::vector<std::int32_t> kCounts;       ///< per (net, block), row-major
    std::vector<std::int32_t> kLockedCounts; ///< per (net, block)
    std::vector<PartId> kSpan;
    std::vector<char> kLocked;
    std::vector<Weight> kRealGain; ///< per (module, target block)
    /// Pass-start frozen-count bitmasks (perf::classifyKWayCounts): bit q
    /// of kCnt1Mask[e] / kCnt0Mask[e] says block q holds exactly one / zero
    /// pins of active net e. One traversal of a module's nets then yields
    /// its gains toward *all* k targets (k <= 64).
    std::vector<std::uint64_t> kCnt1Mask;
    std::vector<std::uint64_t> kCnt0Mask;
    /// applyMove's delta-gain scratch: per module, 1 + its slot in
    /// kTouchList while one move runs (0 otherwise); the move's free
    /// neighbours in first-touch order; and one row of k + 1 gain deltas
    /// per neighbour (toward each target, then toward all of them).
    std::vector<std::uint32_t> kTouchSlot;
    std::vector<ModuleId> kTouchList;
    std::vector<Weight> kGainDelta;
    std::vector<KWayMove> kMoves;
    std::vector<GainBucketArray> kBuckets; ///< k*k, diagonal unused
    /// Backing store for every kBuckets head/tail list: KWayFMRefiner
    /// sizes it once per refine() (amortized zero when warm) and
    /// bump-binds the k*(k-1) structures at disjoint offsets — the k-way
    /// twin of `bucketArena`.
    std::vector<ModuleId> kBucketArena;

    /// Releases every pooled buffer back to the allocator. Capacity
    /// otherwise only ever grows, which is exactly right mid-run but wrong
    /// for a long-lived host: after one golem3-class job the workspace
    /// would pin its high-water footprint forever. The engines re-init
    /// every buffer per run, so a shrunk workspace is simply a cold one.
    void shrinkToFit() {
        using detail::releaseVector;
        releaseVector(activeNet);
        releaseVector(lockedPc);
        releaseVector(netHot);
        releaseVector(moveState);
        releaseVector(moveCount);
        releaseVector(gains);
        releaseVector(moves);
        releaseVector(lazyInsert);
        releaseVector(netSideGain);
        releaseVector(netCut);
        bucket[0].shrinkToFit();
        bucket[1].shrinkToFit();
        releaseVector(bucketArena);
        releaseVector(kActiveNet);
        releaseVector(kCounts);
        releaseVector(kLockedCounts);
        releaseVector(kSpan);
        releaseVector(kLocked);
        releaseVector(kRealGain);
        releaseVector(kCnt1Mask);
        releaseVector(kCnt0Mask);
        releaseVector(kTouchSlot);
        releaseVector(kTouchList);
        releaseVector(kGainDelta);
        releaseVector(kMoves);
        for (GainBucketArray& b : kBuckets) b.shrinkToFit();
        releaseVector(kBuckets);
        releaseVector(kBucketArena);
    }

    /// Bytes of heap capacity currently held across every pooled buffer.
    [[nodiscard]] std::size_t capacityBytes() const {
        using detail::vectorCapacityBytes;
        std::size_t n = vectorCapacityBytes(activeNet) + vectorCapacityBytes(lockedPc) +
                        vectorCapacityBytes(netHot) +
                        vectorCapacityBytes(moveState) + vectorCapacityBytes(moveCount) +
                        vectorCapacityBytes(gains) +
                        vectorCapacityBytes(moves) + vectorCapacityBytes(lazyInsert) +
                        vectorCapacityBytes(netSideGain) + vectorCapacityBytes(netCut) +
                        bucket[0].capacityBytes() + bucket[1].capacityBytes() +
                        vectorCapacityBytes(bucketArena) +
                        vectorCapacityBytes(kActiveNet) + vectorCapacityBytes(kCounts) +
                        vectorCapacityBytes(kLockedCounts) + vectorCapacityBytes(kSpan) +
                        vectorCapacityBytes(kLocked) + vectorCapacityBytes(kRealGain) +
                        vectorCapacityBytes(kCnt1Mask) + vectorCapacityBytes(kCnt0Mask) +
                        vectorCapacityBytes(kTouchSlot) + vectorCapacityBytes(kTouchList) +
                        vectorCapacityBytes(kGainDelta) + vectorCapacityBytes(kMoves) +
                        vectorCapacityBytes(kBuckets) + vectorCapacityBytes(kBucketArena);
        for (const GainBucketArray& b : kBuckets) n += b.capacityBytes();
        return n;
    }
};

} // namespace mlpart::refine
