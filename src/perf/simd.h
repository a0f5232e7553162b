// Pass-start kernels and the per-net hot record of the refinement engines.
//
// The FM engines' pass-start sweeps (bucket-build gains, boundary flags,
// k-way frozen-gain init, the LP pre-pass scores) are pure
// classification over flat per-net arrays. This library holds them as
// one portable C++ implementation each. All arithmetic is exact integer
// math, so no summation order or compiler vectorization can change a
// result; tests/simd_test.cpp checks every kernel against the formula
// documented below and pins the partitions they feed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hypergraph/types.h"

namespace mlpart::perf {

/// The kernels' instruction-set tier. There is one portable
/// implementation, so the only tier is kScalar; the name and activeTier()
/// remain because benchmark reports print them.
enum class SimdTier : int { kScalar = 0 };

[[nodiscard]] const char* toString(SimdTier t);

/// The tier the kernels run at: always SimdTier::kScalar.
[[nodiscard]] SimdTier activeTier();

/// Per-net hot record for the bipartition engines, sized and aligned so
/// one 16-byte load covers everything the FM inner loops need about a
/// net: both pin counts and the weight. The engines keep these as one
/// dense array (AoS) because applyMove/undoMoves touch nets *randomly* —
/// splitting counts, weights, and active flags across three arrays costs
/// three cache misses per net where this record costs one. Inactive nets
/// (oversized, or masked by the engine) are encoded as pc[0] == -1; the
/// classification formulas below are written so that sentinel rows
/// naturally produce zero contributions and a clear cut flag, with no
/// separate active-flag load.
struct alignas(16) NetHot {
    std::int32_t pc[2]; ///< pin counts per side; pc[0] < 0 => inactive
    Weight w;           ///< net weight (immutable copy)
};
static_assert(sizeof(NetHot) == 16, "NetHot must stay one 16-byte record");

/// The record of an inactive net.
inline constexpr NetHot kInactiveNet{{-1, -1}, 0};

/// Bipartition pass-start net classification over NetHot records. For
/// every record n = nets[e], e in [0, m):
///
///   sideGain[e]     = n.w * ((n.pc[0] == 1) - (n.pc[1] == 0))
///   sideGain[m + e] = n.w * ((n.pc[1] == 1) - (n.pc[0] == 0))
///   cut[e]          = (n.pc[0] > 0 && n.pc[1] > 0) ? 1 : 0
///
/// i.e. the classic FM gain contribution of net e to a module on side 0
/// (plane 0) and side 1 (plane 1), as structure-of-arrays planes, plus a
/// boundary flag. A module's full gain is then the branch-free sum of its
/// plane entries (gatherSum). The inactive sentinel (pc = {-1, -1})
/// satisfies none of the comparisons, so sentinel rows classify to
/// {0, 0, not-cut} without a mask. `sideGain` must hold 2*m entries,
/// `cut` m; `cut` may be nullptr when boundary flags are not needed.
void classifyNetsHot(const NetHot* nets, std::size_t m, Weight* sideGain, char* cut);

/// Sum of plane[idx[i]] for i in [0, count) — the per-module gain gather
/// over a classification plane. Exact integer math: any accumulation
/// order gives the same sum.
[[nodiscard]] inline Weight gatherSum(const Weight* plane, const NetId* idx, std::size_t count) {
    Weight s = 0;
    for (std::size_t i = 0; i < count; ++i) s += plane[static_cast<std::size_t>(idx[i])];
    return s;
}

/// K-way pass-start count classification. For every net e in [0, m) with
/// row counts[e*k .. e*k+k) and a = (activeNet[e] != 0):
///
///   cnt1Mask[e] bit j = a && counts[e*k + j] == 1
///   cnt0Mask[e] bit j = a && counts[e*k + j] == 0
///
/// The Sanchis-style frozen move gain of (v: p -> q) then needs only two
/// bit probes per incident net instead of two loads from the m*k count
/// matrix per (net, target) pair. Requires 2 <= k <= 64.
void classifyKWayCounts(const std::int32_t* counts, const char* activeNet, std::size_t m,
                        std::int32_t k, std::uint64_t* cnt1Mask, std::uint64_t* cnt0Mask);

} // namespace mlpart::perf
