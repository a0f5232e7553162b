#include "perf/simd.h"

#include <type_traits>

namespace mlpart::perf {

namespace {

/// classifyKWayCounts' row loop. kWidth > 0 fixes the row width at
/// compile time, so the row loop unrolls and, with masks of up to 32
/// blocks held in 32 bits, the compiler vectorizes across nets; kWidth
/// == 0 reads the width from `k`. Branch-free on the active flag for the
/// same reason: every row is read and inactive rows are masked to 0.
template <std::size_t kWidth>
void classifyKWayRows(const std::int32_t* counts, const char* activeNet, std::size_t m,
                      std::size_t k, std::uint64_t* cnt1Mask, std::uint64_t* cnt0Mask) {
    using Mask = std::conditional_t<kWidth != 0 && kWidth <= 32, std::uint32_t, std::uint64_t>;
    const std::size_t width = kWidth != 0 ? kWidth : k;
    for (std::size_t e = 0; e < m; ++e) {
        const std::int32_t* row = counts + e * width;
        Mask m1 = 0, m0 = 0;
        for (std::size_t j = 0; j < width; ++j) {
            m1 |= static_cast<Mask>(row[j] == 1) << j;
            m0 |= static_cast<Mask>(row[j] == 0) << j;
        }
        const Mask active = activeNet[e] != 0 ? ~Mask{0} : 0;
        cnt1Mask[e] = m1 & active;
        cnt0Mask[e] = m0 & active;
    }
}

} // namespace

const char* toString(SimdTier) { return "scalar"; }

SimdTier activeTier() { return SimdTier::kScalar; }

void classifyNetsHot(const NetHot* nets, std::size_t m, Weight* sideGain, char* cut) {
    Weight* plane1 = sideGain + m;
    for (std::size_t e = 0; e < m; ++e) {
        const std::int32_t p0 = nets[e].pc[0];
        const std::int32_t p1 = nets[e].pc[1];
        const Weight w = nets[e].w;
        // Branch-free; the inactive sentinel {-1, -1} matches no case.
        sideGain[e] = w * ((p0 == 1) - (p1 == 0));
        plane1[e] = w * ((p1 == 1) - (p0 == 0));
        if (cut != nullptr) cut[e] = static_cast<char>((p0 > 0) & (p1 > 0));
    }
}

void classifyKWayCounts(const std::int32_t* counts, const char* activeNet, std::size_t m,
                        std::int32_t k, std::uint64_t* cnt1Mask, std::uint64_t* cnt0Mask) {
    // Quadrisection, the common k-way case, gets the fixed-width loop:
    // with the runtime-width loop alone, KWayFMRefiner's k = 4 bucket
    // builds ran ~9% slower on s15850 and avqsmall.
    if (k == 4) classifyKWayRows<4>(counts, activeNet, m, 4, cnt1Mask, cnt0Mask);
    else classifyKWayRows<0>(counts, activeNet, m, static_cast<std::size_t>(k), cnt1Mask, cnt0Mask);
}

} // namespace mlpart::perf
