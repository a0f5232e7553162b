#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mlpart::e2e {

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Quartiles quartiles(std::vector<double> v) {
    if (v.empty()) return {};
    if (v.size() == 1) return {v[0], v[0], v[0]};
    std::sort(v.begin(), v.end());
    // Python's exclusive method: positions i*(n+1)/4, clamped to [1, n-1],
    // interpolated in exact integer arithmetic on the rank.
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double q[3];
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                    v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                   4.0;
    }
    return {q[0], q[1], q[2]};
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t samplesBeyond(std::size_t n, double p) {
    // The epsilon keeps exact products such as 200 * 5 / 100 from
    // flooring to 9 through binary rounding.
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

bool percentileSupported(std::size_t n, double p) { return samplesBeyond(n, p) >= 10; }

Summary summarize(const std::vector<double>& v, double tailPct) {
    Summary s;
    s.n = v.size();
    s.p50 = median(v);
    s.tailPct = tailPct;
    s.tail = percentile(v, tailPct);
    s.tailSupported = percentileSupported(v.size(), tailPct);
    return s;
}

} // namespace mlpart::e2e
