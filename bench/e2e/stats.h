// Sample statistics for the end-to-end benchmark: medians, quartiles and
// percentiles, each with the sample count it rests on.
//
// Quartiles follow Python's statistics.quantiles(values, n=4) (its default
// "exclusive" method), so a spread computed here matches one computed by a
// script over the same values. Percentiles use linear interpolation between
// closest ranks. A percentile is only *supported* when at least ten samples
// lie beyond it; a tail figure resting on fewer is noise, not a tail.
#pragma once

#include <cstddef>
#include <vector>

namespace mlpart::e2e {

/// Median; 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& v);

/// First, second and third quartile.
struct Quartiles {
    double q1 = 0;
    double q2 = 0;
    double q3 = 0;
};

/// statistics.quantiles(v, n=4) with method='exclusive'. Needs at least
/// two samples; a single sample yields that value three times, an empty
/// one zeros.
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// The p-th percentile (p in [0, 100]) by linear interpolation between
/// closest ranks; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Samples strictly above the p-th percentile's rank position, i.e. how
/// many observations a p-th percentile of n samples rests on beyond it:
/// floor(n * (100 - p) / 100).
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double p);

/// True when a p-th percentile of n samples has at least ten samples
/// beyond it.
[[nodiscard]] bool percentileSupported(std::size_t n, double p);

/// A timing summary: the median and the requested tail percentile, with
/// the sample count and whether the tail is supported.
struct Summary {
    std::size_t n = 0;
    double p50 = 0;
    double tailPct = 0;   ///< which percentile `tail` is
    double tail = 0;
    bool tailSupported = false;
};

[[nodiscard]] Summary summarize(const std::vector<double>& v, double tailPct);

} // namespace mlpart::e2e
