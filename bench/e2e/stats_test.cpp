#include "stats.h"

#include <gtest/gtest.h>

namespace {

using namespace mlpart::e2e;

TEST(E2EStats, MedianOddEvenEmpty) {
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(E2EStats, QuartilesMatchPythonExclusiveMethod) {
    // Reference values: statistics.quantiles(v, n=4) in CPython 3.11.
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    q = quartiles({1, 2});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.q2, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);
    q = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(q.q1, 1.5);
    EXPECT_DOUBLE_EQ(q.q2, 3.0);
    EXPECT_DOUBLE_EQ(q.q3, 4.5);
    q = quartiles({0.5, 0.25, 10, 3});
    EXPECT_DOUBLE_EQ(q.q1, 0.3125);
    EXPECT_DOUBLE_EQ(q.q2, 1.75);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
}

TEST(E2EStats, QuartilesDegenerateSamples) {
    const Quartiles one = quartiles({7});
    EXPECT_DOUBLE_EQ(one.q1, 7.0);
    EXPECT_DOUBLE_EQ(one.q3, 7.0);
    const Quartiles none = quartiles({});
    EXPECT_DOUBLE_EQ(none.q2, 0.0);
}

TEST(E2EStats, PercentileInterpolatesBetweenRanks) {
    const std::vector<double> v = {10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 46.0);
    EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
}

TEST(E2EStats, TenSamplesBeyondRule) {
    EXPECT_EQ(samplesBeyond(200, 95), 10u);
    EXPECT_TRUE(percentileSupported(200, 95));
    EXPECT_FALSE(percentileSupported(199, 95));
    EXPECT_TRUE(percentileSupported(1000, 99));
    EXPECT_FALSE(percentileSupported(999, 99));
    // Golem-sized samples support nothing above the median.
    EXPECT_FALSE(percentileSupported(24, 75));
    EXPECT_TRUE(percentileSupported(24, 50));
}

TEST(E2EStats, SummaryCarriesCountAndSupport) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    const Summary s = summarize(v, 90);
    EXPECT_EQ(s.n, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50.5);
    EXPECT_DOUBLE_EQ(s.tailPct, 90.0);
    EXPECT_TRUE(s.tailSupported);
    EXPECT_FALSE(summarize(v, 99).tailSupported);
}

} // namespace
