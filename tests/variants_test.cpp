// Tests for the Section II.B survey variants added beyond the paper's own
// configuration: Dasdan-Aykanat relaxed locking (multiple moves per
// module per pass), Shin-Kim gradually tightening size constraints, and
// full-Sanchis lookahead in the k-way engine.
#include <gtest/gtest.h>

#include <random>

#include "kway/kway_refiner.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "test_util.h"

namespace mlpart {
namespace {

Partition randomStart(const Hypergraph& h, PartId k, std::mt19937_64& rng, double r = 0.1) {
    return randomPartition(h, k, BalanceConstraint::forTolerance(h, k, r), rng);
}

class MovesPerPassTest : public ::testing::TestWithParam<int> {};

TEST_P(MovesPerPassTest, InvariantsHold) {
    const Hypergraph h = testing::mediumCircuit(400, 201);
    FMConfig cfg;
    cfg.movesPerPass = GetParam();
    FMRefiner fm(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(1);
    for (int trial = 0; trial < 3; ++trial) {
        Partition p = randomStart(h, 2, rng);
        const Weight before = cutWeight(h, p);
        const Weight after = fm.refine(p, bc, rng);
        EXPECT_EQ(after, testing::bruteForceCut(h, p));
        EXPECT_LE(after, before);
        EXPECT_TRUE(bc.satisfied(p));
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, MovesPerPassTest, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "d" + std::to_string(info.param);
                         });

TEST(MovesPerPass, TerminatesOnAdversarialPingPong) {
    // Two modules tightly coupled: with d = 4 each may bounce, but the
    // pass must still terminate (budget is finite).
    HypergraphBuilder b(4);
    b.addNet({0, 1}, 3);
    b.addNet({2, 3}, 3);
    b.addNet({0, 2});
    const Hypergraph h = std::move(b).build();
    FMConfig cfg;
    cfg.movesPerPass = 4;
    cfg.tolerance = 0.4;
    FMRefiner fm(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.4);
    std::mt19937_64 rng(2);
    Partition p(h, 2, {0, 1, 0, 1});
    const Weight cut = fm.refine(p, bc, rng);
    EXPECT_EQ(cut, testing::bruteForceCut(h, p));
}

TEST(MovesPerPass, RejectsZeroBudget) {
    const Hypergraph h = testing::tinyPath();
    FMConfig cfg;
    cfg.movesPerPass = 0;
    EXPECT_THROW(FMRefiner(h, cfg), std::invalid_argument);
}

TEST(Tighten, FinalSolutionMeetsTargetTolerance) {
    const Hypergraph h = testing::mediumCircuit(500, 203);
    FMConfig cfg;
    cfg.tightenStart = 0.35; // passes start loose, end at r = 0.1
    FMRefiner fm(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(3);
    for (int trial = 0; trial < 3; ++trial) {
        Partition p = randomStart(h, 2, rng);
        const Weight after = fm.refine(p, bc, rng);
        EXPECT_EQ(after, testing::bruteForceCut(h, p));
        EXPECT_TRUE(bc.satisfied(p)) << "tightening must end inside the caller's bound";
    }
}

TEST(Tighten, QualityInSameBallparkAsBaseline) {
    const Hypergraph h = testing::mediumCircuit(600, 207);
    FMConfig base;
    FMConfig tighten;
    tighten.tightenStart = 0.3;
    FMRefiner a(h, base), b(h, tighten);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng1(5), rng2(5);
    double sumA = 0, sumB = 0;
    for (int i = 0; i < 5; ++i) {
        Partition pa = randomStart(h, 2, rng1);
        Partition pb = pa;
        sumA += static_cast<double>(a.refine(pa, bc, rng1));
        sumB += static_cast<double>(b.refine(pb, bc, rng2));
    }
    EXPECT_LT(sumB, sumA * 1.5);
    EXPECT_LT(sumA, sumB * 1.5);
}

TEST(Tighten, RejectsBadSchedule) {
    const Hypergraph h = testing::tinyPath();
    FMConfig cfg;
    cfg.tightenStart = 0.05; // below the target tolerance 0.1
    EXPECT_THROW(FMRefiner(h, cfg), std::invalid_argument);
    cfg = {};
    cfg.tightenStart = 0.3;
    cfg.tightenPasses = 0;
    EXPECT_THROW(FMRefiner(h, cfg), std::invalid_argument);
}

TEST(KWayLookahead, InvariantsHold) {
    const Hypergraph h = testing::mediumCircuit(350, 211);
    KWayConfig cfg;
    cfg.lookahead = 3;
    KWayFMRefiner kway(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 4, 0.1);
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 3; ++trial) {
        Partition p = randomStart(h, 4, rng);
        const Weight before = cutWeight(h, p);
        const Weight after = kway.refine(p, bc, rng);
        EXPECT_EQ(after, testing::bruteForceCut(h, p));
        EXPECT_LE(after, before);
        EXPECT_TRUE(bc.satisfied(p));
    }
}

TEST(KWayLookahead, ComparableQualityToNoLookahead) {
    const Hypergraph h = testing::mediumCircuit(400, 213);
    KWayConfig plain;
    KWayConfig la;
    la.lookahead = 2;
    KWayFMRefiner a(h, plain), b(h, la);
    const auto bc = BalanceConstraint::forRefinement(h, 4, 0.1);
    std::mt19937_64 rng1(9), rng2(9);
    double sumA = 0, sumB = 0;
    for (int i = 0; i < 4; ++i) {
        Partition pa = randomStart(h, 4, rng1);
        Partition pb = pa;
        sumA += static_cast<double>(a.refine(pa, bc, rng1));
        sumB += static_cast<double>(b.refine(pb, bc, rng2));
    }
    EXPECT_LT(sumB, sumA * 1.4);
}

TEST(KWayLookahead, RejectsBadDepth) {
    const Hypergraph h = testing::tinyPath();
    KWayConfig cfg;
    cfg.lookahead = 99;
    EXPECT_THROW(KWayFMRefiner(h, cfg), std::invalid_argument);
}

TEST(Variants, ComposeWithClipRelaxedLockingAndTightening) {
    // The kitchen sink of new options must still satisfy the invariants.
    const Hypergraph h = testing::mediumCircuit(400, 217);
    FMConfig cfg;
    cfg.variant = EngineVariant::kCLIP;
    cfg.movesPerPass = 2;
    cfg.tightenStart = 0.3;
    FMRefiner fm(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(11);
    Partition p = randomStart(h, 2, rng);
    const Weight after = fm.refine(p, bc, rng);
    EXPECT_EQ(after, testing::bruteForceCut(h, p));
    EXPECT_TRUE(bc.satisfied(p));
}

} // namespace
} // namespace mlpart
