// Tests for the FM/CLIP bipartition engine: correctness of the tracked
// cut, balance preservation, improvement behaviour, the pass budget, and
// all engine variants (policies, CLIP, lookahead, CDIP, boundary, early
// exit, PROP).
#include <gtest/gtest.h>

#include <random>

#include "gen/grid_generator.h"
#include "hypergraph/builder.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "refine/prop_refiner.h"
#include "test_util.h"

namespace mlpart {
namespace {

Partition randomBipartition(const Hypergraph& h, std::mt19937_64& rng, double r = 0.1) {
    const auto bc = BalanceConstraint::forTolerance(h, 2, r);
    return randomPartition(h, 2, bc, rng);
}

TEST(FMRefiner, ReturnsExactCut) {
    const Hypergraph h = testing::mediumCircuit(400);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(17);
    FMRefiner fm(h, {});
    for (int trial = 0; trial < 5; ++trial) {
        Partition p = randomBipartition(h, rng);
        const Weight reported = fm.refine(p, bc, rng);
        EXPECT_EQ(reported, testing::bruteForceCut(h, p)) << "trial " << trial;
    }
}

TEST(FMRefiner, NeverWorsensTheCut) {
    const Hypergraph h = testing::mediumCircuit(400);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(23);
    FMRefiner fm(h, {});
    for (int trial = 0; trial < 5; ++trial) {
        Partition p = randomBipartition(h, rng);
        const Weight before = cutWeight(h, p);
        const Weight after = fm.refine(p, bc, rng);
        EXPECT_LE(after, before);
    }
}

TEST(FMRefiner, PreservesBalance) {
    const Hypergraph h = testing::mediumCircuit(500);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(29);
    FMRefiner fm(h, {});
    Partition p = randomBipartition(h, rng);
    fm.refine(p, bc, rng);
    EXPECT_TRUE(bc.satisfied(p));
}

TEST(FMRefiner, SolvesGridToNearOptimal) {
    // 16x16 grid: optimal bisection cut is 16. FM from a random start
    // won't always hit it, but the best of a few runs should get close.
    const Hypergraph h = generateGrid({16, 16, false});
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(31);
    FMRefiner fm(h, {});
    Weight best = 1 << 30;
    for (int run = 0; run < 10; ++run) {
        Partition p = randomBipartition(h, rng);
        best = std::min(best, fm.refine(p, bc, rng));
    }
    EXPECT_LE(best, 32); // within 2x of optimal from random starts
}

TEST(FMRefiner, FixedModulesNeverMove) {
    const Hypergraph h = testing::mediumCircuit(300);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(37);
    FMConfig cfg;
    cfg.fixed.assign(static_cast<std::size_t>(h.numModules()), 0);
    cfg.fixed[0] = cfg.fixed[1] = cfg.fixed[2] = 1;
    FMRefiner fm(h, cfg);
    Partition p = randomBipartition(h, rng);
    const PartId p0 = p.part(0), p1 = p.part(1), p2 = p.part(2);
    fm.refine(p, bc, rng);
    EXPECT_EQ(p.part(0), p0);
    EXPECT_EQ(p.part(1), p1);
    EXPECT_EQ(p.part(2), p2);
}

TEST(FMRefiner, IgnoresHugeNetsDuringRefinementButReportsThem) {
    // One giant net over everything: invisible to refinement (maxNetSize),
    // but the returned cut must still count it.
    HypergraphBuilder b(300);
    std::vector<ModuleId> all;
    for (ModuleId v = 0; v < 300; ++v) all.push_back(v);
    b.addNet(all);
    for (ModuleId v = 0; v + 1 < 300; ++v) b.addNet({v, static_cast<ModuleId>(v + 1)});
    const Hypergraph h = std::move(b).build();
    FMConfig cfg;
    cfg.maxNetSize = 200;
    FMRefiner fm(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(41);
    Partition p = randomBipartition(h, rng);
    const Weight cut = fm.refine(p, bc, rng);
    EXPECT_EQ(fm.ignoredNets(), 1);
    EXPECT_EQ(cut, testing::bruteForceCut(h, p));
    EXPECT_GE(cut, 2); // chain cut (>=1) + the always-cut giant net
}

TEST(FMRefiner, RejectsBadConfigAndInput) {
    const Hypergraph h = testing::tinyPath();
    FMConfig bad;
    bad.tolerance = 1.0;
    EXPECT_THROW(FMRefiner(h, bad), std::invalid_argument);
    bad = {};
    bad.maxNetSize = 1;
    EXPECT_THROW(FMRefiner(h, bad), std::invalid_argument);
    bad = {};
    bad.lookahead = 99;
    EXPECT_THROW(FMRefiner(h, bad), std::invalid_argument);
    bad = {};
    bad.fixed.assign(3, 0); // wrong size
    EXPECT_THROW(FMRefiner(h, bad), std::invalid_argument);

    FMRefiner fm(h, {});
    std::mt19937_64 rng(1);
    Partition p4(h, 4);
    const auto bc4 = BalanceConstraint::forRefinement(h, 4, 0.1);
    EXPECT_THROW(fm.refine(p4, bc4, rng), std::invalid_argument);
}

// ---- Engine variant sweep: every combination must preserve the core
// invariants (exact cut, balance, no worsening). ----

struct VariantParam {
    EngineVariant variant;
    BucketPolicy policy;
    int lookahead;
    bool cdip;
    bool boundary;
    double earlyExit;
    const char* name;
};

class FMVariantTest : public ::testing::TestWithParam<VariantParam> {};

TEST_P(FMVariantTest, InvariantsHold) {
    const VariantParam vp = GetParam();
    const Hypergraph h = testing::mediumCircuit(350, 19);
    FMConfig cfg;
    cfg.variant = vp.variant;
    cfg.policy = vp.policy;
    cfg.lookahead = vp.lookahead;
    cfg.cdip = vp.cdip;
    cfg.boundaryInit = vp.boundary;
    cfg.earlyExitFraction = vp.earlyExit;
    FMRefiner fm(h, cfg);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(43);
    for (int trial = 0; trial < 3; ++trial) {
        Partition p = randomBipartition(h, rng);
        const Weight before = cutWeight(h, p);
        const Weight after = fm.refine(p, bc, rng);
        EXPECT_EQ(after, testing::bruteForceCut(h, p));
        EXPECT_LE(after, before);
        EXPECT_TRUE(bc.satisfied(p));
        EXPECT_GE(fm.lastPassCount(), 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, FMVariantTest,
    ::testing::Values(
        VariantParam{EngineVariant::kFM, BucketPolicy::kLifo, 0, false, false, 0.0, "FM_LIFO"},
        VariantParam{EngineVariant::kFM, BucketPolicy::kFifo, 0, false, false, 0.0, "FM_FIFO"},
        VariantParam{EngineVariant::kFM, BucketPolicy::kRandom, 0, false, false, 0.0, "FM_RND"},
        VariantParam{EngineVariant::kCLIP, BucketPolicy::kLifo, 0, false, false, 0.0, "CLIP_LIFO"},
        VariantParam{EngineVariant::kCLIP, BucketPolicy::kFifo, 0, false, false, 0.0, "CLIP_FIFO"},
        VariantParam{EngineVariant::kFM, BucketPolicy::kLifo, 3, false, false, 0.0, "FM_LA3"},
        VariantParam{EngineVariant::kCLIP, BucketPolicy::kLifo, 3, false, false, 0.0, "CLIP_LA3"},
        VariantParam{EngineVariant::kCLIP, BucketPolicy::kLifo, 0, true, false, 0.0, "CDIP"},
        VariantParam{EngineVariant::kFM, BucketPolicy::kLifo, 0, false, true, 0.0, "FM_boundary"},
        VariantParam{EngineVariant::kFM, BucketPolicy::kLifo, 0, false, false, 0.25, "FM_earlyexit"},
        VariantParam{EngineVariant::kCLIP, BucketPolicy::kLifo, 2, true, true, 0.25, "kitchen_sink"}),
    [](const ::testing::TestParamInfo<VariantParam>& info) { return info.param.name; });

TEST(Clip, BeatsOrMatchesFMOnAverage) {
    // The paper's central Table III observation, scaled down: CLIP's
    // average cut should not be worse than FM's over multiple runs.
    const Hypergraph h = testing::mediumCircuit(800, 5);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    FMConfig fmCfg;
    FMConfig clipCfg;
    clipCfg.variant = EngineVariant::kCLIP;
    FMRefiner fm(h, fmCfg), clip(h, clipCfg);
    std::mt19937_64 rngA(7), rngB(7);
    double fmSum = 0, clipSum = 0;
    const int runs = 12;
    for (int i = 0; i < runs; ++i) {
        Partition pa = randomBipartition(h, rngA);
        Partition pb = pa;
        fmSum += static_cast<double>(fm.refine(pa, bc, rngA));
        clipSum += static_cast<double>(clip.refine(pb, bc, rngB));
    }
    EXPECT_LE(clipSum, fmSum * 1.10) << "CLIP should be comparable or better";
}

TEST(MultiStart, RandomStartRefineProducesValidResult) {
    const Hypergraph h = testing::mediumCircuit(300);
    FMRefiner fm(h, {});
    std::mt19937_64 rng(3);
    Partition out;
    const Weight cut = randomStartRefine(h, fm, 0.1, rng, &out);
    EXPECT_EQ(cut, testing::bruteForceCut(h, out));
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, 0.1).satisfied(out));
}

TEST(MultiStart, FollowupFMNeverHurts) {
    const Hypergraph h = testing::mediumCircuit(300);
    PropRefiner prop(h, {});
    std::mt19937_64 rng(5);
    const auto startBc = BalanceConstraint::forTolerance(h, 2, 0.1);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    Partition p = randomPartition(h, 2, startBc, rng);
    const Weight cut = refineWithFollowupFM(h, prop, p, bc, rng);
    EXPECT_EQ(cut, testing::bruteForceCut(h, p));
}

TEST(Prop, InvariantsHold) {
    const Hypergraph h = testing::mediumCircuit(300, 21);
    PropRefiner prop(h, {});
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    std::mt19937_64 rng(47);
    for (int trial = 0; trial < 3; ++trial) {
        Partition p = randomBipartition(h, rng);
        const Weight before = cutWeight(h, p);
        const Weight after = prop.refine(p, bc, rng);
        EXPECT_EQ(after, testing::bruteForceCut(h, p));
        EXPECT_LE(after, before);
        EXPECT_TRUE(bc.satisfied(p));
    }
}

TEST(Prop, RejectsBadConfig) {
    const Hypergraph h = testing::tinyPath();
    PropConfig bad;
    bad.initialProb = 1.5;
    EXPECT_THROW(PropRefiner(h, bad), std::invalid_argument);
    bad = {};
    bad.decay = 0.0;
    EXPECT_THROW(PropRefiner(h, bad), std::invalid_argument);
}

TEST(FMRefiner, PassBudgetStopsAfterFourPasses) {
    // From this start plain FM keeps improving for 9 passes under the
    // paper's stopping rule; the default budget stops after the fourth.
    const Hypergraph h = testing::mediumCircuit(300, 7);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    FMConfig paper;
    paper.maxPasses = kPaperMaxPasses;
    FMRefiner budget(h, {}), natural(h, paper);
    std::mt19937_64 rng1(7), rng2(7);
    Partition p1 = randomBipartition(h, rng1);
    Partition p2 = randomBipartition(h, rng2);
    const Weight budgetCut = budget.refine(p1, bc, rng1);
    const Weight naturalCut = natural.refine(p2, bc, rng2);
    EXPECT_EQ(budget.lastPassCount(), 4);
    EXPECT_GT(natural.lastPassCount(), 5); // its fifth pass still gained
    EXPECT_LT(naturalCut, budgetCut);
    EXPECT_EQ(budgetCut, testing::bruteForceCut(h, p1));
}

/// Every single move here loses a net or gains nothing, yet moving the
/// pair {p, q} = {0, 1} together frees a weight-3 net. p and q sit on side
/// 0, q tied to an anchor (2); the big net's three other pins (3-5) sit on
/// side 1, each tied to an anchor (6-8). Filler pairs and a triple
/// (9-15 on side 0, 16-19 on side 1) fill each side to 10 modules.
Hypergraph pairMoveGadget() {
    HypergraphBuilder b(20);
    b.addNet({0, 1, 3, 4, 5}, 3);
    b.addNet({1, 2});
    for (ModuleId r = 3; r < 6; ++r) b.addNet({r, r + 3});
    b.addNet({9, 10});
    b.addNet({11, 12});
    b.addNet({13, 14, 15});
    b.addNet({16, 17});
    b.addNet({18, 19});
    return std::move(b).build();
}

TEST(FMRefiner, EarlyExitWaitsForThePassesFirstImprovement) {
    const Hypergraph h = pairMoveGadget();
    std::vector<PartId> side(20, 0);
    for (ModuleId v : {3, 4, 5, 6, 7, 8, 16, 17, 18, 19}) side[static_cast<std::size_t>(v)] = 1;
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    FMConfig early;
    early.earlyExitFraction = 0.04; // 0.8 of a move: the rule fires as soon as it may
    FMRefiner plain(h, {}), trimmed(h, early);
    Partition p1(h, 2, side), p2(h, 2, side);
    const Weight initial = cutWeight(h, p1);
    std::mt19937_64 rng1(1), rng2(1);
    ASSERT_LT(plain.refine(p1, bc, rng1), initial); // the pair move is there to find
    // The pass's first move (p) gains nothing. Cut off there, the pass
    // would return 0 and end the refinement with the cut unchanged.
    const Weight cut = trimmed.refine(p2, bc, rng2);
    EXPECT_LT(cut, initial);
    EXPECT_EQ(cut, testing::bruteForceCut(h, p2));
    EXPECT_TRUE(bc.satisfied(p2));
}

TEST(FMRefiner, DeterministicGivenSeed) {
    const Hypergraph h = testing::mediumCircuit(250);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    FMRefiner fm(h, {});
    std::mt19937_64 rng1(99), rng2(99);
    Partition p1 = randomBipartition(h, rng1);
    Partition p2 = randomBipartition(h, rng2);
    const Weight c1 = fm.refine(p1, bc, rng1);
    const Weight c2 = fm.refine(p2, bc, rng2);
    EXPECT_EQ(c1, c2);
    for (ModuleId v = 0; v < h.numModules(); ++v) EXPECT_EQ(p1.part(v), p2.part(v));
}

} // namespace
} // namespace mlpart
