// Tests for the paper's Section V "future work" features implemented as
// library extensions: iterated V-cycles, LSMC at the coarsest level,
// asymmetric balance targets, block-constrained matching, and recursive
// bisection.
#include <gtest/gtest.h>

#include <random>

#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "core/recursive_bisection.h"
#include "kway/kway_refiner.h"
#include "refine/multistart.h"
#include "test_util.h"

namespace mlpart {
namespace {

TEST(VCycles, NeverWorsenAndUsuallyImprove) {
    const Hypergraph h = testing::mediumCircuit(900, 73);
    MLConfig one;
    MLConfig three;
    three.vCycles = 3;
    MultilevelPartitioner mlOne(one, makeFMFactory({}));
    MultilevelPartitioner mlThree(three, makeFMFactory({}));
    double sumOne = 0, sumThree = 0;
    std::mt19937_64 rng1(5), rng2(5);
    for (int i = 0; i < 4; ++i) {
        // Same seed: the first cycle of the 3-cycle run matches the
        // 1-cycle run; later cycles only accept improvements.
        const MLResult a = mlOne.run(h, rng1);
        const MLResult b = mlThree.run(h, rng2);
        sumOne += static_cast<double>(a.cut);
        sumThree += static_cast<double>(b.cut);
        EXPECT_LE(b.cut, a.cut);
        EXPECT_EQ(b.cut, testing::bruteForceCut(h, b.partition));
        EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, 0.1).satisfied(b.partition));
    }
    EXPECT_LE(sumThree, sumOne);
}

TEST(VCycles, WorkQuadrisectionToo) {
    const Hypergraph h = testing::mediumCircuit(500, 79);
    MLConfig cfg;
    cfg.k = 4;
    cfg.coarseningThreshold = 100;
    cfg.vCycles = 2;
    MultilevelPartitioner ml(cfg, makeKWayFactory({}));
    std::mt19937_64 rng(7);
    const MLResult r = ml.run(h, rng);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 4, 0.1).satisfied(r.partition));
}

TEST(CoarsestLSMC, ValidAndNoWorseOnAverage) {
    const Hypergraph h = testing::mediumCircuit(600, 83);
    MLConfig plain;
    MLConfig lsmc;
    lsmc.coarsestLSMCDescents = 10;
    MultilevelPartitioner a(plain, makeFMFactory({})), b(lsmc, makeFMFactory({}));
    std::mt19937_64 rng1(9), rng2(9);
    double sumA = 0, sumB = 0;
    for (int i = 0; i < 4; ++i) {
        sumA += static_cast<double>(a.run(h, rng1).cut);
        const MLResult r = b.run(h, rng2);
        sumB += static_cast<double>(r.cut);
        EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    }
    EXPECT_LE(sumB, sumA * 1.15);
}

TEST(BalanceTargets, ForTargetsBounds) {
    const Hypergraph h = testing::mediumCircuit(300); // unit areas, A = 300
    const auto bc = BalanceConstraint::forTargets(h, {0.75, 0.25}, 0.1);
    EXPECT_EQ(bc.numParts(), 2);
    // Block 0 targets 225 with slack max(1, ceil(2*0.1*225)) = 45.
    EXPECT_EQ(bc.lower(0), 180);
    EXPECT_EQ(bc.upper(0), 270);
    EXPECT_EQ(bc.lower(1), 60);
    EXPECT_EQ(bc.upper(1), 90);
    EXPECT_THROW(BalanceConstraint::forTargets(h, {}, 0.1), std::invalid_argument);
    EXPECT_THROW(BalanceConstraint::forTargets(h, {0.5, 0.2}, 0.1), std::invalid_argument);
    EXPECT_THROW(BalanceConstraint::forTargets(h, {1.5, -0.5}, 0.1), std::invalid_argument);
}

TEST(BalanceTargets, MLHonorsAsymmetricSplit) {
    const Hypergraph h = testing::mediumCircuit(600, 89);
    MLConfig cfg;
    cfg.targetFractions = {2.0 / 3.0, 1.0 / 3.0};
    MultilevelPartitioner ml(cfg, makeFMFactory({}));
    std::mt19937_64 rng(11);
    const MLResult r = ml.run(h, rng);
    const auto bc = BalanceConstraint::forTargets(h, cfg.targetFractions, 0.1);
    EXPECT_TRUE(bc.satisfied(r.partition))
        << "areas " << r.partition.blockArea(0) << "/" << r.partition.blockArea(1);
    EXPECT_GT(r.partition.blockArea(0), r.partition.blockArea(1));
}

TEST(BalanceTargets, SizeMismatchRejected) {
    MLConfig cfg;
    cfg.targetFractions = {0.5, 0.3, 0.2}; // k is 2
    EXPECT_THROW(MultilevelPartitioner(cfg, makeFMFactory({})), std::invalid_argument);
}

TEST(BlockConstrainedMatching, NeverCrossesBlocks) {
    const Hypergraph h = testing::mediumCircuit(400, 97);
    std::mt19937_64 rng(13);
    MatchConfig cfg;
    cfg.sameBlockOnly.assign(static_cast<std::size_t>(h.numModules()), 0);
    for (ModuleId v = 0; v < h.numModules(); ++v)
        cfg.sameBlockOnly[static_cast<std::size_t>(v)] = v % 2;
    for (CoarsenerKind kind : {CoarsenerKind::kConnectivityMatch, CoarsenerKind::kRandomMatch,
                               CoarsenerKind::kHeavyEdgeMatch}) {
        const Clustering c = runMatcher(kind, h, cfg, rng);
        std::vector<PartId> clusterBlock(static_cast<std::size_t>(c.numClusters), kInvalidPart);
        for (ModuleId v = 0; v < h.numModules(); ++v) {
            PartId& b = clusterBlock[static_cast<std::size_t>(c.clusterOf[static_cast<std::size_t>(v)])];
            if (b == kInvalidPart) b = v % 2;
            else EXPECT_EQ(b, v % 2) << toString(kind);
        }
    }
    cfg.sameBlockOnly.resize(3);
    EXPECT_THROW(matchClustering(h, cfg, rng), std::invalid_argument);
}

TEST(RecursiveBisection, PowerOfTwoBlocks) {
    const Hypergraph h = testing::mediumCircuit(600, 101);
    std::mt19937_64 rng(17);
    const Partition p = recursiveBisection(h, 4, MLConfig{}, makeFMFactory({}), rng);
    EXPECT_EQ(p.numParts(), 4);
    for (PartId b = 0; b < 4; ++b) {
        EXPECT_GT(p.blockSize(b), 0);
        EXPECT_NEAR(static_cast<double>(p.blockArea(b)),
                    static_cast<double>(h.totalArea()) / 4.0,
                    static_cast<double>(h.totalArea()) * 0.12);
    }
}

TEST(RecursiveBisection, OddKBlocks) {
    const Hypergraph h = testing::mediumCircuit(500, 103);
    std::mt19937_64 rng(19);
    const Partition p = recursiveBisection(h, 3, MLConfig{}, makeFMFactory({}), rng);
    EXPECT_EQ(p.numParts(), 3);
    for (PartId b = 0; b < 3; ++b)
        EXPECT_NEAR(static_cast<double>(p.blockArea(b)),
                    static_cast<double>(h.totalArea()) / 3.0,
                    static_cast<double>(h.totalArea()) * 0.12);
}

TEST(RecursiveBisection, ComparableToDirectKWay) {
    const Hypergraph h = testing::mediumCircuit(800, 107);
    std::mt19937_64 rng1(23), rng2(23);
    const Partition rb = recursiveBisection(h, 4, MLConfig{}, makeFMFactory({}), rng1);
    MLConfig direct;
    direct.k = 4;
    direct.coarseningThreshold = 100;
    MultilevelPartitioner ml(direct, makeKWayFactory({}));
    const MLResult dr = ml.run(h, rng2);
    const double rbCut = static_cast<double>(cutWeight(h, rb));
    const double dirCut = static_cast<double>(dr.cut);
    // Both approaches should land in the same quality ballpark.
    EXPECT_LT(rbCut, dirCut * 2.0 + 20.0);
    EXPECT_LT(dirCut, rbCut * 2.0 + 20.0);
}

TEST(RecursiveBisection, RejectsBadInput) {
    const Hypergraph h = testing::tinyPath();
    std::mt19937_64 rng(1);
    EXPECT_THROW(recursiveBisection(h, 1, MLConfig{}, makeFMFactory({}), rng), std::invalid_argument);
    EXPECT_THROW(recursiveBisection(h, 4, MLConfig{}, RefinerFactory{}, rng), std::invalid_argument);
}

} // namespace
} // namespace mlpart
