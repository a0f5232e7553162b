// Tests for the additional partitioning algorithms: two-phase FM (the
// methodology ML generalizes), spectral bisection (the classic analytic
// comparator), and the comparator switch that runs them and LSMC and the
// genetic hybrid by engine name (DESIGN.md §15): pinned results, fault
// sites inside each engine's loop, and expired deadlines.
#include <gtest/gtest.h>

#include <random>

#include "check/verify_partition.h"
#include "comparators/comparators.h"
#include "core/multilevel.h"
#include "core/two_phase.h"
#include "gen/grid_generator.h"
#include "genetic/hybrid.h"
#include "hypergraph/io.h"
#include "lsmc/lsmc.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/checkpoint.h"
#include "robust/deadline.h"
#include "robust/fault_injector.h"
#include "robust/status.h"
#include "spectral/spectral.h"
#include "test_util.h"

namespace mlpart {
namespace {

TEST(TwoPhase, ProducesValidBalancedBipartition) {
    const Hypergraph h = testing::mediumCircuit(500, 3);
    std::mt19937_64 rng(1);
    const TwoPhaseResult r = twoPhasePartition(h, {}, makeFMFactory({}), rng);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, 0.1).satisfied(r.partition));
    EXPECT_LT(r.coarseModules, h.numModules());
    EXPECT_GT(r.coarseModules, h.numModules() / 3); // one matching level ~ halves
}

TEST(TwoPhase, SitsBetweenFlatAndMultilevel) {
    // The paper's motivating ordering on average: ML <= two-phase <= flat.
    const Hypergraph h = testing::mediumCircuit(1000, 7);
    std::mt19937_64 rngFlat(5), rngTwo(5), rngMl(5);
    FMRefiner flat(h, {});
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    double flatSum = 0, twoSum = 0, mlSum = 0;
    const int runs = 6;
    for (int i = 0; i < runs; ++i) {
        flatSum += static_cast<double>(randomStartRefine(h, flat, 0.1, rngFlat));
        twoSum += static_cast<double>(twoPhasePartition(h, {}, makeFMFactory({}), rngTwo).cut);
        mlSum += static_cast<double>(ml.run(h, rngMl).cut);
    }
    EXPECT_LE(twoSum, flatSum * 1.02) << "two-phase should beat flat FM";
    EXPECT_LE(mlSum, twoSum * 1.02) << "multilevel should beat two-phase";
}

TEST(TwoPhase, OtherCoarsenersAndK) {
    const Hypergraph h = testing::mediumCircuit(400, 11);
    std::mt19937_64 rng(3);
    TwoPhaseConfig cfg;
    cfg.coarsener = CoarsenerKind::kRandomMatch;
    const TwoPhaseResult r = twoPhasePartition(h, cfg, makeFMFactory({}), rng);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
}

TEST(TwoPhase, RejectsBadInput) {
    const Hypergraph h = testing::tinyPath();
    std::mt19937_64 rng(1);
    EXPECT_THROW(twoPhasePartition(h, {}, RefinerFactory{}, rng), std::invalid_argument);
    TwoPhaseConfig bad;
    bad.k = 1;
    EXPECT_THROW(twoPhasePartition(h, bad, makeFMFactory({}), rng), std::invalid_argument);
    bad = {};
    bad.tolerance = 2.0;
    EXPECT_THROW(twoPhasePartition(h, bad, makeFMFactory({}), rng), std::invalid_argument);
}

TEST(Spectral, FindsTheObviousSplit) {
    // Two 2-pin-net cliques joined by one bridge: the Fiedler vector
    // separates them; the sweep must find the single-net cut.
    HypergraphBuilder b(8);
    for (ModuleId i = 0; i < 4; ++i)
        for (ModuleId j = i + 1; j < 4; ++j) b.addNet({i, j});
    for (ModuleId i = 4; i < 8; ++i)
        for (ModuleId j = i + 1; j < 8; ++j) b.addNet({i, j});
    b.addNet({3, 4});
    const Hypergraph h = std::move(b).build();
    std::mt19937_64 rng(1);
    const SpectralResult r = spectralBisect(h, {}, rng);
    EXPECT_EQ(r.cut, 1);
    EXPECT_EQ(r.partition.part(0), r.partition.part(3));
    EXPECT_EQ(r.partition.part(4), r.partition.part(7));
    EXPECT_NE(r.partition.part(0), r.partition.part(4));
}

TEST(Spectral, GridBisectionNearOptimal) {
    // On a NON-square grid the Fiedler eigenvalue is simple and its
    // eigenvector is the long-axis cosine mode, so the sweep recovers the
    // straight short cut. (A square grid has a degenerate Fiedler pair —
    // x and y modes — and spectral legitimately returns a diagonal mix.)
    const Hypergraph h = generateGrid({24, 10, false});
    std::mt19937_64 rng(2);
    const SpectralResult r = spectralBisect(h, {}, rng);
    EXPECT_LE(r.cut, 13); // optimum 10 (vertical line)
    EXPECT_TRUE(BalanceConstraint::forTolerance(h, 2, 0.1).satisfied(r.partition));
}

TEST(Spectral, RespectsBalanceWindow) {
    const Hypergraph h = testing::mediumCircuit(400, 13);
    std::mt19937_64 rng(3);
    SpectralConfig cfg;
    cfg.tolerance = 0.05;
    const SpectralResult r = spectralBisect(h, cfg, rng);
    EXPECT_TRUE(BalanceConstraint::forTolerance(h, 2, 0.05).satisfied(r.partition));
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    EXPECT_EQ(r.fiedler.size(), static_cast<std::size_t>(h.numModules()));
}

TEST(Spectral, FMRefinementImprovesSpectralSeed) {
    // The classic pipeline: spectral global view + FM local cleanup. FM
    // seeded by the spectral split must be no worse than the split alone.
    const Hypergraph h = testing::mediumCircuit(600, 17);
    std::mt19937_64 rng(5);
    SpectralResult s = spectralBisect(h, {}, rng);
    FMRefiner fm(h, {});
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    Partition refined = s.partition;
    const Weight after = fm.refine(refined, bc, rng);
    EXPECT_LE(after, s.cut);
}

TEST(Spectral, MLIsCompetitiveWithSpectralPlusFM) {
    // Spectral+FM is a strong classical pipeline; ML should land in the
    // same quality range on averages (its edge over analytic methods in
    // Table VII shows as min-cut over many runs on large circuits, not as
    // a uniform per-run win on every instance).
    const Hypergraph h = testing::mediumCircuit(800, 19);
    std::mt19937_64 rng1(7), rng2(7);
    FMRefiner fm(h, {});
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    double specSum = 0, mlSum = 0;
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    for (int i = 0; i < 4; ++i) {
        SpectralResult s = spectralBisect(h, {}, rng1);
        Partition p = s.partition;
        specSum += static_cast<double>(fm.refine(p, bc, rng1));
        mlSum += static_cast<double>(ml.run(h, rng2).cut);
    }
    EXPECT_LE(mlSum, specSum * 1.35);
    EXPECT_LE(specSum, mlSum * 2.5); // and spectral must not be wildly better either way
}

TEST(Spectral, RejectsBadInput) {
    const Hypergraph h = testing::tinyPath();
    std::mt19937_64 rng(1);
    SpectralConfig bad;
    bad.maxIterations = 0;
    EXPECT_THROW(spectralBisect(h, bad, rng), std::invalid_argument);
    bad = {};
    bad.maxCliqueNetSize = 1;
    EXPECT_THROW(spectralBisect(h, bad, rng), std::invalid_argument);
    bad = {};
    bad.tolerance = 1.0;
    EXPECT_THROW(spectralBisect(h, bad, rng), std::invalid_argument);
    HypergraphBuilder b(1);
    const Hypergraph solo = std::move(b).build();
    EXPECT_THROW(spectralBisect(solo, {}, rng), std::invalid_argument);
}

// ------------------------------------------------- the comparator switch

std::uint32_t partitionCrc(const Partition& p) {
    const std::vector<std::uint8_t> blob = encodePartitionBinary(p);
    return robust::crc32(blob.data(), blob.size());
}

/// Cuts and partition CRCs (the serve part_crc) of each comparator,
/// recorded from the single-lane runs of the engine portfolio the switch
/// replaced. A changed rank, iteration budget or refiner moves them.
TEST(ComparatorPins, EveryComparatorReproducesItsPortfolioLane) {
    const Hypergraph h = testing::mediumCircuit(200, 5);
    const struct {
        const char* engine;
        PartId k;
        Weight cut;
        std::uint32_t crc;
    } pins[] = {
        {"two_phase", 2, 12, 0xaaea4330u}, {"lsmc", 2, 9, 0x1962d1dfu},
        {"spectral", 2, 9, 0x30a7c81bu},   {"genetic", 2, 9, 0x98d51feeu},
        {"two_phase", 4, 66, 0x6112bd9du}, {"lsmc", 4, 42, 0x673b4e48u},
        {"genetic", 4, 38, 0x20437773u},
    };
    for (const auto& pin : pins) {
        SCOPED_TRACE(std::string(pin.engine) + " k=" + std::to_string(pin.k));
        const ComparatorResult r =
            runComparator(h, pin.engine, pin.k, 0.1, 0.5, 0, 7, robust::Deadline());
        EXPECT_EQ(r.cut, pin.cut);
        EXPECT_EQ(partitionCrc(r.partition), pin.crc);
        EXPECT_FALSE(r.deadlineHit);
    }
}

TEST(ComparatorPins, RefusesUnknownNamesAndSpectralBeyondBisection) {
    const Hypergraph h = testing::mediumCircuit(150, 11);
    for (const char* name : {"ml", "fm", "clip", "auto", ""}) {
        EXPECT_FALSE(isComparator(name)) << name;
        try {
            (void)runComparator(h, name, 2, 0.1, 0.5, 0, 1, robust::Deadline());
            ADD_FAILURE() << name << " ran as a comparator";
        } catch (const robust::Error& e) {
            EXPECT_EQ(e.code(), robust::StatusCode::kUsage) << name;
        }
    }
    try {
        (void)runComparator(h, "spectral", 4, 0.1, 0.5, 0, 1, robust::Deadline());
        ADD_FAILURE() << "spectral ran at k = 4";
    } catch (const robust::Error& e) {
        EXPECT_EQ(e.code(), robust::StatusCode::kUsage);
    }
}

TEST(ComparatorFaults, EngineInnerLoopSitesFireAndAreContained) {
    const Hypergraph h = testing::mediumCircuit(150, 11);
    const struct {
        const char* site;
        const char* engine;
    } cases[] = {
        {"lsmc.descent", "lsmc"},
        {"spectral.iterate", "spectral"},
        {"genetic.generation", "genetic"},
    };
    robust::FaultInjector& injector = robust::FaultInjector::instance();
    for (const auto& c : cases) {
        SCOPED_TRACE(c.site);
        robust::FaultPlan plan;
        plan.probability = 1.0;
        plan.site = c.site;
        injector.arm(plan);
        robust::StatusCode code = robust::StatusCode::kOk;
        try {
            (void)runComparator(h, c.engine, 2, 0.1, 0.5, 0, 9, robust::Deadline());
        } catch (const robust::Error& e) {
            code = e.code();
        }
        EXPECT_GE(injector.fires(), 1) << "site never fired";
        injector.disarm();
        EXPECT_EQ(code, robust::StatusCode::kInjectedFault);
    }
}

TEST(EngineDeadlines, ExpiredDeadlinesStillYieldValidResults) {
    const Hypergraph h = testing::mediumCircuit(150, 11);
    const robust::Deadline expired = robust::Deadline::after(0.0);
    FMConfig fm;
    fm.variant = EngineVariant::kCLIP;

    std::mt19937_64 rng(1);
    LSMCConfig lc;
    lc.descents = 50;
    const LSMCResult lsmc = LSMCPartitioner(lc, makeFMFactory(fm)).run(h, rng, expired);
    check::PartitionCheckOptions opt;
    opt.expectedCut = lsmc.cut;
    EXPECT_TRUE(check::verifyPartition(h, lsmc.partition, opt).ok());

    std::mt19937_64 rng2(1);
    const SpectralResult sp = spectralBisect(h, SpectralConfig{}, rng2, expired);
    opt.expectedCut = sp.cut;
    EXPECT_TRUE(check::verifyPartition(h, sp.partition, opt).ok());

    std::mt19937_64 rng3(1);
    HybridConfig hc;
    hc.populationSize = 3;
    hc.generations = 4;
    const HybridResult ga = HybridMultiStart(hc, makeFMFactory(fm)).run(h, rng3, expired);
    opt.expectedCut = ga.cut;
    EXPECT_TRUE(check::verifyPartition(h, ga.partition, opt).ok());
}

} // namespace
} // namespace mlpart
