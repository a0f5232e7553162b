// Tests for the ML multilevel driver (the paper's core contribution).
#include <gtest/gtest.h>

#include <random>

#include "core/multilevel.h"
#include "gen/benchmark_suite.h"
#include "gen/grid_generator.h"
#include "hypergraph/io.h"
#include "kway/kway_refiner.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/checkpoint.h"
#include "test_util.h"

namespace mlpart {
namespace {

MLConfig baseConfig() {
    MLConfig cfg;
    cfg.coarseningThreshold = 35;
    cfg.matchingRatio = 1.0;
    return cfg;
}

TEST(Multilevel, ProducesValidBalancedBipartition) {
    const Hypergraph h = testing::mediumCircuit(700);
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    std::mt19937_64 rng(1);
    const MLResult r = ml.run(h, rng);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    EXPECT_EQ(r.cutNetCount, cutNets(h, r.partition));
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, 0.1).satisfied(r.partition));
    EXPECT_GE(r.levels, 3); // 700 -> ~35 needs >= 4 halvings
    ASSERT_EQ(r.levelModules.size(), static_cast<std::size_t>(r.levels) + 1);
    EXPECT_EQ(r.levelModules.front(), h.numModules());
    EXPECT_LE(r.levelModules.back(), 2 * 35); // last clustered level near T
}

TEST(Multilevel, LevelSizesDecreaseMonotonically) {
    const Hypergraph h = testing::mediumCircuit(600);
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    std::mt19937_64 rng(2);
    const MLResult r = ml.run(h, rng);
    for (std::size_t i = 1; i < r.levelModules.size(); ++i)
        EXPECT_LT(r.levelModules[i], r.levelModules[i - 1]);
}

/// MLTimings splits coarsening into match and induce inside coarsenSec's
/// own window: both parts are positive and never sum past the whole
/// (up to the clock's double rounding).
TEST(Multilevel, TimingsSplitCoarseningIntoMatchAndInduce) {
    const Hypergraph h = testing::mediumCircuit(600);
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    std::mt19937_64 rng(2);
    const MLResult r = ml.run(h, rng);
    ASSERT_GT(r.levels, 0);
    EXPECT_GT(r.timings.matchSec, 0.0);
    EXPECT_GT(r.timings.induceSec, 0.0);
    EXPECT_LE(r.timings.matchSec + r.timings.induceSec, r.timings.coarsenSec + 1e-9);
}

TEST(Multilevel, SlowerCoarseningYieldsMoreLevels) {
    const Hypergraph h = testing::mediumCircuit(800);
    std::mt19937_64 rng1(3), rng2(3);
    MLConfig fast = baseConfig();
    MLConfig slow = baseConfig();
    slow.matchingRatio = 0.33;
    MultilevelPartitioner mlFast(fast, makeFMFactory({}));
    MultilevelPartitioner mlSlow(slow, makeFMFactory({}));
    const MLResult rf = mlFast.run(h, rng1);
    const MLResult rs = mlSlow.run(h, rng2);
    EXPECT_GT(rs.levels, rf.levels);
}

TEST(Multilevel, BeatsFlatFMOnAverage) {
    // The paper's core claim (Table IV): ML produces better cuts than the
    // flat iterative engine.
    const Hypergraph h = testing::mediumCircuit(1200, 31);
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    FMRefiner flat(h, {});
    std::mt19937_64 rngMl(5), rngFlat(5);
    double mlSum = 0, flatSum = 0;
    const int runs = 6;
    for (int i = 0; i < runs; ++i) {
        mlSum += static_cast<double>(ml.run(h, rngMl).cut);
        flatSum += static_cast<double>(randomStartRefine(h, flat, 0.1, rngFlat));
    }
    EXPECT_LT(mlSum, flatSum) << "multilevel must beat flat FM on average";
}

TEST(Multilevel, SolvesGridNearOptimal) {
    const Hypergraph h = generateGrid({24, 24, false});
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    std::mt19937_64 rng(7);
    Weight best = 1 << 30;
    for (int i = 0; i < 5; ++i) best = std::min(best, ml.run(h, rng).cut);
    EXPECT_LE(best, 30); // optimum 24; ML should land close
}

TEST(Multilevel, SmallInputSkipsCoarsening) {
    const Hypergraph h = testing::tinyPath(); // 6 < T
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    std::mt19937_64 rng(11);
    const MLResult r = ml.run(h, rng);
    EXPECT_EQ(r.levels, 0);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
}

TEST(Multilevel, ClipEngineWorks) {
    const Hypergraph h = testing::mediumCircuit(600, 41);
    FMConfig clip;
    clip.variant = EngineVariant::kCLIP;
    MultilevelPartitioner ml(baseConfig(), makeFMFactory(clip));
    std::mt19937_64 rng(13);
    const MLResult r = ml.run(h, rng);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, 0.1).satisfied(r.partition));
}

TEST(Multilevel, DeterministicGivenSeed) {
    const Hypergraph h = testing::mediumCircuit(500);
    MultilevelPartitioner ml(baseConfig(), makeFMFactory({}));
    std::mt19937_64 rng1(17), rng2(17);
    const MLResult a = ml.run(h, rng1);
    const MLResult b = ml.run(h, rng2);
    EXPECT_EQ(a.cut, b.cut);
    for (ModuleId v = 0; v < h.numModules(); ++v)
        EXPECT_EQ(a.partition.part(v), b.partition.part(v));
}

TEST(Multilevel, CoarsestStartsImproveOrMatch) {
    const Hypergraph h = testing::mediumCircuit(600, 43);
    MLConfig one = baseConfig();
    MLConfig many = baseConfig();
    many.coarsestStarts = 8;
    MultilevelPartitioner mlOne(one, makeFMFactory({}));
    MultilevelPartitioner mlMany(many, makeFMFactory({}));
    std::mt19937_64 rng1(19), rng2(19);
    double sumOne = 0, sumMany = 0;
    for (int i = 0; i < 4; ++i) {
        sumOne += static_cast<double>(mlOne.run(h, rng1).cut);
        sumMany += static_cast<double>(mlMany.run(h, rng2).cut);
    }
    EXPECT_LE(sumMany, sumOne * 1.15); // extra starts must not hurt much
}

TEST(Multilevel, AlternativeCoarsenersWork) {
    const Hypergraph h = testing::mediumCircuit(500, 47);
    for (CoarsenerKind kind : {CoarsenerKind::kRandomMatch, CoarsenerKind::kHeavyEdgeMatch}) {
        MLConfig cfg = baseConfig();
        cfg.coarsener = kind;
        MultilevelPartitioner ml(cfg, makeFMFactory({}));
        std::mt19937_64 rng(23);
        const MLResult r = ml.run(h, rng);
        EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition)) << toString(kind);
    }
}

TEST(Multilevel, QuadrisectionWithKWayEngine) {
    const Hypergraph h = testing::mediumCircuit(600, 53);
    MLConfig cfg = baseConfig();
    cfg.k = 4;
    cfg.coarseningThreshold = 100; // the paper's quadrisection setting
    MultilevelPartitioner ml(cfg, makeKWayFactory({}));
    std::mt19937_64 rng(29);
    const MLResult r = ml.run(h, rng);
    EXPECT_EQ(r.partition.numParts(), 4);
    EXPECT_EQ(r.cut, testing::bruteForceCut(h, r.partition));
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 4, 0.1).satisfied(r.partition));
    // All four blocks populated.
    for (PartId p = 0; p < 4; ++p) EXPECT_GT(r.partition.blockSize(p), 0);
}

TEST(Multilevel, PreassignmentIsRespected) {
    const Hypergraph h = testing::mediumCircuit(400, 59);
    MLConfig cfg = baseConfig();
    cfg.k = 4;
    cfg.preassignment.assign(static_cast<std::size_t>(h.numModules()), kInvalidPart);
    cfg.preassignment[0] = 0;
    cfg.preassignment[1] = 1;
    cfg.preassignment[2] = 2;
    cfg.preassignment[3] = 3;
    MultilevelPartitioner ml(cfg, makeKWayFactory({}));
    std::mt19937_64 rng(31);
    const MLResult r = ml.run(h, rng);
    EXPECT_EQ(r.partition.part(0), 0);
    EXPECT_EQ(r.partition.part(1), 1);
    EXPECT_EQ(r.partition.part(2), 2);
    EXPECT_EQ(r.partition.part(3), 3);
}

/// Fixed-seed ML CLIP results (R = 0.5, two starts from one rng) under the
/// paper's stopping rule, as computed before the pass budget existed: the
/// paper-table binaries must keep reproducing them bit for bit. The
/// default budget changes at least one of them, so the pins would catch a
/// paper path that silently fell back to the budget.
TEST(Multilevel, PaperStoppingRuleReproducesPinnedResults) {
    struct Pin {
        const char* circuit;
        Weight cut[2];
        std::uint32_t crc[2];
    };
    const Pin pins[] = {{"biomed", {55, 56}, {0x8124fb41u, 0x21c0cf70u}},
                        {"s13207", {63, 65}, {0xb598f0fcu, 0x31eddfbdu}}};
    FMConfig budget;
    budget.variant = EngineVariant::kCLIP;
    FMConfig paper = budget;
    paper.maxPasses = kPaperMaxPasses;
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    cfg.prePassMinModules = 0;
    auto crcOf = [](const Partition& p) {
        const std::vector<std::uint8_t> blob = encodePartitionBinary(p);
        return robust::crc32(blob.data(), blob.size());
    };
    int budgetDiffers = 0;
    for (const Pin& pin : pins) {
        const Hypergraph h = benchmarkInstance(pin.circuit);
        MultilevelPartitioner mlPaper(cfg, makeFMFactory(paper));
        MultilevelPartitioner mlBudget(cfg, makeFMFactory(budget));
        std::mt19937_64 rngPaper(1), rngBudget(1);
        for (int run = 0; run < 2; ++run) {
            const MLResult r = mlPaper.run(h, rngPaper);
            EXPECT_EQ(r.cut, pin.cut[run]) << pin.circuit << " run " << run;
            EXPECT_EQ(crcOf(r.partition), pin.crc[run]) << pin.circuit << " run " << run;
            if (crcOf(mlBudget.run(h, rngBudget).partition) != pin.crc[run]) ++budgetDiffers;
        }
    }
    EXPECT_GT(budgetDiffers, 0);
}

/// Fixed-seed results of the default serial V-cycle at k = 2: ML CLIP
/// with the pass budget, R = 0.5, and the LP pre-pass on every level of
/// >= 4,096 modules (both circuits have such levels), on the rng stream
/// of the paper pins above. At least one result must differ from its
/// paper pin, so the pins would catch a serial V-cycle that silently
/// skipped the pre-pass.
TEST(Multilevel, SerialPrePassReproducesPinnedResults) {
    struct Pin {
        const char* circuit;
        Weight cut[2];
        std::uint32_t crc[2];
        std::uint32_t paperCrc[2];
    };
    const Pin pins[] = {{"biomed", {55, 56}, {0x8124fb41u, 0x877a5421u}, {0x8124fb41u, 0x21c0cf70u}},
                        {"s13207", {63, 62}, {0xecae543au, 0xc9018b34u}, {0xb598f0fcu, 0x31eddfbdu}}};
    FMConfig clip;
    clip.variant = EngineVariant::kCLIP;
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    auto crcOf = [](const Partition& p) {
        const std::vector<std::uint8_t> blob = encodePartitionBinary(p);
        return robust::crc32(blob.data(), blob.size());
    };
    int paperDiffers = 0;
    for (const Pin& pin : pins) {
        const Hypergraph h = benchmarkInstance(pin.circuit);
        ASSERT_GE(h.numModules(), cfg.prePassMinModules) << pin.circuit;
        MultilevelPartitioner ml(cfg, makeFMFactory(clip));
        std::mt19937_64 rng(1);
        for (int run = 0; run < 2; ++run) {
            const MLResult r = ml.run(h, rng);
            EXPECT_EQ(r.cut, pin.cut[run]) << pin.circuit << " run " << run;
            EXPECT_EQ(crcOf(r.partition), pin.crc[run]) << pin.circuit << " run " << run;
            if (crcOf(r.partition) != pin.paperCrc[run]) ++paperDiffers;
        }
    }
    EXPECT_GT(paperDiffers, 0);
}

TEST(Multilevel, RejectsBadConfig) {
    MLConfig cfg = baseConfig();
    cfg.coarseningThreshold = 1;
    EXPECT_THROW(MultilevelPartitioner(cfg, makeFMFactory({})), std::invalid_argument);
    cfg = baseConfig();
    cfg.matchingRatio = 0.0;
    EXPECT_THROW(MultilevelPartitioner(cfg, makeFMFactory({})), std::invalid_argument);
    cfg = baseConfig();
    cfg.k = 1;
    EXPECT_THROW(MultilevelPartitioner(cfg, makeFMFactory({})), std::invalid_argument);
    cfg = baseConfig();
    EXPECT_THROW(MultilevelPartitioner(cfg, RefinerFactory{}), std::invalid_argument);
    cfg = baseConfig();
    cfg.coarsestStarts = 0;
    EXPECT_THROW(MultilevelPartitioner(cfg, makeFMFactory({})), std::invalid_argument);
    // The pre-pass threshold is 0 (off) or a level size of at least 2.
    for (const ModuleId bad : {1, -1}) {
        cfg = baseConfig();
        cfg.prePassMinModules = bad;
        EXPECT_THROW(MultilevelPartitioner(cfg, makeFMFactory({})), std::invalid_argument) << bad;
    }
    cfg = baseConfig();
    cfg.prePassMinModules = 0;
    EXPECT_NO_THROW(MultilevelPartitioner(cfg, makeFMFactory({})));
    // Preassignment size mismatch surfaces at run().
    cfg = baseConfig();
    cfg.preassignment.assign(3, kInvalidPart);
    MultilevelPartitioner ml(cfg, makeFMFactory({}));
    std::mt19937_64 rng(1);
    const Hypergraph h = testing::mediumCircuit(200);
    EXPECT_THROW(ml.run(h, rng), std::invalid_argument);
}

} // namespace
} // namespace mlpart
