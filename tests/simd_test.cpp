// Tests for the src/perf pass-start kernels (DESIGN.md §14).
//
// Two levels:
//   1. Kernel-level: classifyNetsHot, gatherSum and classifyKWayCounts
//      against the formulas perf/simd.h documents, on literal fixtures
//      (the inactive sentinel, counts no real net has) and on random
//      inputs, including k = 4, the width classifyKWayCounts compiles
//      separately.
//   2. Pinned results: the cut and the partition CRC of runs whose pass
//      starts go through these kernels — multilevel bisection with every
//      matcher, flat FM, and a parallel-mode run whose large levels take
//      the LP pre-pass. A kernel or layout change that moves any
//      partition fails here.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/io.h"
#include "hypergraph/partition.h"
#include "perf/simd.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "refine/prop_refiner.h"
#include "refine/workspace.h"
#include "robust/thread_pool.h"
#include "robust/wire.h"

namespace mlpart {
namespace {

// ---- kernels against their formulas ------------------------------------

/// Gains and cut flags by the documented classification formula.
struct Classified {
    std::vector<Weight> gain; ///< two planes: [e] side 0, [m + e] side 1
    std::vector<char> cut;
};

Classified classifyByFormula(const std::vector<perf::NetHot>& nets) {
    const std::size_t m = nets.size();
    Classified c{std::vector<Weight>(2 * m), std::vector<char>(m)};
    for (std::size_t e = 0; e < m; ++e) {
        const perf::NetHot& n = nets[e];
        for (std::size_t s = 0; s < 2; ++s)
            c.gain[s * m + e] = n.w * ((n.pc[s] == 1) - (n.pc[1 - s] == 0));
        c.cut[e] = (n.pc[0] > 0 && n.pc[1] > 0) ? 1 : 0;
    }
    return c;
}

Classified runClassifyNetsHot(const std::vector<perf::NetHot>& nets, bool withCut) {
    const std::size_t m = nets.size();
    Classified c{std::vector<Weight>(2 * m, -7), std::vector<char>(m, 2)};
    perf::classifyNetsHot(nets.data(), m, c.gain.data(), withCut ? c.cut.data() : nullptr);
    return c;
}

TEST(SimdKernels, ClassifyNetsHotFixtures) {
    // {1, 0} and {0, 1} never occur in a real net (the builder drops nets
    // with fewer than 2 pins); the formula sends them to 0, where FM's
    // if/else (pc[s] == 1 first) would give +w.
    const std::vector<perf::NetHot> nets = {
        {{1, 3}, 5}, {{0, 2}, 4}, {{2, 1}, 3}, {{1, 1}, 2},
        {{1, 0}, 7}, {{0, 1}, 9}, perf::kInactiveNet, {{4, 4}, 6},
    };
    const std::vector<Weight> side0 = {5, 0, 0, 2, 0, 0, 0, 0};
    const std::vector<Weight> side1 = {0, -4, 3, 2, 0, 0, 0, 0};
    const std::vector<char> cut = {1, 0, 1, 1, 0, 0, 0, 1};
    const Classified got = runClassifyNetsHot(nets, true);
    const std::size_t m = nets.size();
    EXPECT_EQ(std::vector<Weight>(got.gain.begin(), got.gain.begin() + m), side0);
    EXPECT_EQ(std::vector<Weight>(got.gain.begin() + m, got.gain.end()), side1);
    EXPECT_EQ(got.cut, cut);
    // A null cut pointer leaves the gain planes unchanged.
    EXPECT_EQ(runClassifyNetsHot(nets, false).gain, got.gain);
}

TEST(SimdKernels, ClassifyNetsHotMatchesFormula) {
    std::mt19937_64 rng(12);
    std::uniform_int_distribution<std::int32_t> countDist(0, 5);
    std::uniform_int_distribution<Weight> weightDist(1, Weight{1} << 32);
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{63},
                                std::size_t{1024}, std::size_t{5001}}) {
        std::vector<perf::NetHot> nets(m);
        for (perf::NetHot& n : nets) {
            n = perf::kInactiveNet;
            if (rng() % 8 != 0) n = perf::NetHot{{countDist(rng), countDist(rng)}, weightDist(rng)};
        }
        const Classified want = classifyByFormula(nets);
        const Classified got = runClassifyNetsHot(nets, true);
        EXPECT_EQ(got.gain, want.gain) << "m=" << m;
        EXPECT_EQ(got.cut, want.cut) << "m=" << m;
        EXPECT_EQ(runClassifyNetsHot(nets, false).gain, want.gain) << "m=" << m;
    }
}

TEST(SimdKernels, GatherSumMatchesFormula) {
    std::mt19937_64 rng(13);
    const std::size_t planeLen = 3000;
    std::vector<Weight> plane(planeLen);
    std::uniform_int_distribution<Weight> vDist(-(Weight{1} << 40), Weight{1} << 40);
    for (Weight& w : plane) w = vDist(rng);
    std::uniform_int_distribution<NetId> idxDist(0, static_cast<NetId>(planeLen - 1));
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                    std::size_t{8}, std::size_t{33}, std::size_t{257}}) {
        std::vector<NetId> idx(count);
        for (NetId& i : idx) i = idxDist(rng);
        Weight want = 0;
        for (const NetId i : idx) want += plane[static_cast<std::size_t>(i)];
        EXPECT_EQ(perf::gatherSum(plane.data(), idx.data(), count), want) << "count=" << count;
    }
}

TEST(SimdKernels, ClassifyKWayCountsMatchesFormula) {
    std::mt19937_64 rng(14);
    for (const std::int32_t k : {2, 3, 4, 8, 64}) {
        const std::size_t kSz = static_cast<std::size_t>(k);
        const std::size_t m = 701;
        std::vector<std::int32_t> counts(m * kSz);
        std::vector<char> active(m);
        std::uniform_int_distribution<std::int32_t> countDist(0, 3);
        for (std::size_t e = 0; e < m; ++e) {
            active[e] = (rng() % 8) != 0 ? 1 : 0;
            for (std::size_t j = 0; j < kSz; ++j) counts[e * kSz + j] = countDist(rng);
        }
        std::vector<std::uint64_t> want1(m, 0), want0(m, 0);
        for (std::size_t e = 0; e < m; ++e) {
            if (active[e] == 0) continue;
            for (std::size_t j = 0; j < kSz; ++j) {
                if (counts[e * kSz + j] == 1) want1[e] |= std::uint64_t{1} << j;
                if (counts[e * kSz + j] == 0) want0[e] |= std::uint64_t{1} << j;
            }
        }
        std::vector<std::uint64_t> got1(m, ~0ULL), got0(m, ~0ULL);
        perf::classifyKWayCounts(counts.data(), active.data(), m, k, got1.data(), got0.data());
        EXPECT_EQ(got1, want1) << "k=" << k;
        EXPECT_EQ(got0, want0) << "k=" << k;
    }
}

// ---- pinned results ------------------------------------------------------

struct Pin {
    Weight cut;
    std::uint32_t crc;
};

std::uint32_t crcOf(const Partition& p) {
    const std::vector<std::uint8_t> blob = encodePartitionBinary(p);
    return robust::crc32(blob.data(), blob.size());
}

TEST(KernelPinnedResults, MultilevelEveryMatcherSeedsOneToFive) {
    // [instance][matcher][seed - 1]: balu and struct at scale 0.35;
    // connectivity, random and heavy-edge matching.
    const Pin pins[2][3][5] = {
        {{{9, 0x8e464125u}, {9, 0x6f635f1cu}, {9, 0x7584c6eau}, {9, 0x94a1d8d3u},
          {10, 0xf6b8ffefu}},
         {{9, 0x0aea2a4cu}, {9, 0x94a1d8d3u}, {14, 0xf0162832u}, {19, 0xc685c157u},
          {9, 0x8e464125u}},
         {{17, 0x522abe7bu}, {11, 0x101e8707u}, {9, 0x8e464125u}, {15, 0x86e12301u},
          {15, 0x9956754du}}},
        {{{16, 0x7e756479u}, {17, 0xac91ea7au}, {16, 0x8a40f87cu}, {17, 0x064fb6d4u},
          {16, 0x90e43601u}},
         {{16, 0xbe21361au}, {16, 0x69a4a3c6u}, {40, 0x050b98edu}, {18, 0xfe2c3febu},
          {16, 0x3e7b428au}},
         {{17, 0x8c2e5726u}, {16, 0x25c63b5fu}, {16, 0xd269bd42u}, {17, 0xf0f98761u},
          {16, 0x1f48e6e3u}}},
    };
    const char* const names[2] = {"balu", "struct"};
    const CoarsenerKind matchers[3] = {CoarsenerKind::kConnectivityMatch,
                                       CoarsenerKind::kRandomMatch,
                                       CoarsenerKind::kHeavyEdgeMatch};
    for (int i = 0; i < 2; ++i) {
        const Hypergraph h = benchmarkInstance(names[i], 0.35);
        for (int j = 0; j < 3; ++j) {
            MLConfig cfg;
            cfg.coarsener = matchers[j];
            cfg.matchingRatio = 0.5;
            MultilevelPartitioner ml(cfg, makeFMFactory(FMConfig{}));
            for (int seed = 1; seed <= 5; ++seed) {
                std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
                const MLResult r = ml.run(h, rng);
                const Pin& pin = pins[i][j][seed - 1];
                EXPECT_EQ(r.cut, pin.cut) << names[i] << " " << toString(matchers[j]) << " seed "
                                          << seed;
                EXPECT_EQ(crcOf(r.partition), pin.crc)
                    << names[i] << " " << toString(matchers[j]) << " seed " << seed;
            }
        }
    }
}

TEST(KernelPinnedResults, FlatFMPrimary1SeedsOneToFive) {
    // Flat FM builds its buckets on the plane path at every pass (primary1
    // at scale 0.5 is far below the plane budget), with no coarsening.
    const Pin pins[5] = {{18, 0x5c641f98u}, {49, 0x7cda1c88u}, {19, 0xf056cad9u},
                         {38, 0x06d31029u}, {37, 0x6cba9e86u}};
    const Hypergraph h = benchmarkInstance("primary1", 0.5);
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    for (int seed = 1; seed <= 5; ++seed) {
        std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
        Partition p = randomPartition(h, 2, bc, rng);
        FMRefiner fm(h, FMConfig{});
        EXPECT_EQ(fm.refine(p, bc, rng), pins[seed - 1].cut) << "seed " << seed;
        EXPECT_EQ(crcOf(p), pins[seed - 1].crc) << "seed " << seed;
    }
}

TEST(KernelPinnedResults, ParallelModeS15850) {
    // s15850's finest levels hold more than prePassMinModules (4096)
    // modules, so the parallel V-cycle runs the LP pre-pass there before
    // FM. On these starts the projected bisections leave it little to do;
    // PrePassOnRandomBisections pins its moves directly.
    const Pin pins[2] = {{68, 0x147d5970u}, {66, 0x07bf493fu}};
    const Hypergraph h = benchmarkInstance("s15850");
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    cfg.vcycleThreads = 2;
    ASSERT_GE(h.numModules(), cfg.prePassMinModules);
    MultilevelPartitioner ml(cfg, makeFMFactory(FMConfig{}));
    std::mt19937_64 rng(1);
    for (int run = 0; run < 2; ++run) {
        const MLResult r = ml.run(h, rng);
        EXPECT_EQ(r.cut, pins[run].cut) << "run " << run;
        EXPECT_EQ(crcOf(r.partition), pins[run].crc) << "run " << run;
    }
}

TEST(KernelPinnedResults, PrePassOnRandomBisections) {
    // The pre-pass's scores come from classifyNetsHot planes over its
    // NetHot pin counts; from a random bisection of s15850 it applies
    // thousands of moves. Its total gain, the cut and the partition must
    // not depend on the pool's thread count.
    struct PrePassPin {
        Weight cutBefore, gain;
        std::uint32_t crc;
    };
    const PrePassPin pins[2] = {{6331, 4444, 0x741dbde9u}, {6420, 4532, 0x23775fe7u}};
    const Hypergraph h = benchmarkInstance("s15850");
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    for (const int threads : {1, 3}) {
        robust::ThreadPool pool(threads);
        refine::Workspace ws;
        for (int seed = 1; seed <= 2; ++seed) {
            const PrePassPin& pin = pins[seed - 1];
            std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
            Partition p = randomPartition(h, 2, bc, rng);
            ASSERT_EQ(cutWeight(h, p), pin.cutBefore) << "seed " << seed;
            EXPECT_EQ(parallelPrePass(h, p, bc, {}, pool, ws), pin.gain)
                << "seed " << seed << " threads " << threads;
            EXPECT_EQ(cutWeight(h, p), pin.cutBefore - pin.gain)
                << "seed " << seed << " threads " << threads;
            EXPECT_EQ(crcOf(p), pin.crc) << "seed " << seed << " threads " << threads;
        }
    }
}

} // namespace
} // namespace mlpart
