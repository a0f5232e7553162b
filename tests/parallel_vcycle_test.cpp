// Thread-determinism harness for the deterministic parallel V-cycle
// (DESIGN.md §12). The contract under test: with MLConfig::vcycleThreads
// >= 1, the thread count is an execution resource, never an input — every
// matcher x seed x thread-count combination must produce bit-identical
// partitions, level statistics, and (level by level) bit-identical coarse
// hypergraphs. Plus the allocation-discipline bound: a warm parallel
// V-cycle allocates O(levels) times, like the serial path.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "check/verify_hypergraph.h"
#include "check/verify_partition.h"
#include "coarsen/coarsen_kernel.h"
#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/builder.h"
#include "refine/multistart.h"
#include "robust/thread_pool.h"
#include "test_util.h"

namespace mlpart {
namespace {

// ---- counting allocator -------------------------------------------------
// Same discipline as coarsen_kernel_test: global new/delete overrides,
// only the deltas sampled around the code under test matter.
std::atomic<std::int64_t> g_allocCount{0};

std::int64_t allocationsSinceStart() { return g_allocCount.load(std::memory_order_relaxed); }

} // namespace
} // namespace mlpart

void* operator new(std::size_t size) {
    mlpart::g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    mlpart::g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mlpart {
namespace {

std::vector<PartId> assignmentVec(const Partition& p) {
    const auto a = p.assignment();
    return std::vector<PartId>(a.begin(), a.end());
}

MLConfig parallelConfig(CoarsenerKind kind, int threads) {
    MLConfig cfg;
    cfg.coarsener = kind;
    cfg.matchingRatio = 0.5;
    cfg.vcycleThreads = threads;
    // Low enough that the LP pre-pass actually runs on test-sized
    // circuits — determinism must hold through it, not around it.
    cfg.prePassMinModules = 64;
    return cfg;
}

MLResult runOnce(const Hypergraph& h, CoarsenerKind kind, int threads, std::uint64_t seed) {
    FMConfig fm;
    fm.variant = EngineVariant::kCLIP;
    const MultilevelPartitioner ml(parallelConfig(kind, threads), makeFMFactory(fm));
    std::mt19937_64 rng(seed);
    return ml.run(h, rng);
}

/// The hard bar: for every matcher and seed, runs at 2/4/8 threads must be
/// bit-identical to the 1-thread run — cut, hierarchy shape, and the full
/// per-module assignment.
TEST(ParallelVCycle, BitIdenticalAcrossThreadCounts) {
    const Hypergraph h = testing::mediumCircuit(900, 3);
    for (const CoarsenerKind kind : {CoarsenerKind::kConnectivityMatch,
                                     CoarsenerKind::kRandomMatch,
                                     CoarsenerKind::kHeavyEdgeMatch}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "matcher " << toString(kind) << " seed " << seed);
            const MLResult oracle = runOnce(h, kind, 1, seed);
            check::PartitionCheckOptions opts;
            opts.expectedCut = oracle.cut;
            const auto ok = check::verifyPartition(h, oracle.partition, opts);
            ASSERT_TRUE(ok.ok()) << ok.summary();
            for (const int threads : {2, 4, 8}) {
                SCOPED_TRACE(::testing::Message() << "threads " << threads);
                const MLResult got = runOnce(h, kind, threads, seed);
                EXPECT_EQ(got.cut, oracle.cut);
                EXPECT_EQ(got.levels, oracle.levels);
                EXPECT_EQ(got.levelModules, oracle.levelModules);
                ASSERT_EQ(assignmentVec(got.partition), assignmentVec(oracle.partition));
            }
        }
    }
}

/// Thread count must not leak into the result fingerprint either: runs that
/// are bit-identical must checkpoint-fingerprint identically, while turning
/// parallel mode on/off must change it (different algorithms).
TEST(ParallelVCycle, ConfigFingerprintIgnoresThreadCountButNotMode) {
    MLConfig a = parallelConfig(CoarsenerKind::kConnectivityMatch, 1);
    MLConfig b = parallelConfig(CoarsenerKind::kConnectivityMatch, 8);
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
    MLConfig serial = a;
    serial.vcycleThreads = 0;
    EXPECT_NE(configFingerprint(a), configFingerprint(serial));
}

/// Level-by-level variant: the parallel matcher and the parallel coarsening
/// kernel, driven directly, must produce the same clustering and a
/// bit-identical coarse hypergraph for pools of 1, 2, 4, and 8 threads.
TEST(ParallelVCycle, PerLevelHierarchyIdenticalAcrossPools) {
    for (const CoarsenerKind kind : {CoarsenerKind::kConnectivityMatch,
                                     CoarsenerKind::kRandomMatch,
                                     CoarsenerKind::kHeavyEdgeMatch}) {
        SCOPED_TRACE(::testing::Message() << "matcher " << toString(kind));
        Hypergraph ref = testing::mediumCircuit(700, 9);
        robust::ThreadPool refPool(1);
        MatchWorkspace refMatch;
        CoarsenWorkspace refCoarsen;

        std::vector<Hypergraph> others; // current level at 2/4/8 threads
        std::vector<std::unique_ptr<robust::ThreadPool>> pools;
        for (const int t : {2, 4, 8}) {
            others.push_back(testing::mediumCircuit(700, 9));
            pools.push_back(std::make_unique<robust::ThreadPool>(t));
        }
        MatchWorkspace otherMatch[3];
        CoarsenWorkspace otherCoarsen[3];

        std::uint64_t seed = 17;
        int guard = 0;
        while (ref.numModules() > 35 && guard++ < 64) {
            MatchConfig mc;
            mc.ratio = 0.5;
            const Clustering c = matchParallel(kind, ref, mc, seed, refPool, refMatch);
            if (c.numClusters == ref.numModules()) break; // no progress
            const Hypergraph coarse = induceInto(ref, c, refCoarsen, &refPool);
            for (std::size_t i = 0; i < others.size(); ++i) {
                SCOPED_TRACE(::testing::Message()
                             << "level " << guard << " pool " << pools[i]->threads());
                const Clustering ci =
                    matchParallel(kind, others[i], mc, seed, *pools[i], otherMatch[i]);
                ASSERT_EQ(ci.numClusters, c.numClusters);
                ASSERT_EQ(ci.clusterOf, c.clusterOf);
                const Hypergraph gi =
                    induceInto(others[i], ci, otherCoarsen[i], pools[i].get());
                const check::CheckResult r = check::verifyIdenticalHypergraphs(gi, coarse);
                ASSERT_TRUE(r.ok()) << r.summary();
                others[i] = gi;
            }
            ref = coarse;
            seed = seed * 0x9e3779b97f4a7c15ULL + 1;
        }
        ASSERT_LE(ref.numModules(), 70) << "coarsening stalled far above the threshold";
    }
}

/// A hub with leaves on 2-pin nets; every module but the hub also sits on
/// 12-pin nets, above the matching limit. Mutual proposals match the hub
/// with one leaf and nothing else, so coarsening used to shed one module
/// per level. The two-hop pass pairs the remaining leaves through their
/// shared anchor up to the matching ratio, identically for every pool size.
TEST(ParallelVCycle, TwoHopPairsStarLeavesAcrossPools) {
    constexpr ModuleId kLeaves = 41;
    constexpr ModuleId kOthers = 37; // 12-pin nets, stride 6, cover modules 1..78
    HypergraphBuilder b(1 + kLeaves + kOthers);
    for (ModuleId leaf = 1; leaf <= kLeaves; ++leaf) b.addNet({0, leaf});
    for (ModuleId first = 1; first + 12 <= 1 + kLeaves + kOthers; first += 6) {
        std::vector<ModuleId> pins(12);
        for (ModuleId i = 0; i < 12; ++i) pins[static_cast<std::size_t>(i)] = first + i;
        b.addNet(pins);
    }
    const Hypergraph h = std::move(b).build();

    for (const CoarsenerKind kind : {CoarsenerKind::kConnectivityMatch,
                                     CoarsenerKind::kRandomMatch,
                                     CoarsenerKind::kHeavyEdgeMatch}) {
        for (const double ratio : {1.0, 0.25}) {
            SCOPED_TRACE(::testing::Message() << "matcher " << toString(kind) << " R " << ratio);
            MatchConfig mc; // paper's 10-pin limit
            mc.ratio = ratio;
            robust::ThreadPool refPool(1);
            MatchWorkspace refWs;
            const Clustering ref = matchParallel(kind, h, mc, 5, refPool, refWs);
            std::vector<int> members(static_cast<std::size_t>(ref.numClusters), 0);
            for (const ModuleId c : ref.clusterOf) ++members[static_cast<std::size_t>(c)];
            for (const int m : members) EXPECT_LE(m, 2) << "clusters must stay pairs";
            for (ModuleId v = 1 + kLeaves; v < h.numModules(); ++v)
                EXPECT_EQ(members[static_cast<std::size_t>(ref.clusterOf[static_cast<std::size_t>(v)])], 1)
                    << "module " << v << " has no small net and must stay single";
            const ModuleId pairs = h.numModules() - ref.numClusters;
            const double target = ratio * static_cast<double>(h.numModules());
            if (ratio == 1.0) {
                EXPECT_GE(pairs, (kLeaves - 1) / 2);
            } else { // stops as soon as R * n modules are matched
                EXPECT_GE(2.0 * pairs, target);
                EXPECT_LT(2.0 * (pairs - 1), target);
            }
            for (const int t : {2, 4, 8}) {
                robust::ThreadPool pool(t);
                MatchWorkspace ws;
                const Clustering got = matchParallel(kind, h, mc, 5, pool, ws);
                EXPECT_EQ(got.numClusters, ref.numClusters) << "threads " << t;
                EXPECT_EQ(got.clusterOf, ref.clusterOf) << "threads " << t;
            }
        }
    }
}

/// The parallel V-cycle's hierarchy must be about as deep as the serial
/// one: without the two-hop pass these runs coarsen in 42 and 58 levels
/// against 15 and 21 serially.
TEST(ParallelVCycle, HierarchyDepthTracksSerial) {
    for (const char* name : {"s9234", "s13207"}) {
        SCOPED_TRACE(name);
        const Hypergraph h = benchmarkInstance(name);
        FMConfig fm;
        fm.variant = EngineVariant::kCLIP;
        MLConfig serialCfg;
        MLConfig parallelCfg;
        parallelCfg.vcycleThreads = 4;
        std::mt19937_64 r0(1);
        const MLResult serial = MultilevelPartitioner(serialCfg, makeFMFactory(fm)).run(h, r0);
        std::mt19937_64 r1(1);
        const MLResult parallel = MultilevelPartitioner(parallelCfg, makeFMFactory(fm)).run(h, r1);
        EXPECT_LE(parallel.levels, serial.levels + 4)
            << "parallel " << parallel.levels << " levels vs serial " << serial.levels;
    }
}

/// A single workspace must serve runs at different thread counts back to
/// back (the pool is recreated, results stay identical) — the multi-start
/// service reuses workspaces this way.
TEST(ParallelVCycle, WorkspaceSurvivesThreadCountChanges) {
    const Hypergraph h = testing::mediumCircuit(600, 5);
    FMConfig fm;
    const MultilevelPartitioner ml1(parallelConfig(CoarsenerKind::kConnectivityMatch, 1),
                                    makeFMFactory(fm));
    const MultilevelPartitioner ml4(parallelConfig(CoarsenerKind::kConnectivityMatch, 4),
                                    makeFMFactory(fm));
    MLWorkspace ws;
    std::mt19937_64 r1(42);
    const MLResult a = ml1.run(h, r1, robust::Deadline{}, ws);
    std::mt19937_64 r2(42);
    const MLResult b = ml4.run(h, r2, robust::Deadline{}, ws); // pool 1 -> 4, same ws
    std::mt19937_64 r3(42);
    const MLResult c = ml1.run(h, r3, robust::Deadline{}, ws); // back to 1
    EXPECT_EQ(a.cut, b.cut);
    EXPECT_EQ(assignmentVec(a.partition), assignmentVec(b.partition));
    EXPECT_EQ(assignmentVec(a.partition), assignmentVec(c.partition));
    ws.shrinkToFit();
    EXPECT_EQ(ws.capacityBytes(), 0u);
}

TEST(ParallelVCycleAllocationDiscipline, WarmRunsAllocateOLevels) {
#if MLPART_CHECK_INVARIANTS
    // The checked build's differential oracle re-runs the builder-path
    // induce (and allocates audit state) on every level, so the
    // production-build allocation bound does not apply.
    GTEST_SKIP() << "allocation discipline is asserted in non-checked builds only";
#endif
    const Hypergraph h = testing::mediumCircuit(4000, 11);

    MLConfig cfg = parallelConfig(CoarsenerKind::kConnectivityMatch, 4);
    FMConfig fm;
    fm.variant = EngineVariant::kCLIP;
    const MultilevelPartitioner ml(cfg, makeFMFactory(fm));

    MLWorkspace ws;
    std::mt19937_64 rng(1);
    const MLResult warm = ml.run(h, rng, robust::Deadline{}, ws); // sizes every pooled buffer
    ASSERT_GT(warm.levels, 3);

    const std::int64_t before = allocationsSinceStart();
    const MLResult second = ml.run(h, rng, robust::Deadline{}, ws);
    const std::int64_t warmAllocs = allocationsSinceStart() - before;

    // Same O(levels) bound as the serial path (coarsen_kernel_test), plus
    // a small per-level allowance for the pre-pass's fixed-mask copy. The
    // parallel machinery itself (pool dispatch, chunk claiming, per-worker
    // scratch) must be allocation-free once warm.
    const std::int64_t perLevelBudget = 56;
    EXPECT_LT(warmAllocs, 128 + perLevelBudget * static_cast<std::int64_t>(second.levels))
        << "warm parallel V-cycle allocated " << warmAllocs << " times over "
        << second.levels << " levels";
    EXPECT_LT(warmAllocs, static_cast<std::int64_t>(h.numModules()));
}

} // namespace
} // namespace mlpart
