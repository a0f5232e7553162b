// Differential tests pinning the coarsening kernel (induceInto), serial
// and on a thread pool, to the legacy HypergraphBuilder path
// (induceReference), plus the V-cycle allocation-discipline check: after
// one warm-up run, a whole V-cycle through pooled workspaces allocates
// O(levels) times, not O(levels x modules).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "check/verify_hypergraph.h"
#include "coarsen/coarsen_kernel.h"
#include "coarsen/induce.h"
#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/builder.h"
#include "kway/kway_refiner.h"
#include "refine/multistart.h"
#include "robust/thread_pool.h"
#include "test_util.h"

namespace mlpart {
namespace {

// ---- counting allocator -------------------------------------------------
// Global new/delete overrides: every heap allocation in the test binary
// bumps the counter. Only the deltas sampled around the code under test
// matter; gtest's own allocations outside those windows are irrelevant.
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

/// Kernel workspaces that outlive one hierarchy: one for the serial path
/// and one for a 4-thread pool. Reusing them across instances of
/// different sizes runs every level over scratch left by larger ones.
struct KernelRig {
    robust::ThreadPool pool{4};
    CoarsenWorkspace serial;
    CoarsenWorkspace pooled;
};

/// Diffs one clustering's kernel output against the builder path:
/// serially through `serialWs`, and on `rig`'s pool when one is given.
/// Returns the serial output.
Hypergraph compareLevel(const Hypergraph& h, const Clustering& c, CoarsenWorkspace& serialWs,
                        KernelRig* rig) {
    Hypergraph got = induceInto(h, c, serialWs);
    const Hypergraph want = induceReference(h, c);
    check::CheckResult r = check::verifyIdenticalHypergraphs(got, want);
    EXPECT_TRUE(r.ok()) << "serial: " << r.summary();
    EXPECT_GT(r.factsChecked, 0);
    if (rig != nullptr) {
        r = check::verifyIdenticalHypergraphs(induceInto(h, c, rig->pooled, &rig->pool), want);
        EXPECT_TRUE(r.ok()) << "pooled: " << r.summary();
    }
    return got;
}

/// Coarsens `h` level by level with the given matcher (R = 0.5) down to
/// `threshold` modules, comparing the kernel's output against the builder
/// path on every level (also pooled, through `rig`, when given).
void compareAllLevels(Hypergraph h, CoarsenerKind kind, std::uint64_t seed,
                      ModuleId threshold = 35, KernelRig* rig = nullptr) {
    std::mt19937_64 rng(seed);
    CoarsenWorkspace local;
    CoarsenWorkspace& ws = rig != nullptr ? rig->serial : local;
    int guard = 0;
    while (h.numModules() > threshold && guard++ < 64) {
        SCOPED_TRACE(::testing::Message() << "level " << guard << ", " << h.numModules()
                                          << " modules");
        MatchConfig mc;
        mc.ratio = 0.5;
        // Two independent rng streams would diverge; clone the matcher's
        // clustering for both induce paths instead.
        const Clustering c = runMatcher(kind, h, mc, rng);
        if (c.numClusters == h.numModules()) break; // no progress (tiny inputs)
        h = compareLevel(h, c, ws, rig);
        if (::testing::Test::HasFailure()) return;
    }
}

/// A netlist built to stress parallel-net merging, with its clustering.
/// ~1k modules in 400 clusters of 1–4 (cluster ids shuffled, so mapped
/// pins arrive out of order). Each of 300 coarse nets spans 2–40
/// clusters (a quarter above 16, std::sort's insertion-sort cutoff) and
/// comes from 2–5 fine nets, each with a random member per cluster, so
/// some fine nets repeat (the builder keeps them apart) and all collapse
/// into one coarse net. Up to 40 more nets lie inside one cluster and
/// vanish.
struct MergeHeavy {
    Hypergraph h;
    Clustering c;
};

MergeHeavy mergeHeavy(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    constexpr ModuleId kClusters = 400;
    std::vector<std::vector<ModuleId>> members(kClusters);
    std::vector<ModuleId> ids(kClusters);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    Clustering c;
    c.numClusters = kClusters;
    for (ModuleId k = 0; k < kClusters; ++k) {
        const int size = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < size; ++i) {
            members[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)])].push_back(
                static_cast<ModuleId>(c.clusterOf.size()));
            c.clusterOf.push_back(ids[static_cast<std::size_t>(k)]);
        }
    }
    HypergraphBuilder b(static_cast<ModuleId>(c.clusterOf.size()));
    b.setMergeParallelNets(false);
    std::vector<ModuleId> clusters(kClusters);
    std::iota(clusters.begin(), clusters.end(), 0);
    std::vector<ModuleId> pins;
    for (int net = 0; net < 300; ++net) {
        const std::size_t span = rng() % 4 == 0 ? 17 + rng() % 24 : 2 + rng() % 15;
        std::shuffle(clusters.begin(), clusters.end(), rng);
        const int copies = 2 + static_cast<int>(rng() % 4);
        for (int copy = 0; copy < copies; ++copy) {
            pins.clear();
            for (std::size_t i = 0; i < span; ++i) {
                const auto& m = members[static_cast<std::size_t>(clusters[i])];
                pins.push_back(m[rng() % m.size()]);
            }
            b.addNet(pins, 1 + static_cast<Weight>(rng() % 3));
        }
    }
    for (int net = 0; net < 40; ++net) {
        const auto& m = members[rng() % kClusters];
        if (m.size() >= 2) b.addNet({m[0], m[1]});
    }
    return {std::move(b).build(), std::move(c)};
}

TEST(CoarsenKernelDifferential, GenSuiteAcrossSeeds) {
    // A spread of Table I synthetics (scaled) x seeds 1..5, connectivity
    // matching — the production configuration.
    for (const char* name : {"balu", "primary1", "struct", "test05", "primary2"}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
            compareAllLevels(benchmarkInstance(name, 0.5), CoarsenerKind::kConnectivityMatch, seed);
        }
    }
}

TEST(CoarsenKernelDifferential, AlternateMatchers) {
    // Random and heavy-edge matchings produce differently-shaped
    // clusterings (more singletons / heavier clusters); the kernel must
    // stay bit-identical under them too.
    for (const CoarsenerKind kind : {CoarsenerKind::kRandomMatch, CoarsenerKind::kHeavyEdgeMatch}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(::testing::Message() << static_cast<int>(kind) << " seed " << seed);
            compareAllLevels(benchmarkInstance("primary1", 0.5), kind, seed);
        }
    }
}

TEST(CoarsenKernelDifferential, DegenerateClusterings) {
    const Hypergraph h = testing::tinyPath();
    CoarsenWorkspace ws;

    // Identity clustering: coarse == fine.
    Clustering ident;
    ident.numClusters = h.numModules();
    for (ModuleId v = 0; v < h.numModules(); ++v) ident.clusterOf.push_back(v);
    auto r = check::verifyIdenticalHypergraphs(induceInto(h, ident, ws), induceReference(h, ident));
    EXPECT_TRUE(r.ok()) << r.summary();

    // Everything in one cluster: all nets vanish.
    Clustering one;
    one.numClusters = 1;
    one.clusterOf.assign(static_cast<std::size_t>(h.numModules()), 0);
    const Hypergraph coarse = induceInto(h, one, ws);
    EXPECT_EQ(coarse.numModules(), 1);
    EXPECT_EQ(coarse.numNets(), 0);
    r = check::verifyIdenticalHypergraphs(coarse, induceReference(h, one));
    EXPECT_TRUE(r.ok()) << r.summary();

    // Pairs that force parallel coarse nets ({0,1}{1,2} -> both {A,B}).
    Clustering pairs;
    pairs.numClusters = 3;
    pairs.clusterOf = {0, 0, 1, 1, 2, 2};
    r = check::verifyIdenticalHypergraphs(induceInto(h, pairs, ws), induceReference(h, pairs));
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(CoarsenKernelDifferential, MergeHeavyNetsSerialAndPooled) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        KernelRig rig;
        const MergeHeavy g = mergeHeavy(seed);
        const Hypergraph coarse = compareLevel(g.h, g.c, rig.serial, &rig);
        // At most one coarse net per group of 2-5 fine nets survives.
        EXPECT_LE(coarse.numNets(), 300);
        EXPECT_GE(g.h.numNets(), 600);
        compareAllLevels(coarse, CoarsenerKind::kConnectivityMatch, seed, 35, &rig);
    }
}

TEST(CoarsenKernelDifferential, FullScaleLevelsSerialAndPooled) {
    // Every level of the instances the kernel's timings are taken on:
    // golem3 (scaled) to T = 35, s15850 and avqsmall at full scale to
    // T = 100 (the k = 4 threshold). One rig throughout, so its workspaces
    // go from golem3's largest level down to a small netlist and back up.
    KernelRig rig;
    const CoarsenerKind conn = CoarsenerKind::kConnectivityMatch;
    compareAllLevels(benchmarkInstance("golem3", 0.35), conn, 1, 35, &rig);
    const MergeHeavy g = mergeHeavy(7);
    compareLevel(g.h, g.c, rig.serial, &rig);
    compareAllLevels(benchmarkInstance("s15850"), conn, 1, 100, &rig);
    compareAllLevels(benchmarkInstance("avqsmall"), conn, 1, 100, &rig);
}

TEST(VCycleAllocationDiscipline, WarmRunsAllocateOLevels) {
#if MLPART_CHECK_INVARIANTS
    // The checked build's differential oracle re-runs the builder-path
    // induce (and allocates audit state) on every level, so the
    // production-build allocation bound does not apply.
    GTEST_SKIP() << "allocation discipline is asserted in non-checked builds only";
#endif
    const Hypergraph h = testing::mediumCircuit(4000, 11);

    MLConfig cfg;
    cfg.matchingRatio = 0.5;
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

    // O(levels), not O(levels x modules): per level the driver may create
    // a handful of transient owners (the returned Hypergraph's arrays, the
    // per-level partition, refiner construction) — a generous constant per
    // level plus slack for the returned MLResult, but nowhere near the
    // module count. The pre-pooling driver spent tens of thousands of
    // allocations here.
    const std::int64_t perLevelBudget = 48;
    EXPECT_LT(warmAllocs, 128 + perLevelBudget * static_cast<std::int64_t>(second.levels))
        << "warm V-cycle allocated " << warmAllocs << " times over " << second.levels
        << " levels";
    EXPECT_LT(warmAllocs, static_cast<std::int64_t>(h.numModules()));
}

TEST(VCycleAllocationDiscipline, KWayWarmRunsAllocateOLevels) {
#if MLPART_CHECK_INVARIANTS
    GTEST_SKIP() << "allocation discipline is asserted in non-checked builds only";
#endif
    // The k-way twin of the bound above: with the k*(k-1) gain-bucket
    // head/tail lists bump-bound to Workspace::kBucketArena, a warm
    // quadrisection V-cycle must stay O(levels) too.
    const Hypergraph h = testing::mediumCircuit(4000, 13);

    MLConfig cfg;
    cfg.k = 4;
    cfg.coarseningThreshold = 100;
    cfg.matchingRatio = 0.5;
    KWayConfig kw;
    kw.clip = true;
    const MultilevelPartitioner ml(cfg, makeKWayFactory(kw));

    MLWorkspace ws;
    std::mt19937_64 rng(1);
    const MLResult warm = ml.run(h, rng, robust::Deadline{}, ws);
    ASSERT_GT(warm.levels, 3);

    const std::int64_t before = allocationsSinceStart();
    const MLResult second = ml.run(h, rng, robust::Deadline{}, ws);
    const std::int64_t warmAllocs = allocationsSinceStart() - before;

    const std::int64_t perLevelBudget = 64;
    EXPECT_LT(warmAllocs, 128 + perLevelBudget * static_cast<std::int64_t>(second.levels))
        << "warm k-way V-cycle allocated " << warmAllocs << " times over " << second.levels
        << " levels";
    EXPECT_LT(warmAllocs, static_cast<std::int64_t>(h.numModules()));
}

} // namespace
} // namespace mlpart
