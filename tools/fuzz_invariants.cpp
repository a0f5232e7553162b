// Deterministic invariant fuzzer: random circuits from the src/gen
// generators pushed through randomly configured flat and multilevel
// partitioning runs, with the src/check verifiers applied to every result.
//
// In a build with MLPART_CHECK_INVARIANTS=ON the engines additionally
// self-audit after every bucket build and every few dozen moves, so a run
// of this driver exercises the differential gain oracles over thousands of
// incremental updates. The driver is deterministic given --seed: every
// random decision flows from one std::mt19937_64.
//
// With --inject, every iteration additionally arms the deterministic
// fault injector (random seed/probability/kind, all sites) and asserts
// that the run either completes with a verified partition or fails with a
// *structured* error (robust::Error or std::bad_alloc) — any other escape
// or crash is a robustness bug.
//
// With --checkpoint, each iteration instead runs the crash-equivalence
// protocol: an uninterrupted multi-start is the oracle; a forked child
// runs the same work with checkpointing enabled and is SIGKILLed at a
// random delay; the parent then resumes from whatever checkpoint the
// child left behind (possibly none) and asserts the final result is
// bit-identical to the oracle.
//
// With --parallel, each iteration instead runs the thread-determinism
// differential: one random multilevel configuration in deterministic
// parallel mode, executed at vcycleThreads=1 (the oracle) and at a random
// thread count in [2, 8]; the cut AND the full per-module assignment must
// be bit-identical, or the run fails.
//
// With --portfolio, each iteration instead runs the lane-containment
// differential: the engine portfolio runs once clean (the oracle), then
// again with one randomly chosen lane's entry fault site armed at
// p=1.0. The faulted run must classify exactly that lane as dead, every
// surviving lane must reproduce its oracle cut bit-for-bit, the winner
// must equal the oracle's best lane excluding the dead engine, and the
// final partition must verify — a fault that leaks across lanes or
// perturbs a surviving lane's result fails the run.
//
// Usage: fuzz_invariants [--iterations N] [--seed S] [--modules M]
//                        [--inject] [--checkpoint] [--parallel] [--portfolio]
//                        [--verbose]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>

#if !defined(_WIN32)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "check/check.h"
#include "check/verify_hypergraph.h"
#include "coarsen/coarsen_kernel.h"
#include "coarsen/induce.h"
#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "core/parallel_multistart.h"
#include "gen/grid_generator.h"
#include "gen/random_hypergraph.h"
#include "gen/rent_generator.h"
#include "hypergraph/partition.h"
#include "kway/kway_refiner.h"
#include "portfolio/portfolio.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/fault_injector.h"
#include "robust/status.h"
#include "robust/thread_pool.h"

namespace {

using namespace mlpart;

struct Options {
    int iterations = 50;
    std::uint64_t seed = 1;
    ModuleId modules = 220; ///< upper bound on instance size
    bool inject = false;    ///< randomly arm the fault injector per iteration
    bool checkpoint = false; ///< kill-point / resume equivalence protocol
    bool parallel = false;   ///< thread-determinism differential mode
    bool portfolio = false;  ///< portfolio lane-containment differential mode
    bool verbose = false;
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--iterations N] [--seed S] [--modules M] [--inject] "
                 "[--checkpoint] [--parallel] [--portfolio] [--verbose]\n",
                 argv0);
    std::exit(2);
}

Options parseArgs(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (a == "--iterations") opt.iterations = std::atoi(value());
        else if (a == "--seed") opt.seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--modules") opt.modules = std::atoi(value());
        else if (a == "--inject") opt.inject = true;
        else if (a == "--checkpoint") opt.checkpoint = true;
        else if (a == "--parallel") opt.parallel = true;
        else if (a == "--portfolio") opt.portfolio = true;
        else if (a == "--verbose") opt.verbose = true;
        else usage(argv[0]);
    }
    if (opt.iterations < 1 || opt.modules < 16) usage(argv[0]);
    return opt;
}

/// Random circuit from one of the three generators; always verified
/// before use so a generator bug cannot masquerade as an engine bug.
Hypergraph makeCircuit(ModuleId maxModules, std::mt19937_64& rng, std::string& label) {
    const int kind = static_cast<int>(rng() % 3);
    std::uniform_int_distribution<ModuleId> sizeDist(16, maxModules);
    Hypergraph h;
    if (kind == 0) {
        RentConfig cfg;
        cfg.numModules = sizeDist(rng);
        cfg.numNets = cfg.numModules + static_cast<NetId>(rng() % cfg.numModules);
        cfg.rentExponent = 0.55 + 0.15 * std::uniform_real_distribution<>(0, 1)(rng);
        cfg.seed = rng();
        label = "rent(" + std::to_string(cfg.numModules) + ")";
        h = generateRentCircuit(cfg);
    } else if (kind == 1) {
        RandomHypergraphConfig cfg;
        cfg.numModules = sizeDist(rng);
        cfg.numNets = cfg.numModules + static_cast<NetId>(rng() % cfg.numModules);
        cfg.seed = rng();
        label = "random(" + std::to_string(cfg.numModules) + ")";
        h = generateRandomHypergraph(cfg);
    } else {
        GridConfig cfg;
        cfg.width = 4 + static_cast<std::int32_t>(rng() % 12);
        cfg.height = 4 + static_cast<std::int32_t>(rng() % 12);
        cfg.rowNets = (rng() & 1) != 0;
        label = "grid(" + std::to_string(cfg.width) + "x" + std::to_string(cfg.height) + ")";
        h = generateGrid(cfg);
    }
    check::enforce(check::verifyHypergraph(h), "fuzz_invariants generator");
    return h;
}

FMConfig randomFMConfig(std::mt19937_64& rng) {
    FMConfig cfg;
    cfg.variant = (rng() & 1) ? EngineVariant::kCLIP : EngineVariant::kFM;
    const BucketPolicy policies[] = {BucketPolicy::kLifo, BucketPolicy::kFifo,
                                     BucketPolicy::kRandom};
    cfg.policy = policies[rng() % 3];
    cfg.lookahead = static_cast<int>(rng() % 3); // 0, 1, 2
    cfg.cdip = (rng() % 4) == 0;
    cfg.boundaryInit = (rng() % 3) == 0;
    // Pass budgets 1..6 and the paper's natural stop, so capped runs —
    // including caps that end a tightening schedule early — are audited.
    const int budget = 1 + static_cast<int>(rng() % 7);
    cfg.maxPasses = budget <= 6 ? budget : kPaperMaxPasses;
    cfg.movesPerPass = 1 + static_cast<int>(rng() % 2);
    if ((rng() % 3) == 0) cfg.tightenStart = 0.3;
    if ((rng() % 4) == 0) cfg.earlyExitFraction = 0.25;
    return cfg;
}

KWayConfig randomKWayConfig(std::mt19937_64& rng) {
    KWayConfig cfg;
    cfg.objective = (rng() & 1) ? KWayObjective::kSumOfDegrees : KWayObjective::kNetCut;
    const BucketPolicy policies[] = {BucketPolicy::kLifo, BucketPolicy::kFifo,
                                     BucketPolicy::kRandom};
    cfg.policy = policies[rng() % 3];
    cfg.clip = (rng() & 1) != 0;
    cfg.lookahead = static_cast<int>(rng() % 3);
    // Fuzzed instances stay far below the default window, so small windows
    // are what make the audits see passes that stop at it.
    const int windows[] = {1, 8, 64, KWayConfig{}.moveWindow, kPaperMoveWindow};
    cfg.moveWindow = windows[rng() % 5];
    return cfg;
}

/// Verify a finished solution: structure always; balance when the engine
/// achieved it; the reported cut against a from-scratch recomputation.
void verifyResult(const Hypergraph& h, const Partition& p, const BalanceConstraint& bc,
                  Weight reportedCut, const char* where) {
    check::PartitionCheckOptions opts;
    opts.expectedCut = reportedCut;
    if (bc.satisfied(p)) opts.balance = &bc;
    check::enforce(check::verifyPartition(h, p, opts), where);
}

void fuzzFlatBipartition(const Hypergraph& h, std::mt19937_64& rng) {
    const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
    Partition p = randomPartition(h, 2, bc, rng);
    FMRefiner fm(h, randomFMConfig(rng));
    const Weight cut = fm.refine(p, bc, rng);
    verifyResult(h, p, bc, cut, "fuzz flat bipartition");
}

void fuzzFlatKWay(const Hypergraph& h, std::mt19937_64& rng) {
    const PartId k = 3 + static_cast<PartId>(rng() % 2);
    const auto bc = BalanceConstraint::forRefinement(h, k, 0.1);
    Partition p = randomPartition(h, k, bc, rng);
    KWayFMRefiner kw(h, randomKWayConfig(rng));
    const Weight cut = kw.refine(p, bc, rng);
    verifyResult(h, p, bc, cut, "fuzz flat k-way");
}

void fuzzMultilevel(const Hypergraph& h, std::mt19937_64& rng) {
    MLConfig cfg;
    cfg.k = (rng() % 3 == 0) ? 4 : 2;
    const double ratios[] = {1.0, 0.5, 0.33};
    cfg.matchingRatio = ratios[rng() % 3];
    cfg.coarseningThreshold = cfg.k == 2 ? 35 : 100;
    cfg.vCycles = 1 + static_cast<int>(rng() % 2);
    cfg.coarsestStarts = 1 + static_cast<int>(rng() % 2);
    const CoarsenerKind kinds[] = {CoarsenerKind::kConnectivityMatch,
                                   CoarsenerKind::kRandomMatch,
                                   CoarsenerKind::kHeavyEdgeMatch};
    cfg.coarsener = kinds[rng() % 3];
    RefinerFactory factory = cfg.k == 2 ? makeFMFactory(randomFMConfig(rng))
                                        : makeKWayFactory(randomKWayConfig(rng));
    MultilevelPartitioner ml(cfg, std::move(factory));
    const MLResult res = ml.run(h, rng);
    const auto bc = BalanceConstraint::forRefinement(h, cfg.k, cfg.tolerance);
    verifyResult(h, res.partition, bc, res.cut, "fuzz multilevel");
}

/// Multi-start with per-start isolation: under injection the driver must
/// salvage a verified best-so-far result or throw kAllStartsFailed — the
/// caller decides which outcomes are acceptable.
void fuzzMultiStart(const Hypergraph& h, std::mt19937_64& rng) {
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    MultilevelPartitioner ml(cfg, makeFMFactory(randomFMConfig(rng)));
    MultiStartConfig ms;
    ms.runs = 2 + static_cast<int>(rng() % 4);
    ms.threads = 1 + static_cast<int>(rng() % 3);
    ms.seed = rng();
    const MultiStartOutcome out = parallelMultiStart(h, ml, ms);
    const auto bc = BalanceConstraint::forRefinement(h, 2, cfg.tolerance);
    verifyResult(h, out.best, bc, out.bestCut, "fuzz multistart");
}

/// Differential oracle for the coarsening kernel: coarsen level by level
/// with a random matcher/ratio and pin induceInto()'s output, serial and
/// on a 3-thread pool with its own workspace, to the legacy builder path
/// (induceReference) on every level. The pooled leg draws nothing from
/// `rng`, so every seed's iteration sequence is unchanged.
void fuzzCoarsenDifferential(const Hypergraph& h0, std::mt19937_64& rng) {
    const CoarsenerKind kinds[] = {CoarsenerKind::kConnectivityMatch,
                                   CoarsenerKind::kRandomMatch,
                                   CoarsenerKind::kHeavyEdgeMatch};
    const CoarsenerKind kind = kinds[rng() % 3];
    const double ratios[] = {1.0, 0.5, 0.33};
    MatchConfig mc;
    mc.ratio = ratios[rng() % 3];
    CoarsenWorkspace ws;
    CoarsenWorkspace pooledWs;
    robust::ThreadPool pool(3);
    Hypergraph h = h0;
    int guard = 0;
    while (h.numModules() > 35 && guard++ < 64) {
        const Clustering c = runMatcher(kind, h, mc, rng);
        if (c.numClusters == h.numModules()) break;
        Hypergraph got = induceInto(h, c, ws);
        const Hypergraph want = induceReference(h, c);
        check::enforce(check::verifyIdenticalHypergraphs(got, want), "fuzz coarsen differential");
        check::enforce(check::verifyIdenticalHypergraphs(induceInto(h, c, pooledWs, &pool), want),
                       "fuzz coarsen differential (pooled)");
        h = std::move(got);
    }
}

/// Thread-determinism differential: the same deterministic-parallel
/// configuration and seed at vcycleThreads=1 (oracle) and at a random
/// thread count must produce bit-identical partitions. Exits 1 on any
/// divergence — determinism is a hard bar, not a statistic.
void fuzzParallelDifferential(const Hypergraph& h, std::mt19937_64& rng, const Options& opt,
                              int it) {
    MLConfig cfg;
    cfg.k = 2;
    const double ratios[] = {1.0, 0.5, 0.33};
    cfg.matchingRatio = ratios[rng() % 3];
    const CoarsenerKind kinds[] = {CoarsenerKind::kConnectivityMatch,
                                   CoarsenerKind::kRandomMatch,
                                   CoarsenerKind::kHeavyEdgeMatch};
    cfg.coarsener = kinds[rng() % 3];
    cfg.vCycles = 1 + static_cast<int>(rng() % 2);
    cfg.coarsestStarts = 1 + static_cast<int>(rng() % 2);
    // Tiny threshold so the pre-pass actually runs on fuzz-sized circuits.
    cfg.prePassMinModules = 64;
    const FMConfig fm = randomFMConfig(rng);
    const std::uint64_t runSeed = rng();
    const int threads = 2 + static_cast<int>(rng() % 7); // [2, 8]

    cfg.vcycleThreads = 1;
    MultilevelPartitioner oracleMl(cfg, makeFMFactory(fm));
    std::mt19937_64 rng1(runSeed);
    const MLResult oracle = oracleMl.run(h, rng1);

    cfg.vcycleThreads = threads;
    MultilevelPartitioner parMl(cfg, makeFMFactory(fm));
    std::mt19937_64 rngT(runSeed);
    const MLResult got = parMl.run(h, rngT);

    if (opt.verbose)
        std::fprintf(stderr, "iter %d: threads=%d cut %lld (oracle %lld)\n", it, threads,
                     static_cast<long long>(got.cut), static_cast<long long>(oracle.cut));
    const auto ga = got.partition.assignment();
    const auto oa = oracle.partition.assignment();
    if (got.cut != oracle.cut || got.levels != oracle.levels ||
        !std::equal(ga.begin(), ga.end(), oa.begin(), oa.end())) {
        std::fprintf(stderr,
                     "fuzz_invariants: iter %d: vcycleThreads=%d diverged from the "
                     "single-thread oracle (cut %lld/%d levels vs %lld/%d levels)\n",
                     it, threads, static_cast<long long>(got.cut), got.levels,
                     static_cast<long long>(oracle.cut), oracle.levels);
        std::exit(1);
    }
    const auto bc = BalanceConstraint::forRefinement(h, cfg.k, cfg.tolerance);
    verifyResult(h, got.partition, bc, got.cut, "fuzz parallel differential");
}

/// Portfolio lane-containment differential (see file comment). Exits 1
/// on any containment or determinism violation.
void fuzzPortfolioDifferential(const Hypergraph& h, std::mt19937_64& rng, const Options& opt,
                               int it) {
    portfolio::PortfolioConfig pc;
    pc.k = 2;
    pc.tolerance = 0.1;
    pc.matchingRatio = 0.5;
    pc.runs = 2;
    pc.threads = 1;
    pc.seed = rng();
    const auto victim = static_cast<portfolio::EngineKind>(rng() % portfolio::kEngineCount);
    const bool oom = (rng() % 3) == 0;

    const portfolio::PortfolioResult oracle = runPortfolio(h, pc);
    if (oracle.report.fallbackUsed) {
        std::fprintf(stderr, "fuzz_invariants: iter %d: clean portfolio used the fallback\n", it);
        std::exit(1);
    }

    robust::FaultInjector& injector = robust::FaultInjector::instance();
    robust::FaultPlan plan;
    plan.seed = rng();
    plan.probability = 1.0;
    plan.site = portfolio::laneFaultSite(victim);
    plan.kind = oom ? robust::FaultKind::kBadAlloc : robust::FaultKind::kThrow;
    injector.arm(plan);
    portfolio::PortfolioResult faulted;
    try {
        faulted = runPortfolio(h, pc);
    } catch (...) {
        injector.disarm();
        std::fprintf(stderr, "fuzz_invariants: iter %d: lane fault escaped the portfolio\n", it);
        std::exit(1);
    }
    injector.disarm();

    // Expected winner: the oracle's best lane with the victim struck out
    // (same fixed total order the portfolio itself uses).
    const portfolio::LaneRecord* want = nullptr;
    for (const portfolio::LaneRecord& lane : oracle.report.lanes) {
        if (lane.engine == victim || lane.cut < 0) continue;
        if (want == nullptr || lane.cut < want->cut ||
            (lane.cut == want->cut && lane.maxBlockArea < want->maxBlockArea))
            want = &lane;
    }
    for (const portfolio::LaneRecord& lane : faulted.report.lanes) {
        if (lane.engine == victim) {
            const auto expected = oom ? portfolio::LaneOutcome::kRefused
                                      : portfolio::LaneOutcome::kCrashed;
            if (lane.outcome != expected) {
                std::fprintf(stderr,
                             "fuzz_invariants: iter %d: victim lane %s classified %s, want %s\n",
                             it, portfolio::engineName(victim),
                             portfolio::laneOutcomeName(lane.outcome),
                             portfolio::laneOutcomeName(expected));
                std::exit(1);
            }
            continue;
        }
        // Surviving lanes are blind to the victim: bit-identical cuts.
        for (const portfolio::LaneRecord& clean : oracle.report.lanes) {
            if (clean.engine != lane.engine) continue;
            if (clean.cut != lane.cut || clean.maxBlockArea != lane.maxBlockArea) {
                std::fprintf(stderr,
                             "fuzz_invariants: iter %d: lane %s perturbed by %s's fault "
                             "(cut %lld vs clean %lld)\n",
                             it, portfolio::engineName(lane.engine),
                             portfolio::engineName(victim), static_cast<long long>(lane.cut),
                             static_cast<long long>(clean.cut));
                std::exit(1);
            }
        }
    }
    if (want == nullptr) {
        if (!faulted.report.fallbackUsed) {
            std::fprintf(stderr,
                         "fuzz_invariants: iter %d: no lane should survive, yet no fallback\n",
                         it);
            std::exit(1);
        }
    } else if (faulted.report.fallbackUsed || faulted.bestCut != want->cut ||
               faulted.report.winnerName() != portfolio::engineName(want->engine)) {
        std::fprintf(stderr,
                     "fuzz_invariants: iter %d: winner %s cut %lld, want %s cut %lld\n", it,
                     faulted.report.winnerName().c_str(),
                     static_cast<long long>(faulted.bestCut),
                     portfolio::engineName(want->engine), static_cast<long long>(want->cut));
        std::exit(1);
    }
    const auto bc = BalanceConstraint::forRefinement(h, pc.k, pc.tolerance);
    verifyResult(h, faulted.best, bc, static_cast<Weight>(faulted.bestCut),
                 "fuzz portfolio differential");
    if (opt.verbose)
        std::fprintf(stderr, "iter %d: victim=%s (%s) winner=%s cut %lld\n", it,
                     portfolio::engineName(victim), oom ? "oom" : "throw",
                     faulted.report.winnerName().c_str(),
                     static_cast<long long>(faulted.bestCut));
}

#if !defined(_WIN32)
/// Crash-equivalence protocol: oracle run, SIGKILLed checkpointed child,
/// resume, bit-identical comparison. Exits 1 on any divergence.
void fuzzCheckpointKill(const Hypergraph& h, std::mt19937_64& rng, const Options& opt, int it) {
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    MultilevelPartitioner ml(cfg, makeFMFactory(randomFMConfig(rng)));
    MultiStartConfig ms;
    ms.runs = 3 + static_cast<int>(rng() % 6);
    ms.threads = 1 + static_cast<int>(rng() % 3);
    ms.seed = rng();
    const MultiStartOutcome oracle = parallelMultiStart(h, ml, ms);

    const std::string path = "/tmp/mlpart_fuzz_ckpt_" +
                             std::to_string(static_cast<long>(::getpid())) + ".ckpt";
    std::remove(path.c_str());
    MultiStartConfig cp = ms;
    cp.checkpointPath = path;
    cp.checkpointEvery = 1 + static_cast<int>(rng() % 2);
    const unsigned delayUs = static_cast<unsigned>(rng() % 20000);

    const pid_t pid = ::fork();
    if (pid == 0) {
        // The child is pure scratch: it partitions with checkpointing on
        // until the parent kills it. A child that finishes first simply
        // leaves a complete checkpoint — also a valid kill point.
        try {
            (void)parallelMultiStart(h, ml, cp);
        } catch (...) {
        }
        ::_exit(0);
    }
    if (pid < 0) {
        std::perror("fuzz_invariants: fork");
        std::exit(1);
    }
    ::usleep(delayUs);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);

    cp.resume = true;
    const MultiStartOutcome resumed = parallelMultiStart(h, ml, cp);
    if (opt.verbose)
        std::fprintf(stderr,
                     "iter %d: killed after %u us, resumed %d starts%s, cut %lld (oracle %lld)\n",
                     it, delayUs, resumed.resumedStarts,
                     resumed.resumeStatus.ok() ? "" : " [fresh fallback]",
                     static_cast<long long>(resumed.bestCut),
                     static_cast<long long>(oracle.bestCut));
    const auto ra = resumed.best.assignment();
    const auto oa = oracle.best.assignment();
    if (resumed.bestCut != oracle.bestCut || resumed.bestRun != oracle.bestRun ||
        !std::equal(ra.begin(), ra.end(), oa.begin(), oa.end())) {
        std::fprintf(stderr,
                     "fuzz_invariants: iter %d: resume diverged from the uninterrupted oracle "
                     "(cut %lld/run %d vs cut %lld/run %d)\n",
                     it, static_cast<long long>(resumed.bestCut), resumed.bestRun,
                     static_cast<long long>(oracle.bestCut), oracle.bestRun);
        std::exit(1);
    }
    std::remove(path.c_str());
}
#endif

/// Random injection schedule for one iteration, derived from `rng` alone.
robust::FaultPlan randomFaultPlan(std::mt19937_64& rng) {
    robust::FaultPlan plan;
    plan.seed = rng();
    plan.probability = 0.02 + 0.18 * std::uniform_real_distribution<>(0, 1)(rng);
    plan.kind = (rng() % 4 == 0) ? robust::FaultKind::kBadAlloc : robust::FaultKind::kThrow;
    return plan; // all sites eligible
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parseArgs(argc, argv);
    robust::FaultInjector& injector = robust::FaultInjector::instance();
    injector.armFromEnv(); // environment spec wins until the first --inject re-arm
    std::mt19937_64 rng(opt.seed);
    int faulted = 0;
    if (opt.parallel) {
        for (int it = 0; it < opt.iterations; ++it) {
            std::string label;
            const Hypergraph h = makeCircuit(opt.modules, rng, label);
            if (opt.verbose) std::fprintf(stderr, "iter %d: %s mode=parallel\n", it, label.c_str());
            fuzzParallelDifferential(h, rng, opt, it);
        }
        std::printf("fuzz_invariants: %d parallel iterations deterministic (seed %llu)\n",
                    opt.iterations, static_cast<unsigned long long>(opt.seed));
        return 0;
    }
    if (opt.portfolio) {
        for (int it = 0; it < opt.iterations; ++it) {
            std::string label;
            const Hypergraph h = makeCircuit(opt.modules, rng, label);
            if (opt.verbose)
                std::fprintf(stderr, "iter %d: %s mode=portfolio\n", it, label.c_str());
            fuzzPortfolioDifferential(h, rng, opt, it);
        }
        std::printf("fuzz_invariants: %d portfolio iterations fault-contained (seed %llu)\n",
                    opt.iterations, static_cast<unsigned long long>(opt.seed));
        return 0;
    }
    if (opt.checkpoint) {
#if defined(_WIN32)
        std::fprintf(stderr, "fuzz_invariants: --checkpoint needs fork(); not supported here\n");
        return 2;
#else
        for (int it = 0; it < opt.iterations; ++it) {
            std::string label;
            const Hypergraph h = makeCircuit(opt.modules, rng, label);
            if (opt.verbose) std::fprintf(stderr, "iter %d: %s mode=checkpoint\n", it, label.c_str());
            fuzzCheckpointKill(h, rng, opt, it);
        }
        std::printf("fuzz_invariants: %d kill/resume iterations bit-identical (seed %llu)\n",
                    opt.iterations, static_cast<unsigned long long>(opt.seed));
        return 0;
#endif
    }
    for (int it = 0; it < opt.iterations; ++it) {
        std::string label;
        const Hypergraph h = makeCircuit(opt.modules, rng, label);
        const int mode = static_cast<int>(rng() % 5);
        if (opt.inject) injector.arm(randomFaultPlan(rng));
        if (opt.verbose)
            std::fprintf(stderr, "iter %d: %s mode=%s\n", it, label.c_str(),
                         mode == 0   ? "flat2"
                         : mode == 1 ? "flatK"
                         : mode == 2 ? "ml"
                         : mode == 3 ? "multistart"
                                     : "coarsen-diff");
        try {
            switch (mode) {
                case 0: fuzzFlatBipartition(h, rng); break;
                case 1: fuzzFlatKWay(h, rng); break;
                case 2: fuzzMultilevel(h, rng); break;
                case 3: fuzzMultiStart(h, rng); break;
                default: fuzzCoarsenDifferential(h, rng); break;
            }
        } catch (const robust::Error& e) {
            // Structured failure — the only acceptable way to not finish.
            // Anything else (foreign exception, abort, sanitizer report)
            // escapes and fails the run.
            ++faulted;
            if (opt.verbose)
                std::fprintf(stderr, "iter %d: structured failure: %s\n", it, e.what());
        } catch (const std::bad_alloc&) {
            ++faulted; // simulated allocation failure surfaced intact
            if (opt.verbose) std::fprintf(stderr, "iter %d: bad_alloc surfaced\n", it);
        }
        if (opt.inject) injector.disarm();
    }
    if (opt.inject)
        std::printf("fuzz_invariants: %d iterations clean under injection "
                    "(%d structured failures, seed %llu)\n",
                    opt.iterations, faulted, static_cast<unsigned long long>(opt.seed));
    else
        std::printf("fuzz_invariants: %d iterations clean (seed %llu)\n", opt.iterations,
                    static_cast<unsigned long long>(opt.seed));
    return 0;
}
