#include "comparators/comparators.h"

#include <random>
#include <utility>
#include <vector>

#include "check/verify_partition.h"
#include "core/parallel_multistart.h" // makeMLEngine
#include "core/two_phase.h"
#include "genetic/hybrid.h"
#include "kway/kway_refiner.h"
#include "lsmc/lsmc.h"
#include "refine/multistart.h"
#include "robust/checkpoint.h" // hashCombine
#include "robust/memory_governor.h"
#include "robust/status.h"
#include "spectral/spectral.h"

namespace mlpart {

namespace {

using robust::Deadline;
using robust::Error;
using robust::StatusCode;

// LSMC's 100 descents and the GA's 6x12 schedule are trimmed so a
// comparator job costs a small multiple of an ML job (DESIGN.md §15).
constexpr int kLsmcDescents = 40;
constexpr int kPopulation = 4;
constexpr int kGenerations = 6;

/// Two-phase FM and LSMC are the paper's comparators (Tables VII and IX):
/// their CLIP keeps the paper's stopping rule instead of the default pass
/// budget, and their k-way passes run without the move window.
[[nodiscard]] RefinerFactory paperFactory(PartId k, double tolerance) {
    if (k == 2) {
        FMConfig fm;
        fm.maxPasses = kPaperMaxPasses;
        fm.tolerance = tolerance;
        fm.variant = EngineVariant::kCLIP;
        return makeFMFactory(fm);
    }
    KWayConfig kw;
    kw.moveWindow = kPaperMoveWindow;
    kw.tolerance = tolerance;
    kw.clip = true;
    return makeKWayFactory(kw);
}

/// Wraps `base` so every refiner it creates runs under `deadline`.
[[nodiscard]] RefinerFactory deadlineFactory(RefinerFactory base, const Deadline& deadline) {
    return [base = std::move(base), deadline](const Hypergraph& h,
                                              const std::vector<char>& fixedMask) {
        auto r = base(h, fixedMask);
        r->setDeadline(deadline);
        return r;
    };
}

/// The rank that seeds a comparator's RNG stream, 0 for any other name.
/// A different rank gives that comparator different results;
/// ComparatorPins.* in algorithms_test pins them.
[[nodiscard]] std::uint64_t comparatorRank(const std::string& engine) {
    if (engine == "two_phase") return 1;
    if (engine == "lsmc") return 2;
    if (engine == "spectral") return 3;
    if (engine == "genetic") return 4;
    return 0;
}

} // namespace

bool isComparator(const std::string& engine) { return comparatorRank(engine) != 0; }

ComparatorResult runComparator(const Hypergraph& h, const std::string& engine, PartId k,
                               double tolerance, double matchingRatio, int vcycleThreads,
                               std::uint64_t seed, const Deadline& deadline) {
    const std::uint64_t rank = comparatorRank(engine);
    if (rank == 0) throw Error(StatusCode::kUsage, "unknown comparator '" + engine + "'");
    if (engine == "spectral" && k != 2)
        throw Error(StatusCode::kUsage, "spectral: bisection only (k = 2)");

    auto reservation = robust::MemoryGovernor::instance().reserve(
        robust::MemoryGovernor::estimateStartBytes(h.numModules(), h.numNets(), h.numPins(), k));
    std::mt19937_64 rng(robust::hashCombine(seed, 0x9e3779b9u + rank));

    ComparatorResult out;
    if (engine == "two_phase") {
        TwoPhaseConfig tp;
        tp.tolerance = tolerance;
        tp.k = k;
        tp.matchingRatio = matchingRatio;
        TwoPhaseResult r =
            twoPhasePartition(h, tp, deadlineFactory(paperFactory(k, tolerance), deadline), rng);
        out.partition = std::move(r.partition);
        out.cut = r.cut;
    } else if (engine == "lsmc") {
        LSMCConfig lc;
        lc.descents = kLsmcDescents;
        lc.tolerance = tolerance;
        lc.k = k;
        LSMCResult r = LSMCPartitioner(lc, paperFactory(k, tolerance)).run(h, rng, deadline);
        out.partition = std::move(r.partition);
        out.cut = r.cut;
    } else if (engine == "spectral") {
        SpectralConfig sc;
        sc.tolerance = tolerance;
        SpectralResult r = spectralBisect(h, sc, rng, deadline);
        out.partition = std::move(r.partition);
        out.cut = r.cut;
    } else {
        const MLEngine ml = makeMLEngine("clip", k, tolerance, matchingRatio, vcycleThreads);
        HybridConfig hc;
        hc.populationSize = kPopulation;
        hc.generations = kGenerations;
        hc.ml = ml.config;
        HybridResult r = HybridMultiStart(hc, ml.factory).run(h, rng, deadline);
        out.partition = std::move(r.partition);
        out.cut = r.cut;
    }
    out.deadlineHit = deadline.expired();

    const BalanceConstraint bc = BalanceConstraint::forRefinement(h, k, tolerance);
    check::PartitionCheckOptions opt;
    opt.balance = &bc;
    opt.expectedCut = out.cut;
    const check::CheckResult verified = check::verifyPartition(h, out.partition, opt);
    if (!verified.ok())
        throw Error(StatusCode::kInternal,
                    engine + ": result failed verification: " + verified.summary());
    return out;
}

} // namespace mlpart
