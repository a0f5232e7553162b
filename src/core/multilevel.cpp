#include "core/multilevel.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "coarsen/induce.h"
#include "lsmc/lsmc.h"
#include "refine/prop_refiner.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"

#if MLPART_CHECK_INVARIANTS
#include "check/verify_levels.h"
#include "check/verify_partition.h"
#endif

namespace mlpart {

MultilevelPartitioner::MultilevelPartitioner(MLConfig cfg, RefinerFactory refinerFactory)
    : cfg_(std::move(cfg)), factory_(std::move(refinerFactory)) {
    if (!factory_) throw std::invalid_argument("MultilevelPartitioner: null refiner factory");
    if (cfg_.coarseningThreshold < 2)
        throw std::invalid_argument("MultilevelPartitioner: threshold must be >= 2");
    if (cfg_.matchingRatio <= 0.0 || cfg_.matchingRatio > 1.0)
        throw std::invalid_argument("MultilevelPartitioner: matching ratio must be in (0, 1]");
    if (cfg_.k < 2) throw std::invalid_argument("MultilevelPartitioner: k must be >= 2");
    if (cfg_.coarsestStarts < 1)
        throw std::invalid_argument("MultilevelPartitioner: coarsestStarts must be >= 1");
    if (cfg_.tolerance < 0.0 || cfg_.tolerance >= 1.0)
        throw std::invalid_argument("MultilevelPartitioner: tolerance must be in [0, 1)");
    if (cfg_.vCycles < 1) throw std::invalid_argument("MultilevelPartitioner: vCycles must be >= 1");
    if (cfg_.coarsestLSMCDescents < 0)
        throw std::invalid_argument("MultilevelPartitioner: coarsestLSMCDescents must be >= 0");
    if (!cfg_.targetFractions.empty() &&
        cfg_.targetFractions.size() != static_cast<std::size_t>(cfg_.k))
        throw std::invalid_argument("MultilevelPartitioner: targetFractions size must equal k");
    if (cfg_.vcycleThreads < 0 || cfg_.vcycleThreads > 512)
        throw std::invalid_argument("MultilevelPartitioner: vcycleThreads must be in [0, 512]");
    if (cfg_.prePassMinModules < 0 || cfg_.prePassMinModules == 1)
        throw std::invalid_argument(
            "MultilevelPartitioner: prePassMinModules must be 0 (off) or >= 2");
}

namespace {

// Initial partition of the coarsest netlist: pre-assigned clusters take
// their blocks, everything else is spread greedily balanced at random.
Partition initialPartition(const Hypergraph& h, PartId k, const std::vector<PartId>& preassign,
                           const std::vector<double>& fractions, const BalanceConstraint& bc,
                           std::mt19937_64& rng) {
    std::vector<ModuleId> order(static_cast<std::size_t>(h.numModules()));
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<PartId> assign(order.size(), 0);
    std::vector<Area> load(static_cast<std::size_t>(k), 0);
    for (ModuleId v : order) {
        if (!preassign.empty() && preassign[static_cast<std::size_t>(v)] != kInvalidPart) {
            const PartId p = preassign[static_cast<std::size_t>(v)];
            assign[static_cast<std::size_t>(v)] = p;
            load[static_cast<std::size_t>(p)] += h.area(v);
        }
    }
    for (ModuleId v : order) {
        if (!preassign.empty() && preassign[static_cast<std::size_t>(v)] != kInvalidPart) continue;
        // Greedy lightest block, relative to its area target.
        auto relLoad = [&](PartId p) {
            const double f = fractions.empty() ? 1.0 : fractions[static_cast<std::size_t>(p)];
            return static_cast<double>(load[static_cast<std::size_t>(p)]) / f;
        };
        PartId best = 0;
        for (PartId p = 1; p < k; ++p)
            if (relLoad(p) < relLoad(best)) best = p;
        assign[static_cast<std::size_t>(v)] = best;
        load[static_cast<std::size_t>(best)] += h.area(v);
    }
    Partition part(h, k, std::move(assign));
    if (!bc.satisfied(part)) rebalance(h, part, bc, rng);
    return part;
}

} // namespace

namespace {

/// Phase stopwatch: accumulates elapsed seconds into a slot (when one is
/// given) on stop() or destruction.
class PhaseTimer {
public:
    explicit PhaseTimer(double* slot) : slot_(slot), start_(Clock::now()) {}
    ~PhaseTimer() { stop(); }
    void stop() {
        if (slot_ == nullptr) return;
        *slot_ += std::chrono::duration<double>(Clock::now() - start_).count();
        slot_ = nullptr;
    }

private:
    using Clock = std::chrono::steady_clock;
    double* slot_;
    Clock::time_point start_;
};

} // namespace

Partition MultilevelPartitioner::runCycle(const Hypergraph& h0, std::mt19937_64& rng,
                                          const Partition* warm, MLResult* info,
                                          const robust::Deadline& deadline, MLWorkspace& ws,
                                          MLTimings* timings) const {
    // ---- Coarsening phase (Figure 2, steps 1-5) ----
    PhaseTimer coarsenTimer(timings != nullptr ? &timings->coarsenSec : nullptr);
    std::vector<Hypergraph> coarse;             // coarse[i] = H_{i+1}
    std::vector<Clustering> clusterings;        // clusterings[i]: H_i -> H_{i+1}
    std::vector<std::vector<PartId>> preassign; // per level
    // Matching-group constraint per module at the current level: a warm
    // cycle's blocks, or the caller's matchGroups (genetic hybrid), or
    // nothing. Threaded down the hierarchy exactly like the blocks.
    std::vector<PartId> warmBlocks;
    preassign.push_back(cfg_.preassignment);
    if (warm != nullptr) warmBlocks.assign(warm->assignment().begin(), warm->assignment().end());
    else if (!cfg_.matchGroups.empty()) {
        if (cfg_.matchGroups.size() != static_cast<std::size_t>(h0.numModules()))
            throw std::invalid_argument("MultilevelPartitioner: matchGroups size mismatch");
        warmBlocks = cfg_.matchGroups;
    }

    // Parallel mode (vcycleThreads > 0): the deterministic synchronous
    // algorithms on the workspace's persistent pool. Serial mode matches
    // and induces on the calling thread (pool == nullptr) and runs the LP
    // pre-pass on a caller-only pool, which spawns no thread and leaves
    // the workspace's pool alone (serve hands one workspace to jobs of
    // either mode). The pre-pass is bit-identical for every pool size.
    robust::ThreadPool* pool =
        cfg_.vcycleThreads > 0 ? &ws.ensurePool(cfg_.vcycleThreads) : nullptr;
    robust::ThreadPool callerOnly(1);
    robust::ThreadPool& prePassPool = pool != nullptr ? *pool : callerOnly;

    // MLTimings' match/induce split: one clock read per phase boundary,
    // none when the caller asked for no timings.
    using Clock = std::chrono::steady_clock;
    Clock::time_point lapStart = timings != nullptr ? Clock::now() : Clock::time_point{};
    auto lap = [&](double MLTimings::*slot) {
        if (timings == nullptr) return;
        const Clock::time_point now = Clock::now();
        timings->*slot += std::chrono::duration<double>(now - lapStart).count();
        lapStart = now;
    };

    const Hypergraph* cur = &h0;
    int netLimit = cfg_.matchNetSizeLimit;
    // An expired budget stops coarsening: fewer levels just means less
    // refinement opportunity, never an invalid result.
    while (cur->numModules() > cfg_.coarseningThreshold &&
           static_cast<int>(coarse.size()) < cfg_.maxLevels && !deadline.expired()) {
        MLPART_FAULT_SITE("coarsen.match");
        MatchConfig mc;
        mc.ratio = cfg_.matchingRatio;
        mc.maxNetSize = netLimit;
        mc.sameBlockOnly = warmBlocks; // empty when unconstrained
        const auto& pre = preassign.back();
        if (!pre.empty()) {
            mc.excluded.assign(pre.size(), 0);
            for (std::size_t v = 0; v < pre.size(); ++v)
                if (pre[v] != kInvalidPart) mc.excluded[v] = 1;
        }
        Clustering c = pool != nullptr
                           ? matchParallel(cfg_.coarsener, *cur, mc, rng(), *pool, ws.match)
                           : runMatcher(cfg_.coarsener, *cur, mc, rng);
        if (c.numClusters >= cur->numModules()) {
            // No pair matched — on very coarse netlists this usually means
            // every remaining net exceeds the matching net-size limit.
            if (cfg_.adaptiveNetLimit && netLimit < cur->numModules()) {
                netLimit *= 4;
                continue;
            }
            break;
        }
        lap(&MLTimings::matchSec);
        coarse.push_back(induceInto(*cur, c, ws.coarsen, pool));
        lap(&MLTimings::induceSec);

        // Thread the pre-assignment down: pre-assigned modules are singleton
        // clusters (excluded from matching), so the mapping is one-to-one.
        std::vector<PartId> nextPre;
        if (!pre.empty()) {
            nextPre.assign(static_cast<std::size_t>(c.numClusters), kInvalidPart);
            for (std::size_t v = 0; v < pre.size(); ++v)
                if (pre[v] != kInvalidPart)
                    nextPre[static_cast<std::size_t>(c.clusterOf[v])] = pre[v];
        }
        preassign.push_back(std::move(nextPre));
        // Thread the warm blocks / match groups down (clusters never mix
        // groups, so any member's group is the cluster's group).
        if (!warmBlocks.empty()) {
            std::vector<PartId> nextBlocks(static_cast<std::size_t>(c.numClusters), kInvalidPart);
            for (std::size_t v = 0; v < warmBlocks.size(); ++v)
                nextBlocks[static_cast<std::size_t>(c.clusterOf[v])] = warmBlocks[v];
            warmBlocks = std::move(nextBlocks);
        }
        clusterings.push_back(std::move(c));
        cur = &coarse.back();
    }
    lap(&MLTimings::matchSec);
    const int m = static_cast<int>(coarse.size());
    coarsenTimer.stop();

    auto levelGraph = [&](int i) -> const Hypergraph& {
        return i == 0 ? h0 : coarse[static_cast<std::size_t>(i - 1)];
    };
    auto fixedMask = [&](int i) -> std::vector<char> {
        const auto& pre = preassign[static_cast<std::size_t>(i)];
        if (pre.empty()) return {};
        std::vector<char> mask(pre.size(), 0);
        for (std::size_t v = 0; v < pre.size(); ++v)
            if (pre[v] != kInvalidPart) mask[v] = 1;
        return mask;
    };

    // ---- Initial partitioning of H_m (step 6) ----
    PhaseTimer initialTimer(timings != nullptr ? &timings->initialSec : nullptr);
    const Hypergraph& hm = levelGraph(m);
    auto levelBc = [&](const Hypergraph& hl) {
        return cfg_.targetFractions.empty()
                   ? BalanceConstraint::forRefinement(hl, cfg_.k, cfg_.tolerance)
                   : BalanceConstraint::forTargets(hl, cfg_.targetFractions, cfg_.tolerance);
    };
    const BalanceConstraint bcM = levelBc(hm);
    MLPART_FAULT_SITE("ml.initial");
    auto coarsestRefiner = factory_(hm, fixedMask(m));
    coarsestRefiner->setDeadline(deadline);
    coarsestRefiner->setWorkspace(&ws.refine);
    const bool profile = cfg_.profileRefinement && timings != nullptr;
    refine::RefineProfile coarsestProf;
    if (profile) coarsestRefiner->setProfile(&coarsestProf);
    Partition best(hm, cfg_.k);
    Weight bestCut = 0;
    if (warm != nullptr) {
        // Warm cycle: refine the incumbent's projection onto H_m.
        Partition cand(hm, cfg_.k, warmBlocks);
        if (!bcM.satisfied(cand)) rebalance(hm, cand, bcM, rng);
        bestCut = coarsestRefiner->refine(cand, bcM, rng);
        best = std::move(cand);
    } else {
        for (int s = 0; s < cfg_.coarsestStarts; ++s) {
            // Start 0 always runs (the valid-result guarantee); extra
            // starts are optional work skipped once the budget is gone.
            if (s > 0 && deadline.expired()) break;
            Partition cand = initialPartition(hm, cfg_.k, preassign[static_cast<std::size_t>(m)],
                                              cfg_.targetFractions, bcM, rng);
            const Weight cut = coarsestRefiner->refine(cand, bcM, rng);
            if (s == 0 || cut < bestCut) {
                best = std::move(cand);
                bestCut = cut;
            }
        }
        // "Spend more CPU at the top levels ... using LSMC" (Section V).
        if (cfg_.coarsestLSMCDescents > 0 && cfg_.preassignment.empty() && !deadline.expired()) {
            LSMCConfig lc;
            lc.descents = cfg_.coarsestLSMCDescents;
            lc.tolerance = cfg_.tolerance;
            lc.k = cfg_.k;
            LSMCPartitioner lsmc(lc, factory_);
            LSMCResult lr = lsmc.run(hm, rng);
            if (lr.cut < bestCut) {
                best = std::move(lr.partition);
                bestCut = lr.cut;
            }
        }
    }

    if (profile) timings->levels.push_back({m, hm.numModules(), coarsestProf, 0, 0});
    initialTimer.stop();

    // ---- Uncoarsening phase (steps 7-9) ----
    PhaseTimer refineTimer(timings != nullptr ? &timings->refineSec : nullptr);
#if MLPART_CHECK_INVARIANTS
    {
        check::PartitionCheckOptions opt;
        opt.expectedCut = bestCut;
        check::enforce(check::verifyPartition(hm, best, opt),
                       "MultilevelPartitioner::coarsestPartition");
    }
#endif
    Partition curPart = std::move(best);
    for (int i = m - 1; i >= 0; --i) {
        const Hypergraph& hi = levelGraph(i);
        Partition projected = project(hi, clusterings[static_cast<std::size_t>(i)], curPart);
#if MLPART_CHECK_INVARIANTS
        // Definition 2 invariant: projection changes neither the cut nor
        // any block's area, and every module lands on its cluster's block.
        check::enforce(check::verifyLevels(hi, levelGraph(i + 1),
                                           clusterings[static_cast<std::size_t>(i)].clusterOf,
                                           curPart, projected),
                       "MultilevelPartitioner::project");
#endif
        const BalanceConstraint bcI = levelBc(hi);
        // A(v*) can shrink during uncoarsening, so the projected solution
        // may violate the finer constraint; rebalance by random moves
        // (Section III.B).
        if (!bcI.satisfied(projected)) {
            rebalance(hi, projected, bcI, rng);
#if MLPART_CHECK_INVARIANTS
            // Rebalance must restore legality whenever it claims success;
            // when the bounds are genuinely infeasible the driver proceeds
            // with the least-bad assignment, so only enforce the bounds it
            // reports as met (the structural part is enforced either way).
            if (bcI.satisfied(projected)) {
                check::enforce(check::verifyRebalanced(hi, projected, bcI),
                               "MultilevelPartitioner::rebalance");
            } else {
                check::enforce(check::verifyPartition(hi, projected),
                               "MultilevelPartitioner::rebalance");
            }
#endif
        }
        // Refinement is optional work once the budget is gone; the project
        // and rebalance steps above are mandatory for a valid result.
        if (!deadline.expired()) {
            // Large bipartition levels, in both modes: the deterministic
            // LP-style pre-pass takes the single positive moves, then hands
            // off to the engine below (which keeps the final say at every
            // level).
            PrePassResult pre;
            if (cfg_.k == 2 && cfg_.prePassMinModules > 0 &&
                hi.numModules() >= cfg_.prePassMinModules) {
                const std::vector<char> fixed = fixedMask(i);
                pre = parallelPrePass(hi, projected, bcI, fixed, prePassPool, ws.refine);
#if MLPART_CHECK_INVARIANTS
                check::enforce(check::verifyPartition(hi, projected),
                               "MultilevelPartitioner::parallelPrePass");
#endif
            }
            auto refiner = factory_(hi, fixedMask(i));
            refiner->setDeadline(deadline);
            refiner->setWorkspace(&ws.refine);
            refine::RefineProfile levelProf;
            if (profile) refiner->setProfile(&levelProf);
#if MLPART_CHECK_INVARIANTS
            const Weight refinedCut = refiner->refine(projected, bcI, rng);
            check::PartitionCheckOptions opt;
            opt.expectedCut = refinedCut;
            check::enforce(check::verifyPartition(hi, projected, opt),
                           "MultilevelPartitioner::refine");
#else
            refiner->refine(projected, bcI, rng);
#endif
            if (profile)
                timings->levels.push_back({i, hi.numModules(), levelProf, pre.moves, pre.gain});
        }
        curPart = std::move(projected);
    }

    if (info != nullptr) {
        info->levels = m;
        info->levelModules.clear();
        info->levelModules.reserve(static_cast<std::size_t>(m) + 1);
        for (int i = 0; i <= m; ++i) info->levelModules.push_back(levelGraph(i).numModules());
    }
    return curPart;
}

MLResult MultilevelPartitioner::run(const Hypergraph& h0, std::mt19937_64& rng) const {
    return run(h0, rng, robust::Deadline::never());
}

MLResult MultilevelPartitioner::run(const Hypergraph& h0, std::mt19937_64& rng,
                                    const robust::Deadline& deadline) const {
    MLWorkspace ws;
    return run(h0, rng, deadline, ws);
}

MLResult MultilevelPartitioner::run(const Hypergraph& h0, std::mt19937_64& rng,
                                    const robust::Deadline& deadline, MLWorkspace& ws) const {
    return run(h0, rng, deadline, ws, nullptr, {});
}

MLResult MultilevelPartitioner::run(const Hypergraph& h0, std::mt19937_64& rng,
                                    const robust::Deadline& deadline, MLWorkspace& ws,
                                    const MLCycleResume* resume,
                                    const MLCycleObserver& observer) const {
    if (!cfg_.preassignment.empty() &&
        cfg_.preassignment.size() != static_cast<std::size_t>(h0.numModules()))
        throw std::invalid_argument("MultilevelPartitioner: preassignment size mismatch");

    MLResult result{Partition(h0, cfg_.k), 0, 0, 0, {}};
    Partition bestPart(h0, cfg_.k);
    Weight bestCut = 0;
    int startCycle = 0;
    bool infoFilled = false;
    if (resume != nullptr && resume->cyclesDone >= 1 && resume->best != nullptr) {
        // Continue where the interrupted process stopped: the restored
        // incumbent plus the restored rng stream state reproduce the
        // remaining cycles exactly. The cut is recomputed rather than
        // trusted — the partition is the source of truth here.
        bestPart = *resume->best;
        bestCut = cutWeight(h0, bestPart);
        startCycle = resume->cyclesDone;
    } else {
        bestPart = runCycle(h0, rng, nullptr, &result, deadline, ws, &result.timings);
        bestCut = cutWeight(h0, bestPart);
        startCycle = 1;
        infoFilled = true;
        if (observer && startCycle < cfg_.vCycles) observer(1, bestPart, bestCut, rng);
    }
    for (int cycle = startCycle; cycle < cfg_.vCycles; ++cycle) {
        if (deadline.expired()) break;
        // On a resumed run the first executed cycle carries the info
        // pointer so level statistics are still reported.
        MLResult* info = infoFilled ? nullptr : &result;
        infoFilled = true;
        Partition next = runCycle(h0, rng, &bestPart, info, deadline, ws, &result.timings);
        const Weight cut = cutWeight(h0, next);
        if (cut <= bestCut) { // refinement never accepted if it worsened the cut
            bestPart = std::move(next);
            bestCut = cut;
        }
        if (observer && cycle + 1 < cfg_.vCycles) observer(cycle + 1, bestPart, bestCut, rng);
    }
    result.partition = std::move(bestPart);
    result.cut = bestCut;
    result.cutNetCount = cutNets(h0, result.partition);
    return result;
}

std::uint64_t configFingerprint(const MLConfig& cfg) {
    using robust::hashCombine;
    const auto hashDouble = [](std::uint64_t h, double d) {
        // Hash the bit pattern, not the value: any representable change in
        // a tuning parameter must change the fingerprint.
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        return hashCombine(h, bits);
    };
    std::uint64_t f = hashCombine(0x4d4c4346u /* "MLCF" */,
                                  static_cast<std::uint64_t>(cfg.coarseningThreshold));
    f = hashDouble(f, cfg.matchingRatio);
    f = hashDouble(f, cfg.tolerance);
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.k));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.coarsener));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.matchNetSizeLimit));
    f = hashCombine(f, cfg.adaptiveNetLimit ? 1u : 0u);
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.maxLevels));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.coarsestStarts));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.coarsestLSMCDescents));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.vCycles));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.preassignment.size()));
    for (const PartId p : cfg.preassignment) f = hashCombine(f, static_cast<std::uint64_t>(p));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.targetFractions.size()));
    for (const double d : cfg.targetFractions) f = hashDouble(f, d);
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.matchGroups.size()));
    for (const PartId g : cfg.matchGroups) f = hashCombine(f, static_cast<std::uint64_t>(g));
    // Parallel mode runs different (deterministic) algorithms, so it is a
    // result-relevant config change — but the thread *count* is not: any
    // vcycleThreads >= 1 produces identical results, and hashing the count
    // would spuriously invalidate checkpoints between machines. Folding
    // only when on also preserves every serial fingerprint; the revision
    // retires checkpoints written by older parallel algorithms. The
    // pre-pass threshold changes results in parallel mode and at k = 2 in
    // serial mode; serial k > 2 fingerprints leave it out and stay as
    // they were.
    if (cfg.vcycleThreads > 0) {
        f = hashCombine(f, 0x50415221ull /* "PAR!" */);
        f = hashCombine(f, kParallelVCycleRevision);
        f = hashCombine(f, static_cast<std::uint64_t>(cfg.prePassMinModules));
    } else if (cfg.k == 2) {
        f = hashCombine(f, static_cast<std::uint64_t>(cfg.prePassMinModules));
    }
    // profileRefinement is observation-only (never changes results) and is
    // deliberately excluded: toggling the profiler must not invalidate
    // checkpoints.
    return f == 0 ? 1 : f;
}

} // namespace mlpart
