#include "portfolio/portfolio.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "check/verify_partition.h"
#include "core/multilevel.h"
#include "core/parallel_multistart.h"
#include "core/recursive_bisection.h"
#include "core/two_phase.h"
#include "genetic/hybrid.h"
#include "kway/kway_config.h"
#include "kway/kway_refiner.h"
#include "lsmc/lsmc.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/checkpoint.h" // hashCombine
#include "robust/fault_injector.h"
#include "robust/memory_governor.h"
#include "spectral/spectral.h"

namespace mlpart::portfolio {

namespace {

using robust::Deadline;
using robust::Error;
using robust::StatusCode;

// Lane-internal engine sizing. The comparators keep their published
// defaults where affordable; LSMC's 100 descents and the GA's 6×12
// schedule are trimmed so no single lane dominates the job's budget
// (DESIGN.md §15). Deterministic — never derived from timing.
constexpr int kLaneLsmcDescents = 40;
constexpr int kLanePopulation = 4;
constexpr int kLaneGenerations = 6;

[[nodiscard]] MLConfig makeMLConfig(const PortfolioConfig& cfg) {
    MLConfig ml;
    ml.k = cfg.k;
    ml.tolerance = cfg.tolerance;
    ml.matchingRatio = cfg.matchingRatio;
    if (cfg.k > 2) ml.coarseningThreshold = 100;
    ml.vcycleThreads = cfg.vcycleThreads;
    return ml;
}

/// The lanes' refinement engine: bisection FM/CLIP from `fm` for k = 2,
/// the k-way engine from `kw` otherwise.
[[nodiscard]] RefinerFactory makeFactory(const PortfolioConfig& cfg, FMConfig fm = {},
                                         KWayConfig kw = {}) {
    if (cfg.k == 2) {
        fm.tolerance = cfg.tolerance;
        if (cfg.clip) fm.variant = EngineVariant::kCLIP;
        return makeFMFactory(fm);
    }
    kw.tolerance = cfg.tolerance;
    kw.clip = cfg.clip;
    return makeKWayFactory(kw);
}

/// LSMC and two-phase are the paper's comparators (Tables VII and IX):
/// their FM keeps the paper's stopping rule instead of the default pass
/// budget, and their k-way passes run without the move window.
[[nodiscard]] RefinerFactory makeComparatorFactory(const PortfolioConfig& cfg) {
    FMConfig fm;
    fm.maxPasses = kPaperMaxPasses;
    KWayConfig kw;
    kw.moveWindow = kPaperMoveWindow;
    return makeFactory(cfg, fm, kw);
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

/// A lane body's successful product: the partition plus its claimed cut.
struct LaneProduct {
    Partition part;
    Weight cut = 0;
    bool deadlineHit = false;
};

[[nodiscard]] LaneProduct runEngine(EngineKind engine, const Hypergraph& h,
                                    const PortfolioConfig& cfg, std::mt19937_64& rng,
                                    const Deadline& deadline) {
    const MLConfig ml = makeMLConfig(cfg);
    const RefinerFactory factory = makeFactory(cfg);
    switch (engine) {
    case EngineKind::kML: {
        MultilevelPartitioner partitioner(ml, factory);
        MultiStartConfig ms;
        ms.runs = cfg.runs;
        ms.threads = cfg.threads;
        ms.seed = robust::hashCombine(cfg.seed, static_cast<std::uint64_t>(EngineKind::kML));
        ms.deadline = deadline;
        const MultiStartOutcome out = parallelMultiStart(h, partitioner, ms);
        return {out.best, out.bestCut, out.report.deadlineHit};
    }
    case EngineKind::kTwoPhase: {
        TwoPhaseConfig tp;
        tp.tolerance = cfg.tolerance;
        tp.k = cfg.k;
        tp.matchingRatio = cfg.matchingRatio;
        TwoPhaseResult out = twoPhasePartition(
            h, tp, deadlineFactory(makeComparatorFactory(cfg), deadline), rng);
        return {std::move(out.partition), out.cut, deadline.expired()};
    }
    case EngineKind::kLSMC: {
        LSMCConfig lc;
        lc.descents = kLaneLsmcDescents;
        lc.tolerance = cfg.tolerance;
        lc.k = cfg.k;
        LSMCPartitioner lsmc(lc, makeComparatorFactory(cfg));
        LSMCResult out = lsmc.run(h, rng, deadline);
        return {std::move(out.partition), out.cut, deadline.expired()};
    }
    case EngineKind::kSpectral: {
        SpectralConfig sc;
        sc.tolerance = cfg.tolerance;
        SpectralResult out = spectralBisect(h, sc, rng, deadline);
        return {std::move(out.partition), out.cut, deadline.expired()};
    }
    case EngineKind::kGenetic: {
        HybridConfig hc;
        hc.populationSize = kLanePopulation;
        hc.generations = kLaneGenerations;
        hc.ml = ml;
        HybridMultiStart ga(hc, factory);
        HybridResult out = ga.run(h, rng, deadline);
        return {std::move(out.partition), out.cut, deadline.expired()};
    }
    }
    throw Error(StatusCode::kInternal, "portfolio: unknown engine");
}

[[nodiscard]] std::int64_t maxBlockArea(const Partition& part, PartId k) {
    Area worst = 0;
    for (PartId p = 0; p < k; ++p) worst = std::max(worst, part.blockArea(p));
    return static_cast<std::int64_t>(worst);
}

void appendEscaped(std::string& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/// Bounded decode guards: a report never has more lanes than engines and
/// never carries a message a human did not write.
constexpr std::uint32_t kMaxWireLanes = 16;

} // namespace

const char* engineName(EngineKind e) {
    switch (e) {
    case EngineKind::kML: return "ml";
    case EngineKind::kTwoPhase: return "two_phase";
    case EngineKind::kLSMC: return "lsmc";
    case EngineKind::kSpectral: return "spectral";
    case EngineKind::kGenetic: return "genetic";
    }
    return "?";
}

bool parseEngineName(const std::string& name, EngineKind& out) {
    for (int i = 0; i < kEngineCount; ++i) {
        const auto e = static_cast<EngineKind>(i);
        if (name == engineName(e)) {
            out = e;
            return true;
        }
    }
    return false;
}

const char* laneFaultSite(EngineKind e) {
    switch (e) {
    case EngineKind::kML: return "portfolio.lane.ml";
    case EngineKind::kTwoPhase: return "portfolio.lane.two_phase";
    case EngineKind::kLSMC: return "portfolio.lane.lsmc";
    case EngineKind::kSpectral: return "portfolio.lane.spectral";
    case EngineKind::kGenetic: return "portfolio.lane.genetic";
    }
    return "portfolio.lane.ml";
}

const char* laneOutcomeName(LaneOutcome o) {
    switch (o) {
    case LaneOutcome::kWon: return "won";
    case LaneOutcome::kSurvived: return "survived";
    case LaneOutcome::kCrashed: return "crashed";
    case LaneOutcome::kTimedOut: return "timed_out";
    case LaneOutcome::kRefused: return "refused";
    case LaneOutcome::kSkipped: return "skipped";
    }
    return "?";
}

int EvaluationReport::survivors() const {
    int n = 0;
    for (const LaneRecord& lane : lanes)
        if (lane.outcome == LaneOutcome::kWon || lane.outcome == LaneOutcome::kSurvived) ++n;
    return n;
}

std::string EvaluationReport::winnerName() const {
    if (winnerLane < 0 || static_cast<std::size_t>(winnerLane) >= lanes.size())
        return "fallback";
    return engineName(lanes[static_cast<std::size_t>(winnerLane)].engine);
}

PortfolioResult runPortfolio(const Hypergraph& h, const PortfolioConfig& cfg) {
    if (cfg.k < 2) throw Error(StatusCode::kUsage, "portfolio: k must be >= 2");
    if (cfg.k > h.numModules())
        throw Error(StatusCode::kInfeasible,
                    "cannot split " + std::to_string(h.numModules()) + " modules into " +
                        std::to_string(cfg.k) + " non-empty blocks");
    if (cfg.runs < 1) throw Error(StatusCode::kUsage, "portfolio: runs must be >= 1");
    if (cfg.budgetSeconds < 0)
        throw Error(StatusCode::kUsage, "portfolio: budget must be >= 0");

    // Requested lanes, deduplicated into fixed engine-rank order.
    bool wanted[kEngineCount] = {false, false, false, false, false};
    if (cfg.engines.empty()) {
        for (bool& w : wanted) w = true;
    } else {
        for (const EngineKind e : cfg.engines) wanted[static_cast<int>(e)] = true;
    }
    int eligible = 0;
    for (int i = 0; i < kEngineCount; ++i) {
        const auto e = static_cast<EngineKind>(i);
        if (wanted[i] && e == EngineKind::kSpectral && cfg.k != 2) continue;
        if (wanted[i]) ++eligible;
    }
    if (eligible == 0)
        throw Error(StatusCode::kUsage, "portfolio: no eligible engine lanes");

    const auto jobStart = std::chrono::steady_clock::now();
    PortfolioResult result;
    result.report.lanes.reserve(kEngineCount);

    // Surviving lane partitions, indexed like report.lanes.
    std::vector<Partition> products;
    products.reserve(kEngineCount);

    const BalanceConstraint bc = BalanceConstraint::forRefinement(h, cfg.k, cfg.tolerance);
    const std::uint64_t reserveBytes = robust::MemoryGovernor::estimateStartBytes(
        h.numModules(), h.numNets(), h.numPins(), cfg.k);

    for (int rank = 0; rank < kEngineCount; ++rank) {
        const auto engine = static_cast<EngineKind>(rank);
        LaneRecord lane;
        lane.engine = engine;
        products.emplace_back(); // placeholder; replaced on survival

        if (!wanted[rank]) {
            lane.outcome = LaneOutcome::kSkipped;
            lane.status = {StatusCode::kOk, "lane not requested"};
            result.report.lanes.push_back(std::move(lane));
            continue;
        }
        if (engine == EngineKind::kSpectral && cfg.k != 2) {
            lane.outcome = LaneOutcome::kSkipped;
            lane.status = {StatusCode::kUsage, "spectral: bisection only (k = 2)"};
            result.report.lanes.push_back(std::move(lane));
            continue;
        }

        // The slice is cut fresh per lane so a fast early lane never
        // starves a later one: each gets budget/eligible seconds of its
        // own, intersected with the caller's deadline/cancel flag.
        Deadline slice = cfg.deadline;
        if (cfg.budgetSeconds > 0)
            slice = Deadline::earlier(
                slice, Deadline::after(cfg.budgetSeconds / static_cast<double>(eligible)));

        const auto laneStart = std::chrono::steady_clock::now();
        try {
            MLPART_FAULT_SITE(laneFaultSite(engine));
            try {
                MLPART_FAULT_SITE("portfolio.lane.hang");
            } catch (...) {
                // A fired hang stalls the lane cooperatively: nothing
                // happens until the slice expires (forever under an
                // unlimited deadline — the serve watchdog's business),
                // then the lane winds down as a timeout.
                while (!slice.expired())
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                throw Error(StatusCode::kDeadlineExceeded,
                            "lane hang: wound down at deadline");
            }
            auto reservation = robust::MemoryGovernor::instance().reserve(reserveBytes);

            std::mt19937_64 rng(
                robust::hashCombine(cfg.seed, 0x9e3779b9u + static_cast<std::uint64_t>(rank)));
            LaneProduct product = runEngine(engine, h, cfg, rng, slice);

            lane.cut = static_cast<std::int64_t>(product.cut);
            lane.maxBlockArea = maxBlockArea(product.part, cfg.k);
            lane.deadlineHit = product.deadlineHit;
            if (cfg.verifyLanes) {
                check::PartitionCheckOptions opt;
                opt.balance = &bc;
                opt.expectedCut = product.cut;
                const check::CheckResult check = check::verifyPartition(h, product.part, opt);
                if (!check.ok())
                    throw Error(StatusCode::kInternal,
                                std::string("lane result failed verification: ") +
                                    check.summary());
                lane.verified = true;
            }
            lane.outcome = LaneOutcome::kSurvived;
            lane.status = robust::Status::okStatus();
            products.back() = std::move(product.part);
        } catch (const Error& e) {
            lane.cut = -1;
            lane.maxBlockArea = -1;
            lane.verified = false;
            lane.outcome = e.code() == StatusCode::kDeadlineExceeded ? LaneOutcome::kTimedOut
                                                                     : LaneOutcome::kCrashed;
            lane.status = e.status();
        } catch (const std::bad_alloc&) {
            lane.cut = -1;
            lane.maxBlockArea = -1;
            lane.verified = false;
            lane.outcome = LaneOutcome::kRefused;
            lane.status = {StatusCode::kResourceExhausted, "lane admission refused"};
        } catch (const std::exception& e) {
            lane.cut = -1;
            lane.maxBlockArea = -1;
            lane.verified = false;
            lane.outcome = LaneOutcome::kCrashed;
            lane.status = {StatusCode::kInternal, e.what()};
        }
        lane.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     laneStart)
                           .count();
        result.report.lanes.push_back(std::move(lane));
    }

    // Fixed total order: best cut, then best balance (smallest worst
    // block), then engine rank. Pure function of the lane records — no
    // timing term, so the winner is identical whenever the same lanes
    // survive with the same results.
    std::int32_t winner = -1;
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(result.report.lanes.size()); ++i) {
        const LaneRecord& lane = result.report.lanes[static_cast<std::size_t>(i)];
        if (lane.outcome != LaneOutcome::kSurvived) continue;
        if (winner < 0) {
            winner = i;
            continue;
        }
        const LaneRecord& cur = result.report.lanes[static_cast<std::size_t>(winner)];
        if (lane.cut < cur.cut ||
            (lane.cut == cur.cut && lane.maxBlockArea < cur.maxBlockArea))
            winner = i;
    }

    if (winner >= 0) {
        result.report.winnerLane = winner;
        result.report.lanes[static_cast<std::size_t>(winner)].outcome = LaneOutcome::kWon;
        result.best = std::move(products[static_cast<std::size_t>(winner)]);
        result.bestCut =
            static_cast<Weight>(result.report.lanes[static_cast<std::size_t>(winner)].cut);
    } else {
        // Degradation floor: every lane died, so fall back to the greedy
        // area split (an expired deadline forces recursiveBisection's
        // site-free greedy path). The job still answers.
        result.report.fallbackUsed = true;
        std::mt19937_64 rng(robust::hashCombine(cfg.seed, 0xFA11BACCull));
        result.best = recursiveBisection(h, cfg.k, makeMLConfig(cfg), makeFactory(cfg), rng,
                                         Deadline::after(0.0));
        result.bestCut = cutWeight(h, result.best);
    }
    result.report.totalSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - jobStart).count();
    return result;
}

std::string evaluationReportJson(const EvaluationReport& report) {
    std::string out = "{\"winner\":\"";
    out += report.winnerName();
    out += "\",\"fallback\":";
    out += report.fallbackUsed ? "true" : "false";
    out += ",\"total_seconds\":";
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", report.totalSeconds);
        out += buf;
    }
    out += ",\"lanes\":[";
    bool first = true;
    for (const LaneRecord& lane : report.lanes) {
        if (!first) out += ",";
        first = false;
        out += "{\"engine\":\"";
        out += engineName(lane.engine);
        out += "\",\"outcome\":\"";
        out += laneOutcomeName(lane.outcome);
        out += "\",\"status\":\"";
        out += robust::statusCodeName(lane.status.code);
        out += "\",\"cut\":";
        out += std::to_string(lane.cut);
        out += ",\"max_block_area\":";
        out += std::to_string(lane.maxBlockArea);
        out += ",\"seconds\":";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", lane.seconds);
        out += buf;
        out += ",\"deadline_hit\":";
        out += lane.deadlineHit ? "true" : "false";
        out += ",\"verified\":";
        out += lane.verified ? "true" : "false";
        if (!lane.status.message.empty()) {
            out += ",\"message\":\"";
            appendEscaped(out, lane.status.message);
            out += "\"";
        }
        out += "}";
    }
    out += "]}";
    return out;
}

void encodeEvaluationReport(robust::WireWriter& w, const EvaluationReport& report) {
    w.u32(static_cast<std::uint32_t>(report.lanes.size()));
    for (const LaneRecord& lane : report.lanes) {
        w.u8(static_cast<std::uint8_t>(lane.engine));
        w.u8(static_cast<std::uint8_t>(lane.outcome));
        w.u8(static_cast<std::uint8_t>(lane.status.code));
        w.str(lane.status.message);
        w.i64(lane.cut);
        w.i64(lane.maxBlockArea);
        w.f64(lane.seconds);
        w.u8(lane.deadlineHit ? 1 : 0);
        w.u8(lane.verified ? 1 : 0);
    }
    w.i32(report.winnerLane);
    w.u8(report.fallbackUsed ? 1 : 0);
    w.f64(report.totalSeconds);
}

EvaluationReport decodeEvaluationReport(robust::WireReader& in) {
    EvaluationReport report;
    const std::uint32_t count = in.u32();
    if (count > kMaxWireLanes)
        throw Error(StatusCode::kParseError,
                    "evaluation report: implausible lane count " + std::to_string(count));
    report.lanes.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        LaneRecord lane;
        lane.engine = in.enumU8(static_cast<EngineKind>(kEngineCount - 1),
                                "evaluation report: invalid engine");
        lane.outcome = in.enumU8(LaneOutcome::kSkipped, "evaluation report: invalid outcome");
        lane.status.code =
            in.enumU8(robust::kMaxStatusCode, "evaluation report: invalid status code");
        lane.status.message = in.str();
        lane.cut = in.i64();
        lane.maxBlockArea = in.i64();
        lane.seconds = in.f64();
        lane.deadlineHit = in.u8() != 0;
        lane.verified = in.u8() != 0;
        report.lanes.push_back(std::move(lane));
    }
    report.winnerLane = in.i32();
    if (report.winnerLane < -1 ||
        report.winnerLane >= static_cast<std::int32_t>(report.lanes.size()))
        throw Error(StatusCode::kParseError, "evaluation report: winner out of range");
    report.fallbackUsed = in.u8() != 0;
    report.totalSeconds = in.f64();
    return report;
}

} // namespace mlpart::portfolio
