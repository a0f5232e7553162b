#include "core/parallel_multistart.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "check/verify_partition.h"
#include "core/workspace_pool.h"
#include "hypergraph/io.h"
#include "hypergraph/stats.h"
#include "kway/kway_refiner.h" // makeKWayFactory, kKWayEngineRevision
#include "refine/multistart.h"  // makeFMFactory, kBisectionEngineRevision
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/memory_governor.h"
#include "robust/status.h"

namespace mlpart {

namespace {

// Retry streams must depend on (seed, run, attempt) alone so failures and
// their reseeded retries are reproducible for any thread count. Attempt 0
// keeps the historical (seed, run) formula — determinism tests pin it.
std::uint64_t streamSeed(std::uint64_t seed, int run, int attempt) {
    if (attempt == 0) return seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(run);
    std::uint64_t x = seed ^ (0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(run) + 1));
    x ^= 0x94d049bb133111ebULL * static_cast<std::uint64_t>(attempt);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return x;
}

// The fingerprint binds a checkpoint to everything that determines the
// run's results: the instance, the ML configuration, the multi-start
// protocol, and the caller's salt (engine choice). Resuming under any
// other combination must be rejected as stale, not silently blended.
std::uint64_t runFingerprint(const Hypergraph& h, const MultilevelPartitioner& ml,
                             const MultiStartConfig& cfg) {
    using robust::hashCombine;
    std::uint64_t f = hypergraphFingerprint(h);
    f = hashCombine(f, configFingerprint(ml.config()));
    f = hashCombine(f, cfg.seed);
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.runs));
    f = hashCombine(f, static_cast<std::uint64_t>(cfg.maxRetries));
    f = hashCombine(f, cfg.verifyResults ? 1u : 0u);
    f = hashCombine(f, cfg.fingerprintSalt);
    return f == 0 ? 1 : f;
}

/// A validated V-cycle-boundary snapshot, decoded and ready to hand to
/// MultilevelPartitioner::run as a resume point. Built during the
/// validate-then-commit resume pass; one per in-flight run at most.
struct RestoredPartial {
    int attempt = 0;
    int cyclesDone = 0;
    Partition partition;
    std::mt19937_64 rng;

    explicit RestoredPartial(Partition p) : partition(std::move(p)) {}
};

} // namespace

MLEngine makeMLEngine(const std::string& engine, PartId k, double tolerance,
                      double matchingRatio, int vcycleThreads) {
    if (engine != "fm" && engine != "clip")
        throw robust::Error(robust::StatusCode::kUsage, "unknown engine '" + engine + "'");
    MLEngine out;
    out.config.k = k;
    out.config.tolerance = tolerance;
    out.config.matchingRatio = matchingRatio;
    if (k > 2) out.config.coarseningThreshold = 100;
    out.config.vcycleThreads = vcycleThreads;
    if (k == 2) {
        FMConfig fm;
        fm.tolerance = tolerance;
        if (engine == "clip") fm.variant = EngineVariant::kCLIP;
        out.factory = makeFMFactory(fm);
    } else {
        KWayConfig kw;
        kw.tolerance = tolerance;
        kw.clip = engine == "clip";
        out.factory = makeKWayFactory(kw);
    }
    return out;
}

std::uint64_t engineFingerprintSalt(const std::string& engine, PartId k) {
    std::uint64_t salt = 0x454e47u; // "ENG"
    for (const char c : engine)
        salt = robust::hashCombine(salt, static_cast<std::uint8_t>(c));
    return robust::hashCombine(salt, k == 2 ? kBisectionEngineRevision : kKWayEngineRevision);
}

MultiStartOutcome parallelMultiStart(const Hypergraph& h, const MultilevelPartitioner& ml,
                                     const MultiStartConfig& cfg) {
    if (cfg.runs < 1) throw std::invalid_argument("parallelMultiStart: runs must be >= 1");
    if (cfg.threads < 0) throw std::invalid_argument("parallelMultiStart: threads must be >= 0");
    if (cfg.maxRetries < 0)
        throw std::invalid_argument("parallelMultiStart: maxRetries must be >= 0");
    if (cfg.checkpointEvery < 1)
        throw std::invalid_argument("parallelMultiStart: checkpointEvery must be >= 1");
    if (cfg.resume && cfg.checkpointPath.empty())
        throw std::invalid_argument("parallelMultiStart: resume requires a checkpoint path");
    unsigned threads = cfg.threads > 0 ? static_cast<unsigned>(cfg.threads)
                                       : std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(threads, static_cast<unsigned>(cfg.runs));

    // Memory governance: refuse upfront if a single start cannot fit the
    // budget, and clamp the worker count so the sum of concurrent per-start
    // reservations never exceeds it. Clamping (instead of letting late
    // reservations fail) keeps results deterministic — which starts run is
    // never decided by an allocation race.
    const std::uint64_t perStartBytes = robust::MemoryGovernor::estimateStartBytes(
        h.numModules(), h.numNets(), h.numPins(), ml.config().k);
    threads = static_cast<unsigned>(
        robust::MemoryGovernor::instance().clampThreads(static_cast<int>(threads), perStartBytes));

    robust::Deadline deadline = cfg.deadline;
    if (cfg.timeoutSeconds > 0)
        deadline = robust::Deadline::earlier(deadline, robust::Deadline::after(cfg.timeoutSeconds));

    Stopwatch watch;
    std::vector<robust::StartRecord> records(static_cast<std::size_t>(cfg.runs));
    // done[i] — record i is final and safe to persist / skip on resume.
    // Written under stateMutex so checkpoint snapshots are consistent.
    std::vector<char> done(static_cast<std::size_t>(cfg.runs), 0);
    std::mutex stateMutex;
    Partition best(h, ml.config().k);
    Weight bestCut = 0;
    int bestRun = -1;
    std::atomic<bool> deadlineHit{false};

    const bool checkpointing = !cfg.checkpointPath.empty();
    const std::uint64_t fingerprint = checkpointing ? runFingerprint(h, ml, cfg) : 0;
    int resumedStarts = 0;
    robust::Status resumeStatus;
    robust::Status checkpointStatus;
    // Validated V-cycle snapshots, indexed by run; null = none. Only ever
    // populated on resume with checkpointEveryCycle-written checkpoints.
    std::vector<std::unique_ptr<RestoredPartial>> restoredPartials(
        static_cast<std::size_t>(cfg.runs));

    if (checkpointing && cfg.resume) {
        try {
            robust::CheckpointState st = robust::loadCheckpoint(cfg.checkpointPath, fingerprint);
            if (st.runs != cfg.runs)
                throw robust::Error(robust::StatusCode::kParseError,
                                    "checkpoint: run count mismatch");
            // Validate *everything* before committing anything, so a bad
            // checkpoint leaves the fresh-start state untouched.
            Partition restoredBest(h, ml.config().k);
            if (st.bestRun >= 0) {
                restoredBest = decodePartitionBinary(h, st.bestBlob.data(), st.bestBlob.size());
                check::PartitionCheckOptions opt;
                opt.expectedCut = st.bestCut;
                const check::CheckResult chk = check::verifyPartition(h, restoredBest, opt);
                if (!chk.ok())
                    throw robust::Error(robust::StatusCode::kParseError,
                                        "checkpoint: restored best partition invalid: " +
                                            chk.summary());
            }
            std::vector<std::unique_ptr<RestoredPartial>> pendingPartials(
                static_cast<std::size_t>(cfg.runs));
            for (const robust::CheckpointPartial& p : st.partial) {
                // Structural bounds were checked by the parser; here the
                // snapshot is held against the *live* configuration: a
                // partial claiming more cycles than configured or an
                // attempt beyond the retry budget cannot have been written
                // by this run shape.
                if (p.cyclesDone >= ml.config().vCycles)
                    throw robust::Error(robust::StatusCode::kParseError,
                                        "checkpoint: partial claims more cycles than configured");
                if (p.attempt > cfg.maxRetries)
                    throw robust::Error(robust::StatusCode::kParseError,
                                        "checkpoint: partial attempt beyond the retry budget");
                auto rp = std::make_unique<RestoredPartial>(
                    decodePartitionBinary(h, p.blob.data(), p.blob.size()));
                check::PartitionCheckOptions opt;
                opt.expectedCut = p.cut;
                const check::CheckResult chk = check::verifyPartition(h, rp->partition, opt);
                if (!chk.ok())
                    throw robust::Error(robust::StatusCode::kParseError,
                                        "checkpoint: restored partial partition invalid: " +
                                            chk.summary());
                std::istringstream is(p.rngState);
                is >> rp->rng;
                if (is.fail())
                    throw robust::Error(robust::StatusCode::kParseError,
                                        "checkpoint: partial RNG state unreadable");
                rp->attempt = p.attempt;
                rp->cyclesDone = p.cyclesDone;
                pendingPartials[static_cast<std::size_t>(p.run)] = std::move(rp);
            }
            for (const robust::CheckpointStart& d : st.done) {
                records[static_cast<std::size_t>(d.run)] = d.record;
                done[static_cast<std::size_t>(d.run)] = 1;
            }
            resumedStarts = static_cast<int>(st.done.size());
            restoredPartials = std::move(pendingPartials);
            if (st.bestRun >= 0) {
                best = std::move(restoredBest);
                bestCut = st.bestCut;
                bestRun = st.bestRun;
            }
        } catch (const robust::Error& e) {
            // Corrupt / missing / stale checkpoints degrade to a fresh
            // run; anything else (e.g. kResourceExhausted) is a real
            // failure and propagates.
            if (e.code() != robust::StatusCode::kParseError) throw;
            resumeStatus = e.status();
        }
    }

    // Latest V-cycle snapshot per in-flight run (cyclesDone == 0 = none),
    // written by the per-cycle observer under stateMutex and cleared when
    // the run finalizes — a run is never both done and partial.
    std::vector<robust::CheckpointPartial> partials(static_cast<std::size_t>(cfg.runs));

    // Checkpoint writes: snapshot under stateMutex (cheap — records plus
    // one partition encode), then serialize + write the file under a
    // separate IO mutex so workers are never blocked on fsync. The
    // monotonic progress guard (done starts dominate, then total partial
    // cycles) drops snapshots that raced behind a newer one, so the file
    // on disk never goes backwards.
    std::mutex ckptIoMutex;
    std::int64_t lastWrittenProgress = -1;
    auto writeCheckpoint = [&](bool finalWrite) {
        if (!checkpointing) return;
        robust::CheckpointState st;
        st.fingerprint = fingerprint;
        st.seed = cfg.seed;
        st.runs = cfg.runs;
        std::int64_t progress = 0;
        {
            std::lock_guard<std::mutex> lock(stateMutex);
            for (int i = 0; i < cfg.runs; ++i)
                if (done[static_cast<std::size_t>(i)])
                    st.done.push_back({i, records[static_cast<std::size_t>(i)]});
            for (int i = 0; i < cfg.runs; ++i)
                if (partials[static_cast<std::size_t>(i)].cyclesDone >= 1 &&
                    !done[static_cast<std::size_t>(i)])
                    st.partial.push_back(partials[static_cast<std::size_t>(i)]);
            if (bestRun >= 0) {
                st.bestRun = bestRun;
                st.bestCut = bestCut;
                st.bestBlob = encodePartitionBinary(best);
            }
            progress = static_cast<std::int64_t>(st.done.size()) << 20;
            for (const robust::CheckpointPartial& p : st.partial) progress += p.cyclesDone;
        }
        std::lock_guard<std::mutex> io(ckptIoMutex);
        if (!finalWrite && progress <= lastWrittenProgress) return;
        const robust::Status s = robust::saveCheckpoint(cfg.checkpointPath, st);
        if (s.ok()) {
            lastWrittenProgress = progress;
        } else {
            std::lock_guard<std::mutex> lock(stateMutex);
            checkpointStatus = s;
        }
    };

    std::atomic<int> next{0};
    std::atomic<int> completedSinceCkpt{0};
    // Snapshot before the pool spawns: workers must not read the shared
    // bestRun without the lock, and the guarantee they need ("a result
    // exists even if the deadline already expired") is a property of the
    // restored state, not of the live incumbent.
    const bool restoredResultExists = bestRun >= 0;
    auto worker = [&]() {
        // One pooled workspace per worker thread: buffer capacity persists
        // across all runs this thread claims, so only the first (largest)
        // level of its first run pays the scratch allocations.
        //
        // Exception-safety audit (per-start isolation): the workspace is
        // declared *outside* the retry loop and owns every scratch buffer
        // by value (vectors), so a throw mid-V-cycle — injected fault,
        // bad_alloc from the governor, verification failure — unwinds
        // through `ws` without leaking and without destroying it; the
        // engines re-initialise every buffer they touch at the start of
        // each run (except the parallel matcher's conn rows: it only
        // grows them and zeroes them on a throw), so a half-mutated
        // workspace is safe to reuse for the retry and for later runs.
        //
        // The workspace is leased from the process-wide pool: across
        // *calls* (a long-lived service running many jobs) the warmed
        // capacity is reused for same-sized instances and shrunk when the
        // workload steps down a size bucket (workspace_pool.h).
        WorkspacePool::Lease lease = WorkspacePool::instance().acquire(h.numModules());
        MLWorkspace& ws = *lease;
        while (true) {
            const int run = next.fetch_add(1);
            if (run >= cfg.runs) break;
            robust::StartRecord& rec = records[static_cast<std::size_t>(run)];
            if (done[static_cast<std::size_t>(run)]) continue; // restored from checkpoint
            // Run 0 always executes so a deadline alone can never empty
            // the result set; later runs are skipped once it expires.
            // (On resume, a restored run 0 already guarantees that.)
            if ((run > 0 || restoredResultExists) && deadline.expired()) {
                rec.status = robust::StartStatus::kSkippedDeadline;
                deadlineHit.store(true, std::memory_order_relaxed);
                continue;
            }
            bool finalized = false;
            // A restored V-cycle snapshot resumes at the attempt it was
            // taken in — earlier attempts already failed in the interrupted
            // process, so starting there reproduces the uninterrupted
            // attempt count and status exactly.
            const RestoredPartial* rp = restoredPartials[static_cast<std::size_t>(run)].get();
            const int startAttempt = rp != nullptr ? rp->attempt : 0;
            for (int attempt = startAttempt; attempt <= cfg.maxRetries; ++attempt) {
                rec.attempts = attempt + 1;
                try {
                    MLPART_FAULT_SITE("multistart.start");
                    // Reserved for the whole attempt, released on any exit
                    // (including throw) when the guard leaves scope.
                    const robust::MemoryGovernor::Reservation reservation =
                        robust::MemoryGovernor::instance().reserve(perStartBytes);
                    // Per-run stream derived from (seed, run, attempt)
                    // only: scheduling cannot influence any run's result.
                    std::mt19937_64 rng(streamSeed(cfg.seed, run, attempt));
                    MLCycleResume resumePoint;
                    const MLCycleResume* resumePtr = nullptr;
                    if (rp != nullptr && attempt == rp->attempt) {
                        // Continue mid-start: restored rng stream + restored
                        // incumbent replay the remaining cycles exactly.
                        rng = rp->rng;
                        resumePoint.cyclesDone = rp->cyclesDone;
                        resumePoint.best = &rp->partition;
                        resumePtr = &resumePoint;
                    }
                    MLCycleObserver observer;
                    if (checkpointing && cfg.checkpointEveryCycle) {
                        observer = [&, run, attempt](int cyclesDone, const Partition& bp,
                                                     Weight cut, const std::mt19937_64& rs) {
                            std::ostringstream os;
                            os << rs;
                            {
                                std::lock_guard<std::mutex> lock(stateMutex);
                                robust::CheckpointPartial& p =
                                    partials[static_cast<std::size_t>(run)];
                                p.run = run;
                                p.attempt = attempt;
                                p.cyclesDone = cyclesDone;
                                p.cut = cut;
                                p.rngState = os.str();
                                p.blob = encodePartitionBinary(bp);
                            }
                            writeCheckpoint(false);
                        };
                    }
                    MLResult r = ml.run(h, rng, deadline, ws, resumePtr, observer);
                    if (cfg.verifyResults) {
                        check::PartitionCheckOptions opt;
                        opt.expectedCut = r.cut;
                        const check::CheckResult chk =
                            check::verifyPartition(h, r.partition, opt);
                        if (!chk.ok())
                            throw robust::Error(robust::StatusCode::kInternal,
                                                "start " + std::to_string(run) +
                                                    " produced an invalid partition: " +
                                                    chk.summary());
                    }
                    rec.status = attempt == 0 ? robust::StartStatus::kOk
                                              : robust::StartStatus::kRetriedOk;
                    rec.cut = r.cut;
                    {
                        std::lock_guard<std::mutex> lock(stateMutex);
                        // Deterministic winner: lowest cut, then lowest run
                        // index.
                        if (bestRun == -1 || r.cut < bestCut ||
                            (r.cut == bestCut && run < bestRun)) {
                            best = std::move(r.partition);
                            bestCut = r.cut;
                            bestRun = run;
                        }
                        done[static_cast<std::size_t>(run)] = 1;
                        partials[static_cast<std::size_t>(run)].cyclesDone = 0;
                    }
                    finalized = true;
                    break;
                } catch (const std::exception& e) {
                    rec.status = robust::StartStatus::kFailed;
                    rec.error = robust::statusOf(e);
                    // A snapshot of the attempt that just failed must not
                    // survive it: replaying one would re-enter an attempt
                    // the live process has already moved past.
                    {
                        std::lock_guard<std::mutex> lock(stateMutex);
                        partials[static_cast<std::size_t>(run)].cyclesDone = 0;
                    }
                    // Retry (reseeded) unless attempts are spent or the
                    // budget is gone — a deadline failure will only repeat.
                    if (attempt >= cfg.maxRetries || deadline.expired()) {
                        std::lock_guard<std::mutex> lock(stateMutex);
                        done[static_cast<std::size_t>(run)] = 1;
                        finalized = true;
                        break;
                    }
                }
            }
            if (finalized && checkpointing &&
                completedSinceCkpt.fetch_add(1) % cfg.checkpointEvery == cfg.checkpointEvery - 1)
                writeCheckpoint(false);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();

    // One final write after the join: resuming a *finished* run then
    // costs zero re-partitioning (and the cadence above may have left the
    // last < checkpointEvery starts unpersisted).
    writeCheckpoint(true);

    MultiStartOutcome out{std::move(best), bestCut, bestRun, {}, watch.seconds(), {}};
    out.report.starts = std::move(records);
    out.report.deadlineHit = deadlineHit.load(std::memory_order_relaxed) || deadline.expired();
    out.resumedStarts = resumedStarts;
    out.resumeStatus = std::move(resumeStatus);
    out.checkpointStatus = std::move(checkpointStatus);
    for (const robust::StartRecord& rec : out.report.starts)
        if (rec.status == robust::StartStatus::kOk ||
            rec.status == robust::StartStatus::kRetriedOk)
            out.cuts.add(static_cast<double>(rec.cut));
    if (bestRun < 0)
        throw robust::Error(robust::StatusCode::kAllStartsFailed,
                            "parallelMultiStart: every start failed — " + out.report.summary());
    return out;
}

} // namespace mlpart
