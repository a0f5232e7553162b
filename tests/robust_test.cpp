// Tests for the fault-tolerant execution layer (src/robust): the error
// taxonomy, cooperative deadlines, deterministic fault injection, and the
// per-start isolation / best-so-far salvage in parallelMultiStart.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/verify_partition.h"
#include "core/parallel_multistart.h"
#include "core/recursive_bisection.h"
#include "kway/kway_refiner.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/robust.h"
#include "test_util.h"

namespace mlpart {
namespace {

using robust::Deadline;
using robust::Error;
using robust::FaultInjector;
using robust::FaultKind;
using robust::FaultPlan;
using robust::StartStatus;
using robust::StatusCode;

// The injector is process-wide; every test that arms it must disarm it
// even on assertion failure, or it would poison the rest of the suite.
struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

double secondsSince(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void expectValid(const Hypergraph& h, const Partition& part, Weight expectedCut) {
    check::PartitionCheckOptions opt;
    opt.expectedCut = expectedCut;
    const check::CheckResult r = check::verifyPartition(h, part, opt);
    EXPECT_TRUE(r.ok()) << r.summary();
}

// ---------------------------------------------------------------- status

TEST(Status, ExitCodesAreDistinctAndStable) {
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kOk), 0);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kUsage), 2);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kParseError), 3);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kInfeasible), 4);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kDeadlineExceeded), 5);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kAllStartsFailed), 6);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kResourceExhausted), 7);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kInterrupted), 130);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kInternal), 1);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kInjectedFault), 1);
}

TEST(Status, ExitCodeMappingIsExhaustiveAndRoundTrips) {
    // Walk *every* enumerator so adding a StatusCode without extending
    // exitCodeFor / statusForExitCode / statusCodeName fails here first.
    std::set<int> seenExitCodes;
    std::set<std::string> seenNames;
    int enumerators = 0;
    for (int raw = 0; raw <= static_cast<int>(robust::kMaxStatusCode); ++raw) {
        const StatusCode code = static_cast<StatusCode>(raw);
        ++enumerators;
        const int exitCode = robust::exitCodeFor(code);
        EXPECT_GE(exitCode, 0);
        EXPECT_LE(exitCode, 255) << "exit codes must survive waitpid truncation";
        seenExitCodes.insert(exitCode);
        const char* name = robust::statusCodeName(code);
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(seenNames.insert(name).second) << "duplicate name " << name;
        // Round trip. kInjectedFault shares exit 1 with kInternal — the
        // documented single exception — so it classifies as kInternal.
        const StatusCode back = robust::statusForExitCode(exitCode);
        if (code == StatusCode::kInjectedFault)
            EXPECT_EQ(back, StatusCode::kInternal);
        else
            EXPECT_EQ(back, code) << "exit " << exitCode << " does not round-trip";
    }
    EXPECT_EQ(enumerators, 13); // update alongside StatusCode + kMaxStatusCode
    // Every code except the documented kInjectedFault/kInternal collision
    // owns a distinct exit code.
    EXPECT_EQ(seenExitCodes.size(), static_cast<std::size_t>(enumerators - 1));
    // The service codes appended after kInternal keep their assigned slots
    // (persisted checkpoint bytes depend on the enumerator order).
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kWorkerCrashed), 8);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kRejected), 9);
    EXPECT_EQ(robust::exitCodeFor(StatusCode::kCancelled), 10);
    EXPECT_STREQ(robust::statusCodeName(StatusCode::kWorkerCrashed), "WORKER_CRASHED");
    EXPECT_STREQ(robust::statusCodeName(StatusCode::kRejected), "REJECTED");
    EXPECT_STREQ(robust::statusCodeName(StatusCode::kCancelled), "CANCELLED");
    // Unknown exit codes (a worker killed mid-_exit, a shell 127) are
    // total-mapped to kInternal, never UB or a throw.
    for (const int garbage : {42, 126, 127, 128, 255, -1})
        EXPECT_EQ(robust::statusForExitCode(garbage), StatusCode::kInternal);
}

TEST(Status, ErrorCarriesCodeAndStaysARuntimeError) {
    const Error e(StatusCode::kParseError, "bad header");
    EXPECT_EQ(e.code(), StatusCode::kParseError);
    EXPECT_STREQ(e.what(), "bad header");
    // Legacy catch sites must keep working.
    EXPECT_THROW(throw Error(StatusCode::kInfeasible, "x"), std::runtime_error);
}

TEST(Status, StatusOfClassifiesExceptions) {
    const Error e(StatusCode::kDeadlineExceeded, "late");
    EXPECT_EQ(robust::statusOf(e).code, StatusCode::kDeadlineExceeded);
    const std::bad_alloc oom;
    EXPECT_EQ(robust::statusOf(oom).code, StatusCode::kResourceExhausted);
    const std::runtime_error plain("boom");
    EXPECT_EQ(robust::statusOf(plain).code, StatusCode::kInternal);
    EXPECT_EQ(robust::statusOf(plain).message, "boom");
}

// -------------------------------------------------------------- deadline

TEST(DeadlineTest, NeverIsUnlimitedAndCheapToCheck) {
    const Deadline d = Deadline::never();
    EXPECT_TRUE(d.unlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_EQ(d.remainingSeconds(), std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, AfterExpires) {
    EXPECT_TRUE(Deadline::after(0).expired());
    const Deadline d = Deadline::after(60.0);
    EXPECT_FALSE(d.expired());
    EXPECT_FALSE(d.unlimited());
    EXPECT_GT(d.remainingSeconds(), 30.0);
    const Deadline soon = Deadline::after(0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(soon.expired());
    EXPECT_EQ(soon.remainingSeconds(), 0.0);
}

TEST(DeadlineTest, CancelFlagTripsAnUntimedDeadline) {
    std::atomic<bool> cancel{false};
    Deadline d = Deadline::never();
    d.bindCancelFlag(&cancel);
    EXPECT_FALSE(d.unlimited()); // a bound flag must be polled
    EXPECT_FALSE(d.expired());
    cancel.store(true);
    EXPECT_TRUE(d.expired());
}

TEST(DeadlineTest, EarlierPicksTheTighterBoundAndInheritsCancel) {
    std::atomic<bool> cancel{false};
    Deadline a = Deadline::after(60.0);
    a.bindCancelFlag(&cancel);
    const Deadline b = Deadline::after(0.001);
    const Deadline tight = Deadline::earlier(a, b);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(tight.expired());

    const Deadline wide = Deadline::earlier(a, Deadline::never());
    EXPECT_FALSE(wide.expired());
    cancel.store(true);
    EXPECT_TRUE(wide.expired()); // flag inherited from `a`
}

TEST(DeadlineTest, EarlierIsCommutativeAndMinWins) {
    // Property sweep over a grid of budgets (seconds; -1 encodes "never").
    const double budgets[] = {-1.0, 0.0, 0.05, 1.0, 60.0, 3600.0};
    for (const double sa : budgets) {
        for (const double sb : budgets) {
            const Deadline a = sa < 0 ? Deadline::never() : Deadline::after(sa);
            const Deadline b = sb < 0 ? Deadline::never() : Deadline::after(sb);
            const Deadline ab = Deadline::earlier(a, b);
            const Deadline ba = Deadline::earlier(b, a);
            // Commutative in the time bound (flag inheritance is the
            // documented asymmetry and is tested separately).
            EXPECT_EQ(ab.unlimited(), ba.unlimited()) << sa << "," << sb;
            EXPECT_NEAR(ab.remainingSeconds() == std::numeric_limits<double>::infinity()
                            ? -1
                            : ab.remainingSeconds(),
                        ba.remainingSeconds() == std::numeric_limits<double>::infinity()
                            ? -1
                            : ba.remainingSeconds(),
                        0.05)
                << sa << "," << sb;
            // Min-wins: the composite can never outlive either input.
            EXPECT_LE(ab.remainingSeconds(), a.remainingSeconds() + 1e-9);
            EXPECT_LE(ab.remainingSeconds(), b.remainingSeconds() + 1e-9);
            // Never/never stays unlimited; anything timed does not.
            EXPECT_EQ(ab.unlimited(), sa < 0 && sb < 0);
        }
    }
}

TEST(DeadlineTest, EarlierPropagatesCancelFromEitherSide) {
    std::atomic<bool> cancel{false};
    Deadline flagged = Deadline::never();
    flagged.bindCancelFlag(&cancel);
    const Deadline plain = Deadline::after(3600.0);
    // Flag on the first argument and on the second: both composites trip.
    const Deadline viaA = Deadline::earlier(flagged, plain);
    const Deadline viaB = Deadline::earlier(plain, flagged);
    EXPECT_FALSE(viaA.expired());
    EXPECT_FALSE(viaB.expired());
    cancel.store(true);
    EXPECT_TRUE(viaA.expired());
    EXPECT_TRUE(viaB.expired());
    cancel.store(false);
}

// -------------------------------------------------------- fault injector

TEST(FaultInjection, ExactHitFiresOnceAtTheRequestedVisit) {
    InjectorGuard guard;
    FaultInjector& fi = FaultInjector::instance();
    FaultPlan plan;
    plan.site = "refine.fm.pass";
    plan.fireAtHit = 3;
    plan.maxFires = 1;
    fi.arm(plan);
    fi.visit("refine.fm.pass");
    fi.visit("coarsen.match"); // other sites only count their own hits
    fi.visit("refine.fm.pass");
    EXPECT_THROW(fi.visit("refine.fm.pass"), Error);
    fi.visit("refine.fm.pass"); // maxFires exhausted: never fires again
    EXPECT_EQ(fi.fires(), 1);
    EXPECT_EQ(fi.visits("refine.fm.pass"), 4);
    EXPECT_EQ(fi.visits("coarsen.match"), 1);
}

TEST(FaultInjection, ProbabilityScheduleIsDeterministicPerSeed) {
    InjectorGuard guard;
    FaultInjector& fi = FaultInjector::instance();
    FaultPlan plan;
    plan.seed = 99;
    plan.probability = 0.3;
    auto pattern = [&] {
        fi.arm(plan); // re-arming resets the visit counters
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i) {
            try {
                fi.visit("coarsen.induce");
                fired.push_back(false);
            } catch (const Error& e) {
                EXPECT_EQ(e.code(), StatusCode::kInjectedFault);
                fired.push_back(true);
            }
        }
        return fired;
    };
    const std::vector<bool> a = pattern();
    const std::vector<bool> b = pattern();
    EXPECT_EQ(a, b);
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0); // p=0.3 over 64 visits
    plan.seed = 100;
    EXPECT_NE(pattern(), a); // a different seed reshuffles the schedule
}

TEST(FaultInjection, BadAllocKindThrowsBadAlloc) {
    InjectorGuard guard;
    FaultPlan plan;
    plan.kind = FaultKind::kBadAlloc;
    plan.fireAtHit = 1;
    FaultInjector::instance().arm(plan);
    EXPECT_THROW(FaultInjector::instance().visit("ml.initial"), std::bad_alloc);
}

TEST(FaultInjection, ArmFromEnvParsesTheSpec) {
    InjectorGuard guard;
    FaultInjector& fi = FaultInjector::instance();
    ::unsetenv("MLPART_FAULT_INJECTION");
    EXPECT_FALSE(fi.armFromEnv());

    ::setenv("MLPART_FAULT_INJECTION", "site=multistart.start,at=1,max=1", 1);
    EXPECT_TRUE(fi.armFromEnv());
    EXPECT_TRUE(fi.armed());
    EXPECT_THROW(fi.visit("multistart.start"), Error);
    fi.visit("multistart.start"); // max=1 spent

    ::setenv("MLPART_FAULT_INJECTION", "bogus=1", 1);
    try {
        fi.armFromEnv();
        FAIL() << "unknown key must be rejected";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kUsage);
    }
    ::setenv("MLPART_FAULT_INJECTION", "kind=quantum", 1);
    EXPECT_THROW(fi.armFromEnv(), Error);
    ::unsetenv("MLPART_FAULT_INJECTION");
}

// ----------------------------------------------------- deadline-bounded ML

TEST(DeadlineBounded, MLStopsWithinBudgetAndStaysValid) {
    const Hypergraph h = testing::mediumCircuit(1200, 11);
    MLConfig cfg;
    cfg.vCycles = 200; // unbounded this would run far past the budget
    MultilevelPartitioner ml(cfg, makeFMFactory({}));
    std::mt19937_64 rng(5);
    const double budget = 0.05;
    const auto t0 = std::chrono::steady_clock::now();
    const MLResult r = ml.run(h, rng, Deadline::after(budget));
    EXPECT_LT(secondsSince(t0), budget + 0.1);
    expectValid(h, r.partition, r.cut);
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, cfg.tolerance).satisfied(r.partition));
}

TEST(DeadlineBounded, AlreadyExpiredDeadlineStillYieldsAValidPartition) {
    const Hypergraph h = testing::mediumCircuit(500, 13);
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    std::mt19937_64 rng(5);
    const auto t0 = std::chrono::steady_clock::now();
    const MLResult r = ml.run(h, rng, Deadline::after(0));
    EXPECT_LT(secondsSince(t0), 0.1);
    expectValid(h, r.partition, r.cut);
    EXPECT_TRUE(BalanceConstraint::forRefinement(h, 2, 0.1).satisfied(r.partition));
}

TEST(DeadlineBounded, RecursiveBisectionSalvagesACompletePartition) {
    const Hypergraph h = testing::mediumCircuit(400, 17);
    std::mt19937_64 rng(5);
    const Partition p =
        recursiveBisection(h, 5, MLConfig{}, makeFMFactory({}), rng, Deadline::after(0));
    EXPECT_EQ(p.numParts(), 5);
    for (PartId b = 0; b < 5; ++b) EXPECT_GT(p.blockArea(b), 0) << "empty block " << b;
    const check::CheckResult r = check::verifyPartition(h, p);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(DeadlineBounded, MultiStartHonoursTimeoutAndReportsSkips) {
    const Hypergraph h = testing::mediumCircuit(500, 19);
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    MultiStartConfig cfg;
    cfg.runs = 2000; // far more than 20 ms worth of work
    cfg.threads = 4;
    cfg.timeoutSeconds = 0.02;
    const auto t0 = std::chrono::steady_clock::now();
    const MultiStartOutcome out = parallelMultiStart(h, ml, cfg);
    EXPECT_LT(secondsSince(t0), cfg.timeoutSeconds + 0.1);
    EXPECT_TRUE(out.ok());
    EXPECT_TRUE(out.report.deadlineHit);
    EXPECT_GT(out.report.skipped(), 0);
    EXPECT_EQ(out.cuts.count(), out.report.succeeded());
    EXPECT_EQ(static_cast<int>(out.report.starts.size()), cfg.runs);
    expectValid(h, out.best, out.bestCut);
}

// ------------------------------------------- per-start isolation / salvage

MultiStartConfig smallMultiStart(int runs = 6) {
    MultiStartConfig cfg;
    cfg.runs = runs;
    cfg.threads = 2;
    return cfg;
}

TEST(Salvage, EverySiteInjectionIsSurvivedByRetryOrDrop) {
    const Hypergraph h = testing::mediumCircuit(300, 23);
    InjectorGuard guard;
    for (const std::string& site : FaultInjector::knownSites()) {
        SCOPED_TRACE(site);
        // Service-layer sites sit in the fork/pipe plumbing of src/serve,
        // not inside a multi-start run; serve_test drives those. The
        // comparator engines' sites never execute inside an ML multi-start
        // either; algorithms_test arms each of those in turn and asserts
        // that it fires and ends its comparator run in the injected error.
        if (site.rfind("serve.", 0) == 0) continue;
        if (site.rfind("lsmc.", 0) == 0 || site.rfind("spectral.", 0) == 0 ||
            site.rfind("genetic.", 0) == 0)
            continue;
        // fs.read.eio fires on durable *reads* (journal/cache/checkpoint
        // load), which a plain multi-start never performs; journal_test
        // and serve_test arm it against real loads.
        if (site == "fs.read.eio") continue;
        MLConfig cfg;
        RefinerFactory factory;
        if (site == "refine.kway.pass") {
            cfg.k = 4;
            cfg.coarseningThreshold = 100;
            factory = makeKWayFactory({});
        } else {
            factory = makeFMFactory({});
        }
        MultilevelPartitioner ml(cfg, factory);

        // Checkpoint sites — and the fs.write.* shim sites underneath
        // them — only fire when checkpointing is on, and such a fault
        // must cost durability only — no start is lost.
        const bool checkpointSite =
            site.rfind("checkpoint.", 0) == 0 || site.rfind("fs.write.", 0) == 0 ||
            site == "fs.fsync";
        MultiStartConfig ms = smallMultiStart();
        if (checkpointSite) ms.checkpointPath = ::testing::TempDir() + "mlpart_salvage.ckpt";

        FaultPlan plan;
        plan.site = site;
        plan.fireAtHit = 1;
        plan.maxFires = 1;
        FaultInjector::instance().arm(plan);
        const MultiStartOutcome out = parallelMultiStart(h, ml, ms);
        FaultInjector::instance().disarm();

        EXPECT_GE(FaultInjector::instance().fires(), 1) << "site never fired";
        EXPECT_TRUE(out.ok());
        if (checkpointSite) {
            EXPECT_EQ(out.report.retried() + out.report.failed(), 0)
                << "a checkpoint fault must not cost any start: " << out.report.summary();
            EXPECT_FALSE(out.checkpointStatus.ok())
                << "the injected write failure should be reported";
        } else {
            EXPECT_EQ(out.report.retried() + out.report.failed(), 1)
                << "exactly one start should have been hit: " << out.report.summary();
        }
        expectValid(h, out.best, out.bestCut);
        EXPECT_TRUE(
            BalanceConstraint::forRefinement(h, cfg.k, cfg.tolerance).satisfied(out.best));
    }
}

TEST(Salvage, PersistentInjectionKillsAllStartsWithStructuredError) {
    const Hypergraph h = testing::mediumCircuit(300, 29);
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    InjectorGuard guard;
    FaultPlan plan;
    plan.site = "multistart.start";
    plan.probability = 1.0; // every attempt of every start dies
    FaultInjector::instance().arm(plan);
    try {
        (void)parallelMultiStart(h, ml, smallMultiStart(4));
        FAIL() << "expected kAllStartsFailed";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kAllStartsFailed);
        EXPECT_NE(std::string(e.what()).find("4 starts"), std::string::npos) << e.what();
    }
}

TEST(Salvage, InjectedBadAllocIsRecordedAsResourceExhaustion) {
    const Hypergraph h = testing::mediumCircuit(300, 31);
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    InjectorGuard guard;
    FaultPlan plan;
    plan.site = "multistart.start";
    plan.kind = FaultKind::kBadAlloc;
    plan.fireAtHit = 1;
    plan.maxFires = 1;
    FaultInjector::instance().arm(plan);
    const MultiStartOutcome out = parallelMultiStart(h, ml, smallMultiStart());
    EXPECT_TRUE(out.ok());
    bool sawOom = false;
    for (const robust::StartRecord& rec : out.report.starts)
        if (rec.error.code == StatusCode::kResourceExhausted) sawOom = true;
    EXPECT_TRUE(sawOom) << out.report.summary();
}

TEST(Salvage, ThrowingFactoryFailsEveryStart) {
    const Hypergraph h = testing::mediumCircuit(200, 37);
    const RefinerFactory bomb = [](const Hypergraph&,
                                   const std::vector<char>&) -> std::unique_ptr<Refiner> {
        throw std::runtime_error("factory exploded");
    };
    MultilevelPartitioner ml(MLConfig{}, bomb);
    try {
        (void)parallelMultiStart(h, ml, smallMultiStart(3));
        FAIL() << "expected kAllStartsFailed";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kAllStartsFailed);
    }
}

TEST(Salvage, ThrowOnceFactoryIsHealedByAReseededRetry) {
    const Hypergraph h = testing::mediumCircuit(300, 41);
    const RefinerFactory inner = makeFMFactory({});
    auto thrown = std::make_shared<std::atomic<bool>>(false);
    const RefinerFactory flaky = [inner, thrown](const Hypergraph& hg,
                                                 const std::vector<char>& fixed) {
        if (!thrown->exchange(true)) throw std::runtime_error("transient failure");
        return inner(hg, fixed);
    };
    MultilevelPartitioner ml(MLConfig{}, flaky);
    MultiStartConfig cfg = smallMultiStart();
    cfg.threads = 1; // exactly the first start's first attempt fails
    const MultiStartOutcome out = parallelMultiStart(h, ml, cfg);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.report.retried(), 1);
    EXPECT_EQ(out.report.failed(), 0);
    EXPECT_EQ(out.report.starts[0].status, StartStatus::kRetriedOk);
    EXPECT_EQ(out.report.starts[0].attempts, 2);
    expectValid(h, out.best, out.bestCut);
}

TEST(Salvage, RetryCanBeDisabled) {
    const Hypergraph h = testing::mediumCircuit(200, 43);
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    InjectorGuard guard;
    FaultPlan plan;
    plan.site = "multistart.start";
    plan.fireAtHit = 1;
    plan.maxFires = 1;
    FaultInjector::instance().arm(plan);
    MultiStartConfig cfg = smallMultiStart();
    cfg.threads = 1;
    cfg.maxRetries = 0;
    const MultiStartOutcome out = parallelMultiStart(h, ml, cfg);
    EXPECT_TRUE(out.ok()); // other starts salvage the result
    EXPECT_EQ(out.report.failed(), 1);
    EXPECT_EQ(out.report.retried(), 0);
    EXPECT_EQ(out.report.starts[0].attempts, 1);
}

TEST(Salvage, FailurePatternIsDeterministicSingleThreaded) {
    const Hypergraph h = testing::mediumCircuit(300, 47);
    MultilevelPartitioner ml(MLConfig{}, makeFMFactory({}));
    InjectorGuard guard;
    FaultPlan plan;
    plan.seed = 7;
    plan.site = "multistart.start"; // visited exactly once per attempt
    plan.probability = 0.5;
    auto once = [&] {
        FaultInjector::instance().arm(plan); // resets the visit counters
        MultiStartConfig cfg = smallMultiStart(8);
        cfg.threads = 1;
        return parallelMultiStart(h, ml, cfg);
    };
    const MultiStartOutcome a = once();
    const MultiStartOutcome b = once();
    EXPECT_EQ(a.bestCut, b.bestCut);
    EXPECT_EQ(a.bestRun, b.bestRun);
    ASSERT_EQ(a.report.starts.size(), b.report.starts.size());
    for (std::size_t i = 0; i < a.report.starts.size(); ++i) {
        EXPECT_EQ(a.report.starts[i].status, b.report.starts[i].status) << "start " << i;
        EXPECT_EQ(a.report.starts[i].attempts, b.report.starts[i].attempts) << "start " << i;
    }
}

TEST(Salvage, ReportSummaryReadsLikeAReport) {
    robust::RunReport report;
    report.starts.resize(4);
    report.starts[0].status = StartStatus::kOk;
    report.starts[1].status = StartStatus::kRetriedOk;
    report.starts[2].status = StartStatus::kFailed;
    report.starts[2].error = robust::Status::error(StatusCode::kInjectedFault, "boom");
    report.starts[3].status = StartStatus::kSkippedDeadline;
    report.deadlineHit = true;
    const std::string s = report.summary();
    EXPECT_NE(s.find("4 starts"), std::string::npos) << s;
    EXPECT_NE(s.find("2 ok (1 after retry)"), std::string::npos) << s;
    EXPECT_NE(s.find("1 failed"), std::string::npos) << s;
    EXPECT_NE(s.find("1 skipped"), std::string::npos) << s;
}

// ------------------------------------------------------------ frame scanner

// Every durable format (checkpoint, journal, cache, worker pipe) reads
// through scanFrames, so one seeded property covers all four: build a
// random frame stream, apply one damage, and the scanner must never
// throw, must keep exactly the frames in front of the damage, and those
// frames must re-encode to the bytes it says they cover. The seed is
// printed on failure and replays the case.
TEST(FrameScanner, KeepsExactlyTheFramesBeforeAnySingleDamage) {
    constexpr std::uint32_t kMagic = 0x54534554U; // "TEST"
    constexpr std::uint64_t kCap = 64;
    enum Damage { kTruncate, kFlipBit, kInsertByte, kForgeLength, kChangeMagic, kDamages };
    for (std::uint64_t seed = 1; seed <= 10000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        const auto pick = [&](std::uint64_t n) { return static_cast<std::size_t>(rng() % n); };

        std::vector<std::uint8_t> data;
        std::vector<std::size_t> ends; // one past each frame
        const std::size_t frames = 1 + pick(6);
        for (std::size_t i = 0; i < frames; ++i) {
            std::vector<std::uint8_t> payload(pick(kCap + 1));
            for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng());
            robust::appendFrame(data, kMagic, static_cast<std::uint32_t>(rng()), payload);
            ends.push_back(data.size());
        }

        std::vector<std::uint8_t> bad = data;
        const auto damage = static_cast<Damage>(pick(kDamages));
        const std::size_t victim = pick(frames);
        const std::size_t victimStart = victim == 0 ? 0 : ends[victim - 1];
        switch (damage) {
        case kTruncate: bad.resize(pick(data.size())); break;
        case kFlipBit: bad[pick(data.size())] ^= static_cast<std::uint8_t>(1u << pick(8)); break;
        case kInsertByte:
            bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(pick(data.size() + 1)),
                       static_cast<std::uint8_t>(rng()));
            break;
        case kForgeLength: {
            const std::uint64_t len = kCap + 1 + rng() % (std::uint64_t{1} << 62);
            for (int i = 0; i < 8; ++i)
                bad[victimStart + 8 + static_cast<std::size_t>(i)] =
                    static_cast<std::uint8_t>(len >> (8 * i));
            break;
        }
        case kChangeMagic:
            bad[victimStart + pick(4)] ^= static_cast<std::uint8_t>(1 + pick(255));
            break;
        default: break;
        }

        // Oracle: the leading frames whose bytes are untouched in place.
        // A cut exactly at a frame boundary leaves nothing damaged.
        std::size_t intact = 0;
        std::size_t kept = 0;
        while (intact < frames && ends[intact] <= bad.size() &&
               std::equal(data.begin() + static_cast<std::ptrdiff_t>(kept),
                          data.begin() + static_cast<std::ptrdiff_t>(ends[intact]),
                          bad.begin() + static_cast<std::ptrdiff_t>(kept)))
            kept = ends[intact++];

        robust::FrameScan scan;
        ASSERT_NO_THROW(scan = robust::scanFrames(bad.data(), bad.size(), kMagic, kCap));
        ASSERT_EQ(scan.frames.size(), intact) << "damage " << damage << ": " << scan.why;
        if (kept == bad.size()) {
            EXPECT_EQ(scan.stop, robust::FrameStop::kEnd);
        } else if (damage == kTruncate) {
            EXPECT_EQ(scan.stop, robust::FrameStop::kTruncated);
        } else if (damage == kForgeLength) {
            EXPECT_EQ(scan.stop, robust::FrameStop::kOverCap);
        } else if (damage == kChangeMagic) {
            EXPECT_EQ(scan.stop, robust::FrameStop::kBadMagic);
        } else {
            EXPECT_NE(scan.stop, robust::FrameStop::kEnd) << "damage " << damage;
        }

        std::vector<std::uint8_t> again;
        for (const robust::Frame& f : scan.frames)
            robust::appendFrame(again, kMagic, f.tag, f.payload, f.size);
        ASSERT_EQ(again.size(), scan.validBytes);
        ASSERT_TRUE(std::equal(again.begin(), again.end(), bad.begin()));
    }
}

} // namespace
} // namespace mlpart
