// Tests for the crash-safe checkpoint/resume layer and the memory
// governor (DESIGN.md §10): format framing, round-trips, resume
// determinism (including fork+SIGKILL crash equivalence for several
// thread counts), memory budgets, and the allocation-failure containment
// path driven by the "govern.reserve" injection site.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "check/verify_partition.h"
#include "core/parallel_multistart.h"
#include "hypergraph/io.h"
#include "hypergraph/stats.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "robust/robust.h"
#include "test_util.h"

namespace mlpart {
namespace {

using robust::CheckpointStart;
using robust::CheckpointState;
using robust::Error;
using robust::FaultInjector;
using robust::FaultKind;
using robust::FaultPlan;
using robust::MemoryGovernor;
using robust::StartStatus;
using robust::StatusCode;

struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

// The governor is process-wide like the injector: restore "unlimited"
// even when an assertion fails mid-test.
struct GovernorGuard {
    ~GovernorGuard() { MemoryGovernor::instance().setLimitBytes(0); }
};

std::string tempPath(const std::string& name) { return ::testing::TempDir() + name; }

MultiStartConfig checkpointedConfig(const std::string& path, int runs = 6) {
    MultiStartConfig ms;
    ms.runs = runs;
    ms.threads = 2;
    ms.seed = 11;
    ms.checkpointPath = path;
    return ms;
}

// ---------------------------------------------------------------- hashing

TEST(Crc32, MatchesTheIeeeCheckValue) {
    // The canonical CRC-32 test vector ("check" in every CRC catalogue).
    EXPECT_EQ(robust::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(robust::crc32("", 0), 0u);
    // Seeding chains incrementally: crc(a+b) == crc(b, seed=crc(a)).
    EXPECT_EQ(robust::crc32("6789", 4, robust::crc32("12345", 5)),
              robust::crc32("123456789", 9));
}

TEST(Hashing, HashCombineSeparatesOrderAndValue) {
    const std::uint64_t a = robust::hashCombine(1, 2);
    const std::uint64_t b = robust::hashCombine(2, 1);
    EXPECT_NE(a, b);
    EXPECT_NE(robust::hashCombine(a, 3), robust::hashCombine(b, 3));
}

TEST(Hashing, HypergraphFingerprintSeesStructureWeightsAndAreas) {
    const Hypergraph h1 = testing::mediumCircuit(200, 3);
    const Hypergraph h2 = testing::mediumCircuit(200, 4);
    EXPECT_EQ(hypergraphFingerprint(h1), hypergraphFingerprint(h1));
    EXPECT_NE(hypergraphFingerprint(h1), hypergraphFingerprint(h2));
    EXPECT_NE(hypergraphFingerprint(h1), 0u);
}

TEST(Hashing, ConfigFingerprintSeesEveryTuningKnob) {
    MLConfig a;
    const std::uint64_t base = configFingerprint(a);
    MLConfig b = a;
    b.matchingRatio = 0.33;
    EXPECT_NE(configFingerprint(b), base);
    b = a;
    b.k = 4;
    EXPECT_NE(configFingerprint(b), base);
    b = a;
    b.vCycles = 2;
    EXPECT_NE(configFingerprint(b), base);
    b = a;
    b.targetFractions = {0.5, 0.5};
    EXPECT_NE(configFingerprint(b), base);
    // The pre-pass threshold changes serial k = 2 results too...
    b = a;
    b.prePassMinModules = 0;
    EXPECT_NE(configFingerprint(b), base);
    // ...but no serial k > 2 result, so those fingerprints leave it out.
    b = a;
    b.k = 4;
    MLConfig c = b;
    c.prePassMinModules = 0;
    EXPECT_EQ(configFingerprint(c), configFingerprint(b));
}

/// Literals written by revision 1 of the parallel V-cycle (mutual-proposal
/// matching alone), and the serial k = 2 one from before the serial
/// V-cycle ran the LP pre-pass. Serial checkpoints kept resuming across
/// the parallel revision bump; parallel ones must read as stale. Since
/// the pre-pass threshold became a serial k = 2 knob, the old serial k = 2
/// fingerprint is stale too, while serial k > 2 ones stay as they were.
TEST(Hashing, ConfigFingerprintRetiresOnlyOlderParallelRevisions) {
    MLConfig serial;
    EXPECT_NE(configFingerprint(serial), 0x498287c4e392c721ull);
    EXPECT_EQ(configFingerprint(serial), 0x1aaab13239133bdbull);
    MLConfig serialK4;
    serialK4.k = 4;
    EXPECT_EQ(configFingerprint(serialK4), 0x98fbd7a7b4f30ee4ull);
    MLConfig parallel;
    parallel.vcycleThreads = 4;
    EXPECT_NE(configFingerprint(parallel), 0x7d3f2b618292583aull);
}

/// Salts the mlpart CLI and serve workers gave checkpoints before the
/// engines had revisions ("ENG" + engine name). k = 2 runs changed under
/// the bisection pass budget and k > 2 runs under the k-way move window,
/// so checkpoints with those salts must read as stale. Bisection revision
/// 3 (the LP pre-pass in the serial V-cycle) retires revision 2's k = 2
/// salts and must not retire k-way checkpoints: the k > 2 salts stay
/// pinned.
TEST(Hashing, EngineSaltRetiresOnlyBisectionCheckpoints) {
    EXPECT_NE(engineFingerprintSalt("clip", 2), 0x18083c88f3d5af5eull);
    EXPECT_NE(engineFingerprintSalt("fm", 2), 0xd7e525dcbcedefc9ull);
    EXPECT_NE(engineFingerprintSalt("clip", 2), 0x80cb206bc97650b2ull);
    EXPECT_NE(engineFingerprintSalt("fm", 2), 0xbfbbbaf8996f3f7dull);
    EXPECT_EQ(engineFingerprintSalt("clip", 2), 0xefc6d20d0a2a909aull);
    EXPECT_EQ(engineFingerprintSalt("fm", 2), 0xbe95e7a738c72de8ull);
    EXPECT_NE(engineFingerprintSalt("clip", 4), 0x18083c88f3d5af5eull);
    EXPECT_NE(engineFingerprintSalt("fm", 4), 0xd7e525dcbcedefc9ull);
    // The k-way engine is at revision 2, so its salts equal the retired
    // revision-2 bisection salts; k itself is folded by configFingerprint
    // and serve::requestFingerprint.
    EXPECT_EQ(engineFingerprintSalt("clip", 4), 0x80cb206bc97650b2ull);
    EXPECT_EQ(engineFingerprintSalt("fm", 4), 0xbfbbbaf8996f3f7dull);
    EXPECT_NE(engineFingerprintSalt("clip", 2), engineFingerprintSalt("fm", 2));
}

// ----------------------------------------------------------------- format

CheckpointState sampleState() {
    CheckpointState st;
    st.fingerprint = 0xFEEDFACE12345678ULL;
    st.seed = 42;
    st.runs = 5;
    CheckpointStart ok;
    ok.run = 0;
    ok.record.status = StartStatus::kOk;
    ok.record.attempts = 1;
    ok.record.cut = 17;
    st.done.push_back(ok);
    CheckpointStart failed;
    failed.run = 3;
    failed.record.status = StartStatus::kFailed;
    failed.record.attempts = 2;
    failed.record.error = robust::Status::error(StatusCode::kInjectedFault, "boom");
    st.done.push_back(failed);
    st.bestRun = 0;
    st.bestCut = 17;
    st.bestBlob = {1, 2, 3, 4, 5};
    return st;
}

TEST(CheckpointFormat, SerializeParseRoundTripPreservesEverything) {
    const CheckpointState st = sampleState();
    const std::vector<std::uint8_t> bytes = robust::serializeCheckpoint(st);
    const CheckpointState back = robust::parseCheckpoint(bytes.data(), bytes.size(),
                                                         st.fingerprint);
    EXPECT_EQ(back.fingerprint, st.fingerprint);
    EXPECT_EQ(back.seed, st.seed);
    EXPECT_EQ(back.runs, st.runs);
    ASSERT_EQ(back.done.size(), st.done.size());
    EXPECT_EQ(back.done[0].run, 0);
    EXPECT_EQ(back.done[0].record.status, StartStatus::kOk);
    EXPECT_EQ(back.done[0].record.cut, 17);
    EXPECT_EQ(back.done[1].run, 3);
    EXPECT_EQ(back.done[1].record.status, StartStatus::kFailed);
    EXPECT_EQ(back.done[1].record.attempts, 2);
    EXPECT_EQ(back.done[1].record.error.code, StatusCode::kInjectedFault);
    EXPECT_EQ(back.done[1].record.error.message, "boom");
    EXPECT_EQ(back.bestRun, 0);
    EXPECT_EQ(back.bestCut, 17);
    EXPECT_EQ(back.bestBlob, st.bestBlob);
}

TEST(CheckpointFormat, NoBestSectionWhenNothingSucceededYet) {
    CheckpointState st = sampleState();
    st.bestRun = -1;
    st.bestBlob.clear();
    const std::vector<std::uint8_t> bytes = robust::serializeCheckpoint(st);
    const CheckpointState back = robust::parseCheckpoint(bytes.data(), bytes.size());
    EXPECT_EQ(back.bestRun, -1);
    EXPECT_TRUE(back.bestBlob.empty());
}

TEST(CheckpointFormat, CrossFieldLiesAreRejected) {
    // A duplicate record index.
    CheckpointState st = sampleState();
    st.done.push_back(st.done[0]);
    auto bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);

    // A best pointer at a run with no record.
    st = sampleState();
    st.bestRun = 2;
    bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);

    // A best pointer at a *failed* record.
    st = sampleState();
    st.bestRun = 3;
    st.bestCut = 0;
    bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);

    // A record index outside [0, runs).
    st = sampleState();
    st.done[1].run = 99;
    bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);
}

TEST(CheckpointFormat, FileRoundTripAndMissingFile) {
    const std::string path = tempPath("ckpt_roundtrip.ckpt");
    const CheckpointState st = sampleState();
    ASSERT_TRUE(robust::saveCheckpoint(path, st).ok());
    const CheckpointState back = robust::loadCheckpoint(path, st.fingerprint);
    EXPECT_EQ(back.done.size(), st.done.size());
    // No stray temp file may survive the atomic rename.
    EXPECT_FALSE(std::ifstream(path + ".tmp", std::ios::binary).good());
    std::remove(path.c_str());
    try {
        (void)robust::loadCheckpoint(path);
        FAIL() << "missing file was accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kParseError);
    }
}

TEST(CheckpointFormat, PartialSectionRoundTripsThroughTheCodec) {
    CheckpointState st = sampleState();
    robust::CheckpointPartial p;
    p.run = 1;
    p.attempt = 1;
    p.cyclesDone = 2;
    p.cut = 23;
    p.rngState = "123 456 789";
    p.blob = {9, 8, 7};
    st.partial.push_back(p);
    const std::vector<std::uint8_t> bytes = robust::serializeCheckpoint(st);
    const CheckpointState back = robust::parseCheckpoint(bytes.data(), bytes.size());
    ASSERT_EQ(back.partial.size(), 1u);
    EXPECT_EQ(back.partial[0].run, 1);
    EXPECT_EQ(back.partial[0].attempt, 1);
    EXPECT_EQ(back.partial[0].cyclesDone, 2);
    EXPECT_EQ(back.partial[0].cut, 23);
    EXPECT_EQ(back.partial[0].rngState, p.rngState);
    EXPECT_EQ(back.partial[0].blob, p.blob);
}

TEST(CheckpointFormat, PartialCrossFieldLiesAreRejected) {
    robust::CheckpointPartial p;
    p.run = 1;
    p.attempt = 0;
    p.cyclesDone = 2;
    p.cut = 23;
    p.rngState = "123 456";
    p.blob = {9, 8, 7};

    // A partial for a run that already completed.
    CheckpointState st = sampleState();
    p.run = 0;
    st.partial.push_back(p);
    auto bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);

    // Two partials claiming the same run.
    st = sampleState();
    p.run = 1;
    st.partial.push_back(p);
    st.partial.push_back(p);
    bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);

    // A run index outside [0, runs).
    st = sampleState();
    p.run = 99;
    st.partial.push_back(p);
    bytes = robust::serializeCheckpoint(st);
    EXPECT_THROW((void)robust::parseCheckpoint(bytes.data(), bytes.size()), Error);
}

// ------------------------------------------------------ resume semantics

MultilevelPartitioner defaultML() {
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    return {cfg, makeFMFactory({})};
}

void expectSameOutcome(const MultiStartOutcome& a, const MultiStartOutcome& b) {
    EXPECT_EQ(a.bestCut, b.bestCut);
    EXPECT_EQ(a.bestRun, b.bestRun);
    const auto aa = a.best.assignment();
    const auto ba = b.best.assignment();
    EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ba.begin(), ba.end()))
        << "best partitions differ module-by-module";
    ASSERT_EQ(a.report.starts.size(), b.report.starts.size());
    for (std::size_t i = 0; i < a.report.starts.size(); ++i) {
        EXPECT_EQ(a.report.starts[i].status, b.report.starts[i].status) << "run " << i;
        EXPECT_EQ(a.report.starts[i].cut, b.report.starts[i].cut) << "run " << i;
    }
}

TEST(CheckpointResume, ResumingAFinishedRunRestoresEverythingWithoutWork) {
    const Hypergraph h = testing::mediumCircuit(300, 31);
    const MultilevelPartitioner ml = defaultML();
    const std::string path = tempPath("ckpt_finished.ckpt");
    std::remove(path.c_str());

    MultiStartConfig ms = checkpointedConfig(path);
    const MultiStartOutcome first = parallelMultiStart(h, ml, ms);
    ms.resume = true;
    const MultiStartOutcome second = parallelMultiStart(h, ml, ms);
    EXPECT_EQ(second.resumedStarts, ms.runs);
    EXPECT_TRUE(second.resumeStatus.ok());
    expectSameOutcome(first, second);
    std::remove(path.c_str());
}

TEST(CheckpointResume, MissingCheckpointFallsBackToFreshIdenticalRun) {
    const Hypergraph h = testing::mediumCircuit(250, 37);
    const MultilevelPartitioner ml = defaultML();
    const std::string path = tempPath("ckpt_missing.ckpt");
    std::remove(path.c_str());

    MultiStartConfig plain = checkpointedConfig(path);
    plain.checkpointPath.clear();
    const MultiStartOutcome oracle = parallelMultiStart(h, ml, plain);

    MultiStartConfig ms = checkpointedConfig(path);
    ms.resume = true;
    const MultiStartOutcome resumed = parallelMultiStart(h, ml, ms);
    EXPECT_EQ(resumed.resumedStarts, 0);
    EXPECT_FALSE(resumed.resumeStatus.ok());
    EXPECT_EQ(resumed.resumeStatus.code, StatusCode::kParseError);
    expectSameOutcome(oracle, resumed);
    std::remove(path.c_str());
}

TEST(CheckpointResume, StaleFingerprintFallsBackInsteadOfBlending) {
    const Hypergraph h = testing::mediumCircuit(250, 41);
    const MultilevelPartitioner ml = defaultML();
    const std::string path = tempPath("ckpt_stale.ckpt");
    std::remove(path.c_str());

    MultiStartConfig ms = checkpointedConfig(path);
    (void)parallelMultiStart(h, ml, ms);
    // Same path, different seed: the checkpoint must be rejected as stale,
    // never mixed into the differently-seeded run.
    ms.seed = 999;
    ms.resume = true;
    MultiStartConfig plain = ms;
    plain.checkpointPath.clear();
    plain.resume = false;
    const MultiStartOutcome oracle = parallelMultiStart(h, ml, plain);
    const MultiStartOutcome resumed = parallelMultiStart(h, ml, ms);
    EXPECT_FALSE(resumed.resumeStatus.ok());
    EXPECT_NE(resumed.resumeStatus.message.find("stale"), std::string::npos);
    expectSameOutcome(oracle, resumed);
    std::remove(path.c_str());
}

TEST(CheckpointResume, ConfigValidation) {
    const Hypergraph h = testing::tinyPath();
    const MultilevelPartitioner ml = defaultML();
    MultiStartConfig ms;
    ms.runs = 2;
    ms.checkpointEvery = 0;
    EXPECT_THROW((void)parallelMultiStart(h, ml, ms), std::invalid_argument);
    ms = {};
    ms.runs = 2;
    ms.resume = true; // no path
    EXPECT_THROW((void)parallelMultiStart(h, ml, ms), std::invalid_argument);
}

#if !defined(_WIN32)
// The tentpole acceptance test: a checkpointed run SIGKILLed at an
// arbitrary point resumes to a final result bit-identical to a run that
// was never interrupted — for 1, 2, and 8 worker threads.
TEST(CheckpointResume, KillRestartEquivalenceAcrossThreadCounts) {
    const Hypergraph h = testing::mediumCircuit(400, 43);
    const MultilevelPartitioner ml = defaultML();
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::string path =
            tempPath("ckpt_kill_t" + std::to_string(threads) + ".ckpt");
        std::remove(path.c_str());

        MultiStartConfig ms = checkpointedConfig(path, 10);
        ms.threads = threads;
        MultiStartConfig plain = ms;
        plain.checkpointPath.clear();
        const MultiStartOutcome oracle = parallelMultiStart(h, ml, plain);

        // Kill at a few spread-out points; each child starts from whatever
        // checkpoint the previous (also killed) child left behind, so this
        // also covers crash -> resume -> crash -> resume chains.
        for (const unsigned delayUs : {0u, 3000u, 15000u}) {
            const pid_t pid = fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                MultiStartConfig child = ms;
                child.resume = true;
                try {
                    (void)parallelMultiStart(h, ml, child);
                } catch (...) {
                }
                _exit(0);
            }
            ::usleep(delayUs);
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }

        MultiStartConfig resumeCfg = ms;
        resumeCfg.resume = true;
        const MultiStartOutcome resumed = parallelMultiStart(h, ml, resumeCfg);
        expectSameOutcome(oracle, resumed);
        std::remove(path.c_str());
    }
}
#endif

// --------------------------------------- V-cycle-granularity checkpoints

// Proves the resume machinery actually *skips* completed V-cycles rather
// than recomputing them: a run restored from the cycle-2 snapshot fires
// the observer only for the cycles it still owes, yet lands on the exact
// partition of the uninterrupted run — at most the in-flight cycle is
// ever lost.
TEST(CheckpointPerCycle, ResumeSkipsCompletedCyclesBitIdentically) {
    const Hypergraph h = testing::mediumCircuit(300, 7);
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    cfg.vCycles = 4;
    const MultilevelPartitioner ml(cfg, makeFMFactory({}));
    const robust::Deadline deadline;

    std::unique_ptr<Partition> snapBest;
    std::string snapRng;
    int oracleObserverFires = 0;
    MLWorkspace ws1;
    std::mt19937_64 rng(99);
    const MLCycleObserver capture = [&](int cyclesDone, const Partition& best, Weight,
                                        const std::mt19937_64& r) {
        ++oracleObserverFires;
        if (cyclesDone != 2) return;
        snapBest = std::make_unique<Partition>(best);
        std::ostringstream os;
        os << r;
        snapRng = os.str();
    };
    const MLResult oracle = ml.run(h, rng, deadline, ws1, nullptr, capture);
    EXPECT_EQ(oracleObserverFires, cfg.vCycles - 1); // never after the last
    ASSERT_NE(snapBest, nullptr);

    std::mt19937_64 restoredRng;
    std::istringstream is(snapRng);
    is >> restoredRng;
    ASSERT_FALSE(is.fail());
    MLCycleResume resume;
    resume.cyclesDone = 2;
    resume.best = snapBest.get();
    int resumedObserverFires = 0;
    MLWorkspace ws2;
    const MLCycleObserver count = [&](int, const Partition&, Weight,
                                      const std::mt19937_64&) { ++resumedObserverFires; };
    const MLResult resumed = ml.run(h, restoredRng, deadline, ws2, &resume, count);

    EXPECT_EQ(resumedObserverFires, cfg.vCycles - 1 - resume.cyclesDone);
    EXPECT_EQ(resumed.cut, oracle.cut);
    const auto oa = oracle.partition.assignment();
    const auto ra = resumed.partition.assignment();
    EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ra.begin(), ra.end()))
        << "resumed partition differs from the uninterrupted run";
}

#if !defined(_WIN32)
// The §16 acceptance test at the multi-start level: with per-cycle
// snapshots on, a chain of SIGKILLed processes resumes to a result
// bit-identical to the never-interrupted oracle.
TEST(CheckpointPerCycle, KillRestartEquivalenceWithCycleSnapshots) {
    const Hypergraph h = testing::mediumCircuit(400, 51);
    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    cfg.vCycles = 3;
    const MultilevelPartitioner ml(cfg, makeFMFactory({}));
    const std::string path = tempPath("ckpt_cycle_kill.ckpt");
    std::remove(path.c_str());

    MultiStartConfig ms = checkpointedConfig(path, 6);
    ms.checkpointEveryCycle = true;
    MultiStartConfig plain = ms;
    plain.checkpointPath.clear();
    const MultiStartOutcome oracle = parallelMultiStart(h, ml, plain);

    for (const unsigned delayUs : {0u, 5000u, 20000u}) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            MultiStartConfig child = ms;
            child.resume = true;
            try {
                (void)parallelMultiStart(h, ml, child);
            } catch (...) {
            }
            _exit(0);
        }
        ::usleep(delayUs);
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
    }

    MultiStartConfig resumeCfg = ms;
    resumeCfg.resume = true;
    const MultiStartOutcome resumed = parallelMultiStart(h, ml, resumeCfg);
    expectSameOutcome(oracle, resumed);
    std::remove(path.c_str());
}
#endif

// ------------------------------------------------- checkpoint fault sites

TEST(CheckpointFaults, TornWriteIsInjectedAndRejectedOnLoad) {
    const Hypergraph h = testing::mediumCircuit(250, 47);
    const MultilevelPartitioner ml = defaultML();
    const std::string path = tempPath("ckpt_torn.ckpt");
    std::remove(path.c_str());
    InjectorGuard guard;

    FaultPlan plan;
    plan.site = "checkpoint.torn";
    plan.probability = 1.0; // tear *every* save: the last state on disk is torn
    FaultInjector::instance().arm(plan);
    MultiStartConfig ms = checkpointedConfig(path, 4);
    ms.threads = 1;
    const MultiStartOutcome out = parallelMultiStart(h, ml, ms);
    FaultInjector::instance().disarm();
    EXPECT_FALSE(out.checkpointStatus.ok());
    EXPECT_NE(out.checkpointStatus.message.find("torn"), std::string::npos);

    // The torn file is on disk (the injection bypasses the atomic path)
    // and must be rejected as a parse error...
    try {
        (void)robust::loadCheckpoint(path);
        FAIL() << "torn checkpoint was accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kParseError);
    }
    // ...which the resume path converts into a fresh, oracle-identical run.
    MultiStartConfig plain = ms;
    plain.checkpointPath.clear();
    const MultiStartOutcome oracle = parallelMultiStart(h, ml, plain);
    ms.resume = true;
    const MultiStartOutcome resumed = parallelMultiStart(h, ml, ms);
    EXPECT_FALSE(resumed.resumeStatus.ok());
    expectSameOutcome(oracle, resumed);
    std::remove(path.c_str());
}

// ---------------------------------------------------------- memory governor

TEST(MemoryGovernor, EstimateGrowsWithInstanceSize) {
    const std::uint64_t small = MemoryGovernor::estimateStartBytes(100, 100, 300, 2);
    const std::uint64_t large = MemoryGovernor::estimateStartBytes(100000, 100000, 300000, 2);
    EXPECT_LT(small, large);
    EXPECT_GT(small, 0u);
}

TEST(MemoryGovernor, ReserveEnforcesTheLimitAndReleasesOnScopeExit) {
    GovernorGuard guard;
    MemoryGovernor& gov = MemoryGovernor::instance();
    gov.setLimitBytes(1000);
    {
        const MemoryGovernor::Reservation r = gov.reserve(800);
        EXPECT_EQ(gov.inUseBytes(), 800u);
        EXPECT_THROW((void)gov.reserve(300), std::bad_alloc);
    }
    EXPECT_EQ(gov.inUseBytes(), 0u); // released by RAII
    const MemoryGovernor::Reservation r2 = gov.reserve(1000);
    EXPECT_EQ(gov.inUseBytes(), 1000u);
}

TEST(MemoryGovernor, UnlimitedByDefaultAndGuardTransient) {
    GovernorGuard guard;
    MemoryGovernor& gov = MemoryGovernor::instance();
    gov.setLimitBytes(0);
    EXPECT_NO_THROW(gov.guardTransient(std::uint64_t{1} << 40));
    gov.setLimitBytes(1 << 20);
    EXPECT_NO_THROW(gov.guardTransient(1 << 19));
    EXPECT_THROW(gov.guardTransient(1 << 21), std::bad_alloc);
}

TEST(MemoryGovernor, ClampThreadsRefusesInfeasibleAndClampsFeasible) {
    GovernorGuard guard;
    MemoryGovernor& gov = MemoryGovernor::instance();
    gov.setLimitBytes(0);
    EXPECT_EQ(gov.clampThreads(8, 1 << 30), 8); // unlimited: untouched
    gov.setLimitBytes(10 << 20);
    EXPECT_EQ(gov.clampThreads(8, 4 << 20), 2); // 10 MiB / 4 MiB -> 2 workers
    EXPECT_EQ(gov.clampThreads(1, 10 << 20), 1);
    try {
        (void)gov.clampThreads(4, 11 << 20);
        FAIL() << "expected kResourceExhausted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kResourceExhausted);
    }
}

TEST(MemoryGovernor, UpfrontRefusalSurfacesFromParallelMultiStart) {
    GovernorGuard guard;
    MemoryGovernor::instance().setLimitBytes(1 << 10); // 1 KiB: nothing fits
    const Hypergraph h = testing::mediumCircuit(300, 53);
    const MultilevelPartitioner ml = defaultML();
    MultiStartConfig ms;
    ms.runs = 2;
    try {
        (void)parallelMultiStart(h, ml, ms);
        FAIL() << "expected kResourceExhausted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kResourceExhausted);
    }
}

// The workspace-RAII / containment regression test: a bad_alloc injected
// at the reservation site must be contained per start (retry with the
// same pooled workspace, then success), exactly like any other start
// fault — and the salvaged result must still verify.
TEST(MemoryGovernor, InjectedAllocationFailureIsContainedPerStart) {
    const Hypergraph h = testing::mediumCircuit(300, 59);
    const MultilevelPartitioner ml = defaultML();
    InjectorGuard guard;

    // One fire: the hit start retries on the same workspace and succeeds.
    FaultPlan plan;
    plan.site = "govern.reserve";
    plan.kind = FaultKind::kBadAlloc;
    plan.probability = 1.0; // every reservation fails, capped by maxFires
    plan.maxFires = 1;
    FaultInjector::instance().arm(plan);
    MultiStartConfig ms;
    ms.runs = 5;
    ms.threads = 1; // deterministic hit counting
    ms.seed = 7;
    const MultiStartOutcome retried = parallelMultiStart(h, ml, ms);
    FaultInjector::instance().disarm();
    EXPECT_TRUE(retried.ok());
    EXPECT_EQ(retried.report.retried(), 1);
    EXPECT_EQ(retried.report.failed(), 0);
    check::PartitionCheckOptions opt;
    opt.expectedCut = retried.bestCut;
    EXPECT_TRUE(check::verifyPartition(h, retried.best, opt).ok());

    // Two fires at the same start (attempt + retry): dropped as
    // kResourceExhausted, the other starts salvage the run.
    plan.maxFires = 2;
    FaultInjector::instance().arm(plan);
    const MultiStartOutcome dropped = parallelMultiStart(h, ml, ms);
    FaultInjector::instance().disarm();
    EXPECT_TRUE(dropped.ok());
    EXPECT_EQ(dropped.report.failed(), 1);
    bool sawResourceExhausted = false;
    for (const robust::StartRecord& rec : dropped.report.starts)
        if (rec.status == StartStatus::kFailed)
            sawResourceExhausted = rec.error.code == StatusCode::kResourceExhausted;
    EXPECT_TRUE(sawResourceExhausted)
        << "the dropped start must be classified kResourceExhausted";
}

} // namespace
} // namespace mlpart
