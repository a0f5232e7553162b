// Tests for the supervised partitioning service (DESIGN.md §11): the
// NDJSON job schema, the CRC-framed worker result protocol, fork-isolated
// crash containment with retry, watchdog kills, admission control /
// load-shedding, and graceful drain. The serve.* fault sites that
// robust_test skips are exercised here.
#include <gtest/gtest.h>

#if !defined(_WIN32)

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "robust/fault_injector.h"
#include "robust/memory_governor.h"
#include "robust/status.h"
#include "robust/wire.h"
#include "serve/front_end.h"
#include "serve/job.h"
#include "serve/journal.h"
#include "serve/json.h"
#include "serve/result_cache.h"
#include "serve/service.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "serve/worker_pool.h"

namespace mlpart::serve {
namespace {

// TSan terminates any forked child that starts a thread (die_after_fork;
// =0 is unsafe with concurrent forks), so every worker child dies
// instantly under it — tests that need an OK result from a live worker
// skip, same policy as the sanitizers.yml serve filter. The kill/restart
// bit-identity test stays: its oracle runs under the same regime, so the
// consistency contract is still exercised.
#if defined(__SANITIZE_THREAD__)
#define MLPART_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MLPART_TSAN_ACTIVE 1
#endif
#endif
#ifdef MLPART_TSAN_ACTIVE
#define MLPART_SKIP_NEEDS_LIVE_WORKER() \
    GTEST_SKIP() << "needs an OK result from a live forked worker; " \
                    "TSan kills forked children that start threads"
#else
#define MLPART_SKIP_NEEDS_LIVE_WORKER() (void)0
#endif

using robust::Error;
using robust::StatusCode;

// A tiny inline hMETIS instance: 6 nets over 8 modules. Inline keeps the
// tests free of filesystem fixtures and exercises the "hgr" request path.
const char* kTinyHgr = "6 8\n1 2\n3 4\n5 6\n7 8\n2 3\n6 7\n";

std::string tinyJob(const std::string& id, const std::string& extra = "") {
    return "{\"op\":\"partition\",\"id\":\"" + id +
           "\",\"hgr\":\"6 8\\n1 2\\n3 4\\n5 6\\n7 8\\n2 3\\n6 7\\n\",\"runs\":2" +
           (extra.empty() ? "" : "," + extra) + "}";
}

JobRequest tinyRequest(const std::string& id) {
    JobRequest r;
    r.id = id;
    r.inlineHgr = kTinyHgr;
    r.runs = 2;
    return r;
}

// Collects every emitted line; the service calls emit from its
// dispatcher threads, hence the lock.
struct Capture {
    std::mutex mu;
    std::vector<std::string> lines;

    Service::Emit sink() {
        return [this](const std::string& line) {
            std::lock_guard<std::mutex> lock(mu);
            lines.push_back(line);
        };
    }
    [[nodiscard]] std::vector<std::string> snapshot() {
        std::lock_guard<std::mutex> lock(mu);
        return lines;
    }
    /// The (single) line whose "id" field is `id`; fails the test if absent.
    [[nodiscard]] std::string lineFor(const std::string& id) {
        const std::string needle = "\"id\":\"" + id + "\"";
        std::lock_guard<std::mutex> lock(mu);
        for (const std::string& l : lines)
            if (l.find(needle) != std::string::npos) return l;
        ADD_FAILURE() << "no response line for id=" << id;
        return "";
    }
    /// Like lineFor, but only "result" lines — cancel acks share the id.
    [[nodiscard]] std::string resultFor(const std::string& id) {
        const std::string needle = "\"id\":\"" + id + "\"";
        std::lock_guard<std::mutex> lock(mu);
        for (const std::string& l : lines)
            if (l.find(needle) != std::string::npos &&
                l.find("\"event\":\"result\"") != std::string::npos)
                return l;
        ADD_FAILURE() << "no result line for id=" << id;
        return "";
    }
    [[nodiscard]] int countFor(const std::string& id) {
        const std::string needle = "\"id\":\"" + id + "\"";
        std::lock_guard<std::mutex> lock(mu);
        int n = 0;
        for (const std::string& l : lines)
            if (l.find(needle) != std::string::npos &&
                l.find("\"event\":\"result\"") != std::string::npos)
                ++n;
        return n;
    }
    /// Waits until some captured line contains `needle`.
    [[nodiscard]] bool waitFor(const std::string& needle, int timeoutMs = 20000) {
        for (int i = 0; i < timeoutMs / 10; ++i) {
            {
                std::lock_guard<std::mutex> lock(mu);
                for (const std::string& l : lines)
                    if (l.find(needle) != std::string::npos) return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    }
};

/// Pulls one top-level integer field out of a status line. The status
/// JSON nests arrays (pool_workers, jobs), which the flat request parser
/// rejects by design, so tests read it with a targeted scan instead.
std::int64_t statusInt(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = json.find(needle);
    if (pos == std::string::npos) {
        ADD_FAILURE() << "status has no field " << key << ": " << json;
        return -1;
    }
    return std::stoll(json.substr(pos + needle.size()));
}

/// Waits until the service reports one active (dispatched) job.
void waitForActive(Service& service, int active = 1) {
    const std::string needle = "\"active\":" + std::to_string(active);
    for (int i = 0; i < 2000; ++i) {
        if (service.statusJson().find(needle) != std::string::npos) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "service never reached active=" << active;
}

// --------------------------------------------------------------- JSON

TEST(ServeJson, ParsesFlatObjects) {
    const JsonObject o = parseJsonObject(
        R"({"s":"a\"b\\c\nA","n":2.5,"i":-7,"b":true,"z":null})");
    EXPECT_EQ(getString(o, "s", ""), "a\"b\\c\nA");
    EXPECT_DOUBLE_EQ(getNumber(o, "n", 0), 2.5);
    EXPECT_EQ(getInt(o, "i", 0), -7);
    EXPECT_TRUE(getBool(o, "b", false));
    EXPECT_EQ(getString(o, "z", "dflt"), "dflt"); // null reads as absent
}

TEST(ServeJson, RejectsMalformedInput) {
    EXPECT_THROW((void)parseJsonObject(""), Error);
    EXPECT_THROW((void)parseJsonObject("{\"a\":1,}"), Error);
    EXPECT_THROW((void)parseJsonObject("{\"a\":1} x"), Error);
    EXPECT_THROW((void)parseJsonObject("{\"a\":{\"n\":1}}"), Error);  // nested
    EXPECT_THROW((void)parseJsonObject("{\"a\":[1]}"), Error);        // nested
    EXPECT_THROW((void)parseJsonObject("{\"a\":1,\"a\":2}"), Error);  // dup key
    EXPECT_THROW((void)parseJsonObject("{\"a\":inf}"), Error);
    EXPECT_THROW((void)parseJsonObject("{\"a\":\"\x01\"}"), Error);   // raw ctrl
}

TEST(ServeJson, WriterRoundTripsThroughParser) {
    JsonWriter w;
    w.field("s", "tab\there \"q\"").field("n", 1.25).field("i", std::int64_t{-3})
        .field("b", false);
    const JsonObject o = parseJsonObject(w.str());
    EXPECT_EQ(getString(o, "s", ""), "tab\there \"q\"");
    EXPECT_DOUBLE_EQ(getNumber(o, "n", 0), 1.25);
    EXPECT_EQ(getInt(o, "i", 0), -3);
    EXPECT_FALSE(getBool(o, "b", true));
}

TEST(ServeJson, DoublesRenderAsShortestRoundTrip) {
    EXPECT_EQ(JsonWriter().field("x", 0.1).str(), "{\"x\":0.1}");
    EXPECT_EQ(JsonWriter().field("x", 2.0).str(), "{\"x\":2}");
    for (const double v : {0.1, 0.020594479999999998, 1.0 / 3.0, -2.5e-9, 1e300, 4.9e-324,
                           123456.789, 0.0}) {
        const JsonObject o = parseJsonObject(JsonWriter().field("x", v).str());
        EXPECT_EQ(getNumber(o, "x", -1), v) << "not bit-exact: " << v;
    }
}

// ------------------------------------------------------------ requests

TEST(ServeJob, ParsesRequestWithDefaults) {
    const JobRequest r = parseJobRequest(tinyJob("j1"));
    EXPECT_EQ(r.id, "j1");
    EXPECT_EQ(r.inlineHgr, kTinyHgr);
    EXPECT_EQ(r.k, 2);
    EXPECT_EQ(r.runs, 2);
    EXPECT_EQ(r.engine, "clip");
    EXPECT_EQ(r.priority, 0);
    EXPECT_EQ(r.vcycleThreads, 0); // parallel V-cycle is opt-in per job
}

TEST(ServeJob, ParsesAndValidatesVcycleThreads) {
    EXPECT_EQ(parseJobRequest(tinyJob("v", "\"vcycle_threads\":4")).vcycleThreads, 4);
    EXPECT_THROW((void)parseJobRequest(tinyJob("v", "\"vcycle_threads\":-1")), Error);
    EXPECT_THROW((void)parseJobRequest(tinyJob("v", "\"vcycle_threads\":513")), Error);
}

TEST(ServeJob, RejectsBadRequests) {
    // Unknown keys are rejected loudly: a typo must not default silently.
    EXPECT_THROW((void)parseJobRequest(tinyJob("x", "\"prioritty\":3")), Error);
    // Exactly one of instance / hgr.
    EXPECT_THROW((void)parseJobRequest("{\"op\":\"partition\",\"id\":\"x\"}"), Error);
    EXPECT_THROW((void)parseJobRequest(
                     "{\"op\":\"partition\",\"instance\":\"a.hgr\",\"hgr\":\"1 2\\n\"}"),
                 Error);
    EXPECT_THROW((void)parseJobRequest(tinyJob("x", "\"k\":1")), Error);
    EXPECT_THROW((void)parseJobRequest(tinyJob("x", "\"engine\":\"magic\"")), Error);
    EXPECT_THROW((void)parseJobRequest(tinyJob("x", "\"resume\":true")), Error);
    EXPECT_THROW((void)parseJobRequest("{\"op\":\"teleport\"}"), Error);
}

// ------------------------------------------------- result frame protocol

/// "ml" is no name any more: "fm" and "clip" name the ML engines, and
/// "auto" runs the default one. Comparators run once, so they refuse
/// checkpoints.
TEST(ServeJob, EngineNamesAreFmClipAutoOrAComparator) {
    for (const char* engine : {"fm", "clip", "auto", "two_phase", "lsmc", "spectral", "genetic"})
        EXPECT_EQ(parseJobRequest(tinyJob("e", std::string("\"engine\":\"") + engine + "\""))
                      .engine,
                  engine);
    try {
        (void)parseJobRequest(tinyJob("ml", "\"engine\":\"ml\""));
        ADD_FAILURE() << "engine ml was accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kUsage);
    }
    EXPECT_THROW((void)parseJobRequest(
                     tinyJob("c", "\"engine\":\"lsmc\",\"checkpoint\":\"/tmp/x.ckpt\"")),
                 Error);
    EXPECT_EQ(parseJobRequest(tinyJob("c", "\"engine\":\"auto\",\"checkpoint\":\"/tmp/x.ckpt\""))
                  .checkpointPath,
              "/tmp/x.ckpt");
}

TEST(ServeWire, OutcomeSurvivesTheFrameRoundTrip) {
    JobOutcome o;
    o.status = {StatusCode::kDeadlineExceeded, "best-so-far"};
    o.cut = 42;
    o.runsOk = 3;
    o.runsSkipped = 7;
    o.seconds = 1.5;
    o.partitionCrc = 0xDEADBEEF;
    o.deadlineHit = true;
    const std::vector<std::uint8_t> frame = robust::buildFrame(encodeJobOutcome(o));
    const std::vector<std::uint8_t> payload = robust::parseFrame(frame.data(), frame.size());
    const JobOutcome back = decodeJobOutcome(payload.data(), payload.size());
    EXPECT_EQ(back.status.code, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(back.status.message, "best-so-far");
    EXPECT_EQ(back.cut, 42);
    EXPECT_EQ(back.runsOk, 3);
    EXPECT_EQ(back.runsSkipped, 7);
    EXPECT_EQ(back.partitionCrc, 0xDEADBEEFu);
    EXPECT_TRUE(back.deadlineHit);
}

TEST(ServeWire, EveryTornPrefixIsAParseErrorNeverGarbage) {
    JobOutcome o;
    o.status = {StatusCode::kOk, ""};
    o.cut = 7;
    const std::vector<std::uint8_t> frame = robust::buildFrame(encodeJobOutcome(o));
    // A worker can die after writing any prefix; all of them must classify.
    for (std::size_t n = 0; n < frame.size(); ++n) {
        try {
            (void)robust::parseFrame(frame.data(), n);
            FAIL() << "torn prefix of " << n << " bytes parsed as a frame";
        } catch (const Error& e) {
            EXPECT_EQ(e.code(), StatusCode::kParseError) << "prefix " << n;
        }
    }
}

TEST(ServeWire, CorruptionAndTrailingBytesAreParseErrors) {
    const std::vector<std::uint8_t> frame =
        robust::buildFrame(encodeJobOutcome(JobOutcome{}));
    std::vector<std::uint8_t> flipped = frame;
    flipped.back() ^= 0x40; // payload corruption the length check passes
    EXPECT_THROW((void)robust::parseFrame(flipped.data(), flipped.size()), Error);
    std::vector<std::uint8_t> trailing = frame;
    trailing.push_back(0);
    EXPECT_THROW((void)robust::parseFrame(trailing.data(), trailing.size()), Error);
    // The header check both pipe ends run before reading a payload.
    EXPECT_EQ(robust::framePayloadLength(frame.data(), 1u << 20),
              frame.size() - robust::kFrameHeaderBytes);
    std::vector<std::uint8_t> badMagic = frame;
    badMagic[3] ^= 0x01;
    EXPECT_THROW((void)robust::framePayloadLength(badMagic.data(), 1u << 20), Error);
    EXPECT_THROW((void)robust::parseFrame(badMagic.data(), badMagic.size()), Error);
    std::vector<std::uint8_t> oversize = frame;
    oversize[15] = 0x01; // declares a payload of at least 2^56 bytes
    EXPECT_THROW((void)robust::framePayloadLength(oversize.data(), 1u << 20), Error);
    EXPECT_THROW((void)robust::parseFrame(oversize.data(), oversize.size()), Error);
    EXPECT_THROW((void)robust::framePayloadLength(frame.data(),
                                                  frame.size() - robust::kFrameHeaderBytes - 1),
                 Error);
}

/// The outcome keeps the retired evaluation report's flag byte, always 0,
/// so journal Done records and cache entries of older binaries still load;
/// an outcome that carries a report is a parse error.
TEST(ServeWire, OutcomeWithAnEvaluationReportIsAParseError) {
    std::vector<std::uint8_t> bytes = encodeJobOutcome(JobOutcome{});
    ASSERT_EQ(bytes.back(), 0u);
    bytes.back() = 1;
    try {
        (void)decodeJobOutcome(bytes.data(), bytes.size());
        ADD_FAILURE() << "a report flag decoded";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kParseError);
    }
}

// --------------------------------------------------- in-process worker

TEST(ServeWorker, ExecutesAJobInProcess) {
    const JobOutcome o = executeJob(tinyRequest("t"), nullptr);
    ASSERT_TRUE(o.status.ok()) << o.status.message;
    EXPECT_GE(o.cut, 0);
    EXPECT_EQ(o.runsOk, 2);
    EXPECT_NE(o.partitionCrc, 0u);
}

TEST(ServeWorker, ClassifiesInfeasibleAndParseErrors) {
    JobRequest infeasible = tinyRequest("i");
    infeasible.k = 100;
    EXPECT_EQ(executeJob(infeasible, nullptr).status.code, StatusCode::kInfeasible);
    JobRequest garbage = tinyRequest("g");
    garbage.inlineHgr = "not a header\n";
    EXPECT_EQ(executeJob(garbage, nullptr).status.code, StatusCode::kParseError);
}

TEST(ServeWorker, SpectralBeyondBisectionIsRefused) {
    const JobRequest req = parseJobRequest(tinyJob("s", "\"engine\":\"spectral\",\"k\":4"));
    EXPECT_EQ(executeJob(req, nullptr).status.code, StatusCode::kUsage);
}

/// "auto" runs the default engine for k: the same result and cache key
/// as a request that names no engine, at k = 2 (CLIP) and k = 4 (FM).
TEST(ServeWorker, AutoRunsTheDefaultEngine) {
    for (const std::string k : {"2", "4"}) {
        SCOPED_TRACE("k=" + k);
        const std::string fields = "\"k\":" + k + ",\"seed\":42";
        const JobRequest omitted = parseJobRequest(tinyJob("omitted", fields));
        const JobRequest autoReq =
            parseJobRequest(tinyJob("auto", fields + ",\"engine\":\"auto\""));
        EXPECT_EQ(resolvedEngine(autoReq), omitted.engine);
        EXPECT_EQ(requestFingerprint(autoReq), requestFingerprint(omitted));
        const JobOutcome a = executeJob(autoReq, nullptr);
        const JobOutcome b = executeJob(omitted, nullptr);
        ASSERT_TRUE(a.status.ok()) << a.status.message;
        ASSERT_TRUE(b.status.ok()) << b.status.message;
        EXPECT_EQ(a.cut, b.cut);
        EXPECT_EQ(a.partitionCrc, b.partitionCrc);
    }
}

// ------------------------------------------------------- supervision

/// superviseJob on a one-slot pool that retires its worker after every
/// job: each attempt runs in a fresh process.
JobResult superviseOnFreshWorkers(const JobRequest& req, const SupervisorConfig& cfg) {
    WorkerPoolConfig pc;
    pc.retireAfterJob = true;
    WorkerPool pool(pc);
    return superviseJob(req, cfg, pool, 0);
}

TEST(ServeSupervisor, CleanJobRunsOnce) {
    const JobResult r = superviseOnFreshWorkers(tinyRequest("clean"), SupervisorConfig{});
    ASSERT_TRUE(r.outcome.status.ok()) << r.outcome.status.message;
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.crashes, 0);
    EXPECT_FALSE(r.retried);
}

TEST(ServeSupervisor, Sigsegv0MidJobIsContainedAndRetried) {
    JobRequest req = tinyRequest("crash-once");
    req.faultSpec = "site=serve.worker_crash,at=1";
    req.faultAttempts = 1; // crash attempt 0 only; the retry runs clean
    const JobResult r = superviseOnFreshWorkers(req, SupervisorConfig{});
    ASSERT_TRUE(r.outcome.status.ok()) << r.outcome.status.message;
    EXPECT_EQ(r.attempts, 2);
    EXPECT_EQ(r.crashes, 1);
    EXPECT_TRUE(r.retried);
    EXPECT_NE(r.outcome.partitionCrc, 0u);
}

TEST(ServeSupervisor, PersistentCrashClassifiesAfterOneRetry) {
    JobRequest req = tinyRequest("crash-always");
    req.faultSpec = "site=serve.worker_crash,at=1"; // every attempt re-arms
    const JobResult r = superviseOnFreshWorkers(req, SupervisorConfig{});
    EXPECT_EQ(r.outcome.status.code, StatusCode::kWorkerCrashed);
    EXPECT_EQ(r.attempts, 2); // retried once, then classified — never looping
    EXPECT_EQ(r.crashes, 2);
}

/// A failing comparator job gets the same retry-once policy as an ML job.
TEST(ServeSupervisor, ComparatorFaultIsRetriedOnceThenClassified) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    JobRequest once = tinyRequest("lsmc-once");
    once.engine = "lsmc";
    once.faultSpec = "site=lsmc.descent,p=1.0";
    once.faultAttempts = 1;
    const JobResult r = superviseOnFreshWorkers(once, SupervisorConfig{});
    ASSERT_TRUE(r.outcome.status.ok()) << r.outcome.status.message;
    EXPECT_EQ(r.attempts, 2);
    EXPECT_TRUE(r.retried);

    JobRequest always = tinyRequest("genetic-always");
    always.engine = "genetic";
    always.faultSpec = "site=genetic.generation,p=1.0";
    const JobResult f = superviseOnFreshWorkers(always, SupervisorConfig{});
    EXPECT_EQ(f.outcome.status.code, StatusCode::kInjectedFault);
    EXPECT_EQ(f.attempts, 2);
    EXPECT_EQ(f.crashes, 0);
}

TEST(ServeSupervisor, TornResultFrameDegradesToRetryNotGarbage) {
    JobRequest req = tinyRequest("torn");
    req.faultSpec = "site=serve.pipe,at=1";
    req.faultAttempts = 1;
    const JobResult r = superviseOnFreshWorkers(req, SupervisorConfig{});
    ASSERT_TRUE(r.outcome.status.ok()) << r.outcome.status.message;
    EXPECT_EQ(r.attempts, 2);
    EXPECT_EQ(r.crashes, 1); // the torn attempt counts as a crash
}

TEST(ServeSupervisor, WatchdogKillsHungWorkerWithinDeadlinePlusGrace) {
    JobRequest req = tinyRequest("hang");
    req.faultSpec = "site=serve.worker_hang,at=1";
    req.deadlineSeconds = 0.2;
    SupervisorConfig cfg;
    cfg.graceSeconds = 0.2;
    const auto t0 = std::chrono::steady_clock::now();
    const JobResult r = superviseOnFreshWorkers(req, cfg);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_EQ(r.outcome.status.code, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(r.watchdogKilled);
    EXPECT_EQ(r.attempts, 1); // deadline outcomes are final, not retried
    // Killed within deadline+grace plus scheduling slack — not hung forever.
    EXPECT_LT(seconds, 5.0);
}

TEST(ServeSupervisor, InjectedForkFailureIsRetried) {
    robust::FaultPlan plan;
    plan.site = "serve.fork";
    plan.fireAtHit = 1;
    robust::FaultInjector::instance().arm(plan);
    const JobResult r = superviseOnFreshWorkers(tinyRequest("forkfail"), SupervisorConfig{});
    EXPECT_GE(robust::FaultInjector::instance().fires(), 1);
    robust::FaultInjector::instance().disarm();
    ASSERT_TRUE(r.outcome.status.ok()) << r.outcome.status.message;
    EXPECT_EQ(r.attempts, 2);
    EXPECT_TRUE(r.retried);
}

TEST(ServeSupervisor, RetryPolicyMatchesTheTaxonomy) {
    EXPECT_TRUE(isRetryableJobFailure(StatusCode::kWorkerCrashed));
    EXPECT_TRUE(isRetryableJobFailure(StatusCode::kInternal));
    EXPECT_TRUE(isRetryableJobFailure(StatusCode::kInjectedFault));
    EXPECT_TRUE(isRetryableJobFailure(StatusCode::kResourceExhausted));
    EXPECT_TRUE(isRetryableJobFailure(StatusCode::kAllStartsFailed));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kOk));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kUsage));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kParseError));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kInfeasible));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kDeadlineExceeded));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kInterrupted));
    EXPECT_FALSE(isRetryableJobFailure(StatusCode::kRejected));
    EXPECT_EQ(reseedForAttempt(7, 0), 7u);
    EXPECT_NE(reseedForAttempt(7, 1), 7u);
    EXPECT_NE(reseedForAttempt(7, 1), reseedForAttempt(7, 2));
}

// ---------------------------------------------------------- the service

// One cell of the crash-containment matrix: a mixed batch of clean jobs,
// jobs whose first attempt SIGSEGVs / tears its frame, and one that
// crashes on every attempt, run through a service with the given worker
// path and width. Per-job fault specs are re-armed by the worker for every
// job, so the attempt pattern — and therefore every surviving result — is
// a function of the request alone, not of scheduling or of how many jobs a
// worker has served. Returns "status/cut/crc/attempts" per job id, after
// spot-checking the containment semantics.
std::map<std::string, std::string> runMixedBatchCell(bool usePool, int workers) {
    const std::vector<std::string> jobs = {
        tinyJob("clean-1", "\"seed\":11"),
        tinyJob("clean-2", "\"seed\":12"),
        tinyJob("crash-1",
                "\"seed\":13,\"fault\":\"site=serve.worker_crash,at=1\",\"fault_attempts\":1"),
        tinyJob("torn-1",
                "\"seed\":14,\"fault\":\"site=serve.pipe,at=1\",\"fault_attempts\":1"),
        tinyJob("dead-1", "\"seed\":15,\"fault\":\"site=serve.worker_crash,at=1\""),
        tinyJob("clean-3", "\"seed\":16"),
    };
    SCOPED_TRACE((usePool ? "pool" : "fresh") + std::string("/workers=") +
                 std::to_string(workers));
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.usePool = usePool;
    cfg.poolBackoffBaseSeconds = 0.01; // keep the crash jobs quick
    {
        Service service(cfg, cap.sink());
        for (const std::string& j : jobs) service.handleLine(j);
        service.stop();
    }
    std::map<std::string, std::string> results;
    for (const std::string& j : jobs) {
        const std::string id = parseJobRequest(j).id;
        const JsonObject o = parseJsonObject(cap.resultFor(id));
        results[id] = getString(o, "status", "?") + "/cut=" +
                      std::to_string(getInt(o, "cut", -2)) + "/crc=" +
                      std::to_string(getInt(o, "part_crc", -2)) + "/attempts=" +
                      std::to_string(getInt(o, "attempts", -2));
    }
    const JsonObject crash = parseJsonObject(cap.resultFor("crash-1"));
    EXPECT_EQ(getInt(crash, "attempts", 0), 2);
    EXPECT_EQ(getInt(crash, "crashes", 0), 1);
    EXPECT_EQ(getString(crash, "status", ""), "OK");
    const JsonObject dead = parseJsonObject(cap.resultFor("dead-1"));
    EXPECT_EQ(getString(dead, "status", ""), "WORKER_CRASHED");
    EXPECT_EQ(getInt(dead, "attempts", 0), 2);
    return results;
}

TEST(ServeService, CrashContainmentIsBitIdenticalAcrossWorkerCounts) {
    // The fresh-process half of the matrix: the service survives every
    // crash (the supervisor never dies) and produces the same status, cut,
    // partition CRC and attempt count for every job id at 1, 2 and 8
    // workers.
    const auto reference = runMixedBatchCell(/*usePool=*/false, 1);
    EXPECT_EQ(runMixedBatchCell(false, 2), reference);
    EXPECT_EQ(runMixedBatchCell(false, 8), reference);
}

TEST(ServeService, ShedsLowestPriorityWhenTheQueueOverflows) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queueLimit = 1;
    Service service(cfg, cap.sink());
    // Occupy the single dispatcher with a worker that hangs until its
    // watchdog fires, making queue occupancy deterministic.
    service.handleLine(tinyJob(
        "blocker", "\"fault\":\"site=serve.worker_hang,at=1\",\"deadline\":1.5"));
    // Wait until the blocker was dispatched (queue drained into active).
    for (int i = 0; i < 200; ++i) {
        if (service.statusJson().find("\"active\":1") != std::string::npos) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    service.handleLine(tinyJob("low", "\"priority\":1"));
    service.handleLine(tinyJob("high", "\"priority\":5"));   // sheds "low"
    service.handleLine(tinyJob("late", "\"priority\":1"));   // bounces: queue full
    service.stop();

    EXPECT_NE(cap.lineFor("low").find("\"status\":\"REJECTED\""), std::string::npos);
    EXPECT_NE(cap.lineFor("low").find("shed"), std::string::npos);
    EXPECT_NE(cap.lineFor("late").find("\"status\":\"REJECTED\""), std::string::npos);
    EXPECT_NE(cap.lineFor("late").find("queue full"), std::string::npos);
    EXPECT_NE(cap.lineFor("high").find("\"status\":\"OK\""), std::string::npos);
    EXPECT_NE(cap.lineFor("blocker").find("\"watchdog_killed\":true"), std::string::npos);
}

TEST(ServeService, AdmissionRejectsJobsThatCannotFitTheMemoryBudget) {
    auto& governor = robust::MemoryGovernor::instance();
    const std::uint64_t savedLimit = governor.limitBytes();
    EXPECT_GT(Service::estimateJobBytes(tinyRequest("e")), 0u);
    Capture cap;
    ServiceConfig cfg;
    cfg.memLimitBytes = 1; // nothing fits a one-byte budget
    {
        Service service(cfg, cap.sink());
        service.handleLine(tinyJob("toobig"));
        service.stop();
    }
    governor.setLimitBytes(savedLimit); // the governor is process-global
    EXPECT_NE(cap.lineFor("toobig").find("\"status\":\"RESOURCE_EXHAUSTED\""),
              std::string::npos);
}

// Admission control must see through every on-disk format, not just .hgr:
// a .netD header declares its counts exactly, and a huge .bench file's
// size bounds it from below. Before the format-aware estimate, such jobs
// sailed past admission (estimate 0) and only failed inside a worker that
// had already swallowed the memory.
TEST(ServeService, AdmissionEstimatesNetDAndBenchInstances) {
    const std::string netd = ::testing::TempDir() + "serve_admission_huge.netD";
    {
        std::ofstream out(netd);
        // magic numPins numNets numModules padOffset — a billion-pin design.
        out << "0 1000000000 400000000 400000000 0\na1 s\n";
    }
    JobRequest netdReq = tinyRequest("netd");
    netdReq.inlineHgr.clear();
    netdReq.instance = netd;
    EXPECT_GT(Service::estimateJobBytes(netdReq), std::uint64_t{1} << 33);

    const std::string bench = ::testing::TempDir() + "serve_admission.bench";
    {
        std::ofstream out(bench);
        for (int i = 0; i < 64; ++i) out << "G" << i << " = NAND(G" << i + 1 << ", G" << i + 2 << ")\n";
    }
    JobRequest benchReq = tinyRequest("bench");
    benchReq.inlineHgr.clear();
    benchReq.instance = bench;
    EXPECT_GT(Service::estimateJobBytes(benchReq), 0u);

    // End to end: the declared-huge .netD must be rejected at admission —
    // no worker fork, just the one-line RESOURCE_EXHAUSTED response.
    auto& governor = robust::MemoryGovernor::instance();
    const std::uint64_t savedLimit = governor.limitBytes();
    Capture cap;
    ServiceConfig cfg;
    cfg.memLimitBytes = 16u << 20; // plenty for the service, never a billion pins
    {
        Service service(cfg, cap.sink());
        service.handleLine("{\"op\":\"partition\",\"id\":\"huge\",\"instance\":\"" + netd +
                           "\"}");
        service.stop();
    }
    governor.setLimitBytes(savedLimit);
    EXPECT_NE(cap.lineFor("huge").find("\"status\":\"RESOURCE_EXHAUSTED\""),
              std::string::npos);
    std::remove(netd.c_str());
    std::remove(bench.c_str());
}

TEST(ServeService, DrainRejectsQueuedFinishesInFlightAndBoundsHungWorkers) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.drainGraceSeconds = 0.1;
    cfg.graceSeconds = 0.3;
    Service service(cfg, cap.sink());
    // In-flight: a worker that ignores SIGTERM (it hangs before installing
    // any job logic) — drain must still end it via the hard kill.
    service.handleLine(tinyJob("stuck", "\"fault\":\"site=serve.worker_hang,at=1\""));
    for (int i = 0; i < 200; ++i) {
        if (service.statusJson().find("\"active\":1") != std::string::npos) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    service.handleLine(tinyJob("queued"));
    const auto t0 = std::chrono::steady_clock::now();
    service.drain();
    EXPECT_TRUE(service.draining());
    // New arrivals after the drain get the distinct rejection status.
    service.handleLine(tinyJob("late"));
    service.stop();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    EXPECT_NE(cap.lineFor("queued").find("\"status\":\"REJECTED\""), std::string::npos);
    EXPECT_NE(cap.lineFor("queued").find("drained before execution"), std::string::npos);
    EXPECT_NE(cap.lineFor("late").find("\"status\":\"REJECTED\""), std::string::npos);
    EXPECT_NE(cap.lineFor("stuck").find("\"status\":\"DEADLINE_EXCEEDED\""),
              std::string::npos);
    EXPECT_LT(seconds, 5.0); // drain-grace + grace + slack, not forever
}

TEST(ServeService, DrainWindsDownLongJobsToBestSoFarWithCheckpoint) {
    const std::string ckpt = ::testing::TempDir() + "serve_drain.ckpt";
    std::remove(ckpt.c_str());
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.drainGraceSeconds = 0.05;
    cfg.graceSeconds = 5.0; // generous: the worker cooperates, no hard kill
    Service service(cfg, cap.sink());
    // Not tinyJob(): that helper already sets "runs", and the strict
    // parser rejects duplicate keys.
    service.handleLine(
        "{\"op\":\"partition\",\"id\":\"long\","
        "\"hgr\":\"6 8\\n1 2\\n3 4\\n5 6\\n7 8\\n2 3\\n6 7\\n\","
        "\"runs\":100000,\"checkpoint\":\"" + ckpt + "\",\"seed\":3}");
    for (int i = 0; i < 200; ++i) {
        if (service.statusJson().find("\"active\":1") != std::string::npos) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200)); // let starts finish
    service.drain();
    service.stop();

    const std::string line = cap.lineFor("long");
    EXPECT_NE(line.find("\"status\":\"INTERRUPTED\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"checkpoint_saved\":true"), std::string::npos) << line;
    const JsonObject o = parseJsonObject(line);
    EXPECT_GT(getInt(o, "runs_ok", 0), 0);       // best-so-far, not nothing
    EXPECT_GT(getInt(o, "runs_skipped", 0), 0);  // wound down early
    std::remove(ckpt.c_str());
}

TEST(ServeService, StatusReportsQueueGovernorAndHistory) {
    Capture cap;
    Service service(ServiceConfig{}, cap.sink());
    service.handleLine(tinyJob("s1"));
    service.stop();
    const std::string status = service.statusJson();
    EXPECT_NE(status.find("\"event\":\"status\""), std::string::npos);
    EXPECT_NE(status.find("\"completed\":1"), std::string::npos);
    EXPECT_NE(status.find("\"mem_limit\":"), std::string::npos);
    EXPECT_NE(status.find("\"id\":\"s1\""), std::string::npos); // history entry
}

TEST(ServeService, MalformedLinesGetAnErrorResponseNotACrash) {
    Capture cap;
    Service service(ServiceConfig{}, cap.sink());
    service.handleLine("this is not json");
    service.handleLine("{\"op\":\"partition\"}"); // no instance/hgr
    service.handleLine("");                       // blank: ignored
    service.stop();
    const std::vector<std::string> lines = cap.snapshot();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("PARSE_ERROR"), std::string::npos);
    EXPECT_NE(lines[1].find("USAGE"), std::string::npos);
}

TEST(ServeService, EofStopFinishesTheQueueInsteadOfRejectingIt) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    {
        Service service(cfg, cap.sink());
        for (int i = 0; i < 4; ++i) service.handleLine(tinyJob("q" + std::to_string(i)));
        service.stop(); // no drain: accepted jobs still owe a real response
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(cap.lineFor("q" + std::to_string(i)).find("\"status\":\"OK\""),
                  std::string::npos);
}

// ---------------------------------------------------------- cancellation

TEST(ServeCancel, QueuedJobDiesWithOneCancelledResponse) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    Service service(cfg, cap.sink());
    // Pin the one dispatcher so "victim" stays queued deterministically.
    service.handleLine(tinyJob(
        "blocker", "\"fault\":\"site=serve.worker_hang,at=1\",\"deadline\":1.0"));
    waitForActive(service);
    service.handleLine(tinyJob("victim"));
    service.handleLine("{\"op\":\"cancel\",\"id\":\"victim\"}");
    service.handleLine("{\"op\":\"cancel\",\"id\":\"no-such-job\"}");
    service.stop();

    EXPECT_NE(cap.lineFor("no-such-job").find("\"outcome\":\"unknown\""),
              std::string::npos);
    // The cancel gets its ack; the job gets its one CANCELLED result.
    const std::vector<std::string> lines = cap.snapshot();
    bool sawAck = false;
    for (const std::string& l : lines)
        if (l.find("\"event\":\"cancel\"") != std::string::npos &&
            l.find("\"id\":\"victim\"") != std::string::npos)
            sawAck = l.find("\"outcome\":\"queued\"") != std::string::npos;
    EXPECT_TRUE(sawAck);
    const std::string result = cap.resultFor("victim");
    EXPECT_NE(result.find("\"status\":\"CANCELLED\""), std::string::npos) << result;
    EXPECT_NE(result.find("\"exit\":10"), std::string::npos) << result;
    EXPECT_EQ(cap.countFor("victim"), 1); // never lost, never duplicated
}

TEST(ServeCancel, InFlightJobWindsDownToCancelledAndIsNeverRetried) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    Service service(cfg, cap.sink());
    // A job long enough to be mid-run when the cancel lands; the worker
    // cooperates with SIGTERM (wind down, emit best-so-far).
    service.handleLine(
        "{\"op\":\"partition\",\"id\":\"long\","
        "\"hgr\":\"6 8\\n1 2\\n3 4\\n5 6\\n7 8\\n2 3\\n6 7\\n\","
        "\"runs\":100000,\"seed\":5}");
    waitForActive(service);
    service.handleLine("{\"op\":\"cancel\",\"id\":\"long\"}");
    const auto t0 = std::chrono::steady_clock::now();
    service.stop();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    bool sawAck = false;
    for (const std::string& l : cap.snapshot())
        if (l.find("\"event\":\"cancel\"") != std::string::npos &&
            l.find("\"id\":\"long\"") != std::string::npos)
            sawAck = l.find("\"outcome\":\"inflight\"") != std::string::npos;
    EXPECT_TRUE(sawAck);
    const std::string result = cap.resultFor("long");
    EXPECT_NE(result.find("\"status\":\"CANCELLED\""), std::string::npos) << result;
    const JsonObject o = parseJsonObject(result);
    EXPECT_EQ(getInt(o, "attempts", 0), 1); // cancelled jobs are never retried
    EXPECT_EQ(cap.countFor("long"), 1);
    EXPECT_LT(seconds, 10.0); // wound down, not run to completion
}

TEST(ServeCancel, CancelAfterCompletionIsUnknownAndTheOkResultStands) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob("fast", "\"seed\":31"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"fast\""));
    // The complete side of the cancel/complete race: the job is done, the
    // cancel finds nothing, the OK result is already emitted and final.
    service.handleLine("{\"op\":\"cancel\",\"id\":\"fast\"}");
    service.stop();
    EXPECT_NE(cap.resultFor("fast").find("\"status\":\"OK\""), std::string::npos);
    EXPECT_EQ(cap.countFor("fast"), 1);
    bool sawUnknown = false;
    for (const std::string& l : cap.snapshot())
        if (l.find("\"event\":\"cancel\"") != std::string::npos)
            sawUnknown = l.find("\"outcome\":\"unknown\"") != std::string::npos;
    EXPECT_TRUE(sawUnknown);
}

TEST(ServeCancel, CancellingAHungWorkerStillResolvesToCancelled) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.graceSeconds = 0.3; // bound the SIGTERM-ignoring worker's wind-down
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob("stuck", "\"fault\":\"site=serve.worker_hang,at=1\""));
    waitForActive(service);
    service.handleLine("{\"op\":\"cancel\",\"id\":\"stuck\"}");
    service.stop();
    // The worker ignored SIGTERM, the watchdog hard-killed it, and the
    // classification still lands on the one deterministic CANCELLED.
    const std::string result = cap.resultFor("stuck");
    EXPECT_NE(result.find("\"status\":\"CANCELLED\""), std::string::npos) << result;
    EXPECT_EQ(cap.countFor("stuck"), 1);
}

// ------------------------------------------------------------ worker pool

TEST(ServePool, PoolResultsAreBitIdenticalToForkPerJobAcrossWorkerCounts) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    // The reused-worker half of the crash-containment matrix: pooled
    // workers re-arm the per-job fault spec per request, so attempt
    // patterns — and cut + partition CRC — must match a fresh process per
    // job exactly, at every pool width.
    const auto fresh = runMixedBatchCell(/*usePool=*/false, 1);
    for (const int workers : {1, 2, 8})
        EXPECT_EQ(runMixedBatchCell(/*usePool=*/true, workers), fresh) << workers;
}

TEST(ServePool, CrashedWorkerIsReapedRespawnedAndAccounted) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.usePool = true;
    cfg.poolBackoffBaseSeconds = 0.01;
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob("die", "\"fault\":\"site=serve.worker_crash,at=1\""));
    service.handleLine(tinyJob("ok-after", "\"seed\":9"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"ok-after\""));
    const std::string status = service.statusJson();
    service.stop();

    EXPECT_NE(cap.resultFor("die").find("\"status\":\"WORKER_CRASHED\""),
              std::string::npos);
    EXPECT_NE(cap.resultFor("ok-after").find("\"status\":\"OK\""), std::string::npos);
    // The crash-always job burned two workers (attempt + retry); the
    // clean job proves the slot recovered. Stats must say so.
    EXPECT_NE(status.find("\"pool\":true"), std::string::npos) << status;
    EXPECT_GE(statusInt(status, "respawn_total"), 2);
    EXPECT_NE(status.find("\"crashes\":2"), std::string::npos) << status;
}

TEST(ServePool, FlappingWorkerBacksOffExponentiallyAndRecovers) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.usePool = true;
    cfg.poolBackoffBaseSeconds = 0.05;
    cfg.poolBackoffCapSeconds = 0.2;
    Service service(cfg, cap.sink());
    // Two crash-always jobs: four consecutive worker deaths on one slot.
    service.handleLine(tinyJob("flap-1", "\"fault\":\"site=serve.worker_crash,at=1\""));
    service.handleLine(tinyJob("flap-2", "\"fault\":\"site=serve.worker_crash,at=1\""));
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(cap.waitFor("\"id\":\"flap-2\""));
    const double flapSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const std::string flapping = service.statusJson();
    // A clean job then resets the slot's failure streak.
    service.handleLine(tinyJob("calm", "\"seed\":4"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"calm\""));
    const std::string calmed = service.statusJson();
    service.stop();

    EXPECT_NE(flapping.find("\"consecutive_failures\":4"), std::string::npos) << flapping;
    EXPECT_GE(statusInt(flapping, "respawn_total"), 3);
    // Backoff made the flapping slower than free respawning: deaths 2..4
    // waited ~0.05/0.1/0.2s (minus the first job's instant spawn).
    (void)flapSeconds; // lower-bounding wall clock is flaky under load; the
                       // consecutive_failures counter is the real assertion
    EXPECT_NE(calmed.find("\"consecutive_failures\":0"), std::string::npos) << calmed;
    EXPECT_NE(cap.resultFor("calm").find("\"status\":\"OK\""), std::string::npos);
}

TEST(ServePool, PoolShutdownLeavesNoLiveWorkers) {
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.usePool = true;
    Capture cap;
    std::vector<std::string> ids;
    for (int i = 0; i < 8; ++i) {
        std::string id = "w";
        id += std::to_string(i);
        ids.push_back(std::move(id));
    }
    {
        Service service(cfg, cap.sink());
        for (int i = 0; i < 8; ++i)
            service.handleLine(tinyJob(ids[i], "\"seed\":" + std::to_string(100 + i)));
        service.stop();
    }
    for (const std::string& id : ids)
        EXPECT_NE(cap.resultFor(id).find("\"status\":\"OK\""), std::string::npos);
    // Every pooled child was reaped by shutdown: no zombies to collect.
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

// ------------------------------------------------------------ result cache

TEST(ServeCache, LruEvictsAndCountsExactly) {
    ResultCache cache(2);
    JobOutcome o;
    o.cut = 1;
    cache.insert(10, o);
    cache.insert(20, o);
    JobOutcome out;
    EXPECT_TRUE(cache.lookup(10, out));  // refreshes 10: 20 is now LRU
    cache.insert(30, o);                 // evicts 20
    EXPECT_FALSE(cache.lookup(20, out));
    EXPECT_TRUE(cache.lookup(30, out));
    EXPECT_FALSE(cache.lookup(0, out));  // fingerprint 0 never caches
    cache.invalidate(10);
    EXPECT_FALSE(cache.lookup(10, out));
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 1);
    EXPECT_EQ(s.insertions, 3);
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.invalidations, 1);
}

/// Literals written before the bisection engine's pass budget: serial and
/// parallel k = 2 keys under the paper's stopping rule, and a parallel key
/// of revision 1 of the parallel V-cycle. The budget changes default k = 2
/// results in both modes, so every one of them must now miss, and so must
/// the serial key of bisection revision 2 (before the serial pre-pass).
TEST(ServeCache, FingerprintRetiresOnlyOlderParallelRevisions) {
    JobRequest a = tinyRequest("a");
    a.seed = 42;
    EXPECT_NE(requestFingerprint(a), 0x53abe977eb94f5d7ull);
    EXPECT_NE(requestFingerprint(a), 0x44839b38db55f42bull);
    EXPECT_EQ(requestFingerprint(a), 0x49b33fcfa08a5a78ull);
    a.vcycleThreads = 2;
    EXPECT_NE(requestFingerprint(a), 0x3214c42aadab9f38ull);
    EXPECT_NE(requestFingerprint(a), 0x31918c5efb5ed901ull);
}

/// k = 4 keys written before the k-way engine had a revision: the move
/// window changes default k-way results, so they must miss in both modes.
/// The k-way revision leaves bisection keys alone: the k = 2 keys of the
/// current bisection revision stay pinned. Bisection revision 3 retires
/// revision 2's k = 2 keys and leaves the k = 4 keys alone.
TEST(ServeCache, FingerprintKeepsKWayKeysAcrossBisectionRevisions) {
    JobRequest a = tinyRequest("a");
    a.seed = 42;
    EXPECT_NE(requestFingerprint(a), 0x44839b38db55f42bull);
    EXPECT_EQ(requestFingerprint(a), 0x49b33fcfa08a5a78ull);
    JobRequest parallel = a;
    parallel.vcycleThreads = 2;
    EXPECT_NE(requestFingerprint(parallel), 0x488efe063d869fe0ull);
    EXPECT_EQ(requestFingerprint(parallel), 0xc8682096997ca620ull);
    a.engine = "clip"; // an unset engine runs k-way FM at k = 4
    a.k = 4;
    EXPECT_NE(requestFingerprint(a), 0x94fd73069bbad5ceull);
    EXPECT_EQ(requestFingerprint(a), 0xede984f739307251ull);
    a.vcycleThreads = 2;
    EXPECT_NE(requestFingerprint(a), 0x71c02ae65ba8a96eull);
    EXPECT_EQ(requestFingerprint(a), 0x15c490a041d39585ull);
}

/// A request that names no engine runs CLIP at k = 2 and the k-way FM
/// engine at k > 2, under the same key and with the same result as one
/// that names it. An explicit "clip" still selects k-way CLIP, whose key
/// is the one pinned above.
TEST(ServeCache, OmittedEngineResolvesByK) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    const JobRequest k2 = parseJobRequest(tinyJob("k2", "\"seed\":42"));
    EXPECT_EQ(k2.engine, "clip");
    EXPECT_NE(requestFingerprint(k2), 0x44839b38db55f42bull);
    EXPECT_EQ(requestFingerprint(k2), 0x49b33fcfa08a5a78ull);
    const std::string k4Fields = "\"k\":4,\"seed\":42";
    const JobRequest omitted = parseJobRequest(tinyJob("omitted", k4Fields));
    const JobRequest fm = parseJobRequest(tinyJob("fm", k4Fields + ",\"engine\":\"fm\""));
    const JobRequest clip = parseJobRequest(tinyJob("clip", k4Fields + ",\"engine\":\"clip\""));
    EXPECT_EQ(omitted.engine, "fm");
    EXPECT_EQ(requestFingerprint(omitted), requestFingerprint(fm));
    EXPECT_EQ(clip.engine, "clip");
    EXPECT_EQ(requestFingerprint(clip), 0xede984f739307251ull);

    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1; // no result cache: both jobs compute
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob("omitted", k4Fields));
    ASSERT_TRUE(cap.waitFor("\"id\":\"omitted\""));
    service.handleLine(tinyJob("fm", k4Fields + ",\"engine\":\"fm\""));
    ASSERT_TRUE(cap.waitFor("\"id\":\"fm\""));
    service.stop();
    const JsonObject a = parseJsonObject(cap.resultFor("omitted"));
    const JsonObject b = parseJsonObject(cap.resultFor("fm"));
    EXPECT_EQ(getString(a, "status", ""), "OK");
    EXPECT_EQ(getInt(a, "cut", -1), getInt(b, "cut", -2));
    EXPECT_EQ(getInt(a, "part_crc", -1), getInt(b, "part_crc", -2));
}

/// An engine left unset on a request built in code resolves by k for
/// every consumer, exactly like an omitted JSON "engine": the k = 2 keys
/// pinned above hold, and at k = 4 the key and the worker's result equal
/// the parsed engine-less request's (k-way FM, not the clip key).
TEST(ServeCache, UnsetEngineInCodeResolvesByK) {
    JobRequest k2 = tinyRequest("k2");
    k2.seed = 42;
    ASSERT_TRUE(k2.engine.empty());
    EXPECT_EQ(resolvedEngine(k2), "clip");
    EXPECT_NE(requestFingerprint(k2), 0x44839b38db55f42bull);
    EXPECT_EQ(requestFingerprint(k2), 0x49b33fcfa08a5a78ull);
    k2.vcycleThreads = 2;
    EXPECT_NE(requestFingerprint(k2), 0x488efe063d869fe0ull);
    EXPECT_EQ(requestFingerprint(k2), 0xc8682096997ca620ull);

    JobRequest code = tinyRequest("code");
    code.k = 4;
    code.seed = 42;
    const JobRequest parsed = parseJobRequest(tinyJob("parsed", "\"k\":4,\"seed\":42"));
    EXPECT_EQ(resolvedEngine(code), "fm");
    EXPECT_EQ(parsed.engine, "fm");
    EXPECT_EQ(requestFingerprint(code), requestFingerprint(parsed));
    EXPECT_NE(requestFingerprint(code), 0xede984f739307251ull);

    const JobOutcome a = executeJob(code, nullptr);
    const JobOutcome b = executeJob(parsed, nullptr);
    ASSERT_TRUE(a.status.ok()) << a.status.message;
    ASSERT_TRUE(b.status.ok()) << b.status.message;
    EXPECT_EQ(a.cut, b.cut);
    EXPECT_EQ(a.partitionCrc, b.partitionCrc);
}

TEST(ServeCache, FingerprintFoldsConfigButNotThreadCounts) {
    JobRequest a = tinyRequest("a");
    a.seed = 42;
    JobRequest b = a;
    EXPECT_EQ(requestFingerprint(a), requestFingerprint(b));
    // Results are bit-identical for every vcycle thread count >= 1 (PR 6),
    // so the key folds only the parallel-mode marker.
    b.vcycleThreads = 2;
    JobRequest c = a;
    c.vcycleThreads = 8;
    EXPECT_EQ(requestFingerprint(b), requestFingerprint(c));
    EXPECT_NE(requestFingerprint(a), requestFingerprint(b)); // serial != parallel
    // Anything that changes the answer changes the key.
    JobRequest d = a;
    d.seed = 43;
    EXPECT_NE(requestFingerprint(a), requestFingerprint(d));
    JobRequest e = a;
    e.k = 4;
    EXPECT_NE(requestFingerprint(a), requestFingerprint(e));
    // Side-effectful / fault-armed / resumed jobs are never cacheable.
    EXPECT_TRUE(cacheableRequest(a));
    JobRequest f = a;
    f.faultSpec = "site=serve.worker_crash,at=1";
    EXPECT_FALSE(cacheableRequest(f));
    f = a;
    f.outPath = "/tmp/out.part";
    EXPECT_FALSE(cacheableRequest(f));
    f = a;
    f.checkpointPath = "/tmp/x.ckpt";
    EXPECT_FALSE(cacheableRequest(f));
}

TEST(ServeCache, HitReplaysBitIdenticalResultWithCachedMarker) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cacheEntries = 8;
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob("cold", "\"seed\":77"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"cold\""));
    service.handleLine(tinyJob("warm", "\"seed\":77")); // same key, new id
    ASSERT_TRUE(cap.waitFor("\"id\":\"warm\""));
    const std::string status = service.statusJson();
    service.stop();

    const JsonObject cold = parseJsonObject(cap.resultFor("cold"));
    const JsonObject warm = parseJsonObject(cap.resultFor("warm"));
    EXPECT_FALSE(getBool(cold, "cached", true));
    EXPECT_TRUE(getBool(warm, "cached", false));
    // Bit-identity, not just same status: cut and partition CRC replay.
    EXPECT_EQ(getInt(warm, "cut", -1), getInt(cold, "cut", -2));
    EXPECT_EQ(getInt(warm, "part_crc", -1), getInt(cold, "part_crc", -2));
    EXPECT_NE(status.find("\"hits\":1"), std::string::npos) << status;
}

TEST(ServeCache, FaultArmedJobInvalidatesItsKey) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cacheEntries = 8;
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob("prime", "\"seed\":88"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"prime\""));
    // Same key, fault-armed: must invalidate the cached entry and must
    // not repopulate it (fault jobs are uncacheable).
    service.handleLine(tinyJob(
        "poison",
        "\"seed\":88,\"fault\":\"site=serve.worker_crash,at=1\",\"fault_attempts\":1"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"poison\""));
    service.handleLine(tinyJob("reprove", "\"seed\":88"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"reprove\""));
    const std::string status = service.statusJson();
    service.stop();

    const JsonObject reprove = parseJsonObject(cap.resultFor("reprove"));
    EXPECT_FALSE(getBool(reprove, "cached", true)) << "stale entry survived the fault";
    const JsonObject prime = parseJsonObject(cap.resultFor("prime"));
    EXPECT_EQ(getInt(reprove, "cut", -1), getInt(prime, "cut", -2)); // recomputed, same answer
    EXPECT_EQ(statusInt(status, "invalidations"), 1);
}

// ------------------------------------------------------- client isolation

TEST(ServeClients, PerClientInFlightCapRejectsTheOverflow) {
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.perClientInFlight = 1;
    Service service(cfg, cap.sink());
    service.handleLine(tinyJob(
        "hog", "\"fault\":\"site=serve.worker_hang,at=1\",\"deadline\":1.0"));
    waitForActive(service);
    service.handleLine(tinyJob("over"));
    service.stop();
    const std::string over = cap.resultFor("over");
    EXPECT_NE(over.find("\"status\":\"REJECTED\""), std::string::npos) << over;
    EXPECT_NE(over.find("per-client limit"), std::string::npos) << over;
}

TEST(ServeClients, DisconnectDropsQueuedCancelsInFlightAndSuppressesResults) {
    Capture survivor;
    Capture doomed;
    ServiceConfig cfg;
    cfg.workers = 1;
    Service service(cfg, survivor.sink());
    const std::uint64_t gone = service.registerClient(doomed.sink());
    // In-flight long job plus a queued job, both owned by the client.
    service.handleLine(
        "{\"op\":\"partition\",\"id\":\"doomed-run\","
        "\"hgr\":\"6 8\\n1 2\\n3 4\\n5 6\\n7 8\\n2 3\\n6 7\\n\","
        "\"runs\":100000,\"seed\":6}",
        gone);
    waitForActive(service);
    service.handleLine(tinyJob("doomed-wait"), gone);
    service.disconnectClient(gone);
    const auto t0 = std::chrono::steady_clock::now();
    // A surviving client keeps getting service: the auto-cancel freed the
    // dispatcher without waiting for 100000 runs.
    service.handleLine(tinyJob("alive", "\"seed\":7"));
    ASSERT_TRUE(survivor.waitFor("\"id\":\"alive\""));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const std::string status = service.statusJson();
    service.stop();

    EXPECT_LT(seconds, 20.0);
    EXPECT_EQ(doomed.countFor("doomed-run"), 0);  // suppressed, not misrouted
    EXPECT_EQ(doomed.countFor("doomed-wait"), 0); // dropped silently
    EXPECT_EQ(survivor.countFor("doomed-run"), 0);
    EXPECT_GE(statusInt(status, "orphaned"), 2); // the queued drop + the suppressed result
}

// --------------------------------------------------------- socket front end

int connectClient(const std::string& path) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int i = 0; i < 250; ++i) {
        if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) == 0)
            return fd;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    close(fd);
    return -1;
}

void sendAll(int fd, const std::string& data) {
    ASSERT_TRUE(robust::writeFull(fd, data.data(), data.size()).ok());
}

/// Reads one '\n'-terminated line (without the newline); "" on EOF/timeout.
std::string recvLine(int fd, int timeoutMs = 30000) {
    std::string buf;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
        struct pollfd p {};
        p.fd = fd;
        p.events = POLLIN;
        const int rc = poll(&p, 1, 100);
        if (rc < 0 && errno != EINTR) break;
        if (rc <= 0) continue;
        char ch;
        const ssize_t n = read(fd, &ch, 1);
        if (n == 0) break;
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN) continue;
            break;
        }
        if (ch == '\n') return buf;
        buf.push_back(ch);
    }
    return buf;
}

struct FrontEndHarness {
    Service service;
    FrontEnd frontEnd;
    std::atomic<bool> shutdown{false};
    std::thread loop;

    FrontEndHarness(const std::string& path, ServiceConfig cfg, FrontEndConfig fc = {})
        : service(std::move(cfg), [](const std::string&) {}),
          frontEnd(service, [&path, &fc] {
              fc.socketPath = path;
              return fc;
          }()) {
        EXPECT_TRUE(frontEnd.listen().ok());
        loop = std::thread([this] { frontEnd.run(shutdown); });
    }
    ~FrontEndHarness() {
        shutdown.store(true);
        loop.join();
    }
};

TEST(ServeFrontEnd, RoutesConcurrentClientsToTheirOwnConnections) {
    const std::string path = ::testing::TempDir() + "serve_fe_route.sock";
    ServiceConfig cfg;
    cfg.workers = 2;
    FrontEndHarness h(path, cfg);
    const int a = connectClient(path);
    const int b = connectClient(path);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    sendAll(a, tinyJob("from-a", "\"seed\":51") + "\n");
    sendAll(b, tinyJob("from-b", "\"seed\":52") + "\n");
    const std::string la = recvLine(a);
    const std::string lb = recvLine(b);
    EXPECT_NE(la.find("\"id\":\"from-a\""), std::string::npos) << la;
    EXPECT_NE(lb.find("\"id\":\"from-b\""), std::string::npos) << lb;
    // Interleaved ops on one connection while the other is idle.
    sendAll(a, "{\"op\":\"status\"}\n");
    EXPECT_NE(recvLine(a).find("\"event\":\"status\""), std::string::npos);
    close(a);
    close(b);
}

TEST(ServeFrontEnd, OversizedLineGetsOneParseErrorAndTheConnectionSurvives) {
    const std::string path = ::testing::TempDir() + "serve_fe_cap.sock";
    FrontEndConfig fc;
    fc.maxLineBytes = 1024;
    FrontEndHarness h(path, ServiceConfig{}, fc);
    const int fd = connectClient(path);
    ASSERT_GE(fd, 0);
    // 100 KiB with no newline: far past the cap, spread over many reads.
    sendAll(fd, std::string(100 * 1024, 'x') + "\n");
    const std::string err = recvLine(fd);
    EXPECT_NE(err.find("PARSE_ERROR"), std::string::npos) << err;
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    // Same connection, next line: still served.
    sendAll(fd, tinyJob("after-flood", "\"seed\":61") + "\n");
    const std::string ok = recvLine(fd);
    EXPECT_NE(ok.find("\"id\":\"after-flood\""), std::string::npos) << ok;
    EXPECT_NE(ok.find("\"status\":\"OK\""), std::string::npos) << ok;
    close(fd);
}

TEST(ServeFrontEnd, HalfCloseDeliversTheFinalUnterminatedRequest) {
    const std::string path = ::testing::TempDir() + "serve_fe_half.sock";
    FrontEndHarness h(path, ServiceConfig{});
    const int fd = connectClient(path);
    ASSERT_GE(fd, 0);
    sendAll(fd, "{\"op\":\"status\"}"); // no trailing newline
    shutdown(fd, SHUT_WR);
    const std::string line = recvLine(fd);
    EXPECT_NE(line.find("\"event\":\"status\""), std::string::npos) << line;
    // After the owed response, the server finishes the connection.
    char ch;
    ssize_t n = 1;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
        n = read(fd, &ch, 1);
        if (n <= 0 && errno != EAGAIN) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(n, 0); // clean EOF, not a hang
    close(fd);
}

TEST(ServeFrontEnd, AbruptDisconnectCancelsTheClientsJobs) {
    const std::string path = ::testing::TempDir() + "serve_fe_drop.sock";
    ServiceConfig cfg;
    cfg.workers = 1;
    FrontEndHarness h(path, cfg);
    const int doomed = connectClient(path);
    ASSERT_GE(doomed, 0);
    sendAll(doomed,
            "{\"op\":\"partition\",\"id\":\"drop-run\","
            "\"hgr\":\"6 8\\n1 2\\n3 4\\n5 6\\n7 8\\n2 3\\n6 7\\n\","
            "\"runs\":100000,\"seed\":8}\n");
    waitForActive(h.service);
    close(doomed); // mid-job, no goodbye
    // The dispatcher must come back without finishing 100000 runs: a
    // fresh client's job completes promptly.
    const int alive = connectClient(path);
    ASSERT_GE(alive, 0);
    sendAll(alive, tinyJob("drop-alive", "\"seed\":9") + "\n");
    const std::string line = recvLine(alive);
    EXPECT_NE(line.find("\"id\":\"drop-alive\""), std::string::npos) << line;
    sendAll(alive, "{\"op\":\"status\"}\n");
    const std::string status = recvLine(alive);
    EXPECT_GE(statusInt(status, "orphaned") + statusInt(status, "cancelled"), 1) << status;
    close(alive);
}

// ------------------------------------------ durable serve state (§16)

struct InjectorGuard {
    ~InjectorGuard() { robust::FaultInjector::instance().disarm(); }
};

std::string durableDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "serve_durable_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// id -> "status/cut=../crc=.." for every result line in `cap`.
std::map<std::string, std::string> resultMapOf(Capture& cap,
                                               const std::vector<std::string>& ids) {
    std::map<std::string, std::string> out;
    for (const std::string& id : ids) {
        const JsonObject o = parseJsonObject(cap.resultFor(id));
        out[id] = getString(o, "status", "?") + "/cut=" +
                  std::to_string(getInt(o, "cut", -2)) + "/crc=" +
                  std::to_string(getInt(o, "part_crc", -2));
    }
    return out;
}

// The §16 acceptance test: a server SIGKILLed mid-queue and restarted on
// the same --state-dir answers every journaled job exactly once, with
// results bit-identical to a server that was never interrupted — for 1,
// 2, and 8 workers.
TEST(ServeDurable, KillRestartReplaysEveryJournaledJobBitIdentically) {
    const std::vector<std::string> ids = {"d-1", "d-2", "d-3", "d-4", "d-5"};
    std::vector<std::string> jobs;
    for (std::size_t i = 0; i < ids.size(); ++i)
        jobs.push_back(tinyJob(ids[i], "\"seed\":" + std::to_string(21 + i)));

    // Oracle: the same batch on an uninterrupted, non-durable server.
    std::map<std::string, std::string> oracle;
    {
        Capture cap;
        ServiceConfig cfg;
        cfg.workers = 1;
        {
            Service service(cfg, cap.sink());
            for (const std::string& j : jobs) service.handleLine(j);
            service.stop();
        }
        oracle = resultMapOf(cap, ids);
    }

    for (const int workers : {1, 2, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const std::string dir = durableDir("kill_w" + std::to_string(workers));

        // The doomed server: admits the whole batch (every job journaled),
        // completes at least two (their Done records land), then is
        // SIGKILLed — no destructors, no flush, exactly like a crash.
        int pipefd[2];
        ASSERT_EQ(pipe(pipefd), 0);
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            close(pipefd[0]);
            std::atomic<int> results{0};
            ServiceConfig cfg;
            cfg.workers = workers;
            cfg.stateDir = dir;
            auto* service = new Service(cfg, [&](const std::string& line) {
                if (line.find("\"event\":\"result\"") != std::string::npos)
                    results.fetch_add(1);
            });
            for (const std::string& j : jobs) service->handleLine(j);
            while (results.load() < 2)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            const char ready = 'r';
            (void)write(pipefd[1], &ready, 1);
            std::this_thread::sleep_for(std::chrono::seconds(60)); // await SIGKILL
            _exit(0);
        }
        close(pipefd[1]);
        char ch = 0;
        ASSERT_EQ(read(pipefd[0], &ch, 1), 1);
        close(pipefd[0]);
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);

        // The restarted server: recovery replays completed jobs from the
        // journal and re-runs the rest deterministically.
        Capture cap;
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.stateDir = dir;
        std::string status;
        {
            Service service(cfg, cap.sink());
            for (const std::string& id : ids)
                ASSERT_TRUE(cap.waitFor("\"id\":\"" + id + "\"")) << id;
            status = service.statusJson();
            service.stop();
        }
        EXPECT_TRUE(cap.waitFor("\"event\":\"recovered\""));
        EXPECT_GE(statusInt(status, "journal_replayed") +
                      statusInt(status, "replayed_results"),
                  static_cast<std::int64_t>(ids.size()));
        for (const std::string& id : ids)
            EXPECT_EQ(cap.countFor(id), 1)
                << "restart owes exactly one response per journaled job: " << id;
        EXPECT_EQ(resultMapOf(cap, ids), oracle);

        // A second restart finds a compacted journal with nothing owed:
        // no job may run or be answered twice across restarts.
        Capture cap2;
        {
            Service service(cfg, cap2.sink());
            service.stop();
        }
        for (const std::string& l : cap2.snapshot())
            EXPECT_EQ(l.find("\"event\":\"result\""), std::string::npos)
                << "a drained journal replayed something: " << l;
    }
}

TEST(ServeDurable, ReplayedResultsCarryTheReplayedMarkerAndSkipExecution) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    const std::string dir = durableDir("marker");
    std::filesystem::create_directories(dir);
    // Forge the crash aftermath directly: one Done job, one pending job.
    {
        Journal j(dir);
        (void)j.recover();
        JobRequest done = parseJobRequest(tinyJob("was-done", "\"seed\":31"));
        JobRequest open = parseJobRequest(tinyJob("still-open", "\"seed\":32"));
        ASSERT_TRUE(j.appendAdmit(1, done).ok());
        ASSERT_TRUE(j.appendStart(1).ok());
        JobResult r;
        r.id = "was-done";
        r.outcome.status = robust::Status::okStatus();
        r.outcome.cut = 777; // a value no real run of this instance produces
        r.outcome.partitionCrc = 0x12345678u;
        r.attempts = 1;
        ASSERT_TRUE(j.appendDone(1, r).ok());
        ASSERT_TRUE(j.appendAdmit(2, open).ok());
    }
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.stateDir = dir;
    {
        Service service(cfg, cap.sink());
        ASSERT_TRUE(cap.waitFor("\"id\":\"still-open\""));
        service.stop();
    }
    // The journaled result is re-emitted verbatim — cut 777 proves no
    // worker ran — and flagged as a replay.
    const JsonObject replayed = parseJsonObject(cap.resultFor("was-done"));
    EXPECT_EQ(getInt(replayed, "cut", -1), 777);
    EXPECT_TRUE(getBool(replayed, "replayed", false));
    // The pending job really executed and is not a replay.
    const JsonObject fresh = parseJsonObject(cap.resultFor("still-open"));
    EXPECT_EQ(getString(fresh, "status", ""), "OK");
    EXPECT_FALSE(getBool(fresh, "replayed", true));
}

TEST(ServeDurable, PersistedCacheHitsBitIdenticallyAcrossRestart) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    const std::string dir = durableDir("cache");
    const std::string job = tinyJob("hot", "\"seed\":41");
    std::string coldLine;
    {
        Capture cap;
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.cacheEntries = 8;
        cfg.stateDir = dir;
        {
            Service service(cfg, cap.sink());
            service.handleLine(job);
            ASSERT_TRUE(cap.waitFor("\"id\":\"hot\""));
            service.stop();
        }
        coldLine = cap.resultFor("hot");
        EXPECT_TRUE(std::filesystem::exists(dir + "/cache.bin"))
            << "insertions must persist the cache snapshot";
    }
    // A brand-new process answers the repeat from the *loaded* cache:
    // cached, counted as a persisted hit, same cut and partition CRC.
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cacheEntries = 8;
    cfg.stateDir = dir;
    std::string status;
    {
        Service service(cfg, cap.sink());
        service.handleLine(job);
        ASSERT_TRUE(cap.waitFor("\"id\":\"hot\""));
        status = service.statusJson();
        service.stop();
    }
    const JsonObject cold = parseJsonObject(coldLine);
    const JsonObject warm = parseJsonObject(cap.resultFor("hot"));
    EXPECT_TRUE(getBool(warm, "cached", false));
    EXPECT_EQ(getInt(warm, "cut", -1), getInt(cold, "cut", -2));
    EXPECT_EQ(getInt(warm, "part_crc", -1), getInt(cold, "part_crc", -2));
    EXPECT_GE(statusInt(status, "cache_persisted_hits"), 1) << status;
}

// Two dispatchers that finish cached jobs at the same moment both persist
// the cache snapshot through the same temp file. Unserialized, one
// rename finds the other's temp file already gone, which degrades the
// service to non-durable mode for no reason.
TEST(ServeDurable, ConcurrentCacheSnapshotsStayDurable) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    const std::string dir = durableDir("snapshots");
    constexpr int kJobs = 240;
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.usePool = true;
    cfg.queueLimit = kJobs;
    cfg.cacheEntries = 512;
    cfg.stateDir = dir;
    std::string status;
    {
        Service service(cfg, cap.sink());
        for (int i = 0; i < kJobs; ++i)
            service.handleLine(tinyJob("snap-" + std::to_string(i),
                                       "\"seed\":" + std::to_string(1000 + i)));
        service.stop();
        status = service.statusJson();
    }
    for (int i = 0; i < kJobs; ++i)
        ASSERT_NE(cap.resultFor("snap-" + std::to_string(i)).find("\"status\":\"OK\""),
                  std::string::npos);
    for (const std::string& l : cap.snapshot())
        EXPECT_EQ(l.find("\"event\":\"warning\""), std::string::npos) << l;
    EXPECT_NE(status.find("\"degraded_nondurable\":false"), std::string::npos) << status;
    ResultCache reloaded(cfg.cacheEntries);
    EXPECT_EQ(reloaded.loadFromFile(dir + "/cache.bin"), kJobs);
}

TEST(ServeDurable, JournalWriteFailureDegradesToNonDurableAndKeepsServing) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    const std::string dir = durableDir("degraded");
    InjectorGuard guard;
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.stateDir = dir;
    Service service(cfg, cap.sink());

    robust::FaultPlan plan;
    plan.site = "fs.*";
    plan.probability = 1.0;
    robust::FaultInjector::instance().arm(plan);
    service.handleLine(tinyJob("under-fault", "\"seed\":51"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"under-fault\""));
    robust::FaultInjector::instance().disarm();

    // The job was answered normally despite every durability write
    // failing; the degradation is warned once and flagged in status.
    EXPECT_NE(cap.resultFor("under-fault").find("\"status\":\"OK\""), std::string::npos);
    EXPECT_TRUE(cap.waitFor("durability degraded"));
    const std::string status = service.statusJson();
    EXPECT_NE(status.find("\"degraded_nondurable\":true"), std::string::npos) << status;
    service.stop();
}

TEST(ServeDurable, UnreadableJournalStartsAnEmptyServiceNotACrash) {
    MLPART_SKIP_NEEDS_LIVE_WORKER();
    const std::string dir = durableDir("eio");
    std::filesystem::create_directories(dir);
    {
        Journal j(dir);
        (void)j.recover();
        ASSERT_TRUE(j.appendAdmit(1, parseJobRequest(tinyJob("lost", ""))).ok());
    }
    InjectorGuard guard;
    robust::FaultPlan plan;
    plan.site = "fs.read.eio";
    plan.fireAtHit = 1; // the journal read; the cache is not configured
    robust::FaultInjector::instance().arm(plan);
    Capture cap;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.stateDir = dir;
    Service service(cfg, cap.sink());
    robust::FaultInjector::instance().disarm();
    // The lost job cannot be recovered (the media ate it) — but the
    // service lives, reports the unreadable journal, and serves new work.
    EXPECT_TRUE(cap.waitFor("\"journal_unreadable\":true"));
    service.handleLine(tinyJob("after-eio", "\"seed\":61"));
    ASSERT_TRUE(cap.waitFor("\"id\":\"after-eio\""));
    EXPECT_NE(cap.resultFor("after-eio").find("\"status\":\"OK\""), std::string::npos);
    service.stop();
}

} // namespace
} // namespace mlpart::serve

#endif // !_WIN32
