#include "serve/job.h"

#include <cstring>
#include <filesystem>
#include <set>

#include "comparators/comparators.h"
#include "core/multilevel.h" // kParallelVCycleRevision
#include "core/parallel_multistart.h" // defaultEngine, engineFingerprintSalt
#include "robust/checkpoint.h" // crc32, hashCombine
#include "robust/wire.h"

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::StatusCode;

// v2 appended a flag byte for the retired portfolio evaluation report.
// Journal Done records and cache.bin entries embed the outcome, so those
// written by older binaries must still load: the version stays 2 and the
// flag stays, always 0. Any other version, or a set flag, is a parse error.
constexpr std::uint32_t kOutcomeVersion = 2;
constexpr std::uint32_t kRequestVersion = 1;

/// Instance files above this size are never fingerprinted (and therefore
/// never cached): hashing them at admission would stall the front end.
constexpr std::uint64_t kMaxFingerprintBytes = 64ull << 20;

[[noreturn]] void badRequest(const std::string& message) {
    throw Error(StatusCode::kUsage, "job: " + message);
}

} // namespace

JobRequest parseJobRequest(const std::string& line) {
    const JsonObject o = parseJsonObject(line);

    // Reject unknown keys loudly: a typo'd "prioritty" silently defaulting
    // to 0 is exactly the kind of bug a service protocol must not have.
    static const std::set<std::string> kKnown = {
        "op",       "id",      "instance", "hgr",     "k",        "tolerance",
        "ratio",    "engine",  "runs",     "threads", "seed",     "deadline",
        "priority", "checkpoint", "resume", "out",    "fault",    "fault_attempts",
        "vcycle_threads",
    };
    for (const auto& [key, value] : o)
        if (kKnown.count(key) == 0) badRequest("unknown field \"" + key + "\"");

    JobRequest r;
    const std::string op = getString(o, "op", "partition");
    if (op == "partition") r.op = JobOp::kPartition;
    else if (op == "status") r.op = JobOp::kStatus;
    else if (op == "drain") r.op = JobOp::kDrain;
    else if (op == "cancel") r.op = JobOp::kCancel;
    else badRequest("unknown op \"" + op + "\" (want partition/status/drain/cancel)");

    r.id = getString(o, "id", "");
    if (r.op == JobOp::kCancel && r.id.empty())
        badRequest("cancel requires the \"id\" of the job to cancel");
    if (r.op != JobOp::kPartition) return r;

    r.instance = getString(o, "instance", "");
    r.inlineHgr = getString(o, "hgr", "");
    if (r.instance.empty() == r.inlineHgr.empty())
        badRequest("exactly one of \"instance\" (path) or \"hgr\" (inline) is required");

    r.k = static_cast<std::int32_t>(getInt(o, "k", 2));
    r.tolerance = getNumber(o, "tolerance", 0.1);
    r.matchingRatio = getNumber(o, "ratio", 0.5);
    r.engine = getString(o, "engine", defaultEngine(r.k));
    r.runs = static_cast<std::int32_t>(getInt(o, "runs", 4));
    r.threads = static_cast<std::int32_t>(getInt(o, "threads", 1));
    r.vcycleThreads = static_cast<std::int32_t>(getInt(o, "vcycle_threads", 0));
    r.seed = static_cast<std::uint64_t>(getInt(o, "seed", 1));
    r.deadlineSeconds = getNumber(o, "deadline", 0.0);
    r.priority = static_cast<std::int32_t>(getInt(o, "priority", 0));
    r.checkpointPath = getString(o, "checkpoint", "");
    r.resume = getBool(o, "resume", false);
    r.outPath = getString(o, "out", "");
    r.faultSpec = getString(o, "fault", "");
    r.faultAttempts = static_cast<std::int32_t>(getInt(o, "fault_attempts", 1 << 30));

    if (r.k < 2) badRequest("k must be >= 2");
    if (r.runs < 1) badRequest("runs must be >= 1");
    if (r.threads < 1) badRequest("threads must be >= 1");
    if (r.vcycleThreads < 0 || r.vcycleThreads > 512)
        badRequest("vcycle_threads must be in [0, 512]");
    if (r.tolerance < 0 || r.tolerance >= 1) badRequest("tolerance must be in [0, 1)");
    if (r.matchingRatio <= 0 || r.matchingRatio > 1) badRequest("ratio must be in (0, 1]");
    if (r.deadlineSeconds < 0) badRequest("deadline must be >= 0");
    if (r.engine != "fm" && r.engine != "clip" && r.engine != "auto" && !isComparator(r.engine))
        badRequest("engine must be fm, clip, auto, two_phase, lsmc, spectral or genetic");
    if (r.resume && r.checkpointPath.empty()) badRequest("resume requires checkpoint");
    // Checkpoints snapshot multi-start progress; a comparator runs once
    // and has nothing to resume.
    if (isComparator(r.engine) && !r.checkpointPath.empty())
        badRequest("checkpoint requires engine fm, clip or auto");
    return r;
}

std::string resolvedEngine(const JobRequest& r) {
    return r.engine.empty() || r.engine == "auto" ? defaultEngine(r.k) : r.engine;
}

std::vector<std::uint8_t> encodeJobOutcome(const JobOutcome& o) {
    robust::WireWriter w;
    w.u32(kOutcomeVersion);
    w.u8(static_cast<std::uint8_t>(o.status.code));
    w.str(o.status.message);
    w.i64(o.cut);
    w.i32(o.runsOk);
    w.i32(o.runsRetried);
    w.i32(o.runsFailed);
    w.i32(o.runsSkipped);
    w.f64(o.seconds);
    w.u32(o.partitionCrc);
    w.u8(o.deadlineHit ? 1 : 0);
    w.u8(o.checkpointSaved ? 1 : 0);
    w.u8(0); // no evaluation report
    return std::move(w.bytes);
}

JobOutcome decodeJobOutcome(const std::uint8_t* data, std::size_t size) {
    robust::WireReader in{data, size};
    const std::uint32_t version = in.u32();
    if (version != kOutcomeVersion)
        throw Error(StatusCode::kParseError,
                    "job outcome: unsupported version " + std::to_string(version));
    JobOutcome o;
    o.status.code = in.enumU8(robust::kMaxStatusCode, "job outcome: invalid status code");
    o.status.message = in.str();
    o.cut = in.i64();
    o.runsOk = in.i32();
    o.runsRetried = in.i32();
    o.runsFailed = in.i32();
    o.runsSkipped = in.i32();
    o.seconds = in.f64();
    o.partitionCrc = in.u32();
    o.deadlineHit = in.u8() != 0;
    o.checkpointSaved = in.u8() != 0;
    if (in.u8() != 0)
        throw Error(StatusCode::kParseError, "job outcome: portfolio evaluation report");
    if (in.remaining() != 0)
        throw Error(StatusCode::kParseError, "job outcome: trailing bytes");
    return o;
}

std::vector<std::uint8_t> encodeJobRequest(const JobRequest& r, std::int32_t attempt) {
    robust::WireWriter w;
    w.u32(kRequestVersion);
    w.i32(attempt);
    w.str(r.id);
    w.str(r.instance);
    w.str(r.inlineHgr);
    w.i32(r.k);
    w.f64(r.tolerance);
    w.f64(r.matchingRatio);
    w.str(r.engine);
    w.i32(r.runs);
    w.i32(r.threads);
    w.i32(r.vcycleThreads);
    w.u64(r.seed);
    w.f64(r.deadlineSeconds);
    w.i32(r.priority);
    w.str(r.checkpointPath);
    w.u8(r.resume ? 1 : 0);
    w.str(r.outPath);
    w.str(r.faultSpec);
    w.i32(r.faultAttempts);
    return std::move(w.bytes);
}

JobRequest decodeJobRequest(const std::uint8_t* data, std::size_t size,
                            std::int32_t& attempt) {
    robust::WireReader in{data, size};
    const std::uint32_t version = in.u32();
    if (version != kRequestVersion)
        throw Error(StatusCode::kParseError,
                    "job request: unsupported version " + std::to_string(version));
    JobRequest r;
    attempt = in.i32();
    r.id = in.str();
    r.instance = in.str();
    r.inlineHgr = in.str();
    r.k = in.i32();
    r.tolerance = in.f64();
    r.matchingRatio = in.f64();
    r.engine = in.str();
    r.runs = in.i32();
    r.threads = in.i32();
    r.vcycleThreads = in.i32();
    r.seed = in.u64();
    r.deadlineSeconds = in.f64();
    r.priority = in.i32();
    r.checkpointPath = in.str();
    r.resume = in.u8() != 0;
    r.outPath = in.str();
    r.faultSpec = in.str();
    r.faultAttempts = in.i32();
    if (in.remaining() != 0)
        throw Error(StatusCode::kParseError, "job request: trailing bytes");
    return r;
}

bool cacheableRequest(const JobRequest& r) {
    return r.op == JobOp::kPartition && r.faultSpec.empty() &&
           r.checkpointPath.empty() && !r.resume && r.outPath.empty();
}

std::uint64_t requestFingerprint(const JobRequest& r) {
    using robust::hashCombine;
    // Content fingerprint of the instance: raw bytes, never a parse — the
    // front end must not interpret hostile input in the supervisor.
    std::uint64_t content = 0;
    if (!r.inlineHgr.empty()) {
        content = hashCombine(
            robust::crc32(r.inlineHgr.data(), r.inlineHgr.size()),
            static_cast<std::uint64_t>(r.inlineHgr.size()));
    } else {
        std::error_code ec;
        const auto size = std::filesystem::file_size(std::filesystem::path(r.instance), ec);
        if (ec || size == 0 || size > kMaxFingerprintBytes) return 0;
        std::vector<std::uint8_t> bytes;
        try {
            bytes = robust::readFileBytes(r.instance);
        } catch (const Error&) {
            return 0;
        }
        content = hashCombine(robust::crc32(bytes.data(), bytes.size()),
                              static_cast<std::uint64_t>(bytes.size()));
    }
    std::uint64_t f = content == 0 ? 1 : content;
    f = hashCombine(f, static_cast<std::uint64_t>(r.k));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &r.tolerance, sizeof(bits));
    f = hashCombine(f, bits);
    std::memcpy(&bits, &r.matchingRatio, sizeof(bits));
    f = hashCombine(f, bits);
    f = hashCombine(f, engineFingerprintSalt(resolvedEngine(r), r.k));
    f = hashCombine(f, static_cast<std::uint64_t>(r.runs));
    f = hashCombine(f, r.seed);
    // Parallel-mode marker only: results are bit-identical for every
    // vcycle thread count >= 1, so the count itself must not split keys.
    // Serial keeps 0; parallel folds the algorithm revision (the bare
    // marker 1 was revision 1), so entries of older revisions go stale.
    f = hashCombine(f, r.vcycleThreads > 0 ? kParallelVCycleRevision : 0u);
    return f == 0 ? 1 : f;
}

std::string jobResultJson(const JobResult& r) {
    JsonWriter w;
    w.field("event", "result")
        .field("id", r.id)
        .field("status", robust::statusCodeName(r.outcome.status.code))
        .field("exit", robust::exitCodeFor(r.outcome.status.code))
        .field("ok", r.outcome.status.ok())
        .field("cut", r.outcome.cut)
        .field("attempts", r.attempts)
        .field("crashes", r.crashes)
        .field("retried", r.retried)
        .field("cached", r.cached)
        .field("replayed", r.replayed)
        .field("watchdog_killed", r.watchdogKilled)
        .field("runs_ok", r.outcome.runsOk)
        .field("runs_retried", r.outcome.runsRetried)
        .field("runs_failed", r.outcome.runsFailed)
        .field("runs_skipped", r.outcome.runsSkipped)
        .field("deadline_hit", r.outcome.deadlineHit)
        .field("checkpoint_saved", r.outcome.checkpointSaved)
        .field("part_crc", static_cast<std::int64_t>(r.outcome.partitionCrc))
        .field("seconds", r.outcome.seconds)
        .field("queue_seconds", r.queueSeconds);
    if (!r.outcome.status.message.empty()) w.field("message", r.outcome.status.message);
    return w.str();
}

std::string jobSummaryJson(const JobResult& r) {
    JsonWriter w;
    w.field("id", r.id)
        .field("status", robust::statusCodeName(r.outcome.status.code))
        .field("cut", r.outcome.cut)
        .field("attempts", r.attempts)
        .field("crashes", r.crashes)
        .field("runs_ok", r.outcome.runsOk)
        .field("runs_failed", r.outcome.runsFailed);
    return w.str();
}

} // namespace mlpart::serve
