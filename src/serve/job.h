// Job schema of the partitioning service (DESIGN.md §11).
//
// A JobRequest arrives as one NDJSON line ({"op":"partition", ...}); the
// service answers every accepted or rejected job with exactly one
// JobResult line — the one-request/one-response invariant the soak test
// counts on. Between the two sits the process boundary: the supervised
// worker serializes a JobOutcome (the part computed inside the fork) over
// a CRC-framed pipe (robust/wire.h), and the supervisor merges it with
// what only it can know (attempts, crashes, watchdog kills) into the
// final JobResult.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robust/status.h"
#include "serve/json.h"

namespace mlpart::serve {

/// Request operations. Anything else on the wire is rejected per line.
enum class JobOp {
    kPartition, ///< run a supervised partitioning job
    kStatus,    ///< report queue depth, governor headroom, recent jobs
    kDrain,     ///< same as SIGTERM: finish in-flight, reject queued + new
    kCancel,    ///< drop a queued job / wind down an in-flight one by id
};

struct JobRequest {
    JobOp op = JobOp::kPartition;
    std::string id;          ///< caller's correlation id (assigned when empty)
    std::string instance;    ///< netlist path (.hgr/.bench/.netD) …
    std::string inlineHgr;   ///< … or inline .hgr text ("hgr" field)
    std::int32_t k = 2;
    double tolerance = 0.1;
    double matchingRatio = 0.5;
    /// "fm" | "clip" run the ML multi-start; "auto" runs the default ML
    /// engine for k; "two_phase", "lsmc", "spectral" (k = 2 only) and
    /// "genetic" run one of the paper's comparators (DESIGN.md §15).
    /// Empty = unset. The fingerprint and the worker read
    /// resolvedEngine(), which maps unset and "auto" to defaultEngine(k)
    /// ("clip" at k = 2, "fm" at k > 2); parseJobRequest stores that
    /// choice for an omitted "engine".
    std::string engine;
    std::int32_t runs = 4;
    std::int32_t threads = 1;    ///< worker-internal multi-start threads
    /// Deterministic parallel V-cycle threads per start (MLConfig::
    /// vcycleThreads): 0 = serial mode (the paper's Match), >= 1 =
    /// proposal matching, bit-identical for every value.
    std::int32_t vcycleThreads = 0;
    std::uint64_t seed = 1;
    double deadlineSeconds = 0;  ///< per-attempt budget; 0 = service default
    std::int32_t priority = 0;   ///< higher = more urgent (shed order)
    std::string checkpointPath;  ///< PR 4 checkpoint file; "" disables
    bool resume = false;         ///< resume from checkpointPath when present
    std::string outPath;         ///< write the best partition here ("" = don't)
    /// Deterministic per-job fault spec (MLPART_FAULT_INJECTION syntax),
    /// armed inside the worker fork only — the containment tests' handle.
    std::string faultSpec;
    /// Attempts on which faultSpec is armed: attempt index < faultAttempts.
    /// 1 = first attempt only (retry then succeeds); big = every attempt.
    std::int32_t faultAttempts = 1 << 30;
};

/// Parses one request line. Throws robust::Error(kParseError/kUsage) on
/// malformed JSON, unknown op, unknown keys, or out-of-range values.
[[nodiscard]] JobRequest parseJobRequest(const std::string& line);

/// The engine a request runs: `r.engine`, or defaultEngine(r.k) when it
/// is unset or "auto".
[[nodiscard]] std::string resolvedEngine(const JobRequest& r);

/// What the worker computes inside the fork — everything the parent
/// cannot reconstruct from the exit status.
struct JobOutcome {
    robust::Status status;        ///< job-level classification
    std::int64_t cut = -1;
    std::int32_t runsOk = 0;
    std::int32_t runsRetried = 0; ///< starts that needed an in-worker retry
    std::int32_t runsFailed = 0;
    std::int32_t runsSkipped = 0;
    double seconds = 0;
    /// CRC32 of the encoded best partition: lets tests assert bit-identical
    /// results across worker counts without shipping the blob itself.
    std::uint32_t partitionCrc = 0;
    bool deadlineHit = false;
    bool checkpointSaved = false;
};

/// Codec for JobOutcome: the worker pipe frames it (robust/wire.h), and
/// journal Done records and persisted result-cache entries embed it.
[[nodiscard]] std::vector<std::uint8_t> encodeJobOutcome(const JobOutcome& o);
/// Throws robust::Error(kParseError) on damage the frame CRC cannot see
/// (version-skewed or truncated payload) and on an outcome that carries a
/// portfolio evaluation report, which only older binaries wrote.
[[nodiscard]] JobOutcome decodeJobOutcome(const std::uint8_t* data, std::size_t size);

/// Pipe codec for dispatching a job (plus its attempt index, which drives
/// the retry reseed and fault-spec arming) to a pre-forked pool worker.
/// Framed by robust/wire.h exactly like the outcome on the way back.
[[nodiscard]] std::vector<std::uint8_t> encodeJobRequest(const JobRequest& r,
                                                         std::int32_t attempt);
/// Throws robust::Error(kParseError) on version skew or truncation.
[[nodiscard]] JobRequest decodeJobRequest(const std::uint8_t* data, std::size_t size,
                                          std::int32_t& attempt);

/// True when a request's result may be served from / inserted into the
/// result cache: a plain partition job with no side effects (checkpoint,
/// resume, out file) and no armed fault spec.
[[nodiscard]] bool cacheableRequest(const JobRequest& r);

/// Result-cache key: folds a content fingerprint of the instance (inline
/// text, or the raw bytes of the on-disk file) with every knob that
/// determines the result — k, tolerance, ratio, engine (as
/// engineFingerprintSalt, which carries the bisection engine's revision
/// for k = 2 and the k-way engine's for k > 2), runs, seed, and the
/// parallel-V-cycle mode marker
/// (vcycle_threads > 0, never the thread count: results are bit-identical
/// for every count >= 1), which is the parallel algorithms' revision
/// (kParallelVCycleRevision). Returns 0 when
/// the request cannot be fingerprinted (missing or oversized instance
/// file) — callers must treat 0 as "never cache".
[[nodiscard]] std::uint64_t requestFingerprint(const JobRequest& r);

/// Final per-job record: outcome + supervision history. One NDJSON line.
struct JobResult {
    std::string id;
    JobOutcome outcome;
    std::int32_t attempts = 0;  ///< worker processes spawned for this job
    std::int32_t crashes = 0;   ///< of those, died on a signal / torn frame
    bool watchdogKilled = false;
    bool retried = false;       ///< a reseeded second worker produced the result
    bool cached = false;        ///< answered from the result cache, no worker ran
    /// Re-emitted from the write-ahead journal after a restart: the job
    /// completed before the crash and was NOT re-executed (DESIGN.md §16).
    bool replayed = false;
    double queueSeconds = 0;    ///< admission → dispatch latency
};

/// Renders the one-line NDJSON response ({"event":"result", ...}).
[[nodiscard]] std::string jobResultJson(const JobResult& r);

/// Renders a compact summary object for the status endpoint's jobs array.
[[nodiscard]] std::string jobSummaryJson(const JobResult& r);

} // namespace mlpart::serve
