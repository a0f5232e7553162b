// Retry and cancel policy over the worker pool (DESIGN.md §11, §13).
//
// superviseJob() runs one job on a WorkerPool slot and absorbs every way
// the worker can die: clean exit with a framed result, SIGSEGV mid-run, a
// torn final write, an infinite loop. The pool owns the one worker path —
// spawn, the watchdog / drain / cancel loop, reaping and classification
// through the Status taxonomy. This layer decides what happens next: it
// retries retryable failures exactly once with a derived reseed, resolves
// the cancel/complete race, and always returns a JobResult — a supervisor
// never throws because of anything a worker did.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "serve/job.h"

#if !defined(_WIN32)

namespace mlpart::serve {

struct SupervisorConfig {
    /// Seconds past the job's cooperative deadline before the watchdog
    /// SIGKILLs the worker. The deadline is the worker's chance to wind
    /// down and emit best-so-far; the grace is how long the supervisor
    /// believes it.
    double graceSeconds = 2.0;
    /// Applied when a request carries no deadline of its own. 0 = no
    /// watchdog for deadline-less jobs (drain still bounds them).
    double defaultDeadlineSeconds = 0.0;
    /// Worker processes per job: 1 + retries. 2 = the retry-once policy.
    int maxAttempts = 2;
};

/// Steady-clock nanoseconds: the time base of DrainState, the watchdog
/// and the service's queue timings.
[[nodiscard]] inline std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Drain coordination between the service and every in-flight supervisor.
/// When `draining` flips, each supervisor SIGTERMs its worker once
/// `softKillAtNs` (steady-clock) passes — the cooperative wind-down — and
/// hard-kills `graceSeconds` later if the worker still won't exit.
struct DrainState {
    std::atomic<bool> draining{false};
    std::atomic<std::int64_t> softKillAtNs{0};
};

/// One supervised worker execution (WorkerPool::runAttempt), before the
/// retry policy is applied.
struct Attempt {
    JobOutcome outcome;
    bool crashed = false;       ///< signal death / torn frame (not watchdog)
    bool watchdogKilled = false;
};

class WorkerPool;

/// Runs `req` on pool slot `slot` under supervision. `drain` may be null
/// (no drain channel). A non-null `cancel` flag is the per-job
/// cancellation channel: when it flips, the worker is SIGTERMed once
/// (cooperative wind-down, same as a drain), hard-killed after the grace,
/// never retried, and every non-OK outcome is reclassified kCancelled — a
/// completed OK result stands, so the cancel/complete race is
/// deterministic either way. Every failure mode comes back as a
/// classified JobResult.
[[nodiscard]] JobResult superviseJob(const JobRequest& req, const SupervisorConfig& cfg,
                                     WorkerPool& pool, int slot,
                                     const DrainState* drain = nullptr,
                                     const std::atomic<bool>* cancel = nullptr);

/// Retry policy: true for failures where a fresh worker with a reseeded
/// RNG has a chance (crash, torn frame, injected fault, OOM, all starts
/// failed); false where it provably does not (usage, parse, infeasible)
/// or where the first result must stand (ok, deadline, interrupted).
[[nodiscard]] bool isRetryableJobFailure(robust::StatusCode code);

/// The reseed for attempt `attempt` (attempt 0 keeps the request's seed).
[[nodiscard]] std::uint64_t reseedForAttempt(std::uint64_t seed, int attempt);

} // namespace mlpart::serve

#endif // !_WIN32
