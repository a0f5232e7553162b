// The worker pool: the one way a job reaches a worker process (DESIGN.md
// §11, §13).
//
// Each slot owns at most one forked child that serves framed JobRequests
// from a pipe and answers each with one CRC-framed JobOutcome. A slot
// either reuses its worker for the next job (`--pool`) or retires it
// after every job — the parent closes the job pipe once the outcome frame
// is in, the worker exits on that EOF, and the parent reaps it — so
// every job gets a fresh process. A worker that crashes, tears a frame,
// violates the protocol, or is watchdog-killed is reaped and respawned on
// the next job — with per-slot crash accounting and exponential backoff
// on a flapping worker, so a poisoned pool degrades into slow retries
// instead of a fork bomb. A planned retirement is neither a crash nor a
// respawn.
//
// Threading contract: slot i is driven by exactly one dispatcher thread
// at a time (the service pins dispatcher i to slot i); stats() may be
// called from any thread.
#pragma once

#if !defined(_WIN32)

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

#include "serve/job.h"
#include "serve/supervisor.h"

namespace mlpart::serve {

struct WorkerPoolConfig {
    int slots = 1;
    /// First respawn delay after a worker death; doubles per consecutive
    /// failure up to backoffCapSeconds, resets on any served job.
    double backoffBaseSeconds = 0.05;
    double backoffCapSeconds = 2.0;
    /// Retire each worker after one job, so every job runs in a fresh
    /// process; false reuses a healthy worker for the slot's next job.
    bool retireAfterJob = false;
};

/// Snapshot of one slot for {"op":"status"} — soak assertions read these
/// instead of scraping logs.
struct WorkerSlotStats {
    std::int64_t jobsServed = 0;
    std::int64_t crashes = 0;   ///< worker deaths while this slot owned a job
    std::int64_t respawns = 0;  ///< fresh processes forked to replace a dead worker
    int consecutiveFailures = 0;
    bool backoffActive = false; ///< a respawn is currently being delayed
    bool alive = false;
};

class WorkerPool {
public:
    explicit WorkerPool(WorkerPoolConfig cfg);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Dispatches one job attempt to slot `slot`, spawning or respawning
    /// the worker as needed (honouring the slot's backoff). Runs the
    /// watchdog / drain / cancel loop and classifies every worker failure
    /// mode into the returned Attempt, in the precedence valid frame >
    /// watchdog kill > signal > exit code. Throws only for parent-side
    /// spawn failures (classified retryable by the caller).
    [[nodiscard]] Attempt runAttempt(int slot, const JobRequest& req, int attempt,
                                     const SupervisorConfig& cfg, const DrainState* drain,
                                     const std::atomic<bool>* cancel);

    /// Closes every job pipe (workers exit on EOF), reaps with a bounded
    /// wait, SIGKILLs stragglers. Idempotent; the destructor calls it.
    void shutdown();

    [[nodiscard]] int slots() const { return static_cast<int>(slots_.size()); }
    [[nodiscard]] std::vector<WorkerSlotStats> stats() const;
    [[nodiscard]] std::int64_t respawnTotal() const;

private:
    struct Slot {
        pid_t pid = -1;
        int jobFd = -1;    ///< parent writes framed requests
        int resultFd = -1; ///< parent reads framed outcomes
        std::int64_t jobsServed = 0;
        std::int64_t crashes = 0;
        std::int64_t respawns = 0;
        int consecutiveFailures = 0;
        std::int64_t backoffUntilNs = 0;
        bool backoffActive = false;
        bool replacingDead = false; ///< the next spawn is a respawn
    };

    void spawn(Slot& s); ///< throws Error on failure
    /// Closes the job pipe (a live worker exits on that EOF), reaps the
    /// worker and closes the result pipe. Returns the wait status (0 when
    /// the pid was already gone).
    int reap(Slot& s);
    void noteFailure(Slot& s); ///< crash accounting + backoff scheduling
    void waitOutBackoff(Slot& s);

    WorkerPoolConfig cfg_;
    std::vector<Slot> slots_;
    /// Serializes spawn/teardown so a child forked by one dispatcher can
    /// close every *other* slot's pipe fds (a sibling holding a stray
    /// write end would keep that sibling's job pipe from ever reaching
    /// EOF at shutdown). Also guards the counters stats() reads.
    mutable std::mutex mu_;
    bool shutdown_ = false;
};

} // namespace mlpart::serve

#endif // !_WIN32
