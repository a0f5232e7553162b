// The long-lived partitioning service (DESIGN.md §11, §13).
//
// One Service owns a bounded priority queue, N dispatcher threads, the
// WorkerPool with one slot per dispatcher (each dispatcher runs at most
// one fork-isolated worker at a time via superviseJob), and the drain
// state machine. The pool is the only worker path; usePool only chooses
// whether a slot reuses its worker or retires it after every job. Requests enter as NDJSON lines through
// handleLine(); every response leaves through an emit callback as one
// NDJSON line — the transport (stdin/stdout, unix socket) lives in the
// tool, not here, so tests drive the service as a plain object.
//
// Multi-tenancy (§13): each connection registers an emit callback and
// gets an opaque client token; every request carries its client's token
// and every response routes back to exactly that client's emit. A
// disconnected client's queued jobs are dropped, its in-flight jobs are
// auto-cancelled, and any late results are suppressed (counted as
// orphaned) — a dead socket never blocks a dispatcher and never receives
// a write. Client 0 is the implicit stdin client bound to the
// constructor's emit.
//
// Admission control happens before a job touches the queue: an upfront
// MemoryGovernor estimate rejects jobs that obviously cannot fit the
// budget, a per-client in-flight cap rejects a tenant hogging the pool,
// and a full queue sheds the lowest-priority queued job when a strictly
// higher-priority one arrives (otherwise the newcomer bounces). A result
// cache answers repeat (instance, config) requests at admission without
// touching the queue. Draining — by SIGTERM in the tool or an
// {"op":"drain"} request — rejects everything queued and new with
// kRejected, lets in-flight jobs wind down cooperatively, and stop()
// joins once they have.
#pragma once

#if !defined(_WIN32)

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/job.h"
#include "serve/journal.h"
#include "serve/result_cache.h"
#include "serve/supervisor.h"
#include "serve/worker_pool.h"

namespace mlpart::serve {

struct ServiceConfig {
    int workers = 1;           ///< concurrent supervised jobs
    int queueLimit = 16;       ///< queued (not yet dispatched) jobs
    double defaultDeadlineSeconds = 0; ///< for requests without one
    double graceSeconds = 2.0;         ///< watchdog slack past a deadline
    double drainGraceSeconds = 0.5;    ///< drain → SIGTERM delay for in-flight jobs
    int historyLimit = 32;             ///< recent results kept for "status"
    std::uint64_t memLimitBytes = 0;   ///< 0 = unlimited (mirrors --mem-limit)
    bool usePool = false;              ///< reuse workers; false = fresh process per job
    double poolBackoffBaseSeconds = 0.05;
    double poolBackoffCapSeconds = 2.0;
    int cacheEntries = 0;              ///< result-cache budget; 0 disables it
    int perClientInFlight = 0;         ///< queued+active cap per client; 0 = unlimited
    /// Durable serve state (DESIGN.md §16): a directory holding the
    /// write-ahead job journal (journal.wal) and the persisted result
    /// cache (cache.bin). Empty disables durability entirely. On
    /// construction the journal is recovered: completed jobs are
    /// re-emitted (never re-executed), unfinished admitted jobs are
    /// re-enqueued with their original priority and seq — the
    /// deterministic engine makes the replay bit-identical.
    std::string stateDir;
};

class Service {
public:
    /// `emit` receives every response line (no trailing newline); it is
    /// called under an internal mutex, one whole line at a time, from
    /// both the request thread and the dispatcher threads.
    using Emit = std::function<void(const std::string& line)>;

    Service(ServiceConfig cfg, Emit emit);
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Parses and dispatches one request line for client 0 (stdin mode).
    /// Malformed lines and rejected jobs are answered with an error/result
    /// line; this never throws on bad input.
    void handleLine(const std::string& line);

    /// Same, on behalf of a registered client; every response the line
    /// provokes — now or when its job finishes — routes to that client's
    /// emit.
    void handleLine(const std::string& line, std::uint64_t client);

    /// Registers a connection's emit callback; returns its client token
    /// (never 0). Responses for this client's requests go only to `emit`.
    [[nodiscard]] std::uint64_t registerClient(Emit emit);

    /// Severs a client: queued jobs are dropped, in-flight jobs are
    /// auto-cancelled (the worker winds down; the result is suppressed
    /// and counted orphaned), and the emit callback is released. Safe to
    /// call for an unknown/already-severed token.
    void disconnectClient(std::uint64_t client);

    /// Begins a graceful drain: queued jobs are rejected now, new jobs at
    /// arrival, in-flight jobs get drainGraceSeconds before their worker
    /// is asked (SIGTERM) to emit best-so-far and checkpoint. Idempotent.
    void drain();

    /// Stops accepting and joins every dispatcher. Without a prior
    /// drain() the queue is *finished*, not rejected — the EOF path: no
    /// more requests are coming, but the accepted ones still owe a
    /// response. After stop() the service accepts nothing. Idempotent.
    void stop();

    [[nodiscard]] bool draining() const;
    [[nodiscard]] int completedJobs() const;

    /// True when `client` has no queued or in-flight jobs — the front end
    /// uses this to finish a half-closed connection only after every
    /// response the client is owed has been produced.
    [[nodiscard]] bool clientIdle(std::uint64_t client) const;

    /// The "status" response body (also emitted for {"op":"status"}).
    [[nodiscard]] std::string statusJson();

    /// Upfront per-start byte estimate for admission control: peeks the
    /// .hgr header (inline or on disk) for module/net counts, estimates
    /// pins from the byte size, and defers to MemoryGovernor. Returns 0
    /// (admit; the worker will classify properly) when the instance
    /// cannot be peeked. Exposed for tests.
    [[nodiscard]] static std::uint64_t estimateJobBytes(const JobRequest& req);

private:
    struct Queued {
        JobRequest req;
        std::int64_t seq = 0;
        std::int64_t enqueuedNs = 0;
        std::uint64_t client = 0;
        std::uint64_t fingerprint = 0; ///< cache key; 0 = uncacheable
        /// Per-job cancel channel, created at admission so a cancel can
        /// land atomically whether the job is still queued or already
        /// dispatched (both transitions happen under mu_).
        std::shared_ptr<std::atomic<bool>> cancel;
    };
    struct InFlight {
        std::shared_ptr<std::atomic<bool>> cancel;
        std::uint64_t client = 0;
    };
    void dispatcherLoop(int slot);
    /// `forcedSeq` >= 0 re-admits a journal-recovered job under its
    /// original seq (so a crash during recovery cannot double-execute
    /// it); -1 = fresh admission.
    void admit(JobRequest req, std::uint64_t client, std::int64_t forcedSeq = -1);
    /// One-time durability degradation warning ({"event":"warning"}) +
    /// status flag; the service itself keeps serving.
    void noteDurabilityFailure(const robust::Status& st);
    /// Persists the result cache to the state dir (after insertions).
    void persistCache();
    /// Resolves a cancel request; returns "queued" / "inflight" /
    /// "unknown" for the cancel acknowledgement. Client-scoped: a tenant
    /// can only cancel its own jobs.
    [[nodiscard]] std::string cancelJob(const std::string& id, std::uint64_t client);
    void emitTo(std::uint64_t client, const std::string& line);
    void emitRejected(const JobRequest& req, std::uint64_t client, const std::string& why,
                      robust::StatusCode code = robust::StatusCode::kRejected);
    [[nodiscard]] std::size_t lowestPriorityIndex() const; ///< caller holds mu_
    void recordResult(JobResult r); ///< caller holds mu_: appends to history_
    void decrementLoadLocked(std::uint64_t client); ///< caller holds mu_

    ServiceConfig cfg_;
    Emit emit_; ///< client 0 (stdin mode)
    std::mutex emitMu_;
    std::unordered_map<std::uint64_t, Emit> clients_; ///< guarded by emitMu_

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Queued> queue_;
    std::unordered_map<std::string, InFlight> inflight_; ///< key: "<client>:<id>"
    std::unordered_map<std::uint64_t, int> clientLoad_;  ///< queued + active per client
    std::deque<JobResult> history_;
    std::vector<std::thread> dispatchers_;
    WorkerPool pool_; ///< slot i belongs to dispatcher i
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<Journal> journal_;
    std::string cachePath_;            ///< "" = cache persistence disabled
    std::mutex persistMu_;             ///< one cache snapshot writer at a time
    std::int64_t journalReplayed_ = 0; ///< jobs re-enqueued at recovery (mu_)
    std::int64_t replayedResults_ = 0; ///< completed results re-emitted (mu_)
    std::atomic<bool> durabilityLost_{false}; ///< any durability write failed
    std::atomic<bool> durabilityWarned_{false};
    DrainState drainState_;
    std::int64_t nextSeq_ = 0;
    std::uint64_t nextClient_ = 1;
    int active_ = 0;
    int completed_ = 0;
    int rejected_ = 0;
    int shed_ = 0;
    int cancelled_ = 0;
    std::atomic<std::int64_t> orphaned_{0}; ///< results suppressed for dead clients
    bool draining_ = false;
    bool stopping_ = false;
    bool stopped_ = false;
};

} // namespace mlpart::serve

#endif // !_WIN32
