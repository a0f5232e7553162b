#include "serve/worker_pool.h"

#if !defined(_WIN32)

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <thread>

#include "robust/fault_injector.h"
#include "robust/wire.h"
#include "serve/worker.h"

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::StatusCode;

constexpr std::int64_t kNoKill = std::int64_t{1} << 62;

/// Outcome frames are a status message plus scalars; anything bigger than
/// this on the result pipe is a protocol violation, not a result.
constexpr std::uint64_t kMaxOutcomeFrameBytes = 1ull << 20;

} // namespace

WorkerPool::WorkerPool(WorkerPoolConfig cfg) : cfg_(cfg) {
    if (cfg_.slots < 1) cfg_.slots = 1;
    if (cfg_.backoffBaseSeconds <= 0) cfg_.backoffBaseSeconds = 0.05;
    if (cfg_.backoffCapSeconds < cfg_.backoffBaseSeconds)
        cfg_.backoffCapSeconds = cfg_.backoffBaseSeconds;
    slots_.resize(static_cast<std::size_t>(cfg_.slots));
    // Writing a job to a worker that just died must surface as EPIPE from
    // writeFull, never a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::spawn(Slot& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_)
        throw Error(StatusCode::kInternal, "worker pool: spawn after shutdown");

    MLPART_FAULT_SITE("serve.fork"); // injected spawn failure

    int toChild[2] = {-1, -1};
    int fromChild[2] = {-1, -1};
    if (pipe(toChild) != 0)
        throw Error(StatusCode::kInternal,
                    std::string("worker pool: pipe: ") + std::strerror(errno));
    if (pipe(fromChild) != 0) {
        const int err = errno;
        close(toChild[0]);
        close(toChild[1]);
        throw Error(StatusCode::kInternal,
                    std::string("worker pool: pipe: ") + std::strerror(err));
    }

    const pid_t pid = fork();
    if (pid < 0) {
        const int err = errno;
        close(toChild[0]);
        close(toChild[1]);
        close(fromChild[0]);
        close(fromChild[1]);
        throw Error(StatusCode::kInternal,
                    std::string("worker pool: fork: ") + std::strerror(err));
    }
    if (pid == 0) {
        // A long-lived worker must hold exactly its own pipe ends: a stray
        // sibling pipe fd would block that slot's shutdown EOF, and a stray
        // client socket would keep the peer from ever seeing the front
        // end's close. closeInheritedFds drops everything else, including
        // the listen socket and the poll loop's self-pipe.
        closeInheritedFds({toChild[0], fromChild[1]});
        workerPoolMain(toChild[0], fromChild[1]); // never returns
    }
    close(toChild[0]);
    close(fromChild[1]);
    s.pid = pid;
    s.jobFd = toChild[1];
    s.resultFd = fromChild[0];
    if (s.replacingDead) ++s.respawns;
    s.replacingDead = false;
}

int WorkerPool::reap(Slot& s) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.jobFd >= 0) close(s.jobFd);
        s.jobFd = -1;
    }
    int wstatus = 0;
    if (s.pid >= 0)
        while (waitpid(s.pid, &wstatus, 0) < 0 && errno == EINTR) {}
    std::lock_guard<std::mutex> lock(mu_);
    if (s.resultFd >= 0) close(s.resultFd);
    s.resultFd = -1;
    s.pid = -1;
    return wstatus;
}

void WorkerPool::noteFailure(Slot& s) {
    std::lock_guard<std::mutex> lock(mu_);
    ++s.crashes;
    ++s.consecutiveFailures;
    s.replacingDead = true;
    const double backoff =
        std::min(cfg_.backoffCapSeconds,
                 cfg_.backoffBaseSeconds *
                     std::ldexp(1.0, std::min(s.consecutiveFailures - 1, 20)));
    s.backoffUntilNs = nowNs() + static_cast<std::int64_t>(backoff * 1e9);
    s.backoffActive = true;
}

void WorkerPool::waitOutBackoff(Slot& s) {
    for (;;) {
        std::int64_t until;
        {
            std::lock_guard<std::mutex> lock(mu_);
            until = s.backoffUntilNs;
        }
        const std::int64_t now = nowNs();
        if (now >= until) break;
        const std::int64_t sliceNs =
            std::min<std::int64_t>(until - now, 20'000'000);
        std::this_thread::sleep_for(std::chrono::nanoseconds(sliceNs));
    }
    std::lock_guard<std::mutex> lock(mu_);
    s.backoffActive = false;
}

Attempt WorkerPool::runAttempt(int slot, const JobRequest& req, int attempt,
                               const SupervisorConfig& cfg, const DrainState* drain,
                               const std::atomic<bool>* cancel) {
    Slot& s = slots_.at(static_cast<std::size_t>(slot));
    Attempt a;

    waitOutBackoff(s);
    if (s.pid < 0) spawn(s);

    // Ship the job. A failed write means the worker died since its last
    // job (EPIPE on a closed read end): recycle once and retry with a
    // fresh process before giving up on this attempt.
    const std::vector<std::uint8_t> jobFrame =
        robust::buildFrame(encodeJobRequest(req, attempt));
    if (!robust::writeFull(s.jobFd, jobFrame.data(), jobFrame.size()).ok()) {
        (void)reap(s);
        noteFailure(s);
        waitOutBackoff(s);
        spawn(s);
        if (!robust::writeFull(s.jobFd, jobFrame.data(), jobFrame.size()).ok()) {
            (void)reap(s);
            noteFailure(s);
            throw Error(StatusCode::kInternal,
                        "worker pool: job pipe write failed twice in a row");
        }
    }

    // Supervise the result under the watchdog / drain / cancel policy,
    // stopping at one complete frame: a healthy worker keeps its pipes
    // open, waiting for its next job or for retirement.
    const double deadline =
        req.deadlineSeconds > 0 ? req.deadlineSeconds : cfg.defaultDeadlineSeconds;
    const std::int64_t graceNs = static_cast<std::int64_t>(cfg.graceSeconds * 1e9);
    std::int64_t hardKillAt =
        deadline > 0 ? nowNs() + static_cast<std::int64_t>(deadline * 1e9) + graceNs : kNoKill;
    bool sigtermSent = false;

    std::vector<std::uint8_t> buf;
    std::uint64_t want = 0; // complete-frame size once the header is in
    bool frameDone = false;
    bool eof = false;
    std::string frameError = "no result frame";
    while (!frameDone && !eof) {
        const std::int64_t now = nowNs();
        if (cancel != nullptr && !sigtermSent &&
            cancel->load(std::memory_order_relaxed)) {
            kill(s.pid, SIGTERM); // cooperative per-job wind-down
            sigtermSent = true;
            if (now + graceNs < hardKillAt) hardKillAt = now + graceNs;
        }
        if (drain != nullptr && drain->draining.load(std::memory_order_relaxed) &&
            !sigtermSent &&
            now >= drain->softKillAtNs.load(std::memory_order_relaxed)) {
            kill(s.pid, SIGTERM);
            sigtermSent = true;
            if (now + graceNs < hardKillAt) hardKillAt = now + graceNs;
        }
        if (!a.watchdogKilled && now >= hardKillAt) {
            kill(s.pid, SIGKILL);
            a.watchdogKilled = true;
        }
        struct pollfd pfd {};
        pfd.fd = s.resultFd;
        pfd.events = POLLIN;
        const int rc = poll(&pfd, 1, 50);
        if (rc < 0) {
            if (errno == EINTR) continue;
            break; // poll failure: fall through to kill + reap + classify
        }
        if (rc == 0) continue;
        std::uint8_t chunk[4096];
        const ssize_t n = read(s.resultFd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        buf.insert(buf.end(), chunk, chunk + n);
        if (want == 0 && buf.size() >= robust::kFrameHeaderBytes) {
            try {
                want = robust::kFrameHeaderBytes +
                       robust::framePayloadLength(buf.data(), kMaxOutcomeFrameBytes);
            } catch (const Error& e) {
                frameError = e.what();
                break;
            }
        }
        if (want > 0 && buf.size() >= want) {
            if (buf.size() > want) {
                frameError = "trailing bytes after the result frame";
                break;
            }
            frameDone = true;
        }
    }

    if (frameDone) {
        try {
            const std::vector<std::uint8_t> payload =
                robust::parseFrame(buf.data(), buf.size());
            a.outcome = decodeJobOutcome(payload.data(), payload.size());
            // Planned retirement: the worker exits on job-pipe EOF. Its
            // exit is not a failure — the frame already settled the job.
            if (cfg_.retireAfterJob) (void)reap(s);
            std::lock_guard<std::mutex> lock(mu_);
            ++s.jobsServed;
            s.consecutiveFailures = 0;
            return a;
        } catch (const Error& e) {
            frameError = e.what(); // CRC-valid framing lied: treat as hostile
        }
    }

    // The worker is unusable: dead (EOF / torn frame) or speaking a
    // corrupt protocol. Make sure it is dead, reap it, classify the
    // corpse, and account the failure toward this slot's backoff.
    if (s.pid >= 0 && !eof) kill(s.pid, SIGKILL);
    const int wstatus = reap(s);
    noteFailure(s);

    if (a.watchdogKilled) {
        a.outcome.status = {StatusCode::kDeadlineExceeded,
                            "watchdog killed worker past deadline+grace (" + frameError +
                                ")"};
        return a;
    }
    if (WIFSIGNALED(wstatus)) {
        a.crashed = true;
        a.outcome.status = {StatusCode::kWorkerCrashed,
                            "worker killed by signal " +
                                std::to_string(WTERMSIG(wstatus)) + " (" + frameError + ")"};
        return a;
    }
    const int exitCode = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 1;
    a.crashed = true; // exited mid-job without a valid result frame
    a.outcome.status = {robust::statusForExitCode(exitCode),
                        "worker exited " + std::to_string(exitCode) +
                            " without a valid result frame (" + frameError + ")"};
    return a;
}

void WorkerPool::shutdown() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_) return;
        shutdown_ = true;
        // EOF on the job pipe is the clean shutdown signal: idle workers
        // _exit(0) from their blocking read.
        for (Slot& s : slots_) {
            if (s.jobFd >= 0) close(s.jobFd);
            s.jobFd = -1;
        }
    }
    for (Slot& s : slots_) {
        if (s.pid < 0) continue;
        const std::int64_t deadline = nowNs() + 2'000'000'000; // 2s, then SIGKILL
        bool reaped = false;
        while (nowNs() < deadline) {
            const pid_t rc = waitpid(s.pid, nullptr, WNOHANG);
            if (rc == s.pid || (rc < 0 && errno == ECHILD)) {
                reaped = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!reaped) {
            kill(s.pid, SIGKILL);
            while (waitpid(s.pid, nullptr, 0) < 0 && errno == EINTR) {}
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (s.resultFd >= 0) close(s.resultFd);
        s.resultFd = -1;
        s.pid = -1;
    }
}

std::vector<WorkerSlotStats> WorkerPool::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<WorkerSlotStats> out;
    out.reserve(slots_.size());
    for (const Slot& s : slots_) {
        WorkerSlotStats st;
        st.jobsServed = s.jobsServed;
        st.crashes = s.crashes;
        st.respawns = s.respawns;
        st.consecutiveFailures = s.consecutiveFailures;
        st.backoffActive = s.backoffActive;
        st.alive = s.pid >= 0;
        out.push_back(st);
    }
    return out;
}

std::int64_t WorkerPool::respawnTotal() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t total = 0;
    for (const Slot& s : slots_) total += s.respawns;
    return total;
}

} // namespace mlpart::serve

#endif // !_WIN32
