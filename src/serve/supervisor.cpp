#include "serve/supervisor.h"

#if !defined(_WIN32)

#include <string>

#include "robust/checkpoint.h" // hashCombine
#include "serve/worker_pool.h"

namespace mlpart::serve {

using robust::Error;
using robust::StatusCode;

bool isRetryableJobFailure(StatusCode code) {
    switch (code) {
        case StatusCode::kWorkerCrashed:
        case StatusCode::kInternal:
        case StatusCode::kInjectedFault:
        case StatusCode::kResourceExhausted:
        case StatusCode::kAllStartsFailed:
            return true;
        default:
            return false;
    }
}

std::uint64_t reseedForAttempt(std::uint64_t seed, int attempt) {
    if (attempt == 0) return seed;
    return robust::hashCombine(seed, 0x52455452ULL + static_cast<std::uint64_t>(attempt));
}

JobResult superviseJob(const JobRequest& req, const SupervisorConfig& cfg, WorkerPool& pool,
                       int slot, const DrainState* drain, const std::atomic<bool>* cancel) {
    JobResult res;
    res.id = req.id;
    const int maxAttempts = cfg.maxAttempts < 1 ? 1 : cfg.maxAttempts;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        JobRequest r = req;
        r.seed = reseedForAttempt(req.seed, attempt);
        Attempt a;
        try {
            a = pool.runAttempt(slot, r, attempt, cfg, drain, cancel);
        } catch (const Error& e) {
            a.outcome.status = e.status();
        } catch (const std::exception& e) {
            a.outcome.status = {StatusCode::kInternal, e.what()};
        }
        ++res.attempts;
        if (a.crashed) ++res.crashes;
        if (a.watchdogKilled) res.watchdogKilled = true;
        res.outcome = a.outcome;
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            // Cancel/complete race, resolved deterministically: a clean OK
            // result means the job completed before the cancel landed and
            // stands as-is; anything else (cooperative wind-down, a kill,
            // even a coincidental crash) becomes the one CANCELLED
            // response. Never retried — the caller no longer wants it.
            if (!a.outcome.status.ok())
                res.outcome.status = {StatusCode::kCancelled,
                                      "cancelled: " + (a.outcome.status.message.empty()
                                                           ? std::string("job wound down")
                                                           : a.outcome.status.message)};
            break;
        }
        if (!isRetryableJobFailure(a.outcome.status.code)) break;
    }
    res.retried = res.attempts > 1;
    return res;
}

} // namespace mlpart::serve

#endif // !_WIN32
