#include "serve/worker.h"

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "comparators/comparators.h"
#include "core/multilevel.h"
#include "core/parallel_multistart.h"
#include "hypergraph/bench_format.h"
#include "hypergraph/io.h"
#include "hypergraph/netd_format.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/status.h"
#include "robust/wire.h"

#if !defined(_WIN32)
#include <unistd.h>
#if defined(__linux__)
#include <sys/syscall.h>
#endif
#include <limits>
#include <utility>
#endif

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::StatusCode;

Hypergraph loadInstance(const JobRequest& req) {
    if (!req.inlineHgr.empty()) {
        std::istringstream in(req.inlineHgr);
        return readHgr(in, static_cast<std::int64_t>(req.inlineHgr.size()));
    }
    const std::filesystem::path p(req.instance);
    const std::string ext = p.extension().string();
    if (ext == ".hgr") return readHgrFile(req.instance);
    if (ext == ".bench") return readBenchFile(req.instance);
    if (ext == ".net" || ext == ".netD" || ext == ".netd") {
        std::filesystem::path are = p;
        are.replace_extension(".are");
        if (std::filesystem::exists(are)) return readNetDFile(req.instance, are.string());
        return readNetDFile(req.instance);
    }
    throw Error(StatusCode::kUsage,
                "unrecognized netlist extension '" + ext + "' (want .hgr/.bench/.netD)");
}

} // namespace

JobOutcome executeJob(const JobRequest& req, const std::atomic<bool>* cancel) {
    JobOutcome out;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        const Hypergraph h = loadInstance(req);
        const PartId k = static_cast<PartId>(req.k);
        if (k > h.numModules())
            throw Error(StatusCode::kInfeasible,
                        "cannot split " + std::to_string(h.numModules()) + " modules into " +
                            std::to_string(req.k) + " non-empty blocks");

        const std::string engine = resolvedEngine(req);
        Partition best;
        if (isComparator(engine)) {
            robust::Deadline deadline = req.deadlineSeconds > 0
                                            ? robust::Deadline::after(req.deadlineSeconds)
                                            : robust::Deadline();
            if (cancel != nullptr) deadline.bindCancelFlag(cancel);
            ComparatorResult r = runComparator(h, engine, k, req.tolerance, req.matchingRatio,
                                               req.vcycleThreads, req.seed, deadline);
            out.cut = static_cast<std::int64_t>(r.cut);
            out.runsOk = 1;
            out.deadlineHit = r.deadlineHit;
            best = std::move(r.partition);
        } else {
            const MLEngine ml = makeMLEngine(engine, k, req.tolerance, req.matchingRatio,
                                             req.vcycleThreads);
            const MultilevelPartitioner partitioner(ml.config, ml.factory);

            MultiStartConfig ms;
            ms.runs = req.runs;
            ms.threads = req.threads;
            ms.seed = req.seed;
            ms.timeoutSeconds = req.deadlineSeconds;
            if (cancel != nullptr) ms.deadline.bindCancelFlag(cancel);
            ms.checkpointPath = req.checkpointPath;
            ms.resume = req.resume;
            if (!ms.checkpointPath.empty())
                ms.fingerprintSalt = engineFingerprintSalt(engine, k);

            MultiStartOutcome r = parallelMultiStart(h, partitioner, ms);

            out.cut = static_cast<std::int64_t>(r.bestCut);
            out.runsOk = static_cast<std::int32_t>(r.report.succeeded());
            out.runsRetried = static_cast<std::int32_t>(r.report.retried());
            out.runsFailed = static_cast<std::int32_t>(r.report.failed());
            out.runsSkipped = static_cast<std::int32_t>(r.report.skipped());
            out.deadlineHit = r.report.deadlineHit;
            out.checkpointSaved = !ms.checkpointPath.empty() && r.checkpointStatus.ok();
            best = std::move(r.best);
        }
        const std::vector<std::uint8_t> blob = encodePartitionBinary(best);
        out.partitionCrc = robust::crc32(blob.data(), blob.size());
        if (!req.outPath.empty()) writePartitionFile(best, req.outPath);

        if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
            out.status = {StatusCode::kInterrupted, "drained: best-so-far result emitted"};
        else if (out.deadlineHit)
            out.status = {StatusCode::kDeadlineExceeded, "deadline: best-so-far result emitted"};
        else
            out.status = robust::Status::okStatus();
    } catch (const Error& e) {
        out.status = {e.code(), e.what()};
    } catch (const std::bad_alloc&) {
        out.status = {StatusCode::kResourceExhausted, "out of memory"};
    } catch (const std::exception& e) {
        out.status = {StatusCode::kInternal, e.what()};
    }
    out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return out;
}

#if !defined(_WIN32)

namespace {

std::atomic<bool> g_workerCancel{false};

extern "C" void onWorkerTerm(int) { g_workerCancel.store(true, std::memory_order_relaxed); }

/// One job inside a worker: re-arm fault injection, visit the containment
/// sites, execute, frame the outcome onto `resultFd`. _exits directly on a
/// torn-write fault or a dead result pipe. Re-arming resets the
/// injector's hit counters, so every job sees the same fault determinism
/// however many jobs its worker has served.
void serveOneJob(const JobRequest& req, int attempt, int resultFd) {
    g_workerCancel.store(false, std::memory_order_relaxed);

    // The per-job fault spec overrides whatever arming the parent's
    // environment left behind, but only on the attempts it targets —
    // that is how a test says "crash attempt 0, succeed on the retry".
    if (!req.faultSpec.empty()) {
        if (attempt < req.faultAttempts)
            robust::FaultInjector::instance().armFromSpec(req.faultSpec);
        else
            robust::FaultInjector::instance().disarm();
    } else {
        robust::FaultInjector::instance().disarm();
        try {
            (void)robust::FaultInjector::instance().armFromEnv();
        } catch (...) {
            // A bad env spec must not kill the worker between jobs.
        }
    }

    // Containment-test sites. A fired crash site becomes a real SIGSEGV
    // (default disposition restored first, so sanitizer handlers do not
    // turn the signal death into a plain exit), a fired hang site blocks
    // forever — only the supervisor's watchdog can end it.
    try {
        MLPART_FAULT_SITE("serve.worker_crash");
    } catch (...) {
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
        _exit(robust::exitCodeFor(StatusCode::kInternal)); // unreachable
    }
    try {
        MLPART_FAULT_SITE("serve.worker_hang");
    } catch (...) {
        for (;;) pause();
    }

    JobOutcome out;
    try {
        out = executeJob(req, &g_workerCancel);
    } catch (...) {
        out.status = {StatusCode::kInternal, "worker: unexpected exception"};
    }

    const std::vector<std::uint8_t> frame = robust::buildFrame(encodeJobOutcome(out));
    try {
        MLPART_FAULT_SITE("serve.pipe");
    } catch (...) {
        // Torn write: half a frame, then die. The parent's CRC framing
        // must classify this as a parse error, never hang or mis-decode.
        (void)robust::writeFull(resultFd, frame.data(), frame.size() / 2);
        _exit(robust::exitCodeFor(StatusCode::kInternal));
    }
    robust::Status ws = robust::writeFull(resultFd, frame.data(), frame.size());
    if (!ws.ok()) _exit(robust::exitCodeFor(StatusCode::kInternal));
}

/// Job-pipe frames carry inline netlists, so the sanity cap is generous;
/// anything beyond it is not a request the parent would ever send.
constexpr std::uint64_t kMaxRequestFrameBytes = 1ull << 30;

/// Closes [first, last] without enumerating a potentially huge fd table:
/// one close_range(2) syscall where the kernel has it, a bounded loop
/// otherwise.
void closeFdSpan(int first, int last) {
    if (first > last) return;
#if defined(__linux__) && defined(SYS_close_range)
    const unsigned long lastArg =
        last == std::numeric_limits<int>::max() ? ~0ul : static_cast<unsigned long>(last);
    if (syscall(SYS_close_range, static_cast<unsigned long>(first), lastArg, 0ul) == 0)
        return;
#endif
    long maxFd = sysconf(_SC_OPEN_MAX);
    if (maxFd < 0 || maxFd > 65536) maxFd = 65536;
    if (last >= maxFd) last = static_cast<int>(maxFd) - 1;
    for (int fd = first; fd <= last; ++fd) close(fd);
}

} // namespace

void closeInheritedFds(std::initializer_list<int> keep) {
    // Tiny fixed-size sort: this runs in a freshly forked child of a
    // multithreaded parent, so stay off the heap.
    int kept[8];
    int n = 0;
    for (const int fd : keep)
        if (fd > 2 && n < 8) kept[n++] = fd;
    for (int i = 1; i < n; ++i)
        for (int j = i; j > 0 && kept[j] < kept[j - 1]; --j)
            std::swap(kept[j], kept[j - 1]);
    int next = 3;
    for (int i = 0; i < n; ++i) {
        closeFdSpan(next, kept[i] - 1);
        next = kept[i] + 1;
    }
    closeFdSpan(next, std::numeric_limits<int>::max());
}

void workerPoolMain(int jobFd, int resultFd) {
    // SIGTERM is the drain / cancel signal: wind down cooperatively, emit
    // best-so-far, keep the checkpoint. SIGINT stays default — the
    // supervisor never sends it to a worker.
    std::signal(SIGTERM, onWorkerTerm);
    for (;;) {
        std::uint8_t header[robust::kFrameHeaderBytes];
        std::size_t got = 0;
        try {
            got = robust::readFull(jobFd, header, sizeof(header));
        } catch (...) {
            _exit(robust::exitCodeFor(StatusCode::kInternal));
        }
        if (got == 0) _exit(0); // EOF between jobs: retirement or pool shutdown
        if (got < sizeof(header)) _exit(robust::exitCodeFor(StatusCode::kParseError));
        std::uint64_t payloadLen = 0;
        try {
            payloadLen = robust::framePayloadLength(header, kMaxRequestFrameBytes);
        } catch (...) {
            _exit(robust::exitCodeFor(StatusCode::kParseError));
        }

        std::vector<std::uint8_t> frame(sizeof(header) + payloadLen);
        std::memcpy(frame.data(), header, sizeof(header));
        try {
            if (robust::readFull(jobFd, frame.data() + sizeof(header), payloadLen) !=
                payloadLen)
                _exit(robust::exitCodeFor(StatusCode::kParseError));
        } catch (...) {
            _exit(robust::exitCodeFor(StatusCode::kInternal));
        }

        JobRequest req;
        std::int32_t attempt = 0;
        try {
            const std::vector<std::uint8_t> payload =
                robust::parseFrame(frame.data(), frame.size());
            req = decodeJobRequest(payload.data(), payload.size(), attempt);
        } catch (...) {
            _exit(robust::exitCodeFor(StatusCode::kParseError));
        }
        serveOneJob(req, attempt, resultFd);
    }
}

#endif // !_WIN32

} // namespace mlpart::serve
