#include "serve/service.h"

#if !defined(_WIN32)

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "robust/memory_governor.h"
#include "robust/status.h"

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::StatusCode;

/// In-flight registry key. Job ids are only unique per client (two
/// tenants may both submit "job-1"), so cancel routing is scoped by the
/// client token.
std::string inflightKey(std::uint64_t client, const std::string& id) {
    return std::to_string(client) + ":" + id;
}

/// First data line of an .hgr header: "numNets numModules [fmt]".
bool parseHgrHeader(const std::string& text, std::int64_t& nets, std::int64_t& modules) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t i = 0;
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        if (i >= line.size() || line[i] == '%') continue;
        std::istringstream fields(line);
        return static_cast<bool>(fields >> nets >> modules) && nets >= 0 && modules > 0;
    }
    return false;
}

/// .netD/.net header: "magic numPins numNets numModules padOffset" — five
/// whitespace-separated integers, possibly spread over several lines. The
/// header declares pins exactly, so the admission estimate needs no
/// byte-count heuristic for this format.
bool parseNetDHeader(const std::string& text, std::int64_t& pins, std::int64_t& nets,
                     std::int64_t& modules) {
    std::istringstream in(text);
    std::int64_t magic = 0, padOffset = 0;
    return static_cast<bool>(in >> magic >> pins >> nets >> modules >> padOffset) &&
           pins >= 0 && nets >= 0 && modules > 0;
}

WorkerPoolConfig poolConfigFor(const ServiceConfig& cfg) {
    WorkerPoolConfig pc;
    pc.slots = cfg.workers; // dispatcher i drives slot i
    pc.backoffBaseSeconds = cfg.poolBackoffBaseSeconds;
    pc.backoffCapSeconds = cfg.poolBackoffCapSeconds;
    pc.retireAfterJob = !cfg.usePool;
    return pc;
}

} // namespace

std::uint64_t Service::estimateJobBytes(const JobRequest& req) {
    std::int64_t nets = 0;
    std::int64_t modules = 0;
    std::int64_t pins = -1; // < 0: derive from the byte-size heuristic below
    std::uint64_t bytes = 0;
    if (!req.inlineHgr.empty()) {
        bytes = req.inlineHgr.size();
        if (!parseHgrHeader(req.inlineHgr, nets, modules)) return 0;
    } else {
        const std::filesystem::path p(req.instance);
        const std::string ext = p.extension().string();
        std::error_code ec;
        const auto size = std::filesystem::file_size(p, ec);
        if (ec) return 0; // missing file: the worker reports the real error
        bytes = size;
        if (ext == ".hgr" || ext == ".net" || ext == ".netD" || ext == ".netd") {
            std::ifstream in(req.instance);
            if (!in) return 0;
            std::string head(4096, '\0');
            in.read(head.data(), static_cast<std::streamsize>(head.size()));
            head.resize(static_cast<std::size_t>(in.gcount()));
            if (ext == ".hgr") {
                if (!parseHgrHeader(head, nets, modules)) return 0;
            } else {
                if (!parseNetDHeader(head, pins, nets, modules)) return 0;
            }
        } else if (ext == ".bench") {
            // No counted header: one gate line averages a few dozen bytes
            // (name, type, fanin list), so size-based estimates are the
            // best a pre-parse admission check can do. Huge .bench files
            // must still hit the governor before a worker loads them.
            modules = std::max<std::int64_t>(1, static_cast<std::int64_t>(bytes / 24));
            nets = modules;
        } else {
            return 0; // unknown format: admit, the worker classifies it
        }
    }
    // Pins are not in the .hgr/.bench headers; a pin token averages a
    // handful of bytes, so bytes/6 is a serviceable order-of-magnitude
    // stand-in. .netD declares pins exactly.
    if (pins < 0)
        pins = std::max<std::int64_t>(2 * nets, static_cast<std::int64_t>(bytes / 6));
    const std::uint64_t perStart =
        robust::MemoryGovernor::estimateStartBytes(modules, nets, pins, req.k);
    const int concurrent = std::max(1, std::min(req.threads, req.runs));
    return perStart * static_cast<std::uint64_t>(concurrent);
}

Service::Service(ServiceConfig cfg, Emit emit)
    : cfg_(cfg), emit_(std::move(emit)), pool_(poolConfigFor(cfg_)) {
    if (cfg_.workers < 1) cfg_.workers = 1;
    if (cfg_.queueLimit < 1) cfg_.queueLimit = 1;
    if (cfg_.historyLimit < 1) cfg_.historyLimit = 1;
    if (cfg_.memLimitBytes > 0)
        robust::MemoryGovernor::instance().setLimitBytes(cfg_.memLimitBytes);
    if (cfg_.cacheEntries > 0) cache_ = std::make_unique<ResultCache>(cfg_.cacheEntries);

    Journal::Recovery recovery;
    if (!cfg_.stateDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.stateDir, ec);
        if (cache_) {
            cachePath_ = cfg_.stateDir + "/cache.bin";
            cache_->loadFromFile(cachePath_);
        }
        journal_ = std::make_unique<Journal>(cfg_.stateDir);
        recovery = journal_->recover();
        if (journal_->degraded())
            durabilityLost_.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        nextSeq_ = static_cast<std::int64_t>(recovery.maxSeq) + 1;
    }

    dispatchers_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i)
        dispatchers_.emplace_back([this, i] { dispatcherLoop(i); });

    if (journal_) {
        // Completed-before-crash jobs: re-emit the journaled result to
        // client 0 (the restarted stdin/socket owner) and never
        // re-execute — the journal is the proof the side effects already
        // happened once.
        for (JobResult r : recovery.completed) {
            r.replayed = true;
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++replayedResults_;
            }
            emitTo(0, jobResultJson(r));
        }
        // Admitted-but-unfinished jobs: back through the front door under
        // their original seq, so priority ordering and the deterministic
        // reseed lineage — and therefore the results — are bit-identical
        // to the uninterrupted server.
        for (Journal::RecoveredJob& job : recovery.pending) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++journalReplayed_;
            }
            admit(std::move(job.req), 0, static_cast<std::int64_t>(job.seq));
        }
        // Everything surviving is now re-journaled: shrink the log to it.
        const robust::Status st = journal_->compact();
        if (!st.ok()) noteDurabilityFailure(st);
        if (!recovery.pending.empty() || !recovery.completed.empty() ||
            recovery.truncatedBytes > 0 || recovery.unreadable) {
            JsonWriter w;
            w.field("event", "recovered")
                .field("replayed_results", static_cast<std::int64_t>(recovery.completed.size()))
                .field("reenqueued", static_cast<std::int64_t>(recovery.pending.size()))
                .field("truncated_bytes", recovery.truncatedBytes)
                .field("journal_unreadable", recovery.unreadable);
            emitTo(0, w.str());
        }
    }
}

Service::~Service() { stop(); }

std::uint64_t Service::registerClient(Emit emit) {
    std::uint64_t token;
    {
        std::lock_guard<std::mutex> lock(mu_);
        token = nextClient_++;
    }
    std::lock_guard<std::mutex> lock(emitMu_);
    clients_[token] = std::move(emit);
    return token;
}

void Service::disconnectClient(std::uint64_t client) {
    if (client == 0) return;
    std::vector<std::int64_t> droppedSeqs;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Queued jobs die silently: nobody is listening for their result.
        const auto isOrphan = [client](const Queued& q) { return q.client == client; };
        const auto first = std::remove_if(queue_.begin(), queue_.end(), isOrphan);
        for (auto it = first; it != queue_.end(); ++it) droppedSeqs.push_back(it->seq);
        orphaned_.fetch_add(queue_.end() - first, std::memory_order_relaxed);
        queue_.erase(first, queue_.end());
        // In-flight jobs are auto-cancelled; their workers wind down and
        // the (suppressed) result frees the slot.
        for (auto& [key, f] : inflight_)
            if (f.client == client) f.cancel->store(true, std::memory_order_release);
        clientLoad_.erase(client);
    }
    if (journal_)
        for (const std::int64_t seq : droppedSeqs)
            (void)journal_->appendDrop(static_cast<std::uint64_t>(seq));
    std::lock_guard<std::mutex> lock(emitMu_);
    clients_.erase(client);
}

void Service::emitTo(std::uint64_t client, const std::string& line) {
    std::lock_guard<std::mutex> lock(emitMu_);
    if (client == 0) {
        if (emit_) emit_(line);
        return;
    }
    const auto it = clients_.find(client);
    if (it == clients_.end()) {
        // The client disconnected after this response was produced.
        orphaned_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (it->second) it->second(line);
}

void Service::emitRejected(const JobRequest& req, std::uint64_t client,
                           const std::string& why, robust::StatusCode code) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++rejected_;
    }
    JobResult r;
    r.id = req.id;
    r.outcome.status = {code, why};
    emitTo(client, jobResultJson(r));
}

std::size_t Service::lowestPriorityIndex() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
        const bool lower = queue_[i].req.priority < queue_[best].req.priority;
        const bool tieNewer = queue_[i].req.priority == queue_[best].req.priority &&
                              queue_[i].seq > queue_[best].seq;
        if (lower || tieNewer) best = i;
    }
    return best;
}

void Service::recordResult(JobResult r) {
    history_.push_back(std::move(r));
    while (history_.size() > static_cast<std::size_t>(cfg_.historyLimit))
        history_.pop_front();
}

void Service::noteDurabilityFailure(const robust::Status& st) {
    durabilityLost_.store(true, std::memory_order_relaxed);
    // One warning, not one per failed write: after the first, the service
    // is openly non-durable (degraded_nondurable in status) and keeps
    // serving — losing the journal must never lose the service.
    if (durabilityWarned_.exchange(true, std::memory_order_relaxed)) return;
    JsonWriter w;
    w.field("event", "warning")
        .field("what", "durability degraded; continuing non-durable")
        .field("message", st.message);
    emitTo(0, w.str());
}

void Service::persistCache() {
    if (!cache_ || cachePath_.empty()) return;
    // Dispatchers finish jobs concurrently, but every snapshot goes
    // through the same temp file: one writer at a time.
    std::lock_guard<std::mutex> lock(persistMu_);
    const robust::Status st = cache_->saveToFile(cachePath_);
    if (!st.ok()) noteDurabilityFailure(st);
}

void Service::decrementLoadLocked(std::uint64_t client) {
    const auto it = clientLoad_.find(client);
    if (it == clientLoad_.end()) return;
    if (--it->second <= 0) clientLoad_.erase(it);
}

bool Service::clientIdle(std::uint64_t client) const {
    std::lock_guard<std::mutex> lock(mu_);
    return clientLoad_.count(client) == 0;
}

void Service::admit(JobRequest req, std::uint64_t client, std::int64_t forcedSeq) {
    const std::uint64_t estimate = estimateJobBytes(req);
    const std::uint64_t limit = robust::MemoryGovernor::instance().limitBytes();
    // Fingerprinting reads the instance (bounded, raw bytes) — do it
    // outside mu_. A fault-armed job invalidates its key up front: the
    // faults it is about to inject must not leave a stale cached answer
    // for the clean request that follows.
    const bool cacheable = cacheableRequest(req);
    std::uint64_t fingerprint = 0;
    if (cache_ && (cacheable || (req.op == JobOp::kPartition && !req.faultSpec.empty())))
        fingerprint = requestFingerprint(req);
    if (cache_ && !req.faultSpec.empty() && fingerprint != 0)
        cache_->invalidate(fingerprint);

    JobRequest shedJob;
    std::uint64_t shedClient = 0;
    std::int64_t shedSeq = -1;
    bool didShed = false;
    robust::Status journalStatus;
    // A recovered job bounced at (re-)admission still owes the journal a
    // Drop: its original Admit record is live, and without closure it
    // would rise again at every restart. The caller (one response per
    // journaled job) gets the rejection line instead.
    const auto dropForced = [&] {
        if (journal_ && forcedSeq >= 0)
            (void)journal_->appendDrop(static_cast<std::uint64_t>(forcedSeq));
    };
    {
        std::unique_lock<std::mutex> lock(mu_);
        const std::int64_t seq = forcedSeq >= 0 ? forcedSeq : nextSeq_;
        if (req.id.empty()) req.id = "job-" + std::to_string(seq);
        if (draining_ || stopping_) {
            lock.unlock();
            dropForced();
            emitRejected(req, client, "service is draining; job rejected");
            return;
        }
        if (limit > 0 && estimate > limit) {
            lock.unlock();
            dropForced();
            emitRejected(req, client,
                         "admission: estimated " + std::to_string(estimate) +
                             " bytes exceeds the " + std::to_string(limit) + "-byte budget",
                         StatusCode::kResourceExhausted);
            return;
        }
        if (cfg_.perClientInFlight > 0 &&
            clientLoad_[client] >= cfg_.perClientInFlight) {
            lock.unlock();
            dropForced();
            emitRejected(req, client,
                         "per-client limit (" + std::to_string(cfg_.perClientInFlight) +
                             " jobs queued or running) reached");
            return;
        }
        // Result cache: a hit answers at admission, bit-identical to the
        // cold run that populated it, without touching queue or workers.
        // A fresh job has no journal record yet (the cache runs before the
        // Admit append), but a recovered one does — close it with a Done
        // so the hit is the job's durable completion.
        if (cacheable && fingerprint != 0) {
            JobOutcome hit;
            if (cache_ && cache_->lookup(fingerprint, hit)) {
                JobResult r;
                r.id = req.id;
                r.outcome = hit;
                r.cached = true;
                ++completed_;
                recordResult(r);
                lock.unlock();
                if (journal_ && forcedSeq >= 0)
                    (void)journal_->appendDone(static_cast<std::uint64_t>(forcedSeq), r);
                emitTo(client, jobResultJson(r));
                return;
            }
        }
        if (queue_.size() >= static_cast<std::size_t>(cfg_.queueLimit)) {
            const std::size_t idx = lowestPriorityIndex();
            if (queue_[idx].req.priority < req.priority) {
                shedJob = std::move(queue_[idx].req);
                shedClient = queue_[idx].client;
                shedSeq = queue_[idx].seq;
                decrementLoadLocked(shedClient);
                queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
                ++shed_;
                didShed = true;
            } else {
                lock.unlock();
                dropForced();
                emitRejected(req, client,
                             "queue full (" + std::to_string(cfg_.queueLimit) +
                                 " jobs); no lower-priority job to shed");
                return;
            }
        }
        Queued q;
        q.req = std::move(req);
        q.seq = seq;
        if (forcedSeq < 0) ++nextSeq_;
        q.enqueuedNs = nowNs();
        q.client = client;
        q.fingerprint = cacheable ? fingerprint : 0;
        q.cancel = std::make_shared<std::atomic<bool>>(false);
        // Write-ahead: the admission record must be durable before the
        // job is visible to a dispatcher, or a crash could journal the
        // job's Start/Done with no Admit. A failed append degrades to
        // non-durable operation — the job itself is still accepted.
        if (journal_)
            journalStatus = journal_->appendAdmit(static_cast<std::uint64_t>(q.seq), q.req);
        queue_.push_back(std::move(q));
        ++clientLoad_[client];
        cv_.notify_one();
    }
    if (journal_ && !journalStatus.ok()) noteDurabilityFailure(journalStatus);
    if (didShed) {
        if (journal_) (void)journal_->appendDrop(static_cast<std::uint64_t>(shedSeq));
        emitRejected(shedJob, shedClient, "shed from a full queue by a higher-priority arrival");
    }
}

std::string Service::cancelJob(const std::string& id, std::uint64_t client) {
    JobResult dropped;
    std::int64_t droppedSeq = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            if (queue_[i].req.id != id || queue_[i].client != client) continue;
            droppedSeq = queue_[i].seq;
            queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
            decrementLoadLocked(client);
            ++cancelled_;
            dropped.id = id;
            dropped.outcome.status = {StatusCode::kCancelled,
                                      "cancelled while queued; never dispatched"};
            recordResult(dropped);
            break;
        }
        if (dropped.id.empty()) {
            const auto it = inflight_.find(inflightKey(client, id));
            if (it == inflight_.end()) return "unknown";
            // The dispatcher owns the response; the supervisor winds the
            // worker down and reclassifies every non-OK outcome to
            // CANCELLED (an already-complete OK result stands).
            it->second.cancel->store(true, std::memory_order_release);
            return "inflight";
        }
    }
    // The cancelled job left the system without a Done: journal the Drop
    // or it would rise from the dead at the next restart.
    if (journal_ && droppedSeq >= 0)
        (void)journal_->appendDrop(static_cast<std::uint64_t>(droppedSeq));
    // The cancelled job's one-and-only response.
    emitTo(client, jobResultJson(dropped));
    return "queued";
}

void Service::handleLine(const std::string& line) { handleLine(line, 0); }

void Service::handleLine(const std::string& line, std::uint64_t client) {
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size()) return; // blank line: ignore

    JobRequest req;
    try {
        req = parseJobRequest(line);
    } catch (const Error& e) {
        JobResult r;
        r.outcome.status = e.status();
        emitTo(client, jobResultJson(r));
        return;
    }
    switch (req.op) {
        case JobOp::kStatus:
            emitTo(client, statusJson());
            return;
        case JobOp::kDrain: {
            JsonWriter w;
            w.field("event", "draining").field("id", req.id);
            emitTo(client, w.str());
            drain();
            return;
        }
        case JobOp::kCancel: {
            const std::string outcome = cancelJob(req.id, client);
            JsonWriter w;
            w.field("event", "cancel").field("id", req.id).field("outcome", outcome);
            emitTo(client, w.str());
            return;
        }
        case JobOp::kPartition:
            admit(std::move(req), client);
            return;
    }
}

void Service::drain() {
    std::vector<Queued> dropped;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_) return;
        draining_ = true;
        // Order matters: supervisors read softKillAtNs only after seeing
        // draining == true.
        drainState_.softKillAtNs.store(
            nowNs() + static_cast<std::int64_t>(cfg_.drainGraceSeconds * 1e9),
            std::memory_order_relaxed);
        drainState_.draining.store(true, std::memory_order_release);
        dropped.swap(queue_);
        for (const Queued& q : dropped) decrementLoadLocked(q.client);
    }
    for (const Queued& q : dropped) {
        if (journal_) (void)journal_->appendDrop(static_cast<std::uint64_t>(q.seq));
        emitRejected(q.req, q.client, "drained before execution; job rejected");
    }
}

void Service::stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_) return;
        stopping_ = true;
        cv_.notify_all();
    }
    for (std::thread& t : dispatchers_)
        if (t.joinable()) t.join();
    pool_.shutdown();
    // A clean stop has delivered every response it ever will: compacting
    // now drops the delivered Done records, so only a *crash* (no stop)
    // leaves results behind for the at-least-once re-emission path.
    if (journal_) {
        const robust::Status st = journal_->compact();
        if (!st.ok()) noteDurabilityFailure(st);
    }
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
}

bool Service::draining() const {
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

int Service::completedJobs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

std::string Service::statusJson() {
    auto& governor = robust::MemoryGovernor::instance();
    std::size_t clientCount = 0;
    {
        std::lock_guard<std::mutex> lock(emitMu_);
        clientCount = clients_.size();
    }
    std::string poolWorkers = "[";
    const std::vector<WorkerSlotStats> slots = pool_.stats();
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (i > 0) poolWorkers += ',';
        JsonWriter sw;
        sw.field("jobs_served", slots[i].jobsServed)
            .field("crashes", slots[i].crashes)
            .field("respawns", slots[i].respawns)
            .field("consecutive_failures", slots[i].consecutiveFailures)
            .field("backoff_active", slots[i].backoffActive)
            .field("alive", slots[i].alive);
        poolWorkers += sw.str();
    }
    poolWorkers += ']';
    const std::int64_t respawnTotal = pool_.respawnTotal();
    JsonWriter cw;
    if (cache_) {
        const ResultCache::Stats cs = cache_->stats();
        cw.field("entries", cs.entries)
            .field("hits", cs.hits)
            .field("misses", cs.misses)
            .field("insertions", cs.insertions)
            .field("evictions", cs.evictions)
            .field("invalidations", cs.invalidations)
            .field("persisted_hits", cs.persistedHits)
            .field("load_rejected", cs.loadRejected);
    } else {
        cw.field("entries", std::int64_t{0}).field("hits", std::int64_t{0});
    }

    std::lock_guard<std::mutex> lock(mu_);
    std::string jobs = "[";
    for (std::size_t i = 0; i < history_.size(); ++i) {
        if (i > 0) jobs += ',';
        jobs += jobSummaryJson(history_[i]);
    }
    jobs += ']';
    JsonWriter w;
    w.field("event", "status")
        .field("queue_depth", static_cast<std::int64_t>(queue_.size()))
        .field("active", active_)
        .field("completed", completed_)
        .field("rejected", rejected_)
        .field("shed", shed_)
        .field("cancelled", cancelled_)
        .field("orphaned", orphaned_.load(std::memory_order_relaxed))
        .field("clients", static_cast<std::int64_t>(clientCount))
        .field("draining", draining_)
        .field("workers", cfg_.workers)
        .field("pool", cfg_.usePool)
        .field("respawn_total", respawnTotal)
        .field("mem_limit", static_cast<std::int64_t>(governor.limitBytes()))
        .field("mem_in_use", static_cast<std::int64_t>(governor.inUseBytes()))
        .field("durable", journal_ != nullptr)
        .field("journal_replayed", journalReplayed_)
        .field("replayed_results", replayedResults_)
        .field("journal_compactions", journal_ ? journal_->compactions() : std::int64_t{0})
        .field("cache_persisted_hits",
               cache_ ? cache_->stats().persistedHits : std::int64_t{0})
        .field("degraded_nondurable",
               durabilityLost_.load(std::memory_order_relaxed) ||
                   (journal_ && journal_->degraded()))
        .raw("pool_workers", poolWorkers)
        .raw("cache", cw.str())
        .raw("jobs", jobs);
    return w.str();
}

void Service::dispatcherLoop(int slot) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_) return;
            continue;
        }
        // Highest priority first; FIFO within a priority level.
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue_.size(); ++i) {
            const bool higher = queue_[i].req.priority > queue_[best].req.priority;
            const bool tieOlder = queue_[i].req.priority == queue_[best].req.priority &&
                                  queue_[i].seq < queue_[best].seq;
            if (higher || tieOlder) best = i;
        }
        Queued q = std::move(queue_[best]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
        ++active_;
        inflight_[inflightKey(q.client, q.req.id)] = InFlight{q.cancel, q.client};
        lock.unlock();

        // Best-effort Start marker: purely diagnostic (recovery re-runs
        // started-but-unfinished jobs the same as never-started ones), so
        // a failed append here does not even degrade durability.
        if (journal_) (void)journal_->appendStart(static_cast<std::uint64_t>(q.seq));

        const double queueSeconds =
            static_cast<double>(nowNs() - q.enqueuedNs) / 1e9;
        JobResult r;
        if (q.cancel->load(std::memory_order_acquire)) {
            // Cancelled between dequeue and fork: never run at all.
            r.id = q.req.id;
            r.outcome.status = {StatusCode::kCancelled,
                                "cancelled before dispatch; never run"};
        } else {
            SupervisorConfig sc;
            sc.graceSeconds = cfg_.graceSeconds;
            sc.defaultDeadlineSeconds = cfg_.defaultDeadlineSeconds;
            r = superviseJob(q.req, sc, pool_, slot, &drainState_, q.cancel.get());
        }
        r.queueSeconds = queueSeconds;
        const bool cacheInsert = cache_ && q.fingerprint != 0 && !r.cached &&
                                 r.outcome.status.ok() && !r.outcome.deadlineHit;
        if (cacheInsert) {
            cache_->insert(q.fingerprint, r.outcome);
            persistCache();
        }
        // Journal the completion BEFORE emitting: a crash in the gap
        // re-emits the journaled result at recovery (at-least-once
        // delivery) instead of re-executing the job (exactly-once
        // execution — the invariant the soak test's phase 3 counts).
        if (journal_) {
            const robust::Status st =
                journal_->appendDone(static_cast<std::uint64_t>(q.seq), r);
            if (!st.ok()) noteDurabilityFailure(st);
        }
        emitTo(q.client, jobResultJson(r));

        lock.lock();
        const auto it = inflight_.find(inflightKey(q.client, q.req.id));
        if (it != inflight_.end() && it->second.cancel == q.cancel) inflight_.erase(it);
        decrementLoadLocked(q.client);
        --active_;
        ++completed_;
        if (r.outcome.status.code == StatusCode::kCancelled) ++cancelled_;
        recordResult(std::move(r));
    }
}

} // namespace mlpart::serve

#endif // !_WIN32
