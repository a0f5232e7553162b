#include "serve/journal.h"

#if !defined(_WIN32)

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "robust/fs_shim.h"
#include "robust/wire.h"

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::Status;
using robust::StatusCode;

constexpr std::uint32_t kRecordMagic = 0x324A4C4DU; // "MLJ2" little-endian
// A record is one request (inline .hgr included) or one result; anything
// past this is a forged length field, not a job.
constexpr std::uint64_t kMaxRecordBytes = 1u << 28;

// Frame tags: the record type.
constexpr std::uint32_t kAdmit = 1;
constexpr std::uint32_t kStart = 2;
constexpr std::uint32_t kDone = 3;
constexpr std::uint32_t kDrop = 4;

std::vector<std::uint8_t> admitPayload(std::uint64_t seq, const JobRequest& req) {
    robust::WireWriter w;
    w.u64(seq);
    const std::vector<std::uint8_t> reqBytes = encodeJobRequest(req, 0);
    w.bytes.insert(w.bytes.end(), reqBytes.begin(), reqBytes.end());
    return std::move(w.bytes);
}

std::vector<std::uint8_t> seqPayload(std::uint64_t seq) {
    robust::WireWriter w;
    w.u64(seq);
    return std::move(w.bytes);
}

std::vector<std::uint8_t> donePayload(std::uint64_t seq, const JobResult& r) {
    robust::WireWriter w;
    w.u64(seq);
    w.str(r.id);
    w.i32(r.attempts);
    w.i32(r.crashes);
    w.u8(r.watchdogKilled ? 1 : 0);
    w.u8(r.retried ? 1 : 0);
    w.u8(r.cached ? 1 : 0);
    w.f64(r.queueSeconds);
    w.blob(encodeJobOutcome(r.outcome));
    return std::move(w.bytes);
}

/// Throws Error(kParseError) on any inconsistency — the scanner turns
/// that into a truncate-at-this-record, never a crash.
JobResult parseDonePayload(robust::WireReader& r) {
    JobResult out;
    out.id = r.str();
    out.attempts = r.i32();
    out.crashes = r.i32();
    out.watchdogKilled = r.u8() != 0;
    out.retried = r.u8() != 0;
    out.cached = r.u8() != 0;
    out.queueSeconds = r.f64();
    const std::vector<std::uint8_t> outcome = r.blob();
    if (r.remaining() != 0) throw Error(StatusCode::kParseError, "journal: outcome length lies");
    out.outcome = decodeJobOutcome(outcome.data(), outcome.size());
    return out;
}

} // namespace

Journal::Journal(const std::string& stateDir) : path_(stateDir + "/journal.wal") {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) degraded_ = true; // unopenable state dir: serve non-durably
}

Journal::~Journal() {
    if (fd_ >= 0) ::close(fd_);
}

bool Journal::degraded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return degraded_;
}

std::int64_t Journal::compactions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return compactions_;
}

void Journal::reopenLocked() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        degraded_ = true;
        return;
    }
    ::lseek(fd_, 0, SEEK_END);
}

Journal::Recovery Journal::recover() {
    std::lock_guard<std::mutex> lock(mu_);
    Recovery out;
    recovered_ = true;
    if (fd_ < 0) {
        out.unreadable = true;
        return out;
    }
    std::vector<std::uint8_t> bytes;
    try {
        bytes = robust::readFileDurable(path_);
    } catch (const Error&) {
        // Media error (real or injected fs.read.eio): the journal's
        // content is gone, but the service must still come up — start
        // with an empty journal rather than dying on a bad disk.
        out.unreadable = true;
        if (::ftruncate(fd_, 0) != 0) degraded_ = true;
        ::lseek(fd_, 0, SEEK_END);
        return out;
    }

    // Forward scan: every frame must be structurally whole (the shared
    // scanner) *and* semantically consistent (a known type; Start/Done/
    // Drop must name an admitted seq; an Admit must decode). The first
    // violation truncates the file after the last good frame — a torn
    // tail from a crash mid-append is the common case, and recovery must
    // never be the thing that crashes.
    const robust::FrameScan scan =
        robust::scanFrames(bytes.data(), bytes.size(), kRecordMagic, kMaxRecordBytes);
    std::size_t lastGood = 0;
    for (const robust::Frame& f : scan.frames) {
        try {
            if (f.tag < kAdmit || f.tag > kDrop)
                throw Error(StatusCode::kParseError, "unknown record type");
            robust::WireReader r = f.reader();
            const std::uint64_t seq = r.u64();
            if (seq > out.maxSeq) out.maxSeq = seq;
            if (f.tag == kAdmit) {
                std::int32_t attempt = 0;
                (void)decodeJobRequest(f.payload + r.pos, r.remaining(), attempt);
                // Dedupe by seq: recovery re-journals pending jobs under
                // their original seq, so a crash in that window leaves
                // two identical Admit records, not two executions.
                Outstanding& o = live_[seq];
                o.admitPayload.assign(f.payload, f.end());
                o.started = false;
            } else if (f.tag == kStart) {
                const auto it = live_.find(seq);
                if (it == live_.end()) throw Error(StatusCode::kParseError, "orphan Start");
                it->second.started = true;
            } else if (f.tag == kDone) {
                if (live_.find(seq) == live_.end())
                    throw Error(StatusCode::kParseError, "orphan Done");
                out.completed.push_back(parseDonePayload(r));
                live_.erase(seq);
            } else { // kDrop
                if (live_.find(seq) == live_.end())
                    throw Error(StatusCode::kParseError, "orphan Drop");
                live_.erase(seq);
            }
        } catch (const Error&) {
            break;
        }
        lastGood = static_cast<std::size_t>(f.end() - bytes.data());
    }
    out.truncatedBytes = static_cast<std::int64_t>(bytes.size() - lastGood);
    if (out.truncatedBytes > 0 && ::ftruncate(fd_, static_cast<off_t>(lastGood)) != 0)
        degraded_ = true;
    ::lseek(fd_, 0, SEEK_END);

    out.pending.reserve(live_.size());
    for (const auto& [seq, o] : live_) {
        RecoveredJob job;
        job.seq = seq;
        job.started = o.started;
        std::int32_t attempt = 0;
        job.req = decodeJobRequest(o.admitPayload.data() + 8, o.admitPayload.size() - 8, attempt);
        out.pending.push_back(std::move(job));
    }
    return out;
}

Status Journal::appendLocked(std::uint32_t type, const std::vector<std::uint8_t>& payload) {
    if (degraded_) return Status::okStatus(); // non-durable mode: no-op
    if (fd_ < 0) {
        degraded_ = true;
        return Status::error(StatusCode::kInternal, "journal: no open file descriptor");
    }
    std::vector<std::uint8_t> record;
    robust::appendFrame(record, kRecordMagic, type, payload);
    const Status st = robust::appendAndSync(fd_, record.data(), record.size(), "journal");
    if (!st.ok()) degraded_ = true; // a torn tail may be on disk; recovery truncates it
    return st;
}

Status Journal::appendAdmit(std::uint64_t seq, const JobRequest& req) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint8_t> payload = admitPayload(seq, req);
    const Status st = appendLocked(kAdmit, payload);
    if (st.ok() && !degraded_) {
        Outstanding& o = live_[seq];
        o.admitPayload = std::move(payload);
        o.started = false;
    }
    return st;
}

Status Journal::appendStart(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    const Status st = appendLocked(kStart, seqPayload(seq));
    if (st.ok() && !degraded_) {
        const auto it = live_.find(seq);
        if (it != live_.end()) it->second.started = true;
    }
    return st;
}

Status Journal::appendDone(std::uint64_t seq, const JobResult& result) {
    std::lock_guard<std::mutex> lock(mu_);
    const Status st = appendLocked(kDone, donePayload(seq, result));
    if (!st.ok() || degraded_) return st;
    live_.erase(seq);
    if (++donesSinceCompact_ >= kCompactEveryDones) {
        donesSinceCompact_ = 0;
        (void)compactLocked(); // failure keeps the (valid) uncompacted file
    }
    return st;
}

Status Journal::appendDrop(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    const Status st = appendLocked(kDrop, seqPayload(seq));
    if (!st.ok() || degraded_) return st;
    live_.erase(seq);
    if (++donesSinceCompact_ >= kCompactEveryDones) {
        donesSinceCompact_ = 0;
        (void)compactLocked();
    }
    return st;
}

Status Journal::compact() {
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) return Status::okStatus();
    return compactLocked();
}

Status Journal::compactLocked() {
    std::vector<std::uint8_t> bytes;
    for (const auto& [seq, o] : live_) {
        robust::appendFrame(bytes, kRecordMagic, kAdmit, o.admitPayload);
        if (o.started) robust::appendFrame(bytes, kRecordMagic, kStart, seqPayload(seq));
    }
    // An atomic-rename failure leaves the previous (longer but valid)
    // journal in place: compaction is an optimisation, never a risk.
    const Status st = robust::atomicWriteFile(path_, bytes, "journal");
    if (!st.ok()) return st;
    ++compactions_;
    reopenLocked(); // the old fd points at the unlinked pre-compaction inode
    return Status::okStatus();
}

} // namespace mlpart::serve

#endif // !_WIN32
