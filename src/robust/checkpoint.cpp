#include "robust/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "robust/fault_injector.h"
#include "robust/fs_shim.h"
#include "robust/wire.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

namespace mlpart::robust {

namespace {

constexpr std::uint32_t kMagic = 0x32434C4DU; // "MLC2" little-endian
constexpr std::uint32_t kVersion = 2;

// Frame tags. The header (version, fingerprint) comes first; meta and
// records are mandatory; best is present only when at least one persisted
// start succeeded; partial only when V-cycle snapshots of in-flight runs
// exist (checkpointEveryCycle).
constexpr std::uint32_t kTagHeader = 0;
constexpr std::uint32_t kTagMeta = 1;
constexpr std::uint32_t kTagRecords = 2;
constexpr std::uint32_t kTagBest = 3;
constexpr std::uint32_t kTagPartial = 4;
constexpr const char* kTagNames[] = {"header", "meta", "records", "best", "partial"};

// Any checkpoint frame bigger than this is hostile or damaged: even a
// 2^30 module partition blob stays under it, and the loader must never
// let a forged length field drive a huge allocation.
constexpr std::uint64_t kMaxCheckpointBytes = std::uint64_t{1} << 33;

[[noreturn]] void corrupt(const std::string& message) {
    throw Error(StatusCode::kParseError, "checkpoint: " + message);
}

// ------------------------------------------------- platform file plumbing

// Writes `bytes` to `path` directly (no temp file, no fsync). Used only
// by the injected torn-write path, which exists to manufacture exactly
// the partial files the production path's atomic rename rules out.
void writeRawUnsafe(const std::string& path, const std::uint8_t* data, std::size_t n) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(n));
}

} // namespace

// --------------------------------------------------------------- hashing

std::uint64_t hashCombine(std::uint64_t h, std::uint64_t v) {
    std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ----------------------------------------------------------- serializing

std::vector<std::uint8_t> serializeCheckpoint(const CheckpointState& state) {
    WireWriter header;
    header.u32(kVersion);
    header.u64(state.fingerprint);

    WireWriter meta;
    meta.u64(state.seed);
    meta.i32(state.runs);

    WireWriter records;
    records.i32(static_cast<std::int32_t>(state.done.size()));
    for (const CheckpointStart& d : state.done) {
        records.i32(d.run);
        records.u8(static_cast<std::uint8_t>(d.record.status));
        records.i32(d.record.attempts);
        records.i64(d.record.cut);
        records.u8(static_cast<std::uint8_t>(d.record.error.code));
        records.str(d.record.error.message);
    }

    std::vector<std::uint8_t> out;
    appendFrame(out, kMagic, kTagHeader, header.bytes);
    appendFrame(out, kMagic, kTagMeta, meta.bytes);
    appendFrame(out, kMagic, kTagRecords, records.bytes);
    if (state.bestRun >= 0) {
        WireWriter best;
        best.i32(state.bestRun);
        best.i64(state.bestCut);
        best.blob(state.bestBlob);
        appendFrame(out, kMagic, kTagBest, best.bytes);
    }
    if (!state.partial.empty()) {
        WireWriter partial;
        partial.i32(static_cast<std::int32_t>(state.partial.size()));
        for (const CheckpointPartial& p : state.partial) {
            partial.i32(p.run);
            partial.i32(p.attempt);
            partial.i32(p.cyclesDone);
            partial.i64(p.cut);
            partial.str(p.rngState);
            partial.blob(p.blob);
        }
        appendFrame(out, kMagic, kTagPartial, partial.bytes);
    }
    return out;
}

CheckpointState parseCheckpoint(const std::uint8_t* data, std::size_t size,
                                std::uint64_t expectedFingerprint) {
    // A checkpoint is all or nothing: damage anywhere rejects the file.
    const FrameScan scan = scanFrames(data, size, kMagic, kMaxCheckpointBytes);
    if (scan.stop != FrameStop::kEnd) corrupt(scan.why);
    if (scan.frames.empty() || scan.frames.front().tag != kTagHeader)
        corrupt("missing header frame");

    CheckpointState state;
    WireReader header = scan.frames.front().reader();
    const std::uint32_t version = header.u32();
    if (version != kVersion)
        corrupt("unsupported version " + std::to_string(version) + " (want " +
                std::to_string(kVersion) + ")");
    state.fingerprint = header.u64();
    if (expectedFingerprint != 0 && state.fingerprint != expectedFingerprint)
        corrupt("stale config fingerprint (checkpoint was written by a different "
                "instance/configuration/seed)");

    bool sawTag[std::size(kTagNames)] = {true}; // the header frame
    for (std::size_t f = 1; f < scan.frames.size(); ++f) {
        const std::uint32_t tag = scan.frames[f].tag;
        if (tag >= std::size(kTagNames)) corrupt("unknown frame tag " + std::to_string(tag));
        if (sawTag[tag]) corrupt(std::string("duplicate ") + kTagNames[tag] + " frame");
        sawTag[tag] = true;
        WireReader payload = scan.frames[f].reader();

        if (tag == kTagMeta) {
            state.seed = payload.u64();
            state.runs = payload.i32();
            if (state.runs < 1) corrupt("nonsensical run count " + std::to_string(state.runs));
        } else if (tag == kTagRecords) {
            const std::int32_t count = payload.i32();
            if (count < 0 || static_cast<std::size_t>(count) > payload.size)
                corrupt("nonsensical record count " + std::to_string(count));
            state.done.reserve(static_cast<std::size_t>(count));
            for (std::int32_t i = 0; i < count; ++i) {
                CheckpointStart d;
                d.run = payload.i32();
                d.record.status =
                    payload.enumU8(StartStatus::kSkippedDeadline, "checkpoint: invalid start status");
                d.record.attempts = payload.i32();
                d.record.cut = payload.i64();
                d.record.error.code =
                    payload.enumU8(kMaxStatusCode, "checkpoint: invalid status code");
                d.record.error.message = payload.str();
                if (d.record.status == StartStatus::kSkippedDeadline)
                    corrupt("persisted record for a start that never ran");
                if (d.record.attempts < 1) corrupt("persisted record with no attempts");
                state.done.push_back(std::move(d));
            }
        } else if (tag == kTagBest) {
            state.bestRun = payload.i32();
            state.bestCut = payload.i64();
            state.bestBlob = payload.blob();
        } else if (tag == kTagPartial) {
            const std::int32_t count = payload.i32();
            if (count < 1 || static_cast<std::size_t>(count) > payload.size)
                corrupt("nonsensical partial count " + std::to_string(count));
            state.partial.reserve(static_cast<std::size_t>(count));
            for (std::int32_t i = 0; i < count; ++i) {
                CheckpointPartial p;
                p.run = payload.i32();
                p.attempt = payload.i32();
                p.cyclesDone = payload.i32();
                p.cut = payload.i64();
                p.rngState = payload.str();
                p.blob = payload.blob();
                if (p.attempt < 0) corrupt("partial with negative attempt");
                // A snapshot is only taken after a cycle completes, so a
                // persisted partial with no finished cycle is a lie.
                if (p.cyclesDone < 1) corrupt("partial with no completed cycles");
                if (p.rngState.empty()) corrupt("partial with empty RNG state");
                if (p.blob.empty()) corrupt("partial with empty partition blob");
                state.partial.push_back(std::move(p));
            }
        }
        if (payload.remaining() != 0)
            corrupt(std::string("trailing bytes in ") + kTagNames[tag] + " frame");
    }
    if (!sawTag[kTagMeta] || !sawTag[kTagRecords]) corrupt("missing mandatory frame");

    // Cross-field validation: record indices must be unique and in range;
    // the best pointer must agree with a persisted successful record.
    std::vector<char> seen(static_cast<std::size_t>(state.runs), 0);
    for (const CheckpointStart& d : state.done) {
        if (d.run < 0 || d.run >= state.runs)
            corrupt("record run index " + std::to_string(d.run) + " out of range");
        if (seen[static_cast<std::size_t>(d.run)]++)
            corrupt("duplicate record for run " + std::to_string(d.run));
    }
    if (sawTag[kTagBest]) {
        if (state.bestRun < 0 || state.bestRun >= state.runs)
            corrupt("best run index out of range");
        bool matched = false;
        for (const CheckpointStart& d : state.done)
            if (d.run == state.bestRun) {
                if (d.record.status != StartStatus::kOk &&
                    d.record.status != StartStatus::kRetriedOk)
                    corrupt("best run is recorded as failed");
                if (d.record.cut != state.bestCut) corrupt("best cut disagrees with its record");
                matched = true;
            }
        if (!matched) corrupt("best run has no persisted record");
    }
    if (sawTag[kTagPartial]) {
        std::vector<char> partialSeen(static_cast<std::size_t>(state.runs), 0);
        for (const CheckpointPartial& p : state.partial) {
            if (p.run < 0 || p.run >= state.runs)
                corrupt("partial run index " + std::to_string(p.run) + " out of range");
            if (partialSeen[static_cast<std::size_t>(p.run)]++)
                corrupt("duplicate partial for run " + std::to_string(p.run));
            // A run cannot be both finished and in flight: a partial for a
            // run that also has a done record is a cross-field lie.
            if (seen[static_cast<std::size_t>(p.run)])
                corrupt("partial for a run that already completed");
        }
    }
    return state;
}

// ------------------------------------------------------------- file layer

Status saveCheckpoint(const std::string& path, const CheckpointState& state) {
    try {
        MLPART_FAULT_SITE("checkpoint.write");
    } catch (const std::exception& e) {
        // An injected failure here models "the write never happened" (disk
        // full, EIO): the run continues, only durability is lost.
        return Status::error(statusOf(e).code, "checkpoint write to " + path + " skipped: " +
                                                   statusOf(e).message);
    }
    const std::vector<std::uint8_t> bytes = serializeCheckpoint(state);
    try {
        MLPART_FAULT_SITE("checkpoint.torn");
    } catch (const std::exception& e) {
        // Deliberately bypass the atomic path and leave a half-written file
        // at the destination — the exact artifact a kernel crash mid-write
        // could produce on a filesystem without data journaling. The next
        // load must reject it cleanly and fall back to a fresh start.
        writeRawUnsafe(path, bytes.data(), bytes.size() / 2);
        return Status::error(statusOf(e).code, "torn checkpoint write injected at " + path);
    }
    return atomicWriteFile(path, bytes, "checkpoint");
}

CheckpointState loadCheckpoint(const std::string& path, std::uint64_t expectedFingerprint) {
    // EINTR-safe fd read (wire.h): the long-lived service installs signal
    // handlers without SA_RESTART, so stream reads in the same process can
    // come back short mid-checkpoint — the retry loop makes a signal storm
    // indistinguishable from a quiet load.
    std::vector<std::uint8_t> bytes;
    try {
        bytes = readFileDurable(path);
    } catch (const Error& e) {
        corrupt(std::string(e.what()));
    }
    // A zero-byte file is what a crash between open(O_TRUNC) and the first
    // write leaves behind on non-atomic writers; name it precisely instead
    // of reporting a generic short header.
    if (bytes.empty()) corrupt("empty checkpoint file (zero bytes): " + path);
    return parseCheckpoint(bytes.data(), bytes.size(), expectedFingerprint);
}

} // namespace mlpart::robust
