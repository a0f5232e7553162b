#include "serve/result_cache.h"

#include <algorithm>

#include "robust/fs_shim.h"
#include "robust/wire.h"

namespace mlpart::serve {

namespace {

// Persisted snapshot (`cache.bin`): robust/wire.h frames under magic
// 'MLR2' — a header frame carrying the version, then one entry frame of
// `fingerprint u64 | encodeJobOutcome bytes` per entry, oldest first.
constexpr std::uint32_t kCacheMagic = 0x32524C4DU; // "MLR2"
constexpr std::uint32_t kCacheVersion = 2;
constexpr std::uint32_t kTagHeader = 0;
constexpr std::uint32_t kTagEntry = 1;
constexpr std::uint64_t kMaxEntryBytes = std::uint64_t{1} << 28;

std::vector<std::uint8_t> headerPayload() {
    robust::WireWriter w;
    w.u32(kCacheVersion);
    return std::move(w.bytes);
}

/// A persisted outcome must be something the live insert path could have
/// produced: a clean OK result with a real partition. Anything else is a
/// lie (hand-edited or cross-field-corrupted file) and must be dropped —
/// a poisoned cache entry served as a hit would silently change results.
bool plausibleOutcome(const JobOutcome& o) {
    return o.status.ok() && o.cut >= 0 && !o.deadlineHit;
}

} // namespace

bool ResultCache::lookup(std::uint64_t fingerprint, JobOutcome& out) {
    if (fingerprint == 0 || maxEntries_ <= 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(fingerprint);
    if (it == index_.end()) {
        ++stats_.misses;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->outcome;
    ++stats_.hits;
    if (it->second->fromDisk) ++stats_.persistedHits;
    return true;
}

void ResultCache::insert(std::uint64_t fingerprint, const JobOutcome& outcome) {
    if (fingerprint == 0 || maxEntries_ <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(fingerprint);
    if (it != index_.end()) {
        it->second->outcome = outcome;
        it->second->fromDisk = false; // freshly computed beats loaded
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{fingerprint, outcome});
    index_[fingerprint] = lru_.begin();
    ++stats_.insertions;
    while (index_.size() > static_cast<std::size_t>(maxEntries_)) {
        index_.erase(lru_.back().fingerprint);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void ResultCache::invalidate(std::uint64_t fingerprint) {
    if (fingerprint == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(fingerprint);
    if (it == index_.end()) return;
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidations;
}

ResultCache::Stats ResultCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = static_cast<std::int64_t>(index_.size());
    return s;
}

robust::Status ResultCache::saveToFile(const std::string& path) const {
    std::vector<std::uint8_t> out;
    robust::appendFrame(out, kCacheMagic, kTagHeader, headerPayload());
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Oldest first so reloading re-inserts in LRU order and the most
        // recent entries end up at the front again.
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            robust::WireWriter entry;
            entry.u64(it->fingerprint);
            const std::vector<std::uint8_t> outcome = encodeJobOutcome(it->outcome);
            entry.bytes.insert(entry.bytes.end(), outcome.begin(), outcome.end());
            robust::appendFrame(out, kCacheMagic, kTagEntry, entry.bytes);
        }
    }
    return robust::atomicWriteFile(path, out, "result-cache");
}

int ResultCache::loadFromFile(const std::string& path) {
    if (maxEntries_ <= 0) return 0;
    std::vector<std::uint8_t> bytes;
    try {
        bytes = robust::readFileDurable(path);
    } catch (const robust::Error&) {
        return 0; // missing or unreadable snapshot: cold cache, not an error
    }
    // A foreign, older-format or damaged header drops the whole file.
    const robust::FrameScan scan =
        robust::scanFrames(bytes.data(), bytes.size(), kCacheMagic, kMaxEntryBytes);
    const std::vector<std::uint8_t> header = headerPayload();
    if (scan.frames.empty() || scan.frames.front().tag != kTagHeader ||
        !std::equal(scan.frames.front().payload, scan.frames.front().end(), header.begin(),
                    header.end()))
        return 0;

    // Entries load up to the first damaged frame: past a CRC failure no
    // length field can be trusted. That frame, had it been whole, was an
    // entry; a torn or forged-length tail was not.
    int loaded = 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (scan.stop == robust::FrameStop::kCrcMismatch) ++stats_.loadRejected;
    for (std::size_t i = 1; i < scan.frames.size(); ++i) {
        const robust::Frame& f = scan.frames[i];
        std::uint64_t fingerprint = 0;
        JobOutcome outcome;
        try {
            robust::WireReader in = f.reader();
            fingerprint = in.u64();
            outcome = decodeJobOutcome(f.payload + in.pos, in.remaining());
        } catch (const robust::Error&) {
            ++stats_.loadRejected;
            continue;
        }
        if (f.tag != kTagEntry || fingerprint == 0 || !plausibleOutcome(outcome)) {
            ++stats_.loadRejected;
            continue;
        }
        if (index_.find(fingerprint) != index_.end()) continue; // live entry wins over disk
        lru_.push_front(Entry{fingerprint, outcome, /*fromDisk=*/true});
        index_[fingerprint] = lru_.begin();
        ++loaded;
        while (index_.size() > static_cast<std::size_t>(maxEntries_)) {
            index_.erase(lru_.back().fingerprint);
            lru_.pop_back();
        }
    }
    return loaded;
}

} // namespace mlpart::serve
