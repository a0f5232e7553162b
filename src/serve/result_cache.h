// Bounded result cache for the serve front end (DESIGN.md §13).
//
// Keyed by requestFingerprint() — (instance content, k, tolerance bits,
// ratio bits, engine, runs, seed, parallel-mode marker) — which is only
// non-zero for requests whose result is a pure function of that key:
// no fault spec, no checkpoint/resume, no out-file side effect. Because
// the engine is bit-deterministic (PR 6), a hit replays the exact cut and
// partition CRC a cold run would produce; the tests assert that
// bit-identity, not just "same status".
//
// LRU with a fixed entry budget. Fault-armed jobs explicitly invalidate
// their key (the fault may have poisoned what a concurrent cold run
// inserted). Thread-safe; every dispatcher and the admission path share
// one instance.
//
// Persistence (--state-dir, DESIGN.md §16): the cache can snapshot itself
// to `cache.bin` and reload after a restart, so repeat requests across
// process lifetimes still hit. The file is a header frame plus one
// robust/wire.h frame per entry, fingerprint inside the CRC. A foreign,
// older-format or damaged header drops the file whole; entries load up
// to the first damaged frame; a CRC-valid but *lying* entry (undecodable
// outcome, non-ok status, negative cut) is dropped individually — a
// poisoned cache must never change a result, only cost a cold re-run.
// Hits on disk-loaded entries are counted separately (persisted_hits) so
// the restart benefit is observable.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "robust/status.h"
#include "serve/job.h"

namespace mlpart::serve {

class ResultCache {
public:
    /// `maxEntries` <= 0 disables the cache (lookups miss, inserts drop).
    explicit ResultCache(int maxEntries) : maxEntries_(maxEntries) {}

    struct Stats {
        std::int64_t entries = 0;
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t insertions = 0;
        std::int64_t evictions = 0;
        std::int64_t invalidations = 0;
        /// Of `hits`, how many were served by an entry loaded from disk —
        /// the cross-restart payoff of --state-dir.
        std::int64_t persistedHits = 0;
        /// Entries dropped while loading (CRC-damaged, undecodable, lying).
        std::int64_t loadRejected = 0;
    };

    /// On a hit, copies the cached outcome into `out` and refreshes the
    /// entry's recency. Fingerprint 0 (uncacheable) always misses.
    [[nodiscard]] bool lookup(std::uint64_t fingerprint, JobOutcome& out);

    /// Inserts or refreshes `fingerprint`, evicting the least recently
    /// used entry past the budget. Fingerprint 0 is ignored.
    void insert(std::uint64_t fingerprint, const JobOutcome& outcome);

    /// Drops `fingerprint` if present (fault-armed job touching this key).
    void invalidate(std::uint64_t fingerprint);

    [[nodiscard]] Stats stats() const;

    /// Snapshots every entry to `path` crash-consistently (fs shim:
    /// temp + fsync + rename). Returns the write status; a failure costs
    /// only cross-restart hits, never the in-memory cache.
    [[nodiscard]] robust::Status saveToFile(const std::string& path) const;

    /// Loads a snapshot written by saveToFile. Never throws: a missing
    /// file or damaged header loads nothing; loading stops at the first
    /// damaged entry; a lying entry is skipped (both counted in
    /// Stats::loadRejected; a torn tail is not). Returns entries
    /// loaded. Loaded entries are marked so their hits show up as
    /// persisted_hits.
    int loadFromFile(const std::string& path);

private:
    struct Entry {
        std::uint64_t fingerprint;
        JobOutcome outcome;
        bool fromDisk = false;
    };

    const int maxEntries_;
    mutable std::mutex mu_;
    std::list<Entry> lru_; // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    Stats stats_;
};

} // namespace mlpart::serve
