// Write-ahead job journal for the serve front end (DESIGN.md §16).
//
// Every admitted job is journaled before it is acknowledged, every
// dispatch and completion afterwards, so a SIGKILLed server restarted on
// the same --state-dir owes the world nothing it cannot repay: jobs with
// a Done record are *re-emitted* from the journal (never re-executed —
// zero duplicate side effects), jobs admitted but unfinished are
// *re-enqueued* with their original priority and seq, and the
// deterministic engine then reproduces their results bit-identically.
//
// `journal.wal` is an append-only sequence of robust/wire.h frames under
// magic 'MLJ2', one per record, tagged with the record type:
//
//   kAdmit  seq u64 | encodeJobRequest(req, 0) bytes
//   kStart  seq u64
//   kDone   seq u64 | JobResult codec (id, attempts, crashes, flags,
//           queueSeconds, encodeJobOutcome bytes)
//   kDrop   seq u64   — the job left the system with a non-result
//                       response (shed / cancelled / drained / orphaned);
//                       nothing to replay.
//
// Recovery never throws on damaged bytes: a torn tail — exactly what a
// crash mid-append leaves — or a record that fails the semantic checks
// is truncated after the last good frame and the journal continues from
// there; a pre-'MLJ2' journal is foreign and recovers empty. Admit
// records are deduplicated by seq (recovery re-journals pending jobs
// under their original seq before compacting, so a second crash in that
// window cannot double-execute anything).
//
// Compaction rewrites the file with only the still-outstanding records —
// at recovery (after the service has re-admitted the survivors) and at
// runtime after enough Done/Drop records have accumulated. Every write
// goes through robust/fs_shim.h, so the fs.* fault sites cover this file
// too; an append failure flips the journal into *degraded non-durable*
// mode (appends become no-ops, the service keeps running and flags it in
// status) instead of taking the service down.
#pragma once

#if !defined(_WIN32)

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "robust/status.h"
#include "serve/job.h"

namespace mlpart::serve {

class Journal {
public:
    /// One journaled-but-unfinished job: re-enqueue it under its original
    /// seq (priority rides inside the request).
    struct RecoveredJob {
        std::uint64_t seq = 0;
        bool started = false; ///< a dispatcher had picked it up pre-crash
        JobRequest req;
    };

    /// What a restart owes: results to re-emit and jobs to re-run.
    struct Recovery {
        std::vector<RecoveredJob> pending; ///< admitted, no Done — re-enqueue
        std::vector<JobResult> completed;  ///< Done — re-emit, NEVER re-execute
        std::uint64_t maxSeq = 0;          ///< resume seq allocation above this
        std::int64_t truncatedBytes = 0;   ///< torn/corrupt tail dropped
        bool unreadable = false;           ///< journal could not be read at all
    };

    /// Opens (creating when absent) `<stateDir>/journal.wal`.
    explicit Journal(const std::string& stateDir);
    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /// Scans the journal and returns the recovery plan. Never throws on
    /// damaged content: a torn tail is truncated in place, an unreadable
    /// file degrades to an empty plan with `unreadable` set. Call once,
    /// before any append.
    [[nodiscard]] Recovery recover();

    /// Append one record. A failed append (full disk, injected fs.*
    /// fault) returns its Status and flips the journal into degraded
    /// non-durable mode — later appends are silent no-ops and the
    /// service keeps serving without durability.
    [[nodiscard]] robust::Status appendAdmit(std::uint64_t seq, const JobRequest& req);
    [[nodiscard]] robust::Status appendStart(std::uint64_t seq);
    [[nodiscard]] robust::Status appendDone(std::uint64_t seq, const JobResult& result);
    [[nodiscard]] robust::Status appendDrop(std::uint64_t seq);

    /// Rewrites the file with only the outstanding (not Done/Dropped)
    /// records. Called by the service once recovery re-admission is
    /// through, and internally after enough completions accumulate.
    [[nodiscard]] robust::Status compact();

    [[nodiscard]] bool degraded() const;
    [[nodiscard]] std::int64_t compactions() const;
    [[nodiscard]] const std::string& path() const { return path_; }

    /// Completions between automatic runtime compactions.
    static constexpr int kCompactEveryDones = 32;

private:
    struct Outstanding {
        std::vector<std::uint8_t> admitPayload; ///< seq + encoded request
        bool started = false;
    };

    [[nodiscard]] robust::Status appendLocked(std::uint32_t type,
                                              const std::vector<std::uint8_t>& payload);
    [[nodiscard]] robust::Status compactLocked();
    void reopenLocked();

    std::string path_;
    mutable std::mutex mu_;
    int fd_ = -1;
    bool degraded_ = false;
    bool recovered_ = false;
    std::int64_t compactions_ = 0;
    int donesSinceCompact_ = 0;
    /// Live outstanding jobs, keyed by seq (ordered: replay is in
    /// admission order).
    std::map<std::uint64_t, Outstanding> live_;
};

} // namespace mlpart::serve

#endif // !_WIN32
