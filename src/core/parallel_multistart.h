// Deterministic parallel multi-start: the paper's experimental protocol
// (100 independent runs, keep min/avg/std) embarrassingly parallelized.
//
// Each run i derives its RNG stream from (seed, i) alone, and the winner
// is the lowest cut with the lowest run index breaking ties — so results
// are bit-identical for any thread count, including 1.
//
// Fault tolerance (DESIGN.md §8): every start runs isolated. A start that
// throws or produces an invalid partition is retried once with a reseeded
// RNG; if it fails again it is dropped and the surviving starts are
// salvaged. A wall-clock budget skips not-yet-started runs once expired
// (run 0 always executes, so a deadline alone never empties the result).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/run_stats.h"
#include "core/multilevel.h"
#include "robust/deadline.h"
#include "robust/run_report.h"

namespace mlpart {

struct MultiStartConfig {
    int runs = 100;     ///< the paper's protocol
    int threads = 0;    ///< 0 = hardware concurrency
    std::uint64_t seed = 1;
    /// Wall-clock budget in seconds; 0 = unlimited. Combined (earliest
    /// wins) with `deadline` below.
    double timeoutSeconds = 0.0;
    /// Externally supplied deadline (e.g. CLI --timeout + SIGINT flag).
    robust::Deadline deadline;
    /// Retries per failed start (reseeded RNG). 0 disables retry.
    int maxRetries = 1;
    /// Verify every start's partition (balance + cut recomputation) and
    /// treat violations as start failures. Cheap relative to a V-cycle.
    bool verifyResults = true;
    /// Checkpoint file path; empty disables checkpointing. Progress is
    /// written crash-consistently (temp file + fsync + atomic rename,
    /// DESIGN.md §10) every `checkpointEvery` completed starts and once
    /// more after the last start, so a killed run loses at most
    /// checkpointEvery-1 finished starts.
    std::string checkpointPath;
    /// Completed starts between checkpoint writes (>= 1).
    int checkpointEvery = 1;
    /// V-cycle-granularity checkpoints: also snapshot every in-flight
    /// start at each V-cycle boundary (incumbent partition + exact RNG
    /// stream state), so a killed run loses at most one V-cycle of work
    /// instead of whole starts. Only meaningful with vCycles > 1 and a
    /// checkpointPath; resuming such a snapshot is bit-identical to never
    /// having been interrupted. Observation/durability only — never part
    /// of the fingerprint, never changes results.
    bool checkpointEveryCycle = false;
    /// Load `checkpointPath` before running: starts it records are
    /// restored instead of re-run and the final result is bit-identical
    /// to an uninterrupted run. A missing, corrupt, or stale checkpoint
    /// falls back to a fresh run (recorded in
    /// MultiStartOutcome::resumeStatus) — it is never fatal.
    bool resume = false;
    /// Extra caller entropy folded into the checkpoint fingerprint. The
    /// refinement engine hides behind an opaque RefinerFactory, so the
    /// library cannot fingerprint it; callers hash their engine choice
    /// (and any other result-affecting knobs) here, usually as
    /// engineFingerprintSalt().
    std::uint64_t fingerprintSalt = 0;
};

struct MultiStartOutcome {
    Partition best;
    Weight bestCut = 0;
    int bestRun = -1;    ///< index of the winning run, -1 = none succeeded
    RunStats cuts;       ///< min/avg/std over the *successful* runs
    double seconds = 0.0;
    robust::RunReport report;  ///< per-start status, retries, failures
    int resumedStarts = 0;     ///< starts restored from the checkpoint
    /// Non-ok when a requested resume fell back to a fresh run (missing /
    /// corrupt / stale checkpoint — carries the parse error).
    robust::Status resumeStatus;
    /// Non-ok when a checkpoint write failed (e.g. injected torn write);
    /// the run itself still completes — losing a checkpoint only costs
    /// future resume work, never the current result.
    robust::Status checkpointStatus;

    /// True when at least one start produced a valid partition.
    [[nodiscard]] bool ok() const { return bestRun >= 0; }
};

/// The engine a job that names none runs: `clip` at k = 2 (the paper's
/// ML_C) and `fm` at k > 2, the paper's quadrisection engine (Sanchis
/// k-way FM); k-way CLIP cuts run 2-3x worse. The mlpart CLI's --engine
/// and a serve request's "engine" both default through it.
[[nodiscard]] inline const char* defaultEngine(PartId k) { return k == 2 ? "clip" : "fm"; }

/// An ML job's V-cycle settings and refinement engine.
struct MLEngine {
    MLConfig config;
    RefinerFactory factory;
};

/// Builds the ML run for `engine` ("fm" or "clip"; throws
/// robust::Error(kUsage) on any other name): coarsening stops at T = 100
/// modules when k > 2; refinement is bisection FM or CLIP at k = 2 and
/// k-way FM or k-way CLIP above. The mlpart CLI, serve workers and
/// mlpart_bench all build their partitioner through it.
[[nodiscard]] MLEngine makeMLEngine(const std::string& engine, PartId k, double tolerance,
                                    double matchingRatio, int vcycleThreads);

/// Salt for a job that partitions k ways with the named engine (`fm` or
/// `clip`): the engine name and the revision of the
/// engine that refines it — kBisectionEngineRevision for k = 2,
/// kKWayEngineRevision for k > 2. The mlpart CLI and serve workers use it
/// as MultiStartConfig::fingerprintSalt, and serve::requestFingerprint
/// folds it into result-cache keys, so checkpoints and cached results of
/// an older engine revision read as stale.
[[nodiscard]] std::uint64_t engineFingerprintSalt(const std::string& engine, PartId k);

/// Runs `cfg.runs` independent ML V-cycles in parallel and returns the
/// best result plus the cut statistics. Deterministic for fixed
/// (partitioner config, seed, runs) regardless of `threads`, including
/// which starts fail and retry under fault injection (retry streams are
/// derived from (seed, run, attempt) alone).
///
/// Throws robust::Error(kAllStartsFailed) only when *zero* starts
/// succeed; any other failure pattern is reported in `report` while the
/// surviving best partition is returned.
[[nodiscard]] MultiStartOutcome parallelMultiStart(const Hypergraph& h,
                                                   const MultilevelPartitioner& ml,
                                                   const MultiStartConfig& cfg);

} // namespace mlpart
