// Crash-safe checkpoint persistence for long multi-start runs.
//
// A checkpoint snapshots the progress of parallelMultiStart — which starts
// have completed (with their full StartRecord), the incumbent best
// partition, and a fingerprint of everything that determines the result
// (instance + configuration + seed) — so a process killed hard (OOM
// killer, scheduler preemption, SIGKILL) can resume and still produce a
// final result bit-identical to the uninterrupted run. Per-start results
// depend only on (seed, run, attempt), so restoring the completed subset
// and re-running the rest reconstructs exactly the state the interrupted
// process would have reached.
//
// Format (version 2, DESIGN.md §10): a sequence of robust/wire.h frames
// under magic 'MLC2' — a header frame (version, fingerprint), then meta,
// records, and the optional best and partial frames. The file must scan
// to its last byte, so truncation, bit rot, and torn writes are all
// detected before any payload is trusted; the loader throws
// Error(kParseError) and the caller falls back to a fresh start; a
// version-1 ('MLCK') file is foreign and takes the same path. Writes are
// crash-consistent: serialize fully, write to `path.tmp`, fsync,
// atomically rename over `path`, fsync the directory — a crash at any
// instant leaves either the previous checkpoint or the new one, never a
// mix (the "checkpoint.torn" fault-injection site exists precisely to
// manufacture the torn files this scheme rules out).
//
// This layer stores the best partition as an opaque byte blob: encoding a
// Partition against its Hypergraph lives in hypergraph/io.h, keeping
// robust dependency-free at the bottom of the stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robust/run_report.h"
#include "robust/status.h"
#include "robust/wire.h" // crc32

namespace mlpart::robust {

/// Combines two 64-bit hashes (splitmix-style avalanche); used to build
/// the config fingerprint from instance/config/seed components.
[[nodiscard]] std::uint64_t hashCombine(std::uint64_t h, std::uint64_t v);

/// One completed start as persisted: its run index plus the full record.
struct CheckpointStart {
    std::int32_t run = -1;
    StartRecord record;
};

/// Mid-start progress of an in-flight run at a V-cycle boundary
/// (MLConfig::vCycles > 1 with checkpointEveryCycle): the incumbent
/// partition, its cut, the exact RNG stream state, and how many cycles
/// produced it. Restoring all four and continuing at cycle `cyclesDone`
/// is bit-identical to never having been interrupted, so a kill loses at
/// most one V-cycle of the run instead of the whole start.
struct CheckpointPartial {
    std::int32_t run = -1;
    std::int32_t attempt = 0;    ///< retry attempt this progress belongs to
    std::int32_t cyclesDone = 0; ///< completed V-cycles (>= 1)
    std::int64_t cut = 0;        ///< incumbent cut (cross-checked on restore)
    std::string rngState;        ///< mt19937_64 stream state (operator<< form)
    std::vector<std::uint8_t> blob; ///< encoded incumbent partition (io.h codec)
};

/// Everything a resumed run needs. `fingerprint` must cover the instance,
/// the partitioner configuration, and the multi-start parameters — a
/// checkpoint is only ever applied to the exact run shape that wrote it.
struct CheckpointState {
    std::uint64_t fingerprint = 0;
    std::uint64_t seed = 0;      ///< multi-start base seed (sanity cross-check)
    std::int32_t runs = 0;       ///< total requested starts
    std::vector<CheckpointStart> done; ///< completed starts (ok / retried / failed)
    std::int32_t bestRun = -1;   ///< winning run among `done`, -1 = none succeeded
    std::int64_t bestCut = 0;
    std::vector<std::uint8_t> bestBlob; ///< encoded best partition (io.h codec)
    /// V-cycle-boundary snapshots of runs still in flight (one per run at
    /// most, never for a run in `done`). Optional frame; absent in
    /// checkpoints written without per-cycle granularity.
    std::vector<CheckpointPartial> partial;
};

/// Serializes `state` to the version-2 frame sequence (no file involved);
/// exposed so tests can corrupt it surgically.
[[nodiscard]] std::vector<std::uint8_t> serializeCheckpoint(const CheckpointState& state);

/// Parses bytes produced by serializeCheckpoint. Throws Error(kParseError)
/// on any structural damage or when `expectedFingerprint` (if nonzero)
/// does not match the stored fingerprint ("stale config fingerprint").
[[nodiscard]] CheckpointState parseCheckpoint(const std::uint8_t* data, std::size_t size,
                                              std::uint64_t expectedFingerprint = 0);

/// Crash-consistent write: temp file + fsync + atomic rename + directory
/// fsync. Never throws — a run that cannot checkpoint should keep
/// computing, so failures (including injected ones at the
/// "checkpoint.write" / "checkpoint.torn" sites) come back as a Status
/// the caller may report.
[[nodiscard]] Status saveCheckpoint(const std::string& path, const CheckpointState& state);

/// Reads and validates a checkpoint file. Throws Error(kParseError) on a
/// missing, truncated, corrupt, wrong-version, or stale-fingerprint file;
/// callers treat that as "no usable checkpoint" and start fresh.
[[nodiscard]] CheckpointState loadCheckpoint(const std::string& path,
                                             std::uint64_t expectedFingerprint = 0);

} // namespace mlpart::robust
