// ML — the paper's multilevel partitioning algorithm (Figure 2).
//
//   1. While |V_i| > T: cluster H_i with Match(H_i, R), induce H_{i+1}.
//   2. Partition the coarsest netlist H_m from a random start.
//   3. For i = m-1 .. 0: project the solution and refine it with the
//      configured iterative engine (FM or CLIP; Sanchis k-way for
//      quadrisection).
//
// The matching ratio R controls the speed of coarsening — R < 1 stops each
// matching early, yielding more hierarchy levels and hence more refinement
// opportunities (Section III.A, the paper's key mechanism). MLp in the
// paper = FM engine, MLc = CLIP engine; both are obtained by passing the
// corresponding factory.
#pragma once

#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "coarsen/coarsen_kernel.h"
#include "coarsen/matcher.h"
#include "hypergraph/partition.h"
#include "refine/profile.h"
#include "refine/refiner.h"
#include "refine/workspace.h"
#include "robust/deadline.h"
#include "robust/thread_pool.h"

namespace mlpart {

/// Pooled scratch for a whole V-cycle (coarsening kernel + refinement
/// engines). Create one per worker thread and pass it to run(): buffer
/// capacity then persists across levels, cycles, and runs, leaving the
/// hot path allocation-free after the first (largest) level.
struct MLWorkspace {
    CoarsenWorkspace coarsen;
    refine::Workspace refine;
    MatchWorkspace match;

    /// The workspace's persistent thread pool for the deterministic
    /// parallel V-cycle (MLConfig::vcycleThreads > 0). Created on first
    /// use and kept across runs so multi-start never re-spawns threads;
    /// recreated only when the requested count changes.
    [[nodiscard]] robust::ThreadPool& ensurePool(int threads) {
        if (pool_ == nullptr || pool_->threads() != threads)
            pool_ = std::make_unique<robust::ThreadPool>(threads);
        return *pool_;
    }

    /// Returns all pooled capacity to the allocator. A long-lived service
    /// calls this (via core/workspace_pool.h) between jobs of very
    /// different sizes so one huge instance does not pin its high-water
    /// footprint for the rest of the process lifetime (ROADMAP
    /// "governor-aware workspace pools"). Parked pool threads are released
    /// too — they are part of the idle footprint.
    void shrinkToFit() {
        coarsen.shrinkToFit();
        refine.shrinkToFit();
        match.shrinkToFit();
        pool_.reset();
    }

    /// Bytes of heap capacity currently held by all pooled buffers.
    [[nodiscard]] std::size_t capacityBytes() const {
        return coarsen.capacityBytes() + refine.capacityBytes() + match.capacityBytes();
    }

private:
    std::unique_ptr<robust::ThreadPool> pool_;
};

/// Refinement profile of one hierarchy level of one V-cycle: the engine's
/// segment counters (refine/profile.h) plus the level's identity and what
/// the LP pre-pass did there (both 0 on levels it skips).
struct MLLevelProfile {
    int level = 0;       ///< hierarchy level: m = coarsest, 0 = flat netlist
    ModuleId modules = 0; ///< |V_level|
    refine::RefineProfile refine;
    std::int64_t prePassMoves = 0; ///< moves the LP pre-pass applied
    Weight prePassGain = 0;        ///< cut reduction of those moves
};

/// Wall-clock seconds per V-cycle phase, accumulated over all cycles of a
/// run() call. coarsen covers matching + induce, initial the coarsest-level
/// partitioning (and its refinement), refine the uncoarsening sweep
/// (project + rebalance + per-level refinement).
struct MLTimings {
    double coarsenSec = 0.0;
    /// coarsenSec split per level: match runs from the end of the previous
    /// level's induce to the clustering (an adaptive net-limit retry and
    /// the per-level bookkeeping count as match), induce is induceInto().
    /// They sum to coarsenSec up to the set-up before the first level.
    double matchSec = 0.0;
    double induceSec = 0.0;
    double initialSec = 0.0;
    double refineSec = 0.0;
    /// Per-level refinement profiles, in execution order (coarsest level
    /// first, level 0 last, repeated per V-cycle). Populated only when
    /// MLConfig::profileRefinement is set; empty otherwise — the engines
    /// then skip every profiling clock read on the hot path.
    std::vector<MLLevelProfile> levels;
};

struct MLConfig {
    /// Coarsening threshold T: stop coarsening once |V_i| <= T (paper uses
    /// T = 35 for bipartitioning, T = 100 for quadrisection).
    ModuleId coarseningThreshold = 35;
    /// Matching ratio R in (0, 1] (paper sweeps 1.0 / 0.5 / 0.33).
    double matchingRatio = 1.0;
    /// Balance tolerance r (paper: 0.1).
    double tolerance = 0.1;
    /// Number of blocks (2 = bipartitioning, 4 = quadrisection).
    PartId k = 2;
    /// Which matcher coarsens (connectivity Match by default; random and
    /// heavy-edge provided for ablation).
    CoarsenerKind coarsener = CoarsenerKind::kConnectivityMatch;
    /// Nets larger than this are invisible to conn() during matching
    /// (paper: 10).
    int matchNetSizeLimit = 10;
    /// When matching makes no progress before |V_i| reaches T (typically
    /// because every remaining net exceeds matchNetSizeLimit on a very
    /// coarse netlist), temporarily relax the limit and retry instead of
    /// stopping the coarsening early.
    bool adaptiveNetLimit = true;
    /// Safety bound on hierarchy depth.
    int maxLevels = 256;
    /// Random starts at the coarsest level, keeping the best refined one
    /// ("it may be worthwhile to spend more CPU time partitioning at these
    /// levels", Section V). 1 = the paper's configuration.
    int coarsestStarts = 1;
    /// When > 0, additionally run an LSMC chain with this many descents on
    /// the coarsest netlist and keep the best result (Section V: "...or
    /// using LSMC" at the top levels). Ignored when preassignment is set.
    int coarsestLSMCDescents = 0;
    /// Number of V-cycles (1 = the paper's algorithm). Cycles after the
    /// first re-coarsen with matching restricted to same-block pairs, so
    /// the incumbent solution projects exactly onto the new hierarchy and
    /// is refined again at every level (hMETIS-style iterated V-cycles).
    int vCycles = 1;
    /// Optional pre-assignment (Section III.C: e.g. I/O pads): one entry
    /// per module, kInvalidPart = free. Pre-assigned modules are kept as
    /// singleton clusters through the hierarchy and never moved.
    std::vector<PartId> preassignment;
    /// Optional per-block area targets as fractions of A(V) (size k, sum
    /// 1). Empty = uniform A(V)/k. Recursive bisection uses this for
    /// uneven splits (e.g. 3 blocks on one side, 2 on the other).
    std::vector<double> targetFractions;
    /// Optional matching groups (one id per module): coarsening only
    /// matches modules with equal group ids. The genetic hybrid
    /// (genetic/hybrid.h) uses parent-agreement classes here, following
    /// the GMetis idea of inheriting clustering constraints from good
    /// solutions. Empty = unconstrained.
    std::vector<PartId> matchGroups;
    /// Deterministic in-process parallelism for the V-cycle. 0 (default)
    /// = serial mode: the paper's Match and serial induce on the calling
    /// thread. >= 1 switches to the synchronous parallel algorithms
    /// (mutual-proposal matching, chunked induce) whose results are
    /// bit-identical for EVERY value >= 1 — the thread count is an
    /// execution resource, never an input (DESIGN.md §12).
    int vcycleThreads = 0;
    /// k = 2 only, in both modes: levels with at least this many modules
    /// get the deterministic LP-style refinement pre-pass before FM;
    /// smaller levels go straight to FM. 0 = never (the paper's V-cycle,
    /// bench::paperML()); otherwise it must be >= 2.
    ModuleId prePassMinModules = 4096;
    /// Collect per-level refinement profiles into MLTimings::levels
    /// (mlpart_bench --profile). Observation only — never changes results —
    /// and therefore deliberately NOT part of configFingerprint().
    bool profileRefinement = false;
};

/// Revision of the parallel V-cycle's algorithms (MLConfig::vcycleThreads
/// > 0). Bump it whenever a change alters parallel-mode results: both
/// configFingerprint and serve::requestFingerprint fold it for parallel
/// mode only, so parallel checkpoints and cached results written by an
/// older revision read as stale while serial ones survive. Revision 1 was
/// mutual-proposal matching alone; 2 adds the two-hop pass.
inline constexpr std::uint64_t kParallelVCycleRevision = 2;

/// Stable hash of every MLConfig field that influences results — the
/// configuration component of the checkpoint fingerprint (DESIGN.md §10).
/// Two configs that could produce different partitions must hash
/// differently; keep in sync with the MLConfig field list.
[[nodiscard]] std::uint64_t configFingerprint(const MLConfig& cfg);

struct MLResult {
    Partition partition;            ///< refined partition of H_0
    Weight cut = 0;                 ///< exact cut weight on H_0
    std::int64_t cutNetCount = 0;   ///< unweighted cut nets (tables report this)
    int levels = 0;                 ///< m, number of coarsening levels used
    std::vector<ModuleId> levelModules; ///< |V_i| for i = 0..m
    MLTimings timings;              ///< per-phase wall time of this run
};

/// Where to pick up a run interrupted at a V-cycle boundary: the incumbent
/// best partition after `cyclesDone` completed cycles. The caller must also
/// have restored the rng to the stream state captured alongside the
/// incumbent — continuing from (incumbent, rng state) is then bit-identical
/// to never having been interrupted (the cycle loop reads no other state).
struct MLCycleResume {
    int cyclesDone = 0;            ///< completed V-cycles (>= 1)
    const Partition* best = nullptr; ///< incumbent after those cycles
};

/// Observer invoked after each completed V-cycle with the cycles done so
/// far, the incumbent, its cut, and the rng whose state replays the rest of
/// the run. Deliberately not called after the final cycle — the finished
/// result goes through the caller's normal completion path, so a snapshot
/// there would only duplicate it. Used for V-cycle-granularity checkpoints
/// (MultiStartConfig::checkpointEveryCycle).
using MLCycleObserver = std::function<void(int cyclesDone, const Partition& best, Weight cut,
                                           const std::mt19937_64& rng)>;

/// The ML driver. Construct once, run many times (multi-start).
class MultilevelPartitioner {
public:
    MultilevelPartitioner(MLConfig cfg, RefinerFactory refinerFactory);

    /// One full V-cycle; deterministic given the rng state.
    [[nodiscard]] MLResult run(const Hypergraph& h0, std::mt19937_64& rng) const;

    /// As above under a cooperative wall-clock budget. When the deadline
    /// expires the driver stops coarsening, skips remaining refinement, and
    /// finishes the mandatory project + rebalance steps so the returned
    /// partition is always valid and balanced — the best found so far.
    [[nodiscard]] MLResult run(const Hypergraph& h0, std::mt19937_64& rng,
                               const robust::Deadline& deadline) const;

    /// As above with caller-pooled scratch: `ws` supplies every coarsening
    /// and refinement buffer and must outlive the call. Reusing one
    /// workspace across runs (multi-start) makes the steady-state V-cycle
    /// allocation count O(levels) instead of O(levels x modules).
    [[nodiscard]] MLResult run(const Hypergraph& h0, std::mt19937_64& rng,
                               const robust::Deadline& deadline, MLWorkspace& ws) const;

    /// As above with V-cycle-boundary hooks. `resume` (nullable) skips the
    /// already-completed cycles and continues from the restored incumbent;
    /// `observer` (nullable) fires after every completed cycle except the
    /// last. Both default paths (resume == nullptr, empty observer) are
    /// byte-identical to the plain overload.
    [[nodiscard]] MLResult run(const Hypergraph& h0, std::mt19937_64& rng,
                               const robust::Deadline& deadline, MLWorkspace& ws,
                               const MLCycleResume* resume,
                               const MLCycleObserver& observer) const;

    [[nodiscard]] const MLConfig& config() const { return cfg_; }

private:
    /// One V-cycle. `warm` (nullable) is an incumbent solution: coarsening
    /// is then restricted to same-block matches and the projected incumbent
    /// seeds the coarsest-level refinement. `info` (nullable) receives the
    /// level statistics; `timings` (nullable) accumulates phase wall time.
    [[nodiscard]] Partition runCycle(const Hypergraph& h0, std::mt19937_64& rng,
                                     const Partition* warm, MLResult* info,
                                     const robust::Deadline& deadline, MLWorkspace& ws,
                                     MLTimings* timings) const;

    MLConfig cfg_;
    RefinerFactory factory_;
};

} // namespace mlpart
