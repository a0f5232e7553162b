// Configuration of the Sanchis-style multi-way FM refiner.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "hypergraph/types.h"
#include "refine/gain_bucket.h"

namespace mlpart {

/// Gain objective for multi-way moves (paper Section III.C: "we have
/// implemented the sum of cluster degrees, net cut, and generic gain
/// computations; our quadrisection results are reported for the sum of
/// degrees gain computation").
enum class KWayObjective {
    kNetCut,       ///< sum of w(e) over nets with span >= 2
    kSumOfDegrees, ///< sum of w(e) * (span(e) - 1)
};

[[nodiscard]] inline const char* toString(KWayObjective o) {
    return o == KWayObjective::kNetCut ? "net-cut" : "sum-of-degrees";
}

/// The paper's k-way pass (§III.C) as a move window: a pass moves modules
/// until no feasible move is left, and no pass ever reaches this window.
/// Set KWayConfig::moveWindow to it wherever a result must reproduce the
/// paper (table9_quadrisection, ablation_vcycles, the LSMC and two-phase
/// comparators): from random or kicked partitions a pass keeps improving
/// long after its previous best.
inline constexpr int kPaperMoveWindow = std::numeric_limits<int>::max();

/// Revision of what a default-config KWayFMRefiner computes. Bump it
/// whenever a change alters default k-way results: engineFingerprintSalt
/// (core/parallel_multistart.h) folds it for k > 2, so checkpoints and
/// cached serve results of an older revision read as stale. Revision 1
/// ran every pass until no feasible move was left (kPaperMoveWindow); 2
/// adds the move window.
inline constexpr std::uint64_t kKWayEngineRevision = 2;

/// All knobs of the k-way refinement engine. Defaults follow the paper's
/// quadrisection configuration (sum-of-degrees gains, LIFO buckets, no
/// lookahead), except the move window, which ends a pass sooner.
struct KWayConfig {
    KWayObjective objective = KWayObjective::kSumOfDegrees;
    BucketPolicy policy = BucketPolicy::kLifo;
    double tolerance = 0.1;
    int maxNetSize = 200;
    int maxPasses = 32;
    /// Move window: a non-CLIP pass ends once it has made this many moves
    /// past its best prefix (counted from the pass start until it first
    /// improves), then rolls back to that prefix. In ML k = 4 runs on all
    /// 23 Table I stand-ins every improvement came within 284 moves of the
    /// previous best, so 512 left their results unchanged, while a full
    /// pass moves two thirds or more of a level's modules (EXPERIMENTS.md
    /// "k-way pass window"). CLIP passes ignore it: concatenation defers
    /// their gains. kPaperMoveWindow restores the paper's pass.
    int moveWindow = 512;
    /// CLIP-style pass preprocessing (concatenate buckets into index 0).
    bool clip = false;
    /// Sanchis lookahead depth: 0/1 = off (the paper's quadrisection
    /// configuration, "Sanchis without lookahead"), 2..4 = break ties in
    /// the winning bucket by level-2..k gain vectors.
    int lookahead = 0;
    int lookaheadWidth = 16;
    /// Modules that must keep their initial block (pre-assigned I/O pads,
    /// Section III.C). Empty = none; otherwise one flag per module.
    std::vector<char> fixed;
};

} // namespace mlpart
