// Configuration for the FM/CLIP bipartitioning engine.
#pragma once

#include <cstdint>
#include <vector>

#include "refine/gain_bucket.h"

namespace mlpart {

/// Engine variant (paper Section II).
enum class EngineVariant {
    kFM,   ///< classic Fiduccia-Mattheyses gains
    kCLIP, ///< Dutt-Deng CLIP: buckets concatenated into index 0 at pass start
};

[[nodiscard]] inline const char* toString(EngineVariant v) {
    return v == EngineVariant::kFM ? "FM" : "CLIP";
}

/// The paper's stopping rule as a pass cap (Fig. 2, §III.B): refinement
/// runs until a pass gains nothing, and a cap this high only guards
/// pathological cycling. Set FMConfig::maxPasses to it wherever a result
/// must reproduce the paper (the bench/ table and figure binaries, the
/// LSMC and two-phase comparators, the follow-up FM of Table VII).
inline constexpr int kPaperMaxPasses = 64;

/// Revision of the default k = 2 ML results (a default-config FMRefiner
/// inside the default V-cycle). Bump it whenever a change alters them:
/// engineFingerprintSalt (core/parallel_multistart.h) folds it for k = 2,
/// so checkpoints and cached serve results of an older revision read as
/// stale while k > 2 ones survive. Revision 1 stopped at the first pass
/// without gain (kPaperMaxPasses); 2 adds the 4-pass budget; 3 runs the
/// LP pre-pass in the serial V-cycle too (MLConfig::prePassMinModules).
inline constexpr std::uint64_t kBisectionEngineRevision = 3;

/// All knobs of the bipartition refinement engine. Defaults follow the
/// paper's configuration — LIFO buckets, r = 0.1 tolerance, nets with more
/// than 200 pins ignored during refinement — except the pass budget
/// (maxPasses), which ends refinement sooner than the paper's rule.
struct FMConfig {
    EngineVariant variant = EngineVariant::kFM;
    BucketPolicy policy = BucketPolicy::kLifo;
    /// Balance tolerance r; the refinement bound is
    /// A(V)/2 ± max(A(v*), r·A(V)) (paper §III.B).
    double tolerance = 0.1;
    /// Nets with more than this many pins are ignored during refinement
    /// and reinstated when measuring solution quality (paper §III.B).
    int maxNetSize = 200;
    /// Pass budget: refine() stops after this many passes or after the
    /// first pass without improvement, whichever comes first. The paper's
    /// rule runs 4-8 passes per fine level on golem3, and the passes after
    /// the fourth move many modules for little gain (EXPERIMENTS.md "FM
    /// pass budget"). kPaperMaxPasses restores the paper's natural stop.
    int maxPasses = 4;
    /// Krishnamurthy lookahead depth for tie-breaking: 0 or 1 = off,
    /// 2..4 = compare level-2..level-k gains among equal top-gain modules.
    int lookahead = 0;
    /// Max candidates examined per bucket when lookahead tie-breaking.
    int lookaheadWidth = 32;
    /// CDIP-style backtracking (Dutt-Deng): when the cumulative pass gain
    /// falls `cdipThreshold` below the best seen in the pass, undo back to
    /// the best prefix and block the first module of the failed sequence.
    bool cdip = false;
    Weight cdipThreshold = 4;
    int cdipMaxBacktracks = 4;
    /// Extension (paper "future work"): initialize buckets with boundary
    /// modules only; gains of others computed on demand.
    bool boundaryInit = false;
    /// Extension (paper "future work"): once a pass has improved the cut,
    /// abandon it when more than this fraction of the movable modules have
    /// been moved since the best prefix (0 disables). Before the first
    /// improvement the rule never fires, so it trims only a pass's
    /// unprofitable tail and never ends a level's refinement early.
    double earlyExitFraction = 0.0;
    /// Dasdan-Aykanat-style relaxed locking (Section II.B): each module
    /// may move up to this many times per pass (1 = classic FM locking).
    int movesPerPass = 1;
    /// Shin-Kim-style gradually tightening size constraints (Section
    /// II.B): early passes run under a relaxed tolerance that shrinks to
    /// the target over `tightenPasses` passes. 0 disables.
    double tightenStart = 0.0;
    int tightenPasses = 4;
    /// Modules that must keep their initial side (pre-assigned pads).
    /// Empty = none; otherwise one flag per module.
    std::vector<char> fixed;
};

} // namespace mlpart
