// Fiduccia-Mattheyses bipartition refinement with the paper's engine
// options: LIFO/FIFO/RANDOM bucket organization, CLIP pass preprocessing,
// Krishnamurthy lookahead tie-breaking, CDIP-style backtracking, and the
// boundary-initialization / early-pass-exit extensions listed as future
// work in Section V.
//
// Correctness note: bucket priorities are what the heuristic *believes*
// (and CLIP deliberately distorts them); the true cut delta of every move
// is recomputed from net pin counts at move time, so the tracked cut can
// never drift from reality regardless of priority scheme. Tests assert
// this invariant.
#pragma once

#include <memory>
#include <vector>

#include "refine/fm_config.h"
#include "refine/gain_bucket.h"
#include "refine/profile.h"
#include "refine/refiner.h"
#include "refine/workspace.h"

namespace mlpart {

class FMRefiner final : public Refiner {
public:
    FMRefiner(const Hypergraph& h, FMConfig cfg);

    /// Runs FM passes until a pass yields no improvement or the pass
    /// budget (FMConfig::maxPasses) is spent, whichever comes first.
    /// Returns the exact cut weight including nets ignored during
    /// refinement. Requires a 2-way partition.
    Weight refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) override;

    [[nodiscard]] int lastPassCount() const override { return lastPassCount_; }
    void setDeadline(const robust::Deadline& deadline) override { deadline_ = deadline; }
    void setWorkspace(refine::Workspace* ws) override { ws_ = ws; }
    void setProfile(refine::RefineProfile* profile) override { profile_ = profile; }
    /// Accepted (not rolled back) moves across all passes of the last run.
    [[nodiscard]] std::int64_t lastMoveCount() const { return lastMoveCount_; }
    /// Nets skipped during refinement because they exceed maxNetSize.
    [[nodiscard]] NetId ignoredNets() const { return ignoredNets_; }
    [[nodiscard]] const FMConfig& config() const { return cfg_; }

private:
    void initNetState(const Partition& part);
    [[nodiscard]] Weight computeGain(ModuleId v, const Partition& part) const;
    [[nodiscard]] bool isBoundary(ModuleId v, const Partition& part) const;
    void buildBuckets(const Partition& part);
    /// One improvement pass; returns the accepted gain (>= 0).
    Weight runPass(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng);
    /// Applies the move of v, updating pin counts, buckets, and locks;
    /// returns the true cut delta (positive = improvement).
    Weight applyMove(ModuleId v, Partition& part);
    /// Reverts the latest `count` moves in moves_ (popping them).
    void undoMoves(std::size_t count, Partition& part);
    [[nodiscard]] ModuleId selectMove(const Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng);
    /// Level-`depth` Krishnamurthy gain vector entry for v (depth >= 2).
    [[nodiscard]] Weight lookaheadGain(ModuleId v, int depth, const Partition& part) const;

#if MLPART_CHECK_INVARIANTS
    /// Invariant hook (src/check): diffs every bucketed module's believed
    /// gain (CLIP distortion undone via checkBase_) and the tracked active
    /// cut against naive recomputation from the assignment; aborts on any
    /// mismatch. Compiled out entirely unless MLPART_CHECK_INVARIANTS.
    void auditGainState(const Partition& part, const char* where) const;
#endif

    /// Pooled workspace resolution: the externally supplied one, else a
    /// lazily created private fallback (standalone use).
    [[nodiscard]] refine::Workspace& ensureWorkspace();

    const Hypergraph& h_;
    FMConfig cfg_;
    robust::Deadline deadline_;
    Area minArea_ = 0; ///< smallest module area; selectMove's no-feasible-move shortcut
    bool trackLockedPins_ = false; ///< maintain lockedPc_ (only lookahead >= 2 reads it)

    // Per-refine() working state lives in the workspace; these are cursors
    // into its buffers, refreshed whenever the buffers are (re)assigned.
    refine::Workspace* ws_ = nullptr;
    std::unique_ptr<refine::Workspace> owned_; ///< fallback when none is set
    refine::RefineProfile* profile_ = nullptr; ///< null = profiling off
    /// Per-net hot records {pc0, pc1, w}; pc[0] < 0 marks an inactive net.
    perf::NetHot* nh_ = nullptr;
    std::int32_t* lockedPc_ = nullptr; ///< locked pins (lookahead), [2e + side]
    /// Per-module move state: bit 0 locked this pass, bit 1 CDIP-blocked.
    char* state_ = nullptr;
    std::int32_t* moveCount_ = nullptr; ///< per-pass moves (relaxed locking)
    GainBucketArray* bucket_[2] = {nullptr, nullptr};
#if MLPART_CHECK_INVARIANTS
    /// Believed true gain minus displayed bucket gain per module (nonzero
    /// only in CLIP mode, where displayed gains are relative to the
    /// concatenation point).
    std::vector<Weight> checkBase_;
    std::int64_t movesSinceAudit_ = 0;
#endif
    Weight curActiveCut_ = 0;
    NetId ignoredNets_ = 0;
    int lastPassCount_ = 0;
    std::int64_t lastMoveCount_ = 0;
};

} // namespace mlpart
