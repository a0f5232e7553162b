// Sanchis-style multi-way FM refinement (paper Section III.C), used for
// quadrisection — without lookahead, exactly as the paper configures it.
//
// One gain bucket exists per ordered block pair (p, q): it holds the
// modules of block p keyed by the gain of moving to q. A move updates its
// free neighbours' gains by deltas read from each of its nets' pre-move
// pin counts in the moved-from and moved-to blocks, accumulated in the
// one traversal that updates the counts (O(pins of its nets) plus O(k)
// per neighbour); a net with more than two pins in the moved-from block
// and more than one in the moved-to block before the move changes no
// gain. As in the bipartition engine, the true objective delta is
// measured from pin counts at move time, so the tracked objective cannot
// drift. A non-CLIP pass ends at its move window
// (KWayConfig::moveWindow moves past its best prefix) or when no feasible
// move is left, then rolls back to that prefix.
#pragma once

#include <memory>
#include <vector>

#include "kway/kway_config.h"
#include "refine/profile.h"
#include "refine/refiner.h"
#include "refine/workspace.h"

namespace mlpart {

class KWayFMRefiner final : public Refiner {
public:
    KWayFMRefiner(const Hypergraph& h, KWayConfig cfg);

    /// Refines a k-way partition (k = part.numParts(), k >= 2); returns the
    /// exact final *net-cut weight* (the metric Table IX reports),
    /// regardless of the optimized objective.
    Weight refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) override;

    [[nodiscard]] int lastPassCount() const override { return lastPassCount_; }
    void setDeadline(const robust::Deadline& deadline) override { deadline_ = deadline; }
    void setWorkspace(refine::Workspace* ws) override { ws_ = ws; }
    void setProfile(refine::RefineProfile* profile) override { profile_ = profile; }
    /// Final value of the configured objective after the last refine().
    [[nodiscard]] Weight lastObjective() const { return curObjective_; }

private:
    [[nodiscard]] std::int32_t& count(NetId e, PartId p) {
        return counts_[static_cast<std::size_t>(e) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(p)];
    }
    [[nodiscard]] std::int32_t count(NetId e, PartId p) const {
        return counts_[static_cast<std::size_t>(e) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(p)];
    }
    [[nodiscard]] GainBucketArray& bucket(PartId p, PartId q) {
        return buckets_[static_cast<std::size_t>(p) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(q)];
    }
    [[nodiscard]] const GainBucketArray& bucket(PartId p, PartId q) const {
        return buckets_[static_cast<std::size_t>(p) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(q)];
    }

    void initNetState(const Partition& part);
    /// Gain of moving v from its block to q under the configured objective.
    [[nodiscard]] Weight moveGain(ModuleId v, PartId q, const Partition& part) const;
    /// Pass-start gains of v toward *all* k targets in one traversal of its
    /// nets, using the frozen-count bitmasks (k <= 64). out[q] is written
    /// for every q != part.part(v); out[p] is untouched. Bit-identical to
    /// k separate moveGain() calls.
    void moveGainsAll(ModuleId v, const Partition& part, Weight* out) const;
    void buildBuckets(const Partition& part);
    /// Moves v to `to`, locks it and updates counts, spans, the objective
    /// and its free neighbours' gains; returns the objective reduction.
    Weight applyMove(ModuleId v, PartId to, Partition& part);
    void undoMoves(std::size_t n, Partition& part);
    Weight runPass(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng);

    const Hypergraph& h_;
    KWayConfig cfg_;
    PartId k_ = 0;
    robust::Deadline deadline_;
    Area minArea_ = 0; ///< smallest module area; no-feasible-move scan shortcut

    /// Sanchis level-`depth` lookahead gain for moving v to q (depth >= 2).
    [[nodiscard]] Weight lookaheadGain(ModuleId v, PartId q, int depth, const Partition& part) const;

#if MLPART_CHECK_INVARIANTS
    /// Invariant hook (src/check): diffs realGain_, the displayed bucket
    /// gains (non-CLIP), per-net block pin counts/spans, the locked-pin
    /// counts (lookahead >= 2), and the running objective against naive
    /// recomputation; aborts on any mismatch.
    void auditGainState(const Partition& part, const char* where) const;
    std::int64_t movesSinceAudit_ = 0;
#endif

    /// Pooled workspace resolution: the externally supplied one, else a
    /// lazily created private fallback (standalone use).
    [[nodiscard]] refine::Workspace& ensureWorkspace();

    // Per-refine() working state lives in the workspace; these are cursors
    // into its buffers, refreshed whenever the buffers are (re)assigned.
    refine::Workspace* ws_ = nullptr;
    std::unique_ptr<refine::Workspace> owned_; ///< fallback when none is set
    refine::RefineProfile* profile_ = nullptr; ///< null = profiling off
    char* activeNet_ = nullptr;
    std::int32_t* counts_ = nullptr;       ///< per (net, block) pin counts
    /// Per (net, block): pins moved this pass. Maintained only when
    /// trackLockedPins_ (lookahead >= 2), the one reader.
    std::int32_t* lockedCounts_ = nullptr;
    bool trackLockedPins_ = false;
    PartId* span_ = nullptr;               ///< per net: number of non-empty blocks
    char* locked_ = nullptr;
    GainBucketArray* buckets_ = nullptr; ///< k*k, diagonal unused
    Weight* realGain_ = nullptr;         ///< per (module, target): true gain backing the (possibly CLIP-distorted) bucket priority
    std::uint64_t* cnt1Mask_ = nullptr;  ///< pass-start: bit q of [e] = block q has exactly 1 pin of e
    std::uint64_t* cnt0Mask_ = nullptr;  ///< pass-start: bit q of [e] = block q has no pin of e
    std::uint32_t* touchSlot_ = nullptr; ///< per module: 1 + slot in kTouchList during applyMove, else 0
    Weight curObjective_ = 0;
    int lastPassCount_ = 0;
};

/// Factory for the multilevel driver: the per-level fixed mask is merged
/// into the configuration.
[[nodiscard]] RefinerFactory makeKWayFactory(KWayConfig cfg);

} // namespace mlpart
