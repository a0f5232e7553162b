// PROP-style probabilistic-gain refinement (Dutt-Deng [13], Section II.A).
//
// Instead of the immediate cut change, every free module carries a move
// probability (initially 0.95) and gains are *expected* cut improvements
// under the assumption that neighbours move independently with their
// current probabilities:
//
//   g(v) = sum_e w(e) * ( prod_{u in e on v's side, u != v} p(u)
//                         - [no pin of e on the other side] *
//                           prod_{u in e on v's side, u != v} (1 - p(u)) )
//
// In the p -> 0 limit this is exactly the FM gain; with p = 0.95 it looks
// several moves ahead. Gains are continuous, so a lazy max-heap replaces
// the FM bucket array — which is why PROP costs a constant factor more
// than FM (the paper reports 4-8x). As in our FM engine, the *true* cut
// delta of each move is recomputed from pin counts, keeping the tracked
// cut exact. This engine is the "CL-PR" comparator column of Table VII
// (with an FM follow-up pass, the "f" suffix).
#pragma once

#include <queue>
#include <vector>

#include "refine/refiner.h"

namespace mlpart::refine {
struct Workspace; // refine/workspace.h
} // namespace mlpart::refine

namespace mlpart::robust {
class ThreadPool; // robust/thread_pool.h
} // namespace mlpart::robust

namespace mlpart {

struct PropConfig {
    double initialProb = 0.95; ///< initial per-module move probability
    double decay = 0.8;        ///< neighbour probability decay per adjacent move
    double tolerance = 0.1;
    int maxNetSize = 200;
    int maxPasses = 32;
};

class PropRefiner final : public Refiner {
public:
    PropRefiner(const Hypergraph& h, PropConfig cfg);

    Weight refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) override;
    [[nodiscard]] int lastPassCount() const override { return lastPassCount_; }

private:
    struct HeapEntry {
        double gain;
        std::uint64_t stamp;
        ModuleId v;
        bool operator<(const HeapEntry& o) const { return gain < o.gain; }
    };
    struct MoveRec {
        ModuleId v;
        PartId from;
        Weight delta;
    };

    [[nodiscard]] double probGain(ModuleId v, const Partition& part) const;
    void push(ModuleId v, const Partition& part);
    /// Best fresh feasible entry of side `s` (lazily discarding stale ones);
    /// returns kInvalidModule if none.
    ModuleId peekBest(int s, const Partition& part, const BalanceConstraint& bc);
    Weight applyMove(ModuleId v, Partition& part);
    void undoMoves(std::size_t count, Partition& part);
    Weight runPass(Partition& part, const BalanceConstraint& bc);

    const Hypergraph& h_;
    PropConfig cfg_;

    std::vector<char> activeNet_;
    std::vector<std::int32_t> pc_[2];
    std::vector<char> locked_;
    std::vector<double> prob_;
    std::vector<std::uint64_t> stamp_;
    std::priority_queue<HeapEntry> heap_[2];
    std::vector<MoveRec> moves_;
    Weight curActiveCut_ = 0;
    int lastPassCount_ = 0;
};

/// Tuning for parallelPrePass(). The round count is fixed (not
/// convergence-timed) so the pass's move sequence depends only on the
/// input, never on scheduling.
struct PrePassConfig {
    int rounds = 4;        ///< synchronous score/apply rounds
    int maxNetSize = 200;  ///< nets larger than this are ignored
};

/// What one parallelPrePass() call did.
struct PrePassResult {
    Weight gain = 0;        ///< total cut reduction
    std::int64_t moves = 0; ///< moves applied, over all rounds
};

/// Deterministic label-propagation-style parallel refinement pre-pass for
/// the large levels of the V-cycle (bipartitions only). Each round scores
/// every free module's immediate FM gain *in parallel* from pin counts
/// frozen at the round boundary (chunk-confined writes into ws.gains),
/// then applies the positive-gain candidates *serially* in (gain desc,
/// id asc) order, recomputing each move's live delta and honouring `bc`
/// — so the result is bit-identical for every thread count, a one-thread
/// (caller-only) pool included. It takes the single positive moves that
/// would otherwise cost FM whole passes; FM still runs afterwards and
/// keeps the final say.
[[nodiscard]] PrePassResult parallelPrePass(const Hypergraph& h, Partition& part,
                                            const BalanceConstraint& bc,
                                            const std::vector<char>& fixedMask,
                                            robust::ThreadPool& pool, refine::Workspace& ws,
                                            const PrePassConfig& cfg = {});

} // namespace mlpart
