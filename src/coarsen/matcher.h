// Matching-based clustering algorithms for the coarsening phase.
//
// The paper's Match procedure (Fig. 3) visits modules in a random
// permutation and pairs each unmatched module v with the unmatched
// neighbour w maximizing
//
//     conn(v, w) = 1/(a(v)+a(w)) * sum_{e containing v and w} 1/(|e|-1),
//
// ignoring nets with more than ten pins. Crucially, matching stops once a
// fraction R (the matching ratio) of the modules has been matched — this is
// the mechanism that controls the speed of coarsening and hence the number
// of levels in the hierarchy (Section III.A). Random matching (Chaco) and
// heavy-edge matching (Metis, no area normalization) are provided as
// ablation baselines.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "coarsen/clustering.h"

namespace mlpart {

struct MatchConfig {
    /// Matching ratio R in (0, 1]: stop once matched/total >= R.
    double ratio = 1.0;
    /// Nets with more pins than this are ignored by conn() (paper: 10).
    int maxNetSize = 10;
    /// Modules flagged here are never matched (always singleton clusters);
    /// used to keep pre-assigned pads intact through the hierarchy. Empty
    /// means "none".
    std::vector<char> excluded;
    /// When non-empty (one block id per module), only modules in the same
    /// block may match. Iterated V-cycles use this so re-coarsening never
    /// merges across the current cut and the existing solution projects
    /// exactly onto every level of the new hierarchy.
    std::vector<PartId> sameBlockOnly;
};

/// Paper Fig. 3: connectivity matching with ratio control.
[[nodiscard]] Clustering matchClustering(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng);

/// Chaco-style random maximal matching: each module pairs with a uniformly
/// random unmatched neighbour.
[[nodiscard]] Clustering randomMatching(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng);

/// Metis-style heavy-edge matching: like matchClustering but scoring
/// sum 1/(|e|-1) without the area normalization.
[[nodiscard]] Clustering heavyEdgeMatching(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng);

/// Which matcher a multilevel configuration uses.
enum class CoarsenerKind { kConnectivityMatch, kRandomMatch, kHeavyEdgeMatch };

[[nodiscard]] const char* toString(CoarsenerKind k);

/// Dispatch helper.
[[nodiscard]] Clustering runMatcher(CoarsenerKind kind, const Hypergraph& h, const MatchConfig& cfg,
                                    std::mt19937_64& rng);

/// Pooled scratch for the deterministic parallel matcher. The per-worker
/// rows (conn accumulator + touched list) are sized to the pool's thread
/// count; `chunkMatched` to the level's chunk count; everything else is
/// per-module. Capacity only ever grows, so one warm V-cycle leaves
/// matchParallel allocation-free (the same discipline as CoarsenWorkspace).
struct MatchWorkspace {
    std::vector<ModuleId> proposal;   ///< per module: proposed mate this round
    std::vector<ModuleId> anchor;     ///< per module: round-0 proposal (two-hop pass)
    std::vector<ModuleId> mate;       ///< per module: committed mate (kInvalidModule = none)
    std::vector<std::int64_t> chunkMatched;     ///< per chunk: modules matched this round
    std::vector<std::vector<double>> conn;      ///< per worker: conn accumulator, all-zero between calls
    std::vector<std::vector<ModuleId>> touched; ///< per worker: touched-neighbour set

    void shrinkToFit() {
        std::vector<ModuleId>().swap(proposal);
        std::vector<ModuleId>().swap(anchor);
        std::vector<ModuleId>().swap(mate);
        std::vector<std::int64_t>().swap(chunkMatched);
        std::vector<std::vector<double>>().swap(conn);
        std::vector<std::vector<ModuleId>>().swap(touched);
    }

    [[nodiscard]] std::size_t capacityBytes() const {
        std::size_t n = proposal.capacity() * sizeof(ModuleId) +
                        anchor.capacity() * sizeof(ModuleId) +
                        mate.capacity() * sizeof(ModuleId) +
                        chunkMatched.capacity() * sizeof(std::int64_t) +
                        conn.capacity() * sizeof(std::vector<double>) +
                        touched.capacity() * sizeof(std::vector<ModuleId>);
        for (const auto& row : conn) n += row.capacity() * sizeof(double);
        for (const auto& row : touched) n += row.capacity() * sizeof(ModuleId);
        return n;
    }
};

} // namespace mlpart

namespace mlpart::robust {
class ThreadPool; // robust/thread_pool.h
} // namespace mlpart::robust

namespace mlpart {

/// Deterministic round-based parallel matching (KaHyPar deterministic-mode
/// style). Unlike the sequential matchers above — whose greedy visit order
/// and per-candidate rng draws cannot be reproduced concurrently — this is
/// a synchronous proposal algorithm: each round every unmatched module
/// proposes its best eligible neighbour under the matcher's rating
/// (connectivity, heavy-edge, or seeded-hash for kRandomMatch) with the
/// fixed (rating, pair-hash, lower-id) tie-break, and mutual proposals
/// match. Proposals are computed in parallel from state frozen at the
/// round boundary and written to per-module slots, so the result is
/// bit-identical for every thread count (including 1). Rounds stop at the
/// matching ratio (checked per round, so the ratio is honoured at round
/// granularity) or when a round matches nothing. If the ratio is still
/// unmet, a serial two-hop pass pairs unmatched modules whose round-0
/// proposals (anchors) coincide — in ascending anchor id, ascending module
/// id within an anchor — until the ratio is met; without it a star of
/// small nets loses one leaf to its hub per level. Cluster ids are
/// assigned by one ascending-module-id sweep — dense and deterministic.
[[nodiscard]] Clustering matchParallel(CoarsenerKind kind, const Hypergraph& h,
                                       const MatchConfig& cfg, std::uint64_t seed,
                                       robust::ThreadPool& pool, MatchWorkspace& ws);

} // namespace mlpart
