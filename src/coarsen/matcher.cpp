#include "coarsen/matcher.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "robust/thread_pool.h"

namespace mlpart {

namespace {

void checkConfig(const Hypergraph& h, const MatchConfig& cfg) {
    if (cfg.ratio <= 0.0 || cfg.ratio > 1.0)
        throw std::invalid_argument("matching: ratio must be in (0, 1]");
    if (cfg.maxNetSize < 2) throw std::invalid_argument("matching: maxNetSize must be >= 2");
    if (!cfg.excluded.empty() && cfg.excluded.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("matching: excluded mask size mismatch");
    if (!cfg.sameBlockOnly.empty() &&
        cfg.sameBlockOnly.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("matching: sameBlockOnly size mismatch");
}

bool isExcluded(const MatchConfig& cfg, ModuleId v) {
    return !cfg.excluded.empty() && cfg.excluded[static_cast<std::size_t>(v)] != 0;
}

bool blockMismatch(const MatchConfig& cfg, ModuleId v, ModuleId w) {
    return !cfg.sameBlockOnly.empty() &&
           cfg.sameBlockOnly[static_cast<std::size_t>(v)] != cfg.sameBlockOnly[static_cast<std::size_t>(w)];
}

// Shared matching skeleton: visits modules in random order, asks `pickMate`
// for the partner of each unmatched module, stops at the matching ratio,
// then closes out singletons (paper Fig. 3 steps 8-11).
template <typename PickMate>
Clustering matchSkeleton(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng,
                         PickMate&& pickMate) {
    checkConfig(h, cfg);
    const ModuleId n = h.numModules();
    Clustering c;
    c.clusterOf.assign(static_cast<std::size_t>(n), kInvalidModule);
    std::vector<ModuleId> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    ModuleId k = 0;
    std::int64_t nMatch = 0;
    std::size_t j = 0;
    // Step 2: while matched fraction < R and modules remain.
    while (j < perm.size() &&
           static_cast<double>(nMatch) < cfg.ratio * static_cast<double>(n)) {
        const ModuleId v = perm[j++];
        if (c.clusterOf[static_cast<std::size_t>(v)] != kInvalidModule) continue;
        const ModuleId cluster = k++;
        c.clusterOf[static_cast<std::size_t>(v)] = cluster;
        if (isExcluded(cfg, v)) continue; // pads stay singletons
        const ModuleId w = pickMate(v, c);
        if (w != kInvalidModule) {
            c.clusterOf[static_cast<std::size_t>(w)] = cluster;
            nMatch += 2;
        }
    }
    // Steps 8-10: remaining modules become singletons. This single sweep is
    // exhaustive: perm is a permutation, entries before j were assigned in
    // the main loop, and entries from j on are assigned here — whether the
    // loop above stopped on the ratio bound or ran out of modules.
    for (; j < perm.size(); ++j) {
        const ModuleId v = perm[j];
        if (c.clusterOf[static_cast<std::size_t>(v)] == kInvalidModule)
            c.clusterOf[static_cast<std::size_t>(v)] = k++;
    }
    c.numClusters = k;
    for (ModuleId v = 0; v < n; ++v) {
        assert(c.clusterOf[static_cast<std::size_t>(v)] >= 0 &&
               c.clusterOf[static_cast<std::size_t>(v)] < k && "cluster ids must be dense");
    }
    return c;
}

} // namespace

Clustering matchClustering(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng) {
    // Scratch reused across pickMate calls: Conn array indexed by module and
    // the set S of touched neighbours, reset after each query (paper's
    // described implementation of Step 5).
    std::vector<double> conn(static_cast<std::size_t>(h.numModules()), 0.0);
    std::vector<ModuleId> touched;
    return matchSkeleton(h, cfg, rng, [&](ModuleId v, const Clustering& c) -> ModuleId {
        touched.clear();
        for (NetId e : h.nets(v)) {
            if (h.netSize(e) > cfg.maxNetSize) continue;
            // The paper's 1/(|e|-1) term, scaled by the net weight so that
            // parallel nets merged during coarsening keep their full pull.
            const double perNet = static_cast<double>(h.netWeight(e)) /
                                  static_cast<double>(h.netSize(e) - 1);
            for (ModuleId w : h.pins(e)) {
                if (w == v) continue;
                if (c.clusterOf[static_cast<std::size_t>(w)] != kInvalidModule) continue;
                if (isExcluded(cfg, w)) continue;
                if (blockMismatch(cfg, v, w)) continue;
                if (conn[static_cast<std::size_t>(w)] == 0.0) touched.push_back(w);
                conn[static_cast<std::size_t>(w)] += perNet;
            }
        }
        ModuleId best = kInvalidModule;
        double bestScore = 0.0;
        for (ModuleId w : touched) {
            const double score = conn[static_cast<std::size_t>(w)] /
                                 static_cast<double>(h.area(v) + h.area(w));
            if (best == kInvalidModule || score > bestScore) {
                best = w;
                bestScore = score;
            }
            conn[static_cast<std::size_t>(w)] = 0.0; // cheap reinitialization via S
        }
        return best;
    });
}

Clustering heavyEdgeMatching(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng) {
    std::vector<double> conn(static_cast<std::size_t>(h.numModules()), 0.0);
    std::vector<ModuleId> touched;
    return matchSkeleton(h, cfg, rng, [&](ModuleId v, const Clustering& c) -> ModuleId {
        touched.clear();
        for (NetId e : h.nets(v)) {
            if (h.netSize(e) > cfg.maxNetSize) continue;
            const double perNet = static_cast<double>(h.netWeight(e)) /
                                  static_cast<double>(h.netSize(e) - 1);
            for (ModuleId w : h.pins(e)) {
                if (w == v) continue;
                if (c.clusterOf[static_cast<std::size_t>(w)] != kInvalidModule) continue;
                if (isExcluded(cfg, w)) continue;
                if (blockMismatch(cfg, v, w)) continue;
                if (conn[static_cast<std::size_t>(w)] == 0.0) touched.push_back(w);
                conn[static_cast<std::size_t>(w)] += perNet;
            }
        }
        ModuleId best = kInvalidModule;
        double bestScore = 0.0;
        for (ModuleId w : touched) {
            if (best == kInvalidModule || conn[static_cast<std::size_t>(w)] > bestScore) {
                best = w;
                bestScore = conn[static_cast<std::size_t>(w)];
            }
            conn[static_cast<std::size_t>(w)] = 0.0;
        }
        return best;
    });
}

Clustering randomMatching(const Hypergraph& h, const MatchConfig& cfg, std::mt19937_64& rng) {
    std::vector<ModuleId> candidates;
    return matchSkeleton(h, cfg, rng, [&](ModuleId v, const Clustering& c) -> ModuleId {
        candidates.clear();
        for (NetId e : h.nets(v)) {
            if (h.netSize(e) > cfg.maxNetSize) continue;
            for (ModuleId w : h.pins(e)) {
                if (w == v) continue;
                if (c.clusterOf[static_cast<std::size_t>(w)] != kInvalidModule) continue;
                if (isExcluded(cfg, w)) continue;
                if (blockMismatch(cfg, v, w)) continue;
                candidates.push_back(w);
            }
        }
        if (candidates.empty()) return kInvalidModule;
        return candidates[std::uniform_int_distribution<std::size_t>(0, candidates.size() - 1)(rng)];
    });
}

const char* toString(CoarsenerKind k) {
    switch (k) {
        case CoarsenerKind::kConnectivityMatch: return "match";
        case CoarsenerKind::kRandomMatch: return "random";
        case CoarsenerKind::kHeavyEdgeMatch: return "heavy-edge";
    }
    return "?";
}

Clustering runMatcher(CoarsenerKind kind, const Hypergraph& h, const MatchConfig& cfg,
                      std::mt19937_64& rng) {
    switch (kind) {
        case CoarsenerKind::kConnectivityMatch: return matchClustering(h, cfg, rng);
        case CoarsenerKind::kRandomMatch: return randomMatching(h, cfg, rng);
        case CoarsenerKind::kHeavyEdgeMatch: return heavyEdgeMatching(h, cfg, rng);
    }
    throw std::invalid_argument("runMatcher: unknown coarsener kind");
}

namespace {

/// Modules per proposal chunk. Fixed (input-size-only decomposition): the
/// chunk boundaries must not depend on the thread count.
constexpr std::int64_t kMatchChunk = 1024;

/// Symmetric pair hash (splitmix64 over the unordered pair + seed): the
/// seeded randomness of the parallel matcher. Symmetry matters — mutual
/// proposals only happen when both endpoints rank the pair identically.
std::uint64_t pairHash(std::uint64_t seed, ModuleId a, ModuleId b) {
    if (a > b) std::swap(a, b);
    std::uint64_t x = seed ^ (static_cast<std::uint64_t>(a) << 32) ^
                      (static_cast<std::uint64_t>(b) + 0x9e3779b97f4a7c15ULL);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// One module's proposal: the eligible unmatched neighbour maximizing
/// (rating, pairHash, -id). `conn`/`touched` are this worker's scratch.
ModuleId proposeFor(const Hypergraph& h, const MatchConfig& cfg, CoarsenerKind kind,
                    std::uint64_t seed, const ModuleId* mate, ModuleId v,
                    std::vector<double>& conn, std::vector<ModuleId>& touched) {
    touched.clear();
    const bool hashRating = kind == CoarsenerKind::kRandomMatch;
    for (NetId e : h.nets(v)) {
        if (h.netSize(e) > cfg.maxNetSize) continue;
        const double perNet = static_cast<double>(h.netWeight(e)) /
                              static_cast<double>(h.netSize(e) - 1);
        for (ModuleId w : h.pins(e)) {
            if (w == v) continue;
            if (mate[static_cast<std::size_t>(w)] != kInvalidModule) continue;
            if (isExcluded(cfg, w)) continue;
            if (blockMismatch(cfg, v, w)) continue;
            if (conn[static_cast<std::size_t>(w)] == 0.0) touched.push_back(w);
            conn[static_cast<std::size_t>(w)] += perNet;
        }
    }
    ModuleId best = kInvalidModule;
    double bestScore = 0.0;
    std::uint64_t bestHash = 0;
    for (ModuleId w : touched) {
        double score;
        if (hashRating) {
            // Chaco-analogue: the rating IS the seeded hash, so the pick is
            // uniform-ish among neighbours yet reproducible in any order.
            score = 1.0;
        } else if (kind == CoarsenerKind::kConnectivityMatch) {
            score = conn[static_cast<std::size_t>(w)] /
                    static_cast<double>(h.area(v) + h.area(w));
        } else {
            score = conn[static_cast<std::size_t>(w)];
        }
        conn[static_cast<std::size_t>(w)] = 0.0; // cheap reinitialization via touched
        const std::uint64_t hash = pairHash(seed, v, w);
        const bool better = best == kInvalidModule || score > bestScore ||
                            (score == bestScore &&
                             (hash > bestHash || (hash == bestHash && w < best)));
        if (better) {
            best = w;
            bestScore = score;
            bestHash = hash;
        }
    }
    return best;
}

} // namespace

Clustering matchParallel(CoarsenerKind kind, const Hypergraph& h, const MatchConfig& cfg,
                         std::uint64_t seed, robust::ThreadPool& pool, MatchWorkspace& ws) {
    checkConfig(h, cfg);
    const ModuleId n = h.numModules();
    const std::size_t nSz = static_cast<std::size_t>(n);
    const int workers = pool.threads();
    const std::int64_t chunks = robust::ThreadPool::chunkCount(n, kMatchChunk);

    // proposal, anchor and chunkMatched are written in full before they
    // are read; the conn rows stay all-zero between calls (proposeFor
    // resets every entry it touches), so a level only grows them.
    ws.mate.assign(nSz, kInvalidModule);
    ws.proposal.resize(nSz);
    ws.anchor.resize(nSz);
    ws.chunkMatched.resize(static_cast<std::size_t>(chunks));
    if (static_cast<int>(ws.conn.size()) < workers) ws.conn.resize(static_cast<std::size_t>(workers));
    if (static_cast<int>(ws.touched.size()) < workers)
        ws.touched.resize(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        std::vector<double>& conn = ws.conn[static_cast<std::size_t>(w)];
        if (conn.size() < nSz) conn.resize(nSz, 0.0);
        ws.touched[static_cast<std::size_t>(w)].clear();
    }

    ModuleId* mate = ws.mate.data();
    ModuleId* proposal = ws.proposal.data();
    ModuleId* anchor = ws.anchor.data();
    std::int64_t* chunkMatched = ws.chunkMatched.data();

    std::int64_t nMatch = 0;
    const auto belowRatio = [&] {
        return static_cast<double>(nMatch) < cfg.ratio * static_cast<double>(n);
    };
    // Bounded by n/2 matches total, but in practice a handful of rounds
    // reaches the ratio — the bound only guards a degenerate no-progress
    // loop that the matched-nothing break already exits.
    const int maxRounds = 64;
    for (int round = 0; round < maxRounds && belowRatio(); ++round) {
        // Propose: parallel over fixed chunks; reads mate[] frozen at the
        // round boundary, writes proposal[v] (and in round 0 anchor[v])
        // only — chunk-slot confined.
        try {
            pool.forChunks(chunks, [&](int worker, std::int64_t chunk) {
                std::vector<double>& conn = ws.conn[static_cast<std::size_t>(worker)];
                std::vector<ModuleId>& touched = ws.touched[static_cast<std::size_t>(worker)];
                const ModuleId lo = static_cast<ModuleId>(chunk * kMatchChunk);
                const ModuleId hi = std::min<ModuleId>(n, static_cast<ModuleId>(lo + kMatchChunk));
                for (ModuleId v = lo; v < hi; ++v) {
                    ModuleId p = kInvalidModule;
                    if (mate[static_cast<std::size_t>(v)] == kInvalidModule && !isExcluded(cfg, v))
                        p = proposeFor(h, cfg, kind, seed, mate, v, conn, touched);
                    proposal[static_cast<std::size_t>(v)] = p;
                    if (round == 0) anchor[static_cast<std::size_t>(v)] = p;
                }
            });
        } catch (...) {
            // A start's retry reuses this workspace, and a proposal cut
            // short (touched.push_back can throw bad_alloc) leaves nonzero
            // conn entries — all of them on its worker's touched list.
            for (int w = 0; w < workers; ++w)
                for (const ModuleId u : ws.touched[static_cast<std::size_t>(w)])
                    ws.conn[static_cast<std::size_t>(w)][static_cast<std::size_t>(u)] = 0.0;
            throw;
        }
        // Commit: mutual proposals match. Only the lower endpoint writes
        // both mate slots, so writes never race and the outcome is the set
        // of locally-maximal eligible pairs — order-independent. Each chunk
        // counts the modules it matched into its own slot.
        pool.forChunks(chunks, [&](int, std::int64_t chunk) {
            const ModuleId lo = static_cast<ModuleId>(chunk * kMatchChunk);
            const ModuleId hi = std::min<ModuleId>(n, static_cast<ModuleId>(lo + kMatchChunk));
            std::int64_t matched = 0;
            for (ModuleId v = lo; v < hi; ++v) {
                const ModuleId w = proposal[static_cast<std::size_t>(v)];
                if (w == kInvalidModule || w <= v) continue;
                if (proposal[static_cast<std::size_t>(w)] != v) continue;
                mate[static_cast<std::size_t>(v)] = w;
                mate[static_cast<std::size_t>(w)] = v;
                matched += 2;
            }
            chunkMatched[chunk] = matched;
        });
        std::int64_t matched = 0;
        for (std::int64_t chunk = 0; chunk < chunks; ++chunk) matched += chunkMatched[chunk];
        if (matched == 0) break; // no eligible pair left
        nMatch += matched;
        // The seed advances per round so a pair rejected on a tie one
        // round is not retried with the identical coin forever.
        seed = seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15;
    }

    // Two-hop pass: mutual proposals pair only modules that choose each
    // other, so leaves hanging off one hub by small nets all propose the
    // hub and one of them matches per level. Modules left unmatched whose
    // anchors (round-0 proposals) coincide share that neighbour and pair
    // with each other: anchors in ascending id, members of one anchor in
    // ascending id, stopping at the ratio. An anchor is eligible for both
    // members, so excluded modules and sameBlockOnly stay honoured.
    if (belowRatio()) {
        // Bucket by anchor in O(n). proposal[] is dead once the rounds end
        // and becomes each anchor's list head; anchor[] becomes each
        // listed module's next link. Pushing in descending module id
        // leaves every list ascending.
        std::fill(proposal, proposal + n, kInvalidModule);
        for (ModuleId v = n - 1; v >= 0; --v) {
            const ModuleId a = anchor[static_cast<std::size_t>(v)];
            if (a == kInvalidModule || mate[static_cast<std::size_t>(v)] != kInvalidModule) continue;
            anchor[static_cast<std::size_t>(v)] = proposal[static_cast<std::size_t>(a)];
            proposal[static_cast<std::size_t>(a)] = v;
        }
        for (ModuleId a = 0; a < n && belowRatio(); ++a) {
            ModuleId v = proposal[static_cast<std::size_t>(a)];
            while (v != kInvalidModule && belowRatio()) {
                const ModuleId w = anchor[static_cast<std::size_t>(v)];
                if (w == kInvalidModule) break; // odd member stays unmatched
                mate[static_cast<std::size_t>(v)] = w;
                mate[static_cast<std::size_t>(w)] = v;
                nMatch += 2;
                v = anchor[static_cast<std::size_t>(w)];
            }
        }
    }

    // Deterministic dense cluster ids: ascending sweep, pairs take the
    // lower endpoint's slot, everything unmatched closes out singleton.
    Clustering c;
    c.clusterOf.assign(nSz, kInvalidModule);
    ModuleId k = 0;
    for (ModuleId v = 0; v < n; ++v) {
        if (c.clusterOf[static_cast<std::size_t>(v)] != kInvalidModule) continue;
        const ModuleId cluster = k++;
        c.clusterOf[static_cast<std::size_t>(v)] = cluster;
        const ModuleId w = mate[static_cast<std::size_t>(v)];
        if (w != kInvalidModule) c.clusterOf[static_cast<std::size_t>(w)] = cluster;
    }
    c.numClusters = k;
    return c;
}

} // namespace mlpart
