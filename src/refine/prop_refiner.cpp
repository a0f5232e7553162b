#include "refine/prop_refiner.h"

#include <algorithm>
#include <stdexcept>

#include "perf/simd.h"
#include "refine/workspace.h"
#include "robust/thread_pool.h"

namespace mlpart {

PropRefiner::PropRefiner(const Hypergraph& h, PropConfig cfg) : h_(h), cfg_(cfg) {
    if (cfg_.initialProb <= 0.0 || cfg_.initialProb >= 1.0)
        throw std::invalid_argument("PropRefiner: initialProb must be in (0, 1)");
    if (cfg_.decay <= 0.0 || cfg_.decay > 1.0)
        throw std::invalid_argument("PropRefiner: decay must be in (0, 1]");
    if (cfg_.tolerance < 0.0 || cfg_.tolerance >= 1.0)
        throw std::invalid_argument("PropRefiner: tolerance must be in [0, 1)");
}

double PropRefiner::probGain(ModuleId v, const Partition& part) const {
    const PartId s = part.part(v);
    const PartId t = 1 - s;
    double g = 0.0;
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (!activeNet_[ei]) continue;
        double stayProduct = 1.0;  // prod p(u) over same-side others
        double leaveProduct = 1.0; // prod (1 - p(u)) over same-side others
        for (ModuleId u : h_.pins(e)) {
            if (u == v || part.part(u) != s) continue;
            const double p = locked_[static_cast<std::size_t>(u)] ? 0.0 : prob_[static_cast<std::size_t>(u)];
            stayProduct *= p;
            leaveProduct *= (1.0 - p);
        }
        const bool otherSideEmpty = pc_[t][ei] == 0;
        g += static_cast<double>(h_.netWeight(e)) *
             (stayProduct - (otherSideEmpty ? leaveProduct : 0.0));
    }
    return g;
}

void PropRefiner::push(ModuleId v, const Partition& part) {
    stamp_[static_cast<std::size_t>(v)]++;
    heap_[part.part(v)].push({probGain(v, part), stamp_[static_cast<std::size_t>(v)], v});
}

ModuleId PropRefiner::peekBest(int s, const Partition& part, const BalanceConstraint& bc) {
    auto& heap = heap_[s];
    while (!heap.empty()) {
        const HeapEntry top = heap.top();
        const std::size_t vi = static_cast<std::size_t>(top.v);
        if (locked_[vi] || part.part(top.v) != s || top.stamp != stamp_[vi]) {
            heap.pop(); // stale entry
            continue;
        }
        // Feasibility is only checked for the top; with unit areas an
        // infeasible top implies the whole side is blocked.
        if (!bc.allowsMove(part, h_.area(top.v), s, 1 - s)) return kInvalidModule;
        return top.v;
    }
    return kInvalidModule;
}

Weight PropRefiner::applyMove(ModuleId v, Partition& part) {
    const PartId from = part.part(v);
    const PartId to = 1 - from;
    Weight delta = 0;
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (!activeNet_[ei]) continue;
        if (pc_[to][ei] == 0) delta -= h_.netWeight(e);
        else if (pc_[from][ei] == 1) delta += h_.netWeight(e);
        pc_[from][ei]--;
        pc_[to][ei]++;
    }
    part.move(h_, v, to);
    locked_[static_cast<std::size_t>(v)] = 1;
    curActiveCut_ -= delta;

    // Refresh neighbours: commitment grows (probability decays) and their
    // expected gains change.
    for (NetId e : h_.nets(v)) {
        if (!activeNet_[static_cast<std::size_t>(e)]) continue;
        for (ModuleId u : h_.pins(e)) {
            const std::size_t ui = static_cast<std::size_t>(u);
            if (u == v || locked_[ui]) continue;
            prob_[ui] *= cfg_.decay;
            push(u, part);
        }
    }
    return delta;
}

void PropRefiner::undoMoves(std::size_t count, Partition& part) {
    for (std::size_t i = 0; i < count; ++i) {
        const MoveRec rec = moves_.back();
        moves_.pop_back();
        const PartId cur = part.part(rec.v);
        for (NetId e : h_.nets(rec.v)) {
            const std::size_t ei = static_cast<std::size_t>(e);
            if (!activeNet_[ei]) continue;
            pc_[cur][ei]--;
            pc_[rec.from][ei]++;
        }
        part.move(h_, rec.v, rec.from);
        locked_[static_cast<std::size_t>(rec.v)] = 0;
        curActiveCut_ += rec.delta;
    }
}

Weight PropRefiner::runPass(Partition& part, const BalanceConstraint& bc) {
    heap_[0] = {};
    heap_[1] = {};
    prob_.assign(static_cast<std::size_t>(h_.numModules()), cfg_.initialProb);
    for (ModuleId v = 0; v < h_.numModules(); ++v) push(v, part);

    moves_.clear();
    Weight cumGain = 0;
    Weight bestGain = 0;
    std::size_t bestIdx = 0;
    while (true) {
        const ModuleId c0 = peekBest(0, part, bc);
        const ModuleId c1 = peekBest(1, part, bc);
        ModuleId v = kInvalidModule;
        if (c0 != kInvalidModule && c1 != kInvalidModule) {
            const double g0 = probGain(c0, part);
            const double g1 = probGain(c1, part);
            if (g0 != g1) v = g0 > g1 ? c0 : c1;
            else v = part.blockArea(0) >= part.blockArea(1) ? c0 : c1;
        } else {
            v = c0 != kInvalidModule ? c0 : c1;
        }
        if (v == kInvalidModule) break;
        const PartId from = part.part(v);
        const Weight delta = applyMove(v, part);
        moves_.push_back({v, from, delta});
        cumGain += delta;
        if (cumGain > bestGain) {
            bestGain = cumGain;
            bestIdx = moves_.size();
        }
    }
    undoMoves(moves_.size() - bestIdx, part);
    return bestGain;
}

Weight PropRefiner::refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) {
    if (part.numParts() != 2) throw std::invalid_argument("PropRefiner: requires a bipartition");
    if (!bc.satisfied(part)) rebalance(h_, part, bc, rng);

    const NetId m = h_.numNets();
    activeNet_.assign(static_cast<std::size_t>(m), 0);
    pc_[0].assign(static_cast<std::size_t>(m), 0);
    pc_[1].assign(static_cast<std::size_t>(m), 0);
    locked_.assign(static_cast<std::size_t>(h_.numModules()), 0);
    stamp_.assign(static_cast<std::size_t>(h_.numModules()), 0);
    curActiveCut_ = 0;
    for (NetId e = 0; e < m; ++e) {
        if (h_.netSize(e) > cfg_.maxNetSize) continue;
        activeNet_[static_cast<std::size_t>(e)] = 1;
        for (ModuleId v : h_.pins(e)) pc_[part.part(v)][static_cast<std::size_t>(e)]++;
        if (pc_[0][static_cast<std::size_t>(e)] > 0 && pc_[1][static_cast<std::size_t>(e)] > 0)
            curActiveCut_ += h_.netWeight(e);
    }

    lastPassCount_ = 0;
    for (int pass = 0; pass < cfg_.maxPasses; ++pass) {
        std::fill(locked_.begin(), locked_.end(), 0);
        const Weight gain = runPass(part, bc);
        ++lastPassCount_;
        if (gain <= 0) break;
    }
    return cutWeight(h_, part);
}

namespace {

/// Items (modules or nets) per chunk of the pre-pass parallel loops.
/// Fixed: chunk boundaries depend only on the input size.
constexpr std::int64_t kPrePassChunk = 2048;

} // namespace

Weight parallelPrePass(const Hypergraph& h, Partition& part, const BalanceConstraint& bc,
                       const std::vector<char>& fixedMask, robust::ThreadPool& pool,
                       refine::Workspace& ws, const PrePassConfig& cfg) {
    if (part.numParts() != 2) throw std::invalid_argument("parallelPrePass: requires a bipartition");
    if (!fixedMask.empty() && fixedMask.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("parallelPrePass: fixed mask size mismatch");
    if (cfg.rounds < 1) throw std::invalid_argument("parallelPrePass: rounds must be >= 1");
    if (cfg.maxNetSize < 2) throw std::invalid_argument("parallelPrePass: maxNetSize must be >= 2");

    const ModuleId n = h.numModules();
    const NetId m = h.numNets();
    const std::size_t mSz = static_cast<std::size_t>(m);
    // Pin-count init into the same hot records FMRefiner uses: each net's
    // record is written only by the chunk that owns net e, and oversized
    // nets get the inactive sentinel.
    ws.netHot.resize(mSz);
    perf::NetHot* const nh = ws.netHot.data();
    pool.forChunks(robust::ThreadPool::chunkCount(m, kPrePassChunk),
                   [&](int, std::int64_t chunk) {
                       const NetId lo = static_cast<NetId>(chunk * kPrePassChunk);
                       const NetId hiN = std::min<NetId>(m, static_cast<NetId>(lo + kPrePassChunk));
                       for (NetId e = lo; e < hiN; ++e) {
                           perf::NetHot& ne = nh[static_cast<std::size_t>(e)];
                           if (h.netSize(e) > cfg.maxNetSize) {
                               ne = perf::kInactiveNet;
                               continue;
                           }
                           ne = perf::NetHot{{0, 0}, h.netWeight(e)};
                           for (ModuleId v : h.pins(e))
                               ne.pc[static_cast<std::size_t>(part.part(v))]++;
                       }
                   });

    ws.gains.assign(static_cast<std::size_t>(n), 0);
    if (ws.netSideGain.size() < 2 * mSz) ws.netSideGain.resize(2 * mSz);
    Weight total = 0;
    for (int round = 0; round < cfg.rounds; ++round) {
        // Score: immediate FM gain of every free module, from pin counts
        // and the assignment frozen at the round boundary. One streaming
        // sweep (perf::classifyNetsHot) turns the frozen counts into
        // per-side gain planes; each module's score is then a branch-free
        // plane sum, equal to the apply step's per-net probe below.
        // Chunks write only ws.gains[v] for owned v and read the shared
        // planes.
        perf::classifyNetsHot(nh, mSz, ws.netSideGain.data(), nullptr);
        const Weight* const plane[2] = {ws.netSideGain.data(), ws.netSideGain.data() + mSz};
        pool.forChunks(robust::ThreadPool::chunkCount(n, kPrePassChunk),
                       [&](int, std::int64_t chunk) {
                           const ModuleId lo = static_cast<ModuleId>(chunk * kPrePassChunk);
                           const ModuleId hiM =
                               std::min<ModuleId>(n, static_cast<ModuleId>(lo + kPrePassChunk));
                           for (ModuleId v = lo; v < hiM; ++v) {
                               if (!fixedMask.empty() && fixedMask[static_cast<std::size_t>(v)]) {
                                   ws.gains[static_cast<std::size_t>(v)] = 0;
                                   continue;
                               }
                               const std::span<const NetId> vNets = h.nets(v);
                               ws.gains[static_cast<std::size_t>(v)] = perf::gatherSum(
                                   plane[static_cast<std::size_t>(part.part(v))], vNets.data(),
                                   vNets.size());
                           }
                       });
        // Apply: serial, fixed (gain desc, id asc) order. The frozen score
        // is only a candidate filter — each move's delta is recomputed
        // against the live counts, so earlier moves in the same round
        // cannot turn an application into a cut regression.
        ws.lazyInsert.clear();
        for (ModuleId v = 0; v < n; ++v)
            if (ws.gains[static_cast<std::size_t>(v)] > 0) ws.lazyInsert.push_back(v);
        std::sort(ws.lazyInsert.begin(), ws.lazyInsert.end(), [&](ModuleId a, ModuleId b) {
            const Weight ga = ws.gains[static_cast<std::size_t>(a)];
            const Weight gb = ws.gains[static_cast<std::size_t>(b)];
            return ga != gb ? ga > gb : a < b;
        });
        std::int64_t applied = 0;
        for (ModuleId v : ws.lazyInsert) {
            const std::size_t s = static_cast<std::size_t>(part.part(v));
            const std::size_t t = 1 - s;
            Weight g = 0;
            for (NetId e : h.nets(v)) {
                // The inactive sentinel {-1, -1} matches neither condition.
                const perf::NetHot& ne = nh[static_cast<std::size_t>(e)];
                if (ne.pc[s] == 1) g += ne.w;
                else if (ne.pc[t] == 0) g -= ne.w;
            }
            if (g <= 0) continue;
            if (!bc.allowsMove(part, h.area(v), static_cast<PartId>(s), static_cast<PartId>(t)))
                continue;
            for (NetId e : h.nets(v)) {
                perf::NetHot& ne = nh[static_cast<std::size_t>(e)];
                if (ne.pc[0] < 0) continue; // inactive
                ne.pc[s]--;
                ne.pc[t]++;
            }
            part.move(h, v, static_cast<PartId>(t));
            total += g;
            ++applied;
        }
        if (applied == 0) break;
    }
    return total;
}

} // namespace mlpart
