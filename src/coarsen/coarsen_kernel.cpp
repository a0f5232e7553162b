#include "coarsen/coarsen_kernel.h"

#include <algorithm>

#include "hypergraph/assemble.h"
#include "robust/fault_injector.h"
#include "robust/memory_governor.h"
#include "robust/thread_pool.h"

#if MLPART_CHECK_INVARIANTS
#include <string>

#include "check/check_result.h"
#include "check/verify_hypergraph.h"
#include "coarsen/induce.h"
#endif

namespace mlpart {

namespace {

// Sorts a deduped pin span ascending and returns its FNV-1a fingerprint.
// The fingerprint only *groups* candidate duplicate nets — merging always
// compares the full pin lists, so the result is independent of the hash
// function (and of the builder path's hash).
std::uint64_t sortAndFingerprint(ModuleId* pins, std::int64_t count) {
    std::sort(pins, pins + count);
    std::uint64_t fp = 1469598103934665603ULL;
    for (std::int64_t i = 0; i < count; ++i) {
        fp ^= static_cast<std::uint64_t>(pins[i]) + 0x9e3779b97f4a7c15ULL;
        fp *= 1099511628211ULL;
    }
    return fp;
}

/// Fine nets per chunk of the parallel tentative-net passes. Fixed: chunk
/// boundaries depend only on the net count, never on the thread count.
constexpr std::int64_t kNetChunk = 256;

} // namespace

Hypergraph induceInto(const Hypergraph& h, const Clustering& c, CoarsenWorkspace& ws,
                      robust::ThreadPool* pool) {
    MLPART_FAULT_SITE("coarsen.induce");
    // Workspace allocation path is memory-governed: the tentative-net
    // scratch for this level is bounded by the fine level's pin count, so
    // a level that alone overflows a --mem-limit budget fails here as a
    // contained allocation failure instead of growing until the OOM
    // killer fires. Single relaxed load when no limit is set.
    robust::MemoryGovernor::instance().guardTransient(
        static_cast<std::uint64_t>(h.numPins()) * 24 +
        static_cast<std::uint64_t>(h.numModules()) * 16);
    validateClustering(h, c);
    const ModuleId nc = c.numClusters;
    const std::size_t ncSz = static_cast<std::size_t>(nc);
    const NetId m = h.numNets();
    const ModuleId* clusterOf = c.clusterOf.data();

    // Cluster areas are the sums of member areas (owned by the result).
    std::vector<Area> areas(ncSz, 0);
    for (ModuleId v = 0; v < h.numModules(); ++v)
        areas[static_cast<std::size_t>(clusterOf[v])] += h.area(v);

    const bool runParallel = pool != nullptr && pool->threads() > 1;
    NetId tentCount = 0;
    if (runParallel) {
        // Parallel tentative-net construction: two passes over fixed net
        // chunks separated by one serial prefix scan. Pass A counts each
        // fine net's deduped mapped pins into `slots` (per-worker stamp
        // arrays — which worker handles a chunk is unobservable); the scan
        // assigns tentative ids and exact offsets; pass B fills each kept
        // net's span, sorts it ascending, and fingerprints it, exactly as
        // the serial pass 1 does, so the merge below sees identical input.
        const int workers = pool->threads();
        if (static_cast<int>(ws.threadStamp.size()) < workers)
            ws.threadStamp.resize(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) ws.threadStamp[static_cast<std::size_t>(w)].assign(ncSz, -1);
        ws.slots.resize(static_cast<std::size_t>(m));
        const std::int64_t chunks = robust::ThreadPool::chunkCount(m, kNetChunk);
        pool->forChunks(chunks, [&](int worker, std::int64_t chunk) {
            std::int64_t* stamp = ws.threadStamp[static_cast<std::size_t>(worker)].data();
            const NetId lo = static_cast<NetId>(chunk * kNetChunk);
            const NetId hiN = std::min<NetId>(m, static_cast<NetId>(lo + kNetChunk));
            for (NetId e = lo; e < hiN; ++e) {
                ModuleId count = 0;
                for (ModuleId v : h.pins(e)) {
                    const std::size_t cl = static_cast<std::size_t>(clusterOf[v]);
                    if (stamp[cl] != e) {
                        stamp[cl] = e;
                        ++count;
                    }
                }
                ws.slots[static_cast<std::size_t>(e)] = count;
            }
        });
        ws.fineTent.assign(static_cast<std::size_t>(m), kInvalidNet);
        ws.tentOffsets.clear();
        ws.tentOffsets.push_back(0);
        ws.tentWeights.clear();
        for (NetId e = 0; e < m; ++e) {
            const ModuleId count = ws.slots[static_cast<std::size_t>(e)];
            if (count < 2) continue; // degenerate: connects < 2 clusters
            ws.fineTent[static_cast<std::size_t>(e)] = static_cast<NetId>(ws.tentWeights.size());
            ws.tentOffsets.push_back(ws.tentOffsets.back() + count);
            ws.tentWeights.push_back(h.netWeight(e));
        }
        tentCount = static_cast<NetId>(ws.tentWeights.size());
        ws.tentPinsSorted.resize(static_cast<std::size_t>(ws.tentOffsets.back()));
        ws.fingerprints.resize(static_cast<std::size_t>(tentCount));
        pool->forChunks(chunks, [&](int worker, std::int64_t chunk) {
            std::int64_t* stamp = ws.threadStamp[static_cast<std::size_t>(worker)].data();
            const NetId lo = static_cast<NetId>(chunk * kNetChunk);
            const NetId hiN = std::min<NetId>(m, static_cast<NetId>(lo + kNetChunk));
            for (NetId e = lo; e < hiN; ++e) {
                const NetId t = ws.fineTent[static_cast<std::size_t>(e)];
                if (t == kInvalidNet) continue;
                // Stamp marker m+e: distinct from every pass-A marker, so
                // the stamp arrays need no reset between passes.
                const std::int64_t marker = static_cast<std::int64_t>(m) + e;
                ModuleId* out = ws.tentPinsSorted.data() + ws.tentOffsets[t];
                std::int64_t filled = 0;
                for (ModuleId v : h.pins(e)) {
                    const std::size_t cl = static_cast<std::size_t>(clusterOf[v]);
                    if (stamp[cl] != marker) {
                        stamp[cl] = marker;
                        out[filled++] = static_cast<ModuleId>(cl);
                    }
                }
                ws.fingerprints[static_cast<std::size_t>(t)] = sortAndFingerprint(out, filled);
            }
        });
    } else {
        // Pass 1 — tentative nets: map each fine net through the
        // clustering, dedup pins with a per-cluster stamp of the current
        // net id (instead of sort+unique over the mapped pins), drop
        // |e*| < 2 nets, and sort each kept span in place. A deduped pin
        // list has one ascending order, so this equals the builder's
        // per-net sort + unique.
        ws.pinStamp.assign(ncSz, kInvalidNet);
        ws.tentOffsets.clear();
        ws.tentOffsets.push_back(0);
        ws.tentPinsSorted.clear();
        ws.tentWeights.clear();
        ws.fingerprints.clear();
        NetId* stamp = ws.pinStamp.data();
        for (NetId e = 0; e < m; ++e) {
            const std::size_t before = ws.tentPinsSorted.size();
            for (ModuleId v : h.pins(e)) {
                const ModuleId cl = clusterOf[v];
                if (stamp[cl] != e) {
                    stamp[cl] = e;
                    ws.tentPinsSorted.push_back(cl);
                }
            }
            const std::int64_t count = static_cast<std::int64_t>(ws.tentPinsSorted.size() - before);
            if (count < 2) {
                ws.tentPinsSorted.resize(before); // degenerate: connects < 2 clusters
                continue;
            }
            ws.fingerprints.push_back(sortAndFingerprint(ws.tentPinsSorted.data() + before, count));
            ws.tentOffsets.push_back(static_cast<std::int64_t>(ws.tentPinsSorted.size()));
            ws.tentWeights.push_back(h.netWeight(e));
        }
        tentCount = static_cast<NetId>(ws.tentWeights.size());
    }

    // Pass 3 — parallel-net merging through an open-addressing table of
    // kept net ids (linear probing, 2 slots per tentative net, so load
    // <= 1/2). Nets arrive in ascending id: each merges into the first
    // kept net on its probe path whose fingerprint and pin list equal its
    // own, or else claims the first empty slot. Slots are never emptied,
    // so the one kept net with an equal pin list always lies on that path
    // before any empty slot: every net merges into the lowest-id net with
    // its pin list, exactly the builder's rule. A merged net's weight
    // moves to that net, leaving 0 (net weights are >= 1) as its mark.
    const std::uint64_t slotCount = 2 * static_cast<std::uint64_t>(tentCount);
    ws.slots.assign(static_cast<std::size_t>(slotCount), kInvalidNet);
    NetId keptCount = 0;
    std::int64_t keptPinCount = 0;
    auto pinsEqual = [&](NetId a, NetId b) {
        const std::int64_t* off = ws.tentOffsets.data();
        const ModuleId* pins = ws.tentPinsSorted.data();
        return off[a + 1] - off[a] == off[b + 1] - off[b] &&
               std::equal(pins + off[a], pins + off[a + 1], pins + off[b]);
    };
    for (NetId t = 0; t < tentCount; ++t) {
        const std::uint64_t fp = ws.fingerprints[static_cast<std::size_t>(t)];
        // Multiplicative hash: the high bits of fp * 2^64/phi, scaled to
        // [0, slotCount). FNV's raw bits cluster badly.
        std::uint64_t s = ((fp * 0x9E3779B97F4A7C15ULL) >> 32) * slotCount >> 32;
        NetId r = ws.slots[s];
        while (r != kInvalidNet &&
               !(ws.fingerprints[static_cast<std::size_t>(r)] == fp && pinsEqual(t, r))) {
            if (++s == slotCount) s = 0;
            r = ws.slots[s];
        }
        if (r == kInvalidNet) {
            ws.slots[s] = t;
            ++keptCount;
            keptPinCount += ws.tentOffsets[t + 1] - ws.tentOffsets[t];
        } else {
            Weight& w = ws.tentWeights[static_cast<std::size_t>(t)];
            ws.tentWeights[static_cast<std::size_t>(r)] += w;
            w = 0;
        }
    }

    // Emission — kept nets in first-occurrence (ascending tentative id)
    // order, into exactly-sized arrays owned by the result.
    std::vector<std::int64_t> netPinOffsets;
    netPinOffsets.reserve(static_cast<std::size_t>(keptCount) + 1);
    netPinOffsets.push_back(0);
    std::vector<ModuleId> netPins;
    netPins.reserve(static_cast<std::size_t>(keptPinCount));
    std::vector<Weight> netWeights;
    netWeights.reserve(static_cast<std::size_t>(keptCount));
    for (NetId t = 0; t < tentCount; ++t) {
        if (ws.tentWeights[static_cast<std::size_t>(t)] == 0) continue; // merged away
        netPins.insert(netPins.end(), ws.tentPinsSorted.begin() + ws.tentOffsets[t],
                       ws.tentPinsSorted.begin() + ws.tentOffsets[t + 1]);
        netPinOffsets.push_back(static_cast<std::int64_t>(netPins.size()));
        netWeights.push_back(ws.tentWeights[static_cast<std::size_t>(t)]);
    }
    Hypergraph coarse = HypergraphAssembler::assemble(std::move(netPinOffsets),
                                                      std::move(netPins),
                                                      std::move(netWeights),
                                                      std::move(areas), {});
#if MLPART_CHECK_INVARIANTS
    {
        check::CheckResult r = check::verifyHypergraph(coarse);
        ++r.factsChecked;
        // "Module areas are preserved" (paper Section III): Induce must
        // never create or destroy area.
        if (coarse.totalArea() != h.totalArea())
            r.fail("induced total area " + std::to_string(coarse.totalArea()) +
                   " != fine total area " + std::to_string(h.totalArea()));
        // Differential oracle: the kernel must reproduce the legacy
        // builder path byte for byte.
        r.merge(check::verifyIdenticalHypergraphs(coarse, induceReference(h, c)));
        check::enforce(r, "induce");
    }
#endif
    return coarse;
}

} // namespace mlpart
