#include "refine/fm_refiner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "perf/simd.h"
#include "robust/fault_injector.h"

#if MLPART_CHECK_INVARIANTS
#include "check/check_result.h"
#include "check/verify_gains.h"
#endif

namespace mlpart {

namespace {
/// Deadline poll cadence inside a pass: a clock read every this many
/// selected moves. Coarse enough to be free, fine enough that a pass
/// overshoots an expired budget by at most a few dozen moves.
constexpr std::int64_t kDeadlineStride = 64;

/// Move-state bits (one byte per module, see Workspace::moveState).
constexpr char kLockedBit = 1;  ///< exhausted its per-pass move budget
constexpr char kBlockedBit = 2; ///< CDIP: excluded for the rest of the pass
/// Mirror of the module's current side. Folding it in makes the delta-gain
/// update's entire eligibility-and-dispatch decision one byte load where
/// it used to take three scattered ones (locked flag, blocked flag,
/// partition assignment). Maintained at every move/undo and at pass start.
constexpr char kSideBit = 4;
constexpr char kBusyMask = kLockedBit | kBlockedBit;

/// Pass-start classification planes pay for themselves only while they
/// stay cache-resident: past this footprint the extra 2m-entry write+gather
/// traffic evicts the pin counts and bucket nodes applyMove needs, and the
/// fused per-module recompute over the hot records wins. Both paths
/// produce bit-identical gains, so the cutover is pure scheduling.
constexpr std::size_t kPlaneBudgetBytes = std::size_t{1} << 20;
[[nodiscard]] inline bool usePlaneClassify(std::size_t numNets) {
    return 2 * numNets * sizeof(Weight) <= kPlaneBudgetBytes;
}

/// Profiling clock helper: returns the seconds since `t0` and advances it,
/// so consecutive calls carve the timeline into disjoint segments.
using ProfClock = std::chrono::steady_clock;
inline double secondsSince(ProfClock::time_point& t0) {
    const ProfClock::time_point t1 = ProfClock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    t0 = t1;
    return s;
}
} // namespace

#if MLPART_CHECK_INVARIANTS
namespace {
/// Audit cadence inside a pass: dense enough that a corrupted delta-gain
/// update is caught within the pass that produced it, sparse enough that
/// Debug runs stay usable.
constexpr std::int64_t kAuditStride = 64;
/// Each mid-pass audit recomputes every tracked gain from scratch, so on
/// large instances only the per-pass audits run; small instances (unit
/// tests, the fuzz driver) keep the dense cadence.
constexpr ModuleId kMidPassAuditLimit = 4096;
} // namespace

void FMRefiner::auditGainState(const Partition& part, const char* where) const {
    check::CheckResult r;
    for (int s = 0; s < 2; ++s) {
        ++r.factsChecked;
        if (!bucket_[s]->checkInvariants())
            r.fail("gain bucket structure corrupt on side " + std::to_string(s));
    }
    check::FMGainProbe probe;
    probe.tracked = [&](ModuleId v) {
        return bucket_[part.part(v)]->contains(v);
    };
    probe.gain = [&](ModuleId v) -> std::optional<Weight> {
        const GainBucketArray& b = *bucket_[part.part(v)];
        const Weight displayed = b.gain(v);
        // A displayed gain pinned at the index range may have been clamped
        // on the way in; the believed value is then unrecoverable.
        if (displayed <= b.minRepresentableGain() || displayed >= b.maxRepresentableGain())
            return std::nullopt;
        return displayed + checkBase_[static_cast<std::size_t>(v)];
    };
    r.merge(check::verifyGainState(h_, part, ws_->activeNet, probe));
    ++r.factsChecked;
    const Weight scratch = check::naiveActiveObjective(h_, part, ws_->activeNet, /*netCut=*/true);
    if (scratch != curActiveCut_)
        r.fail("tracked active cut " + std::to_string(curActiveCut_) +
               " != naive recompute " + std::to_string(scratch));
    check::enforce(r, where);
}
#endif

FMRefiner::FMRefiner(const Hypergraph& h, FMConfig cfg) : h_(h), cfg_(cfg) {
    if (cfg_.tolerance < 0.0 || cfg_.tolerance >= 1.0)
        throw std::invalid_argument("FMRefiner: tolerance must be in [0, 1)");
    if (cfg_.maxNetSize < 2) throw std::invalid_argument("FMRefiner: maxNetSize must be >= 2");
    if (cfg_.lookahead < 0 || cfg_.lookahead > 8)
        throw std::invalid_argument("FMRefiner: lookahead depth out of range");
    if (!cfg_.fixed.empty() && cfg_.fixed.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("FMRefiner: fixed mask size mismatch");
    if (cfg_.movesPerPass < 1) throw std::invalid_argument("FMRefiner: movesPerPass must be >= 1");
    if (cfg_.tightenStart < 0.0 || cfg_.tightenStart >= 1.0)
        throw std::invalid_argument("FMRefiner: tightenStart must be in [0, 1)");
    if (cfg_.tightenStart > 0.0 && cfg_.tightenStart < cfg_.tolerance)
        throw std::invalid_argument("FMRefiner: tightenStart must be >= tolerance");
    if (cfg_.tightenPasses < 1) throw std::invalid_argument("FMRefiner: tightenPasses must be >= 1");
    trackLockedPins_ = cfg_.lookahead >= 2; // lockedPc_ feeds only lookaheadGain()
    minArea_ = std::numeric_limits<Area>::max();
    for (ModuleId v = 0; v < h_.numModules(); ++v) minArea_ = std::min(minArea_, h_.area(v));
}

refine::Workspace& FMRefiner::ensureWorkspace() {
    if (ws_ != nullptr) return *ws_;
    if (!owned_) owned_ = std::make_unique<refine::Workspace>();
    ws_ = owned_.get();
    return *ws_;
}

void FMRefiner::initNetState(const Partition& part) {
    refine::Workspace& ws = *ws_;
    const NetId m = h_.numNets();
    const std::size_t mSz = static_cast<std::size_t>(m);
    ws.activeNet.assign(mSz, 0); // audit hooks read the plain flag array
    ws.netHot.assign(mSz, perf::NetHot{{-1, -1}, 0}); // inactive sentinel
    nh_ = ws.netHot.data();
    if (trackLockedPins_) {
        ws.lockedPc.assign(2 * mSz, 0);
        lockedPc_ = ws.lockedPc.data();
    }
    ignoredNets_ = 0;
    curActiveCut_ = 0;
    for (NetId e = 0; e < m; ++e) {
        if (h_.netSize(e) > cfg_.maxNetSize) {
            ++ignoredNets_; // reinstated when measuring final quality
            continue;
        }
        const std::size_t ei = static_cast<std::size_t>(e);
        ws.activeNet[ei] = 1;
        perf::NetHot& ne = nh_[ei];
        ne.pc[0] = 0;
        ne.pc[1] = 0;
        ne.w = h_.netWeight(e);
        for (ModuleId v : h_.pins(e)) ne.pc[static_cast<std::size_t>(part.part(v))]++;
        if (ne.pc[0] > 0 && ne.pc[1] > 0) curActiveCut_ += ne.w;
    }
}

Weight FMRefiner::computeGain(ModuleId v, const Partition& part) const {
    const std::size_t s = static_cast<std::size_t>(part.part(v));
    const std::size_t t = 1 - s;
    Weight g = 0;
    for (NetId e : h_.nets(v)) {
        // One 16-byte record per net; the inactive sentinel {-1, -1}
        // matches neither condition, so no separate active check.
        const perf::NetHot& ne = nh_[static_cast<std::size_t>(e)];
        if (ne.pc[s] == 1) g += ne.w;
        else if (ne.pc[t] == 0) g -= ne.w;
    }
    return g;
}

bool FMRefiner::isBoundary(ModuleId v, const Partition& part) const {
    (void)part;
    for (NetId e : h_.nets(v)) {
        const perf::NetHot& ne = nh_[static_cast<std::size_t>(e)];
        if (ne.pc[0] > 0 && ne.pc[1] > 0) return true; // sentinel is never cut
    }
    return false;
}

void FMRefiner::buildBuckets(const Partition& part) {
    for (int s = 0; s < 2; ++s) bucket_[s]->clear();
    const ModuleId n = h_.numModules();
    // Pass-start gains, restructured for the memory system. While the
    // planes fit in cache, one SIMD sweep (perf::classifyNetsHot) folds the
    // per-net hot records into two branch-free per-net gain planes —
    // sideGain[s][e] is what a side-s pin of net e contributes — after
    // which each module's gain is a straight sum over its CSR-contiguous
    // net list (perf::gatherSum). Past the cache budget the fused
    // per-module recompute over the same records wins (the plane write
    // traffic would evict applyMove's working set). Arithmetic and
    // summation order match computeGain() exactly (int64, net order), so
    // the buckets are bit-identical on every tier and on both paths.
    const std::size_t mSz = static_cast<std::size_t>(h_.numNets());
    const Weight* plane[2] = {nullptr, nullptr};
    const char* cutFlag = nullptr;
    if (usePlaneClassify(mSz)) {
        Weight* const planes = ws_->netSideGain.data();
        char* const cf = cfg_.boundaryInit ? ws_->netCut.data() : nullptr;
        perf::classifyNetsHot(nh_, mSz, planes, cf);
        plane[0] = planes;
        plane[1] = planes + mSz;
        cutFlag = cf;
    }
    for (ModuleId v = 0; v < n; ++v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        if ((state_[vi] & kBusyMask) != 0) continue; // locked or CDIP-blocked
        const std::span<const NetId> vNets = h_.nets(v);
        if (cfg_.boundaryInit) { // same predicate as isBoundary()
            bool boundary = false;
            if (cutFlag != nullptr) {
                for (NetId e : vNets)
                    if (cutFlag[static_cast<std::size_t>(e)] != 0) { boundary = true; break; }
            } else {
                boundary = isBoundary(v, part);
            }
            if (!boundary) continue;
        }
        const Weight g = plane[0] != nullptr
                             ? perf::gatherSum(plane[static_cast<std::size_t>(part.part(v))],
                                               vNets.data(), vNets.size())
                             : computeGain(v, part);
        bucket_[part.part(v)]->insert(v, g);
#if MLPART_CHECK_INVARIANTS
        // CLIP zeroes displayed gains at concatenation; remember the true
        // gain so the audit can undo the distortion.
        checkBase_[vi] = cfg_.variant == EngineVariant::kCLIP ? g : 0;
#endif
    }
    if (cfg_.variant == EngineVariant::kCLIP) {
        bucket_[0]->clipConcatenate();
        bucket_[1]->clipConcatenate();
    }
}

Weight FMRefiner::lookaheadGain(ModuleId v, int depth, const Partition& part) const {
    // Krishnamurthy level-r gain: a net can still be freed from side x at
    // level r if it has no locked pins on x and exactly r free pins there.
    const std::size_t s = static_cast<std::size_t>(part.part(v));
    const std::size_t t = 1 - s;
    Weight g = 0;
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        const perf::NetHot& ne = nh_[ei];
        if (ne.pc[0] < 0) continue; // inactive
        const std::int32_t freeS = ne.pc[s] - lockedPc_[2 * ei + s];
        const std::int32_t freeT = ne.pc[t] - lockedPc_[2 * ei + t];
        if (lockedPc_[2 * ei + s] == 0 && freeS == depth) g += h_.netWeight(e);
        if (lockedPc_[2 * ei + t] == 0 && freeT == depth - 1) g -= h_.netWeight(e);
    }
    return g;
}

ModuleId FMRefiner::selectMove(const Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) {
    ModuleId cand[2] = {kInvalidModule, kInvalidModule};
    for (int s = 0; s < 2; ++s) {
        const PartId from = s;
        const PartId to = 1 - s;
        // Under the paper's refinement bound the slack is at least
        // max(A(v*), r*A(V)), so most selections happen with enough
        // headroom on both sides that *every* module is feasible; the
        // highest bucket's head is then the scan's answer, O(1). RANDOM
        // policy still scans — its rng draws depend on the enumeration.
        // A move of v from `from` is feasible iff area(v) <= headroom, so
        // two extremes dispense with the candidate scan outright:
        // headroom >= A(v*) means everything is feasible (the answer is
        // the top bucket's head), and headroom < min module area means
        // nothing is — the late-pass state where `from` sits at its lower
        // bound, which would otherwise walk the whole bucket per select.
        const Area headroom = std::min(part.blockArea(from) - bc.lower(from),
                                       bc.upper(to) - part.blockArea(to));
        if (headroom < minArea_) {
            cand[s] = kInvalidModule; // no feasible module; no rng draw even under RANDOM
        } else if (headroom >= h_.maxArea() && bucket_[s]->policy() != BucketPolicy::kRandom) {
            cand[s] = bucket_[s]->top();
        } else {
            auto feasible = [&](ModuleId v) { return bc.allowsMove(part, h_.area(v), from, to); };
            cand[s] = bucket_[s]->selectBest(feasible, rng);
        }
    }
    if (cand[0] == kInvalidModule) return cand[1];
    if (cand[1] == kInvalidModule) return cand[0];
    const Weight g0 = bucket_[0]->gain(cand[0]);
    const Weight g1 = bucket_[1]->gain(cand[1]);
    int side;
    if (g0 != g1) side = g0 > g1 ? 0 : 1;
    else side = part.blockArea(0) >= part.blockArea(1) ? 0 : 1; // tie: drain the heavier side
    ModuleId chosen = cand[side];

    if (cfg_.lookahead >= 2) {
        // Scan the winning bucket for equal-displayed-gain feasible
        // candidates and break ties lexicographically on level-2..k gains.
        // Lookahead depth is capped at 8, so the gain vectors fit in
        // fixed-size scratch — no per-candidate allocation.
        const GainBucketArray& b = *bucket_[side];
        const Weight topGain = b.gain(chosen);
        const PartId from = side;
        const PartId to = 1 - side;
        const int len = cfg_.lookahead - 1;
        int examined = 0;
        ModuleId best = chosen;
        Weight bestVec[8];
        Weight vec[8];
        bool haveBest = false;
        for (ModuleId v = b.head(topGain); v != kInvalidModule && examined < cfg_.lookaheadWidth;
             v = b.next(v)) {
            if (!bc.allowsMove(part, h_.area(v), from, to)) continue;
            ++examined;
            for (int d = 2; d <= cfg_.lookahead; ++d) vec[d - 2] = lookaheadGain(v, d, part);
            if (!haveBest && v == best) {
                std::copy(vec, vec + len, bestVec);
                haveBest = true;
                continue;
            }
            if (!haveBest || std::lexicographical_compare(bestVec, bestVec + len, vec, vec + len)) {
                best = v;
                std::copy(vec, vec + len, bestVec);
                haveBest = true;
            }
        }
        chosen = best;
    }
    return chosen;
}

Weight FMRefiner::applyMove(ModuleId v, Partition& part) {
    const PartId from = part.part(v);
    const PartId to = 1 - from;
    const std::size_t fromS = static_cast<std::size_t>(from);
    const std::size_t toS = static_cast<std::size_t>(to);

    std::vector<ModuleId>& lazyInsert = ws_->lazyInsert;
    lazyInsert.clear();
    auto adjust = [&](ModuleId u, Weight d) {
        if (u == v) return; // register compare first; the state load misses cache
        const char st = state_[static_cast<std::size_t>(u)];
        if ((st & kBusyMask) != 0) return; // locked or blocked
        GainBucketArray& b = *bucket_[(st & kSideBit) != 0 ? 1 : 0];
        if (b.contains(u)) b.adjustGain(u, d);
        else if (cfg_.boundaryInit) lazyInsert.push_back(u); // now near the cut; full gain after updates
    };

    if (bucket_[from]->contains(v)) bucket_[from]->remove(v);
    // One traversal of v's nets does everything per net: measure the true
    // cut delta from the pre-move pin counts (one 16-byte NetHot load per
    // net), apply the standard FM delta-gain rules around the count
    // updates, and accumulate v's own post-move gain so the
    // relaxed-locking re-insert below needs no second traversal: after
    // v's pin flips sides, a net that was pcTo==0 is one v-move from
    // becoming uncut again (+w) and a net that was pcFrom==1 would become
    // cut again (-w); the else-if mirrors computeGain()'s rule priority
    // exactly (single-pin nets hit both).
    Weight delta = 0;
    Weight gainAfter = 0;
    const std::span<const NetId> vNets = h_.nets(v);
    const NetId* const vn = vNets.data();
    const std::size_t deg = vNets.size();
    for (std::size_t j = 0; j < deg; ++j) {
        const NetId e = vn[j];
        const std::size_t ei = static_cast<std::size_t>(e);
        perf::NetHot& ne = nh_[ei];
        const std::int32_t pcFrom = ne.pc[fromS];
        if (pcFrom < 0) continue; // inactive sentinel
        const std::int32_t pcTo = ne.pc[toS];
        // Interior nets (2+ pins on both sides before and after the move)
        // trigger no rule; skip even the weight read for them.
        if (pcTo <= 1 || pcFrom <= 2) {
            const Weight w = ne.w;
            if (pcTo == 0) {
                delta -= w; // net becomes cut
                gainAfter += w;
            } else if (pcFrom == 1) {
                delta += w; // net becomes uncut
                gainAfter -= w;
            }
            // The four classic rules, expressed as per-side deltas so one
            // traversal applies their sum per pin. When two rules hit the
            // same pin they have the same sign (+w,+w or -w,-w), so the
            // fused delta lands exactly where the two sequential
            // adjustGain() calls would: same final bucket, same list
            // position (intermediate state is never observed), and the
            // clamped intermediate value lies between the endpoints.
            const Weight addAll = (pcTo == 0 ? w : 0) + (pcFrom == 1 ? -w : 0);
            const Weight addTo = (pcTo == 1 ? -w : 0);
            const Weight addFrom = (pcFrom == 2 ? w : 0);
            if (addTo != 0 && addFrom != 0) {
                // 3-pin straddle (pcTo == 1, pcFrom == 2): the only case
                // where two *different* pins are hit by different rules.
                // Keep the historical to-then-from sweep order so the
                // lazyInsert first-occurrence order (and therefore bucket
                // insertion order) is unchanged.
                for (ModuleId u : h_.pins(e))
                    if (u != v && part.part(u) == to) adjust(u, addTo);
                for (ModuleId u : h_.pins(e))
                    if (part.part(u) == from) adjust(u, addFrom);
            } else if ((addAll | addTo | addFrom) != 0) {
                for (ModuleId u : h_.pins(e)) {
                    if (u == v) continue;
                    const char st = state_[static_cast<std::size_t>(u)];
                    if ((st & kBusyMask) != 0) continue;
                    const std::size_t us = (st & kSideBit) != 0 ? 1 : 0;
                    const Weight d = addAll + (us == toS ? addTo : addFrom);
                    if (d == 0) continue; // no rule touches this pin
                    GainBucketArray& b = *bucket_[us];
                    if (b.contains(u)) b.adjustGain(u, d);
                    else if (cfg_.boundaryInit) lazyInsert.push_back(u);
                }
            }
        }
        ne.pc[fromS] = pcFrom - 1;
        ne.pc[toS] = pcTo + 1;
        if (trackLockedPins_) lockedPc_[2 * ei + toS]++; // v locks on the target side
    }
    part.move(h_, v, to);
    moveCount_[static_cast<std::size_t>(v)]++;
    const bool exhausted = moveCount_[static_cast<std::size_t>(v)] >= cfg_.movesPerPass ||
                           (!cfg_.fixed.empty() && cfg_.fixed[static_cast<std::size_t>(v)]);
    // Preserve a CDIP block across the lock update (a blocked module is
    // never in a bucket, so v normally carries no block bit here) and
    // re-mirror v's new side.
    state_[static_cast<std::size_t>(v)] =
        static_cast<char>((state_[static_cast<std::size_t>(v)] & kBlockedBit) |
                          (exhausted ? kLockedBit : 0) | (to != 0 ? kSideBit : 0));
    curActiveCut_ -= delta;

    // Boundary mode: modules that just became boundary enter the structure
    // with a freshly computed gain (computed after all count updates).
    for (ModuleId u : lazyInsert) {
        GainBucketArray& b = *bucket_[part.part(u)];
        if (!b.contains(u) && (state_[static_cast<std::size_t>(u)] & kLockedBit) == 0) {
            b.insert(u, computeGain(u, part));
#if MLPART_CHECK_INVARIANTS
            checkBase_[static_cast<std::size_t>(u)] = 0; // displayed gain is the true gain
#endif
        }
    }
    // Relaxed locking (Dasdan-Aykanat): a module with budget left rejoins
    // the structure on its new side. gainAfter (accumulated above) equals
    // computeGain(v, part) over the updated counts, term for term.
    if (!exhausted && (state_[static_cast<std::size_t>(v)] & kBlockedBit) == 0) {
        bucket_[to]->insert(v, gainAfter);
#if MLPART_CHECK_INVARIANTS
        checkBase_[static_cast<std::size_t>(v)] = 0;
#endif
    }
    return delta;
}

void FMRefiner::undoMoves(std::size_t count, Partition& part) {
    std::vector<refine::FMMove>& moves = ws_->moves;
    for (std::size_t i = 0; i < count; ++i) {
        const refine::FMMove rec = moves.back();
        moves.pop_back();
        const std::size_t cur = static_cast<std::size_t>(part.part(rec.v));
        const std::size_t back = static_cast<std::size_t>(rec.from);
        const std::span<const NetId> vNets = h_.nets(rec.v);
        const NetId* const vn = vNets.data();
        const std::size_t deg = vNets.size();
        for (std::size_t j = 0; j < deg; ++j) {
            const NetId e = vn[j];
            const std::size_t ei = static_cast<std::size_t>(e);
            perf::NetHot& ne = nh_[ei];
            if (ne.pc[0] < 0) continue; // inactive sentinel
            ne.pc[cur]--;
            ne.pc[back]++;
            if (trackLockedPins_) lockedPc_[2 * ei + cur]--;
        }
        part.move(h_, rec.v, rec.from);
        moveCount_[static_cast<std::size_t>(rec.v)]--;
        // Unlock, keep any CDIP block, restore the side mirror.
        state_[static_cast<std::size_t>(rec.v)] = static_cast<char>(
            (state_[static_cast<std::size_t>(rec.v)] & kBlockedBit) |
            (rec.from != 0 ? kSideBit : 0));
        curActiveCut_ += rec.delta;
    }
}

Weight FMRefiner::runPass(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) {
    MLPART_FAULT_SITE("refine.fm.pass");
    // Profiling is attach-only: with no sink every clock read below is
    // skipped behind one well-predicted null check per segment.
    refine::RefineProfile* const prof = profile_;
    ProfClock::time_point tp{};
    if (prof != nullptr) tp = ProfClock::now();
    buildBuckets(part);
    if (prof != nullptr) {
        prof->bucketBuildSec += secondsSince(tp);
        ++prof->passes;
    }
#if MLPART_CHECK_INVARIANTS
    auditGainState(part, "FMRefiner::buildBuckets");
    movesSinceAudit_ = 0;
#endif
    std::vector<refine::FMMove>& moves = ws_->moves;
    moves.clear();
    Weight cumGain = 0;
    Weight bestGain = 0;
    std::size_t bestIdx = 0;
    int backtracks = 0;
    const std::size_t movable = static_cast<std::size_t>(bucket_[0]->size() + bucket_[1]->size());

    std::int64_t untilDeadlineCheck = 0;
    while (true) {
        // Cooperative budget: bail between moves; the best-prefix rollback
        // below keeps the partition valid regardless of where we stop.
        if (!deadline_.unlimited() && --untilDeadlineCheck <= 0) {
            if (deadline_.expired()) break;
            untilDeadlineCheck = kDeadlineStride;
        }
        const ModuleId v = selectMove(part, bc, rng);
        if (prof != nullptr) prof->selectSec += secondsSince(tp);
        if (v == kInvalidModule) break;
        const PartId from = part.part(v);
        const Weight delta = applyMove(v, part);
        moves.push_back({v, from, delta});
        if (prof != nullptr) {
            prof->applySec += secondsSince(tp);
            ++prof->moves;
        }
#if MLPART_CHECK_INVARIANTS
        // Periodic mid-pass audit: delta-gain corruption is only visible
        // between a move and the next bucket rebuild.
        if (h_.numModules() <= kMidPassAuditLimit && ++movesSinceAudit_ >= kAuditStride) {
            movesSinceAudit_ = 0;
            auditGainState(part, "FMRefiner::applyMove");
        }
#endif
        cumGain += delta;
        if (cumGain > bestGain) {
            bestGain = cumGain;
            bestIdx = moves.size();
        }

        if (cfg_.cdip && backtracks < cfg_.cdipMaxBacktracks &&
            bestGain - cumGain >= cfg_.cdipThreshold && moves.size() > bestIdx) {
            // Reverse the unprofitable tail and try a different sequence,
            // excluding the module that started it (Dutt-Deng CDIP idea).
            const ModuleId firstBad = moves[bestIdx].v;
            const std::size_t undone = moves.size() - bestIdx;
            undoMoves(undone, part);
            state_[static_cast<std::size_t>(firstBad)] |= kBlockedBit;
            cumGain = bestGain;
            ++backtracks;
            if (prof != nullptr) {
                prof->rollbackSec += secondsSince(tp);
                prof->rollbacks += static_cast<std::int64_t>(undone);
            }
            buildBuckets(part);
            if (prof != nullptr) prof->bucketBuildSec += secondsSince(tp);
#if MLPART_CHECK_INVARIANTS
            auditGainState(part, "FMRefiner::cdipBacktrack");
            movesSinceAudit_ = 0;
#endif
            continue;
        }
        // Early exit trims only the unprofitable tail of a pass that has
        // already improved: cut off before its first improvement, a pass
        // would return 0 and refine() would read that as convergence.
        if (cfg_.earlyExitFraction > 0.0 && bestIdx > 0 && moves.size() > bestIdx) {
            const double sinceBest = static_cast<double>(moves.size() - bestIdx);
            if (sinceBest > cfg_.earlyExitFraction * static_cast<double>(std::max<std::size_t>(movable, 1)))
                break;
        }
    }
    // Keep only the best prefix of the pass.
    const std::size_t undone = moves.size() - bestIdx;
    if (prof != nullptr) tp = ProfClock::now();
    undoMoves(undone, part);
    if (prof != nullptr) {
        prof->rollbackSec += secondsSince(tp);
        prof->rollbacks += static_cast<std::int64_t>(undone);
    }
    lastMoveCount_ += static_cast<std::int64_t>(bestIdx);
    return bestGain;
}

Weight FMRefiner::refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) {
    if (part.numParts() != 2) throw std::invalid_argument("FMRefiner: requires a bipartition");
    refine::Workspace& ws = ensureWorkspace();
    const ModuleId n = h_.numModules();
    const std::size_t nSz = static_cast<std::size_t>(n);
    ws.moveState.assign(nSz, 0);
    ws.moveCount.assign(nSz, 0);
    state_ = ws.moveState.data();
    moveCount_ = ws.moveCount.data();
    const bool doubled = cfg_.variant == EngineVariant::kCLIP;
    // Both sides' bucket lists bump-allocate from one arena: size it for
    // both *before* binding either (a resize after the first bind would
    // move the storage out from under it).
    const std::size_t listSlots = GainBucketArray::listSlotsFor(h_.maxModuleGain(), doubled);
    if (ws.bucketArena.size() < 2 * listSlots) ws.bucketArena.resize(2 * listSlots);
    for (int s = 0; s < 2; ++s) {
        ws.bucket[s].reset(n, h_.maxModuleGain(), doubled, cfg_.policy, ws.bucketArena,
                           static_cast<std::size_t>(s) * listSlots);
        bucket_[s] = &ws.bucket[s];
    }
#if MLPART_CHECK_INVARIANTS
    checkBase_.assign(nSz, 0);
#endif
    // Classification planes are (re)written wholesale at every pass start,
    // so they only need to be grown, never cleared — and only exist at all
    // on levels small enough for the plane path (see usePlaneClassify).
    const std::size_t mSz = static_cast<std::size_t>(h_.numNets());
    if (usePlaneClassify(mSz)) {
        if (ws.netSideGain.size() < 2 * mSz) ws.netSideGain.resize(2 * mSz);
        if (cfg_.boundaryInit && ws.netCut.size() < mSz) ws.netCut.resize(mSz);
    }

    if (!bc.satisfied(part)) rebalance(h_, part, bc, rng); // defensive; ML projections are pre-balanced

    initNetState(part);
    const std::size_t lockedPcLen = 2 * static_cast<std::size_t>(h_.numNets());
    lastPassCount_ = 0;
    lastMoveCount_ = 0;
    for (int pass = 0; pass < cfg_.maxPasses; ++pass) {
        if (!deadline_.unlimited() && deadline_.expired()) break;
        // Pre-assigned (fixed) modules stay locked through every pass; the
        // reset also clears all CDIP blocks from the previous pass and
        // refreshes the per-module side mirror.
        for (ModuleId i = 0; i < n; ++i) {
            const std::size_t iSz = static_cast<std::size_t>(i);
            state_[iSz] = static_cast<char>(
                ((!cfg_.fixed.empty() && cfg_.fixed[iSz]) ? kLockedBit : 0) |
                (part.part(i) != 0 ? kSideBit : 0));
        }
        std::fill(moveCount_, moveCount_ + nSz, 0);
        if (trackLockedPins_) std::fill(lockedPc_, lockedPc_ + lockedPcLen, 0);
        // Shin-Kim tightening: early passes run under a relaxed tolerance
        // shrinking linearly to the target; late passes use the caller's
        // constraint verbatim.
        Weight gain;
        if (cfg_.tightenStart > 0.0 && pass < cfg_.tightenPasses) {
            const double frac = static_cast<double>(pass) / static_cast<double>(cfg_.tightenPasses);
            const double tol = cfg_.tightenStart + (cfg_.tolerance - cfg_.tightenStart) * frac;
            const BalanceConstraint relaxed = BalanceConstraint::forRefinement(h_, 2, tol);
            gain = runPass(part, relaxed, rng);
        } else {
            gain = runPass(part, bc, rng);
        }
        ++lastPassCount_;
        if (gain <= 0 && pass >= (cfg_.tightenStart > 0.0 ? cfg_.tightenPasses : 0))
            break; // a pass without improvement (after tightening) terminates FM
    }
    if (!bc.satisfied(part)) {
        // Tightened passes can leave the relaxed solution outside the
        // caller's bound: repair and run one exact-tolerance pass.
        rebalance(h_, part, bc, rng);
        // rebalance() moves modules behind the engine's back: the pin
        // counts and the tracked cut are stale.
        initNetState(part);
        for (ModuleId i = 0; i < n; ++i) {
            const std::size_t iSz = static_cast<std::size_t>(i);
            state_[iSz] = static_cast<char>(
                ((!cfg_.fixed.empty() && cfg_.fixed[iSz]) ? kLockedBit : 0) |
                (part.part(i) != 0 ? kSideBit : 0));
        }
        std::fill(moveCount_, moveCount_ + nSz, 0);
        if (trackLockedPins_) std::fill(lockedPc_, lockedPc_ + lockedPcLen, 0);
        runPass(part, bc, rng);
        ++lastPassCount_;
    }
    return cutWeight(h_, part); // exact cut, ignored nets reinstated
}

} // namespace mlpart
