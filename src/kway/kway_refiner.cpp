#include "kway/kway_refiner.h"

#include <algorithm>
#include <bit>
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
/// Largest k the pass-start frozen-count bitmask sweep supports (one bit
/// per block in a uint64). Larger k falls back to per-target moveGain().
constexpr PartId kMaskSweepMaxK = 64;

/// One net's term of a move's objective reduction, in units of the net's
/// weight: a pin leaves a block holding cFrom of the net's pins for one
/// holding cTo, and the net spans sp blocks before the move.
inline int objectiveTerm(bool netCut, PartId sp, std::int32_t cFrom, std::int32_t cTo) {
    const int emptied = cFrom == 1 ? 1 : 0;
    const int opened = cTo == 0 ? 1 : 0;
    if (!netCut) return emptied - opened;
    const PartId spAfter = sp - emptied + opened;
    return (sp > 1 ? 1 : 0) - (spAfter > 1 ? 1 : 0);
}

/// Profiling clock helper: seconds since `t0`, advancing it, so
/// consecutive calls carve the timeline into disjoint segments.
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
constexpr std::int64_t kAuditStride = 64;
/// Mid-pass audits recompute every tracked (module, target) gain from
/// scratch; past this size only the per-pass audits run.
constexpr ModuleId kMidPassAuditLimit = 4096;
} // namespace

void KWayFMRefiner::auditGainState(const Partition& part, const char* where) const {
    check::CheckResult r;
    auto bucketAt = [&](PartId p, PartId q) -> const GainBucketArray& {
        return bucket(p, q);
    };
    for (PartId p = 0; p < k_; ++p) {
        for (PartId q = 0; q < k_; ++q) {
            if (p == q) continue;
            ++r.factsChecked;
            if (!bucketAt(p, q).checkInvariants())
                r.fail("bucket (" + std::to_string(p) + " -> " + std::to_string(q) +
                       ") structure corrupt");
        }
    }

    // Per-net block pin counts and spans against the raw assignment.
    for (NetId e = 0; e < h_.numNets(); ++e) {
        if (!activeNet_[static_cast<std::size_t>(e)]) continue;
        std::vector<std::int32_t> scratch(static_cast<std::size_t>(k_), 0);
        for (ModuleId u : h_.pins(e)) scratch[static_cast<std::size_t>(part.part(u))]++;
        PartId sp = 0;
        for (PartId p = 0; p < k_; ++p) {
            ++r.factsChecked;
            if (scratch[static_cast<std::size_t>(p)] > 0) ++sp;
            if (scratch[static_cast<std::size_t>(p)] != count(e, p))
                r.fail("net " + std::to_string(e) + " block " + std::to_string(p) +
                       ": tracked pin count " + std::to_string(count(e, p)) +
                       " != recomputed " + std::to_string(scratch[static_cast<std::size_t>(p)]));
        }
        ++r.factsChecked;
        if (sp != span_[static_cast<std::size_t>(e)])
            r.fail("net " + std::to_string(e) + ": tracked span " +
                   std::to_string(span_[static_cast<std::size_t>(e)]) + " != recomputed " +
                   std::to_string(sp));
        if (!trackLockedPins_) continue;
        // Locked pins are this pass's moves: locked_ without the fixed modules.
        std::fill(scratch.begin(), scratch.end(), 0);
        for (ModuleId u : h_.pins(e)) {
            const std::size_t ui = static_cast<std::size_t>(u);
            if (locked_[ui] && (cfg_.fixed.empty() || !cfg_.fixed[ui]))
                scratch[static_cast<std::size_t>(part.part(u))]++;
        }
        for (PartId p = 0; p < k_; ++p) {
            ++r.factsChecked;
            const std::int32_t tracked =
                lockedCounts_[static_cast<std::size_t>(e) * static_cast<std::size_t>(k_) +
                              static_cast<std::size_t>(p)];
            if (scratch[static_cast<std::size_t>(p)] != tracked)
                r.fail("net " + std::to_string(e) + " block " + std::to_string(p) +
                       ": tracked locked pins " + std::to_string(tracked) + " != recomputed " +
                       std::to_string(scratch[static_cast<std::size_t>(p)]));
        }
    }

    const bool netCut = cfg_.objective == KWayObjective::kNetCut;
    check::KWayGainProbe probe;
    probe.k = k_;
    probe.netCutObjective = netCut;
    probe.tracked = [&](ModuleId v, PartId q) {
        return !locked_[static_cast<std::size_t>(v)] && bucketAt(part.part(v), q).contains(v);
    };
    probe.gain = [&](ModuleId v, PartId q) -> std::optional<Weight> {
        return realGain_[static_cast<std::size_t>(v) * static_cast<std::size_t>(k_) +
                         static_cast<std::size_t>(q)];
    };
    r.merge(check::verifyGainState(h_, part, ws_->kActiveNet, probe));

    // Without CLIP the displayed bucket priority must equal the believed
    // real gain (modulo index-range clamping).
    if (!cfg_.clip) {
        for (ModuleId v = 0; v < h_.numModules(); ++v) {
            if (locked_[static_cast<std::size_t>(v)]) continue;
            const PartId p = part.part(v);
            for (PartId q = 0; q < k_; ++q) {
                if (q == p || !bucketAt(p, q).contains(v)) continue;
                ++r.factsChecked;
                const GainBucketArray& b = bucketAt(p, q);
                const Weight real = realGain_[static_cast<std::size_t>(v) * static_cast<std::size_t>(k_) +
                                              static_cast<std::size_t>(q)];
                const Weight expect = std::clamp(real, b.minRepresentableGain(), b.maxRepresentableGain());
                if (b.gain(v) != expect)
                    r.fail("module " + std::to_string(v) + " -> " + std::to_string(q) +
                           ": displayed gain " + std::to_string(b.gain(v)) + " != believed " +
                           std::to_string(expect));
            }
        }
    }

    ++r.factsChecked;
    const Weight scratch = check::naiveActiveObjective(h_, part, ws_->kActiveNet, netCut);
    if (scratch != curObjective_)
        r.fail("tracked objective " + std::to_string(curObjective_) + " != naive recompute " +
               std::to_string(scratch));
    check::enforce(r, where);
}
#endif

KWayFMRefiner::KWayFMRefiner(const Hypergraph& h, KWayConfig cfg) : h_(h), cfg_(std::move(cfg)) {
    if (cfg_.tolerance < 0.0 || cfg_.tolerance >= 1.0)
        throw std::invalid_argument("KWayFMRefiner: tolerance must be in [0, 1)");
    if (cfg_.maxNetSize < 2) throw std::invalid_argument("KWayFMRefiner: maxNetSize must be >= 2");
    if (cfg_.moveWindow < 1) throw std::invalid_argument("KWayFMRefiner: moveWindow must be >= 1");
    if (!cfg_.fixed.empty() && cfg_.fixed.size() != static_cast<std::size_t>(h.numModules()))
        throw std::invalid_argument("KWayFMRefiner: fixed mask size mismatch");
    if (cfg_.lookahead < 0 || cfg_.lookahead > 8)
        throw std::invalid_argument("KWayFMRefiner: lookahead depth out of range");
    trackLockedPins_ = cfg_.lookahead >= 2; // lockedCounts_ feeds only lookaheadGain()
    minArea_ = std::numeric_limits<Area>::max();
    for (ModuleId v = 0; v < h_.numModules(); ++v) minArea_ = std::min(minArea_, h_.area(v));
}

refine::Workspace& KWayFMRefiner::ensureWorkspace() {
    if (ws_ != nullptr) return *ws_;
    if (!owned_) owned_ = std::make_unique<refine::Workspace>();
    ws_ = owned_.get();
    return *ws_;
}

void KWayFMRefiner::initNetState(const Partition& part) {
    refine::Workspace& ws = *ws_;
    const NetId m = h_.numNets();
    const std::size_t mSz = static_cast<std::size_t>(m);
    ws.kActiveNet.assign(mSz, 0);
    ws.kCounts.assign(mSz * static_cast<std::size_t>(k_), 0);
    ws.kSpan.assign(mSz, 0);
    activeNet_ = ws.kActiveNet.data();
    counts_ = ws.kCounts.data();
    span_ = ws.kSpan.data();
    if (trackLockedPins_) {
        // Zeroed at every pass start by refine().
        ws.kLockedCounts.resize(mSz * static_cast<std::size_t>(k_));
        lockedCounts_ = ws.kLockedCounts.data();
    }
    cnt1Mask_ = cnt0Mask_ = nullptr;
    if (k_ <= kMaskSweepMaxK) {
        // Rewritten wholesale by every buildBuckets() call: grow, no clear.
        if (ws.kCnt1Mask.size() < mSz) ws.kCnt1Mask.resize(mSz);
        if (ws.kCnt0Mask.size() < mSz) ws.kCnt0Mask.resize(mSz);
        cnt1Mask_ = ws.kCnt1Mask.data();
        cnt0Mask_ = ws.kCnt0Mask.data();
    }
    curObjective_ = 0;
    for (NetId e = 0; e < m; ++e) {
        if (h_.netSize(e) > cfg_.maxNetSize) continue;
        activeNet_[static_cast<std::size_t>(e)] = 1;
        for (ModuleId v : h_.pins(e)) count(e, part.part(v))++;
        PartId sp = 0;
        for (PartId p = 0; p < k_; ++p)
            if (count(e, p) > 0) ++sp;
        span_[static_cast<std::size_t>(e)] = sp;
        if (cfg_.objective == KWayObjective::kNetCut) {
            if (sp > 1) curObjective_ += h_.netWeight(e);
        } else {
            curObjective_ += h_.netWeight(e) * static_cast<Weight>(sp - 1);
        }
    }
}

Weight KWayFMRefiner::moveGain(ModuleId v, PartId q, const Partition& part) const {
    const PartId p = part.part(v);
    const bool netCut = cfg_.objective == KWayObjective::kNetCut;
    Weight g = 0;
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (!activeNet_[ei]) continue;
        g += h_.netWeight(e) * objectiveTerm(netCut, span_[ei], count(e, p), count(e, q));
    }
    return g;
}

void KWayFMRefiner::moveGainsAll(ModuleId v, const Partition& part, Weight* out) const {
    // Decomposition of moveGain() over the frozen pass-start counts. With
    //   a  = [count(e, p) == 1]   (p empties when v leaves) and
    //   bq = [count(e, q) == 0]   (q becomes newly spanned),
    // spAfter = sp - a + bq, so per net the contribution toward target q is
    //   span objective:    w * (sp - spAfter)          = w*a - w*bq
    //   net-cut objective: w * ((sp>1) - (spAfter>1))  = w*a - w*bq
    //     when sp - a == 1, and 0 when sp - a >= 2 (sp - a == 0 cannot
    //     happen: sp == 1 forces count(e, p) == netSize(e) >= 2, so a = 0).
    // The w*a term is target-independent; the -w*bq corrections are
    // exactly the set bits of cnt0Mask (bit p is never set: count(e,p)>=1).
    // Integer sums reassociate exactly, so out[q] matches a per-target
    // moveGain() call bit for bit — one net traversal instead of k.
    const PartId p = part.part(v);
    const std::size_t kSz = static_cast<std::size_t>(k_);
    const bool netCut = cfg_.objective == KWayObjective::kNetCut;
    Weight base = 0;
    Weight corr[kMaskSweepMaxK];
    std::fill(corr, corr + kSz, Weight{0});
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (!activeNet_[ei]) continue;
        const std::int32_t a =
            static_cast<std::int32_t>((cnt1Mask_[ei] >> static_cast<unsigned>(p)) & 1U);
        if (netCut && span_[ei] - a != 1) continue;
        const Weight w = h_.netWeight(e);
        base += w * static_cast<Weight>(a);
        std::uint64_t bits = cnt0Mask_[ei];
        while (bits != 0) {
            corr[static_cast<std::size_t>(std::countr_zero(bits))] += w;
            bits &= bits - 1;
        }
    }
    // out[p] = base is meaningless; callers skip q == p.
    for (std::size_t q = 0; q < kSz; ++q) out[q] = base - corr[q];
}

Weight KWayFMRefiner::lookaheadGain(ModuleId v, PartId q, int depth, const Partition& part) const {
    // Krishnamurthy/Sanchis level-r gain generalized to k blocks: a net
    // can still leave block x at level r if x holds no locked pins of it
    // and exactly r free ones.
    const PartId p = part.part(v);
    Weight g = 0;
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (!activeNet_[ei]) continue;
        const std::size_t base = ei * static_cast<std::size_t>(k_);
        const std::int32_t lockedP = lockedCounts_[base + static_cast<std::size_t>(p)];
        const std::int32_t lockedQ = lockedCounts_[base + static_cast<std::size_t>(q)];
        const std::int32_t freeP = count(e, p) - lockedP;
        const std::int32_t freeQ = count(e, q) - lockedQ;
        if (lockedP == 0 && freeP == depth) g += h_.netWeight(e);
        if (lockedQ == 0 && freeQ == depth - 1) g -= h_.netWeight(e);
    }
    return g;
}

void KWayFMRefiner::buildBuckets(const Partition& part) {
    for (PartId p = 0; p < k_; ++p)
        for (PartId q = 0; q < k_; ++q)
            if (p != q) bucket(p, q).clear();
    const ModuleId n = h_.numModules();
    // Fast path (k <= 64): one SIMD classification of the frozen counts
    // into per-net ==1/==0 bitmasks, then one net traversal per module
    // yields its gains toward all k targets (moveGainsAll). The realGain_
    // cache is filled in the same sweep — callers must bind it first.
    // Insertion order (v ascending, then q ascending) and gain values are
    // identical to the per-target moveGain() fallback.
    const bool maskSweep = k_ <= kMaskSweepMaxK;
    if (maskSweep)
        perf::classifyKWayCounts(counts_, activeNet_, static_cast<std::size_t>(h_.numNets()), k_,
                                 cnt1Mask_, cnt0Mask_);
    Weight gains[kMaskSweepMaxK];
    for (ModuleId v = 0; v < n; ++v) {
        if (locked_[static_cast<std::size_t>(v)]) continue;
        const PartId p = part.part(v);
        if (maskSweep) moveGainsAll(v, part, gains);
        for (PartId q = 0; q < k_; ++q) {
            if (q == p) continue;
            const Weight g = maskSweep ? gains[static_cast<std::size_t>(q)] : moveGain(v, q, part);
            bucket(p, q).insert(v, g);
            realGain_[static_cast<std::size_t>(v) * static_cast<std::size_t>(k_) +
                      static_cast<std::size_t>(q)] = g;
        }
    }
    if (cfg_.clip)
        for (PartId p = 0; p < k_; ++p)
            for (PartId q = 0; q < k_; ++q)
                if (p != q) bucket(p, q).clipConcatenate();
}

Weight KWayFMRefiner::applyMove(ModuleId v, PartId to, Partition& part) {
    // One traversal of v's active nets updates the pin counts and, from
    // each net's pre-move counts cf = count(e, from), ct = count(e, to),
    // accumulates the gain changes of its free pins. Each first-touched
    // neighbour gets a delta row: row[k] toward every target, row[q]
    // toward q alone. A net with cf > 2 and ct > 1 changes no gain and no
    // span, but its pins still take their first-touch slots, so the
    // bucket updates below run in the order of a from-scratch refresh.
    const PartId from = part.part(v);
    const bool netCut = cfg_.objective == KWayObjective::kNetCut;
    const std::size_t kSz = static_cast<std::size_t>(k_);
    const std::size_t stride = kSz + 1;
    std::vector<ModuleId>& touched = ws_->kTouchList;
    std::vector<Weight>& deltas = ws_->kGainDelta;
    touched.clear();
    deltas.clear();
    Weight delta = 0; // true objective delta of the move
    for (NetId e : h_.nets(v)) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (!activeNet_[ei]) continue;
        const std::int32_t cf = count(e, from);
        const std::int32_t ct = count(e, to);
        const PartId sp = span_[ei];
        const PartId spAfter = sp - (cf == 1 ? 1 : 0) + (ct == 0 ? 1 : 0);
        const Weight w = h_.netWeight(e);
        delta += w * objectiveTerm(netCut, sp, cf, ct);
        span_[ei] = spAfter;
        count(e, from) = cf - 1;
        count(e, to) = ct + 1;
        if (trackLockedPins_) lockedCounts_[ei * kSz + static_cast<std::size_t>(to)]++;

        const bool changes = cf <= 2 || ct <= 1;
        // Sum of degrees, closed form: the pin left in `from` (cf = 2)
        // gains w toward every target, the pin already in `to` (ct = 1)
        // loses w toward every target; pins outside `from` lose w toward
        // it when it empties (cf = 1), pins outside `to` gain w toward it
        // when it was empty (ct = 0). Pins inside `from` (`to`) can only
        // see cf >= 2 (ct >= 1), so the last two apply to every pin.
        const Weight inFrom = cf == 2 ? w : 0;
        const Weight inTo = ct == 1 ? -w : 0;
        const Weight towardFrom = cf == 1 ? -w : 0;
        const Weight towardTo = ct == 0 ? w : 0;
        for (ModuleId u : h_.pins(e)) {
            const std::size_t ui = static_cast<std::size_t>(u);
            if (u == v || locked_[ui]) continue;
            std::uint32_t slot = touchSlot_[ui];
            if (slot == 0) {
                touched.push_back(u);
                slot = static_cast<std::uint32_t>(touched.size());
                touchSlot_[ui] = slot;
                deltas.resize(deltas.size() + stride); // zeroed row
            }
            if (!changes) continue;
            Weight* row = deltas.data() + static_cast<std::size_t>(slot - 1) * stride;
            const PartId p = part.part(u);
            if (netCut) {
                // The net's term of (u -> q) after the move minus before.
                const std::int32_t* c = &count(e, 0);
                auto before = [&](PartId x) { return c[x] + (x == from ? 1 : 0) - (x == to ? 1 : 0); };
                for (PartId q = 0; q < k_; ++q) {
                    if (q == p) continue;
                    row[q] += w * (objectiveTerm(true, spAfter, c[p], c[q]) -
                                   objectiveTerm(true, sp, before(p), before(q)));
                }
            } else {
                row[kSz] += p == from ? inFrom : (p == to ? inTo : 0);
                row[from] += towardFrom;
                row[to] += towardTo;
            }
        }
    }
    part.move(h_, v, to);
    locked_[static_cast<std::size_t>(v)] = 1;
    for (PartId q = 0; q < k_; ++q) {
        if (q == from) continue;
        if (bucket(from, q).contains(v)) bucket(from, q).remove(v);
    }
    curObjective_ -= delta;

    // Apply the real-gain changes as deltas (so CLIP's relative ordering
    // is preserved): neighbours in first-touch order, targets ascending.
    for (std::size_t i = 0; i < touched.size(); ++i) {
        const ModuleId u = touched[i];
        const std::size_t ui = static_cast<std::size_t>(u);
        touchSlot_[ui] = 0;
        const PartId p = part.part(u);
        const Weight* row = deltas.data() + i * stride;
        for (PartId q = 0; q < k_; ++q) {
            if (q == p) continue;
            const Weight d = row[kSz] + row[q];
            if (d == 0) continue;
            bucket(p, q).adjustGain(u, d);
            realGain_[ui * kSz + static_cast<std::size_t>(q)] += d;
        }
    }
    return delta;
}

void KWayFMRefiner::undoMoves(std::size_t n, Partition& part) {
    std::vector<refine::KWayMove>& moves = ws_->kMoves;
    for (std::size_t i = 0; i < n; ++i) {
        const refine::KWayMove rec = moves.back();
        moves.pop_back();
        for (NetId e : h_.nets(rec.v)) {
            const std::size_t ei = static_cast<std::size_t>(e);
            if (!activeNet_[ei]) continue;
            if (count(e, rec.to) == 1) span_[ei]--;
            if (count(e, rec.from) == 0) span_[ei]++;
            count(e, rec.to)--;
            count(e, rec.from)++;
            if (trackLockedPins_)
                lockedCounts_[ei * static_cast<std::size_t>(k_) + static_cast<std::size_t>(rec.to)]--;
        }
        part.move(h_, rec.v, rec.from);
        locked_[static_cast<std::size_t>(rec.v)] = 0;
        curObjective_ += rec.delta;
    }
}

Weight KWayFMRefiner::runPass(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) {
    MLPART_FAULT_SITE("refine.kway.pass");
    refine::RefineProfile* const prof = profile_;
    ProfClock::time_point tp{};
    if (prof != nullptr) tp = ProfClock::now();
    buildBuckets(part);
    if (prof != nullptr) {
        prof->bucketBuildSec += secondsSince(tp);
        ++prof->passes;
    }
#if MLPART_CHECK_INVARIANTS
    auditGainState(part, "KWayFMRefiner::buildBuckets");
    movesSinceAudit_ = 0;
#endif

    std::vector<refine::KWayMove>& moves = ws_->kMoves;
    moves.clear();
    Weight cumGain = 0;
    Weight bestGain = 0;
    std::size_t bestIdx = 0;
    // CLIP passes are never windowed: concatenation defers their gains.
    const std::size_t window =
        cfg_.clip ? std::numeric_limits<std::size_t>::max() : static_cast<std::size_t>(cfg_.moveWindow);
    std::int64_t untilDeadlineCheck = 0;
    while (true) {
        // Cooperative budget: bail between moves; the best-prefix rollback
        // below keeps the partition valid regardless of where we stop.
        if (!deadline_.unlimited() && --untilDeadlineCheck <= 0) {
            if (deadline_.expired()) break;
            untilDeadlineCheck = 64;
        }
        ModuleId bestV = kInvalidModule;
        PartId bestTo = kInvalidPart;
        Weight bestDisplayed = 0;
        for (PartId p = 0; p < k_; ++p) {
            const Area headroomFrom = part.blockArea(p) - bc.lower(p);
            for (PartId q = 0; q < k_; ++q) {
                if (p == q) continue;
                GainBucketArray& b = bucket(p, q);
                // Feasibility of (p -> q) is just area(v) <= headroom, so
                // the two extremes skip the candidate scan: headroom below
                // the smallest module area means nothing is movable (and
                // consumes no rng draw under any policy), headroom at or
                // above A(v*) means everything is (LIFO/FIFO: the top
                // bucket's head wins outright).
                const Area headroom = std::min(headroomFrom, bc.upper(q) - part.blockArea(q));
                ModuleId v;
                if (headroom < minArea_) {
                    v = kInvalidModule;
                } else if (headroom >= h_.maxArea() && b.policy() != BucketPolicy::kRandom) {
                    v = b.top();
                } else {
                    auto feasible = [&](ModuleId u) { return bc.allowsMove(part, h_.area(u), p, q); };
                    v = b.selectBest(feasible, rng);
                }
                if (v == kInvalidModule) continue;
                const Weight g = b.gain(v);
                if (bestV == kInvalidModule || g > bestDisplayed) {
                    bestV = v;
                    bestTo = q;
                    bestDisplayed = g;
                }
            }
        }
        if (prof != nullptr) prof->selectSec += secondsSince(tp);
        if (bestV == kInvalidModule) break;
        if (cfg_.lookahead >= 2) {
            // Tie-break equal-displayed-gain candidates of the winning
            // bucket by their level-2..k lookahead vectors. Depth is capped
            // at 8, so the vectors fit in fixed scratch — no allocation.
            const PartId p = part.part(bestV);
            GainBucketArray& b = bucket(p, bestTo);
            const int len = cfg_.lookahead - 1;
            int examined = 0;
            ModuleId best = bestV;
            Weight bestVecL[8];
            Weight vec[8];
            bool haveBest = false;
            for (ModuleId v = b.head(bestDisplayed); v != kInvalidModule && examined < cfg_.lookaheadWidth;
                 v = b.next(v)) {
                if (!bc.allowsMove(part, h_.area(v), p, bestTo)) continue;
                ++examined;
                for (int d = 2; d <= cfg_.lookahead; ++d)
                    vec[d - 2] = lookaheadGain(v, bestTo, d, part);
                if (!haveBest && v == best) {
                    std::copy(vec, vec + len, bestVecL);
                    haveBest = true;
                    continue;
                }
                if (!haveBest || std::lexicographical_compare(bestVecL, bestVecL + len, vec, vec + len)) {
                    best = v;
                    std::copy(vec, vec + len, bestVecL);
                    haveBest = true;
                }
            }
            bestV = best;
        }
        const PartId from = part.part(bestV);
        const Weight delta = applyMove(bestV, bestTo, part);
        moves.push_back({bestV, from, bestTo, delta});
        if (prof != nullptr) {
            prof->applySec += secondsSince(tp);
            ++prof->moves;
        }
#if MLPART_CHECK_INVARIANTS
        if (h_.numModules() <= kMidPassAuditLimit && ++movesSinceAudit_ >= kAuditStride) {
            movesSinceAudit_ = 0;
            auditGainState(part, "KWayFMRefiner::applyMove");
        }
#endif
        cumGain += delta;
        if (cumGain > bestGain) {
            bestGain = cumGain;
            bestIdx = moves.size();
        }
        // Move window: W moves past the best prefix (or the pass start)
        // without a new best ends the pass; the rollback below restores
        // that prefix, exactly as when no feasible move is left.
        if (moves.size() - bestIdx >= window) break;
    }
    const std::size_t undone = moves.size() - bestIdx;
    if (prof != nullptr) tp = ProfClock::now();
    undoMoves(undone, part);
    if (prof != nullptr) {
        prof->rollbackSec += secondsSince(tp);
        prof->rollbacks += static_cast<std::int64_t>(undone);
    }
    return bestGain;
}

Weight KWayFMRefiner::refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) {
    k_ = part.numParts();
    if (k_ < 2) throw std::invalid_argument("KWayFMRefiner: requires k >= 2");
    if (bc.numParts() != k_) throw std::invalid_argument("KWayFMRefiner: constraint arity mismatch");

    refine::Workspace& ws = ensureWorkspace();
    const ModuleId n = h_.numModules();
    const std::size_t nSz = static_cast<std::size_t>(n);
    ws.kLocked.assign(nSz, 0);
    ws.kTouchSlot.assign(nSz, 0);
    locked_ = ws.kLocked.data();
    touchSlot_ = ws.kTouchSlot.data();
    // The real-gain cache (CLIP delta base): every pass's buildBuckets
    // writes each entry a later read sees, so it only grows.
    const std::size_t gainLen = nSz * static_cast<std::size_t>(k_);
    if (ws.kRealGain.size() < gainLen) ws.kRealGain.resize(gainLen);
    realGain_ = ws.kRealGain.data();
    ws.kBuckets.resize(static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_));
    buckets_ = ws.kBuckets.data();
    // All k*(k-1) directed bucket structures bind their head/tail lists to
    // one bump-allocated workspace arena (sized up-front — the binding
    // contract forbids growing it afterwards), so a warm V-cycle performs
    // zero per-level list allocations here instead of O(k^2) per level.
    const Weight maxGain = h_.maxModuleGain();
    const std::size_t slots = GainBucketArray::listSlotsFor(maxGain, cfg_.clip);
    const std::size_t pairs =
        static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_ - 1);
    if (ws.kBucketArena.size() < pairs * slots) ws.kBucketArena.resize(pairs * slots);
    std::size_t offset = 0;
    for (PartId p = 0; p < k_; ++p)
        for (PartId q = 0; q < k_; ++q)
            if (p != q) {
                bucket(p, q).reset(n, maxGain, cfg_.clip, cfg_.policy, ws.kBucketArena, offset);
                offset += slots;
            }

    if (!bc.satisfied(part)) rebalance(h_, part, bc, rng);
    initNetState(part);

    lastPassCount_ = 0;
    for (int pass = 0; pass < cfg_.maxPasses; ++pass) {
        if (!deadline_.unlimited() && deadline_.expired()) break;
        // Pre-assigned (fixed) modules stay locked through every pass.
        if (cfg_.fixed.empty()) std::fill(locked_, locked_ + nSz, 0);
        else std::copy(cfg_.fixed.begin(), cfg_.fixed.end(), locked_);
        // Locked pins are the moves of this pass; fixed modules are not
        // among them (as in FMRefiner).
        if (trackLockedPins_)
            std::fill(lockedCounts_, lockedCounts_ + static_cast<std::size_t>(h_.numNets()) *
                                                         static_cast<std::size_t>(k_), 0);
        const Weight gain = runPass(part, bc, rng);
        ++lastPassCount_;
        if (gain <= 0) break;
    }
    return cutWeight(h_, part);
}

RefinerFactory makeKWayFactory(KWayConfig cfg) {
    return [cfg](const Hypergraph& h, const std::vector<char>& fixedMask) -> std::unique_ptr<Refiner> {
        KWayConfig local = cfg;
        local.fixed = fixedMask;
        return std::make_unique<KWayFMRefiner>(h, std::move(local));
    };
}

} // namespace mlpart
