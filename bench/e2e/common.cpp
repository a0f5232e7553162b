// Shared pieces of mlpart_benchmark: clocks, memory, instance files, the probed
// refinement factory, the coarsening replay and the per-layer tally.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>

#include "coarsen/coarsen_kernel.h"
#include "coarsen/matcher.h"
#include "e2e.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/io.h"
#include "robust/checkpoint.h"

namespace mlpart::e2e {

double nowSeconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double selfPeakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::uint64_t streamSeed(std::uint64_t seed, std::int64_t run) {
    return seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(run);
}

bool writeInstanceFile(const std::string& name, double scale, const std::string& path) {
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
        int code = 0;
        try {
            writeHgrFile(benchmarkInstance(name, scale), path);
        } catch (...) {
            code = 1;
        }
        _exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string tailNote(const Summary& s) {
    return "latency_tail_ms: p" + formatNumber(s.tailPct) + " of " + std::to_string(s.n) +
           " samples has only " + std::to_string(samplesBeyond(s.n, s.tailPct)) +
           " beyond it (fewer than ten: a near-maximum, not a supported tail)";
}

std::string freshDir(const std::string& path) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

std::string requestId(const std::string& prefix, std::size_t n) {
    std::string id = prefix;
    id += std::to_string(n);
    return id;
}

std::string partitionRequest(const std::string& id, const std::string& instance,
                             std::uint64_t seed, int k, const std::string& engine,
                             int vcycleThreads) {
    return "{\"op\":\"partition\",\"id\":" + jsonQuote(id) +
           ",\"instance\":" + jsonQuote(instance) + ",\"k\":" + std::to_string(k) +
           ",\"engine\":" + jsonQuote(engine) + ",\"runs\":1,\"seed\":" + std::to_string(seed) +
           ",\"vcycle_threads\":" + std::to_string(vcycleThreads) + "}";
}

std::uint32_t partitionCrc(const Partition& p) {
    const std::vector<std::uint8_t> blob = encodePartitionBinary(p);
    return robust::crc32(blob.data(), blob.size());
}

namespace {

/// The decorator: times each refine() call, takes the cut before and after,
/// and routes the engine's own segment profile into the probe.
class ProbedRefiner final : public Refiner {
public:
    ProbedRefiner(std::unique_ptr<Refiner> inner, const Hypergraph& h, StartProbe* probe)
        : inner_(std::move(inner)), h_(h), probe_(probe) {
        inner_->setProfile(&probe_->profile);
    }

    Weight refine(Partition& part, const BalanceConstraint& bc, std::mt19937_64& rng) override {
        const double t0 = nowSeconds();
        const Weight cutIn = cutWeight(h_, part);
        const double t1 = nowSeconds();
        const Weight cutOut = inner_->refine(part, bc, rng);
        const double t2 = nowSeconds();
        StartProbe& p = *probe_;
        p.children.push_back({"probe.cut", t0, t1});
        p.children.push_back({"refine", t1, t2});
        ++p.calls;
        p.passes += inner_->lastPassCount();
        p.refineSec += t2 - t1;
        p.cutInSum += static_cast<double>(cutIn);
        p.cutOutSum += static_cast<double>(cutOut);
        if (&h_ == p.h0) {
            p.level0Sec += t2 - t1;
            p.cutInLevel0 += static_cast<double>(cutIn);
            p.cutOutLevel0 += static_cast<double>(cutOut);
        }
        return cutOut;
    }

    [[nodiscard]] int lastPassCount() const override { return inner_->lastPassCount(); }
    void setDeadline(const robust::Deadline& d) override { inner_->setDeadline(d); }
    void setWorkspace(refine::Workspace* ws) override { inner_->setWorkspace(ws); }
    // The probe's profile stays attached: MultilevelPartitioner only asks for one when
    // MLConfig::profileRefinement is set, which the benchmark never does.
    void setProfile(refine::RefineProfile*) override {}

private:
    std::unique_ptr<Refiner> inner_;
    const Hypergraph& h_;
    StartProbe* probe_;
};

} // namespace

RefinerFactory probedFactory(RefinerFactory inner, StartProbe* probe) {
    return [inner = std::move(inner), probe](const Hypergraph& h,
                                             const std::vector<char>& fixed) {
        return std::unique_ptr<Refiner>(std::make_unique<ProbedRefiner>(inner(h, fixed), h, probe));
    };
}

CoarsenReplay replayCoarsening(const Hypergraph& h0, const MLConfig& cfg, std::uint64_t rngSeed,
                               MLWorkspace& ws) {
    // Mirrors MultilevelPartitioner::runCycle's coarsening loop for a cold
    // first cycle without pre-assignment or match groups — the only shape
    // the benchmark's workloads use.
    CoarsenReplay out;
    std::mt19937_64 rng(rngSeed);
    robust::ThreadPool* pool = cfg.vcycleThreads > 0 ? &ws.ensurePool(cfg.vcycleThreads) : nullptr;
    std::vector<Hypergraph> coarse;
    const Hypergraph* cur = &h0;
    int netLimit = cfg.matchNetSizeLimit;
    out.levelModules.push_back(h0.numModules());
    while (cur->numModules() > cfg.coarseningThreshold &&
           static_cast<int>(coarse.size()) < cfg.maxLevels) {
        MatchConfig mc;
        mc.ratio = cfg.matchingRatio;
        mc.maxNetSize = netLimit;
        const double t0 = nowSeconds();
        Clustering c = pool != nullptr
                           ? matchParallel(cfg.coarsener, *cur, mc, rng(), *pool, ws.match)
                           : runMatcher(cfg.coarsener, *cur, mc, rng);
        const double t1 = nowSeconds();
        out.spans.push_back({"coarsen.match", t0, t1});
        out.matchSec += t1 - t0;
        if (c.numClusters >= cur->numModules()) {
            if (cfg.adaptiveNetLimit && netLimit < cur->numModules()) {
                netLimit *= 4;
                continue;
            }
            break;
        }
        coarse.push_back(induceInto(*cur, c, ws.coarsen, pool));
        const double t2 = nowSeconds();
        out.spans.push_back({"coarsen.induce", t1, t2});
        out.induceSec += t2 - t1;
        cur = &coarse.back();
        out.levelModules.push_back(cur->numModules());
    }
    return out;
}

std::int64_t recordStart(Tracer& tracer, const std::string& name, double start, double end,
                         const MLResult& r, const StartProbe& probe, const CoarsenReplay& replay) {
    // Span times are relative to the tracer's origin.
    const double shift = tracer.now() - nowSeconds();
    const std::int64_t id = tracer.add(name, 0, start + shift, end + shift);
    // Coarsening is the first phase of every V-cycle; the benchmark's
    // workloads run one cycle.
    tracer.add("coarsen", id, start + shift, start + r.timings.coarsenSec + shift);
    for (const ChildSpan& c : probe.children)
        tracer.add(c.name, id, c.start + shift, c.end + shift);
    if (!replay.spans.empty()) {
        const std::int64_t rid = tracer.add("coarsen.replay", 0, replay.spans.front().start + shift,
                                            replay.spans.back().end + shift);
        for (const ChildSpan& c : replay.spans)
            tracer.add(c.name, rid, c.start + shift, c.end + shift);
    }
    return id;
}

void LayerTally::add(const Tracer& tracer, std::int64_t startSpan, double startSec,
                     const MLResult& r, const StartProbe& probe, const CoarsenReplay& replay) {
    ++starts_;
    startSec_ += startSec;
    selfSec_ += tracer.selfSeconds(startSpan);
    coarsenSec_ += r.timings.coarsenSec;
    matchSec_ += replay.matchSec;
    induceSec_ += replay.induceSec;
    levels_ += static_cast<double>(replay.levelModules.size() - 1);
    for (std::size_t i = 1; i < replay.levelModules.size(); ++i) {
        shrinkSum_ += static_cast<double>(replay.levelModules[i]) /
                      static_cast<double>(replay.levelModules[i - 1]);
        ++shrinkN_;
    }
    sum_.calls += probe.calls;
    sum_.passes += probe.passes;
    sum_.profile.add(probe.profile);
    sum_.refineSec += probe.refineSec;
    sum_.level0Sec += probe.level0Sec;
    sum_.cutInLevel0 += probe.cutInLevel0;
    sum_.cutOutLevel0 += probe.cutOutLevel0;
    sum_.cutInSum += probe.cutInSum;
    sum_.cutOutSum += probe.cutOutSum;
}

void LayerTally::emit(Report& r) const {
    // Per-start means, so the layer times add up: core.start_s equals
    // coarsen.s + refine.s + core.self_s (+ the probe's own cut reads).
    const std::size_t n = starts_;
    const double d = n > 0 ? static_cast<double>(n) : 1.0;
    const refine::RefineProfile& p = sum_.profile;
    r.set("coarsen.s", coarsenSec_ / d, "s", n);
    r.set("coarsen.match_s", matchSec_ / d, "s", n);
    r.set("coarsen.induce_s", induceSec_ / d, "s", n);
    r.set("coarsen.levels", levels_ / d, "count", n);
    r.set("coarsen.shrink", shrinkN_ > 0 ? shrinkSum_ / static_cast<double>(shrinkN_) : 0, "ratio",
          shrinkN_);
    r.set("core.start_s", startSec_ / d, "s", n);
    r.set("core.self_s", selfSec_ / d, "s", n);
    r.set("refine.s", sum_.refineSec / d, "s", n);
    r.set("refine.level0_s", sum_.level0Sec / d, "s", n);
    r.set("refine.calls", static_cast<double>(sum_.calls) / d, "count", n);
    r.set("refine.passes", static_cast<double>(sum_.passes) / d, "count", n);
    r.set("refine.moves", static_cast<double>(p.moves) / d, "count", n);
    r.set("refine.rollbacks", static_cast<double>(p.rollbacks) / d, "count", n);
    r.set("refine.kept_frac",
          p.moves > 0 ? 1.0 - static_cast<double>(p.rollbacks) / static_cast<double>(p.moves) : 0,
          "ratio", n);
    r.set("refine.build_s", p.bucketBuildSec / d, "s", n);
    r.set("refine.select_s", p.selectSec / d, "s", n);
    r.set("refine.apply_s", p.applySec / d, "s", n);
    r.set("refine.undo_s", p.rollbackSec / d, "s", n);
    r.set("refine.cut_in", sum_.cutInLevel0 / d, "nets", n);
    r.set("refine.cut_out", sum_.cutOutLevel0 / d, "nets", n);
    r.set("refine.gain_frac",
          sum_.cutInSum > 0 ? (sum_.cutInSum - sum_.cutOutSum) / sum_.cutInSum : 0, "ratio", n);
}

} // namespace mlpart::e2e
