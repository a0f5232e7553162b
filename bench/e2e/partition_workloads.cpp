// The partition workloads: golem3-k2, golem3-k2-vt4 and mid-k4. Each start
// is one timed call of MultilevelPartitioner::run on a parsed .hgr file,
// seeded from parallelMultiStart's stream.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "check/verify_partition.h"
#include "e2e.h"
#include "hypergraph/io.h"
#include "kway/kway_refiner.h"
#include "refine/multistart.h"
#include "stats.h"

namespace mlpart::e2e {

namespace {

struct Spec {
    /// Instance per start index (index mod size): the mix of the workload.
    std::vector<std::string> pattern;
    MLConfig cfg;
    bool kway = false;
    /// The serve request engine that runs the same job ("clip" at k = 2,
    /// "fm" at k > 2 selects the default KWayConfig).
    std::string engine;
    /// The percentile latency_tail_ms reports.
    double tailPct = 75;
};

/// Set-up repetitions behind setup_s's median (a golem3 set-up is ~0.3 s).
constexpr int kSetups = 9;

Spec specFor(const std::string& workload) {
    Spec s;
    s.cfg.matchingRatio = 0.5;
    s.cfg.tolerance = 0.1;
    if (workload == "golem3-k2" || workload == "golem3-k2-vt4") {
        // The paper's ML_C: CLIP engine, T = 35, R = 0.5, r = 0.1.
        s.pattern = {"golem3"};
        s.cfg.k = 2;
        s.cfg.coarseningThreshold = 35;
        s.cfg.vcycleThreads = workload == "golem3-k2-vt4" ? 4 : 0;
        s.engine = "clip";
        // ~20 starts per run support no tail at all; the upper quartile is
        // the steadiest figure above the median.
        s.tailPct = 75;
    } else if (workload == "mid-k4") {
        // Quadrisection with the Sanchis k-way engine (default KWayConfig),
        // four s15850 starts to every avqsmall start.
        s.pattern = {"s15850", "s15850", "s15850", "s15850", "avqsmall"};
        s.cfg.k = 4;
        s.cfg.coarseningThreshold = 100;
        s.kway = true;
        s.engine = "fm";
        // ~200+ starts per run leave at least ten samples beyond p95.
        s.tailPct = 95;
    } else {
        throw std::invalid_argument("unknown partition workload " + workload);
    }
    return s;
}

RefinerFactory engineFactory(const Spec& s) {
    if (s.kway) return makeKWayFactory(KWayConfig{});
    FMConfig fm;
    fm.variant = EngineVariant::kCLIP;
    fm.tolerance = s.cfg.tolerance;
    return makeFMFactory(fm);
}

/// Traced runs only: the workload's own job through the serve layers — a
/// fresh request (seed S, so start 0's result) and its repeat (a cache
/// hit), over the real socket and through an in-process Service — so every
/// serve metric is measured on every workload.
void serveProbe(const Options& o, const Spec& s, const std::string& instance, Weight cut0,
                std::uint32_t crc0, Report& report) {
    std::vector<ServeRequest> reqs;
    for (std::size_t i = 0; i < 2; ++i) {
        ServeRequest r;
        r.id = requestId("p", i);
        r.line = partitionRequest(r.id, instance, o.seed, s.cfg.k, s.engine, s.cfg.vcycleThreads);
        r.instance = instance;
        r.seed = o.seed;
        r.repeat = i == 1;
        reqs.push_back(r);
    }
    const ServeConfig shape;
    const std::string dir = freshDir(o.workDir + "/probe");
    ServerProcess server;
    if (!server.start(o.serveBin, shape, dir + "/serve.sock", freshDir(dir + "/socket-state"),
                      dir + "/serve.log")) {
        report.fail("serve probe: mlpart_serve did not start");
        return;
    }
    std::vector<ServeRequest> viaSocket = reqs;
    const Exchange sock =
        exchangeOverSocket(dir + "/serve.sock", 1, viaSocket, Loop::kClosed, 1e9, 120, nullptr);
    if (server.stop() < 0) report.fail("serve probe: mlpart_serve did not drain cleanly");
    noteServerWarnings(report, dir + "/serve.log");
    std::vector<ServeRequest> inprocReqs = reqs;
    const Exchange inproc = exchangeInProcess(shape, freshDir(dir + "/inproc-state"), 1,
                                              inprocReqs, Loop::kClosed, 1e9, 120);
    checkResponses(report, "serve probe", viaSocket, sock);
    checkResponses(report, "in-process probe", inprocReqs, inproc);
    for (const Exchange* ses : {&sock, &inproc}) {
        for (const ServeOutcome& out : ses->outs) {
            if (!out.answeredOk()) continue;
            report.check(out.cut == cut0 && out.crc == static_cast<std::int64_t>(crc0),
                         "serve probe: job result differs from start 0 (cut " +
                             std::to_string(out.cut) + " vs " + std::to_string(cut0) + ")");
        }
        report.check(ses->outs.size() == 2 && ses->outs[1].cached,
                     "serve probe: the repeated request was not a cache hit");
    }
    const std::vector<double> journalMs =
        replayJournal(report, freshDir(dir + "/journal"), viaSocket, sock.outs);
    emitServeLayers(report, viaSocket, sock, inprocReqs, inproc, journalMs);
}

} // namespace

bool isPartitionWorkload(const std::string& name) {
    return name == "golem3-k2" || name == "golem3-k2-vt4" || name == "mid-k4";
}

bool runPartitionWorkload(const Options& o, Report& report, Tracer* tracer) {
    const Spec spec = specFor(o.workload);
    const RefinerFactory factory = engineFactory(spec);
    const MultilevelPartitioner ml(spec.cfg, factory);
    std::vector<std::string> names = spec.pattern;
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());

    // ---- Set-up, kSetups times over; the median is setup_s. Each pass
    // generates and writes every instance and parses it. No warm-up start:
    // the first timed start allocates the workspace (and, on vt4, the
    // thread pool), as the first start of an `mlpart partition` call does,
    // so work moved there shows in throughput_per_s.
    std::map<std::string, Hypergraph> graphs;
    std::vector<double> setupSec, parseSec;
    for (int rep = 0; rep < kSetups; ++rep) {
        const double t0 = nowSeconds();
        graphs.clear();
        double parse = 0;
        for (const std::string& name : names) {
            const std::string path = o.workDir + "/" + name + ".hgr";
            if (!writeInstanceFile(name, o.scale, path)) {
                report.fail("set-up: generating " + name + " failed");
                return false;
            }
            const double tp = nowSeconds();
            graphs.emplace(name, readHgrFile(path));
            parse += nowSeconds() - tp;
        }
        setupSec.push_back(nowSeconds() - t0);
        parseSec.push_back(parse);
        o.calib->sample();
    }
    const double setupRss = selfPeakRssMb();

    // ---- Timed starts. With tracing, odd starts run through the probed
    // factory and have their coarsening replayed; even starts run plain and
    // give trace.overhead_frac its baseline.
    std::vector<double> plainSec, tracedSec, cuts;
    LayerTally tally;
    MLWorkspace ws;
    Weight cut0 = 0;
    std::uint32_t crc0 = 0;
    const double windowStart = nowSeconds();
    double lastCalib = windowStart;
    for (std::int64_t i = 0;; ++i) {
        if (o.starts > 0 ? i >= o.starts : i > 0 && nowSeconds() - windowStart >= o.seconds) break;
        const std::string& name = spec.pattern[static_cast<std::size_t>(i) % spec.pattern.size()];
        const Hypergraph& h = graphs.at(name);
        const bool traced = tracer != nullptr && i % 2 == 1;
        std::mt19937_64 rng(streamSeed(o.seed, i));
        StartProbe probe;
        probe.h0 = &h;
        MLResult r;
        double ts = 0, te = 0;
        if (traced) {
            const MultilevelPartitioner probed(spec.cfg, probedFactory(factory, &probe));
            ts = nowSeconds();
            r = probed.run(h, rng, robust::Deadline::never(), ws);
            te = nowSeconds();
        } else {
            ts = nowSeconds();
            r = ml.run(h, rng, robust::Deadline::never(), ws);
            te = nowSeconds();
        }
        report.attempt();
        (traced ? tracedSec : plainSec).push_back(te - ts);
        cuts.push_back(static_cast<double>(r.cut));

        // Checks, outside the timed call.
        const BalanceConstraint bc =
            BalanceConstraint::forRefinement(h, spec.cfg.k, spec.cfg.tolerance);
        check::PartitionCheckOptions opt;
        opt.balance = &bc;
        opt.expectedCut = r.cut;
        const check::CheckResult chk = check::verifyPartition(h, r.partition, opt);
        report.check(chk.ok(), "start " + std::to_string(i) + " on " + name + ": " + chk.summary());
        if (i == 0) {
            cut0 = r.cut;
            crc0 = partitionCrc(r.partition);
        }
        if (traced) {
            const CoarsenReplay replay = replayCoarsening(h, spec.cfg, streamSeed(o.seed, i), ws);
            report.check(replay.levelModules == r.levelModules,
                         "start " + std::to_string(i) + ": coarsening replay does not reproduce "
                                                        "the start's hierarchy");
            const std::int64_t span = recordStart(*tracer, "start", ts, te, r, probe, replay);
            tally.add(*tracer, span, te - ts, r, probe, replay);
        }
        if (nowSeconds() - lastCalib >= 0.5) {
            o.calib->sample();
            lastCalib = nowSeconds();
        }
    }
    o.calib->sample(2);

    if (tracer == nullptr) {
        double total = 0;
        for (const double s : plainSec) total += s;
        const Summary sum = summarize(plainSec, spec.tailPct);
        if (!sum.tailSupported) report.note(tailNote(sum));
        report.set("setup_s", median(setupSec), "s", setupSec.size());
        report.set("latency_p50_ms", sum.p50 * 1e3, "ms", sum.n);
        report.set("latency_tail_ms", sum.tail * 1e3, "ms", sum.n);
        report.set("throughput_per_s", total > 0 ? static_cast<double>(sum.n) / total : 0, "1/s",
                   sum.n);
        report.set("cut_mean", mean(cuts), "nets", cuts.size());
        report.set("peak_rss_mb", selfPeakRssMb(), "MB", 1);
        return true;
    }

    report.set("hypergraph.parse_s", median(parseSec), "s", parseSec.size());
    tally.emit(report);
    serveProbe(o, spec, o.workDir + "/" + spec.pattern.front() + ".hgr", cut0, crc0, report);
    const double base = median(plainSec);
    report.set("trace.overhead_frac", base > 0 ? median(tracedSec) / base - 1 : 0, "ratio",
               tracedSec.size());
    report.set("mem.setup_rss_mb", setupRss, "MB", 1);
    return true;
}

} // namespace mlpart::e2e
