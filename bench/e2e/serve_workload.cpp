// serve-small: the real mlpart_serve binary over its unix socket, driven by
// three connections from this one process. Phase A is an open-loop Poisson
// arrival schedule with repeats (cache hits) and cancels; phase B is a
// closed loop that measures how many fresh jobs per second the service
// completes.
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/parallel_multistart.h"
#include "e2e.h"
#include "hypergraph/io.h"
#include "refine/multistart.h"
#include "stats.h"

namespace mlpart::e2e {

namespace {

/// Small Table I circuits: a fresh job computes for a few ms, so the
/// service's own path is a large share of every request's latency.
const std::vector<std::string> kInstances = {"balu", "primary1", "struct", "test05"};
constexpr int kConns = 3;
constexpr double kRepeatShare = 0.30; ///< phase A requests re-sending an earlier key
constexpr double kCancelShare = 0.02; ///< fresh requests followed by their own cancel
constexpr double kRepeatMinAge = 0.5; ///< seconds: a repeat targets a finished job
constexpr int kSetups = 9;            ///< set-up repetitions (one server start is ~40 ms)

std::string partitionLine(const std::string& id, const std::string& instance, std::uint64_t seed) {
    return partitionRequest(id, instance, seed, 2, "clip", 0);
}

/// Request seeds and instance picks, all drawn from the workload seed.
class RequestSource {
public:
    RequestSource(std::uint64_t seed, std::vector<std::string> paths)
        : rng_(seed ^ 0x5345525645ULL), paths_(std::move(paths)) {}

    /// A never-sent (instance, seed); `instance` < 0 picks one at random.
    ServeRequest fresh(const std::string& id, int instance = -1) {
        ServeRequest r;
        r.id = id;
        r.instance = paths_[instance >= 0 ? static_cast<std::size_t>(instance)
                                          : rng_() % paths_.size()];
        do r.seed = rng_() % 2147483647ULL + 1;
        while (!used_.insert({r.instance, r.seed}).second);
        r.line = partitionLine(id, r.instance, r.seed);
        return r;
    }

    [[nodiscard]] double uniform() { return std::uniform_real_distribution<double>(0, 1)(rng_); }
    [[nodiscard]] double exponential(double rate) {
        return std::exponential_distribution<double>(rate)(rng_);
    }
    [[nodiscard]] std::size_t below(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

private:
    std::mt19937_64 rng_;
    std::vector<std::string> paths_;
    std::set<std::pair<std::string, std::uint64_t>> used_;
};

/// Phase A: Poisson arrivals at `rate` for `duration` seconds over kConns
/// connections. A repeat re-sends a fresh request at least kRepeatMinAge
/// old; a cancel follows its fresh request on the same connection.
std::vector<ServeRequest> openLoopSchedule(RequestSource& src, double rate, double duration) {
    std::vector<ServeRequest> reqs;
    std::vector<std::size_t> repeatable; // fresh, never cancelled, in due order
    double t = 0;
    for (int i = 0;; ++i) {
        t += src.exponential(rate);
        if (t >= duration) break;
        const std::string id = requestId("a", static_cast<std::size_t>(i));
        std::size_t eligible = 0;
        while (eligible < repeatable.size() &&
               reqs[repeatable[eligible]].due <= t - kRepeatMinAge)
            ++eligible;
        ServeRequest r;
        if (eligible > 0 && src.uniform() < kRepeatShare) {
            const ServeRequest& old = reqs[repeatable[src.below(eligible)]];
            r.id = id;
            r.instance = old.instance;
            r.seed = old.seed;
            r.repeat = true;
            r.line = partitionLine(id, r.instance, r.seed);
        } else {
            r = src.fresh(id);
        }
        r.due = t;
        r.conn = i % kConns;
        reqs.push_back(r);
        if (r.repeat) continue;
        if (src.uniform() < kCancelShare) {
            ServeRequest c;
            c.id = id;
            c.cancel = true;
            c.due = t;
            c.conn = r.conn;
            c.line = "{\"op\":\"cancel\",\"id\":" + jsonQuote(id) + "}";
            reqs.push_back(c);
        } else {
            repeatable.push_back(reqs.size() - 1);
        }
    }
    return reqs;
}

/// A fresh result to hold against the in-process oracle.
struct FreshResult {
    std::string id;
    std::string instance;
    std::uint64_t seed;
    std::int64_t cut;
    std::int64_t crc;
};

void collectFresh(const std::vector<ServeRequest>& reqs, const Exchange& s,
                  std::vector<FreshResult>& out) {
    for (std::size_t i = 0; i < reqs.size(); ++i)
        if (!reqs[i].cancel && s.outs[i].answeredOk() && !s.outs[i].cached)
            out.push_back({reqs[i].id, reqs[i].instance, reqs[i].seed, s.outs[i].cut,
                           s.outs[i].crc});
}

/// Re-computes every fresh result in process with parallelMultiStart and
/// the job's configuration (the worker's own path, minus the fork), on up
/// to four threads. Traced runs also probe each job's layers: the job's
/// single start (stream (seed, 0)) run directly through the probed engine,
/// which must give the same result.
void oracle(const std::vector<FreshResult>& fresh, const std::map<std::string, Hypergraph>& graphs,
            Report& report, Tracer* tracer, LayerTally& tally) {
    std::atomic<std::size_t> next{0};
    std::mutex mu; // report + tally
    MLConfig cfg;
    cfg.k = 2;
    cfg.tolerance = 0.1;
    cfg.matchingRatio = 0.5;
    FMConfig fm;
    fm.tolerance = 0.1;
    fm.variant = EngineVariant::kCLIP;
    const RefinerFactory base = makeFMFactory(fm);
    const MultilevelPartitioner ml(cfg, base);
    const auto worker = [&] {
        MLWorkspace ws;
        for (std::size_t i = next++; i < fresh.size(); i = next++) {
            const FreshResult& f = fresh[i];
            const Hypergraph& h = graphs.at(f.instance);
            MultiStartConfig ms;
            ms.runs = 1;
            ms.threads = 1;
            ms.seed = f.seed;
            MultiStartOutcome r;
            try {
                r = parallelMultiStart(h, ml, ms);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                report.fail("request " + f.id + ": oracle failed: " + e.what());
                continue;
            }
            const bool same = static_cast<std::int64_t>(r.bestCut) == f.cut &&
                              static_cast<std::int64_t>(partitionCrc(r.best)) == f.crc;
            {
                std::lock_guard<std::mutex> lock(mu);
                report.check(same, "request " + f.id + ": served cut " + std::to_string(f.cut) +
                                       " differs from the in-process oracle's " +
                                       std::to_string(r.bestCut));
            }
            if (tracer == nullptr) continue;

            StartProbe probe;
            probe.h0 = &h;
            const MultilevelPartitioner probed(cfg, probedFactory(base, &probe));
            std::mt19937_64 rng(streamSeed(f.seed, 0));
            const double ts = nowSeconds();
            const MLResult job = probed.run(h, rng, robust::Deadline::never(), ws);
            const double te = nowSeconds();
            const CoarsenReplay replay = replayCoarsening(h, cfg, streamSeed(f.seed, 0), ws);
            std::lock_guard<std::mutex> lock(mu);
            report.check(job.cut == r.bestCut && partitionCrc(job.partition) == partitionCrc(r.best),
                         "request " + f.id + ": the probed start differs from the oracle");
            report.check(replay.levelModules == job.levelModules,
                         "request " + f.id + ": coarsening replay does not reproduce the "
                                             "job's hierarchy");
            const std::int64_t span = recordStart(*tracer, "job", ts, te, job, probe, replay);
            tally.add(*tracer, span, te - ts, job, probe, replay);
        }
    };
    std::vector<std::thread> threads;
    const unsigned n = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    for (unsigned t = 0; t < n; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
}

} // namespace

bool runServeWorkload(const Options& o, Report& report, Tracer* tracer) {
    std::vector<std::string> paths;
    for (const std::string& name : kInstances) {
        paths.push_back(o.workDir + "/" + name + ".hgr");
        if (!writeInstanceFile(name, o.scale, paths.back())) {
            report.fail("set-up: generating " + name + " failed");
            return false;
        }
    }
    RequestSource src(o.seed, paths);
    const ServeConfig shape;
    const std::string sock = o.workDir + "/serve.sock";
    const std::string log = o.workDir + "/serve.log";

    // ---- Set-up, kSetups times over (median = setup_s): start the server
    // until its socket accepts, then one warm-up job per instance so the
    // pool workers exist. All but the last server are drained; their peak
    // RSS is the set-up footprint.
    ServerProcess server;
    std::vector<double> setupSec, setupRss;
    std::vector<FreshResult> fresh;
    std::int64_t attempted = 0;
    for (int rep = 0; rep < kSetups; ++rep) {
        const std::string state = freshDir(o.workDir + "/state" + std::to_string(rep));
        const double t0 = nowSeconds();
        if (!server.start(o.serveBin, shape, sock, state, log)) {
            report.fail("set-up: mlpart_serve did not start");
            return false;
        }
        std::vector<ServeRequest> warm;
        for (int k = 0; k < static_cast<int>(kInstances.size()); ++k) {
            const std::size_t n = kInstances.size() * static_cast<std::size_t>(rep) + warm.size();
            warm.push_back(src.fresh(requestId("w", n), k));
        }
        const Exchange ws = exchangeOverSocket(sock, 1, warm, Loop::kClosed, 1e9, 60, nullptr);
        setupSec.push_back(nowSeconds() - t0);
        checkResponses(report, "warm-up", warm, ws);
        collectFresh(warm, ws, fresh);
        attempted += static_cast<std::int64_t>(warm.size());
        if (rep + 1 < kSetups) {
            const double rss = server.stop();
            report.check(rss > 0, "set-up: mlpart_serve did not drain cleanly");
            setupRss.push_back(rss);
        }
        o.calib->sample();
    }

    // ---- Phase A (open loop) then phase B (closed loop), 75/25 of the window.
    const double durA = 0.75 * o.seconds;
    const double durB = 0.25 * o.seconds;
    std::vector<ServeRequest> a = openLoopSchedule(src, o.rate, durA);
    const Exchange sa = exchangeOverSocket(sock, kConns, a, Loop::kOpen, 0, 30, tracer);
    o.calib->sample(3);
    std::vector<ServeRequest> b;
    const auto bCap = static_cast<std::size_t>(durB * 5000) + 16;
    for (std::size_t i = 0; i < bCap; ++i) b.push_back(src.fresh(requestId("b", i)));
    const Exchange sb = exchangeOverSocket(sock, kConns, b, Loop::kClosed, durB, 30, nullptr);
    const double peakRss = server.stop();
    report.check(peakRss > 0, "mlpart_serve did not drain cleanly");
    o.calib->sample(3);
    noteServerWarnings(report, log);

    // ---- Checks: one response each, OK unless cancelled on purpose, cache
    // hits equal to their key's first reply, fresh cuts equal to the oracle.
    checkResponses(report, "phase A", a, sa);
    checkResponses(report, "phase B", b, sb);
    checkCacheHits(report, a, sa.outs);
    for (const ServeRequest& r : a) attempted += r.cancel ? 0 : 1;
    attempted += static_cast<std::int64_t>(b.size());
    report.attempt(attempted);
    collectFresh(a, sa, fresh);
    collectFresh(b, sb, fresh);
    std::map<std::string, Hypergraph> graphs;
    std::vector<double> parseSec;
    for (int rep = 0; rep < (tracer != nullptr ? 3 : 1); ++rep) {
        graphs.clear();
        const double t0 = nowSeconds();
        for (const std::string& p : paths) graphs.emplace(p, readHgrFile(p));
        parseSec.push_back(nowSeconds() - t0);
    }
    LayerTally tally;
    oracle(fresh, graphs, report, tracer, tally);

    std::vector<double> latency, cuts;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const ServeOutcome& out = sa.outs[i];
        if (a[i].cancel || out.cancelled || !out.answeredOk()) continue;
        latency.push_back(out.latency() * 1e3);
        if (!a[i].repeat) cuts.push_back(static_cast<double>(out.cut));
    }
    std::size_t completedB = 0;
    for (const ServeOutcome& out : sb.outs) completedB += out.answeredOk() ? 1 : 0;

    if (tracer == nullptr) {
        // p99 would rest on ~11 samples and spreads by ~20% of its median
        // across seeds; p95 rests on ~55.
        const Summary lat = summarize(latency, 95);
        if (!lat.tailSupported) report.note(tailNote(lat));
        report.set("setup_s", median(setupSec), "s", setupSec.size());
        report.set("latency_p50_ms", lat.p50, "ms", lat.n);
        report.set("latency_tail_ms", lat.tail, "ms", lat.n);
        report.set("throughput_per_s",
                   sb.elapsed > 0 ? static_cast<double>(completedB) / sb.elapsed : 0, "1/s",
                   completedB);
        report.set("cut_mean", mean(cuts), "nets", cuts.size());
        report.set("peak_rss_mb", peakRss, "MB", 1);
        return true;
    }

    // ---- Traced: the same phase A prefix through an in-process Service,
    // and its requests through a standalone journal.
    std::vector<ServeRequest> prefix;
    for (const ServeRequest& r : a)
        if (r.due < durA / 4) prefix.push_back(r);
    const Exchange inproc = exchangeInProcess(shape, freshDir(o.workDir + "/inproc-state"),
                                              kConns, prefix, Loop::kOpen, 0, 30);
    checkResponses(report, "in-process replay", prefix, inproc);
    const std::vector<double> journalMs =
        replayJournal(report, freshDir(o.workDir + "/journal"), prefix, sa.outs);
    report.set("hypergraph.parse_s", median(parseSec), "s", parseSec.size());
    tally.emit(report);
    emitServeLayers(report, a, sa, prefix, inproc, journalMs);
    // Spans are recorded after each result's arrival time is taken, so
    // tracing costs a request nothing but the event loop's time recording.
    report.set("trace.overhead_frac", sa.elapsed > 0 ? sa.traceSec / sa.elapsed : 0, "ratio",
               latency.size());
    report.set("mem.setup_rss_mb", median(setupRss), "MB", setupRss.size());
    return true;
}

} // namespace mlpart::e2e
