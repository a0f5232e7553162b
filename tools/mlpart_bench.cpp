// mlpart_bench — machine-readable perf harness for the ML V-cycle.
//
// Runs the Table I synthetic suite (src/gen/benchmark_suite) and/or .hgr
// files through the paper's default ML configuration (k=2, R=0.5, r=0.1,
// CLIP engine) with the default 4-pass FM budget — the same defaults as
// `mlpart partition`, so cuts are directly comparable — or, with -k K > 2,
// through ML K-way partitioning (T = 100, default KWayConfig), and reports
// per-phase wall time (coarsen, split into match and induce / initial /
// refine, from MLResult::timings), end-to-end wall time, peak RSS, levels,
// and cut statistics. Results go to BENCH_ML.json so every PR leaves a
// perf trajectory point behind.
//
//   mlpart_bench [instances...] [options]
//     instances       Table I names (e.g. golem3) or *.hgr paths;
//                     default: the quick synthetic subset
//     --quick         3 small instances (CI perf-smoke configuration)
//     --full          all 23 Table I circuits
//     --runs N        multi-start runs per instance (default 3)
//     --seed S        base seed; run i uses the same per-run seed stream
//                     as parallelMultiStart, so cuts match the CLI
//     --threads T     worker threads (default 1; runs are distributed
//                     round-robin, per-run seeds — and thus cuts — do not
//                     depend on T)
//     --vcycle-threads T  deterministic intra-V-cycle parallelism (default
//                     0 = legacy serial algorithms; cuts are identical for
//                     every T >= 1)
//     --vcycle-sweep "1,2,4"  additionally re-run every instance with each
//                     listed --vcycle-threads value, emitting extra rows
//                     named <instance>@vtT. Sweep rows never exist in the
//                     baseline, so the regression gate still judges only
//                     the primary rows.
//     -k K            blocks (default 2). K > 2 runs the k-way engine with
//                     T = 100, as mlpart_serve and the bench/e2e mid-k4
//                     workload do, and names every row <instance>@kK, so
//                     --compare never judges it against k = 2 baselines
//     --engine E      fm | clip (default clip at k = 2; fm at k > 2, the
//                     default KWayConfig)
//     --portfolio     additionally run the fault-isolated engine portfolio
//                     (DESIGN.md §15) on every instance, emitting an extra
//                     <instance>@portfolio row (winner's cut / wall time)
//                     plus a per-engine lane table at the end: wins,
//                     crashes, timeouts, refusals, median cut and median
//                     lane runtime. Like @vt sweep rows, @portfolio rows
//                     never exist in older baselines, so the regression
//                     gate still judges only the primary rows.
//     --scale X       synthetic-instance scale in (0,1] (default 1)
//     --profile       per-level refinement profile (pass/move/rollback
//                     counts, rolled-back moves per pass, bucket-build vs
//                     select vs apply vs rollback wall time) per instance;
//                     also emitted into the JSON. Observation only — cuts
//                     are unchanged.
//     -o FILE         output JSON (default BENCH_ML.json)
//     --compare FILE  baseline JSON: exit 1 if any shared instance's
//                     wall_sec regressed more than --max-regression, or
//                     its peak_rss_kb more than --max-rss-regression.
//                     Phase times (coarsen_sec, refine_sec) present in the
//                     baseline are gated at the same percentage, but only
//                     when the baseline phase is >= 0.1s (smaller phases
//                     are timer-noise-dominated).
//     --max-regression PCT   allowed slowdown vs baseline (default 25)
//     --max-rss-regression PCT  allowed peak-RSS growth vs baseline
//                     (default 50; RSS is a process-wide high-water mark,
//                     so it is gated separately and more loosely than
//                     wall time)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "analysis/run_stats.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/io.h"
#include "hypergraph/stats.h"
#include "core/multilevel.h"
#include "core/parallel_multistart.h" // defaultEngine
#include "kway/kway_refiner.h"
#include "portfolio/portfolio.h"
#include "refine/multistart.h"

namespace {

using namespace mlpart;

/// Peak resident set size in KiB: VmHWM from /proc/self/status where
/// available (Linux), getrusage otherwise.
long peakRssKb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %ld", &kb);
            return kb;
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // KiB on Linux
}

struct InstanceResult {
    std::string name;
    std::string source; ///< "synthetic" or "file"
    ModuleId modules = 0;
    NetId nets = 0;
    std::int64_t pins = 0;
    int runs = 0;
    int levels = 0;        ///< levels of the best run
    Weight bestCut = 0;
    double avgCut = 0.0;
    double coarsenSec = 0.0; ///< summed over all runs
    double matchSec = 0.0;   ///< coarsenSec's split (MLTimings)
    double induceSec = 0.0;
    double initialSec = 0.0;
    double refineSec = 0.0;
    double wallSec = 0.0; ///< end-to-end, all runs
    long peakRssKb = 0;   ///< process high-water mark after this instance
    /// --profile only: per-level refinement profiles keyed by hierarchy
    /// level (coarsest = highest), summed over all runs.
    std::map<int, MLLevelProfile> profByLevel;
};

struct Options {
    std::vector<std::string> instances;
    int runs = 3;
    std::uint64_t seed = 1;
    int threads = 1;
    int vcycleThreads = 0;
    std::vector<int> vcycleSweep;
    PartId k = 2;
    std::string engine; ///< empty until parsed: clip at k = 2, fm at k > 2
    double scale = 1.0;
    bool profile = false;
    bool portfolio = false;
    std::string out = "BENCH_ML.json";
    std::string compare;
    double maxRegressionPct = 25.0;
    double maxRssRegressionPct = 50.0;
};

[[noreturn]] void usage(const std::string& msg = "") {
    if (!msg.empty()) std::cerr << "error: " << msg << "\n";
    std::cerr << "usage: mlpart_bench [instances...] [--quick|--full] [--runs N] [--seed S]\n"
                 "                    [--threads T] [--vcycle-threads T] [--vcycle-sweep \"1,2,4\"]\n"
                 "                    [-k K] [--engine fm|clip] [--scale X] [--profile] [--portfolio]\n"
                 "                    [-o FILE] [--compare BASELINE.json] [--max-regression PCT]\n"
                 "                    [--max-rss-regression PCT]\n";
    std::exit(2);
}

Options parseOptions(int argc, char** argv) {
    Options o;
    bool quick = false, full = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("flag " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--quick") quick = true;
        else if (arg == "--full") full = true;
        else if (arg == "--runs") o.runs = std::stoi(value());
        else if (arg == "--seed") o.seed = std::stoull(value());
        else if (arg == "--threads") o.threads = std::stoi(value());
        else if (arg == "--vcycle-threads") o.vcycleThreads = std::stoi(value());
        else if (arg == "--vcycle-sweep") {
            std::stringstream ss(value());
            std::string tok;
            while (std::getline(ss, tok, ','))
                if (!tok.empty()) o.vcycleSweep.push_back(std::stoi(tok));
        }
        else if (arg == "-k") o.k = static_cast<PartId>(std::stoi(value()));
        else if (arg == "--engine") o.engine = value();
        else if (arg == "--scale") o.scale = std::stod(value());
        else if (arg == "--profile") o.profile = true;
        else if (arg == "--portfolio") o.portfolio = true;
        else if (arg == "-o" || arg == "--out") o.out = value();
        else if (arg == "--compare") o.compare = value();
        else if (arg == "--max-regression") o.maxRegressionPct = std::stod(value());
        else if (arg == "--max-rss-regression") o.maxRssRegressionPct = std::stod(value());
        else if (!arg.empty() && arg[0] == '-') usage("unknown flag " + arg);
        else o.instances.push_back(arg);
    }
    if (quick && full) usage("--quick and --full are mutually exclusive");
    if (o.runs < 1) usage("--runs must be >= 1");
    if (o.threads < 1) usage("--threads must be >= 1");
    if (o.vcycleThreads < 0) usage("--vcycle-threads must be >= 0");
    for (const int t : o.vcycleSweep)
        if (t < 1) usage("--vcycle-sweep values must be >= 1");
    if (o.k < 2) usage("-k must be >= 2");
    if (o.engine.empty()) o.engine = defaultEngine(o.k);
    if (o.engine != "fm" && o.engine != "clip") usage("--engine must be fm or clip");
    if (o.instances.empty()) {
        if (quick) o.instances = {"balu", "primary1", "struct"};
        else if (full) o.instances = fullSuite();
        else o.instances = quickSuite();
    }
    return o;
}

/// One instance through `runs` V-cycles with per-run seeds identical to
/// parallelMultiStart's first attempt, distributed over `threads` workers
/// (each with its own pooled MLWorkspace, mirroring the production driver).
InstanceResult benchInstance(const std::string& name, const Hypergraph& h, const Options& o,
                             int vcycleThreads) {
    MLConfig cfg;
    cfg.k = o.k;
    cfg.matchingRatio = 0.5;
    cfg.tolerance = 0.1;
    if (o.k > 2) cfg.coarseningThreshold = 100;
    cfg.vcycleThreads = vcycleThreads;
    cfg.profileRefinement = o.profile;
    RefinerFactory factory;
    if (o.k == 2) {
        FMConfig fm;
        fm.tolerance = cfg.tolerance;
        if (o.engine == "clip") fm.variant = EngineVariant::kCLIP;
        factory = makeFMFactory(fm);
    } else {
        KWayConfig kw;
        kw.tolerance = cfg.tolerance;
        kw.clip = o.engine == "clip";
        factory = makeKWayFactory(kw);
    }
    MultilevelPartitioner ml(cfg, factory);

    const HypergraphStats stats = computeStats(h);
    InstanceResult r;
    r.name = name;
    r.modules = stats.numModules;
    r.nets = stats.numNets;
    r.pins = stats.numPins;
    r.runs = o.runs;

    std::vector<MLResult> results(static_cast<std::size_t>(o.runs));
    const int threads = std::min(o.threads, o.runs);
    Stopwatch watch;
    auto worker = [&](int t) {
        MLWorkspace ws;
        for (int i = t; i < o.runs; i += threads) {
            std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
            results[static_cast<std::size_t>(i)] = ml.run(h, rng, robust::Deadline{}, ws);
        }
    };
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
        for (auto& th : pool) th.join();
    }
    r.wallSec = watch.seconds();

    r.bestCut = results[0].cut;
    r.levels = results[0].levels;
    double sum = 0.0;
    for (const MLResult& res : results) {
        sum += static_cast<double>(res.cut);
        if (res.cut < r.bestCut) {
            r.bestCut = res.cut;
            r.levels = res.levels;
        }
        r.coarsenSec += res.timings.coarsenSec;
        r.matchSec += res.timings.matchSec;
        r.induceSec += res.timings.induceSec;
        r.initialSec += res.timings.initialSec;
        r.refineSec += res.timings.refineSec;
        for (const MLLevelProfile& lp : res.timings.levels) {
            MLLevelProfile& slot = r.profByLevel[lp.level];
            slot.level = lp.level;
            slot.modules = lp.modules;
            slot.refine.add(lp.refine);
        }
    }
    r.avgCut = sum / static_cast<double>(o.runs);
    r.peakRssKb = peakRssKb();
    return r;
}

/// --portfolio: per-engine lane tallies accumulated across every
/// instance's portfolio run — the bench-side twin of the serve status
/// endpoint's "engines" array.
struct EngineAgg {
    std::int64_t wins = 0;
    std::int64_t survived = 0;
    std::int64_t crashes = 0;
    std::int64_t timeouts = 0;
    std::int64_t refusals = 0;
    std::int64_t skipped = 0;
    std::vector<std::int64_t> cuts;
    std::vector<double> seconds;
};

double medianOf(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    return v[mid];
}

std::int64_t medianOf(std::vector<std::int64_t> v) {
    if (v.empty()) return -1;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    return v[mid];
}

/// Runs the engine portfolio on one instance, folds every lane into the
/// per-engine aggregates, and returns the extra @portfolio result row.
InstanceResult benchPortfolio(const std::string& name, const Hypergraph& h, const Options& o,
                              EngineAgg (&agg)[portfolio::kEngineCount]) {
    portfolio::PortfolioConfig pc;
    pc.k = o.k;
    pc.tolerance = 0.1;
    pc.matchingRatio = 0.5;
    pc.clip = o.engine == "clip";
    pc.runs = o.runs;
    pc.threads = o.threads;
    pc.vcycleThreads = o.vcycleThreads;
    pc.seed = o.seed;
    const portfolio::PortfolioResult out = runPortfolio(h, pc);

    const HypergraphStats stats = computeStats(h);
    InstanceResult r;
    r.name = name + "@portfolio";
    r.modules = stats.numModules;
    r.nets = stats.numNets;
    r.pins = stats.numPins;
    r.runs = o.runs;
    r.bestCut = static_cast<Weight>(out.bestCut);
    r.avgCut = static_cast<double>(out.bestCut);
    r.wallSec = out.report.totalSeconds;
    r.peakRssKb = peakRssKb();

    for (const portfolio::LaneRecord& lane : out.report.lanes) {
        EngineAgg& a = agg[static_cast<int>(lane.engine)];
        switch (lane.outcome) {
            case portfolio::LaneOutcome::kWon: ++a.wins; break;
            case portfolio::LaneOutcome::kSurvived: ++a.survived; break;
            case portfolio::LaneOutcome::kCrashed: ++a.crashes; break;
            case portfolio::LaneOutcome::kTimedOut: ++a.timeouts; break;
            case portfolio::LaneOutcome::kRefused: ++a.refusals; break;
            case portfolio::LaneOutcome::kSkipped: ++a.skipped; break;
        }
        if (lane.cut >= 0) {
            a.cuts.push_back(lane.cut);
            a.seconds.push_back(lane.seconds);
        }
    }
    std::printf("winner %s, cut %lld, %.3fs wall\n", out.report.winnerName().c_str(),
                static_cast<long long>(out.bestCut), out.report.totalSeconds);
    return r;
}

void printEngineTable(const EngineAgg (&agg)[portfolio::kEngineCount]) {
    std::printf("portfolio lane summary:\n");
    std::printf("  %-10s %5s %9s %8s %9s %9s %8s %11s %13s\n", "engine", "wins", "survived",
                "crashes", "timeouts", "refusals", "skipped", "median_cut", "median_sec");
    for (int e = 0; e < portfolio::kEngineCount; ++e) {
        const EngineAgg& a = agg[e];
        std::printf("  %-10s %5lld %9lld %8lld %9lld %9lld %8lld %11lld %13.3f\n",
                    portfolio::engineName(static_cast<portfolio::EngineKind>(e)),
                    static_cast<long long>(a.wins), static_cast<long long>(a.survived),
                    static_cast<long long>(a.crashes), static_cast<long long>(a.timeouts),
                    static_cast<long long>(a.refusals), static_cast<long long>(a.skipped),
                    static_cast<long long>(medianOf(a.cuts)), medianOf(a.seconds));
    }
}

/// Aggregate of an instance's per-level profiles (all levels, all runs).
refine::RefineProfile profileTotal(const InstanceResult& r) {
    refine::RefineProfile total;
    for (const auto& [lvl, lp] : r.profByLevel) total.add(lp.refine);
    return total;
}

/// Rolled-back moves per pass: at most the move window on every level of
/// a windowed k-way run.
double rollbacksPerPass(const refine::RefineProfile& p) {
    return p.passes > 0 ? static_cast<double>(p.rollbacks) / static_cast<double>(p.passes) : 0.0;
}

void printProfile(const InstanceResult& r) {
    std::printf("  %-7s %9s %7s %9s %10s %9s %9s %9s %9s %9s\n", "level", "modules", "passes",
                "moves", "rollbacks", "undo/pass", "build_s", "select_s", "apply_s", "undo_s");
    // Coarsest level first — the order refinement actually runs in.
    for (auto it = r.profByLevel.rbegin(); it != r.profByLevel.rend(); ++it) {
        const MLLevelProfile& lp = it->second;
        std::printf("  %-7d %9d %7lld %9lld %10lld %9.1f %9.3f %9.3f %9.3f %9.3f\n", lp.level,
                    lp.modules, static_cast<long long>(lp.refine.passes),
                    static_cast<long long>(lp.refine.moves),
                    static_cast<long long>(lp.refine.rollbacks), rollbacksPerPass(lp.refine),
                    lp.refine.bucketBuildSec, lp.refine.selectSec, lp.refine.applySec,
                    lp.refine.rollbackSec);
    }
    const refine::RefineProfile t = profileTotal(r);
    std::printf("  %-7s %9s %7lld %9lld %10lld %9.1f %9.3f %9.3f %9.3f %9.3f\n", "total", "",
                static_cast<long long>(t.passes), static_cast<long long>(t.moves),
                static_cast<long long>(t.rollbacks), rollbacksPerPass(t), t.bucketBuildSec,
                t.selectSec, t.applySec, t.rollbackSec);
}

void writeJson(const std::string& path, const Options& o, const std::vector<InstanceResult>& rs) {
    std::ostringstream j;
    j.precision(6);
    j << std::fixed;
    j << "{\n"
      << "  \"schema\": \"mlpart-bench-v1\",\n"
      << "  \"engine\": \"" << o.engine << "\",\n"
      << "  \"k\": " << o.k << ",\n"
      << "  \"seed\": " << o.seed << ",\n"
      << "  \"threads\": " << o.threads << ",\n"
      << "  \"vcycle_threads\": " << o.vcycleThreads << ",\n"
      << "  \"runs\": " << o.runs << ",\n"
      << "  \"instances\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const InstanceResult& r = rs[i];
        j << "    {\n"
          << "      \"instance\": \"" << r.name << "\",\n"
          << "      \"source\": \"" << r.source << "\",\n"
          << "      \"modules\": " << r.modules << ",\n"
          << "      \"nets\": " << r.nets << ",\n"
          << "      \"pins\": " << r.pins << ",\n"
          << "      \"runs\": " << r.runs << ",\n"
          << "      \"levels\": " << r.levels << ",\n"
          << "      \"best_cut\": " << r.bestCut << ",\n"
          << "      \"avg_cut\": " << r.avgCut << ",\n"
          << "      \"coarsen_sec\": " << r.coarsenSec << ",\n"
          << "      \"match_sec\": " << r.matchSec << ",\n"
          << "      \"induce_sec\": " << r.induceSec << ",\n"
          << "      \"initial_sec\": " << r.initialSec << ",\n"
          << "      \"refine_sec\": " << r.refineSec << ",\n"
          << "      \"wall_sec\": " << r.wallSec << ",\n"
          << "      \"peak_rss_kb\": " << r.peakRssKb;
        if (!r.profByLevel.empty()) {
            const refine::RefineProfile t = profileTotal(r);
            j << ",\n"
              << "      \"profile\": {\n"
              << "        \"passes\": " << t.passes << ",\n"
              << "        \"moves\": " << t.moves << ",\n"
              << "        \"rollbacks\": " << t.rollbacks << ",\n"
              << "        \"bucket_build_sec\": " << t.bucketBuildSec << ",\n"
              << "        \"select_sec\": " << t.selectSec << ",\n"
              << "        \"apply_sec\": " << t.applySec << ",\n"
              << "        \"rollback_sec\": " << t.rollbackSec << "\n"
              << "      }";
        }
        j << "\n    }" << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    j << "  ]\n}\n";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        std::exit(1);
    }
    out << j.str();
}

struct BaselineEntry {
    double wallSec = -1.0;
    double coarsenSec = -1.0; ///< -1 = absent (pre-phase-gate baseline)
    double refineSec = -1.0;
    long peakRssKb = -1; ///< -1 = absent (pre-RSS-gate baseline file)
};

/// Minimal scan of a previous BENCH_ML.json: instance -> {wall_sec,
/// coarsen_sec, refine_sec, peak_rss_kb}. Only keys this harness itself
/// emits are recognized, which is all the regression gate needs. Older
/// baselines simply lack the newer keys; those instances skip the
/// corresponding checks rather than failing them.
std::map<std::string, BaselineEntry> readBaseline(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot read baseline " << path << "\n";
        std::exit(1);
    }
    std::map<std::string, BaselineEntry> entries;
    std::string line, current;
    while (std::getline(in, line)) {
        const auto grab = [&](const char* key) -> std::string {
            const std::size_t k = line.find(key);
            if (k == std::string::npos) return {};
            std::size_t v = line.find(':', k);
            if (v == std::string::npos) return {};
            std::string rest = line.substr(v + 1);
            rest.erase(std::remove_if(rest.begin(), rest.end(),
                                      [](char c) { return c == '"' || c == ',' || c == ' '; }),
                       rest.end());
            return rest;
        };
        if (std::string v = grab("\"instance\""); !v.empty()) current = v;
        if (std::string v = grab("\"wall_sec\""); !v.empty() && !current.empty())
            entries[current].wallSec = std::stod(v);
        if (std::string v = grab("\"coarsen_sec\""); !v.empty() && !current.empty())
            entries[current].coarsenSec = std::stod(v);
        if (std::string v = grab("\"refine_sec\""); !v.empty() && !current.empty())
            entries[current].refineSec = std::stod(v);
        if (std::string v = grab("\"peak_rss_kb\""); !v.empty() && !current.empty())
            entries[current].peakRssKb = std::stol(v);
    }
    return entries;
}

} // namespace

int main(int argc, char** argv) {
    const Options o = parseOptions(argc, argv);

    std::vector<InstanceResult> results;
    EngineAgg engineAgg[portfolio::kEngineCount];
    for (const std::string& inst : o.instances) {
        const bool isFile = inst.find(".hgr") != std::string::npos ||
                            std::filesystem::exists(inst);
        Hypergraph h = isFile ? readHgrFile(inst) : benchmarkInstance(inst, o.scale);
        const std::string name = (isFile ? std::filesystem::path(inst).stem().string() : inst) +
                                 (o.k > 2 ? "@k" + std::to_string(o.k) : "");
        std::cout << name << " (" << h.numModules() << " modules, " << h.numNets()
                  << " nets): " << std::flush;
        InstanceResult r = benchInstance(name, h, o, o.vcycleThreads);
        r.source = isFile ? "file" : "synthetic";
        results.push_back(r);
        std::printf("cut %lld (avg %.1f), %.3fs wall [coarsen %.3f (match %.3f, induce %.3f), "
                    "initial %.3f, refine %.3f], levels %d, rss %ld KiB\n",
                    static_cast<long long>(r.bestCut), r.avgCut, r.wallSec, r.coarsenSec,
                    r.matchSec, r.induceSec, r.initialSec, r.refineSec, r.levels, r.peakRssKb);
        if (o.profile) printProfile(r);
        // Thread-scaling sweep rows: same instance under each requested
        // deterministic thread count. Cuts must agree across the sweep
        // (determinism hard bar); a mismatch fails the whole bench run.
        for (const int t : o.vcycleSweep) {
            const std::string sweepName = name + "@vt" + std::to_string(t);
            std::cout << sweepName << ": " << std::flush;
            InstanceResult sr = benchInstance(sweepName, h, o, t);
            sr.source = r.source;
            std::printf("cut %lld, %.3fs wall, levels %d\n", static_cast<long long>(sr.bestCut),
                        sr.wallSec, sr.levels);
            if (!o.vcycleSweep.empty() && t != o.vcycleSweep.front()) {
                const std::string firstName = name + "@vt" + std::to_string(o.vcycleSweep.front());
                for (const InstanceResult& prev : results) {
                    if (prev.name != firstName) continue;
                    if (prev.bestCut != sr.bestCut || prev.avgCut != sr.avgCut) {
                        std::fprintf(stderr,
                                     "DETERMINISM VIOLATION %s: cut %lld/%.1f != %s cut %lld/%.1f\n",
                                     sweepName.c_str(), static_cast<long long>(sr.bestCut),
                                     sr.avgCut, firstName.c_str(),
                                     static_cast<long long>(prev.bestCut), prev.avgCut);
                        return 1;
                    }
                }
            }
            results.push_back(sr);
        }
        if (o.portfolio) {
            std::cout << name << "@portfolio: " << std::flush;
            InstanceResult pr = benchPortfolio(name, h, o, engineAgg);
            pr.source = r.source;
            results.push_back(pr);
        }
    }
    if (o.portfolio) printEngineTable(engineAgg);

    writeJson(o.out, o, results);
    std::cout << "wrote " << o.out << "\n";

    if (!o.compare.empty()) {
        const std::map<std::string, BaselineEntry> base = readBaseline(o.compare);
        bool regressed = false;
        int compared = 0;
        for (const InstanceResult& r : results) {
            const auto it = base.find(r.name);
            if (it == base.end() || it->second.wallSec < 0) continue;
            ++compared;
            const double allowed = it->second.wallSec * (1.0 + o.maxRegressionPct / 100.0);
            if (r.wallSec > allowed) {
                std::printf("REGRESSION %s: %.3fs vs baseline %.3fs (> +%.0f%%)\n", r.name.c_str(),
                            r.wallSec, it->second.wallSec, o.maxRegressionPct);
                regressed = true;
            } else {
                std::printf("ok %s: %.3fs vs baseline %.3fs\n", r.name.c_str(), r.wallSec,
                            it->second.wallSec);
            }
            // Phase gates: same allowance as wall time, but only for phases
            // the baseline spent real time in (>= 0.1s) — the quick CI
            // instances' phases are a few ms and purely noise.
            constexpr double kPhaseGateFloorSec = 0.1;
            const auto gatePhase = [&](const char* phase, double baseSec, double curSec) {
                if (baseSec < kPhaseGateFloorSec) return;
                const double allowedPhase = baseSec * (1.0 + o.maxRegressionPct / 100.0);
                if (curSec > allowedPhase) {
                    std::printf("REGRESSION %s %s: %.3fs vs baseline %.3fs (> +%.0f%%)\n",
                                r.name.c_str(), phase, curSec, baseSec, o.maxRegressionPct);
                    regressed = true;
                } else {
                    std::printf("ok %s %s: %.3fs vs baseline %.3fs\n", r.name.c_str(), phase,
                                curSec, baseSec);
                }
            };
            if (it->second.coarsenSec >= 0)
                gatePhase("coarsen", it->second.coarsenSec, r.coarsenSec);
            if (it->second.refineSec >= 0) gatePhase("refine", it->second.refineSec, r.refineSec);
            if (it->second.peakRssKb >= 0) {
                const double allowedRss = static_cast<double>(it->second.peakRssKb) *
                                          (1.0 + o.maxRssRegressionPct / 100.0);
                if (static_cast<double>(r.peakRssKb) > allowedRss) {
                    std::printf("RSS REGRESSION %s: %ld KiB vs baseline %ld KiB (> +%.0f%%)\n",
                                r.name.c_str(), r.peakRssKb, it->second.peakRssKb,
                                o.maxRssRegressionPct);
                    regressed = true;
                } else {
                    std::printf("ok %s rss: %ld KiB vs baseline %ld KiB\n", r.name.c_str(),
                                r.peakRssKb, it->second.peakRssKb);
                }
            }
        }
        if (compared == 0) {
            std::cerr << "error: baseline " << o.compare << " shares no instances with this run\n";
            return 1;
        }
        if (regressed) return 1;
        std::cout << "perf gate passed (" << compared << " instances, max regression "
                  << o.maxRegressionPct << "%, max rss regression " << o.maxRssRegressionPct
                  << "%)\n";
    }
    return 0;
}
