// Shared plumbing for the paper-table bench harnesses.
//
// Every tableN binary runs with no arguments and prints the paper table's
// rows for a scaled-down circuit suite. Environment knobs (see
// analysis/env.h): MLPART_RUNS, MLPART_SCALE, MLPART_FULL=1 (the paper's
// 100-run full-size protocol), and MLPART_BENCH_DIR to run on the real
// ACM/SIGDA .hgr files instead of synthetic stand-ins.
#pragma once

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/env.h"
#include "analysis/run_stats.h"
#include "analysis/table.h"
#include "core/multilevel.h"
#include "gen/benchmark_suite.h"
#include "hypergraph/hypergraph.h"
#include "kway/kway_config.h"
#include "refine/fm_config.h"

namespace mlpart::bench {

/// Suite selection: quick subset by default, all 23 under MLPART_FULL.
inline std::vector<std::string> suiteFor(const BenchEnv& env) {
    return env.full ? fullSuite() : quickSuite();
}

/// One multi-start experiment cell: runs `runOnce` (which must return the
/// cut of one run) `runs` times and gathers statistics plus wall time.
struct CellResult {
    RunStats cuts;
    double seconds = 0.0;
};

inline CellResult runCell(int runs, const std::function<double(int run)>& runOnce) {
    CellResult r;
    Stopwatch watch;
    for (int i = 0; i < runs; ++i) r.cuts.add(runOnce(i));
    r.seconds = watch.seconds();
    return r;
}

/// The bisection engine as the paper runs it: FMConfig defaults with the
/// paper's stopping rule (a pass without gain) in place of the default
/// pass budget. Every table, figure and ablation binary builds its FM
/// configurations from this, so their cuts follow the paper's protocol.
inline FMConfig paperFM() {
    FMConfig cfg;
    cfg.maxPasses = kPaperMaxPasses;
    return cfg;
}

/// The k-way engine as the paper runs it: KWayConfig defaults with every
/// pass running until no feasible move is left, in place of the default
/// move window. table9_quadrisection and ablation_vcycles build their
/// k-way configurations from this.
inline KWayConfig paperKWay() {
    KWayConfig cfg;
    cfg.moveWindow = kPaperMoveWindow;
    return cfg;
}

/// The V-cycle as the paper runs it: MLConfig defaults without the LP
/// pre-pass, so every level goes straight from projection to the engine
/// (Fig. 2, §III.B). Every table, figure and ablation binary builds its
/// MLConfig from this.
inline MLConfig paperML() {
    MLConfig cfg;
    cfg.prePassMinModules = 0;
    return cfg;
}

/// Standard header line for a bench binary.
inline void printHeader(const std::string& what, const BenchEnv& env) {
    std::cout << "== " << what << " ==\n"
              << "(runs per cell: " << env.runs << ", circuit scale: " << env.scale
              << "; set MLPART_FULL=1 for the paper's 100-run full-size protocol)\n\n";
}

} // namespace mlpart::bench
