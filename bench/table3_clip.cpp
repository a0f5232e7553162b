// Table III: minimum cut, average cut, standard deviation, and CPU time
// for N runs of the FM and CLIP algorithms (both LIFO).
//
// Paper claim to reproduce: CLIP clearly better on average, especially on
// larger circuits, at comparable runtime.
#include <random>

#include "bench_common.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/20, /*defaultScale=*/0.5);
    bench::printHeader("Table III: FM vs CLIP", env);

    Table t({"Test", "MIN fm", "MIN clip", "AVG fm", "AVG clip", "STD fm", "STD clip",
             "CPU fm", "CPU clip"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        RunStats stats[2];
        double secs[2] = {0, 0};
        for (int vi = 0; vi < 2; ++vi) {
            FMConfig cfg = bench::paperFM();
            cfg.variant = vi == 0 ? EngineVariant::kFM : EngineVariant::kCLIP;
            FMRefiner engine(h, cfg);
            std::mt19937_64 rng(0xC11); // same seed: identical starting partitions
            Stopwatch watch;
            for (int run = 0; run < env.runs; ++run)
                stats[vi].add(static_cast<double>(randomStartRefine(h, engine, 0.1, rng)));
            secs[vi] = watch.seconds();
        }
        t.addRow({name, Table::cell(static_cast<std::int64_t>(stats[0].min())),
                  Table::cell(static_cast<std::int64_t>(stats[1].min())),
                  Table::cell(stats[0].mean(), 1), Table::cell(stats[1].mean(), 1),
                  Table::cell(stats[0].stddev(), 1), Table::cell(stats[1].stddev(), 1),
                  Table::cell(secs[0], 2), Table::cell(secs[1], 2)});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): CLIP beats FM on MIN and especially AVG;\n"
                 "runtimes within a small factor of each other.\n";
    return 0;
}
