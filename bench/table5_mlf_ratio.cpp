// Table V: minimum cut, average cut, and total CPU time for N runs of
// ML_F (FM engine) with matching ratio R in {1.0, 0.5, 0.33}.
//
// Paper claim to reproduce: smaller R (slower coarsening, more levels)
// lowers average cuts — noticeably so on the larger circuits — at a
// runtime premium.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/10, /*defaultScale=*/0.5);
    bench::printHeader("Table V: ML_F vs matching ratio R", env);

    const double ratios[] = {1.0, 0.5, 0.33};
    Table t({"Test", "MIN 1.0", "MIN 0.5", "MIN 0.33", "AVG 1.0", "AVG 0.5", "AVG 0.33",
             "CPU 1.0", "CPU 0.5", "CPU 0.33"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        RunStats stats[3];
        double secs[3];
        for (int ri = 0; ri < 3; ++ri) {
            MLConfig cfg = bench::paperML();
            cfg.matchingRatio = ratios[ri];
            MultilevelPartitioner ml(cfg, makeFMFactory(bench::paperFM()));
            std::mt19937_64 rng(0x501 + static_cast<std::uint64_t>(ri));
            Stopwatch w;
            for (int run = 0; run < env.runs; ++run)
                stats[ri].add(static_cast<double>(ml.run(h, rng).cut));
            secs[ri] = w.seconds();
        }
        t.addRow({name, Table::cell(static_cast<std::int64_t>(stats[0].min())),
                  Table::cell(static_cast<std::int64_t>(stats[1].min())),
                  Table::cell(static_cast<std::int64_t>(stats[2].min())),
                  Table::cell(stats[0].mean(), 1), Table::cell(stats[1].mean(), 1),
                  Table::cell(stats[2].mean(), 1), Table::cell(secs[0], 2),
                  Table::cell(secs[1], 2), Table::cell(secs[2], 2)});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): AVG falls as R drops (0.5 ~ 0.33, both < 1.0);\n"
                 "CPU grows as R drops.\n";
    return 0;
}
