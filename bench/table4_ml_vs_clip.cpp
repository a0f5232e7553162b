// Table IV: minimum cut, average cut, and total CPU time for N runs of
// CLIP, ML_F (multilevel + FM engine), and ML_C (multilevel + CLIP
// engine), with matching ratio R = 1 and threshold T = 35.
//
// Paper claim to reproduce: both ML variants beat flat CLIP, ML_C has the
// lowest averages; ML costs a small constant factor more CPU.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/10, /*defaultScale=*/0.5);
    bench::printHeader("Table IV: CLIP vs ML_F vs ML_C (R = 1, T = 35)", env);

    FMConfig fmCfg = bench::paperFM();
    FMConfig clipCfg = bench::paperFM();
    clipCfg.variant = EngineVariant::kCLIP;
    MLConfig mlCfg = bench::paperML(); // T = 35, R = 1 defaults

    Table t({"Test", "MIN clip", "MIN mlf", "MIN mlc", "AVG clip", "AVG mlf", "AVG mlc",
             "CPU clip", "CPU mlf", "CPU mlc"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        RunStats stats[3];
        double secs[3];

        {
            FMRefiner clip(h, clipCfg);
            std::mt19937_64 rng(0x401);
            Stopwatch w;
            for (int run = 0; run < env.runs; ++run)
                stats[0].add(static_cast<double>(randomStartRefine(h, clip, 0.1, rng)));
            secs[0] = w.seconds();
        }
        for (int mi = 0; mi < 2; ++mi) {
            MultilevelPartitioner ml(mlCfg, makeFMFactory(mi == 0 ? fmCfg : clipCfg));
            std::mt19937_64 rng(0x402 + static_cast<std::uint64_t>(mi));
            Stopwatch w;
            for (int run = 0; run < env.runs; ++run)
                stats[mi + 1].add(static_cast<double>(ml.run(h, rng).cut));
            secs[mi + 1] = w.seconds();
        }
        t.addRow({name, Table::cell(static_cast<std::int64_t>(stats[0].min())),
                  Table::cell(static_cast<std::int64_t>(stats[1].min())),
                  Table::cell(static_cast<std::int64_t>(stats[2].min())),
                  Table::cell(stats[0].mean(), 1), Table::cell(stats[1].mean(), 1),
                  Table::cell(stats[2].mean(), 1), Table::cell(secs[0], 2),
                  Table::cell(secs[1], 2), Table::cell(secs[2], 2)});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): AVG mlc <= AVG mlf < AVG clip; ML minimums no\n"
                 "worse than CLIP and clearly better on the larger circuits.\n";
    return 0;
}
