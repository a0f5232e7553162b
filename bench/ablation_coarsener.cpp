// Ablation: which matcher should the multilevel driver use? Compares the
// paper's connectivity Match against Chaco-style random matching and
// Metis-style heavy-edge matching inside otherwise-identical ML runs
// (DESIGN.md design-choice: conn() with area normalization).
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/10, /*defaultScale=*/0.5);
    bench::printHeader("Ablation: ML coarsener choice (conn-Match vs random vs heavy-edge)", env);

    const CoarsenerKind kinds[] = {CoarsenerKind::kConnectivityMatch, CoarsenerKind::kRandomMatch,
                                   CoarsenerKind::kHeavyEdgeMatch};
    Table t({"Test", "AVG match", "AVG random", "AVG heavy", "MIN match", "MIN random",
             "MIN heavy", "CPU match", "CPU random", "CPU heavy"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        RunStats stats[3];
        double secs[3];
        for (int ki = 0; ki < 3; ++ki) {
            MLConfig cfg = bench::paperML();
            cfg.coarsener = kinds[ki];
            MultilevelPartitioner ml(cfg, makeFMFactory(bench::paperFM()));
            std::mt19937_64 rng(0xAB1 + static_cast<std::uint64_t>(ki));
            Stopwatch w;
            for (int run = 0; run < env.runs; ++run)
                stats[ki].add(static_cast<double>(ml.run(h, rng).cut));
            secs[ki] = w.seconds();
        }
        t.addRow({name, Table::cell(stats[0].mean(), 1), Table::cell(stats[1].mean(), 1),
                  Table::cell(stats[2].mean(), 1),
                  Table::cell(static_cast<std::int64_t>(stats[0].min())),
                  Table::cell(static_cast<std::int64_t>(stats[1].min())),
                  Table::cell(static_cast<std::int64_t>(stats[2].min())),
                  Table::cell(secs[0], 2), Table::cell(secs[1], 2), Table::cell(secs[2], 2)});
    }
    t.print(std::cout);
    std::cout << "\nDesign-choice check: connectivity matching (with the 1/(|e|-1) and\n"
                 "area terms) should be at least as good as heavy-edge and clearly\n"
                 "better than random matching on average.\n";
    return 0;
}
