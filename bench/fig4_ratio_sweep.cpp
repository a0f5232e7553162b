// Figure 4: the tradeoff between matching ratio R and solution quality —
// average cut of ML_C over N runs as R sweeps 0.1 .. 1.0, on the avqsmall
// and avqlarge stand-ins (the circuits the paper plots).
//
// Claim to reproduce: average cut decreases (then flattens) as R drops
// from 1.0 toward ~0.3, i.e. slower coarsening buys quality.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/5, /*defaultScale=*/0.25);
    bench::printHeader("Figure 4: average cut vs matching ratio R (ML_C)", env);

    FMConfig clip = bench::paperFM();
    clip.variant = EngineVariant::kCLIP;
    const std::vector<std::string> circuits = env.full
                                                  ? std::vector<std::string>{"avqsmall", "avqlarge"}
                                                  : std::vector<std::string>{"avqsmall", "avqlarge"};

    Table t({"R", "avg cut avqsmall", "avg cut avqlarge", "levels avqsmall", "levels avqlarge"});
    for (int ri = 1; ri <= 10; ++ri) {
        const double r = 0.1 * ri;
        std::vector<std::string> row = {Table::cell(r, 1)};
        std::vector<std::string> levels;
        for (const std::string& name : circuits) {
            const Hypergraph h = benchmarkInstance(name, env.scale);
            MLConfig cfg = bench::paperML();
            cfg.matchingRatio = r;
            MultilevelPartitioner ml(cfg, makeFMFactory(clip));
            std::mt19937_64 rng(0xF40 + static_cast<std::uint64_t>(ri));
            RunStats stats;
            int lv = 0;
            for (int run = 0; run < env.runs; ++run) {
                const MLResult res = ml.run(h, rng);
                stats.add(static_cast<double>(res.cut));
                lv = res.levels;
            }
            row.push_back(Table::cell(stats.mean(), 1));
            levels.push_back(Table::cell(static_cast<std::int64_t>(lv)));
        }
        row.insert(row.end(), levels.begin(), levels.end());
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper Fig. 4): the series falls as R decreases from\n"
                 "1.0 and flattens below ~0.4; level count grows as R shrinks.\n";
    return 0;
}
