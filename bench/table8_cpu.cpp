// Table VIII: CPU-time comparison — total wall seconds for N runs of each
// algorithm (the paper reports 10 runs of ML_C against the others).
//
// Claim to reproduce: ML_C's runtime is moderate — a small factor above
// flat FM/CLIP and far below PROP-style engines or LSMC chains of equal
// run count.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "lsmc/lsmc.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "refine/prop_refiner.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/5, /*defaultScale=*/0.4);
    bench::printHeader("Table VIII: CPU seconds for N runs of each algorithm", env);

    FMConfig fmCfg = bench::paperFM();
    FMConfig clipCfg = bench::paperFM();
    clipCfg.variant = EngineVariant::kCLIP;
    FMConfig clipLa3 = clipCfg;
    clipLa3.lookahead = 3;
    FMConfig cdipLa3 = clipLa3;
    cdipLa3.cdip = true;
    MLConfig mlCfg = bench::paperML();
    mlCfg.matchingRatio = 0.5;

    Table t({"Test", "MLc", "FM", "CLIP", "CL-LA3f", "CD-LA3f", "CL-PRf", "LSMC"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
        const auto startBc = BalanceConstraint::forTolerance(h, 2, 0.1);
        std::vector<double> secs;

        {
            MultilevelPartitioner ml(mlCfg, makeFMFactory(clipCfg));
            std::mt19937_64 rng(0x801);
            Stopwatch w;
            for (int run = 0; run < env.runs; ++run) (void)ml.run(h, rng);
            secs.push_back(w.seconds());
        }
        for (const FMConfig* cfg : {&fmCfg, &clipCfg}) {
            FMRefiner engine(h, *cfg);
            std::mt19937_64 rng(0x802);
            Stopwatch w;
            for (int run = 0; run < env.runs; ++run) randomStartRefine(h, engine, 0.1, rng);
            secs.push_back(w.seconds());
        }
        {
            FMRefiner la3(h, clipLa3);
            FMRefiner cdip(h, cdipLa3);
            PropRefiner prop(h, {});
            for (Refiner* engine : {static_cast<Refiner*>(&la3), static_cast<Refiner*>(&cdip),
                                    static_cast<Refiner*>(&prop)}) {
                std::mt19937_64 rng(0x803);
                Stopwatch w;
                for (int run = 0; run < env.runs; ++run) {
                    Partition p = randomPartition(h, 2, startBc, rng);
                    refineWithFollowupFM(h, *engine, p, bc, rng);
                }
                secs.push_back(w.seconds());
            }
        }
        {
            LSMCConfig lsmcCfg;
            lsmcCfg.descents = env.runs;
            LSMCPartitioner lsmc(lsmcCfg, makeFMFactory(fmCfg));
            std::mt19937_64 rng(0x804);
            Stopwatch w;
            (void)lsmc.run(h, rng);
            secs.push_back(w.seconds());
        }

        std::vector<std::string> row = {name};
        for (double s : secs) row.push_back(Table::cell(s, 2));
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): CL-PRf costs several x FM; MLc a small factor\n"
                 "over CLIP; relative orderings matter, absolute seconds are machine-\n"
                 "dependent (the paper used a Sun Sparc 5).\n";
    return 0;
}
