// Paradigm comparison bench: the methodological ladder the paper's
// Section II.C narrates — flat FM, two-phase FM (one clustering level),
// spectral bisection (+FM cleanup), and the full multilevel ML — plus the
// Section II.B survey variants (relaxed locking, tightening balance).
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "core/two_phase.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "spectral/spectral.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/10, /*defaultScale=*/0.4);
    bench::printHeader("Ablation: flat vs two-phase vs spectral(+FM) vs multilevel", env);

    {
        Table t({"Test", "AVG flat", "AVG 2phase", "AVG SB+FM", "AVG ML", "MIN flat",
                 "MIN 2phase", "MIN SB+FM", "MIN ML"});
        for (const std::string& name : bench::suiteFor(env)) {
            const Hypergraph h = benchmarkInstance(name, env.scale);
            const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
            RunStats flat, twoPhase, spectral, ml;

            FMRefiner fm(h, bench::paperFM());
            std::mt19937_64 rng(0xAB6);
            for (int run = 0; run < env.runs; ++run)
                flat.add(static_cast<double>(randomStartRefine(h, fm, 0.1, rng)));

            std::mt19937_64 rng2(0xAB7);
            for (int run = 0; run < env.runs; ++run)
                twoPhase.add(static_cast<double>(
                    twoPhasePartition(h, {}, makeFMFactory(bench::paperFM()), rng2).cut));

            std::mt19937_64 rng3(0xAB8);
            for (int run = 0; run < env.runs; ++run) {
                SpectralResult s = spectralBisect(h, {}, rng3);
                Partition p = s.partition;
                spectral.add(static_cast<double>(fm.refine(p, bc, rng3)));
            }

            MultilevelPartitioner mlp(bench::paperML(), makeFMFactory(bench::paperFM()));
            std::mt19937_64 rng4(0xAB9);
            for (int run = 0; run < env.runs; ++run)
                ml.add(static_cast<double>(mlp.run(h, rng4).cut));

            t.addRow({name, Table::cell(flat.mean(), 1), Table::cell(twoPhase.mean(), 1),
                      Table::cell(spectral.mean(), 1), Table::cell(ml.mean(), 1),
                      Table::cell(static_cast<std::int64_t>(flat.min())),
                      Table::cell(static_cast<std::int64_t>(twoPhase.min())),
                      Table::cell(static_cast<std::int64_t>(spectral.min())),
                      Table::cell(static_cast<std::int64_t>(ml.min()))});
        }
        t.print(std::cout);
        std::cout << "\nExpected: AVG ML <= AVG 2phase <= AVG flat (the paper's Section II.C\n"
                     "ladder); spectral+FM lands between 2phase and ML on most circuits.\n\n";
    }

    std::cout << "-- Section II.B survey variants inside flat FM --\n";
    {
        Table t({"Test", "AVG fm", "AVG d=3 moves", "AVG tighten", "AVG la3"});
        for (const std::string& name : bench::suiteFor(env)) {
            const Hypergraph h = benchmarkInstance(name, env.scale);
            FMConfig variants[4] = {bench::paperFM(), bench::paperFM(), bench::paperFM(),
                                    bench::paperFM()};
            variants[1].movesPerPass = 3;
            variants[2].tightenStart = 0.3;
            variants[3].lookahead = 3;
            std::vector<std::string> row = {name};
            for (const FMConfig& cfg : variants) {
                FMRefiner engine(h, cfg);
                std::mt19937_64 rng(0xABA);
                RunStats stats;
                for (int run = 0; run < env.runs; ++run)
                    stats.add(static_cast<double>(randomStartRefine(h, engine, 0.1, rng)));
                row.push_back(Table::cell(stats.mean(), 1));
            }
            t.addRow(std::move(row));
        }
        t.print(std::cout);
        std::cout << "\nExpected: each variant lands near plain FM on average — consistent\n"
                     "with the paper's decision to adopt only CLIP + LIFO, whose win is\n"
                     "larger (Table III) at no runtime cost.\n";
    }
    return 0;
}
