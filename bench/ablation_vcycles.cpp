// Ablation: how much extra quality do iterated V-cycles, multiple
// coarsest-level starts, and coarsest-level LSMC buy (all Section V
// "spend more CPU at the top levels" ideas), and how does direct 4-way
// ML compare with recursive bisection.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "core/recursive_bisection.h"
#include "kway/kway_refiner.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/8, /*defaultScale=*/0.4);
    bench::printHeader("Ablation: V-cycles, coarsest starts, coarsest LSMC, RB vs k-way", env);

    {
        Table t({"Test", "AVG 1cyc", "AVG 2cyc", "AVG 3cyc", "AVG 8start", "AVG lsmc16",
                 "CPU 1cyc", "CPU 3cyc"});
        for (const std::string& name : bench::suiteFor(env)) {
            const Hypergraph h = benchmarkInstance(name, env.scale);
            auto runML = [&](const MLConfig& cfg, double* seconds) {
                MultilevelPartitioner ml(cfg, makeFMFactory(bench::paperFM()));
                std::mt19937_64 rng(0xAB3);
                RunStats stats;
                Stopwatch w;
                for (int run = 0; run < env.runs; ++run)
                    stats.add(static_cast<double>(ml.run(h, rng).cut));
                if (seconds != nullptr) *seconds = w.seconds();
                return stats.mean();
            };
            MLConfig base = bench::paperML();
            MLConfig two = bench::paperML();
            two.vCycles = 2;
            MLConfig three = bench::paperML();
            three.vCycles = 3;
            MLConfig starts = bench::paperML();
            starts.coarsestStarts = 8;
            MLConfig lsmc = bench::paperML();
            lsmc.coarsestLSMCDescents = 16;
            double cpu1 = 0, cpu3 = 0;
            const double a1 = runML(base, &cpu1);
            const double a2 = runML(two, nullptr);
            const double a3 = runML(three, &cpu3);
            const double a8 = runML(starts, nullptr);
            const double al = runML(lsmc, nullptr);
            t.addRow({name, Table::cell(a1, 1), Table::cell(a2, 1), Table::cell(a3, 1),
                      Table::cell(a8, 1), Table::cell(al, 1), Table::cell(cpu1, 2),
                      Table::cell(cpu3, 2)});
        }
        t.print(std::cout);
    }

    std::cout << "\n-- direct 4-way ML (Sanchis engine) vs recursive ML bisection --\n";
    {
        Table t({"Test", "direct min", "direct avg", "recursive min", "recursive avg"});
        for (const std::string& name : bench::suiteFor(env)) {
            const Hypergraph h = benchmarkInstance(name, env.scale);
            RunStats direct, recur;
            {
                MLConfig cfg = bench::paperML();
                cfg.k = 4;
                cfg.coarseningThreshold = 100;
                MultilevelPartitioner ml(cfg, makeKWayFactory(bench::paperKWay()));
                std::mt19937_64 rng(0xAB4);
                for (int run = 0; run < env.runs; ++run)
                    direct.add(static_cast<double>(ml.run(h, rng).cutNetCount));
            }
            {
                std::mt19937_64 rng(0xAB5);
                for (int run = 0; run < env.runs; ++run) {
                    const Partition p = recursiveBisection(h, 4, bench::paperML(),
                                                           makeFMFactory(bench::paperFM()), rng);
                    recur.add(static_cast<double>(cutNets(h, p)));
                }
            }
            t.addRow({name, Table::cell(static_cast<std::int64_t>(direct.min())),
                      Table::cell(direct.mean(), 1),
                      Table::cell(static_cast<std::int64_t>(recur.min())),
                      Table::cell(recur.mean(), 1)});
        }
        t.print(std::cout);
    }
    std::cout << "\nExpected: extra top-level effort (cycles/starts/LSMC) never hurts and\n"
                 "usually trims the average; recursive bisection and direct k-way land\n"
                 "in the same quality range.\n";
    return 0;
}
