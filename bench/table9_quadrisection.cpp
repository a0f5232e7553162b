// Table IX: 4-way partitioning comparisons — number of cut nets for
// ML_F quadrisection (R = 1, T = 100, sum-of-degrees gains, min and avg
// over N runs) against the GORDIAN-style analytic-placement quadrisector,
// flat 4-way FM and CLIP, and 4-way LSMC with both engines.
//
// Claim to reproduce: ML_F beats the placement-derived split and all flat
// 4-way engines on cut nets.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "kway/kway_refiner.h"
#include "lsmc/lsmc.h"
#include "placement/gordian.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/5, /*defaultScale=*/0.4);
    bench::printHeader("Table IX: quadrisection — # cut nets", env);

    MLConfig mlCfg = bench::paperML();
    mlCfg.k = 4;
    mlCfg.coarseningThreshold = 100; // the paper's quadrisection setting
    const KWayConfig kwayCfg = bench::paperKWay(); // sum-of-degrees gains (paper default)
    KWayConfig kwayClip = kwayCfg;
    kwayClip.clip = true;

    Table t({"Test", "MLf min", "MLf avg", "GORDIAN", "GORDIAN-L", "FM4", "CLIP4",
             "LSMCf", "LSMCc"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        const auto startBc = BalanceConstraint::forTolerance(h, 4, 0.1);
        const auto bc = BalanceConstraint::forRefinement(h, 4, 0.1);

        RunStats mlStats;
        {
            MultilevelPartitioner ml(mlCfg, makeKWayFactory(kwayCfg));
            std::mt19937_64 rng(0x901);
            for (int run = 0; run < env.runs; ++run)
                mlStats.add(static_cast<double>(ml.run(h, rng).cutNetCount));
        }
        std::int64_t gordianCut = 0, gordianLCut = 0;
        {
            std::mt19937_64 rng(0x902);
            GordianConfig gc;
            gordianCut = gordianQuadrisect(h, gc, rng).cutNetCount;
            GordianConfig gl;
            gl.placer.reweightIterations = 2; // GORDIAN-L flavour
            std::mt19937_64 rng2(0x902);
            gordianLCut = gordianQuadrisect(h, gl, rng2).cutNetCount;
        }
        double flatBest[2] = {1e18, 1e18};
        {
            const KWayConfig* cfgs[] = {&kwayCfg, &kwayClip};
            for (int ai = 0; ai < 2; ++ai) {
                KWayFMRefiner engine(h, *cfgs[ai]);
                std::mt19937_64 rng(0x903 + static_cast<std::uint64_t>(ai));
                for (int run = 0; run < env.runs; ++run) {
                    Partition p = randomPartition(h, 4, startBc, rng);
                    engine.refine(p, bc, rng);
                    flatBest[ai] = std::min(flatBest[ai], static_cast<double>(cutNets(h, p)));
                }
            }
        }
        double lsmcCut[2];
        {
            for (int ai = 0; ai < 2; ++ai) {
                LSMCConfig lc;
                lc.descents = env.runs;
                lc.k = 4;
                LSMCPartitioner lsmc(lc, makeKWayFactory(ai == 0 ? kwayCfg : kwayClip));
                std::mt19937_64 rng(0x905 + static_cast<std::uint64_t>(ai));
                lsmcCut[ai] = static_cast<double>(lsmc.run(h, rng).cutNetCount);
            }
        }

        t.addRow({name, Table::cell(static_cast<std::int64_t>(mlStats.min())),
                  Table::cell(mlStats.mean(), 1), Table::cell(gordianCut),
                  Table::cell(gordianLCut), Table::cell(static_cast<std::int64_t>(flatBest[0])),
                  Table::cell(static_cast<std::int64_t>(flatBest[1])),
                  Table::cell(static_cast<std::int64_t>(lsmcCut[0])),
                  Table::cell(static_cast<std::int64_t>(lsmcCut[1]))});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): ML_F min (and usually avg) beats GORDIAN and\n"
                 "every flat 4-way engine.\n";
    return 0;
}
