// Table VII: cut-size comparison of ML_C (R = 0.5) against the strongest
// reimplementable comparator algorithms, plus the paper-style percentage
// improvement rows.
//
// Comparators built here (Section II / IV.C):
//   GMet*    — our hybrid genetic/multilevel multi-start (after [1])
//   FM       — classic Fiduccia-Mattheyses, LIFO
//   CLIP     — Dutt-Deng CLIP
//   CL-LA3f  — CLIP with level-3 lookahead, FM follow-up
//   CD-LA3f  — CLIP + CDIP backtracking with level-3 lookahead, FM follow-up
//   CL-PRf   — PROP probabilistic gains, FM follow-up
//   LSMC     — large-step Markov chain (temperature 0)
// The paper additionally quotes numbers for GMetis/HB/PB/GFM, which are
// whole separate systems; DESIGN.md documents that substitution. The claim
// being reproduced: ML_C yields the lowest min cuts, even with 10x fewer
// runs.
#include <random>

#include "bench_common.h"
#include "core/multilevel.h"
#include "genetic/hybrid.h"
#include "lsmc/lsmc.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "refine/prop_refiner.h"

using namespace mlpart;

namespace {

struct AlgoResult {
    std::string name;
    std::vector<double> minCut; // per circuit
};

} // namespace

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/10, /*defaultScale=*/0.4);
    bench::printHeader("Table VII: ML_C vs other bipartitioning algorithms (min cut)", env);
    const int fewRuns = std::max(1, env.runs / 10);

    const auto suite = bench::suiteFor(env);

    FMConfig fmCfg = bench::paperFM();
    FMConfig clipCfg = bench::paperFM();
    clipCfg.variant = EngineVariant::kCLIP;
    FMConfig clipLa3 = clipCfg;
    clipLa3.lookahead = 3;
    FMConfig cdipLa3 = clipLa3;
    cdipLa3.cdip = true;

    MLConfig mlCfg = bench::paperML();
    mlCfg.matchingRatio = 0.5;

    std::vector<AlgoResult> algos = {{"MLc(N)", {}},    {"MLc(N/10)", {}}, {"GMet*", {}},
                                     {"FM", {}},        {"CLIP", {}},      {"CL-LA3f", {}},
                                     {"CD-LA3f", {}},   {"CL-PRf", {}},    {"LSMC", {}}};

    for (const std::string& name : suite) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        const auto bc = BalanceConstraint::forRefinement(h, 2, 0.1);
        const auto startBc = BalanceConstraint::forTolerance(h, 2, 0.1);

        // ML_C, N and N/10 runs.
        {
            MultilevelPartitioner ml(mlCfg, makeFMFactory(clipCfg));
            std::mt19937_64 rng(0x701);
            double best = 1e18, bestFew = 1e18;
            for (int run = 0; run < env.runs; ++run) {
                const double cut = static_cast<double>(ml.run(h, rng).cut);
                best = std::min(best, cut);
                if (run < fewRuns) bestFew = std::min(bestFew, cut);
            }
            algos[0].minCut.push_back(best);
            algos[1].minCut.push_back(bestFew);
        }
        // GMet-style hybrid genetic multilevel (Alpert-Hagen-Kahng [1]),
        // on the same total ML-run budget as MLc(N).
        {
            HybridConfig hc;
            hc.populationSize = std::max(2, env.runs / 3);
            hc.generations = env.runs - hc.populationSize;
            hc.ml = bench::paperML();
            HybridMultiStart hybrid(hc, makeFMFactory(fmCfg));
            std::mt19937_64 rng(0x708);
            algos[2].minCut.push_back(static_cast<double>(hybrid.run(h, rng).cut));
        }
        // Flat engines (plain refiners).
        const FMConfig* flatCfgs[] = {&fmCfg, &clipCfg};
        for (int ai = 0; ai < 2; ++ai) {
            FMRefiner engine(h, *flatCfgs[ai]);
            std::mt19937_64 rng(0x702 + static_cast<std::uint64_t>(ai));
            double best = 1e18;
            for (int run = 0; run < env.runs; ++run)
                best = std::min(best, static_cast<double>(randomStartRefine(h, engine, 0.1, rng)));
            algos[3 + ai].minCut.push_back(best);
        }
        // Composed engines with FM follow-up (the "f" suffix).
        {
            FMRefiner la3(h, clipLa3);
            FMRefiner cdip(h, cdipLa3);
            PropRefiner prop(h, {});
            Refiner* engines[] = {&la3, &cdip, &prop};
            for (int ai = 0; ai < 3; ++ai) {
                std::mt19937_64 rng(0x704 + static_cast<std::uint64_t>(ai));
                double best = 1e18;
                for (int run = 0; run < env.runs; ++run) {
                    Partition p = randomPartition(h, 2, startBc, rng);
                    best = std::min(best, static_cast<double>(
                                              refineWithFollowupFM(h, *engines[ai], p, bc, rng)));
                }
                algos[5 + ai].minCut.push_back(best);
            }
        }
        // LSMC: one chain with N descents (the paper's 100-descent protocol).
        {
            LSMCConfig lsmcCfg;
            lsmcCfg.descents = env.runs;
            LSMCPartitioner lsmc(lsmcCfg, makeFMFactory(fmCfg));
            std::mt19937_64 rng(0x707);
            algos[8].minCut.push_back(static_cast<double>(lsmc.run(h, rng).cut));
        }
    }

    std::vector<std::string> header = {"Test"};
    for (const auto& a : algos) header.push_back(a.name);
    Table t(header);
    for (std::size_t ci = 0; ci < suite.size(); ++ci) {
        std::vector<std::string> row = {suite[ci]};
        for (const auto& a : algos) row.push_back(Table::cell(static_cast<std::int64_t>(a.minCut[ci])));
        t.addRow(std::move(row));
    }
    // Percentage improvement of MLc over each comparator, averaged over the
    // circuits (the paper's last two rows).
    for (int which : {0, 1}) {
        std::vector<std::string> row = {which == 0 ? "% imprv (N)" : "% imprv (N/10)"};
        for (std::size_t ai = 0; ai < algos.size(); ++ai) {
            if (ai <= 1) {
                row.push_back("x");
                continue;
            }
            double sum = 0;
            int cnt = 0;
            for (std::size_t ci = 0; ci < suite.size(); ++ci) {
                const double other = algos[ai].minCut[ci];
                const double ml = algos[static_cast<std::size_t>(which)].minCut[ci];
                if (other > 0) {
                    sum += (other - ml) / other * 100.0;
                    ++cnt;
                }
            }
            row.push_back(Table::cell(cnt > 0 ? sum / cnt : 0.0, 1));
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): ML_C has the best (or tied-best) min cut on\n"
                 "nearly every circuit; positive average improvement over every\n"
                 "comparator, even with 10x fewer runs.\n";
    return 0;
}
