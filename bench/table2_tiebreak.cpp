// Table II: minimum cut, average cut, and standard deviation for N runs of
// FM using the LIFO, FIFO, and random (RND) bucket organizations.
//
// Paper claim to reproduce: LIFO and RND dramatically outperform FIFO;
// LIFO and RND are statistically indistinguishable.
#include <random>

#include "bench_common.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"

using namespace mlpart;

int main() {
    const BenchEnv env = benchEnv(/*defaultRuns=*/20, /*defaultScale=*/0.5);
    bench::printHeader("Table II: FM bucket organization (LIFO vs FIFO vs RND)", env);

    const BucketPolicy policies[] = {BucketPolicy::kLifo, BucketPolicy::kFifo, BucketPolicy::kRandom};
    Table t({"Test", "MIN lifo", "MIN fifo", "MIN rnd", "AVG lifo", "AVG fifo", "AVG rnd",
             "STD lifo", "STD fifo", "STD rnd"});
    for (const std::string& name : bench::suiteFor(env)) {
        const Hypergraph h = benchmarkInstance(name, env.scale);
        RunStats stats[3];
        for (int pi = 0; pi < 3; ++pi) {
            FMConfig cfg = bench::paperFM();
            cfg.policy = policies[pi];
            FMRefiner fm(h, cfg);
            std::mt19937_64 rng(0xB2 + static_cast<std::uint64_t>(pi));
            for (int run = 0; run < env.runs; ++run)
                stats[pi].add(static_cast<double>(randomStartRefine(h, fm, 0.1, rng)));
        }
        t.addRow({name, Table::cell(static_cast<std::int64_t>(stats[0].min())),
                  Table::cell(static_cast<std::int64_t>(stats[1].min())),
                  Table::cell(static_cast<std::int64_t>(stats[2].min())),
                  Table::cell(stats[0].mean(), 1), Table::cell(stats[1].mean(), 1),
                  Table::cell(stats[2].mean(), 1), Table::cell(stats[0].stddev(), 1),
                  Table::cell(stats[1].stddev(), 1), Table::cell(stats[2].stddev(), 1)});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape (paper): FIFO clearly worst; LIFO ~ RND.\n";
    return 0;
}
