// Microbenchmarks for the refinement engines: one full refine() (all
// passes to convergence, the paper's stopping rule) from a fresh random
// start, across engine variants and circuit sizes.
#include <benchmark/benchmark.h>

#include <random>

#include "gen/benchmark_suite.h"
#include "kway/kway_refiner.h"
#include "refine/fm_refiner.h"
#include "refine/multistart.h"
#include "refine/prop_refiner.h"

using namespace mlpart;

namespace {

const Hypergraph& circuit(std::int64_t which) {
    static const Hypergraph small = benchmarkInstance("primary2", 0.5);
    static const Hypergraph large = benchmarkInstance("s15850", 0.5);
    return which == 0 ? small : large;
}

void BM_RefineFM(benchmark::State& state) {
    const Hypergraph& h = circuit(state.range(0));
    FMConfig cfg;
    cfg.maxPasses = kPaperMaxPasses;
    cfg.variant = state.range(1) == 0 ? EngineVariant::kFM : EngineVariant::kCLIP;
    FMRefiner fm(h, cfg);
    std::mt19937_64 rng(1);
    for (auto _ : state) {
        const Weight cut = randomStartRefine(h, fm, 0.1, rng);
        benchmark::DoNotOptimize(cut);
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_RefineFM)->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1});

void BM_RefineBoundaryInit(benchmark::State& state) {
    const Hypergraph& h = circuit(1);
    FMConfig cfg;
    cfg.maxPasses = kPaperMaxPasses;
    cfg.boundaryInit = state.range(0) != 0;
    FMRefiner fm(h, cfg);
    std::mt19937_64 rng(3);
    for (auto _ : state) {
        const Weight cut = randomStartRefine(h, fm, 0.1, rng);
        benchmark::DoNotOptimize(cut);
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_RefineBoundaryInit)->Arg(0)->Arg(1);

void BM_RefineProp(benchmark::State& state) {
    const Hypergraph& h = circuit(0);
    PropRefiner prop(h, {});
    std::mt19937_64 rng(4);
    for (auto _ : state) {
        const Weight cut = randomStartRefine(h, prop, 0.1, rng);
        benchmark::DoNotOptimize(cut);
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_RefineProp);

void BM_RefineKWay(benchmark::State& state) {
    const Hypergraph& h = circuit(0);
    const PartId k = static_cast<PartId>(state.range(0));
    KWayConfig cfg;
    cfg.moveWindow = kPaperMoveWindow;
    KWayFMRefiner kway(h, cfg);
    const auto startBc = BalanceConstraint::forTolerance(h, k, 0.1);
    const auto bc = BalanceConstraint::forRefinement(h, k, 0.1);
    std::mt19937_64 rng(5);
    for (auto _ : state) {
        Partition p = randomPartition(h, k, startBc, rng);
        const Weight cut = kway.refine(p, bc, rng);
        benchmark::DoNotOptimize(cut);
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_RefineKWay)->Arg(2)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
