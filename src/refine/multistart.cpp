#include "refine/multistart.h"

#include "refine/fm_refiner.h"

namespace mlpart {

Weight randomStartRefine(const Hypergraph& h, Refiner& refiner, double r, std::mt19937_64& rng,
                         Partition* out) {
    const BalanceConstraint startBc = BalanceConstraint::forTolerance(h, 2, r);
    const BalanceConstraint refineBc = BalanceConstraint::forRefinement(h, 2, r);
    Partition part = randomPartition(h, 2, startBc, rng);
    const Weight cut = refiner.refine(part, refineBc, rng);
    if (out != nullptr) *out = std::move(part);
    return cut;
}

Weight refineWithFollowupFM(const Hypergraph& h, Refiner& primary, Partition& part,
                            const BalanceConstraint& bc, std::mt19937_64& rng) {
    primary.refine(part, bc, rng);
    FMConfig fm;
    fm.variant = EngineVariant::kFM;
    fm.policy = BucketPolicy::kLifo;
    fm.maxPasses = kPaperMaxPasses; // part of the Table VII comparators
    FMRefiner followup(h, fm);
    return followup.refine(part, bc, rng);
}

RefinerFactory makeFMFactory(FMConfig cfg) {
    return [cfg](const Hypergraph& h, const std::vector<char>& fixedMask) -> std::unique_ptr<Refiner> {
        FMConfig local = cfg;
        local.fixed = fixedMask;
        return std::make_unique<FMRefiner>(h, std::move(local));
    };
}

} // namespace mlpart
