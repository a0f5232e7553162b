// The paper's comparators behind one engine switch (DESIGN.md §15).
//
// `--engine two_phase|lsmc|spectral|genetic` (CLI) and the same "engine"
// names on a serve request run one of the partitioners the paper measures
// ML against: single-clustering two-phase FM (§II.C), large-step Markov
// chain descents, the EIG1 Fiedler sweep and a GMet-style genetic /
// multilevel hybrid. Each runs once, on its own RNG stream derived from
// (seed, engine rank), under a MemoryGovernor reservation, and its result
// is verified (balance plus claimed cut) before it is returned. Every
// other engine name ("fm", "clip", "auto") is an ML run (makeMLEngine in
// core/parallel_multistart.h).
#pragma once

#include <cstdint>
#include <string>

#include "hypergraph/partition.h"
#include "robust/deadline.h"

namespace mlpart {

/// True for "two_phase", "lsmc", "spectral" and "genetic".
[[nodiscard]] bool isComparator(const std::string& engine);

struct ComparatorResult {
    Partition partition;
    Weight cut = 0;
    bool deadlineHit = false; ///< the engine wound down on `deadline`
};

/// Runs the named comparator. The GA's V-cycles use the job's ML settings
/// (k, tolerance, ratio, vcycleThreads) with CLIP refinement; two-phase
/// FM and LSMC refine with the paper's stopping rule and no k-way move
/// window. Deterministic for fixed arguments. Throws robust::Error:
/// kUsage for a name isComparator() rejects or spectral at k > 2,
/// kInternal when the result fails verification, and whatever the engine
/// itself throws (an injected fault, for one); std::bad_alloc when the
/// memory governor refuses the run.
[[nodiscard]] ComparatorResult runComparator(const Hypergraph& h, const std::string& engine,
                                             PartId k, double tolerance, double matchingRatio,
                                             int vcycleThreads, std::uint64_t seed,
                                             const robust::Deadline& deadline);

} // namespace mlpart
