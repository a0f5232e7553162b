// Deterministic fault-injection framework.
//
// The engines mark named sites with MLPART_FAULT_SITE("phase.step"); an
// armed FaultInjector decides at each visit — from a seeded, counted
// schedule, never from real randomness — whether to throw an injected
// exception or a simulated allocation failure there. This is how the
// recovery paths of the execution layer (per-start isolation, retries,
// best-so-far salvage) are actually *executed* in tests and CI rather
// than merely written.
//
// Unlike the invariant hooks (MLPART_CHECK_INVARIANTS, compile-time gated
// because they are per-move expensive), fault sites sit at phase / pass
// granularity, so they are always compiled in and gated at runtime: a
// disarmed injector costs one relaxed atomic load per visit. The
// MLPART_FAULT_INJECTION environment variable arms the injector in tools
// (see armFromEnv for the spec format).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mlpart::robust {

enum class FaultKind {
    kThrow,    ///< throw Error(StatusCode::kInjectedFault)
    kBadAlloc, ///< throw std::bad_alloc (simulated allocation failure)
};

/// A deterministic firing schedule. Two selection modes:
///  - exact:       fireAtHit >= 1 fires at exactly the Nth visit of `site`
///                 (probability is ignored);
///  - probability: each visit of a matching site fires with `probability`,
///                 decided by hash(seed, site, visit index) — bit-stable
///                 for a fixed seed and per-site visit sequence.
struct FaultPlan {
    std::uint64_t seed = 1;
    double probability = 0.0;
    FaultKind kind = FaultKind::kThrow;
    /// Empty = every known site matches; a trailing '*' matches by prefix
    /// ("fs.*" hits every filesystem site but no serve.* site).
    std::string site;
    std::int64_t fireAtHit = -1;
    std::int64_t maxFires = -1; ///< -1 = unlimited
};

class FaultInjector {
public:
    /// Process-wide instance (sites are visited from worker threads).
    [[nodiscard]] static FaultInjector& instance();

    void arm(const FaultPlan& plan);
    void disarm();
    [[nodiscard]] bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /// Site hook — called via MLPART_FAULT_SITE. Throws when the armed
    /// schedule says this visit fires; otherwise just counts it.
    void visit(const char* site);

    /// Total faults fired since the last arm().
    [[nodiscard]] std::int64_t fires() const;
    /// Visits of `site` since the last arm().
    [[nodiscard]] std::int64_t visits(const std::string& site) const;

    /// Arms from the MLPART_FAULT_INJECTION environment variable and
    /// returns true when it was set and parsed. Spec: comma-separated
    /// key=value pairs, e.g. "p=0.05,seed=9,kind=alloc,site=coarsen.induce,
    /// at=3,max=1". Unknown keys are a usage error (throws Error).
    bool armFromEnv();

    /// Arms from a spec string in the same format. The service's per-job
    /// `fault` field goes through here inside the worker fork, so a test
    /// can crash one specific job deterministically regardless of how the
    /// supervisor schedules it.
    void armFromSpec(const std::string& spec);

    /// The canonical list of site names compiled into the engines; tests
    /// iterate this to prove every recovery path fires.
    [[nodiscard]] static const std::vector<std::string>& knownSites();

private:
    FaultInjector() = default;

    std::atomic<bool> armed_{false};
    mutable std::mutex mu_;
    FaultPlan plan_;
    std::unordered_map<std::string, std::int64_t> hits_;
    std::int64_t fires_ = 0;
};

} // namespace mlpart::robust

/// Marks a named fault-injection site. Near-free when disarmed.
#define MLPART_FAULT_SITE(name) ::mlpart::robust::FaultInjector::instance().visit(name)
