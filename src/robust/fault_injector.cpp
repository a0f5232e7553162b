#include "robust/fault_injector.h"

#include <cstdlib>
#include <new>
#include <string_view>

#include "robust/status.h"

namespace mlpart::robust {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Plan-site match: empty = everything, trailing '*' = prefix, else exact.
bool siteMatches(const std::string& pattern, const char* site) {
    if (pattern.empty()) return true;
    if (pattern.back() == '*')
        return std::string_view(site).substr(0, pattern.size() - 1) ==
               std::string_view(pattern).substr(0, pattern.size() - 1);
    return pattern == site;
}

} // namespace

FaultInjector& FaultInjector::instance() {
    static FaultInjector injector;
    return injector;
}

const std::vector<std::string>& FaultInjector::knownSites() {
    // Keep in sync with every MLPART_FAULT_SITE() in the engines; the
    // robust_test suite arms each entry in turn and asserts it fires.
    static const std::vector<std::string> sites = {
        "coarsen.match",     // multilevel coarsening loop, before Match
        "coarsen.induce",    // induce() entry
        "uncoarsen.project", // project() entry
        "ml.initial",        // coarsest-level initial partitioning
        "refine.fm.pass",    // FMRefiner::runPass entry
        "refine.kway.pass",  // KWayFMRefiner::runPass entry
        "multistart.start",  // parallelMultiStart worker, before a start
        "govern.reserve",    // MemoryGovernor::reserve (arm kind=alloc for OOM)
        "checkpoint.write",  // saveCheckpoint entry: the write is skipped
        "checkpoint.torn",   // saveCheckpoint body: a torn file is left behind
        // Durable-filesystem shim sites (robust/fs_shim.h): every
        // checkpoint, journal, and persisted-cache byte crosses these.
        // Arm "site=fs.*" to exercise all of them at once; journal_test
        // and serve_test assert graceful degradation for each.
        "fs.write.enospc",   // before any byte: full disk, nothing written
        "fs.write.short",    // half the payload lands, then failure
        "fs.fsync",          // write complete, durability ack lost
        "fs.read.eio",       // read-side media error
        "serve.fork",        // worker pool, before fork(): spawn failure
        "serve.worker_crash",// worker child, before the job: raises SIGSEGV
        "serve.worker_hang", // worker child, before the job: hangs forever
        "serve.pipe",        // worker child, result write: torn frame
        "lsmc.descent",      // LSMC descent loop, before a kick+refine
        "spectral.iterate",  // spectral power iteration, each step
        "genetic.generation",// hybrid GA, before a generation
    };
    return sites;
}

void FaultInjector::arm(const FaultPlan& plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = plan;
    hits_.clear();
    fires_ = 0;
    armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_.store(false, std::memory_order_relaxed);
}

void FaultInjector::visit(const char* site) {
    if (!armed_.load(std::memory_order_relaxed)) return;
    FaultKind kind;
    std::string where;
    std::int64_t hit;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!armed_.load(std::memory_order_relaxed)) return;
        hit = ++hits_[site];
        if (!siteMatches(plan_.site, site)) return;
        if (plan_.maxFires >= 0 && fires_ >= plan_.maxFires) return;
        bool fire;
        if (plan_.fireAtHit >= 1) {
            fire = hit == plan_.fireAtHit;
        } else {
            // Counter-based decision: deterministic per (seed, site, hit).
            const std::uint64_t r = splitmix64(plan_.seed ^ fnv1a(site) ^
                                               static_cast<std::uint64_t>(hit));
            const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
            fire = u < plan_.probability;
        }
        if (!fire) return;
        ++fires_;
        kind = plan_.kind;
        where = site;
    }
    if (kind == FaultKind::kBadAlloc) throw std::bad_alloc();
    throw Error(StatusCode::kInjectedFault,
                "injected fault at '" + where + "' (visit " + std::to_string(hit) + ")");
}

std::int64_t FaultInjector::fires() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fires_;
}

std::int64_t FaultInjector::visits(const std::string& site) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = hits_.find(site);
    return it == hits_.end() ? 0 : it->second;
}

bool FaultInjector::armFromEnv() {
    const char* spec = std::getenv("MLPART_FAULT_INJECTION");
    if (spec == nullptr || *spec == '\0') return false;
    armFromSpec(spec);
    return true;
}

void FaultInjector::armFromSpec(const std::string& s) {
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos) comma = s.size();
        const std::string pair = s.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty()) continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            throw Error(StatusCode::kUsage,
                        "MLPART_FAULT_INJECTION: expected key=value, got '" + pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        try {
            if (key == "p") plan.probability = std::stod(value);
            else if (key == "seed") plan.seed = std::stoull(value);
            else if (key == "site") plan.site = value;
            else if (key == "at") plan.fireAtHit = std::stoll(value);
            else if (key == "max") plan.maxFires = std::stoll(value);
            else if (key == "kind") {
                if (value == "throw") plan.kind = FaultKind::kThrow;
                else if (value == "alloc") plan.kind = FaultKind::kBadAlloc;
                else throw Error(StatusCode::kUsage,
                                 "MLPART_FAULT_INJECTION: kind must be throw or alloc");
            } else {
                throw Error(StatusCode::kUsage,
                            "MLPART_FAULT_INJECTION: unknown key '" + key + "'");
            }
        } catch (const std::invalid_argument&) {
            throw Error(StatusCode::kUsage,
                        "MLPART_FAULT_INJECTION: bad value for '" + key + "'");
        } catch (const std::out_of_range&) {
            throw Error(StatusCode::kUsage,
                        "MLPART_FAULT_INJECTION: value out of range for '" + key + "'");
        }
    }
    arm(plan);
}

} // namespace mlpart::robust
