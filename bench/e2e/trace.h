// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public functions (the program itself carries no tracing).
// A span is {name, id, parent, start, end} in seconds since the tracer was
// created; spans of one operation (a start, a request) share a root. They
// stay in memory and are written out once, when the run ends.
//
// A span's self time is its duration minus its direct children's. Some
// children are placed from durations the program reports (a start's
// coarsening time, a result line's queue and compute seconds) rather than
// timed around a call.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mlpart::e2e {

struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0; ///< 0 = root
    double start = 0;
    double end = 0;

    [[nodiscard]] double seconds() const { return end - start; }
};

class Tracer {
public:
    Tracer() : origin_(Clock::now()) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Seconds since the tracer was created (the span time base).
    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    /// Records a finished span; returns its id. Thread-safe.
    std::int64_t add(const std::string& name, std::int64_t parent, double start, double end);

    /// Duration minus the summed durations of the direct children.
    [[nodiscard]] double selfSeconds(std::int64_t id) const;

    /// Writes every span as a JSON array of {name, id, parent, start, end}.
    /// Returns false when the file cannot be written.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_; ids are index + 1
};

} // namespace mlpart::e2e
