// One benchmark run's results: named metrics with units and sample counts,
// plus the correctness ledger (operations attempted, operations failed,
// and why).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mlpart::e2e {

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t n = 0; ///< samples the value rests on
};

class Report {
public:
    /// Sets (or replaces) a metric.
    void set(const std::string& name, double value, const std::string& unit, std::size_t n);

    /// Counts `n` operations as attempted.
    void attempt(std::int64_t n = 1) { attempted_ += n; }

    /// Records a failed correctness check or a non-OK result; counts
    /// `ops` operations as failed.
    void fail(const std::string& why, std::int64_t ops = 1);

    /// Records a check: nothing when it holds, a failure when it does not.
    void check(bool ok, const std::string& what) {
        if (!ok) fail(what);
    }

    /// Records something worth reading that fails no operation, such as a
    /// service-wide warning the program emitted.
    void note(const std::string& what);

    /// Converts every time metric to reference-host time (calibrate.h):
    /// values in s or ms are multiplied by `factor`, rates in 1/s divided
    /// by it.
    void scaleTimes(double factor);

    [[nodiscard]] bool correct() const { return problems_.empty(); }
    [[nodiscard]] std::int64_t attempted() const { return attempted_; }
    [[nodiscard]] std::int64_t failed() const { return failed_; }
    [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
    [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

    /// Human-readable lines: every metric by name, value, unit and count,
    /// then every problem and note.
    void print(std::ostream& out) const;

    /// The one-line result object: {"correct", "attempted", "failed",
    /// "metrics": {name: {"value", "unit"}}}.
    [[nodiscard]] std::string resultLine() const;

    /// Full report (metrics with sample counts, problems, machine) as JSON.
    [[nodiscard]] bool writeFile(const std::string& path, const std::string& workload,
                                 std::uint64_t seed, bool traced) const;

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
    std::vector<std::string> notes_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/// Shortest decimal that reads back as exactly `v` (all its digits).
[[nodiscard]] std::string formatNumber(double v);

/// JSON string literal body for `s` (quotes and control bytes escaped).
[[nodiscard]] std::string jsonQuote(const std::string& s);

} // namespace mlpart::e2e
