#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "perf/simd.h"

namespace mlpart::e2e {

std::string formatNumber(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string jsonQuote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void Report::set(const std::string& name, double value, const std::string& unit, std::size_t n) {
    for (Metric& m : metrics_) {
        if (m.name != name) continue;
        m = {name, value, unit, n};
        return;
    }
    metrics_.push_back({name, value, unit, n});
}

void Report::fail(const std::string& why, std::int64_t ops) {
    failed_ += ops;
    // Keep the ledger readable when one check fails on every operation.
    if (problems_.size() < 20) problems_.push_back(why);
    else if (problems_.size() == 20) problems_.push_back("(further problems not listed)");
}

void Report::scaleTimes(double factor) {
    for (Metric& m : metrics_) {
        if (m.unit == "s" || m.unit == "ms") m.value *= factor;
        else if (m.unit == "1/s") m.value /= factor;
    }
}

void Report::note(const std::string& what) {
    if (notes_.size() < 20 && std::find(notes_.begin(), notes_.end(), what) == notes_.end())
        notes_.push_back(what);
}

void Report::print(std::ostream& out) const {
    for (const Metric& m : metrics_) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "  %-24s %14.6g %-6s (n=%zu)", m.name.c_str(), m.value,
                      m.unit.c_str(), m.n);
        out << buf << "\n";
    }
    out << "  attempted " << attempted_ << ", failed " << failed_ << "\n";
    for (const std::string& p : problems_) out << "  CHECK FAILED: " << p << "\n";
    for (const std::string& n : notes_) out << "  NOTE: " << n << "\n";
}

std::string Report::resultLine() const {
    std::ostringstream o;
    o << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        o << (i > 0 ? ", " : "") << jsonQuote(m.name) << ": {\"value\": " << formatNumber(m.value)
          << ", \"unit\": " << jsonQuote(m.unit) << "}";
    }
    o << "}}";
    return o.str();
}

bool Report::writeFile(const std::string& path, const std::string& workload, std::uint64_t seed,
                       bool traced) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"workload\": " << jsonQuote(workload) << ",\n  \"seed\": " << seed
        << ",\n  \"trace\": " << (traced ? "true" : "false")
        << ",\n  \"machine\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"simd_tier\": " << jsonQuote(perf::toString(perf::activeTier())) << "}"
        << ",\n  \"correct\": " << (correct() ? "true" : "false")
        << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
        << ",\n  \"problems\": [";
    for (std::size_t i = 0; i < problems_.size(); ++i)
        out << (i > 0 ? ", " : "") << jsonQuote(problems_[i]);
    out << "],\n  \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i)
        out << (i > 0 ? ", " : "") << jsonQuote(notes_[i]);
    out << "],\n  \"metrics\": [\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out << "    {\"name\": " << jsonQuote(m.name) << ", \"value\": " << formatNumber(m.value)
            << ", \"unit\": " << jsonQuote(m.unit) << ", \"n\": " << m.n << "}"
            << (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

} // namespace mlpart::e2e
