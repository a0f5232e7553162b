#include "trace.h"

#include <cstdio>
#include <fstream>

namespace mlpart::e2e {

std::int64_t Tracer::add(const std::string& name, std::int64_t parent, double start, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
    spans_.push_back({name, id, parent, start, end});
    return id;
}

double Tracer::selfSeconds(std::int64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < 1 || id > static_cast<std::int64_t>(spans_.size())) return 0;
    double self = spans_[static_cast<std::size_t>(id - 1)].seconds();
    for (const Span& s : spans_)
        if (s.parent == id) self -= s.seconds();
    return self;
}

bool Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "[\n";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf, "\"start\":%.9f,\"end\":%.9f", s.start, s.end);
        out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
            << "," << buf << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

} // namespace mlpart::e2e
