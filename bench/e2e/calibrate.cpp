#include "calibrate.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>

#include "stats.h"

namespace mlpart::e2e {

namespace {

/// A single random cycle over n slots (Sattolo's algorithm), so a chase
/// visits every slot before repeating and the prefetcher cannot follow.
std::vector<std::uint32_t> randomCycle(std::size_t n, std::uint64_t seed) {
    std::vector<std::uint32_t> next(n);
    std::iota(next.begin(), next.end(), 0u);
    std::mt19937_64 rng(seed);
    for (std::size_t i = n - 1; i > 0; --i) std::swap(next[i], next[rng() % i]);
    return next;
}

/// The reference kernel: ~20 ms on the reference host, a third each of
/// dependent integer arithmetic, L2-resident and L3-resident chasing.
double kernelSeconds(const std::vector<std::uint32_t>& l2, const std::vector<std::uint32_t>& l3,
                     std::uint64_t& sink) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ULL ^ sink;
    for (int i = 0; i < 3'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::uint32_t p = static_cast<std::uint32_t>(x % l2.size());
    for (int i = 0; i < 1'200'000; ++i) p = l2[p];
    std::uint32_t q = p % static_cast<std::uint32_t>(l3.size());
    for (int i = 0; i < 75'000; ++i) q = l3[q];
    sink = x + q;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

[[noreturn]] void helperMain(int request, int reply) {
    const std::vector<std::uint32_t> l2 = randomCycle(std::size_t{1} << 16, 7);  // 256 KiB
    const std::vector<std::uint32_t> l3 = randomCycle(std::size_t{1} << 22, 11); // 16 MiB
    std::uint64_t sink = 0;
    char byte = 0;
    while (read(request, &byte, 1) == 1) {
        const double s = kernelSeconds(l2, l3, sink);
        if (write(reply, &s, sizeof s) != static_cast<ssize_t>(sizeof s)) break;
    }
    _exit(sink == 42 ? 1 : 0); // keeps the kernel's result observable
}

} // namespace

Calibrator::Calibrator() {
    // Close-on-exec: a server spawned later must not hold the helper's pipe.
    int req[2], rep[2];
    if (pipe2(req, O_CLOEXEC) != 0) return;
    if (pipe2(rep, O_CLOEXEC) != 0) {
        close(req[0]);
        close(req[1]);
        return;
    }
    pid_ = fork();
    if (pid_ == 0) {
        close(req[1]);
        close(rep[0]);
        helperMain(req[0], rep[1]);
    }
    close(req[0]);
    close(rep[1]);
    if (pid_ < 0) {
        close(req[1]);
        close(rep[0]);
        return;
    }
    request_ = req[1];
    reply_ = rep[0];
}

Calibrator::~Calibrator() {
    if (request_ >= 0) close(request_);
    if (reply_ >= 0) close(reply_);
    if (pid_ > 0) {
        int status = 0;
        waitpid(pid_, &status, 0);
    }
}

void Calibrator::sample(int n) {
    for (int i = 0; i < n && request_ >= 0; ++i) {
        const char byte = 'k';
        double s = 0;
        if (write(request_, &byte, 1) != 1 || read(reply_, &s, sizeof s) != sizeof s) return;
        seconds_.push_back(s);
    }
}

double Calibrator::medianSeconds() const {
    return seconds_.empty() ? kReferenceSeconds : median(seconds_);
}

} // namespace mlpart::e2e
