// Host-speed calibration for the end-to-end metrics.
//
// The hosts this benchmark runs on are shared, and their speed drifts over
// minutes, more than the changes the benchmark must resolve and more than
// any regression bound can absorb: across ten seeds, raw wall times spread
// by up to 0.27 of their median (baseline.json holds the per-run raw
// values). Every run therefore also times a fixed reference
// kernel that belongs to the benchmark, not to the program under test: an
// integer hash chain (clock speed), a pointer chase through an L2-sized
// buffer and one through an L3-sized buffer (cache latency). The run's
// end-to-end time metrics are scaled by kReferenceSeconds / median(kernel
// seconds) — reference-host time — so drift that slows the kernel and the
// program alike cancels, while a change to the program moves only the
// program's side. Per-layer metrics and the trace stay raw wall time: many
// of them (journal fsync, queueing, generator lateness) are not bound by
// the CPU the kernel measures.
//
// The kernel runs in a helper process forked before anything else, so its
// buffers never count toward the measured process's memory; the caller
// waits while it runs, so it never competes with the program.
#pragma once

#include <cstddef>
#include <vector>

#include <sys/types.h>

namespace mlpart::e2e {

/// Median kernel time on the reference host (4-core Xeon KVM guest, AVX2)
/// when nothing else competes: the scale of every end-to-end time.
inline constexpr double kReferenceSeconds = 0.020;

class Calibrator {
public:
    /// Forks the helper. Call while the process is still single-threaded.
    Calibrator();
    /// Closes the helper's pipe and reaps it.
    ~Calibrator();

    Calibrator(const Calibrator&) = delete;
    Calibrator& operator=(const Calibrator&) = delete;

    /// Times the reference kernel `n` times (the caller waits meanwhile).
    void sample(int n = 1);

    [[nodiscard]] std::size_t samples() const { return seconds_.size(); }
    /// Median kernel time of this run; kReferenceSeconds before any sample.
    [[nodiscard]] double medianSeconds() const;
    /// kReferenceSeconds / medianSeconds(): < 1 on a host slower than the
    /// reference. Times are multiplied by it, rates divided.
    [[nodiscard]] double factor() const { return kReferenceSeconds / medianSeconds(); }

private:
    pid_t pid_ = -1;
    int request_ = -1; ///< parent -> helper: one byte per sample
    int reply_ = -1;   ///< helper -> parent: the kernel's seconds
    std::vector<double> seconds_;
};

} // namespace mlpart::e2e
