// mlpart_benchmark — the repository's end-to-end benchmark (README.md).
//
//   mlpart_benchmark --workload NAME --seed S --seconds T --trace 0|1
//                    --work-dir DIR --serve-bin PATH
//                    [--scale X] [--starts N] [--rate R] [--out FILE]
//
// Workloads: golem3-k2, golem3-k2-vt4, mid-k4, serve-small. Every input is
// generated from S during set-up and handed to the program as .hgr files.
// Untraced runs report the end-to-end metrics, in reference-host time
// (calibrate.h); traced runs report the per-layer ones in raw wall time
// (spans go to DIR/trace.json). Every metric is
// printed by name with its unit and sample count; the last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}. Exit 0
// when every correctness check passed, 1 when one failed, 2 on bad usage.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "e2e.h"
#include "perf/simd.h"

namespace {

using namespace mlpart::e2e;

[[noreturn]] void usage(const std::string& msg) {
    std::cerr << "error: " << msg << "\n"
              << "usage: mlpart_benchmark --workload golem3-k2|golem3-k2-vt4|mid-k4|serve-small\n"
                 "         --seed S --seconds T --trace 0|1 --work-dir DIR --serve-bin PATH\n"
                 "         [--scale X] [--starts N] [--rate R] [--out FILE]\n";
    std::exit(2);
}

double number(const std::string& flag, const std::string& v) {
    try {
        std::size_t pos = 0;
        const double d = std::stod(v, &pos);
        if (pos == v.size()) return d;
    } catch (const std::exception&) {
    }
    usage(flag + ": not a number: " + v);
}

} // namespace

int main(int argc, char** argv) {
    Options o;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") o.workload = value();
        else if (arg == "--seed") o.seed = static_cast<std::uint64_t>(number(arg, value()));
        else if (arg == "--seconds") o.seconds = number(arg, value());
        else if (arg == "--trace") o.trace = number(arg, value()) != 0;
        else if (arg == "--scale") o.scale = number(arg, value());
        else if (arg == "--starts") o.starts = static_cast<int>(number(arg, value()));
        else if (arg == "--rate") o.rate = number(arg, value());
        else if (arg == "--work-dir") o.workDir = value();
        else if (arg == "--serve-bin") o.serveBin = value();
        else if (arg == "--out") out = value();
        else usage("unknown argument " + arg);
    }
    if (!isPartitionWorkload(o.workload) && o.workload != "serve-small")
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds <= 0 || o.scale <= 0 || o.scale > 1 || o.rate <= 0 || o.starts < 0)
        usage("--seconds, --rate and --scale must be positive, --scale at most 1");
    if (o.workDir.empty() || o.serveBin.empty()) usage("--work-dir and --serve-bin are required");
    std::filesystem::create_directories(o.workDir);
    const std::string traceFile = o.workDir + "/trace.json";

    // Forked while the process is still single-threaded.
    Calibrator calib;
    o.calib = &calib;

    // Inputs come from the seed alone: never load real circuits from the
    // environment, never inject faults into the program under test.
    unsetenv("MLPART_BENCH_DIR");
    unsetenv("MLPART_FAULT_INJECTION");

    std::cout << "mlpart_benchmark: workload " << o.workload << ", seed " << o.seed << ", "
              << o.seconds << " s, trace " << (o.trace ? "on" : "off") << ", simd "
              << mlpart::perf::toString(mlpart::perf::activeTier()) << "\n";
    Report report;
    Tracer tracer;
    Tracer* tr = o.trace ? &tracer : nullptr;
    bool measured = false;
    try {
        measured = isPartitionWorkload(o.workload) ? runPartitionWorkload(o, report, tr)
                                                   : runServeWorkload(o, report, tr);
    } catch (const std::exception& e) {
        report.fail(std::string("aborted: ") + e.what());
    }
    if (!measured && report.correct()) report.fail("nothing was measured");
    if (report.attempted() == 0) report.attempt();
    if (calib.samples() == 0) report.fail("host calibration took no samples");
    // Only the end-to-end metrics (untraced runs) are scaled; per-layer
    // metrics stay raw wall time, next to the raw kernel time.
    const double kernelMs = calib.medianSeconds() * 1e3;
    if (o.trace) report.set("host.calib_ms", kernelMs, "ms", calib.samples());
    else report.scaleTimes(calib.factor());
    std::cout << "host: reference kernel " << formatNumber(kernelMs) << " ms (median of "
              << calib.samples() << "), factor " << formatNumber(calib.factor())
              << (o.trace ? ", per-layer times raw\n" : ", end-to-end times scaled by it\n");

    report.print(std::cout);
    if (o.trace && !tracer.write(traceFile)) report.fail("cannot write the trace to " + traceFile);
    if (!out.empty() && !report.writeFile(out, o.workload, o.seed, o.trace))
        report.fail("cannot write the report to " + out);
    std::cout << report.resultLine() << std::endl;
    return report.correct() ? 0 : 1;
}
