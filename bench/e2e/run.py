#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench/e2e/README.md).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Configures bench/e2e as a standalone CMake project in
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e under the checkout root),
builds mlpart_benchmark and mlpart_serve in Release, and runs the benchmark
from the checkout root with a fresh work directory
(.bench_build/e2e-run: instances, server state, trace.json, report.json).
Further arguments go to mlpart_benchmark unchanged. Build output goes to
stderr, so the benchmark's result object stays the last line of stdout.

Exits 2, printing no result, when the mlpart sources are not next to
bench/ (the benchmark has nothing to build). One run at a time per
checkout: runs share the work directory.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    sources = [os.path.join(ROOT, "src", "CMakeLists.txt"),
               os.path.join(ROOT, "tools", "mlpart_serve.cpp")]
    missing = [p for p in sources if not os.path.isfile(p)]
    if missing:
        print("run.py: mlpart sources missing (%s); nothing to benchmark"
              % ", ".join(os.path.relpath(p, ROOT) for p in missing), file=sys.stderr)
        return 2

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    build = os.path.join(out_root, "e2e")
    work = os.path.join(out_root, "e2e-run")
    # Compiler and program temporaries stay inside the checkout too.
    tmp = os.path.join(out_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "mlpart_benchmark", "mlpart_serve",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
        if rc != 0:
            print("run.py: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return rc

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rel_work = os.path.relpath(work, ROOT)  # keeps the socket path short
    cmd = [os.path.join(build, "mlpart_benchmark")] + sys.argv[1:] + [
        "--work-dir", rel_work,
        "--serve-bin", os.path.join(build, "mlpart_serve"),
        "--out", os.path.join(rel_work, "report.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
