#!/usr/bin/env python3
"""Build bench_e2e with the `ta` and `pdt_record` CLIs it times, then run it.

    python3 bench/e2e/run.py --workload even --seed 1 --seconds 20 --trace 0

Every argument goes to bench_e2e (see main.cc). The build is a Release
configure of the standalone project in bench/e2e, placed in
$CARGO_TARGET_DIR/e2e, or build-e2e at the repository root when that
is unset; later runs only rebuild what changed. Build output goes to stderr, so the last line of
stdout is bench_e2e's result object. That object's metric names are
checked against BENCHMARK.json before it is printed: a mismatch exits 1
without a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} is missing: the benchmark builds the repository's "
                 "own sources and needs a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR")
    out = os.path.join(os.path.abspath(target), "e2e") if target else \
        os.path.join(ROOT, "build-e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "bench_e2e", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                        "--abbrev=40"], capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def expected_names(args):
    """Metric names BENCHMARK.json promises for a single-workload run,
    or None when the run is not one (smoke or several workloads)."""
    def value(flag, default):
        i = args.index(flag) if flag in args else -1
        return args[i + 1] if 0 <= i < len(args) - 1 else default

    if "--smoke" in args or value("--workload", "all") == "all":
        return None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if value("--trace", "0") == "1" else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    bench = build()
    proc = subprocess.run([bench, *args, "--rev", revision()],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    names = expected_names(args)
    if proc.returncode == 0 and names is not None:
        try:
            got = set(json.loads(lines[-1])["metrics"])
        except (IndexError, ValueError, KeyError):
            fail("bench_e2e printed no result object")
        if got != names:
            print("\n".join(lines[:-1]))
            fail("metrics differ from BENCHMARK.json: missing "
                 f"{sorted(names - got)}, unexpected {sorted(got - names)}")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
