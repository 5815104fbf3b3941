#!/usr/bin/env python3
"""Benchmark regression gate over google-benchmark JSON output.

Three checks, composable in one invocation:

  Baseline compare (two files):
      bench-compare.py bench/baselines/BENCH_bench_v3_blocks.json \
                       build-release/BENCH_bench_v3_blocks.json
    Matches benchmarks by name (the intersection — a filtered current
    run against a full baseline compares just the filtered set), prints
    a delta table, and fails if any wall time regresses by more than
    --threshold (default 15%). Counters marked higher-is-better
    (decode_speedup) gate in the opposite direction. Baselines are
    machine-specific: regenerate them on the reference machine with the
    `release` preset whenever the hardware or the workload changes
    (see bench/baselines/README.md).

  Decode invariant (--assert-decode, works with one file):
      bench-compare.py --assert-decode build/BENCH_bench_v3_blocks.json
    Every benchmark exporting both v1_read_ms and v3_decode_ms counters
    must satisfy v3_decode_ms <= v1_read_ms * --slack. This is the
    tentpole claim of the columnar codec — compressed blocks decode at
    least as fast as reading the uncompressed file — checked on the
    numbers of the machine at hand, so it is meaningful even on noisy
    shared runners where absolute baselines are not.

  Complexity fit (--assert-complexity, works with one file):
      bench-compare.py --assert-complexity build/BENCH_bench_ta_parallel.json
    Every `*_BigO` row (a benchmark registered with ->Complexity())
    must report a fit better than N^2: `big_o` of N^2 or N^3 fails,
    and so does a file with no such row. Like --assert-decode, it
    compares sizes within one run, so it holds on any host.

Exit status: 0 clean, 1 any gate tripped, 2 usage/parse error.
"""

import argparse
import json
import sys

# Counters where LARGER is better; wall times and everything else
# gate on increase.
HIGHER_IS_BETTER = {"decode_speedup", "events_per_sec", "bytes_per_second",
                    "items_per_second"}

# Counters that are facts about the run (or denominators of gated
# ratios), not product metrics — shown in the table but never gated.
INFORMATIONAL = {"events", "blocks", "records", "v3_file_read_ms",
                 "v1_read_ms"}


# google-benchmark's complexity fits that fail --assert-complexity.
SUPERLINEAR_FITS = {"N^2", "N^3"}


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench-compare: cannot read {path}: {e}")


def load(path):
    doc = load_doc(path)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b
    if not out:
        sys.exit(f"bench-compare: no benchmark entries in {path}")
    return out


def wall_ms(entry):
    unit = entry.get("time_unit", "ns")
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}.get(unit)
    if scale is None:
        sys.exit(f"bench-compare: unknown time unit {unit!r}")
    return entry["real_time"] * scale


def counters(entry):
    skip = {"name", "run_name", "run_type", "repetitions",
            "repetition_index", "threads", "iterations", "real_time",
            "cpu_time", "time_unit", "family_index",
            "per_family_instance_index", "aggregate_name"}
    return {k: v for k, v in entry.items()
            if k not in skip and isinstance(v, (int, float))}


def compare(base, cur, threshold):
    names = [n for n in base if n in cur]
    if not names:
        sys.exit("bench-compare: baseline and current share no "
                 "benchmark names")
    failures = []
    rows = []
    for n in names:
        rows.append((n, "wall_ms", wall_ms(base[n]), wall_ms(cur[n]), False))
        bc, cc = counters(base[n]), counters(cur[n])
        for k in sorted(bc.keys() & cc.keys()):
            if k in INFORMATIONAL:
                continue
            rows.append((n, k, bc[k], cc[k], k in HIGHER_IS_BETTER))

    w = max(len(r[0]) + len(r[1]) + 1 for r in rows)
    print(f"{'benchmark/metric':<{w}}  {'baseline':>12}  {'current':>12}"
          f"  {'delta':>8}")
    for name, metric, b, c, higher in rows:
        if b <= 0:
            delta = 0.0
        else:
            delta = (c - b) / b
        regressed = (-delta if higher else delta) > threshold
        mark = "  FAIL" if regressed else ""
        print(f"{name + '/' + metric:<{w}}  {b:>12.4g}  {c:>12.4g}"
              f"  {delta:>+7.1%}{mark}")
        if regressed:
            failures.append(f"{name}/{metric}: {b:.4g} -> {c:.4g} "
                            f"({delta:+.1%}, limit {threshold:.0%})")
    return failures


def assert_decode(cur, slack):
    failures = []
    checked = 0
    for n in sorted(cur):
        c = counters(cur[n])
        if "v1_read_ms" not in c or "v3_decode_ms" not in c:
            continue
        checked += 1
        v1, v3 = c["v1_read_ms"], c["v3_decode_ms"]
        ok = v3 <= v1 * slack
        print(f"decode<=v1  {n}: v3_decode={v3:.2f}ms v1_read={v1:.2f}ms "
              f"({v3 / v1 if v1 > 0 else float('inf'):.2f}x)"
              f"{'' if ok else '  FAIL'}")
        if not ok:
            failures.append(f"{n}: v3_decode_ms {v3:.2f} > v1_read_ms "
                            f"{v1:.2f} * slack {slack:g}")
    if checked == 0:
        failures.append("no benchmark exports v1_read_ms + v3_decode_ms "
                        "counters (wrong filter or stale binary?)")
    return failures


def assert_complexity(doc):
    failures = []
    fits = [b for b in doc.get("benchmarks", [])
            if b.get("name", "").endswith("_BigO")]
    for b in fits:
        big_o = b.get("big_o", "?")
        ok = big_o not in SUPERLINEAR_FITS
        print(f"complexity  {b['name']}: O({big_o})"
              f"{'' if ok else '  FAIL'}")
        if not ok:
            failures.append(f"{b['name']}: fitted O({big_o}), "
                            f"worse than N log N")
    if not fits:
        failures.append("no *_BigO row (no benchmark registered with "
                        "->Complexity(), or wrong filter?)")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description="google-benchmark JSON regression gate")
    ap.add_argument("files", nargs="+", metavar="JSON",
                    help="baseline.json current.json, or just current.json "
                         "with --assert-decode or --assert-complexity")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated wall-time regression "
                         "(fraction, default 0.15)")
    ap.add_argument("--assert-decode", action="store_true",
                    help="require v3_decode_ms <= v1_read_ms * slack on "
                         "the current (last) file")
    ap.add_argument("--slack", type=float, default=1.0,
                    help="multiplier on v1_read_ms for --assert-decode "
                         "(default 1.0: decode must win outright)")
    ap.add_argument("--assert-complexity", action="store_true",
                    help="fail when any *_BigO row of the current (last) "
                         "file fits N^2 or N^3")
    args = ap.parse_args()

    if len(args.files) not in (1, 2):
        ap.error("expected one or two JSON files")
    if (len(args.files) == 1 and not args.assert_decode
            and not args.assert_complexity):
        ap.error("a single file only makes sense with --assert-decode "
                 "or --assert-complexity")

    failures = []
    cur = load(args.files[-1])
    if len(args.files) == 2:
        failures += compare(load(args.files[0]), cur, args.threshold)
    if args.assert_decode:
        failures += assert_decode(cur, args.slack)
    if args.assert_complexity:
        failures += assert_complexity(load_doc(args.files[-1]))

    if failures:
        print(f"\nbench-compare: {len(failures)} gate failure(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench-compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
