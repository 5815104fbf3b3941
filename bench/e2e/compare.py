#!/usr/bin/env python3
"""Compare bench_e2e result files (written with --out) per metric and workload.

Gain claim, alternating parent and change runs:

    compare.py parent1.json change1.json parent2.json change2.json ...

Pairs are taken in order; a pair counts for a workload when both of its
files hold that workload, so single-workload runs can be mixed. For
every end-to-end metric of BENCHMARK.json and every workload, the
verdict is:

  gain        at least 10 pairs, the change wins at least 9 in 10 of
              them (ties count for neither), and the medians differ by
              more than the parent's interquartile range;
  regressed   otherwise, the change's median is worse than the
              parent's by more than the metric's bound;
  unresolved  otherwise, the spread of either side (interquartile
              range over median) is wider than the bound, unless every
              change run reads better than every parent run;
  ok          none of the above.

A gain does not count when the change failed more commands on that
workload than the parent: its verdict reads `refused`, and the
comparison exits 1.

Per-layer metrics present in the files are listed with their medians
and change, without a verdict: they locate a saving, they do not gate.

Same commit, twice:

    compare.py --repeat runA1.json runB1.json runA2.json runB2.json ...

checks that the two sets agree: each set's spread and the gap between
their medians stay within every end-to-end bound, and no run failed a
command.

Both modes flag any op whose span coverage is below 0.95, and refuse
(exit 2) files whose nproc, thread count or build type differ.
Exit status: 0 clean, 1 a regression / refused gain / disagreement /
failed command in --repeat / low coverage, 2 usage or incomparable
files.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_COVERAGE = 0.95
MIN_PAIRS = 10
WIN_SHARE = 0.9


def die(msg):
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        doc["host"]
        for body in doc["workloads"].values():
            body["failed"], body["metrics"]
    except (OSError, ValueError, KeyError, AttributeError) as e:
        die(f"cannot read result file {path}: {e}")
    return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range as a share of the median."""
    lo, hi = quartiles(values)
    med = statistics.median(values)
    return (hi - lo) / abs(med) if med else float("inf")


def series(docs, workload, metric):
    out = []
    for d in docs:
        m = d["workloads"][workload]["metrics"].get(metric)
        if m is None:
            return None
        out.append(m["value"])
    return out


def check_comparable(docs, paths):
    keys = ("nproc", "threads", "build_type")
    first = docs[0]["host"]
    for d, p in zip(docs, paths):
        for k in keys:
            if d["host"].get(k) != first.get(k):
                die(f"refusing to compare: {p} has {k}="
                    f"{d['host'].get(k)!r}, {paths[0]} has "
                    f"{first.get(k)!r}")


def low_coverage(docs, paths):
    found = []
    for d, p in zip(docs, paths):
        for w, body in d["workloads"].items():
            for name, m in body.get("metrics", {}).items():
                if name.endswith(".coverage") and m["value"] < MIN_COVERAGE:
                    found.append(f"{p}: {w} {name} = {m['value']:.3f}")
    return found


def better(direction, a, b):
    """True if value a is better than value b."""
    return a < b if direction == "lower" else a > b


def worse_share(direction, base, new):
    delta = new - base if direction == "lower" else base - new
    return delta / abs(base) if base else 0.0


def verdict(metric, parent, change):
    bound, direction = metric["bound"], metric["better"]
    n = len(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    wins = sum(better(direction, c, p) for p, c in zip(parent, change))
    all_better = all(better(direction, c, p) for c in change for p in parent)
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n and
            better(direction, c_med, p_med) and
            abs(c_med - p_med) > p_hi - p_lo):
        v = "gain"
    elif worse_share(direction, p_med, c_med) > bound:
        v = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        v = "unresolved"
    else:
        v = "ok"
    return v, wins


def agreement(metric, a, b):
    bound = metric["bound"]
    gap = abs(statistics.median(b) - statistics.median(a)) / \
        abs(statistics.median(a))
    spreads = (spread(a), spread(b))
    ok = gap <= bound and max(spreads) <= bound
    return ("agree" if ok else "DISAGREE"), gap, spreads


def failures(docs, workload):
    return sum(d["workloads"][workload]["failed"] for d in docs)


def fmt(values):
    lo, hi = quartiles(values)
    return f"{statistics.median(values):.4g} [{lo:.4g}, {hi:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+",
                    help="result files, alternating parent/change "
                         "(or set A/set B with --repeat)")
    ap.add_argument("--repeat", action="store_true",
                    help="both sides are runs of the same commit")
    args = ap.parse_args()
    if len(args.files) < 2 or len(args.files) % 2:
        die("give an even number of result files, alternating the two "
            "sides")
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    docs = [load(p) for p in args.files]
    check_comparable(docs, args.files)
    pairs = list(zip(docs[0::2], docs[1::2]))
    workloads = sorted(set().union(*(d["workloads"] for d in docs)))
    failing = []

    a_name, b_name = ("set A", "set B") if args.repeat else \
        ("parent", "change")
    print(f"{a_name} vs {b_name}; median [q1, q3] per side")
    for w in workloads:
        both = [(a, b) for a, b in pairs
                if w in a["workloads"] and w in b["workloads"]]
        side_a = [a for a, _ in both]
        side_b = [b for _, b in both]
        print(f"\n== {w}: {len(both)} pair(s)")
        if not both:
            continue
        fail_a, fail_b = failures(side_a, w), failures(side_b, w)
        print(f"  failed commands: {fail_a} ({a_name}), {fail_b} ({b_name})")
        more_failures = fail_b > fail_a
        if args.repeat and fail_a + fail_b:
            failing.append(f"{w} failed commands")
        elif more_failures:
            failing.append(f"{w} more failed commands than the parent")
        for m in spec["end_to_end"]:
            a = series(side_a, w, m["name"])
            b = series(side_b, w, m["name"])
            if a is None or b is None:
                continue
            if args.repeat:
                v, gap, (sa, sb) = agreement(m, a, b)
                print(f"  {m['name']:20s} {fmt(a):34s} {fmt(b):34s} "
                      f"gap {gap:6.1%} spread {sa:6.1%}/{sb:6.1%} "
                      f"bound {m['bound']:.0%}  {v}")
                if v != "agree":
                    failing.append(f"{w} {m['name']}")
            else:
                v, wins = verdict(m, a, b)
                if v == "gain" and more_failures:
                    v = "refused"
                p_med = statistics.median(a)
                change = (statistics.median(b) - p_med) / abs(p_med)
                print(f"  {m['name']:20s} {fmt(a):34s} {fmt(b):34s} "
                      f"{change:+7.1%} ({m['better']} is better) "
                      f"wins {wins}/{len(a)} bound {m['bound']:.0%}  {v}")
                if v == "regressed":
                    failing.append(f"{w} {m['name']}")
        for m in spec["per_layer"]:
            a = series(side_a, w, m["name"])
            b = series(side_b, w, m["name"])
            if a is None or b is None:
                continue
            base = statistics.median(a)
            change = (statistics.median(b) - base) / abs(base) if base else 0
            print(f"  {m['name']:36s} {fmt(a):34s} {fmt(b):34s} "
                  f"{change:+7.1%}")

    low = low_coverage(docs, args.files)
    for line in low:
        print(f"low span coverage: {line}")
    if failing:
        print("\n" + ("disagree: " if args.repeat else "not accepted: ") +
              ", ".join(failing))
    return 1 if failing or low else 0


if __name__ == "__main__":
    sys.exit(main())
