#!/usr/bin/env python3
"""Compares result sets of the end-to-end benchmark.

    compare.py PARENT_DIR CHANGE_DIR   parent commit against a change
    compare.py --same A_DIR B_DIR      two sets of runs of the same code
    compare.py --spread DIR            run-to-run spread of one set
    compare.py --collect --parent P --change C --out DIR
               [--workload all] [--seed 1]

A result set is a directory of <workload>.jsonl files as `run.py --out`
writes them; only untraced runs (trace 0) are read.  Each metric's
direction and bound come from BENCHMARK.json.  Quartiles are Python's
statistics.quantiles(values, n=4); a metric's spread is the distance
between its first and third quartile as a share of its median.

Parent against change prints one row per workload.  A metric is
  gain        when the change wins at least 90% of the pairs (runs with the
              same seed; ties count for neither) and the medians differ by
              more than the parent's own quartile distance;
  REGRESSION  when the change's median is worse than the parent's by more
              than the bound;
  unresolved  when either side's spread exceeds the bound, unless every
              change run is better than every parent run;
  ok          otherwise (within the bound).
At least 10 pairs are needed; --collect makes them, alternating which
side runs first, by running each checkout's own bench/e2e/run.py
(seed, seed + 1, ... per pair).

speedup_geomean is simulated: a seed gives the same value on the same
code, so it is judged pair by pair instead.  Any pair in which the change
is lower is a REGRESSION, whatever the bound; it is a gain when no pair is
lower and some pair is higher.  Its bound in BENCHMARK.json is only the
seed-to-seed spread a run over other seeds may show.

--same checks that two sets of runs of the same code agree: every median
within the bound of the other, and speedup_geomean identical in every
same-seed pair.

The exit code is 1 on a regression or a disagreement, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text())
MIN_PAIRS = 10
GAIN_SHARE = 0.9
# Metrics that repeat exactly for a seed on the same code.
EXACT = {"speedup_geomean"}


def load_set(directory):
    """{workload: [run, ...]} of the untraced runs in a result directory."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                run = json.loads(line)
                if run.get("trace", 0) == 0:
                    runs[run["workload"]].append(run)
    if not runs:
        sys.exit(f"compare.py: no untraced results in {directory}")
    return runs


def values(runs, name):
    return [run["metrics"][name]["value"] for run in runs]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / q2 if q2 else 0.0


def better(metric, a, b):
    """True when value a is better than value b."""
    return a < b if metric["better"] == "lower" else a > b


def worse_share(metric, parent_median, change_median):
    """How much worse the change's median is, as a share of the parent's."""
    delta = (change_median - parent_median) / parent_median if parent_median else 0.0
    return delta if metric["better"] == "lower" else -delta


def pairs_by_seed(parent_runs, change_runs):
    by_seed = defaultdict(list)
    for run in change_runs:
        by_seed[run["seed"]].append(run)
    pairs = []
    for run in parent_runs:
        if by_seed[run["seed"]]:
            pairs.append((run, by_seed[run["seed"]].pop(0)))
    return pairs


def exact_verdict(metric, pairs):
    """Same-seed pairs of an exact metric: any loss is a regression."""
    name = metric["name"]
    worse = [worse_share(metric, p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in pairs]
    if not worse:
        return "unresolved n=0"
    lost = sum(w > 0 for w in worse)
    if lost:
        return f"REGRESSION {max(worse):+.2%} in {lost}/{len(worse)}"
    if min(worse) < 0:
        return f"gain {min(worse):+.2%} {sum(w < 0 for w in worse)}/{len(worse)}"
    return f"ok identical n={len(worse)}"


def verdict(metric, parent_runs, change_runs):
    name, bound = metric["name"], metric["bound"]
    pairs = pairs_by_seed(parent_runs, change_runs)
    if name in EXACT:
        return exact_verdict(metric, pairs)
    p_vals, c_vals = values(parent_runs, name), values(change_runs, name)
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = quartiles(c_vals)[1]
    worse = worse_share(metric, p_med, c_med)
    wins = sum(better(metric, c["metrics"][name]["value"], p["metrics"][name]["value"])
               for p, c in pairs)
    if len(pairs) < MIN_PAIRS:
        return f"unresolved {worse:+.1%} n={len(pairs)}<{MIN_PAIRS}"
    if (wins >= GAIN_SHARE * len(pairs) and worse < 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return f"gain {worse:+.1%} {wins}/{len(pairs)}"
    every_run_better = all(better(metric, c, p) for c in c_vals for p in p_vals)
    if max(spread(p_vals), spread(c_vals)) > bound and not every_run_better:
        return f"unresolved {worse:+.1%}"
    if worse > bound:
        return f"REGRESSION {worse:+.1%}"
    return f"ok {worse:+.1%}"


def agreement(metric, a_runs, b_runs):
    name, bound = metric["name"], metric["bound"]
    a_vals, b_vals = values(a_runs, name), values(b_runs, name)
    if name in EXACT:
        pairs = pairs_by_seed(a_runs, b_runs)
        same = all(a["metrics"][name] == b["metrics"][name] for a, b in pairs)
        return f"identical n={len(pairs)}" if same else "DISAGREE (exact value changed)"
    a_med, b_med = quartiles(a_vals)[1], quartiles(b_vals)[1]
    gap = abs(b_med - a_med) / a_med if a_med else 0.0
    if gap <= bound:
        return f"agree {gap:.1%}"
    if max(spread(a_vals), spread(b_vals)) > bound:
        return f"unresolved {gap:.1%}"
    return f"DISAGREE {gap:.1%}"


def table(spec, rows):
    """Prints one row per workload with a column per metric."""
    width = max(16, *(len(cell) for _, cells in rows for cell in cells)) + 2
    print("workload".ljust(14) + "".join(m["name"].ljust(width) for m in spec))
    for workload, cells in rows:
        print(workload.ljust(14) + "".join(cell.ljust(width) for cell in cells))


def compare(spec, parent_dir, change_dir, same):
    parent, change = load_set(parent_dir), load_set(change_dir)
    judge = agreement if same else verdict
    rows = []
    for workload in sorted(set(parent) & set(change)):
        rows.append((workload, [judge(m, parent[workload], change[workload])
                                for m in spec]))
    table(spec, rows)
    failed = any(cell.startswith(("REGRESSION", "DISAGREE"))
                 for _, cells in rows for cell in cells)
    return 1 if failed else 0


def show_spread(spec, directory):
    runs = load_set(directory)
    rows = []
    for workload in sorted(runs):
        cells = []
        for metric in spec:
            vals = values(runs[workload], metric["name"])
            cells.append(f"{spread(vals):.2%} med {quartiles(vals)[1]:.6g}")
        rows.append((f"{workload} n={len(runs[workload])}", cells))
    table(spec, rows)
    print("bounds: " + ", ".join(f"{m['name']} {m['bound']:.0%}" for m in spec))
    return 0


def collect(args):
    for i in range(MIN_PAIRS):
        seed = args.seed + i
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            sides.reverse()
        for name, checkout in sides:
            out = (args.out / name).resolve()
            subprocess.run([sys.executable, "bench/e2e/run.py", "--workload", args.workload,
                            "--seed", str(seed), "--out", str(out)],
                           cwd=checkout, check=True, stdout=subprocess.DEVNULL)
            print(f"pair {i + 1}/{MIN_PAIRS}: {name} done", flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--same", action="store_true")
    mode.add_argument("--spread", action="store_true")
    mode.add_argument("--collect", action="store_true")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    if args.collect:
        if not (args.parent and args.change and args.out):
            parser.error("--collect needs --parent, --change and --out")
        return collect(args)
    spec = SPEC["end_to_end"]
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one result directory")
        return show_spread(spec, args.dirs[0])
    if len(args.dirs) != 2:
        parser.error("give two result directories")
    return compare(spec, args.dirs[0], args.dirs[1], args.same)


if __name__ == "__main__":
    sys.exit(main())
