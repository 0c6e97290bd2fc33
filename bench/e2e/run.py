#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (fgpar_bench).

    python3 bench/e2e/run.py [--workload <name|all>] [--seed <n>]
                             [--seconds <s>] [--trace 0|1] [--out <dir>]

    python3 bench/e2e/run.py --smoke [--binary <path>] [--record-golden]

The first form configures and builds fgpar_bench from this checkout's
sources into .bench_build/e2e (an up-to-date build is a no-op), runs one
process per workload (default: all five, seed 1) and prints each one's
output; the last line of each is its JSON result
{"correct", "attempted", "failed", "metrics"}.  A run does a fixed amount
of work, sized to BENCHMARK.json's run_seconds on the reference host;
--seconds, when given, must equal run_seconds.  --trace 1 runs the traced
ledger instead and keeps the spans in .bench_build/e2e/trace_<workload>.json.
--out appends each result, tagged with workload, seed and trace, to
<dir>/<workload>.jsonl for compare.py, and names the host in
<dir>/host.json when the set starts.

--smoke runs one round of every workload on the three-kernel subset, traced,
and checks that every metric BENCHMARK.json names is printed with its unit,
that no point failed, and that the deterministic values match
golden_smoke.json (--record-golden rewrites that file instead).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
GOLDEN = HERE / "golden_smoke.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["fig12", "sim_large", "wide_compile", "autotune", "native"]
RUN_TIMEOUT_S = 170

# Values a smoke run reproduces exactly for a given seed.
DETERMINISTIC = [
    "speedup_geomean",
    "sim.seq.instructions",
    "sim.seq.cycles",
    "sim.par.instructions",
    "sim.par.cycles",
    "sim.par.queue_transfers",
    "native.par.queue_transfers",
]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds fgpar_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fgpar sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "fgpar_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "fgpar_bench"


def build_or_fail():
    try:
        return build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"cannot build fgpar_bench: {e}")


def run_binary(binary, workload, seed, trace, smoke):
    """Runs one workload in its own process; returns (stdout lines, result).
    The binary runs in its own directory, where a traced run leaves its
    spans."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=binary.parent)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: fgpar_bench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result line: {lines[-1]}")
    return lines, result


def host_descriptor():
    """The facts a result set needs to name its host."""
    cache = {}
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version[0] if version else compiler,
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "load_average_at_start": list(os.getloadavg()),
    }


def printed_metrics(lines):
    """Parses the 'name value unit n=<samples>' lines."""
    metrics = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[3].startswith("n="):
            metrics[fields[0]] = (float(fields[1]), fields[2])
    return metrics


def same_value(expected, actual):
    if float(expected).is_integer():
        return expected == actual
    return math.isclose(expected, actual, rel_tol=1e-12)


def smoke(binary, record):
    named = SPEC["end_to_end"] + SPEC["per_layer"]
    golden = {} if record else json.loads(GOLDEN.read_text())
    problems = []
    for workload in WORKLOADS:
        lines, result = run_binary(binary, workload, 1, trace=True, smoke=True)
        printed = printed_metrics(lines)
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{workload}: {result['failed']} of "
                            f"{result['attempted']} points failed")
        for metric in named:
            if printed.get(metric["name"], (None, None))[1] != metric["unit"]:
                problems.append(f"{workload}: {metric['name']} not printed "
                                f"with unit {metric['unit']}")
        if record:
            values = {key: printed[key][0] for key in DETERMINISTIC}
            golden[workload] = {key: int(v) if v.is_integer() else v
                                for key, v in values.items()}
            continue
        for key, expected in golden[workload].items():
            actual = printed.get(key, (None,))[0]
            if actual is None or not same_value(expected, actual):
                problems.append(f"{workload}: {key} = {actual}, golden {expected}")
        print(f"smoke {workload}: {result['attempted']} points, "
              f"{len(printed)} metrics printed")
    if record:
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="append results to <dir>/<workload>.jsonl")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--binary", type=Path, help="use this fgpar_bench, do not build")
    args = parser.parse_args()
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"a run's work is fixed; --seconds must be BENCHMARK.json's "
                     f"run_seconds ({SPEC['run_seconds']})")

    binary = args.binary.resolve() if args.binary else build_or_fail()
    if args.smoke:
        return smoke(binary, args.record_golden)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.out and not (args.out / "host.json").is_file():
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "host.json").write_text(
            json.dumps(host_descriptor(), indent=2) + "\n")
    for workload in workloads:
        lines, result = run_binary(binary, workload, args.seed, args.trace == 1,
                                   smoke=False)
        print("\n".join(lines), flush=True)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            tagged = {"workload": workload, "seed": args.seed, "trace": args.trace,
                      **result}
            with open(args.out / f"{workload}.jsonl", "a") as f:
                f.write(json.dumps(tagged) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
