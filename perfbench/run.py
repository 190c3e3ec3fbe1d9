#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run in a checkout configures and
builds perfbench/ (the program's libraries plus the measuring program) into
.bench_build/perfbench; later runs only re-check the build. The workload
then runs with the given seed for about the given number of seconds.

Standard output ends with two JSON lines: the full report (provenance, every
metric with its unit and sample count, failed checks), then the result line
{"correct", "attempted", "failed", "metrics"}. Untraced runs (--trace 0)
report the end-to-end metrics of BENCHMARK.json, traced runs (--trace 1) the
per-layer metrics. The report is also saved under .bench_build/results/.
The exit code is 0 only when the build succeeded and every correctness check
passed; on a build or run error nothing is printed as a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("offload-exec", "fleet-burst", "cluster-skew")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def git_provenance():
    """Git revision and dirty flag, or nulls outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"git_rev": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, env=env)
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    if rev.returncode != 0 or status.returncode != 0:
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_metrics(metrics, workload, trace):
    """Checks emitted metrics against BENCHMARK.json; returns the problems.

    A traced run must emit each per-layer metric whose plan.json entry lists
    the workload, and no other; the rest read 0 (the workload does no work
    in that layer) and are filled in here. An untraced run must emit every
    end-to-end metric. Units must match BENCHMARK.json.
    """
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    exercised = set(expected)
    if trace:
        moves = load_json(os.path.join(HERE, "plan.json"))["moves"]
        exercised = {n for n in expected if workload in moves[n]["workloads"]}
    problems = [f"unexpected metric {n}" for n in sorted(set(metrics) - exercised)]
    for name, unit in expected.items():
        if name not in exercised:
            metrics.setdefault(name, {"value": 0, "unit": unit})
        elif name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name]["unit"] != unit:
            problems.append(f"unit of {name} is {metrics[name]['unit']}, "
                            f"BENCHMARK.json says {unit}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(done.stderr)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log(f"no result from {args.workload} (exit {done.returncode})")
        return 1
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])

    for problem in check_metrics(result["metrics"], args.workload, args.trace):
        log(problem)
        result["correct"] = False
        result["failed"] += 1
        report["failures"].append(problem)

    report["provenance"].update(git_provenance())
    report["provenance"]["python_cpu_count"] = os.cpu_count()
    report["correct"] = result["correct"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)

    print(json.dumps({"report": report}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
