"""perfbench: the repository's end-to-end and per-layer benchmark.

Runs each workload in a fresh single-threaded child process (one at a
time), prints one ``workload metric value unit`` line per metric, and
ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. Untraced runs report the end-to-end metrics; ``--trace``
runs report the per-layer breakdown. Exits non-zero when any workload
returned a wrong result (after printing everything), and with status 2,
printing no result, when the program under test cannot be run.

    python3 perfbench/run.py [--workload NAME]... [--seed N] [--seconds S]
        [--trace [0|1]] [--repeat N] [--smoke] [--json PATH]

See perfbench/README.md for the workloads and the metric dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("raw-mixed", "sim-clients", "grow-batch", "crash-campaign", "serving")
#: a child that has not finished by then is killed (a run must end
#: within 180 s)
CHILD_TIMEOUT_S = 170
#: metrics printed with their sample count
LATENCIES = ("wall_p50_us", "sim_p99_ns")


class ChildError(RuntimeError):
    """A workload process failed to produce a result."""


def run_child(workload: str, args) -> dict:
    """Run one workload in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload}: no result after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{workload}: exit status {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares for this kind of run: the
    per-layer ones for a traced run, else the end-to-end ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def summarize(results: list[dict], key: str, names) -> dict:
    """Median and quartiles of each metric in ``names`` over repeats."""
    out = {}
    for name in names:
        values = [r[key][name] for r in results]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run perfbench workloads and print their metrics."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, alternating the order")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tests")
    parser.add_argument("--json", metavar="PATH", help="write every result here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    declared = declared_metrics(args.trace)
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
    key = "per_layer" if args.trace else "e2e"
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    try:
        for rep in range(args.repeat):
            for workload in workloads if rep % 2 == 0 else workloads[::-1]:
                runs[workload].append(run_child(workload, args))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        results = runs[workload]
        attempted += sum(r["attempted"] for r in results)
        failed += sum(r["failed"] for r in results)
        stats = summarize(results, key, units)
        for name, s in stats.items():
            unit = units[name]
            line = f"{workload} {name} {s['median']!r} {unit}"
            if name in LATENCIES:
                line += f" n={results[0]['samples'][name]}"
            if args.repeat > 1:
                spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                line += f" q1={s['q1']!r} q3={s['q3']!r} spread={spread:.4f}"
                if name in bounds and spread > bounds[name]:
                    line += f" WIDER-THAN-BOUND {bounds[name]}"
            print(line)
            label = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[label] = {"value": s["median"], "unit": unit}
        errors = sum(r["failed"] for r in results)
        tried = sum(r["attempted"] for r in results)
        print(f"{workload} error_rate {errors / tried!r} ratio n={tried}")
        for r in results:
            for message in r["failures"]:
                print(f"{workload} FAILURE {message}")
        if args.trace:
            r = results[0]
            share = r["self_ns"]["harness"] / sum(r["self_ns"].values())
            print(f"{workload} harness_share {share!r} ratio")
            for target in r["missing"]:
                print(f"{workload} MISSING {target}")
            print(f"{workload} trace_file {r['trace_file']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"args": vars(args), "runs": runs}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
