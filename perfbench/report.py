"""Run every workload and print its end-to-end metrics, from the repository root:

    python3 perfbench/report.py [--seeds 1 2 3] [--trace] [--out perfbench/baseline]
    python3 perfbench/report.py --compare A/runs.json B/runs.json

Each run is a separate ``perfbench/run.py`` process of ``run_seconds``
from ``BENCHMARK.json``.  The table gives, per workload, the median over
the seeds of ``setup_s``, ``elements_per_s``, ``case_p50_ms``,
``case_p90_ms``, ``failed_ratio`` (failed over attempted cases) and
``peak_rss_mb``, each with its unit.  ``--trace`` adds one traced run per
workload (first seed) and prints its per-layer table.  ``--out`` writes
every run's result to ``runs.json`` and the tables to ``report.md`` in
that directory; each run there also keeps, under ``summary``, the other
figures ``run.py`` prints to standard error, among them the raw
(unscaled) times and the gauge median.  ``--compare`` prints, for two
such ``runs.json`` files, each end-to-end metric's median and quartile
spread in both and the change of the median from the first to the second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk", "corpus", "cli")
END_TO_END = ("setup_s", "elements_per_s", "case_p50_ms", "case_p90_ms", "failed_ratio", "peak_rss_mb")


def run_one(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {}
    for line in proc.stderr.splitlines():
        # "# name = value unit", as run.py prints every figure
        match = re.fullmatch(r"# (\S+) = (\S+) (\S+)", line)
        if match and match[1] not in result["metrics"]:
            summary[match[1]] = {"value": float(match[2]), "unit": match[3]}
    result["summary"] = summary
    result["workload"], result["seed"], result["trace"] = workload, seed, int(trace)
    result["metrics"]["failed_ratio"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio"}
    return result


def end_to_end_table(results):
    units = {}
    lines = ["| workload | runs | " + " | ".join(END_TO_END) + " |",
             "|---" * (len(END_TO_END) + 2) + "|"]
    for workload in WORKLOADS:
        runs = [r for r in results if r["workload"] == workload and not r["trace"]]
        cells = []
        for name in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            units[name] = runs[0]["metrics"][name]["unit"]
            cells.append(f"{statistics.median(values):.4g} {units[name]}")
        lines.append(f"| {workload} | {len(runs)} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def layer_table(results):
    traced = {r["workload"]: r["metrics"] for r in results if r["trace"]}
    names = list(next(iter(traced.values())))
    lines = ["| metric | unit | " + " | ".join(traced) + " |", "|---" * (len(traced) + 2) + "|"]
    for name in names:
        unit = next(iter(traced.values()))[name]["unit"]
        cells = [f"{m[name]['value']:.4g}" for m in traced.values()]
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def compare_table(first, second):
    sets = []
    for path in (first, second):
        with open(path, encoding="utf-8") as f:
            sets.append([r for r in json.load(f)["runs"] if not r["trace"]])

    def median_spread(runs, workload, name):
        values = [r["metrics"][name]["value"] for r in runs if r["workload"] == workload]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        return median, (q3 - q1) / median

    lines = ["| workload | metric | first median (spread) | second median (spread) | change |",
             "|---|---|---|---|---|"]
    for workload in WORKLOADS:
        for name in END_TO_END:
            if name == "failed_ratio":
                continue
            (m1, s1), (m2, s2) = (median_spread(runs, workload, name) for runs in sets)
            lines.append(f"| {workload} | {name} | {m1:.4g} ({s1:.3f}) | {m2:.4g} ({s2:.3f}) "
                         f"| {m2 / m1 - 1:+.3f} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        print(compare_table(*args.compare))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]

    results = []
    for seed in args.seeds:
        for workload in WORKLOADS:
            results.append(run_one(workload, seed, seconds, trace=False))
            print(f"# {workload} seed {seed} done", file=sys.stderr)
    if args.trace:
        for workload in WORKLOADS:
            results.append(run_one(workload, args.seeds[0], seconds, trace=True))
    text = end_to_end_table(results)
    if args.trace:
        text += "\n\nTraced run, seed " + str(args.seeds[0]) + ":\n\n" + layer_table(results)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        env = {"python": platform.python_version(), "cpus": os.cpu_count(),
               "machine": platform.machine(), "seconds": seconds}
        with open(os.path.join(args.out, "runs.json"), "w", encoding="utf-8") as f:
            json.dump({"environment": env, "runs": results}, f, indent=1)
        with open(os.path.join(args.out, "report.md"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
