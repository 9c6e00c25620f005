"""Repository benchmark for veckit: one workload per run, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

veckit is imported from ``src/`` of the checkout this file sits in and runs
single-threaded in this process.  The workload's inputs come from
``--seed`` alone.  With ``--trace 0`` the run times cases until
``--seconds`` of case time have passed and at least ``MIN_CASES`` cases
are done, checking every output outside the timing, and sets up
``SETUP_REPEATS`` times, once before the cases and then spread among
them; it
reports the end-to-end metrics, with times scaled to a reference machine
speed by :mod:`gauge` (raw times go to standard error).  With ``--trace 1`` it runs a fixed list
of cases twice each, untraced and traced, and reports the per-layer
metrics of :mod:`spans`.  Either way the last line of standard output is
one JSON object; a human-readable summary goes to standard error and the
workload's input properties to ``perfbench/_run/``.

Exit status 2, with no result printed, when ``src/veckit`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")

import spans  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402

SETUP_REPEATS = 15
# p90 needs at least 10 samples beyond it
MIN_CASES = 100
# the timed loop stops here even short of MIN_CASES, so a run ends in time
LOOP_CAP_S = 110.0
TRACE_CASES = {"bulk": 12, "corpus": 500, "cli": 30}
# gauge samples between cases are at least this far apart
GAUGE_GAP_S = 0.04


def import_veckit():
    """Import veckit afresh from ``src/``; returns ``(modules, package)``."""
    for name in [m for m in sys.modules if m == "veckit" or m.startswith("veckit.")]:
        del sys.modules[name]
    package = importlib.import_module("veckit")
    modules = {m: importlib.import_module(f"veckit.{m}") for m in spans.MODULES}
    return modules, package


class Vk:
    """The imported veckit modules, as attributes."""

    def __init__(self, modules, package):
        self.__dict__.update(modules)
        self.modules = modules
        self.package = package


def setup_once(name, seed, workdir):
    """Import, make the inputs and run one warm-up case.

    Returns ``(seconds, workload, warm_up_ok)``; the warm-up's check is
    not timed.
    """
    start = perf_counter()
    vk = Vk(*import_veckit())
    wl = workloads.WORKLOADS[name](vk, seed, workdir)
    prepared = perf_counter() - start
    warm_s, ok = run_case(wl, wl.warmup())
    return prepared + warm_s, wl, ok


def run_case(wl, case):
    """Time one case, then check it; returns ``(seconds, ok)``."""
    start = perf_counter()
    try:
        out = wl.run(case)
    except Exception:  # a raising call is a failed case; the run goes on
        return perf_counter() - start, False
    elapsed = perf_counter() - start
    try:
        return elapsed, bool(wl.check(case, out))
    except Exception:  # malformed output counts as a failed case
        return elapsed, False


class Properties:
    """Input properties of the cases a run took, for later claims to cite."""

    def __init__(self):
        self.shapes = []
        self.sizes = []
        self.column_major = 0
        self.rank2 = 0
        self.kron = 0

    def add(self, case):
        self.shapes.append(case.dims)
        self.sizes.append(case.size)
        self.column_major += case.column_major
        if len(case.dims) == 2:
            self.rank2 += 1
            self.kron += case.kron

    def report(self):
        n = len(self.shapes)
        ranks = {}
        for dims in self.shapes:
            ranks[len(dims)] = ranks.get(len(dims), 0) + 1
        q = statistics.quantiles(self.sizes, n=4) if n > 1 else [self.sizes[0]] * 3
        return {
            "cases": n,
            "distinct_shapes": len(set(self.shapes)),
            "shape_repeat_share": (n - len(set(self.shapes))) / n,
            "elements_quartiles": q,
            "elements_total": sum(self.sizes),
            "rank_share": {str(r): c / n for r, c in sorted(ranks.items())},
            "column_major_share": self.column_major / n,
            "row_major_share": 1 - self.column_major / n,
            "rank2_kron_share": self.kron / self.rank2 if self.rank2 else 0.0,
        }


def measure(name, seed, seconds, workdir):
    gauge = Gauge()
    setups = []

    def set_up():
        gc.collect()
        gauge.sample()
        elapsed, wl, ok = setup_once(name, seed, workdir)
        setups.append((perf_counter(), elapsed))
        gauge.sample()
        return wl, ok

    wl, warm_ok = set_up()
    props = Properties()
    cases = []  # (end, seconds, elements, passed)
    busy = 0.0
    loop_start = perf_counter()
    while busy < seconds or len(cases) < MIN_CASES:
        if perf_counter() - loop_start > LOOP_CAP_S:
            break
        # the other set-ups are spread over the loop, so their median, like
        # the cases', is taken over the machine conditions of the whole run;
        # their workloads are dropped unclosed, as they share the workdir
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            warm_ok = set_up()[1] and warm_ok
            gc.collect()
        case = wl.case(len(cases))
        props.add(case)
        elapsed, ok = run_case(wl, case)
        cases.append((perf_counter(), elapsed, case.size, ok))
        busy += elapsed
        gauge.sample(GAUGE_GAP_S)
    loop_wall = perf_counter() - loop_start
    wl.close()
    gauge.sample()

    attempted = len(cases)
    failed = sum(not ok for *_, ok in cases)

    def scaled(samples):
        return [s * gauge.factor(end) for end, s in samples]

    raw = [s for _, s, _, _ in cases]
    adjusted = scaled((end, s) for end, s, _, _ in cases)
    elements = sum(n for _, _, n, ok in cases if ok)
    # latencies of the cases that passed; only when none did, of all cases
    keep = [ok for *_, ok in cases] if failed < attempted else [True] * attempted

    def percentiles(times):
        times = [t for t, k in zip(times, keep) if k]
        p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
        return statistics.median(times), p90, sum(t > p90 for t in times)

    p50, p90, beyond = percentiles(adjusted)
    raw_p50, raw_p90, _ = percentiles(raw)
    metrics = {
        "setup_s": (statistics.median(scaled(setups)), "s"),
        "elements_per_s": (elements / sum(adjusted), "1/s"),
        "case_p50_ms": (p50 * 1e3, "ms"),
        "case_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "failed_ratio": (failed / attempted, "ratio"),
        "samples_beyond_p90": (beyond, "count"),
        "raw_setup_s": (statistics.median(s for _, s in setups), "s"),
        "raw_elements_per_s": (elements / busy, "1/s"),
        "raw_case_p50_ms": (raw_p50 * 1e3, "ms"),
        "raw_case_p90_ms": (raw_p90 * 1e3, "ms"),
        "gauge_median_ms": (gauge.median() * 1e3, "ms"),
        "busy_s": (busy, "s"),
        "loop_wall_s": (loop_wall, "s"),
    }
    return warm_ok and failed == 0, attempted, failed, metrics, summary, props


def trace_cases(wl, count):
    """Run cases ``0 .. count-1`` untraced, then traced, one after the other.

    Returns ``(tracer, untraced_s, traced_s, failed, properties)``.
    """
    props = Properties()
    tracer = spans.Tracer(wl.vk.modules, wl.vk.package)
    plain = with_trace = 0.0
    failed = 0
    for i in range(count):
        case = wl.case(i)
        props.add(case)
        elapsed, ok = run_case(wl, case)
        plain += elapsed
        failed += not ok
        with tracer:
            elapsed, ok = run_case(wl, case)
        with_trace += elapsed
        failed += not ok
    return tracer, plain, with_trace, failed, props


def traced(name, seed, workdir):
    _, wl, warm_ok = setup_once(name, seed, workdir)
    tracer, plain, with_trace, failed, props = trace_cases(wl, TRACE_CASES[name])
    wl.close()

    per_label, touch = spans.summarize(tracer.spans)
    metrics = {}
    module_self = dict.fromkeys(spans.MODULES, 0.0)
    for label, row in per_label.items():
        metrics[f"{label}.calls"] = (row["calls"], "count")
        metrics[f"{label}.elements"] = (row["elements"], "count")
        metrics[f"{label}.self_s"] = (row["self_s"], "s")
        module_self[label.split(".")[0]] += row["self_s"]
    for module, total in module_self.items():
        metrics[f"{module}.self_s"] = (total, "s")
    for label in ("tensorfile.read_tensor", "tensorfile.write_tensor"):
        metrics[f"{label}.bytes"] = (per_label[label]["bytes"], "B")
    metrics["blocking.touch_per_el"] = (touch, "ratio")
    metrics["trace.overhead_ratio"] = (with_trace / plain, "ratio")
    attempted = 2 * TRACE_CASES[name]
    summary = {"untraced_s": (plain, "s"), "traced_s": (with_trace, "s")}
    return warm_ok and failed == 0, attempted, failed, metrics, summary, props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "veckit", "__init__.py")):
        print(f"error: no veckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    if args.trace:
        result = traced(args.workload, args.seed, workdir)
    else:
        result = measure(args.workload, args.seed, args.seconds, workdir)
    correct, attempted, failed, metrics, summary, props = result

    report = props.report()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RUN_DIR, f"{tag}.properties.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(f"# {tag}: properties {json.dumps(report)}", file=sys.stderr)
    for key, (value, unit) in {**metrics, **summary}.items():
        print(f"# {key} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
