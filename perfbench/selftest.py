"""Self-tests of the benchmark's own checks, run from the repository root:

    python3 perfbench/selftest.py

1. The reference oracle is not vacuous: with ``vec_k`` and ``vec_by_index``
   both made to return the same rotated vector, so the two routes still
   agree with each other, every case of every workload must fail.  An
   unpatched run of the same cases must not fail.
2. Tracing leaves veckit as it found it: after a traced run every
   attribute of every veckit module is the same object as before; while
   tracing, only attributes naming a function of ``spans.TRACED`` were
   wrapped, so no per-element helper such as ``linear_index`` was; and two
   traced runs with the same seed give identical ``calls`` and
   ``elements`` counts.
3. The gauge leaves a change to veckit in the scaled times: with every
   veckit call of the ``corpus`` pipeline made to run twice, in blocks
   that alternate with unchanged ones, throughput must fall to about half
   both raw and scaled by :mod:`gauge`.

Exit status 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

import run
import spans
from gauge import Gauge

SEED = 11
CASES = {"bulk": 4, "corpus": 60, "cli": 6}


def _rotated(core, fn):
    def wrong(*args, **kwargs):
        v = fn(*args, **kwargs)
        data = [v.get((i,)) for i in range(v.size)]
        return core.make_tensor(v.shape, data[1:] + data[:1])

    return wrong


def _failures(wl, indices):
    # cases are made afresh, since a cli case rewrites the shared input file
    return sum(not run.run_case(wl, wl.case(i))[1] for i in indices)


def oracle_catches_permutation(name, workdir):
    _, wl, warm_ok = run.setup_once(name, SEED, workdir)
    vk = wl.vk
    # a rotation cannot change a one-element vector
    indices = [i for i in range(10 * CASES[name]) if wl.case(i).size > 1][:CASES[name]]
    clean_failed = _failures(wl, indices)
    saved = vk.vecops.vec_k, vk.indexmap.vec_by_index
    vk.vecops.vec_k = _rotated(vk.core, saved[0])
    vk.indexmap.vec_by_index = _rotated(vk.core, saved[1])
    try:
        bad_failed = _failures(wl, indices)
    finally:
        vk.vecops.vec_k, vk.indexmap.vec_by_index = saved
        wl.close()
    ok = warm_ok and clean_failed == 0 and bad_failed == len(indices)
    return ok, f"{len(indices)} cases: {clean_failed} failed clean, {bad_failed} failed permuted"


def _attributes(vk):
    owners = [*vk.modules.values(), vk.package]
    return [(owner, name, value) for owner in owners for name, value in vars(owner).items()]


def _counts(tracer):
    per_label, _ = spans.summarize(tracer.spans)
    return {label: (row["calls"], row["elements"]) for label, row in per_label.items()}


def tracing_restores_and_repeats(name, workdir):
    traced_attrs = {attr for _, _, attr, _ in spans.TRACED}
    counts = []
    problems = []
    for _ in range(2):
        _, wl, _ = run.setup_once(name, SEED, workdir)
        before = _attributes(wl.vk)
        tracer = spans.Tracer(wl.vk.modules, wl.vk.package)
        with tracer:
            wrapped = {attr for owner, attr, value in before if getattr(owner, attr) is not value}
        if not wrapped or not wrapped <= traced_attrs:
            problems.append(f"wrapped {sorted(wrapped - traced_attrs) or 'nothing'}")
        tracer, _, _, failed, _ = run.trace_cases(wl, CASES[name])
        wl.close()
        changed = [f"{owner.__name__}.{attr}" for owner, attr, value in before
                   if getattr(owner, attr) is not value]
        if changed or failed:
            problems.append(f"not restored: {changed[:3]}; {failed} cases failed")
        counts.append(_counts(tracer))
    if counts[0] != counts[1]:
        problems.append("calls/elements differ between two runs of one seed")
    if not any(calls for calls, _ in counts[0].values()):
        problems.append("no spans recorded")
    return not problems, "; ".join(problems) or "attributes restored, counts repeat"


class _Twice:
    """A veckit module whose functions each run twice: exactly 2x the work."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        fn = getattr(self._module, name)

        def twice(*args, **kwargs):
            fn(*args, **kwargs)
            return fn(*args, **kwargs)

        return twice


# blocks per mode, and the case time of each block
GAUGE_BLOCKS, GAUGE_BLOCK_S = 4, 1.5


def gauge_keeps_slowdown(name, workdir):
    _, wl, warm_ok = run.setup_once(name, SEED, workdir)
    plain = wl.vk
    slow = run.Vk({m: _Twice(mod) for m, mod in plain.modules.items()}, plain.package)
    gauge = Gauge()
    samples = {False: [], True: []}  # slowed -> [(end, seconds, elements)]
    failed = 0
    i = 0
    for _ in range(GAUGE_BLOCKS):
        for slowed in (False, True):
            busy = 0.0
            while busy < GAUGE_BLOCK_S:
                case = wl.case(i)
                i += 1
                wl.vk = slow if slowed else plain
                try:
                    elapsed, ok = run.run_case(wl, case)
                finally:
                    wl.vk = plain
                samples[slowed].append((perf_counter(), elapsed, case.size))
                failed += not ok
                busy += elapsed
                gauge.sample(run.GAUGE_GAP_S)
    wl.close()
    gauge.sample()

    def throughput(slowed, scale):
        rows = samples[slowed]
        return sum(n for *_, n in rows) / sum(s * scale(end) for end, s, _ in rows)

    raw = throughput(True, lambda end: 1.0) / throughput(False, lambda end: 1.0)
    scaled = throughput(True, gauge.factor) / throughput(False, gauge.factor)
    ok = warm_ok and not failed and all(0.4 < r < 0.6 for r in (raw, scaled))
    return ok, (f"{i} cases, {failed} failed; elements_per_s with every call twice, "
                f"over unchanged: raw {raw:.3f}, scaled {scaled:.3f} (expected 0.5)")


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "veckit", "__init__.py")):
        print(f"error: no veckit sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.RUN_DIR, exist_ok=True)
    workdir = os.path.join(run.RUN_DIR, f"selftest-{os.getpid()}")
    all_ok = True
    tests = [(test, name) for test in (oracle_catches_permutation, tracing_restores_and_repeats)
             for name in CASES] + [(gauge_keeps_slowdown, "corpus")]
    for test, name in tests:
        ok, detail = test(name, workdir)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {test.__name__}[{name}]: {detail}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
