"""The benchmark's workloads: how each makes its cases, runs and checks them.

A case is one generated input taken through the workload's whole pipeline.
``case(i)`` derives case ``i`` from the seed alone, so the same seed gives
the same inputs; veckit only ever sees the generated tensors or files.
``run`` is the timed part.  ``check`` runs outside the timing and compares
every output with :mod:`oracle`, reading veckit results only through
``to_nested``.
"""

from __future__ import annotations

import io
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import oracle

VERIFY_PASSED = "all 8 checks passed"


class Input:
    """One generated tensor: its logical content and how it is stored."""

    __slots__ = ("dims", "rm", "column_major", "kron", "index", "tensor", "_expected")

    def __init__(self, dims, rm, column_major, kron, index=0):
        self.dims = tuple(dims)
        self.rm = rm
        self.column_major = column_major
        self.kron = kron
        self.index = index
        self.tensor = None
        self._expected = None

    @property
    def size(self):
        return len(self.rm)

    def expected(self):
        """``(vec, nested)`` reference, computed once per input."""
        if self._expected is None:
            self._expected = (
                oracle.vec_of(self.dims, self.rm),
                oracle.nested(self.dims, self.rm),
            )
        return self._expected


def _values(rng, n, quarters):
    # distinct values, so any misplaced element shows in the comparison
    picked = rng.sample(range(-4 * n, 4 * n), n)
    return [v / 4 for v in picked] if quarters else picked


def _make_input(rng, dims, column_major, kron=False, quarters=False, index=0):
    return Input(dims, _values(rng, math.prod(dims), quarters), column_major, kron, index)


def _slot(tag, i, n):
    """Slot of case ``i`` when each round of ``n`` cases takes every slot once.

    Each round's order is drawn from ``tag`` and the round number, so the
    mix of slots stays fixed however long a run is.
    """
    round_, pos = divmod(i, n)
    order = list(range(n))
    random.Random(f"{tag}:{round_}").shuffle(order)
    return order[pos]


def _attach_tensor(core, inp):
    if inp.column_major:
        data, order = oracle.vec_of(inp.dims, inp.rm), core.StorageOrder.FIRST_INDEX_FASTEST
    else:
        data, order = inp.rm, core.StorageOrder.LAST_INDEX_FASTEST
    inp.tensor = core.make_tensor(inp.dims, data, order)
    return inp


def _shape_near(rng, size, rank):
    """Random extents, none below 2, whose product is close to ``size``."""
    dims = []
    rest = size
    for left in range(rank, 1, -1):
        extent = max(2, round(rest ** (1 / left) * rng.uniform(0.8, 1.25)))
        dims.append(extent)
        rest /= extent
    dims.append(max(2, round(rest)))
    return tuple(dims)


class Library:
    """Shared pipeline of ``bulk`` and ``corpus``: both vec routes and inverses."""

    def __init__(self, vk, seed):
        self.vk = vk
        self.seed = seed

    def run(self, case):
        vk, t, dims = self.vk, case.tensor, case.dims
        v = vk.vecops.vec_k(t)
        w = vk.indexmap.vec_by_index(t)
        agree = vk.core.tensors_equal(v, w)
        back = vk.vecops.vec_inverse(v, dims)
        back_index = vk.indexmap.unvec_by_index(w, dims)
        r = vk.vecops.rvec_k(t)
        back_row = vk.vecops.rvec_inverse(r, dims)
        kron = vk.kron2d.kron_inverse_2d(v, *dims) if case.kron else None
        return agree, (v, w, r), (back, back_index, back_row, kron)

    def check(self, case, out):
        agree, vectors, rebuilt = out
        vec, nested = case.expected()
        n = (case.size,)
        want = [(n, vec), (n, vec), (n, case.rm)] + [(case.dims, nested)] * len(rebuilt)
        return agree is True and all(
            t is None or oracle.matches(self.vk.core, t, dims, expected)
            for t, (dims, expected) in zip(vectors + rebuilt, want)
        )

    def close(self):
        pass


class Bulk(Library):
    """Six shapes of 4k-8k elements, ranks 2-6, each repeated many times.

    Every shape is held in both storage orders.  Cases walk the pool in
    rounds, each round in a seeded order, so every shape sees the same mix
    of machine conditions and the shape shares stay fixed.
    """

    name = "bulk"
    SHAPES = ((64, 64), (128, 64), (16, 16, 16), (8, 8, 8, 8), (4, 4, 4, 8, 8), (4,) * 6)

    def __init__(self, vk, seed, workdir):
        super().__init__(vk, seed)
        rng = random.Random(f"bulk:{seed}")
        self.pool = [
            _attach_tensor(vk.core, _make_input(rng, dims, column_major))
            for dims in self.SHAPES
            for column_major in (False, True)
        ]

    def warmup(self):
        return self.pool[0]

    def case(self, i):
        return self.pool[_slot(f"bulk:{self.seed}", i, len(self.pool))]


class Corpus(Library):
    """Many small tensors of mostly distinct shapes: ranks 1-6, extents 1-6.

    At most 512 elements each; rank-2 cases up to 8x8 also take the
    closed-form Kronecker inverse.
    """

    name = "corpus"
    MAX_SIZE = 512
    # high ranks drawn more often: they have the most shapes, so most cases
    # get a shape not seen before in the run, while about one case in five
    # stays rank 2 and takes the Kronecker path
    RANKS, RANK_WEIGHTS = (1, 2, 3, 4, 5, 6), (1, 2, 2, 3, 3, 3)

    def __init__(self, vk, seed, workdir):
        super().__init__(vk, seed)
        self._warm = self._input(random.Random(f"corpus:{seed}:warmup"), (3, 4, 5))

    def _input(self, rng, dims):
        kron = len(dims) == 2 and max(dims) <= 8
        return _attach_tensor(self.vk.core, _make_input(rng, dims, rng.random() < 0.5, kron))

    def warmup(self):
        return self._warm

    def case(self, i):
        rng = random.Random(f"corpus:{self.seed}:{i}")
        while True:
            rank = rng.choices(self.RANKS, self.RANK_WEIGHTS)[0]
            dims = tuple(rng.randint(1, 6) for _ in range(rank))
            if math.prod(dims) <= self.MAX_SIZE:
                return self._input(rng, dims)


class Cli:
    """File to file through ``veckit.cli.main``, in process.

    One case in five is a matrix of at most 16x16, which also takes
    ``unvec --kron``.  The rest are tensors whose sizes lie evenly on the
    log scale from 1024 to 16384 elements.  Rank (2-4), storage order and
    integer versus quarter-valued data cycle through all twelve
    combinations every twelve cases.  Sizes and Kronecker cases follow
    low-discrepancy sequences (steps of irrational length around the unit
    interval).  This plan is the same for every seed; the seed draws the
    extents and the values.  Latency per element differs about 3x between
    the combinations, so with random draws the latency percentiles of a
    100-case run would move with the luck of the draw.
    """

    name = "cli"
    KRON_SHARE = 0.2
    # steps of the two sequences: the golden ratio and sqrt(2), modulo 1
    SIZE_STEP, KRON_STEP = (5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1

    def __init__(self, vk, seed, workdir):
        self.vk = vk
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.paths = {
            name: os.path.join(workdir, f"{name}.json")
            for name in ("in", "vec", "vec_index", "rvec", "unvec", "shift", "unshift", "kron")
        }
        self._warm = self._prepare(random.Random(f"cli:{seed}:warmup"), (32, 32), 0, False, False)

    def _prepare(self, rng, dims, index, column_major, quarters):
        kron = len(dims) == 2 and max(dims) <= 16
        inp = _make_input(rng, dims, column_major, kron, quarters, index)
        with open(self.paths["in"], "w", encoding="utf-8") as f:
            f.write(oracle.file_text(inp.dims, inp.rm, inp.column_major))
        return inp

    def warmup(self):
        return self._warm

    def case(self, i):
        rng = random.Random(f"cli:{self.seed}:{i}")
        cycle = i % 12
        if i * self.KRON_STEP % 1 < self.KRON_SHARE:
            dims = (rng.randint(8, 16), rng.randint(8, 16))
        else:
            scale = i * self.SIZE_STEP % 1
            dims = _shape_near(rng, 1024 * 16 ** scale, 2 + cycle % 3)
        return self._prepare(rng, dims, i, cycle // 3 % 2 == 1, cycle // 6 == 1)

    def run(self, case):
        p, main = self.paths, self.vk.cli.main
        shape = "x".join(map(str, case.dims))
        commands = [
            ["vec", p["in"], p["vec"]],
            ["vec", "--path", "index", p["in"], p["vec_index"]],
            ["vec", "--row", p["in"], p["rvec"]],
            ["unvec", p["vec"], p["unvec"], "--shape", shape],
            ["shift", p["in"], p["shift"]],
            ["shift", "--inverse", "--last-extent", str(case.dims[-1]), p["shift"], p["unshift"]],
        ]
        if case.kron:
            commands.append(["unvec", "--kron", p["vec"], p["kron"], "--shape", shape])
        commands.append(["verify", "--seed", str(case.index), "--cases", "4",
                         "--max-rank", "3", "--max-extent", "3"])
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv in commands]
        return codes, out.getvalue()

    def check(self, case, out):
        codes, stdout = out
        if any(codes) or stdout.splitlines()[-1:] != [VERIFY_PASSED]:
            return False
        p, dims, rm = self.paths, list(case.dims), case.rm
        vec, _ = case.expected()

        def read(name):
            with open(p[name], encoding="utf-8") as f:
                return f.read()

        text = read("vec")
        expected = [
            ("vec", ([len(rm)], vec)),
            ("rvec", ([len(rm)], rm)),
            ("unvec", (dims, rm)),
            ("shift", oracle.shift_of(dims, rm)),
            ("unshift", (dims, rm)),
        ]
        if case.kron:
            expected.append(("kron", (dims, rm)))
        return read("vec_index") == text and all(
            oracle.parse_file(read(name)) == want for name, want in expected
        )

    def close(self):
        for path in self.paths.values():
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (Bulk, Corpus, Cli)}
