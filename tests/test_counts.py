"""Structural counts of the block route: the one-gather floor as a ceiling.

Timings move with the machine; the work the block route does can be counted
exactly.  Every name through which the package resolves ``core.gather``,
``core.elements`` and ``core._unchecked_view`` is wrapped, and so are
``DenseTensor.__init__`` and ``Shape.__init__``.  Each op then runs on fixed
row- and column-major shapes, and its counts must not exceed the ceilings
below:

* gather calls, and the calls that copy (return something other than the
  storage they were given);
* elements copied by those gathers;
* tensors built, checked or not (each step's tensors skip ``__init__``);
* shapes built, five per shift: the grid, the block, the transposed grid,
  the concatenation and the relabel's, plus the target shapes an inverse
  coerces and ``reverse_dims``'s relabel;
* stride checks: tensors built through ``DenseTensor`` with strides other
  than their shape's own tuple, which it must prove tile the shape.  There
  are none: every step builds through ``core._unchecked_view``, since its
  grids, concatenations and relabels tile by construction (a permutation
  of tiling strides, or an extent-1 dim added or dropped);
* ``elements`` calls, which must be zero: the block route permutes
  storage through ``gather`` alone, and ``elements`` is the reader of the
  modules outside both routes (files, the Kronecker oracle, nested lists),
  so a call here would list a whole tensor the route never needs listed.

The ceilings are today's counts.  Lowering them is the aim of the
strided-grid work; a change that raises one says so.  Gathers are two per
shift, k - 1 shifts per op: one in ``block`` and one in ``unblock``, which
reads the canonical blocks ``block`` builds as they are;
``transpose_outer`` relabels the grid's strides and gathers nothing.
Tensors are still one per block, plus two per shift that hold the grid:
``block``'s and the transposed one.  The shapes are 16^3 and 4^6, 4,096
elements each, so the module runs in well under a second; 64^3 and 8^6, of
the same ranks, take several seconds and also make 4 and 10 gather calls
per op, with the same copying counts.

No copy happens outside a gather.  ``block`` hands out its blocks as views
of its one gather's tuple, at offsets 0, n, 2n, ...; ``unblock`` takes that
tuple as the blocks' concatenation, since they are listed in grid storage
order, and never visits a later block.  Only ``block`` and
``transpose_outer`` make grids, so no grid is concatenated block by block.
So a shift of a tensor stored in the order asked for copies nothing, and
storage sharing is counted too: such a flattening, and every inverse of a
vector, returns its input's own storage object.

Memory is counted as tracemalloc's peak over one op, against ceilings per
block, per dim and per copied element.  Each block of the op's largest grid holds its view,
its offset and its slots in the list and the grid tuple that hold it; a
copying op also holds its output tuple; and the op's shapes, strides and
grid records are a few hundred bytes per dim.  The peaks are the same on
Python 3.11-3.13 and up to 4 KiB lower on 3.10.
"""

import sys
import tracemalloc
from collections import Counter

import pytest

from veckit import core, vecops
from veckit.core import StorageOrder

ROW = StorageOrder.LAST_INDEX_FASTEST
COLUMN = StorageOrder.FIRST_INDEX_FASTEST
SIZE = 4096

# (shape, op) -> (gather calls, tensors built); both storage orders.
# Gathers are 2 * (k - 1): 4 at rank 3, 10 at rank 6
GATHERS_AND_TENSORS = {
    ((16, 16, 16), "vec_k"): (4, 280),
    ((16, 16, 16), "rvec_k"): (4, 281),
    ((16, 16, 16), "vec_inverse"): (4, 280),
    ((16, 16, 16), "rvec_inverse"): (4, 281),
    ((4,) * 6, "vec_k"): (10, 1384),
    ((4,) * 6, "rvec_k"): (10, 1385),
    ((4,) * 6, "vec_inverse"): (10, 1384),
    ((4,) * 6, "rvec_inverse"): (10, 1385),
}

# (shape, op) -> shapes built; both storage orders
SHAPES = {
    ((16, 16, 16), "vec_k"): 10,
    ((16, 16, 16), "rvec_k"): 11,
    ((16, 16, 16), "vec_inverse"): 11,
    ((16, 16, 16), "rvec_inverse"): 13,
    ((4,) * 6, "vec_k"): 25,
    ((4,) * 6, "rvec_k"): 26,
    ((4,) * 6, "vec_inverse"): 26,
    ((4,) * 6, "rvec_inverse"): 28,
}


# the one gather that copies, of the whole tensor once: the flattening whose
# index order differs from the storage order; every other op copies nothing
COPYING = {(ROW, "vec_k"), (COLUMN, "rvec_k")}


@pytest.fixture
def tally(monkeypatch):
    counts = Counter()
    gather, elements, init = core.gather, core.elements, core.DenseTensor.__init__
    view, shape_init = core._unchecked_view, core.Shape.__init__

    def counted_gather(data, dims, strides, offset):
        out = gather(data, dims, strides, offset)
        counts["gathers"] += 1
        if out is not data:
            counts["copying"] += 1
            counts["copied"] += len(out)
        return out

    def counted_elements(*args, **kwargs):
        counts["elements"] += 1
        return elements(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["tensors"] += 1
        init(self, *args, **kwargs)
        # the stored tuple is the one given, so this is the identity test
        # that decides whether __init__ checked the strides
        if self.strides is not self.shape._strides:
            counts["stride checks"] += 1

    def counted_shape(self, *args, **kwargs):
        counts["shapes"] += 1
        shape_init(self, *args, **kwargs)

    def counted_view(*args):
        counts["tensors"] += 1
        return view(*args)

    wrappers = {
        gather: counted_gather,
        elements: counted_elements,
        view: counted_view,
    }
    for name, module in list(sys.modules.items()):
        if name == "veckit" or name.startswith("veckit."):
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers.items():
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(core.DenseTensor, "__init__", counted_init)
    monkeypatch.setattr(core.Shape, "__init__", counted_shape)
    return counts


def _inputs(dims, order):
    """The op's argument for each op: the tensor, or its flattening."""
    t = core.make_tensor(dims, range(SIZE), order)
    return {
        "vec_k": (vecops.vec_k, t),
        "rvec_k": (vecops.rvec_k, t),
        "vec_inverse": (lambda a: vecops.vec_inverse(a, dims), vecops.vec_k(t)),
        "rvec_inverse": (lambda a: vecops.rvec_inverse(a, dims), vecops.rvec_k(t)),
    }


@pytest.mark.parametrize("order", [ROW, COLUMN], ids=["row", "column"])
@pytest.mark.parametrize(
    "dims, op",
    GATHERS_AND_TENSORS,
    ids=[f"{'x'.join(map(str, dims))}-{op}" for dims, op in GATHERS_AND_TENSORS],
)
def test_block_route_counts_stay_under_the_ceilings(tally, dims, op, order):
    fn, arg = _inputs(dims, order)[op]
    tally.clear()
    fn(arg)
    gathers, tensors = GATHERS_AND_TENSORS[dims, op]
    copying = 1 if (order, op) in COPYING else 0
    assert tally["elements"] == 0
    assert tally["gathers"] <= gathers
    assert tally["copying"] <= copying
    assert tally["copied"] <= copying * SIZE
    assert tally["tensors"] <= tensors
    assert tally["shapes"] <= SHAPES[dims, op]
    assert tally["stride checks"] == 0
    # the wrappers are in place: the route cannot run without a gather, a
    # tensor or a shape; the hand-built witness below shows that the stride
    # counter sees a check
    assert tally["gathers"] > 0 and tally["tensors"] > 0 and tally["shapes"] > 0


def test_a_strided_tensor_built_by_hand_counts_one_stride_check(tally):
    # the witness that the stride counter sees DenseTensor's check at all
    tally.clear()
    core.DenseTensor(core.Shape((2, 3)), range(6), (3, 1))
    assert (tally["stride checks"], tally["tensors"], tally["shapes"]) == (1, 1, 1)


# the flattenings whose index order is the storage order
SHARING = {(COLUMN, "vec_k"), (ROW, "rvec_k")}


@pytest.mark.parametrize("order", [ROW, COLUMN], ids=["row", "column"])
@pytest.mark.parametrize(
    "dims, op",
    GATHERS_AND_TENSORS,
    ids=[f"{'x'.join(map(str, dims))}-{op}" for dims, op in GATHERS_AND_TENSORS],
)
def test_in_order_ops_return_their_input_storage(dims, op, order):
    fn, arg = _inputs(dims, order)[op]
    shares = op.endswith("inverse") or (order, op) in SHARING
    assert (fn(arg).data is arg.data) == shares


# tracemalloc peak of one op, in bytes: per block of the op's largest grid,
# per dim for the op's records, and per element of a copying op's output
BYTES_PER_BLOCK = 112
BYTES_PER_DIM = 256
BYTES_PER_COPIED_ELEMENT = 8


def _largest_grid(dims, op):
    """Blocks in the op's largest grid: its last shift, or its inverse's
    first, cuts the flattening into one block per index of every dim but
    the fastest one (the first, or for ``rvec`` the last)."""
    return SIZE // (dims[-1] if op.startswith("rvec") else dims[0])


def _peak_bytes(fn, arg):
    """tracemalloc's peak over one call of ``fn(arg)``, after a warm-up."""
    fn(arg)
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", [ROW, COLUMN], ids=["row", "column"])
@pytest.mark.parametrize(
    "dims, op",
    GATHERS_AND_TENSORS,
    ids=[f"{'x'.join(map(str, dims))}-{op}" for dims, op in GATHERS_AND_TENSORS],
)
def test_block_route_allocations_stay_under_the_ceilings(dims, op, order):
    fn, arg = _inputs(dims, order)[op]
    copying = 1 if (order, op) in COPYING else 0
    ceiling = (
        BYTES_PER_BLOCK * _largest_grid(dims, op)
        + BYTES_PER_DIM * len(dims)
        + copying * BYTES_PER_COPIED_ELEMENT * SIZE
    )
    assert _peak_bytes(fn, arg) <= ceiling
