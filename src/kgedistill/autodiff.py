"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors, their gradients and every op here are 64-bit, so finite-difference
gradient checks guard them tightly. The one single-precision computation
that feeds a result is the fused score head
(:func:`kgedistill.models.score_bce`), which runs its products and its BCE
kernel in float32 and hands float64 gradients on; parameters, Adam and
distillation stay float64. Ranking (:func:`kgedistill.evaluation.rank_split`)
scores in float32 only to filter: every rank rests on a float64 comparison.

The generic ops are ``add``, ``mul``, ``matmul``, ``transpose`` and
``gather_rows``; every other differentiable step is one :func:`node` with
hand-written VJPs, built in the module that uses it.

Ops build a computation graph while gradients are enabled; :func:`backward`
walks the graph in reverse topological order and adds to the gradient of
every reachable leaf. A leaf's gradient is only its pending terms, in the
order they arrived, each one of three kinds: a rank-1 pair of vectors
(:func:`add_outer`), a scaled block (:func:`add_scaled`) or a row scatter
(:func:`add_rows`). A VJP either returns its contribution, which backward
records on a leaf parent as a block at scale 1, or records it on its leaf
parent itself and returns ``None``; the ops that do the latter (the row
lookup, the score head's entity side, the semantic extraction block)
refuse a parent that is not a leaf. The one way out is :func:`take_grad`,
which hands the terms to one reader (the optimizer), assembled one slice
of rows at a time in scratch, so no gradient is written out at full size.
Only this module touches a tensor's gradient storage. Under
:func:`no_grad` the same ops return plain constants, so inference and
detached teacher extraction carry no graph.

Which results depend on the BLAS thread count:

- ``matmul``, and the products inside the nodes built on :func:`node`,
  run on BLAS with the thread count in force when they are called, so
  their bits may depend on the BLAS build and on that count. Called
  directly, they use the process's count, which the caller pins (for
  instance with ``OPENBLAS_NUM_THREADS`` set before numpy is imported).
- A training step (:meth:`kgedistill.training.Trainer.train_epoch`) runs
  every product with numpy's OpenBLAS held to one thread
  (:func:`_one_blas_thread`), and the fused score head
  (:func:`kgedistill.models.score_bce`) holds it there for direct callers
  too. So a training trajectory depends on the BLAS build but not on the
  thread count. Where that library's thread calls are not found, both run
  unpinned and depend on the thread count like a direct product.
- What runs on the worker pool (:func:`_run_blocks`) gives the same bits
  for any worker count: the score head's blocks, ranking's query blocks
  (each one's query vectors, filter lookup and pass over the entity
  columns), the elementwise row passes (:func:`row_slices`): summing a
  gradient's pending terms, and Adam, and a large trainer's seeded
  init (:class:`kgedistill.training.Trainer`): the model's and the
  distillation block's streams at once, each drawn whole, in order, by one
  worker. The elementwise kernels (the BCE kernel, Adam) and the draws call
  no BLAS, so the thread count does not enter them either.
- Filtered ranks (:func:`kgedistill.evaluation.rank_split`) do not depend
  on the thread count. Each query block's vectors are formed on the pool
  with numpy's OpenBLAS held to one thread, in the same blocks whatever the
  worker count; the float32 scores only decide what is certain within
  their error bound, and the float64 scores that decide the rest call no
  BLAS.

A row scatter adds with ``np.add.at`` (sequential, in index order), so the
rows of a repeated id are added one after the other rather than summed
first. Every term is added elementwise, in the order the terms arrived,
whichever slice it lands in, so a gradient has the same bits however its
rows are sliced. With the BLAS build and thread count fixed, two runs over
the same inputs produce bit-identical outputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from .errors import ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block.

    The flag is process-global, not per thread: pool work that must not
    record (ranking's query vectors) runs inside a block entered on the
    calling thread around the :func:`_run_blocks` call, and no worker
    enters or leaves one, since a worker's exit would switch recording
    back on for every thread.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    return _grad_enabled


# Blocked loops (the score head's blocks, ranking's query blocks, the row
# slices below) hand each of ``_WORKERS`` workers, one per usable core, one
# contiguous range of whole blocks; numpy releases the GIL inside its ufuncs
# and BLAS calls, so the ranges run on separate cores. The calling thread
# is the first worker and the pool's threads the others: the pool starts on
# first use, with one thread fewer than there are workers. A loop with
# fewer than ``min_per_worker`` blocks per worker runs whole on the
# calling thread.
_WORKERS = len(os.sched_getaffinity(0))
_MIN_BLOCKS_PER_WORKER = 4
_pool: ThreadPoolExecutor | None = None


def _run_blocks(n_blocks: int, work, min_per_worker: int = _MIN_BLOCKS_PER_WORKER) -> None:
    """Call ``work(first, stop)`` on contiguous ranges covering ``range(n_blocks)``.

    Each worker gets one range, the calling thread the first; the ranges
    depend on the worker count, so ``work`` must give the same result
    however its blocks are grouped. Once every range has ended, the first
    error raised, in range order, is raised here.
    """
    global _pool
    workers = min(_WORKERS, n_blocks // min_per_worker)
    if workers <= 1:
        work(0, n_blocks)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="kgedistill")
    cuts = [n_blocks * i // workers for i in range(workers + 1)]
    futures = [_pool.submit(work, lo, hi) for lo, hi in zip(cuts[1:], cuts[2:])]
    try:
        work(cuts[0], cuts[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


# Elementwise passes over an array's rows take slices of whole rows spanning
# about this many elements: any slicing gives the same bits, and larger slices
# mean fewer ufunc calls per pass.
_SLICE_ELEMENTS = 1 << 16


def row_slices(shape: tuple, work, n_scratch: int = 0) -> None:
    """Call ``work(lo, hi, scratch)`` on the worker pool for slices
    ``lo:hi`` of whole rows, about ``_SLICE_ELEMENTS`` elements each, that
    cover the rows of an array shaped ``shape``.

    ``scratch`` is ``n_scratch`` buffers shaped like the slice, allocated
    once per worker rather than once per slice. Which worker runs a slice
    depends on the worker count; the slices themselves do not.
    """
    n_rows, width = shape
    per_slice = max(1, _SLICE_ELEMENTS // max(width, 1))

    def run(first: int, stop: int) -> None:
        scratch = np.empty((n_scratch, min(per_slice, n_rows), width))
        for lo in range(first * per_slice, min(stop * per_slice, n_rows), per_slice):
            hi = min(lo + per_slice, n_rows)
            work(lo, hi, scratch[:, : hi - lo])

    _run_blocks(-(-n_rows // per_slice), run)


# (get, set) thread-count calls of numpy's bundled OpenBLAS, looked up on
# first use; empty when the library or its symbols are not found.
_openblas_threads: tuple | None = None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore it.

    Inside, each BLAS call runs on the thread that makes it, so the pool's
    workers neither wait for nor spin up BLAS helper threads, and no helper
    left spinning after a product takes a core from them. Where numpy's
    OpenBLAS is not found, the block runs unpinned.
    """
    global _openblas_threads
    if _openblas_threads is None:
        _openblas_threads = ()
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
            put = getattr(handle, "scipy_openblas_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                _openblas_threads = (get, put)
                break
    if not _openblas_threads:
        yield
        return
    get, put = _openblas_threads
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zeroed array on a mapping of its own, whose pages take memory only
    once written (``np.zeros`` clears, so touches, a reused heap block) and
    go back to the system when the last view of the array is dropped."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(dtype.itemsize * count, 1), mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, dtype, count).reshape(shape)


class Tensor:
    """A graph node holding a row-major float64 array.

    A leaf created with ``requires_grad=True`` (usually a
    :class:`Parameter`) holds its gradient as pending terms, recorded
    instead of written out: rank-1 pairs (:func:`add_outer`), scaled blocks
    (:func:`add_scaled`) and row scatters (:func:`add_rows`). No gradient
    array exists: :func:`take_grad` sums the terms a slice of rows at a
    time and drops them. Interior nodes only carry transient gradients,
    inside :func:`backward`.
    """

    __slots__ = ("data", "_pending", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._pending: tuple = ()
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjps: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # Operator sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))


class Parameter(Tensor):
    """A trainable leaf tensor. Its gradient is the pending terms recorded
    on it, none until a backward pass and none again once taken."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def as_rows(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` viewed as rows along its first axis; writes through the view
    reach ``a`` itself, so ``a`` (called ``name`` in the error) must be
    C-contiguous."""
    if not a.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous to be viewed as rows")
    return a.reshape(a.shape[0] if a.ndim else 1, math.prod(a.shape[1:]))


def take_grad(t: Tensor, work, n_scratch: int) -> None:
    """Hand a leaf's gradient to one reader, a slice of rows at a time, and
    leave it with no terms, zero, for the next :func:`backward`.

    For each slice of :func:`row_slices` over the gradient viewed as rows,
    ``work(lo, hi, g, scratch)`` gets those rows ``g``, read-only, and
    ``n_scratch`` (at least one) buffers shaped like them. ``g`` is scratch
    holding the pending terms' sum over those rows, assembled in cache just
    before ``work`` consumes it: the first term written in and the others
    added, or zeros when there are no terms. That has the bits of adding
    the terms onto zeros in arrival order, except that a pair's product
    written in first keeps the sign of a zero where adding it onto +0.0
    would give +0.0. A pair's product is formed in the first buffer.
    """
    pending, t._pending = t._pending, ()

    def run(lo: int, hi: int, scratch: np.ndarray) -> None:
        g = scratch[-1]
        for i, term in enumerate(pending):
            term(g, lo, hi, scratch[0], i == 0)
        if not pending:
            g.fill(0.0)
        work(lo, hi, g, scratch[:-1])

    row_slices(as_rows(t.data, "a tensor").shape, run, n_scratch + 1)


# Pending terms. Each is called as ``term(g, lo, hi, tmp, write)`` to add its
# rows ``lo:hi`` into ``g`` (to write them in, onto nothing, when ``write``)
# with ``tmp`` a scratch buffer shaped like ``g``, and is called once for
# each slice of rows. Its arrays are held until the gradient is taken; only a
# term of :func:`add_scaled` at a scale other than 1 writes to them.

def add_outer(leaf: Tensor, x: np.ndarray, y: np.ndarray) -> None:
    """Add ``outer(x, y)`` into a leaf's gradient as a pending pair
    (:class:`Tensor`), from a VJP; ``x`` and ``y`` must not change until the
    gradient is taken."""

    def term(g, lo, hi, tmp, write) -> None:
        if write:
            np.multiply.outer(x[lo:hi], y, out=g)
        else:
            g += np.multiply.outer(x[lo:hi], y, out=tmp)

    leaf._pending += (term,)


def add_scaled(leaf: Tensor, block: np.ndarray, scale: float) -> None:
    """Add ``scale * block`` into a leaf's gradient as a pending term, from a
    VJP. ``block`` is a C-contiguous array shaped like the gradient, held
    until the gradient is taken. At scale 1 it is added as it is and
    never changed, so it may be handed to other readers too. At any
    other scale the leaf owns it: each slice is scaled in place, in the
    block's precision, and added in float64. That is the bits of scaling
    the whole block first and adding it after."""
    rows = as_rows(block, "a scaled block")

    def term(g, lo, hi, tmp, write) -> None:
        b = rows[lo:hi]
        if scale != 1.0:
            b *= scale
        if write:  # b + 0.0 is b with -0.0 made +0.0: the bits of adding b onto zeros
            np.add(b, 0.0, out=g)
        else:
            g += b

    leaf._pending += (term,)


def add_rows(leaf: Tensor, ids: np.ndarray, rows: np.ndarray) -> None:
    """Add ``rows[i]`` into row ``ids[i]`` of a leaf's gradient for each
    ``i`` in index order, as ``np.add.at`` does, as a pending row scatter,
    from a VJP. ``ids`` index the leaf's rows as numpy does (a negative id
    counts from the end); ``rows`` holds one gradient row per id.

    The ids are sorted here, stably, and the rows copied in that order, so
    each slice finds its ids by bisection and adds the rows of a repeated
    id in their index order; the arguments may change once this returns.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1) % len(leaf.data)
    order = np.argsort(ids, kind="stable")
    ids, rows = ids[order], np.reshape(rows, (len(order), -1))[order]

    def term(g, lo, hi, tmp, write) -> None:
        if write:
            g.fill(0.0)
        first, stop = np.searchsorted(ids, (lo, hi))
        if first < stop:
            np.add.at(g, ids[first:stop] - lo, rows[first:stop])

    leaf._pending += (term,)


def node(data: np.ndarray, parents, vjps) -> Tensor:
    """Build an op's output, recording only the parents that need gradients
    and, for each, the vector-Jacobian product that maps the output's
    gradient to its contribution."""
    out = Tensor(data)
    if _grad_enabled:
        kept = [(p, v) for p, v in zip(parents, vjps) if p.requires_grad]
        if kept:
            out.requires_grad = True
            out._parents = tuple(p for p, _ in kept)
            out._vjps = tuple(v for _, v in kept)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra))) if extra else grad


# ---------------------------------------------------------------------------
# Elementwise ops: an operand may broadcast by gaining leading axes, not by
# stretching a size-1 axis
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return node(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return node(
        a.data * b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return node(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a rank-2 tensor, got shape {a.shape}")
    return node(a.data.T, (a,), (lambda g: g.T,))


# ---------------------------------------------------------------------------
# Indexing
# ---------------------------------------------------------------------------

def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` in a leaf table; the gradient is recorded
    on the table as a pending row scatter (:func:`add_rows`)."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a rank-2 table, got shape {table.shape}")
    if table._parents:
        raise ShapeError("gather_rows looks rows up in a leaf table, not in an op's output")

    def vjp(g):
        add_rows(table, ids, g)

    return node(table.data[ids], (table,), (vjp,))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) to every reachable leaf's gradient.

    ``loss`` must be a scalar. Gradients add onto the terms the leaf
    already holds until :func:`take_grad` takes them, which the trainer's
    Adam step does for each parameter, leaving it with no terms. A VJP
    that returns ``None`` has recorded pending terms on its leaf parent
    (:func:`add_outer`, :func:`add_scaled`, :func:`add_rows`). A returned
    contribution is summed out of place for an interior node and recorded
    on a leaf as a block at scale 1 (:func:`add_scaled`), copied first only
    if it is not C-contiguous (a transpose's is not). A leaf's terms are
    summed in arrival order, so on a gradient with no terms the result has
    the same bits as summing every contribution first, except where a
    looked-up row repeats after the leaf already holds a contribution:
    those rows are added one at a time.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    # Iterative post-order DFS; recursion would overflow on long chains.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for parent in t._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for t in reversed(topo):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        for parent, vjp in zip(t._parents, t._vjps):
            contribution = vjp(g)
            if contribution is None:
                continue
            # Neither a leaf's term nor an interior sum changes the array: a
            # VJP may hand the same one to two parents (identity VJPs such as
            # add's do).
            if not parent._parents:
                add_scaled(parent, np.ascontiguousarray(contribution), 1.0)
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution
