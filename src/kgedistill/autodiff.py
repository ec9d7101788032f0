"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors, their gradients and every op here are 64-bit, so finite-difference
gradient checks guard them tightly. The one single-precision computation
that feeds a result is the fused score head
(:func:`kgedistill.models.score_bce`), which runs its products and its BCE
kernel in float32 and hands float64 gradients on; parameters, Adam and
distillation stay float64. Ranking (:func:`kgedistill.evaluation.rank_split`)
scores in float32 only to filter: every rank rests on a float64 comparison.

Ops build a computation graph while gradients are enabled; :func:`backward`
walks the graph in reverse topological order and accumulates into the
``grad`` of every reachable leaf. A VJP either returns its contribution or
adds it into its leaf parent's gradient itself and returns ``None``; the
ops that do the latter (the row lookup, a single-row product with a leaf
right operand, the score head's entity side) refuse a parent that is not a
leaf. The single-row product records its rank-1 contribution as a pending
pair of vectors on the leaf (:class:`Tensor`); reading ``grad`` adds the
pairs in, and an optimizer can take them as they are (:func:`take_grad`),
so such a gradient need never be written out at full size. Under
:func:`no_grad` the same ops return plain constants, so inference and
detached teacher extraction carry no graph.

Which results depend on the BLAS thread count:

- The products here (``matmul``, ``bmm``) run on BLAS with the thread count
  in force when they are called, so their bits may depend on the BLAS build
  and on that count. Called directly, they use the process's count, which
  the caller pins (for instance with ``OPENBLAS_NUM_THREADS`` set before
  numpy is imported).
- A training step (:meth:`kgedistill.training.Trainer.train_epoch`) runs
  every product with numpy's OpenBLAS held to one thread
  (:func:`_one_blas_thread`), and the fused score head
  (:func:`kgedistill.models.score_bce`) holds it there for direct callers
  too. So a training trajectory depends on the BLAS build but not on the
  thread count. Where that library's thread calls are not found, both run
  unpinned and depend on the thread count like a direct product.
- What runs on the worker pool (:func:`_run_blocks`) gives the same bits
  for any worker count: the score head's blocks, ranking's blocks of entity
  columns, and the elementwise row passes (:func:`row_slices`): adding
  pending pairs into a gradient, the score head's add into the entity
  table's gradient, and Adam. The elementwise kernels (the BCE kernel,
  Adam) call no BLAS, so the thread count does not enter them either.
- Filtered ranks (:func:`kgedistill.evaluation.rank_split`) do not depend
  on the thread count. The query vectors are formed with numpy's OpenBLAS
  held to one thread, the float32 scores, which run on the pool with
  OpenBLAS held to one thread, only decide what is certain within their
  error bound, and the float64 scores that decide the rest call no BLAS.

The row lookup's gradient scatter-adds with ``np.add.at`` (sequential, in
index order) straight into the table's ``grad``, so the rows of a
repeated id are added one after the other rather than summed first. With
the BLAS build and thread count fixed, two runs over the same inputs
produce bit-identical outputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    return _grad_enabled


# Blocked loops (the score head's blocks, ranking's column blocks, the row
# slices below) hand each worker thread one contiguous range of whole
# blocks; numpy releases the GIL inside its ufuncs and BLAS calls, so the
# ranges run on separate cores. The pool starts on first use, with one
# thread per usable core, and a loop with fewer than ``min_per_worker``
# blocks per worker runs inline on the calling thread.
_WORKERS = len(os.sched_getaffinity(0))
_MIN_BLOCKS_PER_WORKER = 4
_pool: ThreadPoolExecutor | None = None


def _run_blocks(n_blocks: int, work, min_per_worker: int = _MIN_BLOCKS_PER_WORKER) -> None:
    """Call ``work(first, stop)`` on contiguous ranges covering ``range(n_blocks)``.

    Each worker gets one range; the ranges depend on the worker count, so
    ``work`` must give the same result however its blocks are grouped.
    """
    global _pool
    workers = min(_WORKERS, n_blocks // min_per_worker)
    if workers <= 1:
        work(0, n_blocks)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="kgedistill")
    cuts = [n_blocks * i // workers for i in range(workers + 1)]
    futures = [_pool.submit(work, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
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

    A tensor created with ``requires_grad=True`` (usually a
    :class:`Parameter`) gets its zeroed ``grad`` buffer here, at
    construction, and :func:`backward` accumulates into it; interior nodes
    only carry transient gradients.

    A leaf's gradient is held in two parts: the dense buffer and the
    pending pairs, rank-1 terms ``outer(x, y)`` that a single-row product
    records instead of writing them out (:func:`matmul`). Reading ``grad``
    first adds the pending pairs into the buffer, in the order they
    arrived, so every reader sees the dense sum with the bits of adding
    each term at once. Assigning ``grad`` replaces both parts. An
    optimizer takes the gradient with :func:`take_grad` instead, and the
    buffer is then written only if something read or assigned ``grad``.
    """

    __slots__ = ("data", "_grad", "_pairs", "_dense", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = zeros(self.data.shape) if requires_grad else None
        self._pairs: tuple = ()
        self._dense = False  # whether grad was read or assigned since take_grad
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjps: tuple = ()

    @property
    def grad(self):
        """The dense gradient, with the pending pairs added in first.

        A read marks the buffer as written, even one that only looks: the
        next :func:`take_grad` reads and zero-fills all of it, where a
        gradient of pending pairs alone would have left it untouched.
        """
        if self._pairs:
            row_slices(self._grad.shape, partial(_grad_rows, self._grad, self._pairs), 1)
        self._pairs, self._dense = (), True
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad, self._pairs, self._dense = value, (), True

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # Operator sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __truediv__(self, other):
        return div(self, as_tensor(other))


class Parameter(Tensor):
    """A trainable leaf tensor. Its ``grad`` buffer is allocated zeroed at
    construction; its pages take memory once written, and a gradient made
    only of pending pairs never writes them."""

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
    leave it zero for the next :func:`backward`.

    For each slice of :func:`row_slices` over the gradient viewed as rows,
    ``work(lo, hi, g, scratch)`` gets those rows ``g``, read-only, and
    ``n_scratch`` (at least one) buffers shaped like them. When ``grad``
    was read or assigned since the last hand-over, ``g`` is the buffer's
    rows with the pending pairs added (:func:`_grad_rows`), and is zeroed
    once ``work`` returns; otherwise ``g`` is scratch, and a gradient of
    pending pairs alone is never written out at full size.
    """
    rows = as_rows(t._grad, "a gradient")
    dense = rows if t._dense else None
    pairs, t._pairs, t._dense = t._pairs, (), False

    def run(lo: int, hi: int, scratch: np.ndarray) -> None:
        g = _grad_rows(dense, pairs, lo, hi, scratch)
        work(lo, hi, g, scratch[:-1])
        if dense is not None:
            g.fill(0.0)

    row_slices(rows.shape, run, n_scratch + 1)


def _grad_rows(dense, pairs: tuple, lo: int, hi: int, scratch: np.ndarray) -> np.ndarray:
    """Rows ``lo:hi`` of a gradient held as rows ``dense`` (or ``None``) and
    pending ``pairs``, using buffers ``scratch`` shaped like the rows.

    With ``dense``, its rows get each pair's product added in place, in
    order: the bits of reading ``grad``. Without it, the last buffer gets
    the first pair's product and the others added, or zeros when there are
    no pairs, which differs only in the sign of a zero. The products are
    formed in the first buffer.
    """
    if dense is not None:
        g, rest = dense[lo:hi], pairs
    elif pairs:
        (x, y), rest = pairs[0], pairs[1:]
        g = np.multiply.outer(x[lo:hi], y, out=scratch[-1])
    else:
        scratch[-1].fill(0.0)
        return scratch[-1]
    for x, y in rest:
        g += np.multiply.outer(x[lo:hi], y, out=scratch[0])
    return g


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    return node(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(-g, b.data.shape)),
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


def div(a: Tensor, b: Tensor) -> Tensor:
    return node(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return node(out_data, (a,), (lambda g: g * 0.5 / out_data,))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors.

    When ``a`` has one row and ``b`` is a leaf, ``b``'s gradient
    contribution ``outer(a[0], g[0])`` is recorded as a pending pair on
    ``b`` rather than added into its ``grad`` buffer (:class:`Tensor`).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    if a.shape[0] == 1 and not b._parents:
        # Both vectors are copied: an optimizer step may update a before it
        # reads b's rows.
        def vjp_b(g):
            b._pairs += ((a.data[0].copy(), g[0].copy()),)
    else:
        def vjp_b(g):
            return a.data.T @ g

    return node(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, vjp_b))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over matching leading dimensions."""
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    return node(
        np.matmul(a.data, b.data),
        (a, b),
        (
            lambda g: np.matmul(g, b.data.swapaxes(-1, -2)),
            lambda g: np.matmul(a.data.swapaxes(-1, -2), g),
        ),
    )


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a rank-2 tensor, got shape {a.shape}")
    return node(a.data.T, (a,), (lambda g: g.T,))


def permute(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))
    return node(a.data.transpose(axes), (a,), (lambda g: g.transpose(inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    original = a.data.shape
    return node(a.data.reshape(shape), (a,), (lambda g: g.reshape(original),))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def tensor_sum(a: Tensor, axis=None) -> Tensor:
    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape)
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape)

    return node(a.data.sum(axis=axis), (a,), (vjp,))


def mean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g / count, a.data.shape)
        return np.broadcast_to(np.expand_dims(g, axis) / count, a.data.shape)

    return node(a.data.mean(axis=axis), (a,), (vjp,))


# ---------------------------------------------------------------------------
# Indexing and shape surgery
# ---------------------------------------------------------------------------

def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` in a leaf table; the gradient scatter-adds
    into the table's ``grad``."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a rank-2 table, got shape {table.shape}")
    if table._parents:
        raise ShapeError("gather_rows looks rows up in a leaf table, not in an op's output")

    def vjp(g):
        np.add.at(table.grad, ids, g)

    return node(table.data[ids], (table,), (vjp,))


def halves(a: Tensor) -> tuple:
    """Split the last axis into two equal halves."""
    n = a.shape[-1]
    if n % 2 != 0:
        raise ShapeError(f"halves requires an even last axis, got shape {a.shape}")
    h = n // 2

    def vjp_first(g):
        out = np.zeros_like(a.data)
        out[..., :h] = g
        return out

    def vjp_second(g):
        out = np.zeros_like(a.data)
        out[..., h:] = g
        return out

    first = node(np.ascontiguousarray(a.data[..., :h]), (a,), (vjp_first,))
    second = node(np.ascontiguousarray(a.data[..., h:]), (a,), (vjp_second,))
    return first, second


def hcat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    na = a.shape[-1]
    return node(
        np.concatenate([a.data, b.data], axis=-1),
        (a, b),
        (lambda g: g[..., :na], lambda g: g[..., na:]),
    )


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

    ``loss`` must be a scalar. Every leaf that needs a gradient was built
    with ``requires_grad=True``, so its ``grad`` buffer exists already;
    backward allocates none. Gradients add onto existing ``grad`` contents,
    so a caller that wants fresh ones zeroes them between steps (the
    trainer's Adam step zeroes each gradient after reading it). A VJP that
    returns ``None`` has added into its leaf parent's gradient itself; a
    single-row product's pending pair is added in at the next read of
    ``grad``, so before any later contribution. A returned contribution is
    added into a leaf's ``grad`` at once, and summed out of place for an
    interior node. On zeroed gradients the result has the same bits as
    summing every contribution first, except where a looked-up row repeats
    after the leaf already holds a contribution: those rows are added one
    at a time.
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
            if not parent._parents:
                parent.grad += contribution
                continue
            # Interior sums stay out of place: a VJP may hand the same array
            # to two parents (identity VJPs such as add's do).
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution
