"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit: single precision would make the finite-difference
gradient checks that guard this package meaningless. Ops build a computation
graph while gradients are enabled; :func:`backward` walks the graph in
reverse topological order and accumulates into the ``grad`` array of every
reachable leaf. Under :func:`no_grad` the same ops return plain constants,
so inference and detached teacher extraction carry no graph.

Which results depend on the BLAS thread count:

- The products here (``matmul``, ``bmm``) run on BLAS with the process's
  thread count, so their bits may depend on the BLAS build and on that
  count. The caller pins it (for instance with ``OPENBLAS_NUM_THREADS``
  set before numpy is imported); nothing here sets it.
- The fused score head (:func:`kgedistill.training.score_bce`) holds
  numpy's OpenBLAS to one thread inside its own region and sums its blocks
  in a fixed order, so its value and gradients depend on the BLAS build
  but neither on the thread count nor on the worker count. Where that
  library's thread calls are not found, it runs unpinned and depends on
  the thread count like the products above.
- The elementwise kernels (the BCE kernel, Adam) call no BLAS and give the
  same bits for any thread or worker count.

The row lookup's gradient scatter-adds with ``np.add.at`` (sequential, in
index order) straight into the table's ``grad``, so the rows of a
repeated id are added one after the other rather than summed first. With
the BLAS build and thread count fixed, two runs over the same inputs
produce bit-identical outputs.
"""

from __future__ import annotations

import contextlib
import mmap

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


def zeros(shape) -> np.ndarray:
    """Zeroed float64 array on a mapping of its own, whose pages take memory
    only once written (``np.zeros`` clears, so touches, a reused heap block)."""
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(8 * count, 1), mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, np.float64, count).reshape(shape)


class Tensor:
    """A graph node holding a row-major float64 array.

    Leaf tensors created with ``requires_grad=True`` (usually via
    :class:`Parameter`) receive gradient accumulation during
    :func:`backward`; interior nodes only carry transient gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = zeros(self.data.shape) if requires_grad else None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjps: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars and ndarrays are wrapped as constants.
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))


class Parameter(Tensor):
    """A trainable leaf tensor. ``grad`` is always allocated and zeroed."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents, vjps) -> Tensor:
    """Build an op output, recording only parents that need gradients."""
    out = Tensor(data)
    if _grad_enabled:
        kept = [(p, v) for p, v in zip(parents, vjps) if p.requires_grad]
        if kept:
            out.requires_grad = True
            out._parents = tuple(p for p, _ in kept)
            out._vjps = tuple(v for _, v in kept)
    return out


def _with_leaf_add(vjp, add_into):
    """Give ``vjp`` an in-place form for leaf parents.

    ``add_into(g, grad)`` adds the same contribution that ``vjp(g)`` returns
    straight into ``grad``, without building it as a full-size array.
    """
    vjp.add_into = add_into
    return vjp


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise ops (numpy broadcasting rules apply)
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data + b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data * b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), (lambda g: -g,))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _node(out_data, (a,), (lambda g: g * 0.5 / out_data,))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def vjp_b(g):
        return a.data.T @ g

    if a.shape[0] == 1:
        # With a single left row, b's gradient is the outer product of that
        # row and g: a rank-1 update that a leaf takes a few rows at a time.
        vjp_b = _with_leaf_add(vjp_b, lambda g, grad: _add_outer(a.data[0], g[0], grad))
    return _node(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, vjp_b))


# Row blocks of the rank-1 gradient update span about this many elements.
_OUTER_BLOCK_ELEMENTS = 1 << 14


def _add_outer(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """out += outer(x, y), through one scratch buffer of a few rows."""
    step = max(1, _OUTER_BLOCK_ELEMENTS // max(len(y), 1))
    scratch = np.empty((min(step, len(x)), len(y)))
    for start in range(0, len(x), step):
        xb = x[start : start + step]
        block = scratch[: len(xb)]
        np.multiply.outer(xb, y, out=block)
        out[start : start + step] += block


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over matching leading dimensions."""
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    return _node(
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
    return _node(a.data.T, (a,), (lambda g: g.T,))


def permute(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), (lambda g: g.transpose(inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    original = a.data.shape
    return _node(a.data.reshape(shape), (a,), (lambda g: g.reshape(original),))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g_expanded, a.data.shape)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), (vjp,))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g / count, a.data.shape)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g_expanded / count, a.data.shape)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), (vjp,))


# ---------------------------------------------------------------------------
# Indexing and shape surgery
# ---------------------------------------------------------------------------

def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; the gradient scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a rank-2 table, got shape {table.shape}")

    def vjp(g):
        out = np.zeros_like(table.data)
        np.add.at(out, ids, g)
        return out

    def add_into(g, grad):
        np.add.at(grad, ids, g)

    return _node(table.data[ids], (table,), (_with_leaf_add(vjp, add_into),))


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

    first = _node(np.ascontiguousarray(a.data[..., :h]), (a,), (vjp_first,))
    second = _node(np.ascontiguousarray(a.data[..., h:]), (a,), (vjp_second,))
    return first, second


def hcat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    na = a.shape[-1]
    return _node(
        np.concatenate([a.data, b.data], axis=-1),
        (a, b),
        (lambda g: g[..., :na], lambda g: g[..., na:]),
    )


def custom_node(data: np.ndarray, parents, vjps) -> Tensor:
    """Public hook for ops with hand-written vector-Jacobian products."""
    return _node(data, parents, vjps)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

    ``loss`` must be a scalar. Gradients add onto existing ``grad`` contents,
    so callers zero them between steps. Each contribution to a leaf is added
    into its ``grad`` as soon as it is computed, and a VJP with an in-place
    form (the row lookup, a product with a single left row) adds into it
    directly. On zeroed gradients the result has the same bits as summing
    the contributions first, except where a looked-up row repeats after the
    leaf already holds a contribution: those rows are added one at a time.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss._parents:
        if loss.requires_grad:
            _leaf_grad(loss)[...] += 1.0
        return

    # Iterative post-order DFS; recursion would overflow on long chains.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent._parents:
                add_into = getattr(vjp, "add_into", None)
                if add_into is not None:
                    add_into(g, _leaf_grad(parent))
                else:
                    _leaf_grad(parent)[...] += vjp(g)
                continue
            contribution = vjp(g)
            # Interior sums stay out of place: a VJP may hand the same array
            # to two parents (identity VJPs such as add's do).
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution


def _leaf_grad(leaf: Tensor) -> np.ndarray:
    """The ``grad`` buffer the leaf owns, allocated (zeroed) on first use."""
    if leaf.grad is None:
        leaf.grad = np.zeros(leaf.data.shape)
    return leaf.grad
