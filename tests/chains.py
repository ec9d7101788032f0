"""Generic autodiff ops and the op chains that the model's nodes replaced.

The package builds ComplEx, TuckER, LowFER and batchnorm as one node each
with hand-written VJPs. The chains here build the same functions from
generic ops, each with its own small VJP, and serve the tests as oracles:
ComplEx, LowFER and batchnorm give the chains' bits, TuckER agrees to
rounding. ``tensor_sum`` doubles as the tests' scalar reduction.
"""

from __future__ import annotations

import numpy as np

from kgedistill.autodiff import Tensor, _unbroadcast, as_tensor, matmul, mul, node
from kgedistill.errors import ShapeError


def sub(a: Tensor, b: Tensor) -> Tensor:
    return node(
        a.data - b.data,
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(-g, b.data.shape)),
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


def permute(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))
    return node(a.data.transpose(axes), (a,), (lambda g: g.transpose(inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    original = a.data.shape
    return node(a.data.reshape(shape), (a,), (lambda g: g.reshape(original),))


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape)
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape)

    return node(a.data.sum(axis=axis), (a,), (vjp,))


def mean(a: Tensor, axis: int) -> Tensor:
    count = a.data.shape[axis]

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g, axis) / count, a.data.shape)

    return node(a.data.mean(axis=axis), (a,), (vjp,))


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
# The chains
# ---------------------------------------------------------------------------

def complex_chain(h_emb: Tensor, r_emb: Tensor) -> Tensor:
    h_re, h_im = halves(h_emb)
    r_re, r_im = halves(r_emb)
    real = sub(mul(h_re, r_re), mul(h_im, r_im))
    imag = mul(h_re, r_im) + mul(h_im, r_re)
    return hcat(real, imag)


def tucker_chain(h_emb: Tensor, r_emb: Tensor, core: Tensor) -> Tensor:
    d_e, d_r, d_out = core.shape
    core_flat = reshape(permute(core, (1, 0, 2)), (d_r, d_e * d_out))
    maps = reshape(matmul(r_emb, core_flat), (r_emb.shape[0], d_e, d_out))
    rows = reshape(h_emb, (h_emb.shape[0], 1, d_e))
    return reshape(bmm(rows, maps), (h_emb.shape[0], d_out))


def lowfer_chain(h_emb: Tensor, r_emb: Tensor, u_factor: Tensor, v_factor: Tensor, k_l: int) -> Tensor:
    pooled_width = u_factor.shape[1]
    fused = mul(matmul(h_emb, u_factor), matmul(r_emb, v_factor))
    grouped = reshape(fused, (h_emb.shape[0], pooled_width // k_l, k_l))
    return tensor_sum(grouped, axis=2)


def batchnorm_chain(bn, x: Tensor, training: bool) -> Tensor:
    """``bn(x, training)`` for a :class:`~kgedistill.kernels.BatchNorm` ``bn``,
    updating its running stats the same way."""
    x = as_tensor(x)
    if training:
        mu = mean(x, axis=0)
        centered = sub(x, mu)
        var = mean(centered * centered, axis=0)
        m = bn.momentum
        for stat, batch_stat in ((bn.running_mean, mu), (bn.running_var, var)):
            stat.data *= 1.0 - m
            stat.data += m * batch_stat.data
        normalized = div(centered, sqrt(var + bn.eps))
    else:
        denom = np.sqrt(bn.running_var.data + bn.eps)
        normalized = div(sub(x, bn.running_mean), as_tensor(denom))
    return normalized * bn.scale + bn.shift
