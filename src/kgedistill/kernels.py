"""Numerical kernels: temperature softmax, KL divergence, dropout, batchnorm."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, as_tensor, custom_node
from .errors import DivergenceError, ShapeError
from .rng import RngState


def softmax_temp(logits: Tensor, temperature: float) -> Tensor:
    """Softmax of ``logits / temperature`` along the last axis.

    Max-subtraction keeps the exponentials finite for any temperature; each
    row of the output sums to 1 within 1e-12.
    """
    if temperature <= 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    logits = as_tensor(logits)
    scaled = logits.data / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    expd = np.exp(scaled)
    probs = expd / expd.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return probs * (g - inner) / temperature

    return custom_node(probs, (logits,), (vjp,))


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) = sum_i p_i ln(p_i / q_i), with 0 ln(0/q) = 0.

    Both arguments must be probability vectors. A zero in q under positive
    p mass means infinite divergence and raises :class:`DivergenceError`.
    Rounding can produce values a hair below zero; anything within -1e-12
    is clamped to exactly 0.
    """
    p = as_tensor(p)
    q = as_tensor(q)
    if p.shape != q.shape:
        raise ShapeError(f"kl_divergence: shape mismatch {p.shape} vs {q.shape}")
    for name, t in (("p", p), ("q", q)):
        if np.any(t.data < 0):
            raise ValueError(f"kl_divergence: {name} has negative components")
        if abs(t.data.sum() - 1.0) > 1e-9:
            raise ValueError(f"kl_divergence: {name} does not sum to 1 (got {t.data.sum()!r})")
    support = p.data > 0
    if np.any(support & (q.data == 0)):
        raise DivergenceError("kl_divergence is infinite: q is zero on the support of p")

    log_ratio = np.zeros_like(p.data)
    log_ratio[support] = np.log(p.data[support] / q.data[support])
    value = float(np.sum(p.data * log_ratio))
    if -1e-12 <= value < 0.0:
        value = 0.0

    def vjp_p(g):
        out = np.zeros_like(p.data)
        out[support] = log_ratio[support] + 1.0
        return g * out

    def vjp_q(g):
        out = np.zeros_like(q.data)
        out[support] = -p.data[support] / q.data[support]
        return g * out

    return custom_node(np.float64(value), (p, q), (vjp_p, vjp_q))


def dropout(x: Tensor, rate: float, rng: RngState | None, training: bool) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity in inference mode and at rate 0 (neither consumes the rng).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng stream")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return custom_node(x.data * keep, (x,), (lambda g: g * keep,))


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    Training standardizes by batch mean and population variance (eps 1e-5)
    and updates running stats with momentum 0.1; inference standardizes by
    the running stats. Scale starts at 1, shift at 0.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, dim: int):
        self.dim = dim
        self.scale = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"batchnorm expects (batch, {self.dim}), got {x.shape}")
        if training:
            from .autodiff import mean as t_mean, sqrt as t_sqrt

            mu = t_mean(x, axis=0)
            centered = x - mu
            var = t_mean(centered * centered, axis=0)
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mu.data
            self.running_var = (1.0 - m) * self.running_var + m * var.data
            normalized = centered / t_sqrt(var + self.eps)
        else:
            denom = np.sqrt(self.running_var + self.eps)
            normalized = (x - self.running_mean) / denom
        return normalized * self.scale + self.shift

    def parameters(self):
        return [("scale", self.scale), ("shift", self.shift)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]
