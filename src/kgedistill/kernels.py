"""Numerical kernels: softmax, dropout, batchnorm."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, as_tensor, custom_node
from .errors import ShapeError


def softmax(logits: Tensor) -> Tensor:
    """Softmax along the last axis; each row of the output sums to 1 within 1e-12.

    Max-subtraction keeps the exponentials finite.
    """
    logits = as_tensor(logits)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return probs * (g - inner)

    return custom_node(probs, (logits,), (vjp,))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
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
