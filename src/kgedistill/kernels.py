"""Numerical kernels: dropout, batchnorm."""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, as_tensor, node
from .errors import ShapeError


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
    return node(x.data * keep, (x,), (lambda g: g * keep,))


class BatchNorm:
    """Per-feature batch normalization with running statistics, as one node.

    Training standardizes by batch mean and population variance (eps 1e-5)
    and updates running stats with momentum 0.1, in place; inference
    standardizes by the running stats. Scale starts at 1, shift at 0.
    The VJPs add the terms of the op chain over mean, variance and square
    root in the chain's order, so the bits are the chain's.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, dim: int):
        self.scale = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))
        self.running_mean = Tensor(np.zeros(dim))
        self.running_var = Tensor(np.ones(dim))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1:] != self.scale.shape:
            raise ShapeError(f"batchnorm expects (batch, {self.scale.shape[0]}), got {x.shape}")
        scale = self.scale.data
        if training:
            n = x.shape[0]
            mu = x.data.mean(axis=0)
            centered = x.data - mu
            var = (centered * centered).mean(axis=0)
            m = self.momentum
            for stat, batch_stat in ((self.running_mean, mu), (self.running_var, var)):
                stat.data *= 1.0 - m
                stat.data += m * batch_stat
            sd = np.sqrt(var + self.eps)

            def vjp_x(g):
                gn = g * scale
                d_sd = (-gn * centered / (sd * sd)).sum(axis=0)
                c = (d_sd * 0.5 / sd)[None] / n * centered
                d = gn / sd + c + c
                return d + (-d).sum(axis=0)[None] / n
        else:
            centered = x.data - self.running_mean.data
            sd = np.sqrt(self.running_var.data + self.eps)

            def vjp_x(g):
                return g * scale / sd

        normalized = centered / sd
        return node(
            normalized * scale + self.shift.data,
            (x, self.scale, self.shift),
            (vjp_x, lambda g: (g * normalized).sum(axis=0), lambda g: g.sum(axis=0)),
        )

    def state(self) -> dict:
        """Every tensor the layer holds, by name; the running stats take no gradient."""
        return {"scale": self.scale, "shift": self.shift,
                "running_mean": self.running_mean, "running_var": self.running_var}
