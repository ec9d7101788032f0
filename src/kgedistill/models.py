"""Bilinear scoring models mapping (head, relation) queries to entity logits.

All four models share one pipeline: look up embeddings, regularize the head
embedding (batchnorm, input dropout), form a model-specific interaction
vector, regularize it (hidden dropout, batchnorm, output dropout), and
contract with the full entity table to produce one logit per entity. In
training the contraction is fused with the BCE loss, so the logits are
never built whole.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    bmm,
    gather_rows,
    halves,
    hcat,
    matmul,
    mul,
    permute,
    reshape,
    sub,
    tensor_sum,
    transpose,
)
from .config import ModelConfig
from .errors import ShapeError
from .kernels import BatchNorm, dropout

__all__ = [
    "EmbeddingModel",
    "ModelConfig",
    "count_parameters",
    "score_complex",
    "score_distmult",
    "score_lowfer",
    "score_tucker",
]


# ---------------------------------------------------------------------------
# Interaction vectors: one row per query, contracted with the entity table
# ---------------------------------------------------------------------------

def distmult_interaction(h_emb: Tensor, r_emb: Tensor) -> Tensor:
    return mul(h_emb, r_emb)


def complex_interaction(h_emb: Tensor, r_emb: Tensor) -> Tensor:
    """Split-half complex product: real parts first, imaginary parts last.

    The returned vector z satisfies z . t = Re(sum_j h_j r_j conj(t_j)) for
    an entity row t in the same layout.
    """
    h_re, h_im = halves(h_emb)
    r_re, r_im = halves(r_emb)
    real = sub(mul(h_re, r_re), mul(h_im, r_im))
    imag = mul(h_re, r_im) + mul(h_im, r_re)
    return hcat(real, imag)


def tucker_interaction(h_emb: Tensor, r_emb: Tensor, core: Tensor) -> Tensor:
    """z[i, c] = sum_{a,b} core[a, b, c] * h[i, a] * r[i, b]."""
    d_e, d_r, d_out = core.shape
    # (d_r, d_e * d_out) so the relation picks a head-to-entity map.
    core_flat = reshape(permute(core, (1, 0, 2)), (d_r, d_e * d_out))
    maps = reshape(matmul(r_emb, core_flat), (r_emb.shape[0], d_e, d_out))
    rows = reshape(h_emb, (h_emb.shape[0], 1, d_e))
    return reshape(bmm(rows, maps), (h_emb.shape[0], d_out))


def lowfer_interaction(
    h_emb: Tensor, r_emb: Tensor, u_factor: Tensor, v_factor: Tensor, k_l: int
) -> Tensor:
    """Factorized bilinear pooling: (U^T h) . (V^T r), sum-pooled stride k_l."""
    pooled_width = u_factor.shape[1]
    if pooled_width % k_l != 0:
        raise ShapeError(
            f"factor width {pooled_width} is not a multiple of the rank {k_l}"
        )
    fused = mul(matmul(h_emb, u_factor), matmul(r_emb, v_factor))
    grouped = reshape(fused, (h_emb.shape[0], pooled_width // k_l, k_l))
    return tensor_sum(grouped, axis=2)


# ---------------------------------------------------------------------------
# Bare score functions (no dropout/batchnorm), usable standalone
# ---------------------------------------------------------------------------

def score_distmult(h_emb: Tensor, r_emb: Tensor, entities: Tensor) -> Tensor:
    """u[i, t] = sum_j h[i, j] r[i, j] E[t, j]."""
    return matmul(distmult_interaction(h_emb, r_emb), transpose(entities))


def score_complex(h_emb: Tensor, r_emb: Tensor, entities: Tensor) -> Tensor:
    """u[i, t] = Re(sum_j h_j r_j conj(t_j)) over split-half complex rows."""
    return matmul(complex_interaction(h_emb, r_emb), transpose(entities))


def score_tucker(h_emb: Tensor, r_emb: Tensor, core: Tensor, entities: Tensor) -> Tensor:
    """u[i, t] = sum_{a,b,c} W[a, b, c] h[i, a] r[i, b] E[t, c]."""
    return matmul(tucker_interaction(h_emb, r_emb, core), transpose(entities))


def score_lowfer(
    h_emb: Tensor,
    r_emb: Tensor,
    u_factor: Tensor,
    v_factor: Tensor,
    k_l: int,
    entities: Tensor,
) -> Tensor:
    return matmul(
        lowfer_interaction(h_emb, r_emb, u_factor, v_factor, k_l), transpose(entities)
    )


class EmbeddingModel:
    """Entity/relation tables plus model-specific parameters and batchnorm.

    ``n_relations`` counts relations after reciprocal augmentation. Tables
    start as N(0, 0.05) draws; the TuckER core and LowFER factors start
    uniform in [-0.1, 0.1], keeping initial logits O(1) at dimension 100.
    """

    def __init__(self, config: ModelConfig, n_entities: int, n_relations: int,
                 rng: np.random.Generator):
        self.config = config
        d_e, d_r = config.d_e, config.rel_dim

        self.entity_embeddings = Parameter(rng.normal(0.0, 0.05, (n_entities, d_e)))
        self.relation_embeddings = Parameter(rng.normal(0.0, 0.05, (n_relations, d_r)))
        self.core = None
        self.u_factor = None
        self.v_factor = None
        if config.kind == "tucker":
            self.core = Parameter(rng.uniform(-0.1, 0.1, (d_e, d_r, d_e)))
        elif config.kind == "lowfer":
            self.u_factor = Parameter(rng.uniform(-0.1, 0.1, (d_e, config.k_l * d_e)))
            self.v_factor = Parameter(rng.uniform(-0.1, 0.1, (d_r, config.k_l * d_e)))

        self.bn_input = BatchNorm(d_e) if config.use_batchnorm else None
        self.bn_output = BatchNorm(d_e) if config.use_batchnorm else None

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self) -> list:
        out = [
            ("entity_embeddings", self.entity_embeddings),
            ("relation_embeddings", self.relation_embeddings),
        ]
        if self.core is not None:
            out.append(("core", self.core))
        if self.u_factor is not None:
            out.append(("u_factor", self.u_factor))
            out.append(("v_factor", self.v_factor))
        for prefix, bn in (("bn_input", self.bn_input), ("bn_output", self.bn_output)):
            if bn is not None:
                out.extend((f"{prefix}.{n}", p) for n, p in bn.parameters())
        return out

    def named_buffers(self) -> list:
        out = []
        for prefix, bn in (("bn_input", self.bn_input), ("bn_output", self.bn_output)):
            if bn is not None:
                out.extend((f"{prefix}.{n}", b) for n, b in bn.buffers())
        return out

    # -- forward pass ----------------------------------------------------------

    def interaction(self, h_emb: Tensor, r_emb: Tensor) -> Tensor:
        kind = self.config.kind
        if kind == "distmult":
            return distmult_interaction(h_emb, r_emb)
        if kind == "complex":
            return complex_interaction(h_emb, r_emb)
        if kind == "tucker":
            return tucker_interaction(h_emb, r_emb, self.core)
        return lowfer_interaction(h_emb, r_emb, self.u_factor, self.v_factor, self.config.k_l)

    def forward(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        targets=None,
    ) -> Tensor:
        """Logits over all entities for each (head, relation) query row.

        Given ``targets`` (:class:`~kgedistill.data.SparseTargets` over the
        same rows and entities), returns instead their mean BCE, taken by
        :func:`~kgedistill.training.score_bce` without building the logits.
        """
        cfg = self.config
        h = gather_rows(self.entity_embeddings, heads)
        r = gather_rows(self.relation_embeddings, relations)
        if self.bn_input is not None:
            h = self.bn_input(h, training)
        h = dropout(h, cfg.dropout1, rng, training)
        z = self.interaction(h, r)
        z = dropout(z, cfg.dropout2, rng, training)
        if self.bn_output is not None:
            z = self.bn_output(z, training)
        z = dropout(z, cfg.dropout3, rng, training)
        if targets is None:
            return matmul(z, transpose(self.entity_embeddings))
        from .training import score_bce  # training imports this module

        return score_bce(z, self.entity_embeddings, targets)


def count_parameters(
    config: ModelConfig,
    n_entities: int,
    n_relations: int,
    isd_k_b: int | None = None,
    isd_batch_size: int | None = None,
) -> int:
    """Exact learnable-scalar count for a model (and optionally the
    distillation block, when both of its shape arguments are given).

    Counts embedding tables, the TuckER core or LowFER factors, batchnorm
    scale/shift, and the block's three projections. Batchnorm running stats
    are buffers, not learnable, and are excluded.
    """
    d_e, d_r = config.d_e, config.rel_dim
    total = n_entities * d_e + n_relations * d_r
    if config.kind == "tucker":
        total += d_e * d_r * d_e
    elif config.kind == "lowfer":
        total += (d_e + d_r) * (config.k_l * d_e)
    if config.use_batchnorm:
        total += 4 * d_e  # scale + shift for the input and output layers
    if isd_k_b is not None and isd_batch_size is not None:
        total += 2 * d_e * isd_k_b + isd_batch_size * n_entities
    return total
