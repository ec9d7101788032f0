"""Bilinear scoring models mapping (head, relation) queries to entity logits.

All four models share one pipeline: look up embeddings, regularize the head
embedding (batchnorm, input dropout), form a model-specific interaction
vector, regularize it (hidden dropout, batchnorm, output dropout), and
contract with the full entity table to produce one logit per entity.
ComplEx's, TuckER's and LowFER's interactions are one autodiff node each.
:meth:`EmbeddingModel.query_vectors` stops before the contraction, and
:meth:`EmbeddingModel.forward` adds it. In training the contraction is
fused with the 1-N BCE loss (:func:`score_bce`), so the logits are never
built whole, and runs in float32: its loss agrees with the float64 chain to
about 1e-6 relative and its gradients to about 1e-5 of their largest entry.
Inference logits and :func:`bce_loss` are float64. Ranking contracts the
query vectors itself (:func:`kgedistill.evaluation.rank_split`): its
float32 scores only filter, and every rank rests on a float64 comparison.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    _one_blas_thread,
    _run_blocks,
    add_scaled,
    gather_rows,
    grad_enabled,
    matmul,
    mul,
    node,
    transpose,
    zeros,
)
from .config import ModelConfig
from .data import SparseTargets
from .distill import SemanticBlock
from .errors import ShapeError
from .kernels import BatchNorm, dropout

__all__ = [
    "EmbeddingModel",
    "ModelConfig",
    "bce_loss",
    "count_parameters",
    "score_bce",
]


# ---------------------------------------------------------------------------
# Interaction vectors: one row per query, contracted with the entity table
# ---------------------------------------------------------------------------

def distmult_interaction(h_emb: Tensor, r_emb: Tensor) -> Tensor:
    return mul(h_emb, r_emb)


def complex_interaction(h_emb: Tensor, r_emb: Tensor) -> Tensor:
    """Split-half complex product: real parts first, imaginary parts last.

    The returned vector z satisfies z . t = Re(sum_j h_j r_j conj(t_j)) for
    an entity row t in the same layout. The VJPs form the products of the
    op chain over the halves, so the bits are the chain's.
    """
    n = h_emb.shape[-1]
    if n % 2 != 0:
        raise ShapeError(f"complex_interaction requires an even width, got shape {h_emb.shape}")
    h_re, h_im = h_emb.data[:, : n // 2], h_emb.data[:, n // 2 :]
    r_re, r_im = r_emb.data[:, : n // 2], r_emb.data[:, n // 2 :]
    z = np.concatenate([h_re * r_re - h_im * r_im, h_re * r_im + h_im * r_re], axis=1)

    def vjp(a_re, a_im, g):  # one operand's gradient, from the other's halves
        g_re, g_im = g[:, : n // 2], g[:, n // 2 :]
        return np.concatenate([g_re * a_re + g_im * a_im, g_im * a_re - g_re * a_im], axis=1)

    return node(z, (h_emb, r_emb), (partial(vjp, r_re, r_im), partial(vjp, h_re, h_im)))


# The TuckER node takes the core in slabs of this many head dimensions, so no
# (batch, d_e, d_out) relation map and no copy of the core is formed.
_TUCKER_SLAB = 8


def tucker_interaction(h_emb: Tensor, r_emb: Tensor, core: Tensor) -> Tensor:
    """z[i, c] = sum_{a,b} core[a, b, c] * h[i, a] * r[i, b], as one node.

    Per slab s of ``_TUCKER_SLAB`` head dimensions, the forward pass adds
    h[:, s] contracted with r core[s] into z; the backward pass forms
    g core[s]^T for the head's and the relation's gradients, and core[s]'s
    gradient r^T (h[:, s] x g) in its own slab.
    """
    h, r, w = h_emb.data, r_emb.data, core.data
    batch, (d_e, d_r, d_out) = h.shape[0], w.shape
    slabs = [slice(lo, lo + _TUCKER_SLAB) for lo in range(0, d_e, _TUCKER_SLAB)]
    z = np.zeros((batch, d_out))
    for s in slabs:
        z += np.einsum("ai,aic->ic", h[:, s].T, np.matmul(r, w[s]))

    def input_grads(g):
        dh, dr = np.empty_like(h), np.zeros_like(r)
        for s in slabs:
            dx = (g @ w[s].reshape(-1, d_out).T).reshape(batch, -1, d_r)
            dh[:, s] = np.einsum("iab,ib->ia", dx, r)
            dr += np.einsum("iab,ia->ib", dx, h[:, s])
        return dh, dr

    def vjp_core(g):
        dw = np.empty_like(w)
        for s in slabs:
            outer = (h[:, s, None] * g[:, None, :]).reshape(batch, -1)
            dw[s] = (r.T @ outer).reshape(d_r, -1, d_out).transpose(1, 0, 2)
        return dw

    grads = _shared(input_grads, h_emb.requires_grad + r_emb.requires_grad)
    return node(z, (h_emb, r_emb, core), (lambda g: grads(g)[0], lambda g: grads(g)[1], vjp_core))


def lowfer_interaction(
    h_emb: Tensor, r_emb: Tensor, u_factor: Tensor, v_factor: Tensor, k_l: int
) -> Tensor:
    """Factorized bilinear pooling: (U^T h) . (V^T r), sum-pooled stride k_l.

    The VJPs form the op chain's products, so the bits are the chain's: a
    backward pass forms repeat(g, k_l) once, its products with V^T r (for
    h and U) and U^T h (for r and V), and drops each after its last reader.
    """
    pooled_width = u_factor.shape[1]
    if pooled_width % k_l != 0:
        raise ShapeError(f"factor width {pooled_width} is not a multiple of the rank {k_l}")
    h, r, u, v = h_emb.data, r_emb.data, u_factor.data, v_factor.data
    hu, rv = h @ u, r @ v
    z = (hu * rv).reshape(h.shape[0], pooled_width // k_l, k_l).sum(axis=2)
    needs_hu = h_emb.requires_grad + u_factor.requires_grad
    needs_rv = r_emb.requires_grad + v_factor.requires_grad
    spread = _shared(lambda g: np.repeat(g, k_l, axis=1), bool(needs_hu) + bool(needs_rv))
    d_hu = _shared(lambda g: spread(g) * rv, needs_hu)
    d_rv = _shared(lambda g: spread(g) * hu, needs_rv)
    return node(z, (h_emb, u_factor, r_emb, v_factor), (
        lambda g: d_hu(g) @ u.T, lambda g: h.T @ d_hu(g),
        lambda g: d_rv(g) @ v.T, lambda g: r.T @ d_rv(g),
    ))


def _shared(make, readers: int):
    """``make(g)`` for the ``readers`` VJP calls that a backward pass makes
    with one gradient ``g``: the first call makes it, the last drops it."""
    held = []

    def get(g):
        if not held or held[0] is not g:
            held[:] = [g, make(g), readers]
        held[2] -= 1
        value = held[1]
        if not held[2]:
            held.clear()
        return value

    return get


# ---------------------------------------------------------------------------
# The 1-N BCE score head
# ---------------------------------------------------------------------------

# Row blocks of the BCE kernel span about _BLOCK_ELEMENTS elements, so their
# scratch buffers stay in the L2 cache; they also fix the order in which its
# partial sums are added.
# The fused score head works on blocks of entity columns spanning about
# _SCORE_BLOCK_ELEMENTS scores (256 columns at a batch of 512), big enough
# for its three products to run at GEMM speed, and sums its query-side
# gradient over _SCORE_GROUPS fixed groups of those blocks.
_BLOCK_ELEMENTS = 1 << 14
_SCORE_BLOCK_ELEMENTS = 1 << 17
_SCORE_GROUPS = 8


def bce_loss(logits: Tensor, targets: SparseTargets) -> Tensor:
    """Multi-label binary cross entropy over all entities, from logits.

    ``targets`` is :class:`~kgedistill.data.SparseTargets` shaped like the
    logits (as returned by ``Batch.targets`` and mapped by ``label_smooth``),
    whose entries are ``on`` at the positives and ``off`` everywhere else.

    The value is mean(softplus(u) - y * u) with softplus(u) computed as
    max(u, 0) + log1p(exp(-|u|)), which never exponentiates a positive
    logit. sum(y * u) is off * sum(u) plus (on - off) times the sum over
    the positives, so no dense target matrix is built. One serial pass over
    row blocks (:func:`_bce_block`) adds the partial sums in block order and
    stores the residual sigmoid(u) - y; the gradient is g * residual / size.
    Training takes the same loss through :func:`score_bce`, which never
    builds the logits; this form is the reference for callers holding them.
    """
    _check_targets("bce_loss", targets, logits.shape)
    u = logits.data
    residual = np.empty_like(u)
    step = max(1, _BLOCK_ELEMENTS // max(u.shape[1], 1))
    scratch = np.empty((2, min(step, len(u)), u.shape[1]))
    softplus_sum = u_sum = 0.0
    for start in range(0, len(u), step):
        ub = u[start : start + step]
        e, s = scratch[0, : len(ub)], scratch[1, : len(ub)]
        log1p_sum, max_sum, block_u_sum = _bce_block(
            ub, residual[start : start + step], e, s, targets.off
        )
        softplus_sum += log1p_sum
        softplus_sum += max_sum
        u_sum += block_u_sum
    u_pos = u[targets.rows, targets.cols]
    yu_sum = targets.off * u_sum + (targets.on - targets.off) * float(u_pos.sum())
    residual[targets.rows, targets.cols] = _positive_residual(u_pos, targets.on)
    value = (softplus_sum - yu_sum) / u.size if u.size else float("nan")
    return node(np.float64(value), (logits,), (lambda g: g * residual / u.size,))


def _check_targets(name: str, targets: SparseTargets, shape: tuple) -> None:
    """Raise unless ``targets`` are sparse, shaped ``shape`` and within [0, 1]."""
    if not isinstance(targets, SparseTargets):
        raise TypeError(f"{name} takes SparseTargets, got {type(targets).__name__}")
    if targets.shape != tuple(shape):
        raise ShapeError(f"{name}: scores {tuple(shape)} vs targets {targets.shape}")
    if min(targets.on, targets.off) < 0.0 or max(targets.on, targets.off) > 1.0:
        raise ValueError(f"{name} targets must lie in [0, 1]")


def score_bce(z: Tensor, entities: Tensor, targets: SparseTargets) -> Tensor:
    """``bce_loss(matmul(z, transpose(entities)), targets)`` without the logits.

    ``z`` holds one query vector per row and ``entities`` one entity per
    row; ``targets`` is :class:`~kgedistill.data.SparseTargets` shaped
    (queries, entities). The entity columns are taken in blocks of about
    ``_SCORE_BLOCK_ELEMENTS`` scores. For each block the forward pass copies
    the block's entity rows into float32 scratch, computes the scores
    u = z E_blk^T, the block's BCE partial sums and residual
    r = sigmoid(u) - y with the kernel :func:`bce_loss` uses (the positives
    found by ``searchsorted`` over the targets sorted by column), adds
    r E_blk into the query-side gradient and writes r^T z into the block's
    rows of an entities-shaped float32 gradient buffer. So neither the
    logits nor the residual exist beyond one block, no float32 copy of the
    table is made, and backward only scales both gradients by g / size, in
    place. ``entities`` must be a leaf: backward hands its buffer to the
    leaf as a pending scaled block (:func:`~kgedistill.autodiff.add_scaled`),
    which is scaled and added one slice of rows at a time when the gradient
    is taken, so the table's float64 gradient is never written out at full
    size; each element is scaled and added on its own, so the bits are
    those of scaling first and adding after.

    The three products and the BCE kernel run in float32. What they feed
    stays float64: the sums over blocks (each block sums its own scores in
    float32), the positives' logits and residuals, the query-side gradient
    summed over blocks, and both gradients handed on. The value agrees with
    the float64 chain to within 1e-6 relative and the gradients to within
    1e-5 of their largest entry.

    The blocks run on the worker pool with numpy's OpenBLAS held to one
    thread. The block partial sums are added in block order and the
    query-side gradient is summed within each of ``_SCORE_GROUPS`` fixed
    groups of blocks, then over the groups in order, so nothing depends on
    the number of workers.
    """
    if z.ndim != 2 or entities.ndim != 2 or z.shape[1] != entities.shape[1]:
        raise ShapeError(f"score_bce: incompatible shapes {z.shape} x {entities.shape}")
    if entities._parents:
        raise ShapeError("score_bce takes a leaf entity table, not an op's output")
    n_rows, n_cols, dim = z.shape[0], entities.shape[0], z.shape[1]
    _check_targets("score_bce", targets, (n_rows, n_cols))
    # Python floats, so the float32 kernels stay in float32.
    on, off = float(targets.on), float(targets.off)

    z32, ed = z.data.astype(np.float32), entities.data
    want_dz = grad_enabled() and z.requires_grad
    want_de = grad_enabled() and entities.requires_grad
    cols = max(1, _SCORE_BLOCK_ELEMENTS // max(n_rows, 1))
    n_blocks = -(-n_cols // cols)
    per_group = -(-n_blocks // _SCORE_GROUPS)
    n_groups = -(-n_blocks // per_group) if n_blocks else 0
    # Positives sorted by column; block i holds entries bounds[i]:bounds[i + 1].
    by_col = np.lexsort((targets.rows, targets.cols))
    pos_rows, pos_cols = targets.rows[by_col], targets.cols[by_col]
    bounds = np.searchsorted(pos_cols, np.arange(n_blocks + 1) * cols)
    # Per block: sum of log1p(exp(-|u|)), sum of max(u, 0), sum of u, and
    # the sum of u over the positives.
    partials = np.empty((n_blocks, 4))
    dz_groups = np.zeros((n_groups, n_rows, dim)) if want_dz else None
    d_entities = np.empty((n_cols, dim), np.float32) if want_de else None

    def group_blocks(first: int, stop: int) -> None:
        width = min(cols, n_cols)
        scratch = np.empty((3, n_rows * width), np.float32)
        e32 = np.empty((width, dim), np.float32)
        product = np.empty((n_rows, dim), np.float32) if want_dz else None
        for group in range(first, stop):
            for i in range(group * per_group, min((group + 1) * per_group, n_blocks)):
                lo, hi = i * cols, min((i + 1) * cols, n_cols)
                u, e, s = (buf[: n_rows * (hi - lo)].reshape(n_rows, hi - lo) for buf in scratch)
                e_blk = e32[: hi - lo]
                e_blk[...] = ed[lo:hi]
                np.matmul(z32, e_blk.T, out=u)
                rows = pos_rows[bounds[i] : bounds[i + 1]]
                at = pos_cols[bounds[i] : bounds[i + 1]] - lo
                u_pos = u[rows, at].astype(np.float64)
                partials[i, :3] = _bce_block(u, u, e, s, off)
                partials[i, 3] = u_pos.sum()
                u[rows, at] = _positive_residual(u_pos, on)  # u now holds r
                if want_dz:
                    dz_groups[group] += np.matmul(u, e_blk, out=product)
                if want_de:
                    np.matmul(u.T, z32, out=d_entities[lo:hi])

    with _one_blas_thread():
        _run_blocks(n_groups, group_blocks, min_per_worker=1)
    softplus_sum = u_sum = pos_sum = 0.0
    for log1p_sum, max_sum, block_u_sum, block_pos_sum in partials.tolist():
        softplus_sum += log1p_sum
        softplus_sum += max_sum
        u_sum += block_u_sum
        pos_sum += block_pos_sum
    size = n_rows * n_cols
    yu_sum = off * u_sum + (on - off) * pos_sum
    value = (softplus_sum - yu_sum) / size if size else float("nan")

    dz = None
    if want_dz:
        dz = dz_groups[0] if n_groups else np.zeros((n_rows, dim))
        for group in range(1, n_groups):
            dz += dz_groups[group]
    # Each backward pass calls a VJP once; handing a gradient on drops this
    # node's reference to it, so the entities-shaped buffer lives no longer
    # than the leaf's gradient holds it as a pending term.
    pending = {"z": dz, "entities": d_entities}

    def take(name: str) -> np.ndarray:
        if pending.get(name) is None:
            raise RuntimeError("score_bce gradient was already taken; rebuild the loss")
        return pending.pop(name)

    def vjp_z(g):
        d = take("z")
        d *= float(g) / size
        return d

    def add_entities(g) -> None:
        add_scaled(entities, take("entities"), float(g) / size)

    return node(np.float64(value), (z, entities), (vjp_z, add_entities))


def _bce_block(u, out, e, scratch, off: float) -> tuple:
    """BCE partial sums over one block of logits ``u`` whose targets are all
    ``off``; leaves the residual sigmoid(u) - off in ``out``, which may be
    ``u`` itself. The caller corrects the positives.

    Returns sum(log1p(exp(-|u|))), sum(max(u, 0)) and sum(u). ``e`` and
    ``scratch`` are buffers shaped like ``u``.
    """
    np.abs(u, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    log1p_sum = np.log1p(e, out=scratch).sum()
    max_sum = np.maximum(u, 0.0, out=scratch).sum()
    u_sum = u.sum()
    _sigmoid(u, e, out, scratch)
    out -= off
    return log1p_sum, max_sum, u_sum


def _positive_residual(u: np.ndarray, on: float) -> np.ndarray:
    """sigmoid(u) - on for the logits of the positives, by the block formula."""
    e = np.exp(-np.abs(u))
    return _sigmoid(u, e, np.empty_like(u), np.empty_like(u)) - on


def _sigmoid(u: np.ndarray, e: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """exp(min(u, 0)) / (1 + e) with ``e = exp(-|u|)``: the logistic function
    without overflow and with full relative precision in both tails.

    exp(min(u, 0)) is e where u <= 0 and 1 where u > 0; since e <= 1 it is
    max(e, u > 0), which needs no second exponential. ``out`` may be ``u``.
    """
    np.greater(u, 0.0, out=out, casting="unsafe")
    np.maximum(e, out, out=out)
    np.divide(out, np.add(e, 1.0, out=scratch), out=out)
    return out


class EmbeddingModel:
    """Entity/relation tables plus model-specific parameters and batchnorm.

    ``n_relations`` counts relations after reciprocal augmentation. Tables
    start as N(0, 0.05) draws; the TuckER core and LowFER factors start
    uniform in [-0.1, 0.1], keeping initial logits O(1) at dimension 100.
    Given no ``rng``, they start zeroed on untouched pages instead, for a
    caller that reads every value in, such as a checkpoint restore.
    """

    def __init__(self, config: ModelConfig, n_entities: int, n_relations: int,
                 rng: np.random.Generator | None):
        self.config = config
        d_e, d_r = config.d_e, config.rel_dim

        def init(draw: str, a: float, b: float, shape: tuple) -> Parameter:
            """``rng.<draw>(a, b, shape)``, or unfilled without ``rng``."""
            return Parameter(zeros(shape) if rng is None else getattr(rng, draw)(a, b, shape))

        self.entity_embeddings = init("normal", 0.0, 0.05, (n_entities, d_e))
        self.relation_embeddings = init("normal", 0.0, 0.05, (n_relations, d_r))
        self.core = None
        self.u_factor = None
        self.v_factor = None
        if config.kind == "tucker":
            self.core = init("uniform", -0.1, 0.1, (d_e, d_r, d_e))
        elif config.kind == "lowfer":
            self.u_factor = init("uniform", -0.1, 0.1, (d_e, config.k_l * d_e))
            self.v_factor = init("uniform", -0.1, 0.1, (d_r, config.k_l * d_e))

        self.bn_input = BatchNorm(d_e) if config.use_batchnorm else None
        self.bn_output = BatchNorm(d_e) if config.use_batchnorm else None

    # -- state -----------------------------------------------------------------

    def state(self) -> dict:
        """Every tensor the model holds, by name: the parameters, then each
        batchnorm layer's tensors as ``bn_input.<name>`` or ``bn_output.<name>``."""
        tensors = {
            "entity_embeddings": self.entity_embeddings,
            "relation_embeddings": self.relation_embeddings,
            "core": self.core,
            "u_factor": self.u_factor,
            "v_factor": self.v_factor,
        }
        tensors = {name: t for name, t in tensors.items() if t is not None}
        for prefix, bn in (("bn_input", self.bn_input), ("bn_output", self.bn_output)):
            if bn is not None:
                tensors.update((f"{prefix}.{n}", t) for n, t in bn.state().items())
        return tensors

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

    def query_vectors(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """The regularized interaction vector z of each (head, relation)
        query row; its logits are z contracted with the entity table."""
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
        return dropout(z, cfg.dropout3, rng, training)

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
        :func:`score_bce` without building the logits.
        """
        z = self.query_vectors(heads, relations, training, rng)
        if targets is None:
            return matmul(z, transpose(self.entity_embeddings))
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

    Counts the tensors of the model's and block's ``state()`` that take a
    gradient, on an unfilled model and block: their tables map untouched
    pages and draw nothing. Batchnorm running stats take none.
    """
    components = [EmbeddingModel(config, n_entities, n_relations, None)]
    if isd_k_b is not None and isd_batch_size is not None:
        components.append(SemanticBlock(config.d_e, n_entities, isd_batch_size, isd_k_b, rng=None))
    return sum(t.data.size for c in components for t in c.state().values() if t.requires_grad)
