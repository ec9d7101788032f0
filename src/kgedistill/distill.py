"""Self-distillation: semantic extraction block, softened KL loss, schedule.

The block turns the current mini-batch's entity embeddings into a single
semantic vector: average the batch rows and project (central feature c),
project each row (features K), take inner products (similarities s over the
batch), expand to a distribution over all entities (q, via a learned
bs-by-N projection and a softmax), and mix the full embedding table with
those weights (vector l). The vector extracted after one optimizer step
becomes the detached teacher target for the next iteration.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, as_tensor, custom_node, gather_rows, matmul, mean, reshape
from .data import Batch
from .errors import ShapeError
from .kernels import softmax
from .rng import RngState

__all__ = [
    "SemanticBlock",
    "TeacherCache",
    "beta_at_epoch",
    "central_feature",
    "distill_loss",
    "extract",
    "partial_similarities",
    "semantic_features",
    "semantic_information",
    "total_loss",
    "whole_similarities",
]


class SemanticBlock:
    """The three learned projections of the extraction pipeline.

    The expanding projection has exactly ``batch_size`` rows, which is why
    the trainer drops partial batches. All projections start as N(0, 0.02)
    draws and train through the student side of the distillation loss.
    """

    def __init__(self, embed_dim: int, n_entities: int, batch_size: int, k_b: int, rng: RngState):
        self.embed_dim = embed_dim
        self.n_entities = n_entities
        self.batch_size = batch_size
        self.k_b = k_b
        self.w_central = Parameter(rng.normal(0.0, 0.02, (embed_dim, k_b)))
        self.w_features = Parameter(rng.normal(0.0, 0.02, (embed_dim, k_b)))
        self.w_expand = Parameter(rng.normal(0.0, 0.02, (batch_size, n_entities)))

    def named_parameters(self) -> list:
        return [
            ("w_central", self.w_central),
            ("w_features", self.w_features),
            ("w_expand", self.w_expand),
        ]


class TeacherCache:
    """The detached semantic vector from the previous training iteration.

    Empty until the first iteration completes; never part of any gradient.
    """

    def __init__(self, vector: np.ndarray | None = None):
        self.vector = None if vector is None else np.asarray(vector, dtype=np.float64)

    @property
    def present(self) -> bool:
        return self.vector is not None

    def refresh(self, vector: np.ndarray) -> None:
        self.vector = np.array(vector, dtype=np.float64, copy=True)


# ---------------------------------------------------------------------------
# Extraction pipeline
# ---------------------------------------------------------------------------

def central_feature(batch_embeddings: Tensor, w_central: Tensor) -> Tensor:
    """c = mean of the batch rows, projected to width k_b."""
    batch_embeddings = as_tensor(batch_embeddings)
    v = mean(batch_embeddings, axis=0)
    c = matmul(reshape(v, (1, v.shape[0])), w_central)
    return reshape(c, (c.shape[1],))


def semantic_features(batch_embeddings: Tensor, w_features: Tensor) -> Tensor:
    """K = per-row projection of the batch embeddings, shape (bs, k_b)."""
    return matmul(as_tensor(batch_embeddings), w_features)


def partial_similarities(central: Tensor, features: Tensor) -> Tensor:
    """s_i = <c, K_i>: similarity of each batch row to the central feature."""
    central = as_tensor(central)
    s = matmul(features, reshape(central, (central.shape[0], 1)))
    return reshape(s, (s.shape[0],))


def whole_similarities(similarities: Tensor, w_expand: Tensor) -> Tensor:
    """q = softmax(s W_P): a distribution over all entities."""
    similarities = as_tensor(similarities)
    if similarities.shape[0] != w_expand.shape[0]:
        raise ShapeError(
            f"expanding projection expects {w_expand.shape[0]} similarities, "
            f"got {similarities.shape[0]}"
        )
    logits = matmul(reshape(similarities, (1, similarities.shape[0])), w_expand)
    return softmax(reshape(logits, (logits.shape[1],)))


def semantic_information(weights: Tensor, entities: Tensor) -> Tensor:
    """l = q E: a convex combination of entity embedding rows."""
    weights = as_tensor(weights)
    l = matmul(reshape(weights, (1, weights.shape[0])), entities)
    return reshape(l, (l.shape[1],))


def extract(batch: Batch | np.ndarray, entities: Tensor, block: SemanticBlock) -> Tensor:
    """Run the full pipeline on the batch's head entities.

    After reciprocal augmentation the heads of consecutive batches cover
    both triple directions, so the per-iteration inputs sweep the graph.
    """
    heads = batch.heads if isinstance(batch, Batch) else np.asarray(batch, dtype=np.int64)
    if len(heads) != block.batch_size:
        raise ShapeError(
            f"block is bound to batch size {block.batch_size}, got {len(heads)} rows"
        )
    batch_embeddings = gather_rows(entities, heads)
    c = central_feature(batch_embeddings, block.w_central)
    feats = semantic_features(batch_embeddings, block.w_features)
    s = partial_similarities(c, feats)
    q = whole_similarities(s, block.w_expand)
    return semantic_information(q, entities)


# ---------------------------------------------------------------------------
# Losses and schedule
# ---------------------------------------------------------------------------

def distill_loss(student: Tensor, teacher, temperature: float) -> Tensor:
    """(T^2 / d) KL(p || q) of the temperature-softened vectors, as one node.

    p = softmax(s / T) softens the student vector s and q = softmax(t / T)
    the teacher vector t, both of length d. The teacher is a constant: no
    gradient reaches it. The direction KL(student || teacher) is a choice;
    the paper's abstract does not fix it.

    Everything runs in log space on x = (s - t) / T, so the value keeps its
    relative precision when p and q nearly agree (at large T they differ
    only in the last digits of their entries). With y = x less its entry
    at the largest q, w = log p - log q = y - log(sum q e^y), and
    KL = sum q phi(w) where phi(w) = (w - 1) e^w + 1 >= 0: a sum of
    non-negative terms, with no cancellation between them. The value is
    finite wherever x is. The gradient with respect to s is
    (T / d) p (w - KL).

    As T grows, the loss tends to sum((x_i - mean(x))^2) / (2 d^2) with
    x = s - t, a centred squared error (Hinton et al. 2015, section 2.1).
    """
    student = as_tensor(student)
    t = teacher.data if isinstance(teacher, Tensor) else np.asarray(teacher, dtype=np.float64)
    if student.ndim != 1 or student.shape != t.shape:
        raise ShapeError(f"student/teacher vectors differ: {student.shape} vs {t.shape}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    d = student.shape[0]
    a = t / temperature
    a -= a.max()
    log_q = a - np.log(np.exp(a).sum())
    q = np.exp(log_q)
    x = (student.data - t) / temperature
    # w = y - log(sum q e^y), with y taken from the entry of largest q so
    # that log1p(sum q expm1(y)) has a term of 0 there and loses no digits
    # to a sum close to 1. Where expm1 would overflow, a plain log-sum-exp
    # of log q + y is taken instead.
    y = x - x[np.argmax(a)]
    if y.max() < 700.0:
        w = y - np.log1p(np.sum(q * np.expm1(y)))
    else:
        z = log_q + y
        w = y - (z.max() + np.log(np.sum(np.exp(z - z.max()))))
    p = np.exp(log_q + w)
    kl = float(np.sum(_q_phi(w, q, p)))
    value = temperature * temperature / d * kl

    def vjp(g):
        return g * (temperature / d) * p * (w - kl)

    return custom_node(np.float64(value), (student,), (vjp,))


def _q_phi(w: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q phi(w) = q ((w - 1) e^w + 1), with p = q e^w, accurate for every w.

    Near 0, phi(w) ~ w^2 / 2 is left over from terms near 1, so small |w|
    take the series of phi and moderate |w| the expm1 form; from |w| = 1
    on, p (w - 1) + q cannot overflow where q underflows.
    """
    out = p * (w - 1.0) + q
    mid = np.abs(w) < 1.0
    wm = w[mid]
    out[mid] = q[mid] * ((wm - 1.0) * np.expm1(wm) + wm)
    small = np.abs(w) < 2.0**-10
    ws = w[small]
    out[small] = q[small] * ws * ws * (0.5 + ws * (1 / 3 + ws * (1 / 8 + ws * (1 / 30 + ws / 144))))
    return out


def beta_at_epoch(epoch: int, total_epochs: int, beta_init: float) -> float:
    """Linearly decaying mixing weight: beta_init * (1 - ep / Ep)."""
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    beta = beta_init * (1.0 - epoch / total_epochs)
    return min(max(beta, 0.0), 1.0)


def total_loss(bce: Tensor, kl: Tensor, beta: float) -> Tensor:
    """(1 - beta) * bce + beta * kl, exact at the endpoints.

    Beta 0 returns the task loss unchanged (training is then identical to
    plain knowledge graph embedding); beta 1 returns the distillation loss.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if beta == 0.0:
        return as_tensor(bce)
    if beta == 1.0:
        return as_tensor(kl)
    return as_tensor(bce) * (1.0 - beta) + as_tensor(kl) * beta
