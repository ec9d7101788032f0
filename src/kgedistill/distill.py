"""Self-distillation: semantic extraction block, softened KL loss, schedule.

:func:`extract` turns the batch's head embeddings into one semantic vector:
the central feature c (the batch mean, projected), the semantic features K
(each row, projected), the partial similarities s (of each K_i to c), the
whole similarities q (s expanded to a distribution over all entities by a
learned bs-by-N projection and a softmax) and the semantic vector l (the
entity table mixed with weights q). The vector extracted after one optimizer
step becomes the detached teacher target for the next iteration.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, as_tensor, custom_node, gather_rows, matmul, mean, reshape
from .errors import ShapeError
from .kernels import softmax

__all__ = [
    "SemanticBlock",
    "TeacherCache",
    "beta_at_epoch",
    "distill_loss",
    "extract",
    "total_loss",
]


class SemanticBlock:
    """The three learned projections of the extraction pipeline.

    The expanding projection has exactly ``batch_size`` rows, which is why
    the trainer drops partial batches. All projections start as N(0, 0.02)
    draws and train through the student side of the distillation loss.
    """

    def __init__(self, embed_dim: int, n_entities: int, batch_size: int, k_b: int,
                 rng: np.random.Generator):
        self.batch_size = batch_size
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

def extract(heads: np.ndarray, entities: Tensor, block: SemanticBlock) -> Tensor:
    """The semantic vector of one batch, from its head entity ids.

    With X the batch's head rows of the entity table E: the central feature
    c = mean(X) W_C, the semantic features K = X W_F, the partial
    similarities s = K c (one per row), the whole similarities
    q = softmax(s W_P) over all entities, and the semantic vector l = q E.

    After reciprocal augmentation the heads of consecutive batches cover
    both triple directions, so the per-iteration inputs sweep the graph.
    """
    heads = np.asarray(heads, dtype=np.int64)
    bs = block.batch_size
    if len(heads) != bs:
        raise ShapeError(f"block is bound to batch size {bs}, got {len(heads)} rows")
    x = gather_rows(entities, heads)
    v = mean(x, axis=0)
    c = matmul(reshape(v, (1, v.shape[0])), block.w_central)
    s = matmul(matmul(x, block.w_features), reshape(c, (c.shape[1], 1)))
    logits = matmul(reshape(s, (1, bs)), block.w_expand)
    q = softmax(reshape(logits, (logits.shape[1],)))
    l = matmul(reshape(q, (1, q.shape[0])), entities)
    return reshape(l, (l.shape[1],))


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
