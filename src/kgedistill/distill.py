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

from .autodiff import Parameter, Tensor, as_tensor, gather_rows, matmul, mean, no_grad, reshape
from .config import DistillConfig
from .data import Batch
from .errors import ShapeError
from .kernels import kl_divergence, softmax_temp
from .rng import RngState

__all__ = [
    "DistillConfig",
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
    return softmax_temp(reshape(logits, (logits.shape[1],)), 1.0)


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
    """Temperature-softened KL from the student vector to the teacher vector.

    Both vectors are softened with the same temperature; the loss is
    (T^2 / d) * KL(p_student || p_teacher). The teacher side is detached
    internally, so no gradient ever reaches it.
    """
    student = as_tensor(student)
    teacher_data = teacher.data if isinstance(teacher, Tensor) else np.asarray(teacher, dtype=np.float64)
    if student.shape != teacher_data.shape:
        raise ShapeError(f"student/teacher length mismatch: {student.shape} vs {teacher_data.shape}")
    p_student = softmax_temp(student, temperature)
    with no_grad():
        p_teacher = softmax_temp(Tensor(teacher_data), temperature)
    d = student.shape[0]
    return kl_divergence(p_student, p_teacher) * (temperature * temperature / d)


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
