"""Filtered link-prediction ranking: MRR and Hits@k over both directions.

Every known-true completion other than the target is removed from the
candidate list before ranking. Head prediction is realized as tail
prediction under the reciprocal relation, so a single scoring pass per
direction suffices. Ties share the average of the tied positions, which
keeps constant-score degenerate models honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .data import FilterIndex, TripleStore
from .errors import ConfigError
from .models import EmbeddingModel

@dataclass
class DirectionMetrics:
    """MRR and Hits@k for one prediction direction."""

    mrr: float
    h1: float
    h3: float
    h10: float

    def to_dict(self) -> dict:
        return {"mrr": self.mrr, "h1": self.h1, "h3": self.h3, "h10": self.h10}


@dataclass
class MetricsReport:
    """Combined and per-direction filtered ranking metrics."""

    mrr: float
    h1: float
    h3: float
    h10: float
    head: DirectionMetrics
    tail: DirectionMetrics
    n_test: int

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "h1": self.h1,
            "h3": self.h3,
            "h10": self.h10,
            "head": self.head.to_dict(),
            "tail": self.tail.to_dict(),
            "n_test": self.n_test,
        }


def filtered_rank(scores: np.ndarray, true_id: int, filter_ids) -> float:
    """Rank of the true entity after removing other known-true candidates.

    ``filter_ids`` are the known true completions for the query; the true
    entity itself always stays in the candidate list. The true entity and
    k candidates tied with it share rank 1 + greater + k/2.
    """
    scores = np.asarray(scores)
    if not 0 <= true_id < scores.shape[0]:
        raise IndexError(f"true entity id {true_id} out of range for {scores.shape[0]} scores")
    keep = np.ones(scores.shape[0], dtype=bool)
    filter_ids = np.asarray(filter_ids, dtype=np.int64)
    if filter_ids.size:
        keep[filter_ids] = False
    keep[true_id] = True
    candidates = scores[keep]
    true_score = scores[true_id]
    greater = int((candidates > true_score).sum())
    ties = int((candidates == true_score).sum()) - 1
    return 1.0 + greater + ties / 2.0


def rank_split(
    model: EmbeddingModel,
    store: TripleStore,
    filter_index: FilterIndex,
    split: str = "test",
    batch_size: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Head- and tail-direction filtered ranks for every original triple.

    Returns ``(head_ranks, tail_ranks)`` aligned with the split's
    original-direction triples (reciprocal copies are skipped).
    """
    if not store.augmented:
        raise ConfigError("ranking requires a reciprocal-augmented store")
    triples = store.split(split)
    triples = triples[triples[:, 1] < store.base_relation_count]
    if len(triples) == 0:
        raise ValueError(f"split {split!r} has no triples to rank")

    n_rel = store.base_relation_count

    def direction_ranks(queries_h, queries_r, true_ids):
        ranks = np.empty(len(queries_h))
        for start in range(0, len(queries_h), batch_size):
            stop = min(start + batch_size, len(queries_h))
            with no_grad():
                logits = model.forward(queries_h[start:stop], queries_r[start:stop]).data
            for i in range(stop - start):
                h, r = int(queries_h[start + i]), int(queries_r[start + i])
                ranks[start + i] = filtered_rank(
                    logits[i], int(true_ids[start + i]), filter_index.tails(h, r)
                )
        return ranks

    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    tail_ranks = direction_ranks(heads, rels, tails)
    head_ranks = direction_ranks(tails, rels + n_rel, heads)
    return head_ranks, tail_ranks


def _direction_metrics(ranks: np.ndarray) -> DirectionMetrics:
    # Summing sorted reciprocals makes the result independent of triple order.
    recip = np.sort(1.0 / ranks)
    n = len(ranks)
    return DirectionMetrics(
        mrr=float(recip.sum() / n),
        h1=float((ranks <= 1).sum() / n),
        h3=float((ranks <= 3).sum() / n),
        h10=float((ranks <= 10).sum() / n),
    )


def evaluate(
    model: EmbeddingModel,
    store: TripleStore,
    filter_index: FilterIndex,
    split: str = "test",
    batch_size: int = 512,
) -> MetricsReport:
    """Filtered MRR and Hits@{1,3,10}, averaged over both directions."""
    head_ranks, tail_ranks = rank_split(model, store, filter_index, split, batch_size)
    head = _direction_metrics(head_ranks)
    tail = _direction_metrics(tail_ranks)
    return MetricsReport(
        mrr=(head.mrr + tail.mrr) / 2.0,
        h1=(head.h1 + tail.h1) / 2.0,
        h3=(head.h3 + tail.h3) / 2.0,
        h10=(head.h10 + tail.h10) / 2.0,
        head=head,
        tail=tail,
        n_test=int(len(head_ranks)),
    )
