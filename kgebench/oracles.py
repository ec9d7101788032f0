"""Bench-side reference computations that check the program's outputs.

Each oracle is written from the definitions, not from the package's code
path: the loss from its closed form over the sparse targets, the filtered
ranks from the generator's own triple sets, and the determinism check from
a digest of the exact per-epoch loss values.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def bce_reference(logits: np.ndarray, tails: list, epsilon: float) -> float:
    """mean(softplus(u) - y*u) with y = (1-eps)*onehot(tails) + eps/N.

    Expands y*u over the sparse positives instead of forming dense targets,
    and uses the max(u,0) + log1p(exp(-|u|)) form of softplus.
    """
    u = np.asarray(logits, dtype=np.float64)
    softplus = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    positive = sum(float(u[i, np.unique(t)].sum()) for i, t in enumerate(tails))
    weighted = (1.0 - epsilon) * positive + (epsilon / u.shape[1]) * float(u.sum())
    return (float(softplus.sum()) - weighted) / u.size


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


class TripleSets:
    """Known-true completions in both directions, from the generated triples.

    Built from the generator's id triples over all splits, translated into
    the loaded store's ids by entity and relation name, with no use of the
    package's filter index or reciprocal relations.
    """

    def __init__(self, splits: dict, entity_ids: dict, relation_ids: dict):
        triples = np.concatenate([t for t in splits.values() if len(t)])
        to_e = np.vectorize(lambda g: entity_ids[f"e{g}"], otypes=[np.int64])
        to_r = np.vectorize(lambda g: relation_ids[f"r{g}"], otypes=[np.int64])
        self.heads = to_e(triples[:, 0])
        self.rels = to_r(triples[:, 1])
        self.tails = to_e(triples[:, 2])

    def tails_of(self, head: int, rel: int) -> np.ndarray:
        return np.unique(self.tails[(self.heads == head) & (self.rels == rel)])

    def heads_of(self, tail: int, rel: int) -> np.ndarray:
        return np.unique(self.heads[(self.tails == tail) & (self.rels == rel)])


def rank_reference(scores: np.ndarray, true_id: int, known: np.ndarray) -> float:
    """Filtered rank under the average tie policy, counted candidate by candidate."""
    target = scores[true_id]
    excluded = set(int(k) for k in known) - {true_id}
    greater = ties = 0
    for cand in np.flatnonzero(scores >= target).tolist():
        if cand == true_id or cand in excluded:
            continue
        if scores[cand] > target:
            greater += 1
        else:
            ties += 1
    return 1.0 + greater + ties / 2.0


def rank_mismatches(score_rows, truths, knowns, ranks) -> list[tuple[int, float, float]]:
    """(position, program rank, reference rank) for every disagreeing sample."""
    bad = []
    for i, (scores, true_id, known, got) in enumerate(zip(score_rows, truths, knowns, ranks)):
        want = rank_reference(scores, true_id, known)
        if got != want:
            bad.append((i, float(got), want))
    return bad


def loss_digest(history: list[dict]) -> str:
    """SHA-256 over the exact bits of every per-epoch loss record."""
    exact = [
        {k: (float(v).hex() if isinstance(v, float) else v) for k, v in sorted(rec.items())}
        for rec in history
    ]
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()
