"""Filtered link-prediction ranking: MRR and Hits@k over both directions.

Every known-true completion other than the target is removed from the
candidate list before ranking. Head prediction is realized as tail
prediction under the reciprocal relation, so a single scoring pass per
direction suffices. Ties share the average of the tied positions, which
keeps constant-score degenerate models honest.

Ranking is array-native: each block of query rows is scored in one forward
pass and ranked by one kernel. The kernel counts, per row, the candidates
scoring above and equal to the target, then subtracts the known-true
candidates, gathered from the :class:`FilterIndex` CSR rows with the target
itself left in. The rank is ``1 + greater + ties / 2``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import no_grad
from .data import FilterIndex, TripleStore
from .errors import ConfigError
from .models import EmbeddingModel

# Score elements compared per pass of the ranking kernel, so the boolean
# mask it reuses stays small.
_RANK_BLOCK = 1 << 17


def _rank_rows(
    scores: np.ndarray, true_ids: np.ndarray, known_rows: np.ndarray, known_ids: np.ndarray
) -> np.ndarray:
    """Filtered average-tie rank of ``true_ids[i]`` within ``scores[i]``.

    Entity ``known_ids[k]`` is a known-true candidate of row
    ``known_rows[k]``; the pairs must be distinct, and a pair naming the
    row's target is ignored.
    """
    n_rows, n_cols = scores.shape
    target = scores[np.arange(n_rows), true_ids]
    greater = np.empty(n_rows, dtype=np.int64)
    equal = np.empty(n_rows, dtype=np.int64)
    step = max(1, _RANK_BLOCK // n_cols)
    mask = np.empty((min(step, n_rows), n_cols), dtype=bool)
    for start in range(0, n_rows, step):
        block, block_target = scores[start : start + step], target[start : start + step, None]
        m = mask[: len(block)]
        for out, compare in ((greater, np.greater), (equal, np.equal)):
            compare(block, block_target, out=m)
            for i in range(len(block)):
                out[start + i] = np.count_nonzero(m[i])
    known = known_ids != true_ids[known_rows]
    rows, ids = known_rows[known], known_ids[known]
    values, t = scores[rows, ids], target[rows]
    greater -= np.bincount(rows[values > t], minlength=n_rows)
    ties = equal - 1 - np.bincount(rows[values == t], minlength=n_rows)
    return 1.0 + greater + ties / 2.0


def filtered_rank(scores: np.ndarray, true_id: int, filter_ids) -> float:
    """Rank of the true entity after removing other known-true candidates.

    ``filter_ids`` are the known true completions for the query, in any
    order and possibly repeated; the true entity itself always stays in the
    candidate list. The true entity and k candidates tied with it share rank
    1 + greater + k/2.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if not 0 <= true_id < n:
        raise IndexError(f"true entity id {true_id} out of range for {n} scores")
    filter_ids = np.unique(np.asarray(filter_ids, dtype=np.int64))
    if filter_ids.size and not (0 <= filter_ids[0] and filter_ids[-1] < n):
        raise IndexError(f"filter ids outside [0, {n})")
    rows = np.zeros(filter_ids.size, dtype=np.int64)
    return float(_rank_rows(scores[None, :], np.array([true_id]), rows, filter_ids)[0])


def rank_split(
    model: EmbeddingModel,
    store: TripleStore,
    filter_index: FilterIndex,
    split: str = "test",
    batch_size: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Head- and tail-direction filtered ranks for every original triple.

    Returns ``(head_ranks, tail_ranks)`` aligned with the split's
    original-direction triples (reciprocal copies are skipped). Each block
    of ``batch_size`` queries is scored in one forward pass and ranked as a
    whole; its scores are dropped before the next block is scored.
    """
    if not store.augmented:
        raise ConfigError("ranking requires a reciprocal-augmented store")
    triples = store.split(split)
    triples = triples[triples[:, 1] < store.base_relation_count]
    if len(triples) == 0:
        raise ConfigError(f"split {split!r} has no triples to rank")

    n_rel = store.base_relation_count

    def direction_ranks(queries_h, queries_r, true_ids):
        ranks = np.empty(len(queries_h))
        for start in range(0, len(queries_h), batch_size):
            block = slice(start, start + batch_size)
            with no_grad():
                logits = model.forward(queries_h[block], queries_r[block]).data
            known = filter_index.batch_tails(queries_h[block], queries_r[block])
            ranks[block] = _rank_rows(logits, true_ids[block], *known)
            del logits
        return ranks

    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    tail_ranks = direction_ranks(heads, rels, tails)
    head_ranks = direction_ranks(tails, rels + n_rel, heads)
    return head_ranks, tail_ranks


def _direction_metrics(ranks: np.ndarray) -> dict:
    # Summing sorted reciprocals makes the result independent of triple order.
    recip = np.sort(1.0 / ranks)
    n = len(ranks)
    return {
        "mrr": float(recip.sum() / n),
        "h1": float((ranks <= 1).sum() / n),
        "h3": float((ranks <= 3).sum() / n),
        "h10": float((ranks <= 10).sum() / n),
    }


def evaluate(
    model: EmbeddingModel,
    store: TripleStore,
    filter_index: FilterIndex,
    split: str = "test",
    batch_size: int = 512,
) -> dict:
    """Filtered MRR and Hits@{1,3,10}, averaged over both directions.

    Returns ``{"mrr", "h1", "h3", "h10"}`` as head/tail means, then the
    per-direction dicts under ``"head"`` and ``"tail"`` and the number of
    ranked triples under ``"n_test"``.
    """
    head_ranks, tail_ranks = rank_split(model, store, filter_index, split, batch_size)
    head, tail = _direction_metrics(head_ranks), _direction_metrics(tail_ranks)
    report = {key: (head[key] + tail[key]) / 2.0 for key in head}
    report.update(head=head, tail=tail, n_test=int(len(head_ranks)))
    return report
