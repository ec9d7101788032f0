"""Filtered link-prediction ranking: MRR and Hits@k over both directions.

Every known-true completion other than the target is removed from the
candidate list before ranking. Head prediction is realized as tail
prediction under the reciprocal relation, so a single scoring pass per
direction suffices. Ties share the average of the tied positions, which
keeps constant-score degenerate models honest. The rank is
``1 + greater + ties / 2``.

Ranking is array-native and exact. Each block of query rows is ranked in
one pass over blocks of entity columns on the worker pool, each scored in
float32 against a float32 copy of the entity table; float32 only filters.
Every rank rests on a float64 comparison: the target's score is taken in
float64, and a candidate counts as greater on its float32 score
alone only when that score clears the target's by more than the rounding
error of both precisions can span (:class:`_BlockRanker`). The candidates
within that window are rescored in float64 by the routine that scores the
target, so equal entity rows stay tied. The ranks are those of ranking the
float64 logits of :meth:`~kgedistill.models.EmbeddingModel.forward`
directly, up to the rounding of float64 scores that differ by a few units
in the last place, and they do not depend on how the columns are split
or on the number of workers.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import _one_blas_thread, _run_blocks, no_grad, zeros
from .data import FilterIndex, TripleStore
from .errors import ConfigError
from .models import EmbeddingModel

# Elements of the float64 products rescored per pass: the pass's scratch
# stays below glibc's default mmap threshold, so it is reused from the heap
# instead of being mapped afresh.
_RESCORE_ELEMENTS = 1 << 14
# Entity columns ranked per block. At 512 queries a block's float32 scores
# and its two masks take 3 MB, which stay in cache from the product through
# the count; of widths from 128 to 4,096 this was the fastest on 2 cores.
_RANK_COLUMNS = 1 << 10
# Unit roundoff of float32 and float64, and the largest error of rounding to
# float32 in its subnormal range (half the smallest subnormal).
_U32, _U64, _ETA32 = 2.0**-24, 2.0**-53, 2.0**-150
# Query and entity norms, and their products, below this bound cannot
# overflow a float32 product or sum, with room for its rounding error.
_F32_SAFE = float(np.finfo(np.float32).max) / 2


def filtered_rank(scores: np.ndarray, true_id: int, filter_ids) -> float:
    """Rank of the true entity after removing other known-true candidates.

    ``filter_ids`` are the known true completions for the query, in any
    order and possibly repeated; the true entity itself always stays in the
    candidate list. The true entity and k candidates tied with it share rank
    1 + greater + k/2. A NaN target score equals nothing, itself included,
    so has no rank: it raises ``ValueError``. A NaN candidate is not counted.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if not 0 <= true_id < n:
        raise IndexError(f"true entity id {true_id} out of range for {n} scores")
    filter_ids = np.unique(np.asarray(filter_ids, dtype=np.int64))
    if filter_ids.size and not (0 <= filter_ids[0] and filter_ids[-1] < n):
        raise IndexError(f"filter ids outside [0, {n})")
    target, removed = scores[true_id], scores[filter_ids[filter_ids != true_id]]
    if np.isnan(target):
        raise ValueError(f"the score of true entity {true_id} is NaN")
    greater = np.count_nonzero(scores > target) - np.count_nonzero(removed > target)
    # The target's own equality is counted and taken off again.
    ties = np.count_nonzero(scores == target) - 1 - np.count_nonzero(removed == target)
    return 1.0 + greater + ties / 2.0


def _dots(z: np.ndarray, entities: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``z[rows[k]] . entities[cols[k]]`` for every ``k``, in float64.

    Each dot is a product of two contiguous rows summed along them, so its
    bits depend only on the two rows, not on the other pairs or the pass
    they share.
    """
    out = np.empty(len(rows))
    step = max(1, _RESCORE_ELEMENTS // z.shape[1])
    for start in range(0, len(rows), step):
        pair = slice(start, start + step)
        np.multiply(z[rows[pair]], entities[cols[pair]]).sum(axis=1, out=out[pair])
    return out


class _BlockRanker:
    """Certified filtered ranks of blocks of query vectors against one table.

    Each block of queries is ranked in one pass over blocks of
    ``_RANK_COLUMNS`` entity columns, run on the worker pool
    (:func:`~kgedistill.autodiff._run_blocks`) with numpy's OpenBLAS held to
    one thread. For its column block a worker scores the block's entities
    against every query in float32, marks the scores above each row's window
    and those within it, clears the pairs that are not ranked (the row's
    known-true candidates and its own target), counts the marks above per
    query and rescores the ones within in float64 (:func:`_dots`), while the
    block is still in cache.

    The scratch lives on mappings of its own (:func:`~kgedistill.autodiff.zeros`),
    used for every block of a :func:`rank_split` call and handed back to the
    system when the ranker is dropped: a float32 copy of the table, made
    here, and one set per worker running at once, made when a worker finds
    none free, of a column block's float32 scores against ``n_rows``
    queries and two boolean masks of that shape.

    The window. A float32 score differs from the exact dot z . e by at most
    gamma(d + 2, 2^-24) sum_k |z_k||e_k| plus an underflow term
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.1;
    the d + 2 counts both roundings to float32 and one per product and
    sum), and a float64 score by gamma(d, 2^-53) times the same sum. By
    Cauchy-Schwarz that sum is at most ||z|| max_e ||e||, so
    w = (gamma(d + 2, 2^-24) + 2 gamma(d + 2, 2^-53)) ||z|| max_e ||e||
    + 2^-149 (sqrt(d) (||z|| + max_e ||e||) + 2d) bounds the distance
    between a candidate's float32 score and its float64 one, with room for
    the rounding of w and of the target's score t plus w. A candidate whose
    float32 score exceeds t + w therefore has a float64 score above t, and
    one below t - w a float64 score below it. The bounds are rounded
    outwards to float32, so the masks compare float32 with float32.

    The bound holds for any order of summation, so how the product is split
    into column blocks, and which worker scores a block, decides no rank: a
    float32 score only sorts a candidate into above, within or below the
    window, and every candidate within it is rescored in float64 by one
    routine whose bits depend only on the two rows. The counts are integers.

    A row whose window is not finite in float32 (a norm or their product
    near the float32 range, or NaN) gets the window (-inf, inf): every
    candidate is rescored in float64, as are NaN float32 scores, since the
    window holds every score that is neither below nor above it.
    """

    def __init__(self, entities: np.ndarray, n_rows: int):
        self.entities = entities
        n_ent, dim = entities.shape
        with np.errstate(over="ignore", invalid="ignore"):
            self.table = zeros(entities.shape, np.float32)
            self.table[...] = entities
            # NaN if any row is NaN, so that every window then opens fully.
            self.e_max = math.sqrt(np.max(np.einsum("ij,ij->i", entities, entities)))
        self.cols = min(_RANK_COLUMNS, n_ent)
        self.scratch_size = self.cols * n_rows
        # Scratch sets no worker holds; list.pop and list.append are atomic.
        self.free: list = []
        n = dim + 2
        self.gamma = n * _U32 / (1 - n * _U32) + 2 * n * _U64 / (1 - n * _U64)

    def ranks(self, z, true_ids, known_rows, known_ids) -> np.ndarray:
        """Filtered average-tie rank of ``true_ids[i]`` against query ``z[i]``.

        Entity ``known_ids[k]`` is a known-true candidate of row
        ``known_rows[k]``; a pair naming the row's target is ignored. A NaN
        target score raises ``ValueError``.
        """
        n_rows, dim = z.shape
        n_ent = self.table.shape[0]
        rows = np.arange(n_rows)
        target = _dots(z, self.entities, rows, true_ids)
        if np.isnan(target).any():
            raise ValueError(f"the score of true entity {true_ids[np.isnan(target)][0]} is NaN")
        with np.errstate(over="ignore", invalid="ignore"):
            z32 = z.astype(np.float32)
            z_norm = np.sqrt(np.einsum("ij,ij->i", z, z))
            bound = z_norm * self.e_max
            finite = np.maximum(np.maximum(z_norm, self.e_max), bound) < _F32_SAFE
            width = self.gamma * bound + 2 * _ETA32 * (math.sqrt(dim) * (z_norm + self.e_max) + 2 * dim)
            width, center = np.where(finite, width, np.inf), np.where(finite, target, 0.0)
            hi = np.nextafter((center + width).astype(np.float32), np.float32(np.inf))
            lo = np.nextafter((center - width).astype(np.float32), np.float32(-np.inf))
        # The pairs not ranked, sorted by entity: column block i clears
        # entries bounds[i]:bounds[i + 1].
        keep = known_ids != true_ids[known_rows]
        skip_ids = np.concatenate([known_ids[keep], true_ids])
        by_id = np.argsort(skip_ids)
        skip_ids, skip_rows = skip_ids[by_id], np.concatenate([known_rows[keep], rows])[by_id]
        cols = self.cols
        n_blocks = -(-n_ent // cols)
        bounds = np.searchsorted(skip_ids, np.arange(n_blocks + 1) * cols)
        # A block's count per query is at most its width.
        count_type = np.min_scalar_type(cols)
        counts = []

        def rank_blocks(first: int, stop: int) -> None:
            above, equal = np.zeros(n_rows, np.int64), np.zeros(n_rows, np.int64)
            try:
                scratch = self.free.pop()
            except IndexError:  # every set made so far is held by another worker
                scratch = tuple(zeros(self.scratch_size, dtype) for dtype in (np.float32, bool, bool))
            try:
                for i in range(first, stop):
                    c0, c1 = i * cols, min((i + 1) * cols, n_ent)
                    scores, greater, window = (
                        buf[: (c1 - c0) * n_rows].reshape(c1 - c0, n_rows) for buf in scratch
                    )
                    # numpy's error state is per thread: the caller's does not reach here.
                    with np.errstate(over="ignore", invalid="ignore"):
                        np.matmul(self.table[c0:c1], z32.T, out=scores)
                    np.greater(scores, hi, out=greater)
                    np.less(scores, lo, out=window)
                    # lo <= hi, so no score is both below and above: the
                    # scores in the window, NaN among them, are those where
                    # the two masks agree.
                    np.equal(window, greater, out=window)
                    skip = skip_ids[bounds[i] : bounds[i + 1]] - c0, skip_rows[bounds[i] : bounds[i + 1]]
                    greater[skip] = False
                    window[skip] = False
                    above += greater.sum(axis=0, dtype=count_type)
                    pair_cols, pair_rows = np.divmod(np.flatnonzero(window), n_rows)
                    values, t = _dots(z, self.entities, pair_rows, pair_cols + c0), target[pair_rows]
                    above += np.bincount(pair_rows[values > t], minlength=n_rows)
                    equal += np.bincount(pair_rows[values == t], minlength=n_rows)
            finally:
                self.free.append(scratch)
            counts.append((above, equal))

        with _one_blas_thread():
            _run_blocks(n_blocks, rank_blocks, min_per_worker=1)
        above, equal = (sum(part) for part in zip(*counts))
        return 1.0 + above + equal / 2.0


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
    of ``batch_size`` queries is ranked in one pass over blocks of entity
    columns on the worker pool, each worker in scratch of its own made once
    per call and released on return, and every rank rests on a float64
    comparison (:class:`_BlockRanker`). A NaN target score raises
    ``ValueError``. The query vectors are formed with numpy's OpenBLAS held
    to one thread, the float32 scores only filter, within an error bound
    that holds however the product is split, and the float64 scores use no
    BLAS, so the ranks depend neither on the BLAS thread count nor on the
    worker count.
    """
    if not store.augmented:
        raise ConfigError("ranking requires a reciprocal-augmented store")
    triples = store.split(split)
    triples = triples[triples[:, 1] < store.base_relation_count]
    if len(triples) == 0:
        raise ConfigError(f"split {split!r} has no triples to rank")

    n_rel = store.base_relation_count
    ranker = _BlockRanker(model.entity_embeddings.data, min(batch_size, len(triples)))

    def direction_ranks(queries_h, queries_r, true_ids):
        ranks = np.empty(len(queries_h))
        for start in range(0, len(queries_h), batch_size):
            block = slice(start, start + batch_size)
            with no_grad(), _one_blas_thread():
                z = model.query_vectors(queries_h[block], queries_r[block]).data
            known = filter_index.batch_tails(queries_h[block], queries_r[block])
            ranks[block] = ranker.ranks(z, true_ids[block], *known)
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
