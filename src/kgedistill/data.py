"""Triple ingestion, reciprocal augmentation, filter indices, and batching.

Datasets are directories holding ``train.txt``, ``valid.txt`` and
``test.txt``, one tab-separated ``head\\trelation\\ttail`` triple per line.
Entity and relation names are opaque strings; ids are assigned densely in
first-appearance order scanning train, then valid, then test, so loading is
fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

_SPLITS = ("train", "valid", "test")

# Suffix appended to a relation name for its synthetic inverse.
RECIPROCAL_SUFFIX = "_reciprocal"


@dataclass
class Vocabulary:
    """Dense, contiguous string-to-id maps for entities and relations."""

    entities: list[str] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)
    entity_ids: dict[str, int] = field(default_factory=dict)
    relation_ids: dict[str, int] = field(default_factory=dict)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def add_entity(self, name: str) -> int:
        idx = self.entity_ids.get(name)
        if idx is None:
            idx = len(self.entities)
            self.entity_ids[name] = idx
            self.entities.append(name)
        return idx

    def add_relation(self, name: str) -> int:
        idx = self.relation_ids.get(name)
        if idx is None:
            idx = len(self.relations)
            self.relation_ids[name] = idx
            self.relations.append(name)
        return idx


@dataclass
class TripleStore:
    """Id-encoded train/valid/test triples plus their vocabulary.

    ``base_relation_count`` is the relation count before reciprocal
    augmentation; an augmented store has twice that many relation ids, and
    relation ``r + base_relation_count`` is the inverse of relation ``r``.
    """

    vocab: Vocabulary
    train: np.ndarray  # (n, 3) int64
    valid: np.ndarray
    test: np.ndarray
    base_relation_count: int

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        return self.vocab.n_relations

    @property
    def augmented(self) -> bool:
        return self.vocab.n_relations == 2 * self.base_relation_count and self.base_relation_count > 0

    def split(self, name: str) -> np.ndarray:
        if name not in _SPLITS:
            raise ValueError(f"unknown split {name!r}, expected one of {_SPLITS}")
        return getattr(self, name)

    def stats(self) -> dict:
        return {
            "entities": self.n_entities,
            "relations": self.n_relations,
            "base_relations": self.base_relation_count,
            "train": int(len(self.train)),
            "valid": int(len(self.valid)),
            "test": int(len(self.test)),
        }


def _read_split(path: Path, vocab: Vocabulary) -> np.ndarray:
    if not path.is_file():
        raise IOError(f"dataset file not found: {path}")
    rows = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h, r, t = fields
            triple = (vocab.add_entity(h), vocab.add_relation(r), vocab.add_entity(t))
            if triple in seen:
                continue
            seen.add(triple)
            rows.append(triple)
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def load_dataset(directory: str | Path) -> TripleStore:
    """Load a dataset directory into an id-encoded store.

    The vocabulary covers the union of all three splits; entities or
    relations that appear only in valid/test still get ids. Duplicate lines
    within a split are dropped.
    """
    directory = Path(directory)
    vocab = Vocabulary()
    splits = {name: _read_split(directory / f"{name}.txt", vocab) for name in _SPLITS}
    return TripleStore(
        vocab=vocab,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        base_relation_count=vocab.n_relations,
    )


def save_dataset(store: TripleStore, directory: str | Path) -> None:
    """Write the store back to train/valid/test files (inverse of load)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ents, rels = store.vocab.entities, store.vocab.relations
    for name in _SPLITS:
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as fh:
            for h, r, t in store.split(name):
                fh.write(f"{ents[h]}\t{rels[r]}\t{ents[t]}\n")


def augment_reciprocal(store: TripleStore) -> TripleStore:
    """Add an inverse triple (t, r', h) for every (h, r, t) in every split.

    The relation vocabulary doubles; original ids are unchanged, and the
    inverse of relation ``r`` is ``r + N_r``. Head prediction then reduces
    to tail prediction under the inverse relation.
    """
    if store.augmented:
        raise ValueError("store is already reciprocal-augmented")
    n_rel = store.vocab.n_relations
    vocab = Vocabulary(
        entities=list(store.vocab.entities),
        relations=list(store.vocab.relations) + [r + RECIPROCAL_SUFFIX for r in store.vocab.relations],
        entity_ids=dict(store.vocab.entity_ids),
        relation_ids=dict(store.vocab.relation_ids),
    )
    for i, name in enumerate(store.vocab.relations):
        vocab.relation_ids[name + RECIPROCAL_SUFFIX] = n_rel + i

    def double(split: np.ndarray) -> np.ndarray:
        if len(split) == 0:
            return split.copy()
        inverse = split[:, [2, 1, 0]].copy()
        inverse[:, 1] += n_rel
        return np.concatenate([split, inverse], axis=0)

    return TripleStore(
        vocab=vocab,
        train=double(store.train),
        valid=double(store.valid),
        test=double(store.test),
        base_relation_count=n_rel,
    )


class FilterIndex:
    """Every tail observed in any split, per (head, relation) query, in CSR form.

    A query is coded as ``head * n_relations + relation``. ``keys`` holds the
    distinct codes, sorted; the tails of ``keys[i]`` are
    ``indices[indptr[i]:indptr[i + 1]]``, sorted and distinct. Only queries
    that occur get a row, so the index grows with the number of triples, not
    with ``n_entities * n_relations``.
    """

    def __init__(self, keys: np.ndarray, indptr: np.ndarray, indices: np.ndarray, n_relations: int):
        self.keys = keys
        self.indptr = indptr
        self.indices = indices
        self.n_relations = n_relations

    def rows(self, heads, relations) -> tuple[np.ndarray, np.ndarray]:
        """``(start, stop)`` of each query's tails in ``indices``.

        An unseen query, including one whose relation id is out of range,
        gets the empty row ``(0, 0)``.
        """
        heads = np.asarray(heads, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        codes = heads * self.n_relations + relations
        n_keys = len(self.keys)
        pos = np.searchsorted(self.keys, codes)
        found = (relations >= 0) & (relations < self.n_relations) & (pos < n_keys)
        found[found] = self.keys[pos[found]] == codes[found]
        start = np.where(found, self.indptr[pos], 0)
        stop = np.where(found, self.indptr[np.minimum(pos + 1, n_keys)], 0)
        return start, stop

    def tails(self, head: int, relation: int) -> np.ndarray:
        """All known true tails for the query, sorted; empty if unseen."""
        start, stop = self.rows([head], [relation])
        return self.indices[start[0] : stop[0]]

    def batch_tails(self, heads, relations) -> tuple[np.ndarray, np.ndarray]:
        """``(row, tail)`` pairs: every known tail of every query, row by row.

        ``row`` is the query's position in ``heads``/``relations``.
        """
        start, stop = self.rows(heads, relations)
        counts = stop - start
        rows = np.repeat(np.arange(len(counts)), counts)
        # Pair k of a query's run reads indices[start + k].
        runs = np.cumsum(counts) - counts
        return rows, self.indices[np.arange(counts.sum()) + np.repeat(start - runs, counts)]

    def __len__(self) -> int:
        return len(self.keys)


def build_filter_index(store: TripleStore) -> FilterIndex:
    """Index train, valid and test tails for filtered ranking.

    Call after reciprocal augmentation so head queries (inverse relations)
    are covered too.
    """
    triples = np.concatenate([store.split(name) for name in _SPLITS])
    codes = triples[:, 0] * store.n_relations + triples[:, 1]
    order = np.lexsort((triples[:, 2], codes))
    codes, tails = codes[order], triples[order, 2]
    distinct = np.ones(len(codes), dtype=bool)
    distinct[1:] = (codes[1:] != codes[:-1]) | (tails[1:] != tails[:-1])
    codes, tails = codes[distinct], tails[distinct]
    keys, starts = np.unique(codes, return_index=True)
    return FilterIndex(keys, np.append(starts, len(codes)), tails, store.n_relations)


@dataclass(frozen=True, eq=False)
class SparseTargets:
    """A multi-label target matrix of ``shape`` held as its positives.

    Entry ``(rows[k], cols[k])`` holds ``on`` and every other entry holds
    ``off``; positions are distinct and sorted row-major. One-to-N training
    rows have a handful of positives among tens of thousands of entities,
    so this form is a few kilobytes where the dense matrix is ~160 MB.
    """

    rows: np.ndarray
    cols: np.ndarray
    shape: tuple
    on: float = 1.0
    off: float = 0.0

    def __post_init__(self):
        n_rows, n_cols = (int(n) for n in self.shape)
        object.__setattr__(self, "shape", (n_rows, n_cols))
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(f"sparse targets: row ids {rows.shape} vs column ids {cols.shape}")
        for name, ids, bound in (("row", rows, n_rows), ("column", cols, n_cols)):
            if ids.size and (ids.min() < 0 or ids.max() >= bound):
                raise ValueError(f"sparse targets: {name} id outside [0, {bound})")
        flat = np.unique(rows * n_cols + cols)
        object.__setattr__(self, "rows", flat // n_cols)
        object.__setattr__(self, "cols", flat % n_cols)

    def dense(self) -> np.ndarray:
        y = np.full(self.shape, self.off)
        y[self.rows, self.cols] = self.on
        return y


@dataclass
class Batch:
    """A block of (head, relation) queries with their training tails.

    ``targets()`` gives the multi-label 0/1 matrix in sparse form; call its
    ``dense()`` for the full ``len(batch)`` x ``n_entities`` array, which at
    40k-entity scale is ~160 MB.
    """

    heads: np.ndarray
    relations: np.ndarray
    tails: tuple
    n_entities: int

    def __len__(self) -> int:
        return len(self.heads)

    def targets(self) -> SparseTargets:
        """1 at each (row, training tail), 0 elsewhere."""
        rows = np.repeat(np.arange(len(self.tails)), [len(t) for t in self.tails])
        cols = np.concatenate(self.tails) if self.tails else rows
        return SparseTargets(rows, cols, (len(self.heads), self.n_entities))


def group_queries(store: TripleStore) -> list:
    """Distinct (head, relation) train queries with their tail id arrays.

    Queries come in order of first appearance in the train split, and each
    query's tails in train order, so the result is deterministic for a
    given store.
    """
    train = store.train
    if len(train) == 0:
        return []
    codes = train[:, 0] * store.n_relations + train[:, 1]
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    bounds = np.append(starts, len(codes)).tolist()
    first = order[starts]  # the train row where each query first appears
    tails = train[order, 2]
    groups = np.argsort(first)
    heads, relations = train[first[groups], 0].tolist(), train[first[groups], 1].tolist()
    return [
        (h, r, tails[bounds[g] : bounds[g + 1]])
        for g, h, r in zip(groups.tolist(), heads, relations)
    ]


def make_batches(
    store: TripleStore,
    batch_size: int,
    rng: np.random.Generator,
    queries: list | None = None,
) -> list[Batch]:
    """Shuffle distinct train queries and group them into full batches.

    The final partial batch is dropped: the distillation block's expanding
    projection has a fixed row count, so every batch must have exactly
    ``batch_size`` rows. Pass ``queries`` (from :func:`group_queries`) to
    avoid regrouping on every epoch.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if queries is None:
        queries = group_queries(store)
    if batch_size > len(queries):
        raise ConfigError(
            f"batch_size {batch_size} exceeds the {len(queries)} distinct train queries"
        )
    order = rng.permutation(len(queries))
    n_batches = len(queries) // batch_size
    batches = []
    for b in range(n_batches):
        idx = order[b * batch_size : (b + 1) * batch_size]
        chosen = [queries[i] for i in idx]
        batches.append(
            Batch(
                heads=np.asarray([c[0] for c in chosen], dtype=np.int64),
                relations=np.asarray([c[1] for c in chosen], dtype=np.int64),
                tails=tuple(c[2] for c in chosen),
                n_entities=store.n_entities,
            )
        )
    return batches


def label_smooth(targets: SparseTargets, epsilon: float) -> SparseTargets:
    """Blend hard targets toward uniform: (1 - eps) * y + eps / N.

    Maps the ``on`` and ``off`` values of the sparse targets by that
    formula, so the result stays exact and sparse.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"label smoothing must lie in [0, 1), got {epsilon}")
    if epsilon == 0.0:
        return targets
    n = targets.shape[-1]
    return replace(
        targets,
        on=(1.0 - epsilon) * targets.on + epsilon / n,
        off=(1.0 - epsilon) * targets.off + epsilon / n,
    )
