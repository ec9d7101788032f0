"""Triple ingestion, reciprocal augmentation, filter indices, and batching.

Datasets are directories holding ``train.txt``, ``valid.txt`` and
``test.txt``, one tab-separated ``head\\trelation\\ttail`` triple per line.
Entity and relation names are opaque strings; ids are assigned densely in
first-appearance order scanning train, then valid, then test, so loading is
fully deterministic.

Past the vocabulary, everything is held as numpy arrays: each split is
parsed in bulk into an ``(n, 3)`` id array, and grouped train queries and
filter indices are CSR arrays. No per-triple or per-query Python object
outlives the call that builds it.

Set-up orders triples by packing several ids into one int64 key and
sorting that key once, unstably: equal keys are equal tuples, so no sort
needs to be stable and none needs a second key. With ``N`` entities, ``R``
relations and ``m`` train rows the packed keys are

- the triple code ``(head * R + relation) * N + tail``, in ``N * R * N``
  values: :func:`_read_split` (base ``R``) finds repeated lines with it, and
  :func:`build_filter_index` (augmented ``R``) orders the filter index by it;
- the query row key ``(head * R + relation) * m + row``, in ``N * R * m``
  values: :func:`group_queries` groups the train rows by it.

Each key's value count must not exceed :data:`_KEY_BOUND` = 2**63, so that
every key fits an int64; :func:`_check_key_bound` checks it once, before the
key is packed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError

_SPLITS = ("train", "valid", "test")

# Suffix appended to a relation name for its synthetic inverse.
RECIPROCAL_SUFFIX = "_reciprocal"

# The number of values a packed int64 sort key may take: keys run from 0 to
# at most 2**63 - 1, the largest int64.
_KEY_BOUND = 2**63


def _check_key_bound(radices: tuple, what: str, error: type[ValueError]) -> None:
    """Raise ``error`` unless a key packed from ``radices`` (each digit below
    its radix) fits an int64: the product of the radices is its value count."""
    count = math.prod(radices)
    if count > _KEY_BOUND:
        raise error(f"{what}: {' x '.join(map(str, radices))} = {count} keys overflow an int64 sort key")


def _distinct(sorted_keys: np.ndarray) -> np.ndarray:
    """``sorted_keys`` without its repeats, as ``np.unique`` would give them."""
    keep = np.empty(len(sorted_keys), dtype=bool)
    keep[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
    return sorted_keys if keep.all() else sorted_keys[keep]


@dataclass
class Vocabulary:
    """Name-to-id maps for entities and relations, the whole record: ids run
    0, 1, 2, ... in insertion order, so the names in id order are the keys."""

    entity_ids: dict[str, int] = field(default_factory=dict)
    relation_ids: dict[str, int] = field(default_factory=dict)

    @property
    def entities(self) -> list[str]:
        return list(self.entity_ids)

    @property
    def relations(self) -> list[str]:
        return list(self.relation_ids)

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_relations(self) -> int:
        return len(self.relation_ids)

    def add_entity(self, name: str) -> int:
        return self.entity_ids.setdefault(name, len(self.entity_ids))

    def add_relation(self, name: str) -> int:
        return self.relation_ids.setdefault(name, len(self.relation_ids))


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
            raise ConfigError(f"unknown split {name!r}, expected one of {_SPLITS}")
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
    """Parse one split in bulk: no per-line Python work, no per-triple objects.

    Line ends are read as universal newlines (``\\n``, ``\\r\\n`` or a lone
    ``\\r``); blank lines are skipped but still counted in ``path:lineno``.
    Names new to ``vocab`` get the next ids in first-appearance order. A
    repeated line is dropped and the first occurrence kept: the split's
    triple codes ``(head * R + relation) * N + tail``, with ``R`` and ``N``
    the vocabulary's relation and entity counts so far, are sorted once, and
    only a split whose sorted codes hold a repeat pays for ``np.unique``.
    """
    if not path.is_file():
        raise IOError(f"dataset file not found: {path}")
    raw = path.read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None

    # Tabs and newlines are single bytes that UTF-8 never uses inside a
    # character, so every line's field count can be read off the bytes.
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), len(buf))  # one past each line
    lengths = np.diff(ends, prepend=-1) - 1
    tabs = np.diff(np.searchsorted(np.flatnonzero(buf == ord("\t")), ends), prepend=0)
    bad = np.flatnonzero((tabs != 2) & (lengths > 0))
    if len(bad):
        line = int(bad[0])
        raise ParseError(
            f"{path}:{line + 1}: expected 3 tab-separated fields, got {tabs[line] + 1}"
        )

    text = text.strip("\n")
    while "\n\n" in text:
        text = text.replace("\n\n", "\n")
    fields = text.replace("\n", "\t").split("\t") if text else []
    heads, relations, tails = fields[0::3], fields[1::3], fields[2::3]
    n = len(heads)
    pairs = [None] * (2 * n)
    pairs[0::2], pairs[1::2] = heads, tails
    _add_names(vocab.entity_ids, pairs)
    _add_names(vocab.relation_ids, relations)

    triples = np.empty((n, 3), dtype=np.int64)
    for col, names, ids in ((0, heads, vocab.entity_ids), (1, relations, vocab.relation_ids),
                            (2, tails, vocab.entity_ids)):
        triples[:, col] = np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=n)
    # Keep the first occurrence of each triple, in file order.
    n_ent, n_rel = vocab.n_entities, vocab.n_relations
    _check_key_bound((n_ent, n_rel, n_ent), f"{path}: triple codes", ParseError)
    codes = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
    if len(_distinct(np.sort(codes))) == n:
        return triples
    _, first = np.unique(codes, return_index=True)
    return triples[np.sort(first)]


def _add_names(ids: dict, names: list) -> None:
    """Give each name of ``names`` not yet in ``ids`` the next free id, in
    order of first appearance."""
    fresh = [name for name in dict.fromkeys(names) if name not in ids]
    ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))


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


def augment_reciprocal(store: TripleStore) -> TripleStore:
    """Add an inverse triple (t, r', h) for every (h, r, t) in every split.

    The relation vocabulary doubles; original ids are unchanged, and the
    inverse of relation ``r`` is ``r + N_r``. Head prediction then reduces
    to tail prediction under the inverse relation.
    """
    if store.augmented:
        raise ValueError("store is already reciprocal-augmented")
    n_rel = store.vocab.n_relations
    vocab = Vocabulary(dict(store.vocab.entity_ids), dict(store.vocab.relation_ids))
    for name in store.vocab.relations:
        vocab.add_relation(name + RECIPROCAL_SUFFIX)
    if vocab.n_relations != 2 * n_rel:
        raise ConfigError(f"a relation is already named like an inverse (suffix {RECIPROCAL_SUFFIX!r})")

    def double(split: np.ndarray) -> np.ndarray:
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
    with ``n_entities * n_relations``. :func:`build_filter_index` orders the
    index by the packed triple code ``query * n_entities + tail``, whose
    ``n_entities * n_relations * n_entities`` values must fit an int64.
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

    def batch_tails(self, heads, relations) -> tuple[np.ndarray, np.ndarray]:
        """``(row, tail)`` pairs: every known tail of every query, row by row.

        ``row`` is the query's position in ``heads``/``relations``.
        """
        start, stop = self.rows(heads, relations)
        counts = stop - start
        return np.repeat(np.arange(len(counts)), counts), _take_runs(self.indices, start, counts)


def _run_bounds(sorted_codes: np.ndarray) -> np.ndarray:
    """CSR ``indptr`` of the runs of equal values in ``sorted_codes``."""
    if len(sorted_codes) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.r_[0, np.flatnonzero(np.diff(sorted_codes)) + 1, len(sorted_codes)]


def _take_runs(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values[starts[i] : starts[i] + counts[i]]`` for every ``i``, concatenated."""
    # Element k of run i reads values[starts[i] + k].
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return values[np.arange(len(offsets)) + offsets]


def build_filter_index(store: TripleStore) -> FilterIndex:
    """Index train, valid and test tails for filtered ranking.

    Call after reciprocal augmentation so head queries (inverse relations)
    are covered too. The triples of all splits are packed into their codes
    ``(head * R + relation) * N + tail`` (``R`` counting the augmented
    relations), sorted once and deduplicated; ``divmod`` by ``N`` splits
    each code back into its query and tail. Raises :class:`ConfigError`
    when ``N * R * N`` codes overflow an int64.
    """
    n_ent, n_rel = store.n_entities, store.n_relations
    _check_key_bound((n_ent, n_rel, n_ent), "filter index triple codes", ConfigError)
    triples = np.concatenate([store.split(name) for name in _SPLITS])
    packed = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
    codes, tails = np.divmod(_distinct(np.sort(packed)), n_ent)
    indptr = _run_bounds(codes)
    return FilterIndex(codes[indptr[:-1]], indptr, tails, n_rel)


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
        flat = _distinct(np.sort(rows * n_cols + cols))
        object.__setattr__(self, "rows", flat // n_cols)
        object.__setattr__(self, "cols", flat % n_cols)


class Batch:
    """A block of (head, relation) queries with their training tails, in CSR form.

    Row ``i`` is the query ``(heads[i], relations[i])`` and its tails are
    ``tail_ids[indptr[i]:indptr[i + 1]]``. Indexing gives
    ``(head, relation, tails)`` rows, a slice a list of them.
    ``targets()`` gives the ``len(heads)`` x ``n_entities`` multi-label 0/1
    matrix in sparse form; dense, it would take ~160 MB at 40k-entity scale.
    """

    def __init__(self, heads: np.ndarray, relations: np.ndarray, tails, n_entities: int):
        """``tails`` holds one array of tail ids per row."""
        self.heads = heads
        self.relations = relations
        self.indptr = np.r_[0, np.cumsum([len(t) for t in tails], dtype=np.int64)]
        self.tail_ids = np.concatenate(tails) if len(tails) else np.empty(0, dtype=np.int64)
        self.n_entities = n_entities

    @classmethod
    def from_csr(cls, heads, relations, indptr, tail_ids, n_entities: int) -> Batch:
        """A batch whose row ``i`` has the tails ``tail_ids[indptr[i]:indptr[i + 1]]``."""
        batch = cls.__new__(cls)
        batch.heads, batch.relations, batch.n_entities = heads, relations, n_entities
        batch.indptr, batch.tail_ids = indptr, tail_ids
        return batch

    def __len__(self) -> int:
        return len(self.heads)

    def __getitem__(self, key):
        rows = range(len(self))[key]
        if isinstance(rows, range):
            return [self[i] for i in rows]
        tails = self.tail_ids[self.indptr[rows] : self.indptr[rows + 1]]
        return int(self.heads[rows]), int(self.relations[rows]), tails

    @property
    def tails(self) -> tuple:
        """One array of tail ids per row; ``()`` for a batch with no rows."""
        if len(self) == 0:
            return ()
        return tuple(np.split(self.tail_ids, self.indptr[1:-1]))

    def targets(self) -> SparseTargets:
        """1 at each (row, training tail), 0 elsewhere."""
        rows = np.repeat(np.arange(len(self.heads)), np.diff(self.indptr))
        return SparseTargets(rows, self.tail_ids, (len(self.heads), self.n_entities))


def group_queries(store: TripleStore) -> Batch:
    """Group the train split by (head, relation) query into one batch.

    Queries come in order of first appearance in the train split, and each
    query's tails in train order, so the result is deterministic for a
    given store. The rows are ordered by the packed key
    ``(head * R + relation) * m + row`` over the ``m`` train rows, sorted
    once: the row breaks ties, so the order is the stable one. Raises
    :class:`ConfigError` when ``N * R * m`` keys overflow an int64.
    """
    train = store.train
    n_rows = len(train)
    _check_key_bound((store.n_entities, store.n_relations, n_rows), "train query row keys", ConfigError)
    codes = train[:, 0] * store.n_relations + train[:, 1]
    codes, order = np.divmod(np.sort(codes * n_rows + np.arange(n_rows)), n_rows)
    bounds = _run_bounds(codes)
    first = order[bounds[:-1]]  # the train row where each query first appears
    # The queries in order of their first rows, without a sort: each first
    # row holds its query's number, read back in row order.
    slot = np.full(n_rows, len(first))
    slot[first] = np.arange(len(first))
    groups = slot[slot < len(first)]
    counts = np.diff(bounds)[groups]
    return Batch.from_csr(
        train[first[groups], 0],
        train[first[groups], 1],
        np.r_[0, np.cumsum(counts)],
        _take_runs(train[order, 2], bounds[:-1][groups], counts),
        store.n_entities,
    )


def make_batches(queries: Batch, batch_size: int, rng: np.random.Generator) -> list[Batch]:
    """Shuffle the distinct train queries and group them into full batches.

    ``queries`` is :func:`group_queries` of the train split, which
    :class:`~kgedistill.training.Trainer` builds once and passes every epoch.
    The final partial batch is dropped: the distillation block's expanding
    projection has a fixed row count, so every batch must have exactly
    ``batch_size`` rows. The epoch's rows are gathered from the query arrays
    in one go and each batch is a slice of them.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > len(queries):
        raise ConfigError(
            f"batch_size {batch_size} exceeds the {len(queries)} distinct train queries"
        )
    n_rows = len(queries) // batch_size * batch_size
    order = rng.permutation(len(queries))[:n_rows]
    heads, relations = queries.heads[order], queries.relations[order]
    counts = np.diff(queries.indptr)[order]
    tails = _take_runs(queries.tail_ids, queries.indptr[order], counts)
    indptr = np.r_[0, np.cumsum(counts)]
    return [
        Batch.from_csr(
            heads[s : s + batch_size],
            relations[s : s + batch_size],
            indptr[s : s + batch_size + 1] - indptr[s],
            tails[indptr[s] : indptr[s + batch_size]],
            queries.n_entities,
        )
        for s in range(0, n_rows, batch_size)
    ]


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
