"""Dataset loading, reciprocal augmentation, filter index, batching."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import dense, synthetic_triples, write_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

import kgedistill.data as data_module
from kgedistill.data import (
    Batch,
    SparseTargets,
    TripleStore,
    Vocabulary,
    _read_split,
    augment_reciprocal,
    build_filter_index,
    group_queries,
    label_smooth,
    load_dataset,
    make_batches,
)
from kgedistill.errors import ConfigError, ParseError
from kgedistill.rng import stream


def make_store(tmp_path, train, valid=(), test=()):
    write_dataset(tmp_path / "ds", list(train), list(valid), list(test))
    return load_dataset(tmp_path / "ds")


class TestLoadDataset:
    def test_two_line_file(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b"), ("b", "r", "c")])
        assert store.n_entities == 3
        assert store.n_relations == 1
        assert len(store.train) == 2
        # first-appearance ids
        assert store.train.tolist() == [[0, 0, 1], [1, 0, 2]]

    def test_vocab_covers_all_splits(self, tmp_path):
        store = make_store(
            tmp_path,
            [("a", "r", "b")],
            valid=[("a", "r2", "c")],
            test=[("d", "r", "a")],
        )
        assert store.n_entities == 4
        assert store.n_relations == 2
        assert len(store.valid) == 1 and len(store.test) == 1

    def test_missing_file_raises(self, tmp_path):
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "train.txt").write_text("a\tr\tb\n")
        with pytest.raises(IOError):
            load_dataset(tmp_path / "broken")

    def test_malformed_line_names_line_number(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "train.txt").write_text("a\tr\tb\nwrong line\n")
        (d / "valid.txt").write_text("")
        (d / "test.txt").write_text("")
        with pytest.raises(ParseError, match="train.txt:2"):
            load_dataset(d)

    def test_duplicate_lines_dropped(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b"), ("a", "r", "b")])
        assert len(store.train) == 1


class TestAugmentReciprocal:
    def test_single_triple(self, tmp_path):
        store = make_store(tmp_path, [("a", "r0", "b")])
        aug = augment_reciprocal(store)
        assert aug.n_relations == 2
        assert aug.train.tolist() == [[0, 0, 1], [1, 1, 0]]
        assert aug.base_relation_count == 1

    def test_empty_splits_stay_empty(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b")])
        aug = augment_reciprocal(store)
        assert len(aug.valid) == 0 and len(aug.test) == 0

    def test_counts_double(self, tmp_path):
        train, valid, test = synthetic_triples(10, 2, 15, 3, 3)
        store = make_store(tmp_path, train, valid, test)
        aug = augment_reciprocal(store)
        assert len(aug.train) == 2 * len(store.train)
        assert aug.n_relations == 2 * store.n_relations
        assert aug.augmented

    def test_double_augmentation_rejected(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b")])
        with pytest.raises(ValueError):
            augment_reciprocal(augment_reciprocal(store))


def known_tails(index, head: int, relation: int) -> np.ndarray:
    """All known tails of one query, as ``FilterIndex.batch_tails`` gives them."""
    return index.batch_tails([head], [relation])[1]


class TestFilterIndex:
    def test_tails_accumulate(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b"), ("a", "r", "c")])
        index = build_filter_index(store)
        assert known_tails(index, 0, 0).tolist() == [1, 2]

    def test_absent_query_is_empty(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b")])
        index = build_filter_index(store)
        assert known_tails(index, 1, 0).size == 0

    def test_matches_brute_force_scan(self, tmp_path):
        train, valid, test = synthetic_triples(8, 2, 6, 2, 2)
        store = augment_reciprocal(make_store(tmp_path, train, valid, test))
        index = build_filter_index(store)
        everything = np.concatenate([store.train, store.valid, store.test])
        queries = {(int(h), int(r)) for h, r, _ in everything}
        assert len(index.keys) == len(queries)
        for h, r in queries:
            expected = sorted({int(t) for hh, rr, t in everything if hh == h and rr == r})
            assert known_tails(index, h, r).tolist() == expected

    def test_rows_of_unseen_queries_are_empty(self, tmp_path):
        # Entities a=0, b=1; one relation. Query (0, 1) has the same code as
        # the indexed (1, 0), so only the relation range check rejects it.
        store = make_store(tmp_path, [("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")])
        index = build_filter_index(store)
        start, stop = index.rows([0, 1, 0, -1, 7, 0], [0, 0, 1, 0, 0, -1])
        assert index.indices[start[0] : stop[0]].tolist() == [1]
        assert index.indices[start[1] : stop[1]].tolist() == [0, 1]
        assert start[2:].tolist() == stop[2:].tolist() == [0, 0, 0, 0]
        assert known_tails(index, 0, 0).size == 1
        assert known_tails(index, 0, 1).size == known_tails(index, 7, 0).size == 0


class TestMakeBatches:
    def _store(self, tmp_path):
        train, valid, test = synthetic_triples(10, 2, 18, 2, 2)
        return augment_reciprocal(make_store(tmp_path, train, valid, test))

    def test_partial_batch_dropped(self, tmp_path):
        store = make_store(tmp_path, [(f"h{i}", "r", f"t{i}") for i in range(5)])
        batches = make_batches(group_queries(store), 2, stream(0, "shuffle"))
        assert len(batches) == 2
        assert all(len(b.heads) == 2 for b in batches)

    def test_same_seed_same_order(self, tmp_path):
        store = self._store(tmp_path)
        a = make_batches(group_queries(store), 4, stream(3, "shuffle"))
        b = make_batches(group_queries(store), 4, stream(3, "shuffle"))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.heads, y.heads)
            np.testing.assert_array_equal(x.relations, y.relations)

    def test_target_row_marks_training_tails(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")])
        batches = make_batches(group_queries(store), 2, stream(1, "shuffle"))
        batch = batches[0]
        y = dense(batch.targets())
        for i in range(len(batch.heads)):
            row = y[i]
            expected = np.zeros(store.n_entities)
            expected[batch.tails[i]] = 1.0
            np.testing.assert_array_equal(row, expected)
            assert row.sum() == len(batch.tails[i])

    def test_oversized_batch_rejected(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b")])
        with pytest.raises(ConfigError):
            make_batches(group_queries(store), 2, stream(0, "shuffle"))

    def test_zero_batch_size_rejected(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            make_batches(group_queries(store), 0, stream(0, "shuffle"))

    def test_all_rows_have_a_positive(self, tmp_path):
        store = self._store(tmp_path)
        for batch in make_batches(group_queries(store), 4, stream(5, "shuffle")):
            assert (dense(batch.targets()).sum(axis=1) >= 1).all()


class TestHeadRankingViaReciprocal:
    def test_inverse_queries_mirror_head_queries(self, tmp_path):
        """Tail-ranking (t, r+N_r) must expose exactly the head candidates."""
        train, valid, test = synthetic_triples(8, 2, 12, 2, 2)
        store = augment_reciprocal(make_store(tmp_path, train, valid, test))
        index = build_filter_index(store)
        everything = np.concatenate([store.train, store.valid, store.test])
        base = store.base_relation_count
        for h, r, t in everything:
            if r >= base:
                continue
            heads_brute = sorted(
                {int(hh) for hh, rr, tt in everything if rr == r and tt == t and rr < base}
            )
            assert known_tails(index, int(t), int(r) + base).tolist() == heads_brute


class TestLabelSmooth:
    def test_zero_epsilon_is_identity(self):
        y = SparseTargets([0, 1, 2], [0, 1, 2], (3, 3))
        assert label_smooth(y, 0.0) is y

    def test_one_hot_row(self):
        out = label_smooth(SparseTargets([0], [0], (1, 4)), 0.1)
        np.testing.assert_allclose(dense(out), [[0.925, 0.025, 0.025, 0.025]])

    def test_all_ones_row(self):
        out = label_smooth(SparseTargets([0] * 4, [0, 1, 2, 3], (1, 4)), 0.1)
        np.testing.assert_allclose(dense(out), 0.925)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            label_smooth(SparseTargets([0], [0], (1, 2)), 1.0)


@pytest.mark.parametrize(
    "rows, cols", [([0, 1], [0, 1, 1]), ([[0, 1]], [[0, 1]])], ids=["lengths", "not-1d"]
)
def test_sparse_targets_reject_misshaped_ids(rows, cols):
    with pytest.raises(ValueError, match="row ids .* vs column ids"):
        SparseTargets(rows, cols, (2, 2))


def test_relation_named_like_an_inverse_rejected(tmp_path):
    store = make_store(tmp_path, [("a", "r", "b"), ("b", "r_reciprocal", "a")])
    with pytest.raises(ConfigError, match="already named like an inverse"):
        augment_reciprocal(store)


def dict_loop_queries(store) -> list:
    """``(head, relation, tails)`` per distinct train query, first-appearance order."""
    grouped = {}
    for h, r, t in store.train.tolist():
        grouped.setdefault((h, r), []).append(t)
    return [(h, r, tails) for (h, r), tails in grouped.items()]


def test_group_queries_matches_a_dict_loop(tmp_path):
    # Queries repeat across the train split, interleaved with others.
    train = [("a", "r", "b"), ("c", "s", "a"), ("a", "r", "c"), ("b", "r", "a"),
             ("c", "s", "b"), ("a", "s", "c"), ("a", "r", "a"), ("c", "s", "c")]
    store = augment_reciprocal(make_store(tmp_path, train))
    expected = dict_loop_queries(store)
    queries = group_queries(store)
    assert queries.heads.tolist() == [h for h, _, _ in expected]
    assert queries.relations.tolist() == [r for _, r, _ in expected]
    assert queries.indptr.tolist() == np.cumsum([0] + [len(t) for _, _, t in expected]).tolist()
    assert queries.tail_ids.tolist() == [t for _, _, tails in expected for t in tails]
    assert [(h, r, tails.tolist()) for h, r, tails in queries] == expected
    assert [(h, r, t.tolist()) for h, r, t in queries[-2:]] == expected[-2:]

    empty = group_queries(make_store(tmp_path / "empty", [], [("a", "r", "b")]))
    assert len(empty) == 0 and empty[:5] == []
    assert empty.indptr.tolist() == [0] and empty.tail_ids.size == 0
    assert empty.tails == () == Batch(empty.heads, empty.relations, (), empty.n_entities).tails


def test_group_queries_is_deterministic(tmp_path):
    train, valid, test = synthetic_triples(10, 2, 18, 2, 2)
    store = augment_reciprocal(make_store(tmp_path, train, valid, test))
    a = group_queries(store)
    b = group_queries(store)
    for name in ("heads", "relations", "indptr", "tail_ids"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_csr_batches_match_a_dict_loop_grouping(tmp_path):
    train, valid, test = synthetic_triples(40, 3, 300, seed=11)
    store = augment_reciprocal(make_store(tmp_path, train, valid, test))
    expected = dict_loop_queries(store)
    batch_size = 7
    batches = make_batches(group_queries(store), batch_size, stream(4, "shuffle"))
    order = stream(4, "shuffle").permutation(len(expected))
    assert len(batches) == len(expected) // batch_size
    for b, batch in enumerate(batches):
        rows = [expected[i] for i in order[b * batch_size : (b + 1) * batch_size]]
        assert batch.heads.tolist() == [h for h, _, _ in rows]
        assert batch.relations.tolist() == [r for _, r, _ in rows]
        assert [t.tolist() for t in batch.tails] == [tails for _, _, tails in rows]
        y = np.zeros((batch_size, store.n_entities))
        for i, (_, _, row_tails) in enumerate(rows):
            y[i, row_tails] = 1.0
        np.testing.assert_array_equal(dense(batch.targets()), y)


def test_grouped_queries_hold_a_few_bytes_per_train_row():
    """CSR arrays only: at most 40 bytes per augmented train row retained."""
    rng = np.random.default_rng(0)
    n_entities, n_relations, n_rows = 2_000, 20, 25_000
    triples = np.stack(
        [rng.integers(0, n_entities, n_rows), rng.integers(0, n_relations, n_rows),
         rng.integers(0, n_entities, n_rows)], axis=1,
    )
    vocab = Vocabulary(
        entity_ids={f"e{i}": i for i in range(n_entities)},
        relation_ids={f"r{i}": i for i in range(n_relations)},
    )
    empty = np.empty((0, 3), dtype=np.int64)
    store = augment_reciprocal(TripleStore(vocab, triples, empty, empty, n_relations))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        queries = group_queries(store)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store.train) == 2 * n_rows and len(queries) > 0
    assert retained / len(store.train) <= 40


# ---------------------------------------------------------------------------
# The packed-key sorts against the sorts they replaced
# ---------------------------------------------------------------------------

def run_bounds(sorted_codes: np.ndarray) -> np.ndarray:
    """CSR ``indptr`` of the runs of equal values in ``sorted_codes``."""
    if len(sorted_codes) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.r_[0, np.flatnonzero(np.diff(sorted_codes)) + 1, len(sorted_codes)]


def lexsort_filter_index(store) -> tuple:
    """``(keys, indptr, indices)`` of the filter index built by ``np.lexsort``
    on (code, tail): the oracle."""
    triples = np.concatenate([store.train, store.valid, store.test])
    codes = triples[:, 0] * store.n_relations + triples[:, 1]
    order = np.lexsort((triples[:, 2], codes))
    codes, tails = codes[order], triples[order, 2]
    distinct = np.ones(len(codes), dtype=bool)
    distinct[1:] = (codes[1:] != codes[:-1]) | (tails[1:] != tails[:-1])
    codes, tails = codes[distinct], tails[distinct]
    indptr = run_bounds(codes)
    return codes[indptr[:-1]], indptr, tails


def stable_argsort_queries(store) -> tuple:
    """``(heads, relations, indptr, tail_ids)`` of the train queries grouped
    by a stable ``np.argsort`` of their codes: the oracle."""
    train = store.train
    codes = train[:, 0] * store.n_relations + train[:, 1]
    order = np.argsort(codes, kind="stable")
    bounds = run_bounds(codes[order])
    first = order[bounds[:-1]]
    groups = np.argsort(first)
    counts = np.diff(bounds)[groups]
    tails = [train[order[bounds[g] : bounds[g + 1]], 2] for g in groups]
    return (train[first[groups], 0], train[first[groups], 1], np.r_[0, np.cumsum(counts)],
            np.concatenate(tails) if tails else np.empty(0, dtype=np.int64))


def assert_same_arrays(actual, expected) -> None:
    for a, e in zip(actual, expected, strict=True):
        assert (a.dtype, a.shape) == (e.dtype, e.shape)
        np.testing.assert_array_equal(a, e)


def assert_packed_sorts_match_the_oracles(store) -> None:
    """The filter index and the grouped queries of ``store`` and of its
    reciprocal augmentation equal the oracles', dtypes included."""
    for s in (store, augment_reciprocal(store)):
        index = build_filter_index(s)
        assert_same_arrays((index.keys, index.indptr, index.indices), lexsort_filter_index(s))
        queries = group_queries(s)
        assert_same_arrays((queries.heads, queries.relations, queries.indptr, queries.tail_ids),
                           stable_argsort_queries(s))


def seeded_graphs() -> dict:
    """Name triples per split: ``(train, valid, test)``."""
    train, valid, test = synthetic_triples(40, 3, 300, 40, 40, seed=13)
    return {
        # Lines repeat right after, and ~40, ~150 and ~300 lines after, their
        # first occurrence, and across splits; 20 heads x 3 relations give
        # 60 queries, so queries repeat within and across the splits.
        "repeats": (train[:150] + [train[3]] + train[150:] + [train[3], train[299], valid[0]],
                    valid + [valid[0], train[0]], test + test[:2]),
        "empty_valid_and_test": (train, [], []),
        "single_triple": ([("a", "r", "b")], [], []),
    }


@pytest.mark.parametrize("graph", list(seeded_graphs()))
def test_packed_key_sorts_match_the_sorts_they_replace(tmp_path, graph):
    splits = seeded_graphs()[graph]
    store = make_store(tmp_path, *splits)
    vocab = Vocabulary()
    by_line = [read_split_by_line(tmp_path / "ds" / f"{name}.txt", vocab)
               for name in ("train", "valid", "test")]
    assert (store.vocab.entities, store.vocab.relations) == (vocab.entities, vocab.relations)
    assert_same_arrays((store.train, store.valid, store.test), by_line)
    assert_packed_sorts_match_the_oracles(store)


@pytest.mark.parametrize("n_pairs", [0, 1, 1_000])
def test_sparse_targets_match_np_unique(n_pairs):
    rng = np.random.default_rng(n_pairs)
    # 240 cells, so 1,000 pairs repeat.
    rows, cols = rng.integers(0, 8, n_pairs), rng.integers(0, 30, n_pairs)
    targets = SparseTargets(rows, cols, (8, 30))
    flat = np.unique(rows * 30 + cols)
    assert_same_arrays((targets.rows, targets.cols), (flat // 30, flat % 30))


def test_packed_keys_are_checked_against_one_int64_bound(tmp_path, monkeypatch):
    # 3 entities, 1 relation, 2 train lines: the triple codes take 3 * 1 * 3
    # = 9 values as parsed and 3 * 2 * 3 = 18 after augmentation; the query
    # row keys take 3 * 2 * 4 = 24 over the 4 augmented train rows.
    write_dataset(tmp_path / "ds", [("a", "r", "b"), ("b", "r", "c")], [], [])
    monkeypatch.setattr(data_module, "_KEY_BOUND", 8)
    with pytest.raises(ParseError, match=r"train.txt: triple codes: 3 x 1 x 3 = 9 keys overflow"):
        load_dataset(tmp_path / "ds")
    monkeypatch.setattr(data_module, "_KEY_BOUND", 9)
    store = augment_reciprocal(load_dataset(tmp_path / "ds"))
    with pytest.raises(ConfigError, match=r"filter index triple codes: 3 x 2 x 3 = 18 keys overflow"):
        build_filter_index(store)
    monkeypatch.setattr(data_module, "_KEY_BOUND", 18)
    build_filter_index(store)
    with pytest.raises(ConfigError, match=r"train query row keys: 3 x 2 x 4 = 24 keys overflow"):
        group_queries(store)
    monkeypatch.setattr(data_module, "_KEY_BOUND", 24)
    assert len(group_queries(store)) == 4


def read_split_by_line(path: Path, vocab: Vocabulary) -> np.ndarray:
    """The line-by-line parser the bulk loader replaced: the oracle."""
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


# Spaces, non-ASCII, and \x0c / \u2028, which str.splitlines would split on.
NAMES = st.sampled_from(["a", "b", "c d", "é", "日本", "x\x0cy", "p\u2028q", ""])


@st.composite
def split_lines(draw):
    """A triple line, or one time in five a blank line, one in ten a malformed one."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return "\t".join(draw(st.lists(NAMES, min_size=1, max_size=5).filter(lambda f: len(f) != 3)))
    return "" if kind <= 2 else "\t".join(draw(st.tuples(NAMES, NAMES, NAMES)))


@st.composite
def split_texts(draw, pool: list):
    """File text of lines drawn from ``pool``, so lines repeat, next to each
    other or far apart; each ended by \\n, \\r\\n or \\r, the last end optional."""
    ended = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=12))
    text = "".join(line + end for line, end in ended)
    if ended and draw(st.booleans()):
        text = text[: -len(ended[-1][1])]
    return text


@st.composite
def split_files(draw):
    """Train and valid texts drawn from one pool of lines, so lines repeat
    within and across the two files."""
    pool = draw(st.lists(split_lines(), min_size=1, max_size=8))
    return [draw(split_texts(pool)) for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(split_files())
def test_bulk_parser_matches_the_line_parser(tmp_path_factory, texts):
    directory = tmp_path_factory.mktemp("split")
    paths = [directory / "train.txt", directory / "valid.txt"]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))

    def run(read):
        vocab = Vocabulary()
        try:
            arrays = [read(path, vocab) for path in paths]
        except ParseError as exc:
            return str(exc)
        return vocab.entities, vocab.relations, [(a.dtype, a.shape, a.tolist()) for a in arrays]

    parsed = run(_read_split)
    assert parsed == run(read_split_by_line)
    if isinstance(parsed, str):
        return
    # The same inputs, loaded with an empty test split: the filter index and
    # grouped queries match the sorts they replaced.
    (directory / "test.txt").write_bytes(b"")
    assert_packed_sorts_match_the_oracles(load_dataset(directory))
