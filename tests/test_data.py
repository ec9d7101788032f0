"""Dataset loading, reciprocal augmentation, filter index, batching."""

import numpy as np
import pytest
from conftest import synthetic_triples, write_dataset

from kgedistill.data import (
    SparseTargets,
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


class TestFilterIndex:
    def test_tails_accumulate(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b"), ("a", "r", "c")])
        index = build_filter_index(store)
        assert index.tails(0, 0).tolist() == [1, 2]

    def test_absent_query_is_empty(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b")])
        index = build_filter_index(store)
        assert index.tails(1, 0).size == 0

    def test_matches_brute_force_scan(self, tmp_path):
        train, valid, test = synthetic_triples(8, 2, 6, 2, 2)
        store = augment_reciprocal(make_store(tmp_path, train, valid, test))
        index = build_filter_index(store)
        everything = np.concatenate([store.train, store.valid, store.test])
        queries = {(int(h), int(r)) for h, r, _ in everything}
        assert len(index) == len(queries)
        for h, r in queries:
            expected = sorted({int(t) for hh, rr, t in everything if hh == h and rr == r})
            assert index.tails(h, r).tolist() == expected

    def test_rows_of_unseen_queries_are_empty(self, tmp_path):
        # Entities a=0, b=1; one relation. Query (0, 1) has the same code as
        # the indexed (1, 0), so only the relation range check rejects it.
        store = make_store(tmp_path, [("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")])
        index = build_filter_index(store)
        start, stop = index.rows([0, 1, 0, -1, 7, 0], [0, 0, 1, 0, 0, -1])
        assert index.indices[start[0] : stop[0]].tolist() == [1]
        assert index.indices[start[1] : stop[1]].tolist() == [0, 1]
        assert start[2:].tolist() == stop[2:].tolist() == [0, 0, 0, 0]
        assert index.tails(0, 0).size == 1
        assert index.tails(0, 1).size == index.tails(7, 0).size == 0


class TestMakeBatches:
    def _store(self, tmp_path):
        train, valid, test = synthetic_triples(10, 2, 18, 2, 2)
        return augment_reciprocal(make_store(tmp_path, train, valid, test))

    def test_partial_batch_dropped(self, tmp_path):
        store = make_store(tmp_path, [(f"h{i}", "r", f"t{i}") for i in range(5)])
        batches = make_batches(store, 2, stream(0, "shuffle"))
        assert len(batches) == 2
        assert all(len(b) == 2 for b in batches)

    def test_same_seed_same_order(self, tmp_path):
        store = self._store(tmp_path)
        a = make_batches(store, 4, stream(3, "shuffle"))
        b = make_batches(store, 4, stream(3, "shuffle"))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.heads, y.heads)
            np.testing.assert_array_equal(x.relations, y.relations)

    def test_target_row_marks_training_tails(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")])
        batches = make_batches(store, 2, stream(1, "shuffle"))
        batch = batches[0]
        y = batch.targets().dense()
        for i in range(len(batch)):
            row = y[i]
            expected = np.zeros(store.n_entities)
            expected[batch.tails[i]] = 1.0
            np.testing.assert_array_equal(row, expected)
            assert row.sum() == len(batch.tails[i])

    def test_oversized_batch_rejected(self, tmp_path):
        store = make_store(tmp_path, [("a", "r", "b")])
        with pytest.raises(ConfigError):
            make_batches(store, 2, stream(0, "shuffle"))

    def test_all_rows_have_a_positive(self, tmp_path):
        store = self._store(tmp_path)
        for batch in make_batches(store, 4, stream(5, "shuffle")):
            assert (batch.targets().dense().sum(axis=1) >= 1).all()


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
            assert index.tails(int(t), int(r) + base).tolist() == heads_brute


class TestLabelSmooth:
    def test_zero_epsilon_is_identity(self):
        y = SparseTargets([0, 1, 2], [0, 1, 2], (3, 3))
        assert label_smooth(y, 0.0) is y

    def test_one_hot_row(self):
        out = label_smooth(SparseTargets([0], [0], (1, 4)), 0.1)
        np.testing.assert_allclose(out.dense(), [[0.925, 0.025, 0.025, 0.025]])

    def test_all_ones_row(self):
        out = label_smooth(SparseTargets([0] * 4, [0, 1, 2, 3], (1, 4)), 0.1)
        np.testing.assert_allclose(out.dense(), 0.925)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            label_smooth(SparseTargets([0], [0], (1, 2)), 1.0)


def test_group_queries_matches_a_dict_loop(tmp_path):
    # Queries repeat across the train split, interleaved with others.
    train = [("a", "r", "b"), ("c", "s", "a"), ("a", "r", "c"), ("b", "r", "a"),
             ("c", "s", "b"), ("a", "s", "c"), ("a", "r", "a"), ("c", "s", "c")]
    store = augment_reciprocal(make_store(tmp_path, train))
    grouped = {}
    for h, r, t in store.train.tolist():
        grouped.setdefault((h, r), []).append(t)
    got = [(h, r, tails.tolist()) for h, r, tails in group_queries(store)]
    assert got == [(h, r, tails) for (h, r), tails in grouped.items()]
    assert all(type(h) is int and type(r) is int for h, r, _ in got)
    assert group_queries(make_store(tmp_path / "empty", [], [("a", "r", "b")])) == []


def test_group_queries_is_deterministic(tmp_path):
    train, valid, test = synthetic_triples(10, 2, 18, 2, 2)
    store = augment_reciprocal(make_store(tmp_path, train, valid, test))
    a = group_queries(store)
    b = group_queries(store)
    assert [(h, r) for h, r, _ in a] == [(h, r) for h, r, _ in b]
