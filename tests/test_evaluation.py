"""Filtered ranking: tie handling, filtering, and MRR/Hits@k by hand."""

import ctypes
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import resident_bytes
from kgedistill import autodiff, evaluation
from kgedistill.autodiff import _one_blas_thread, no_grad, zeros
from kgedistill.config import ModelConfig
from kgedistill.data import TripleStore, Vocabulary, augment_reciprocal, build_filter_index
from kgedistill.errors import ConfigError
from kgedistill.evaluation import evaluate, filtered_rank, rank_split
from kgedistill.models import EmbeddingModel
from kgedistill.rng import stream

KINDS = ["distmult", "complex", "tucker", "lowfer"]


class TestFilteredRank:
    @pytest.mark.parametrize(
        "scores, true_id, expected",
        [
            ([1.0, 5.0, 5.0, 5.0, 0.0], 1, 2.0),  # two ties share positions 1-3
            ([9.0, 5.0, 5.0, 0.0], 1, 2.5),  # one greater, one tie
            ([0.0] * 5, 2, 3.0),  # all equal: the middle of 1..5
            ([7.0], 0, 1.0),
            ([np.nan, 5.0, np.nan, 5.0], 1, 1.5),  # NaN candidates are not counted
        ],
    )
    def test_ties_share_the_average_position(self, scores, true_id, expected):
        assert filtered_rank(np.array(scores), true_id, []) == expected

    def test_filtered_tails_are_removed(self):
        scores = np.array([9.0, 8.0, 1.0, 7.0])
        assert filtered_rank(scores, 2, []) == 4.0
        assert filtered_rank(scores, 2, [0, 3]) == 2.0
        assert filtered_rank(np.array([5.0, 5.0, 5.0]), 0, [1]) == 1.5

    def test_target_in_filter_list_stays(self):
        scores = np.array([9.0, 8.0, 1.0, 7.0])
        assert filtered_rank(scores, 2, [2, 0]) == 3.0

    @pytest.mark.parametrize("true_id", [4, -1])
    def test_out_of_range_id_raises(self, true_id):
        with pytest.raises(IndexError):
            filtered_rank(np.zeros(4), true_id, [])

    @pytest.mark.parametrize("filter_id", [4, -1])
    def test_out_of_range_filter_id_raises(self, filter_id):
        with pytest.raises(IndexError):
            filtered_rank(np.zeros(4), 0, [1, filter_id])

    def test_nan_target_raises(self):
        with pytest.raises(ValueError, match="is NaN"):
            filtered_rank(np.array([5.0, np.nan]), 1, [])


def reference_rank(scores, true_id: int, known) -> float:
    """Average-tie filtered rank, candidate by candidate."""
    target = scores[true_id]
    greater = ties = 0
    for candidate, score in enumerate(scores):
        if candidate == true_id or candidate in known:
            continue
        greater += int(score > target)
        ties += int(score == target)
    return 1.0 + greater + ties / 2.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.data())
def test_filtered_rank_matches_brute_force(scores, data):
    # Few distinct scores make ties common; filter lists may be empty (an
    # unseen query), name the target, or repeat ids.
    n = len(scores)
    true_id = data.draw(st.integers(0, n - 1))
    filter_ids = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    got = filtered_rank(np.array(scores, dtype=np.float64), true_id, filter_ids)
    assert got == reference_rank(scores, true_id, set(filter_ids))


@st.composite
def ranking_cases(draw):
    """A small augmented store, integer DistMult embeddings and a filter index.

    With integer embeddings of dimension 2 every score is a small integer,
    computed exactly whatever the batch shape, and ties are common. The
    filter index covers either every split or the train split alone, so
    some test queries are unseen by it.
    """
    n_ent, n_rel = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1))
    train, test = draw(st.lists(triple, max_size=25)), draw(st.lists(triple, min_size=1, max_size=25))
    vocab = Vocabulary()
    for i in range(n_ent):
        vocab.add_entity(f"e{i}")
    for i in range(n_rel):
        vocab.add_relation(f"r{i}")
    store = augment_reciprocal(TripleStore(vocab, _triples(*train), _triples(), _triples(*test), n_rel))
    weights = st.integers(-2, 2)
    entities = np.array(draw(st.lists(st.tuples(weights, weights), min_size=n_ent, max_size=n_ent)))
    relations = np.array(draw(st.lists(st.tuples(weights, weights), min_size=2 * n_rel, max_size=2 * n_rel)))
    filtered = store if draw(st.booleans()) else replace(store, test=store.train[:0])
    return store, entities, relations, filtered


@settings(max_examples=150, deadline=None)
@given(ranking_cases())
def test_rank_split_matches_brute_force(case):
    store, entities, relations, filtered = case
    config = ModelConfig(kind="distmult", d_e=2, dropout1=0.0, dropout2=0.0, dropout3=0.0)
    model = EmbeddingModel(config, store.n_entities, store.n_relations, stream(0))
    model.entity_embeddings.data[:] = entities
    model.relation_embeddings.data[:] = relations
    index = build_filter_index(filtered)
    known_triples = np.concatenate([filtered.train, filtered.valid, filtered.test]).tolist()

    def reference(queries_h, queries_r, true_ids):
        ranks = []
        for h, r, t in zip(queries_h.tolist(), queries_r.tolist(), true_ids.tolist()):
            scores = ((entities[h] * relations[r]) @ entities.T).tolist()
            known = {x for a, b, x in known_triples if (a, b) == (h, r)}
            ranks.append(reference_rank(scores, t, known))
        return ranks

    n_rel = store.base_relation_count
    h, r, t = store.test[store.test[:, 1] < n_rel].T
    want_head, want_tail = reference(t, r + n_rel, h), reference(h, r, t)
    for batch_size in (1, 3, 512):
        head, tail = rank_split(model, store, index, "test", batch_size)
        assert head.tolist() == want_head
        assert tail.tolist() == want_tail


@st.composite
def planted_models(draw, kind: str):
    """A small augmented store and a model of ``kind`` at its default
    batchnorm, with standard normal tables and one planted hazard.

    Entity rows may be copied onto others (exact ties). On top of that the
    entity table is left as drawn, zeroed (every score ties), given rows a
    few float32 ulps from others (near ties), scaled with or without the
    relation table by 1e-22 (float32 products underflow) or 1e20 (float32
    scores overflow), or given a NaN row. One training forward then moves
    batchnorm off its initial statistics.
    """
    n_ent, n_rel = draw(st.integers(2, 9)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1))
    train, test = draw(st.lists(triple, max_size=20)), draw(st.lists(triple, min_size=1, max_size=20))
    vocab = Vocabulary({f"e{i}": i for i in range(n_ent)}, {f"r{i}": i for i in range(n_rel)})
    store = augment_reciprocal(TripleStore(vocab, _triples(*train), _triples(), _triples(*test), n_rel))
    config = ModelConfig(kind=kind, d_e=draw(st.sampled_from([2, 4, 6])), k_l=2,
                         dropout1=0.0, dropout2=0.0, dropout3=0.0)
    seed = draw(st.integers(0, 2**16))
    model = EmbeddingModel(config, store.n_entities, store.n_relations, stream(seed))
    rng = np.random.default_rng(seed)
    entities, relations = model.entity_embeddings.data, model.relation_embeddings.data
    entities[:] = rng.normal(size=entities.shape)
    relations[:] = rng.normal(size=relations.shape)
    row = st.integers(0, n_ent - 1)
    for src, dst in draw(st.lists(st.tuples(row, row), max_size=3)):
        entities[dst] = entities[src]
    plant = draw(st.sampled_from(["none", "zero", "near", "tiny", "huge", "nan"]))
    if plant == "zero":
        entities[:] = 0.0
    elif plant == "near":
        for src, dst in draw(st.lists(st.tuples(row, row), min_size=1, max_size=3)):
            entities[dst] = entities[src] * (1.0 + draw(st.integers(-3, 3)) * 2.0**-23)
    elif plant in ("tiny", "huge"):
        scale = 1e-22 if plant == "tiny" else 1e20
        entities *= scale
        if draw(st.booleans()):
            relations *= scale
    elif plant == "nan":
        entities[draw(row)] = np.nan
    with no_grad():
        model.forward(rng.integers(0, n_ent, 6), rng.integers(0, store.n_relations, 6),
                      training=True, rng=stream(seed, "drop"))
    return store, model


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_split_matches_filtered_rank_on_the_float64_logits(kind, data):
    store, model = data.draw(planted_models(kind))
    batch_size = data.draw(st.sampled_from([1, 3, 512]))
    index = build_filter_index(store)
    known = {}
    for h, r, t in np.concatenate([store.train, store.valid, store.test]).tolist():
        known.setdefault((h, r), set()).add(t)

    def reference(queries_h, queries_r, true_ids):
        # Scored in the same blocks as rank_split, so the query vectors match.
        ranks = []
        for start in range(0, len(queries_h), batch_size):
            block = slice(start, start + batch_size)
            with no_grad():
                logits = model.forward(queries_h[block], queries_r[block]).data
            for q_h, q_r, truth, scores in zip(queries_h[block], queries_r[block], true_ids[block], logits):
                ranks.append(filtered_rank(scores, int(truth), sorted(known.get((int(q_h), int(q_r)), ()))))
        return ranks

    def ranks_or_nan(rank):
        # A NaN target score has no rank: both paths raise on the same examples.
        try:
            return rank()
        except ValueError as exc:
            assert "is NaN" in str(exc)
            return "NaN target"

    n_rel = store.base_relation_count
    h, r, t = store.test[store.test[:, 1] < n_rel].T
    want = ranks_or_nan(lambda: (reference(t, r + n_rel, h), reference(h, r, t)))
    got = ranks_or_nan(lambda: tuple(x.tolist() for x in rank_split(model, store, index, "test", batch_size)))
    assert got == want
    if got != "NaN target":  # NaN candidates alone leave every rank at 1 or more
        assert min(got[0] + got[1]) >= 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_ranks_do_not_depend_on_the_blas_thread_count(kind):
    store = _random_store(3_000, 4, 1_000, 600)
    index = build_filter_index(store)
    model = EmbeddingModel(ModelConfig(kind=kind, d_e=16, k_l=2), store.n_entities, store.n_relations, stream(0))
    with _one_blas_thread():
        one = rank_split(model, store, index)
    many = rank_split(model, store, index)
    assert one[0].tobytes() == many[0].tobytes()
    assert one[1].tobytes() == many[1].tobytes()


def _triples(*rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def test_evaluate_by_hand():
    # Entities a, b, c; one relation r. DistMult at d_e = 1 scores a query
    # (h, r) as E[h] * R[r] * E[t] with E = (1, 2, 3) and R = (1, -1), the
    # second row being the reciprocal r_inv.
    vocab = Vocabulary()
    for name in "abc":
        vocab.add_entity(name)
    vocab.add_relation("r")
    store = augment_reciprocal(
        TripleStore(vocab, _triples((0, 0, 1)), _triples(), _triples((0, 0, 2), (1, 0, 0)), 1)
    )
    config = ModelConfig(kind="distmult", d_e=1, dropout1=0.0, dropout2=0.0, dropout3=0.0)
    model = EmbeddingModel(config, 3, 2, stream(0))
    model.entity_embeddings.data[:, 0] = [1.0, 2.0, 3.0]
    model.relation_embeddings.data[:, 0] = [1.0, -1.0]

    report = evaluate(model, store, build_filter_index(store), split="test")
    # (a, r, c): tail scores (1, 2, 3) with b filtered -> rank 1;
    #            head query (c, r_inv) scores (-3, -6, -9) -> a ranks 1.
    # (b, r, a): tail scores (2, 4, 6), nothing else filtered -> rank 3;
    #            head query (a, r_inv) scores (-1, -2, -3) -> b ranks 2.
    assert report["n_test"] == 2
    assert report["tail"] == pytest.approx({"mrr": (1 + 1 / 3) / 2, "h1": 0.5, "h3": 1.0, "h10": 1.0})
    assert report["head"] == pytest.approx({"mrr": (1 + 1 / 2) / 2, "h1": 0.5, "h3": 1.0, "h10": 1.0})
    assert report["mrr"] == pytest.approx(17 / 24)
    assert (report["h1"], report["h3"], report["h10"]) == (0.5, 1.0, 1.0)


def _random_store(n_ent: int, n_rel: int, n_train: int, n_test: int, augment: bool = True):
    rng = np.random.default_rng(0)

    def triples(n):
        return np.stack(
            [rng.integers(0, n_ent, n), rng.integers(0, n_rel, n), rng.integers(0, n_ent, n)], axis=1
        )

    vocab = Vocabulary({f"e{i}": i for i in range(n_ent)}, {f"r{i}": i for i in range(n_rel)})
    store = TripleStore(vocab, triples(n_train), _triples(), triples(n_test), n_rel)
    return augment_reciprocal(store) if augment else store


@pytest.mark.parametrize("kind", KINDS)
def test_ranks_do_not_depend_on_the_split(kind, monkeypatch, workers):
    """1, 2 or 3 workers, and column blocks of the default width, of 7
    entities (a ragged last block) or of the whole table, give the same
    bytes. Every entity row is copied onto another, so every candidate ties
    with one other, and the filter covers the test split, so each target is
    among its row's known-true pairs."""
    store = _random_store(3_000, 4, 2_000, 300)
    index = build_filter_index(store)
    model = EmbeddingModel(ModelConfig(kind=kind, d_e=8, k_l=2), store.n_entities, store.n_relations, stream(0))
    entities = model.entity_embeddings.data
    entities[1_500:] = entities[:1_500]
    runs = set()
    for count in (1, 2, 3):
        for cols in (evaluation._RANK_COLUMNS, 7, store.n_entities):
            workers(count)
            monkeypatch.setattr(evaluation, "_RANK_COLUMNS", cols)
            head, tail = rank_split(model, store, index, "test", 128)
            runs.add(head.tobytes() + tail.tobytes())
    assert len(runs) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_rank_split_holds_one_column_block_per_worker(kind, monkeypatch, workers):
    """Three blocks of queries per direction at d_e 4, on two workers. A
    worker's scratch is one column block's float32 scores and two boolean
    masks against a block of queries; beyond that and the float32 table,
    little else may stay. The scratch lives on mappings, which tracemalloc
    does not see, so every mapping made during the call is added to its
    peak."""
    workers(2)
    n_ent, batch_size = 8_000, 256
    store = _random_store(n_ent, 4, 2_000, 3 * batch_size)
    index = build_filter_index(store)
    model = EmbeddingModel(ModelConfig(kind=kind, d_e=4), store.n_entities, store.n_relations, stream(0))
    mapped = []

    def counted_zeros(shape, dtype=np.float64):
        out = zeros(shape, dtype)
        mapped.append(out.nbytes)
        return out

    monkeypatch.setattr(evaluation, "zeros", counted_zeros)
    tracemalloc.start()
    try:
        rank_split(model, store, index, "test", batch_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = model.entity_embeddings.data.size * 4
    scratch = min(evaluation._RANK_COLUMNS, n_ent) * batch_size * (4 + 1 + 1)
    assert peak + sum(mapped) <= 1.5 * (table + autodiff._WORKERS * scratch), (peak, mapped)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm") or os.confstr("CS_GNU_LIBC_VERSION") is None,
    reason="needs /proc/self/statm and glibc's malloc",
)
def test_rank_split_hands_its_scratch_back():
    """Scratch left on the heap, or a mapping kept, would leave the resident
    set grown by about a block once the call returns."""
    n_ent, batch_size = 8_000, 256
    store = _random_store(n_ent, 4, 2_000, 3 * batch_size)
    index = build_filter_index(store)
    model = EmbeddingModel(ModelConfig(d_e=4), store.n_entities, store.n_relations, stream(0))
    rank_split(model, store, index, "test", batch_size)
    # Freeing a block of this size lets malloc serve it from the heap, where
    # scratch made per block would stay resident after the call; the heap's
    # free pages are handed back first, so none of them can serve it unseen.
    np.ones((batch_size, n_ent), np.float32)
    malloc_trim = ctypes.CDLL(None).malloc_trim
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    malloc_trim(0)
    before = resident_bytes()
    rank_split(model, store, index, "test", batch_size)
    grown = resident_bytes() - before
    assert grown < 4 << 20, f"resident set grew by {grown / 2**20:.1f} MB"


def test_rank_split_rejects_an_unaugmented_store_and_an_empty_split():
    store = _random_store(6, 2, 10, 4)
    model = EmbeddingModel(ModelConfig(d_e=2), store.n_entities, store.n_relations, stream(0))
    index = build_filter_index(store)
    with pytest.raises(ConfigError, match="reciprocal-augmented"):
        rank_split(model, _random_store(6, 2, 10, 4, augment=False), index)
    with pytest.raises(ValueError, match="no triples to rank"):
        rank_split(model, store, index, "valid")
