"""Filtered ranking: tie handling, filtering, and MRR/Hits@k by hand."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgedistill.config import ModelConfig
from kgedistill.data import TripleStore, Vocabulary, augment_reciprocal, build_filter_index
from kgedistill.evaluation import evaluate, filtered_rank, rank_split
from kgedistill.models import EmbeddingModel
from kgedistill.rng import stream


class TestFilteredRank:
    @pytest.mark.parametrize(
        "scores, true_id, expected",
        [
            ([1.0, 5.0, 5.0, 5.0, 0.0], 1, 2.0),  # two ties share positions 1-3
            ([9.0, 5.0, 5.0, 0.0], 1, 2.5),  # one greater, one tie
            ([0.0] * 5, 2, 3.0),  # all equal: the middle of 1..5
            ([7.0], 0, 1.0),
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
