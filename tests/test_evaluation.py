"""Filtered ranking: tie handling, filtering, and MRR/Hits@k by hand."""

import numpy as np
import pytest

from kgedistill.config import ModelConfig
from kgedistill.data import TripleStore, Vocabulary, augment_reciprocal, build_filter_index
from kgedistill.evaluation import evaluate, filtered_rank
from kgedistill.models import EmbeddingModel
from kgedistill.rng import RngState


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
    model = EmbeddingModel(config, 3, 2, RngState(0))
    model.entity_embeddings.data[:, 0] = [1.0, 2.0, 3.0]
    model.relation_embeddings.data[:, 0] = [1.0, -1.0]

    report = evaluate(model, store, build_filter_index(store), split="test")
    # (a, r, c): tail scores (1, 2, 3) with b filtered -> rank 1;
    #            head query (c, r_inv) scores (-3, -6, -9) -> a ranks 1.
    # (b, r, a): tail scores (2, 4, 6), nothing else filtered -> rank 3;
    #            head query (a, r_inv) scores (-1, -2, -3) -> b ranks 2.
    assert report.n_test == 2
    assert report.tail.to_dict() == pytest.approx({"mrr": (1 + 1 / 3) / 2, "h1": 0.5, "h3": 1.0, "h10": 1.0})
    assert report.head.to_dict() == pytest.approx({"mrr": (1 + 1 / 2) / 2, "h1": 0.5, "h3": 1.0, "h10": 1.0})
    assert report.mrr == pytest.approx(17 / 24)
    assert (report.h1, report.h3, report.h10) == (0.5, 1.0, 1.0)
