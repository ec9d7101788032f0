"""Tests of the benchmark's own parts: generator, span arithmetic, oracles.

Run with ``python3 -m pytest kgebench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import bench  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from kgedistill import data, evaluation, training  # noqa: E402
from kgedistill.autodiff import Tensor  # noqa: E402
from kgedistill.config import RunConfig  # noqa: E402

TINY = gen.GraphShape(300, 5, 400, 60, 60)


def _read_all(directory: Path) -> dict:
    return {name: (directory / f"{name}.txt").read_bytes() for name in gen.SPLITS}


def test_same_seed_gives_byte_identical_tsv(tmp_path):
    gen.write_graph(TINY, 7, tmp_path / "a")
    gen.write_graph(TINY, 7, tmp_path / "b")
    gen.write_graph(TINY, 8, tmp_path / "c")
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "c")


def test_graph_covers_every_entity_without_duplicates(tmp_path):
    gen.write_graph(TINY, 3, tmp_path)
    store = data.load_dataset(tmp_path)
    assert store.n_entities == TINY.n_entities
    assert store.stats()["train"] == TINY.n_train
    assert store.stats()["test"] == TINY.n_test


def _span(i, name, start, end, parent=None, size=None):
    return spans.Span(i, name, start, end, parent, size)


def test_self_time_on_hand_built_tree():
    tree = [
        _span(0, "root", 0, 100),
        _span(1, "a", 10, 40, 0),
        _span(2, "b", 50, 70, 0),
        _span(3, "c", 15, 25, 1),
        _span(4, "d", 80, 95, 0),
    ]
    assert spans.self_times(tree) == {0: 100 - 30 - 20 - 15, 1: 20, 2: 20, 3: 10, 4: 15}


def test_step_buckets_split_at_step_start_and_sum_to_root():
    tree = [
        _span(0, "epoch", 0, 100),
        _span(1, "batches", 2, 6, 0),
        _span(2, "forward", 10, 20, 0),
        _span(3, "loss", 22, 30, 0),
        _span(4, "inner", 24, 26, 3),
        _span(5, "forward", 50, 60, 0),
        _span(6, "loss", 61, 90, 0),
    ]
    steps, prologues = spans.step_buckets(tree, "epoch", "forward")
    assert prologues == [{"batches": 4, "epoch": 6}]
    assert steps == [
        {"forward": 10, "loss": 6, "inner": 2, "epoch": 22},
        {"forward": 10, "loss": 29, "epoch": 11},
    ]
    assert sum(sum(b.values()) for b in steps + prologues) == 100
    assert spans.median_ms(steps, ("loss", "inner")) == pytest.approx(37 / 2 / 1e6)


def test_tracer_records_parents_and_restores_originals():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Owner.__dict__["outer"]
    tracer = spans.Tracer()
    tracer.patch(Owner, "outer", spans.fixed("outer"))
    tracer.patch(Owner, "inner", spans.fixed("inner"))
    assert Owner().outer() == 2
    tracer.remove()
    assert Owner.__dict__["outer"] is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_bce_reference_matches_program_loss():
    rng = np.random.default_rng(0)
    logits = rng.normal(0.0, 3.0, (8, 50))
    tails = [rng.choice(50, size=k, replace=False) for k in range(1, 9)]
    batch = data.Batch(np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64), tuple(tails), 50)
    value = float(training.bce_loss(Tensor(logits), data.label_smooth(batch.targets(), 0.1)).data)
    assert oracles.relative_error(value, oracles.bce_reference(logits, tails, 0.1)) <= 1e-12


def test_loss_digest_sees_the_last_bit():
    history = [{"epoch": 0, "loss_bce": 0.5}]
    nudged = [{"epoch": 0, "loss_bce": np.nextafter(0.5, 1.0)}]
    assert oracles.loss_digest(history) == oracles.loss_digest([dict(history[0])])
    assert oracles.loss_digest(history) != oracles.loss_digest(nudged)


@pytest.fixture(scope="module")
def ranked(tmp_path_factory):
    directory = tmp_path_factory.mktemp("graph")
    splits = gen.write_graph(TINY, 5, directory)
    store = data.augment_reciprocal(data.load_dataset(directory))
    doc = {"model": {"kind": "distmult", "d_e": 8}, "train": {"batch_size": 16, "seed": 5}}
    trainer = training.Trainer(store, RunConfig.from_dict(doc))
    filter_index = data.build_filter_index(store)
    head, tail = evaluation.rank_split(trainer.model, store, filter_index, "test", bench.RANK_BATCH)
    return store, trainer.model, splits, head, tail


def test_rank_oracle_accepts_program_ranks(ranked):
    store, model, splits, head, tail = ranked
    ops = bench.Ops()
    bench.check_ranks(store, model, splits, head, tail, 5, ops)
    assert (ops.correct, ops.failed, ops.attempted) == (True, 0, 1)


@pytest.mark.parametrize("direction", ["head", "tail"])
def test_rank_oracle_flags_a_corrupted_rank(ranked, direction):
    store, model, splits, head, tail = ranked
    head, tail = head.copy(), tail.copy()
    n_test = int((store.test[:, 1] < store.base_relation_count).sum())
    victim = bench.rank_sample(n_test, 5)[3]
    (head if direction == "head" else tail)[victim] += 1.0
    ops = bench.Ops()
    bench.check_ranks(store, model, splits, head, tail, 5, ops)
    assert not ops.correct
    assert ops.failed == 1
    assert "1 of" in ops.notes[0]
