"""The benchmark drives package names from outside; each must still exist.

``kgebench/bench.py`` patches attributes found in a module's or class's own
``__dict__`` and raises ``KeyError`` on a missing one, which would crash
every traced benchmark run. The untimed path calls further names directly
(config parsing, checkpoint load and restore, ``grad_enabled``), so it runs
here once on the benchmark's small replica graph, and so does the ranking
path with the benchmark's own rank oracle.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from kgedistill import evaluation
from kgedistill.autodiff import gather_rows, matmul, no_grad, transpose
from kgedistill.config import ModelConfig
from kgedistill.data import Batch, label_smooth
from kgedistill.models import EmbeddingModel, bce_loss
from kgedistill.rng import stream

BENCH_DIR = Path(__file__).resolve().parent.parent / "kgebench"


def _import(name: str):
    """A module of the benchmark, which imports its siblings by bare name."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))


class RecordingTracer:
    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name_of):
        self.patched.append((owner, attr))


def test_every_traced_name_exists():
    bench = _import("bench")
    tracer = RecordingTracer()
    bench.install_spans(tracer)
    assert tracer.patched
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in tracer.patched if a not in vars(o)]
    assert not missing, f"names the benchmark traces are gone: {missing}"


def test_untimed_path_runs_on_the_replica_graph(tmp_path):
    bench, gen, spans = (_import(name) for name in ("bench", "gen", "spans"))
    workload = bench.WORKLOADS["wn18rr_distmult_isd"]
    gen.write_graph(bench.REPLICA_SHAPE, 5, tmp_path / "data")
    store, trainer, _ = bench.set_up(workload, tmp_path / "data", 5)
    ops, tracer = bench.Ops(), spans.Tracer()
    trainer.train_epoch()
    with bench.tracing(tracer):  # the span names of extract call grad_enabled
        trainer.train_epoch()
    bench.check_bce(store, trainer, ops)
    saved = bench.save_checkpoint(trainer, store, tmp_path, tracer, ops)
    bench.load_and_restore(saved, tracer, ops)
    assert ops.failed == 0, ops.notes
    assert ops.attempted == 5
    names = {s.name for s in tracer.spans}
    assert {"distill.extract", "training.save", "training.load_checkpoint"} <= names


def test_eval_path_ranks_pass_the_oracle(tmp_path):
    bench, gen = (_import(name) for name in ("bench", "gen"))
    splits = gen.write_graph(bench.REPLICA_SHAPE, 5, tmp_path / "data")
    store, trainer, filter_index = bench.set_up(bench.WORKLOADS["fb15k237_eval"], tmp_path / "data", 5)
    head, tail = evaluation.rank_split(trainer.model, store, filter_index, "test", bench.RANK_BATCH)
    ops = bench.Ops()
    bench.check_ranks(store, trainer.model, splits, head, tail, 5, ops)
    assert (ops.failed, ops.attempted) == (0, 1), ops.notes


@pytest.mark.parametrize("kind", ["distmult", "complex", "tucker", "lowfer"])
def test_eval_logits_and_bce_loss_stay_float64(kind):
    """Only the training head computes in float32. The eval forward, which
    the rank and restore checks read, is the float64 product chain byte for
    byte, and ``bce_loss`` meets the loss check's 1e-12 against its oracle.
    Each kind runs at its default batchnorm, moved off its initial
    statistics by one training forward."""
    oracles = _import("oracles")
    rng = np.random.default_rng(5)
    model = EmbeddingModel(ModelConfig(kind=kind, d_e=6, k_l=2), 40, 4, stream(3, "model"))
    model.entity_embeddings.data *= 20.0  # logits of order one
    heads, relations = rng.integers(0, 40, 12), rng.integers(0, 4, 12)
    tails = [rng.choice(40, size=k, replace=False) for k in rng.integers(1, 5, 12)]
    with no_grad():
        model.forward(heads, relations, training=True, rng=stream(3, "drop"))
        logits = model.forward(heads, relations)
        h = gather_rows(model.entity_embeddings, heads)
        if model.bn_input is not None:
            h = model.bn_input(h, False)
        z = model.interaction(h, gather_rows(model.relation_embeddings, relations))
        if model.bn_output is not None:
            z = model.bn_output(z, False)
        chain = matmul(z, transpose(model.entity_embeddings))
        value = float(bce_loss(logits, label_smooth(Batch(heads, relations, tuple(tails), 40).targets(), 0.1)).data)
    assert logits.data.dtype == np.float64
    assert logits.data.tobytes() == chain.data.tobytes()
    assert oracles.relative_error(value, oracles.bce_reference(logits.data, tails, 0.1)) <= 1e-12
