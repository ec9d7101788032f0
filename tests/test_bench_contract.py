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

from kgedistill import evaluation

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
