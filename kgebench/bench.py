"""The workloads and one measured run of a workload.

A run generates its graph from the seed, sets up several times, warms up,
then drives the public ``kgedistill`` API as one closed-loop caller for the
requested seconds: each ``train_epoch`` or ``rank_split`` call starts when
the previous one returns. Correctness checks and checkpoint round trips
run outside the timed region. With tracing on, a second timed region runs
with spans recorded and the per-layer metrics come from those spans.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from kgedistill import autodiff, data, evaluation, models, training
from kgedistill.config import RunConfig
from kgedistill.distill import TeacherCache
from kgedistill.errors import CheckpointError, ConfigError

import gen
import machine
import oracles
import spans

# Set up at least SETUP_MIN_REPEATS times, and more while under
# SETUP_MIN_SECONDS in total, so that a short set-up still gets a stable median.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 8.0
CHECK_ROWS = 64  # query rows for the loss check and the restore comparison
RANK_SAMPLES = 32  # sampled ranks per direction for the rank oracle
RANK_BATCH = 512
BCE_TOLERANCE = 1e-12
# Adam reads parameter, gradient and both moments and writes parameter and
# both moments: 7 float64 values per parameter per step.
ADAM_BYTES_PER_PARAM = 7 * 8
# Small graph for the determinism check: one 512-query batch per epoch.
REPLICA_SHAPE = gen.GraphShape(1_500, 11, 330, 250, 250)
REPLICA_EPOCHS = 2


@dataclass(frozen=True)
class Workload:
    shape: str
    model: dict
    isd: dict
    evaluate: bool  # rank the test split instead of training


WORKLOADS = {
    "wn18rr_distmult_isd": Workload("wn18rr", {"kind": "distmult", "d_e": 200}, {"enabled": True}, False),
    "fb15k237_eval": Workload("fb15k237", {"kind": "distmult", "d_e": 200}, {}, True),
}


def config_doc(wl: Workload, seed: int) -> dict:
    return {"model": dict(wl.model), "train": {"seed": seed}, "isd": dict(wl.isd)}


@dataclass
class Ops:
    """Operations attempted and failed, and whether every output checked out.

    The operations are the warm-up epoch, each correctness check and the
    checkpoint save, load and restore: a fixed list per workload, so the
    counts do not depend on how fast the machine ran. The timed calls are
    counted in the header's ``call_rates``.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def done(self) -> None:
        self.attempted += 1

    def fail(self, note: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)

    def check(self, name: str, ok: bool, detail: str) -> None:
        if ok:
            self.done()
        else:
            self.fail(f"check {name} failed: {detail}")
            self.correct = False


# ---------------------------------------------------------------------------
# Tracing from outside the package
# ---------------------------------------------------------------------------

def _forward_name(args, kwargs):
    training_flag = kwargs.get("training", args[3] if len(args) > 3 else False)
    kind = "models.forward_train" if training_flag else "models.forward_eval"
    return kind, len(args[1])


def _extract_name(args, kwargs):
    return ("distill.extract" if autodiff.grad_enabled() else "distill.extract_nograd"), None


def install_spans(tracer: spans.Tracer) -> None:
    """Wrap the names each module calls, at the module that calls them."""
    fixed = spans.fixed
    for owner, attr, name_of in (
        (data, "load_dataset", fixed("data.load_dataset")),
        (data, "augment_reciprocal", fixed("data.augment_reciprocal")),
        (data, "build_filter_index", fixed("data.build_filter_index")),
        (data.Batch, "targets", fixed("data.targets")),
        (training, "make_batches", fixed("data.make_batches")),
        (training, "label_smooth", fixed("data.label_smooth")),
        (training, "bce_loss", fixed("training.bce_loss")),
        (training, "extract", _extract_name),
        (training, "distill_loss", fixed("distill.distill_loss")),
        (training, "backward", fixed("autodiff.backward")),
        (training, "load_checkpoint", fixed("training.load_checkpoint")),
        (training, "model_from_checkpoint", fixed("training.model_from_checkpoint")),
        (training.Trainer, "__init__", fixed("training.trainer_init")),
        (training.Trainer, "train_epoch", fixed("training.train_epoch")),
        (training.Trainer, "save", fixed("training.save")),
        (training.Adam, "step", fixed("training.adam_step")),
        (models.EmbeddingModel, "forward", _forward_name),
        (TeacherCache, "refresh", fixed("distill.teacher_refresh")),
        (evaluation, "filtered_rank", fixed("evaluation.filtered_rank")),
        (evaluation, "rank_split", fixed("evaluation.rank_split")),
    ):
        tracer.patch(owner, attr, name_of)


@contextmanager
def tracing(tracer: spans.Tracer | None):
    """Install the spans for the block; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    install_spans(tracer)
    try:
        yield
    finally:
        tracer.remove()


# ---------------------------------------------------------------------------
# Phases of a run
# ---------------------------------------------------------------------------

def set_up(wl: Workload, data_dir: Path, seed: int):
    """Everything ``setup_s`` covers: parse, augment, config, trainer, filter index."""
    store = data.augment_reciprocal(data.load_dataset(data_dir))
    trainer = training.Trainer(store, RunConfig.from_dict(config_doc(wl, seed)))
    filter_index = data.build_filter_index(store) if wl.evaluate else None
    return store, trainer, filter_index


def timed_loop(call, work_per_call: int, seconds: float):
    """Call back to back until ``seconds`` have passed; rate of each call."""
    rates, result = [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = call()
        t1 = time.perf_counter()
        rates.append(work_per_call / (t1 - t0))
        if t1 - start >= seconds:
            return rates, result, t1 - start


def check_batch(store, trainer) -> data.Batch:
    rows = trainer.queries[:CHECK_ROWS]
    return data.Batch(
        heads=np.asarray([q[0] for q in rows], dtype=np.int64),
        relations=np.asarray([q[1] for q in rows], dtype=np.int64),
        tails=tuple(q[2] for q in rows),
        n_entities=store.n_entities,
    )


def check_bce(store, trainer, ops: Ops) -> None:
    batch = check_batch(store, trainer)
    eps = trainer.run_config.train.label_smoothing
    with autodiff.no_grad():
        logits = trainer.model.forward(batch.heads, batch.relations)
        value = float(training.bce_loss(logits, data.label_smooth(batch.targets(), eps)).data)
    reference = oracles.bce_reference(logits.data, list(batch.tails), eps)
    err = oracles.relative_error(value, reference)
    ops.check("bce_loss", err <= BCE_TOLERANCE, f"relative error {err:.3e} > {BCE_TOLERANCE}")


def rank_sample(n_triples: int, seed: int) -> np.ndarray:
    """Seeded, sorted positions of the test triples whose ranks are re-derived."""
    count = min(RANK_SAMPLES, n_triples)
    return np.sort(np.random.default_rng(seed).choice(n_triples, count, replace=False))


def check_ranks(store, model, splits, head_ranks, tail_ranks, seed: int, ops: Ops) -> None:
    """Recompute a seeded sample of ranks from the generator's triple sets."""
    triples = store.test[store.test[:, 1] < store.base_relation_count]
    n_rel = store.base_relation_count
    sets = oracles.TripleSets(splits, store.vocab.entity_ids, store.vocab.relation_ids)
    sample = rank_sample(len(triples), seed)
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    bad = []
    for q_h, q_r, truth, known_of, ranks in (
        (h, r, t, lambda i: sets.tails_of(h[i], r[i]), tail_ranks),
        (t, r + n_rel, h, lambda i: sets.heads_of(t[i], r[i]), head_ranks),
    ):
        # Score each sample inside the same batch rank_split used, so the
        # scores are the very ones it ranked.
        rows = []
        with autodiff.no_grad():
            for i in sample:
                start = i - i % RANK_BATCH
                logits = model.forward(q_h[start : start + RANK_BATCH], q_r[start : start + RANK_BATCH])
                rows.append(logits.data[i - start].copy())  # not a view of the batch
        bad += oracles.rank_mismatches(
            rows, truth[sample].tolist(), [known_of(i) for i in sample], ranks[sample].tolist()
        )
    ops.check("rank_split", not bad, f"{len(bad)} of {2 * len(sample)} sampled ranks differ: {bad[:3]}")


def check_determinism(wl: Workload, work: Path, seed: int, ops: Ops) -> str:
    """Two fresh trainers on the same small graph and seed must log identical losses."""
    directory = work / "replica"
    gen.write_graph(REPLICA_SHAPE, seed, directory)
    store = data.augment_reciprocal(data.load_dataset(directory))
    digests = []
    for _ in range(2):
        trainer = training.Trainer(store, RunConfig.from_dict(config_doc(wl, seed)))
        for _ in range(REPLICA_EPOCHS):
            trainer.train_epoch()
        digests.append(oracles.loss_digest(trainer.metrics_history))
    ops.check("determinism", digests[0] == digests[1], f"loss digests differ: {digests}")
    return digests[0]


def save_checkpoint(trainer, store, work: Path, tracer, ops: Ops) -> dict:
    """Save the trainer once; keep reference logits for the restore check."""
    batch = check_batch(store, trainer)
    with autodiff.no_grad():
        reference = trainer.model.forward(batch.heads, batch.relations).data.copy()
    directory = work / "checkpoint"
    with tracing(tracer):
        trainer.save(directory)
    ops.done()
    return {
        "directory": directory,
        "bytes": sum(p.stat().st_size for p in directory.iterdir()),
        "batch": batch,
        "reference": reference,
    }


def load_and_restore(saved: dict, tracer, ops: Ops) -> None:
    """Load the checkpoint, restore the model and compare its logits bit for bit."""
    with tracing(tracer):
        ckpt = training.load_checkpoint(saved["directory"])
    ops.done()
    try:
        with tracing(tracer):
            restored = training.model_from_checkpoint(ckpt)
    except (ConfigError, CheckpointError) as exc:
        ops.fail(f"restore failed: model_from_checkpoint raised {type(exc).__name__}: {exc}")
        return
    ops.done()
    batch = saved["batch"]
    with autodiff.no_grad():
        logits = restored.forward(batch.heads, batch.relations).data
    ops.check("restore", logits.tobytes() == saved["reference"].tobytes(), "restored logits differ")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns header, ops, metrics and notes."""
    work = Path(__file__).resolve().parent / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(WORKLOADS[name], name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: Workload, name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops = Ops()
    tracer = spans.Tracer() if trace else None
    header = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    header.update(machine.header_basics())
    header["copy_baseline"] = machine.copy_baseline()

    splits = gen.write_graph(gen.SHAPES[wl.shape], seed, work / "data")
    header["filter_list_sizes"] = gen.filter_list_sizes(splits)
    setup_s, built = [], None
    while len(setup_s) < SETUP_MIN_REPEATS or (
        sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPEATS
    ):
        built = None
        gc.collect()
        with tracing(tracer):
            t0 = time.perf_counter()
            built = set_up(wl, work / "data", seed)
            setup_s.append(time.perf_counter() - t0)
    store, trainer, filter_index = built
    header["setup_runs_s"] = setup_s
    del built

    cfg = trainer.run_config
    batch_size = cfg.train.batch_size
    isd = cfg.isd.enabled
    steps = len(trainer.queries) // batch_size
    n_params = sum(p.data.size for _, p in trainer.adam.named_params)
    header["store_stats"] = store.stats()
    header["count_parameters"] = models.count_parameters(
        cfg.model, store.n_entities, store.n_relations,
        (cfg.isd.k_b or cfg.model.d_e) if isd else None, batch_size if isd else None,
    )
    n_test = int((store.test[:, 1] < store.base_relation_count).sum())

    if wl.evaluate:
        work_per_call = 2 * n_test

        def call():
            return evaluation.rank_split(trainer.model, store, filter_index, "test", RANK_BATCH)
    else:
        header["steps_per_epoch"] = steps
        work_per_call = steps * batch_size
        trainer.train_epoch()  # epoch 0: untimed warm-up
        ops.done()

        def call():  # looked up per call, so the traced region sees the wrapper
            return trainer.train_epoch()

    rates, result, _ = timed_loop(call, work_per_call, seconds)
    header["call_rates"] = {"values": rates, "median": median(rates)}
    traced = None
    if tracer is not None:
        with tracing(tracer):
            traced = timed_loop(call, work_per_call, seconds)

    if wl.evaluate:
        head_ranks, tail_ranks = result
        ranks = np.concatenate([head_ranks, tail_ranks])
        bad = int((~np.isfinite(ranks) | (ranks < 1) | (ranks > store.n_entities)).sum())
        ops.check("rank_range", not bad, f"{bad} ranks outside [1, {store.n_entities}]")
        check_ranks(store, trainer.model, splits, head_ranks, tail_ranks, seed, ops)
    else:
        header["loss_digest"] = oracles.loss_digest(trainer.metrics_history)
        header["replica_loss_digest"] = check_determinism(wl, work, seed, ops)
    check_bce(store, trainer, ops)

    saved = save_checkpoint(trainer, store, work, tracer, ops)
    model_config = cfg.model
    # Release the trainer (weights, gradients, Adam moments) before loading.
    del trainer, call, cfg
    gc.collect()
    load_and_restore(saved, tracer, ops)

    if tracer is None:
        metrics = {
            "queries_per_s": (median(rates), "queries/s"),
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = layer_metrics(
            tracer.spans, rates, traced, n_params, store.n_entities, model_config.d_e,
            saved["bytes"], header["copy_baseline"],
        )
    return {"header": header, "ops": ops, "metrics": metrics}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run
# ---------------------------------------------------------------------------

TRAIN_LAYERS = {
    "data.targets_ms": ("data.targets",),
    "data.label_smooth_ms": ("data.label_smooth",),
    "training.bce_loss_ms": ("training.bce_loss",),
    "autodiff.backward_ms": ("autodiff.backward",),
    "training.adam_step_ms": ("training.adam_step",),
    "distill.extract_ms": ("distill.extract",),
    "distill.distill_loss_ms": ("distill.distill_loss",),
    "distill.refresh_ms": ("distill.extract_nograd", "distill.teacher_refresh"),
    "models.forward_train_ms": ("models.forward_train",),
    "training.train_epoch_self_ms": ("training.train_epoch",),
}
EVAL_LAYERS = {
    "models.forward_eval_ms": ("models.forward_eval",),
    "evaluation.filtered_rank_ms": ("evaluation.filtered_rank",),
    "evaluation.rank_split_self_ms": ("evaluation.rank_split",),
}
SPAN_SECONDS = {
    "data.load_dataset_s": "data.load_dataset",
    "data.build_filter_index_s": "data.build_filter_index",
    "training.trainer_init_s": "training.trainer_init",
    "training.checkpoint_save_s": "training.save",
    "training.checkpoint_load_s": "training.load_checkpoint",
    "training.model_from_checkpoint_s": "training.model_from_checkpoint",
}


def layer_metrics(all_spans, rates, traced, n_params, n_entities, d_e, ckpt_bytes, copy) -> dict:
    traced_rates, _, traced_wall_s = traced
    train_steps, train_pro = spans.step_buckets(all_spans, "training.train_epoch", "models.forward_train")
    eval_steps, _ = spans.step_buckets(all_spans, "evaluation.rank_split", "models.forward_eval")
    out = {}
    for metric, names in TRAIN_LAYERS.items():
        out[metric] = (spans.median_ms(train_steps, names), "ms")
    for metric, names in EVAL_LAYERS.items():
        out[metric] = (spans.median_ms(eval_steps, names), "ms")
    out["data.make_batches_ms"] = (spans.median_ms(train_pro, ("data.make_batches",)), "ms")

    adam_ms = out["training.adam_step_ms"][0]
    out["training.adam_gb_per_s"] = (
        ADAM_BYTES_PER_PARAM * n_params / (adam_ms / 1e3) / 1e9 if adam_ms else 0.0, "GB/s"
    )
    forwards = [s for s in all_spans if s.name in ("models.forward_train", "models.forward_eval")
                and s.parent is not None and all_spans[s.parent].name in ("training.train_epoch", "evaluation.rank_split")]
    out["models.score_gemm_gflop_per_s"] = (
        median(2.0 * s.size * n_entities * d_e / s.duration for s in forwards) if forwards else 0.0,
        "GFLOP/s",
    )
    rank_calls = [
        sum(1 for s in all_spans if s.parent == root.id and s.name == "evaluation.filtered_rank")
        for root in all_spans if root.name == "evaluation.rank_split"
    ]
    out["evaluation.filtered_rank_calls"] = (median(rank_calls) if rank_calls else 0, "count")
    for metric, span_name in SPAN_SECONDS.items():
        durations = [s.duration / 1e9 for s in all_spans if s.name == span_name]
        out[metric] = (median(durations) if durations else 0.0, "s")
    out["training.checkpoint_bytes"] = (ckpt_bytes, "count")
    out["machine.copy_gb_per_s"] = (copy["copy_gb_per_s"], "GB/s")
    out["trace.overhead_pct"] = ((median(rates) / median(traced_rates) - 1.0) * 100.0, "%")
    # Coverage of the reported figures: every per-step median times the number
    # of steps, plus make_batches once per epoch, against the traced wall time.
    # Time in spans that no metric reports, or medians that misstate the
    # typical step, show up as a gap from 100.
    accounted_ms = (
        sum(out[m][0] for m in TRAIN_LAYERS) * len(train_steps)
        + out["data.make_batches_ms"][0] * len(train_pro)
        + sum(out[m][0] for m in EVAL_LAYERS) * len(eval_steps)
    )
    out["trace.accounted_pct"] = (100.0 * accounted_ms / 1e3 / traced_wall_s, "%")
    return out
