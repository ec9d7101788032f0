"""Adam optimization, the per-iteration distillation loop, and checkpoints.

The trainer is fully deterministic: the seed fixes four independent random
streams (model init, block init, epoch shuffling, dropout masks), so a
(seed, config, dataset) triple determines every logged number. Keeping the
streams separate is what makes "distillation enabled with beta 0" produce
bit-identical parameters to "distillation disabled".
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import shutil
import struct
import uuid
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor, _with_leaf_add, backward, custom_node, grad_enabled, no_grad, zeros
from .config import RunConfig
from .data import SparseTargets, TripleStore, group_queries, label_smooth, make_batches
from .distill import SemanticBlock, TeacherCache, beta_at_epoch, distill_loss, extract, total_loss
from .errors import CheckpointError, ConfigError, ShapeError, TrainingAbort
from .models import EmbeddingModel
from .rng import stream

__all__ = [
    "Adam",
    "Checkpoint",
    "Trainer",
    "bce_loss",
    "load_checkpoint",
    "lr_at_epoch",
    "model_from_checkpoint",
    "score_bce",
]


def lr_at_epoch(epoch: int, lr_initial: float, decay: float) -> float:
    """Exponentially decayed learning rate: lr * decay^epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return lr_initial * decay**epoch


# Row blocks of the BCE kernel span about _BLOCK_ELEMENTS elements, so their
# scratch buffers stay in the L2 cache; they also fix the order in which its
# partial sums are added. The Adam update runs over slices of
# _ADAM_BLOCK_ELEMENTS: any slicing gives the same bits, and larger slices
# mean fewer ufunc calls per step. The fused score head works on blocks of
# entity columns spanning about _SCORE_BLOCK_ELEMENTS scores (256 columns
# at a batch of 512), big enough for its three products to run at GEMM
# speed, and sums its query-side gradient over _SCORE_GROUPS fixed groups
# of those blocks.
_BLOCK_ELEMENTS = 1 << 14
_ADAM_BLOCK_ELEMENTS = 1 << 16
_SCORE_BLOCK_ELEMENTS = 1 << 17
_SCORE_GROUPS = 8

# The score-head and Adam loops hand each worker thread one contiguous range
# of whole blocks; numpy releases the GIL inside its ufuncs and BLAS calls,
# so the ranges run on separate cores. The pool starts on first use,
# with one thread per usable core, and a loop with fewer than
# ``min_per_worker`` blocks per worker runs inline on the calling thread.
_WORKERS = len(os.sched_getaffinity(0))
_MIN_BLOCKS_PER_WORKER = 4
_pool: ThreadPoolExecutor | None = None


def _run_blocks(n_blocks: int, work, min_per_worker: int = _MIN_BLOCKS_PER_WORKER) -> None:
    """Call ``work(first, stop)`` on contiguous ranges covering ``range(n_blocks)``.

    Each worker gets one range; the ranges depend on the worker count, so
    ``work`` must give the same result however its blocks are grouped.
    """
    global _pool
    workers = min(_WORKERS, n_blocks // min_per_worker)
    if workers <= 1:
        work(0, n_blocks)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="kgedistill")
    cuts = [n_blocks * i // workers for i in range(workers + 1)]
    futures = [_pool.submit(work, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    wait(futures)
    for future in futures:
        future.result()


# (get, set) thread-count calls of numpy's bundled OpenBLAS, looked up on
# first use; empty when the library or its symbols are not found.
_openblas_threads: tuple | None = None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore it.

    Inside, each worker's BLAS calls run on the worker itself, so the
    workers' products neither wait for nor spin up BLAS helper threads.
    Where numpy's OpenBLAS is not found, the block runs unpinned.
    """
    global _openblas_threads
    if _openblas_threads is None:
        _openblas_threads = ()
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
            put = getattr(handle, "scipy_openblas_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                _openblas_threads = (get, put)
                break
    if not _openblas_threads:
        yield
        return
    get, put = _openblas_threads
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def bce_loss(logits: Tensor, targets: SparseTargets) -> Tensor:
    """Multi-label binary cross entropy over all entities, from logits.

    ``targets`` is :class:`~kgedistill.data.SparseTargets` shaped like the
    logits (as returned by ``Batch.targets`` and mapped by ``label_smooth``),
    whose entries are ``on`` at the positives and ``off`` everywhere else.

    The value is mean(softplus(u) - y * u) with softplus(u) computed as
    max(u, 0) + log1p(exp(-|u|)), which never exponentiates a positive
    logit. sum(y * u) is off * sum(u) plus (on - off) times the sum over
    the positives, so no dense target matrix is built. One serial pass over
    row blocks (:func:`_bce_block`) adds the partial sums in block order and
    stores the residual sigmoid(u) - y; the gradient is g * residual / size.
    Training takes the same loss through :func:`score_bce`, which never
    builds the logits; this form is the reference for callers holding them.
    """
    _check_targets("bce_loss", targets, logits.shape)
    u = logits.data
    residual = np.empty_like(u)
    step = max(1, _BLOCK_ELEMENTS // max(u.shape[1], 1))
    scratch = np.empty((2, min(step, len(u)), u.shape[1]))
    softplus_sum = u_sum = 0.0
    for start in range(0, len(u), step):
        ub = u[start : start + step]
        e, s = scratch[0, : len(ub)], scratch[1, : len(ub)]
        log1p_sum, max_sum, block_u_sum = _bce_block(
            ub, residual[start : start + step], e, s, targets.off
        )
        softplus_sum += log1p_sum
        softplus_sum += max_sum
        u_sum += block_u_sum
    u_pos = u[targets.rows, targets.cols]
    yu_sum = targets.off * u_sum + (targets.on - targets.off) * float(u_pos.sum())
    residual[targets.rows, targets.cols] = _positive_residual(u_pos, targets.on)
    value = (softplus_sum - yu_sum) / u.size if u.size else float("nan")
    return custom_node(np.float64(value), (logits,), (lambda g: g * residual / u.size,))


def _check_targets(name: str, targets: SparseTargets, shape: tuple) -> None:
    """Raise unless ``targets`` are sparse, shaped ``shape`` and within [0, 1]."""
    if not isinstance(targets, SparseTargets):
        raise TypeError(f"{name} takes SparseTargets, got {type(targets).__name__}")
    if targets.shape != tuple(shape):
        raise ShapeError(f"{name}: scores {tuple(shape)} vs targets {targets.shape}")
    if min(targets.on, targets.off) < 0.0 or max(targets.on, targets.off) > 1.0:
        raise ValueError(f"{name} targets must lie in [0, 1]")


def score_bce(z: Tensor, entities: Tensor, targets: SparseTargets) -> Tensor:
    """``bce_loss(matmul(z, transpose(entities)), targets)`` without the logits.

    ``z`` holds one query vector per row and ``entities`` one entity per
    row; ``targets`` is :class:`~kgedistill.data.SparseTargets` shaped
    (queries, entities). The entity columns are taken in blocks of about
    ``_SCORE_BLOCK_ELEMENTS`` scores. For each block the forward pass
    computes the scores u = z E_blk^T, the block's BCE partial sums and
    residual r = sigmoid(u) - y with the kernel :func:`bce_loss` uses (the
    positives found by ``searchsorted`` over the targets sorted by column),
    adds r E_blk into the query-side gradient and writes r^T z into the
    block's rows of an entities-shaped gradient buffer. So neither the
    logits nor the residual exist beyond one block, and backward only
    scales both gradients by g / size; a leaf table takes its share as one
    contiguous blocked add.

    The blocks run on the worker pool with numpy's OpenBLAS held to one
    thread. The block partial sums are added in block order and the
    query-side gradient is summed within each of ``_SCORE_GROUPS`` fixed
    groups of blocks, then over the groups in order, so nothing depends on
    the number of workers. The results differ from the unfused chain's by
    a few ulp: the sums run in another order, and the gradients are scaled
    after the products rather than before.
    """
    if z.ndim != 2 or entities.ndim != 2 or z.shape[1] != entities.shape[1]:
        raise ShapeError(f"score_bce: incompatible shapes {z.shape} x {entities.shape}")
    n_rows, n_cols, dim = z.shape[0], entities.shape[0], z.shape[1]
    _check_targets("score_bce", targets, (n_rows, n_cols))
    on, off = targets.on, targets.off

    zd, ed = np.ascontiguousarray(z.data), np.ascontiguousarray(entities.data)
    want_dz = grad_enabled() and z.requires_grad
    want_de = grad_enabled() and entities.requires_grad
    cols = max(1, _SCORE_BLOCK_ELEMENTS // max(n_rows, 1))
    n_blocks = -(-n_cols // cols)
    per_group = -(-n_blocks // _SCORE_GROUPS)
    n_groups = -(-n_blocks // per_group) if n_blocks else 0
    # Positives sorted by column; block i holds entries bounds[i]:bounds[i + 1].
    by_col = np.lexsort((targets.rows, targets.cols))
    pos_rows, pos_cols = targets.rows[by_col], targets.cols[by_col]
    bounds = np.searchsorted(pos_cols, np.arange(n_blocks + 1) * cols)
    # Per block: sum of log1p(exp(-|u|)), sum of max(u, 0), sum of u, and
    # the sum of u over the positives.
    partials = np.empty((n_blocks, 4))
    dz_groups = np.zeros((n_groups, n_rows, dim)) if want_dz else None
    d_entities = np.empty_like(ed) if want_de else None

    def group_blocks(first: int, stop: int) -> None:
        width = min(cols, n_cols)
        scratch = np.empty((3, n_rows * width))
        product = np.empty((n_rows, dim)) if want_dz else None
        for group in range(first, stop):
            for i in range(group * per_group, min((group + 1) * per_group, n_blocks)):
                lo, hi = i * cols, min((i + 1) * cols, n_cols)
                u, e, s = (buf[: n_rows * (hi - lo)].reshape(n_rows, hi - lo) for buf in scratch)
                e_blk = ed[lo:hi]
                np.matmul(zd, e_blk.T, out=u)
                rows = pos_rows[bounds[i] : bounds[i + 1]]
                at = pos_cols[bounds[i] : bounds[i + 1]] - lo
                u_pos = u[rows, at]
                partials[i, :3] = _bce_block(u, u, e, s, off)
                partials[i, 3] = u_pos.sum()
                u[rows, at] = _positive_residual(u_pos, on)  # u now holds r
                if want_dz:
                    if i == group * per_group:
                        np.matmul(u, e_blk, out=dz_groups[group])
                    else:
                        dz_groups[group] += np.matmul(u, e_blk, out=product)
                if want_de:
                    np.matmul(u.T, zd, out=d_entities[lo:hi])

    with _one_blas_thread():
        _run_blocks(n_groups, group_blocks, min_per_worker=1)
    softplus_sum = u_sum = pos_sum = 0.0
    for log1p_sum, max_sum, block_u_sum, block_pos_sum in partials.tolist():
        softplus_sum += log1p_sum
        softplus_sum += max_sum
        u_sum += block_u_sum
        pos_sum += block_pos_sum
    size = n_rows * n_cols
    yu_sum = off * u_sum + (on - off) * pos_sum
    value = (softplus_sum - yu_sum) / size if size else float("nan")

    dz = None
    if want_dz:
        dz = dz_groups[0] if n_groups else np.zeros((n_rows, dim))
        for group in range(1, n_groups):
            dz += dz_groups[group]
    # Each backward pass calls a VJP once; handing a gradient on drops this
    # node's reference to it, so the entities-shaped buffer lives no longer
    # than the backward pass that consumes it.
    pending = {"z": dz, "entities": d_entities}

    def take(name: str) -> np.ndarray:
        if pending.get(name) is None:
            raise RuntimeError("score_bce gradient was already taken; rebuild the loss")
        return pending.pop(name)

    def scaled(name: str):
        def vjp(g):
            out = np.multiply(take(name), g)
            out /= size
            return out

        return vjp

    def add_entities(g, grad):
        source = take("entities")
        step = max(1, _BLOCK_ELEMENTS // max(dim, 1))

        def add_blocks(first: int, stop: int) -> None:
            scratch = np.empty((min(step, n_cols), dim))
            for i in range(first, stop):
                rows = slice(i * step, (i + 1) * step)
                part = source[rows]
                block = np.multiply(part, g, out=scratch[: len(part)])
                block /= size
                grad[rows] += block

        _run_blocks(-(-n_cols // step), add_blocks)

    return custom_node(
        np.float64(value), (z, entities),
        (scaled("z"), _with_leaf_add(scaled("entities"), add_entities)),
    )


def _bce_block(u, out, e, scratch, off: float) -> tuple:
    """BCE partial sums over one block of logits ``u`` whose targets are all
    ``off``; leaves the residual sigmoid(u) - off in ``out``, which may be
    ``u`` itself. The caller corrects the positives.

    Returns sum(log1p(exp(-|u|))), sum(max(u, 0)) and sum(u). ``e`` and
    ``scratch`` are buffers shaped like ``u``.
    """
    np.abs(u, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    log1p_sum = np.log1p(e, out=scratch).sum()
    max_sum = np.maximum(u, 0.0, out=scratch).sum()
    u_sum = u.sum()
    _sigmoid(u, e, out, scratch)
    out -= off
    return log1p_sum, max_sum, u_sum


def _positive_residual(u: np.ndarray, on: float) -> np.ndarray:
    """sigmoid(u) - on for the logits of the positives, by the block formula."""
    e = np.exp(-np.abs(u))
    return _sigmoid(u, e, np.empty_like(u), np.empty_like(u)) - on


def _sigmoid(u: np.ndarray, e: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """exp(min(u, 0)) / (1 + e) with ``e = exp(-|u|)``: the logistic function
    without overflow and with full relative precision in both tails.

    exp(min(u, 0)) is e where u <= 0 and 1 where u > 0; since e <= 1 it is
    max(e, u > 0), which needs no second exponential. ``out`` may be ``u``.
    """
    np.greater(u, 0.0, out=out, casting="unsafe")
    np.maximum(e, out, out=out)
    np.divide(out, np.add(e, 1.0, out=scratch), out=out)
    return out


class Adam:
    """Bias-corrected Adam over named parameters (beta 0.9/0.999, eps 1e-8).

    The update runs over slices of about ``_ADAM_BLOCK_ELEMENTS`` elements
    with two small scratch buffers per worker, so each slice stays in cache
    through the whole update, and the slices of a parameter are shared out
    over the module's worker pool (one thread per usable core). Every
    operation is elementwise and in the order of the textbook formula, so
    the result depends neither on the slicing nor on the number of workers.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, named_params: list):
        self.named_params = list(named_params)
        self.moment1 = {name: zeros(p.data.shape) for name, p in self.named_params}
        self.moment2 = {name: zeros(p.data.shape) for name, p in self.named_params}
        self.step_count = 0

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1**self.step_count
        correction2 = 1.0 - self.beta2**self.step_count
        for name, p in self.named_params:
            flat = [_flat(a, name) for a in (p.data, p.grad, self.moment1[name], self.moment2[name])]
            n_slices = -(-flat[0].size // _ADAM_BLOCK_ELEMENTS)
            _run_blocks(n_slices, partial(self._update, flat, lr, correction1, correction2))

    def _update(self, flat: list, lr: float, correction1: float, correction2: float,
                first: int, stop: int) -> None:
        """Update slices ``first`` to ``stop`` of one parameter, whose flat
        parameter, gradient and moment arrays are ``flat``."""
        block = _ADAM_BLOCK_ELEMENTS
        scratch = np.empty((2, min(block, flat[0].size)))
        for start in range(first * block, min(stop * block, flat[0].size), block):
            w, g, m, v = (a[start : start + block] for a in flat)
            t1, t2 = scratch[0, : len(w)], scratch[1, : len(w)]
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=t1)
            # v = beta2 * v + (1 - beta2) * g^2
            v *= self.beta2
            np.multiply(g, g, out=t1)
            v += np.multiply(1.0 - self.beta2, t1, out=t1)
            # w -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, correction1, out=t1)
            np.multiply(lr, t1, out=t1)
            np.divide(v, correction2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += self.eps
            w -= np.divide(t1, t2, out=t1)


def _flat(a: np.ndarray, name: str) -> np.ndarray:
    """A flat view of ``a``; updates through it must reach the array itself."""
    if not a.flags.c_contiguous:
        raise ValueError(f"Adam needs C-contiguous arrays for parameter {name}")
    return a.reshape(-1)


class Trainer:
    """Owns the model, optional distillation block, optimizer, and random streams.

    ``store`` must be reciprocal-augmented. One :meth:`train_epoch` call runs
    the full per-batch loop: BCE on smoothed 1-N targets, the softened KL
    term against the cached teacher vector when distillation is active, one
    Adam step, then a detached re-extraction that becomes the next teacher.
    Random streams are ``stream(seed, label)`` for "shuffle", "dropout",
    "model-init" and "block-init"; checkpoints keep the first two's states.
    """

    def __init__(self, store: TripleStore, run_config: RunConfig):
        if not store.augmented:
            raise ConfigError("trainer requires a reciprocal-augmented store")
        run_config.validate()
        self.store = store
        self.run_config = run_config
        self.epoch = 0
        self.metrics_history: list[dict] = []

        seed = run_config.train.seed
        self.rng_shuffle = stream(seed, "shuffle")
        self.rng_dropout = stream(seed, "dropout")

        self.model = EmbeddingModel(
            run_config.model, store.n_entities, store.n_relations, stream(seed, "model-init")
        )
        self.block = None
        if run_config.isd.enabled:
            k_b = run_config.isd.k_b or run_config.model.d_e
            self.block = SemanticBlock(
                embed_dim=run_config.model.d_e,
                n_entities=store.n_entities,
                batch_size=run_config.train.batch_size,
                k_b=k_b,
                rng=stream(seed, "block-init"),
            )
        self.teacher = TeacherCache()
        self.queries = group_queries(store)
        self.adam = Adam(self._named_parameters())

    def _named_parameters(self) -> list:
        named = [(f"model.{n}", p) for n, p in self.model.named_parameters()]
        if self.block is not None:
            named.extend((f"block.{n}", p) for n, p in self.block.named_parameters())
        return named

    def train_epoch(self) -> dict:
        """Run one epoch and return its metrics record."""
        cfg = self.run_config.train
        dcfg = self.run_config.isd
        ep = self.epoch
        if ep >= cfg.epochs:
            raise ValueError(f"epoch {ep} is outside the configured schedule of {cfg.epochs}")

        beta = beta_at_epoch(ep, cfg.epochs, dcfg.beta_init) if dcfg.enabled else 0.0
        lr = lr_at_epoch(ep, cfg.lr, cfg.lr_decay)
        # With beta exactly 0 the KL term cannot contribute, so the whole
        # distillation path is skipped; this keeps the run bit-identical to
        # a distillation-disabled run.
        use_isd = dcfg.enabled and beta > 0.0

        batches = make_batches(self.store, cfg.batch_size, self.rng_shuffle, self.queries)
        first_batch = batches[0]
        bce_sum = kl_sum = loss_sum = 0.0
        for index, batch in enumerate(batches):
            self.adam.zero_grad()
            targets = label_smooth(batch.targets(), cfg.label_smoothing)
            bce = self.model.forward(
                batch.heads, batch.relations, training=True, rng=self.rng_dropout,
                targets=targets,
            )
            if use_isd and self.teacher.present:
                student = extract(batch.heads, self.model.entity_embeddings, self.block)
                kl = distill_loss(student, self.teacher.vector, dcfg.temperature)
            else:
                kl = Tensor(0.0)
            loss = total_loss(bce, kl, beta)
            if not np.isfinite(loss.data):
                raise TrainingAbort(
                    ep, index, f"non-finite loss at epoch {ep}, batch {index}"
                )
            backward(loss)
            self.adam.step(lr)
            if use_isd:
                heads = first_batch.heads if dcfg.static_input else batch.heads
                with no_grad():
                    refreshed = extract(heads, self.model.entity_embeddings, self.block)
                self.teacher.refresh(refreshed.data)
            bce_sum += float(bce.data)
            kl_sum += float(kl.data)
            loss_sum += float(loss.data)

        n = len(batches)
        record = {
            "epoch": ep,
            "loss_bce": bce_sum / n,
            "loss_kl": kl_sum / n,
            "beta": beta,
            "lr": lr,
            "loss_total": loss_sum / n,
        }
        self.epoch += 1
        self.metrics_history.append(record)
        return record

    # -- checkpointing ---------------------------------------------------------

    def _named_tensors(self) -> dict:
        """Every array a checkpoint restores, by name: model parameters and
        buffers, block parameters, and both Adam moments."""
        tensors = _model_tensors(self.model)
        if self.block is not None:
            tensors.update((f"block.{n}", p.data) for n, p in self.block.named_parameters())
        for name in self.adam.moment1:
            tensors[f"adam.m.{name}"] = self.adam.moment1[name]
            tensors[f"adam.v.{name}"] = self.adam.moment2[name]
        return tensors

    def save(self, directory: str | Path) -> None:
        """Write a resumable checkpoint: manifest, vocab, one file per tensor.

        The files are written into a fresh sibling directory that is then
        renamed to ``directory``. A checkpoint already there is first moved
        aside and deleted once the new one is in place, so a save that fails
        while writing leaves the earlier checkpoint as it was and removes its
        own partial files. Nothing is fsynced: the renames protect against a
        failed or killed save, not against a power loss or an OS crash.
        """
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}.tmp")
        staging.mkdir()
        try:
            self._write_checkpoint(staging)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        aside = staging.with_suffix(".old")
        if directory.exists():
            os.replace(directory, aside)
        os.replace(staging, directory)
        shutil.rmtree(aside, ignore_errors=True)

    def _write_checkpoint(self, directory: Path) -> None:
        tensors = self._named_tensors()
        if self.teacher.present:
            tensors["teacher.vector"] = self.teacher.vector
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self.run_config.to_dict(),
            "epoch": self.epoch,
            "seed": self.run_config.train.seed,
            "adam_step": self.adam.step_count,
            "rng": {
                "shuffle": self.rng_shuffle.bit_generator.state,
                "dropout": self.rng_dropout.bit_generator.state,
            },
            "teacher_present": self.teacher.present,
            "metrics_history": self.metrics_history,
            "tensors": sorted(tensors),
            "n_entities": self.store.n_entities,
            "n_relations": self.store.n_relations,
            "base_relations": self.store.base_relation_count,
        }
        with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, arr in tensors.items():
            _write_tensor(directory / f"{name}.bin", arr)
        with open(directory / "entities.txt", "w", encoding="utf-8") as fh:
            fh.writelines(e + "\n" for e in self.store.vocab.entities)
        with open(directory / "relations.txt", "w", encoding="utf-8") as fh:
            fh.writelines(r + "\n" for r in self.store.vocab.relations)

    @classmethod
    def resume(cls, directory: str | Path, store: TripleStore) -> "Trainer":
        """Rebuild a trainer from a checkpoint, bit-exact with the saved run."""
        ckpt = load_checkpoint(directory)
        ckpt.check_vocab(store)
        trainer = cls(store, ckpt.config)
        _load_tensors(trainer._named_tensors(), ckpt.tensors)
        trainer.adam.step_count = ckpt.manifest["adam_step"]
        trainer.epoch = ckpt.manifest["epoch"]
        trainer.metrics_history = list(ckpt.manifest["metrics_history"])
        trainer.rng_shuffle.bit_generator.state = ckpt.manifest["rng"]["shuffle"]
        trainer.rng_dropout.bit_generator.state = ckpt.manifest["rng"]["dropout"]
        if ckpt.manifest["teacher_present"]:
            trainer.teacher.refresh(ckpt.tensors["teacher.vector"])
        return trainer


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "kgedistill-checkpoint"
CHECKPOINT_VERSION = 1
_TENSOR_MAGIC = b"KGE1"
_MAX_RANK = 8
# The manifest keys read by loading a checkpoint, resuming from it or building its model.
_MANIFEST_KEYS = (
    "adam_step", "config", "epoch", "metrics_history", "n_entities", "n_relations", "rng",
    "teacher_present", "tensors",
)


@dataclass
class Checkpoint:
    """A loaded checkpoint: manifest, tensors, and vocabulary names."""

    manifest: dict
    tensors: dict
    entities: list[str] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)

    @property
    def config(self) -> RunConfig:
        return RunConfig.from_dict(self.manifest["config"])

    def check_vocab(self, store: TripleStore) -> None:
        """Raise :class:`ConfigError` unless ``store`` (reciprocal-augmented)
        names the same entities and relations as the checkpoint, in order."""
        for kind, saved, names in (
            ("entities", self.entities, store.vocab.entities),
            ("relations", self.relations, store.vocab.relations),
        ):
            if saved != names:
                raise ConfigError(
                    f"dataset {kind} differ from the checkpoint's "
                    f"({len(names)} vs {len(saved)} names, compared in order)"
                )


def _write_tensor(path: Path, arr: np.ndarray) -> None:
    """Write one tensor file; the body is written from the array's own buffer."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(memoryview(arr))


def _read_tensor(path: Path) -> np.ndarray:
    """Read one tensor file; the body goes straight into the returned array."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if header[:4] != _TENSOR_MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes, not a tensor file")
        if len(header) < 8:
            raise CheckpointError(f"{path}: truncated header")
        (rank,) = struct.unpack_from("<I", header, 4)
        if rank > _MAX_RANK:
            raise CheckpointError(f"{path}: implausible tensor rank {rank}")
        raw_dims = fh.read(8 * rank)
        if len(raw_dims) < 8 * rank:
            raise CheckpointError(f"{path}: truncated dimension header")
        dims = struct.unpack(f"<{rank}Q", raw_dims)
        expected = int(np.prod(dims, dtype=np.int64)) if rank else 1
        body = os.fstat(fh.fileno()).st_size - 8 - 8 * rank
        if body != expected * 8:
            raise CheckpointError(
                f"{path}: expected {expected * 8} data bytes for shape {dims}, got {body}"
            )
        out = np.empty(dims, dtype="<f8")
        if fh.readinto(out.data) != body:
            raise CheckpointError(f"{path}: file shrank while it was read")
    return out.astype(np.float64, copy=False)


def _load_tensors(targets: dict, tensors: dict) -> None:
    """Copy each checkpoint tensor into the array of the same name in ``targets``."""
    for name, target in targets.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name}")
        value = tensors[name]
        if target.shape != value.shape:
            raise CheckpointError(
                f"tensor {name} has shape {value.shape}, expected {target.shape}"
            )
        target[...] = value


def _model_tensors(model: EmbeddingModel) -> dict:
    """The model's parameters and buffers under their checkpoint names."""
    tensors = {f"model.{n}": p.data for n, p in model.named_parameters()}
    tensors.update((f"model.{n}", b) for n, b in model.named_buffers())
    return tensors


def load_checkpoint(directory: str | Path) -> Checkpoint:
    """Read and validate a checkpoint directory."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise CheckpointError(f"no manifest.json in {directory}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{manifest_path}: corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{manifest_path}: not a {CHECKPOINT_FORMAT} manifest")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{manifest_path}: unsupported version {manifest.get('version')!r}"
        )
    rng = manifest.get("rng")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest] + [
        f"rng.{key}" for key in ("shuffle", "dropout") if not isinstance(rng, dict) or key not in rng
    ]
    if missing:
        raise CheckpointError(f"{manifest_path}: manifest lacks {', '.join(missing)}")
    for key in ("adam_step", "epoch", "n_entities", "n_relations"):
        if type(manifest[key]) is not int or manifest[key] < 0:
            raise CheckpointError(
                f"{manifest_path}: {key} must be a non-negative integer, got {manifest[key]!r}"
            )
    if not isinstance(manifest["metrics_history"], list):
        raise CheckpointError(f"{manifest_path}: metrics_history must be a list")
    if not isinstance(manifest["teacher_present"], bool):
        raise CheckpointError(f"{manifest_path}: teacher_present must be true or false")
    names = manifest["tensors"]
    # Each name becomes <directory>/<name>.bin, so it must not leave the directory.
    if not isinstance(names, list) or not all(
        isinstance(name, str) and re.fullmatch(r"(?!\.+$)[\w.-]+", name) for name in names
    ):
        raise CheckpointError(f"{manifest_path}: tensor names must be plain file stems")
    if manifest["teacher_present"] and "teacher.vector" not in names:
        raise CheckpointError(f"{manifest_path}: a teacher is present but not saved")
    tensors = {name: _read_tensor(directory / f"{name}.bin") for name in names}

    def read_names(path: Path) -> list[str]:
        if not path.is_file():
            return []
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]

    return Checkpoint(
        manifest=manifest,
        tensors=tensors,
        entities=read_names(directory / "entities.txt"),
        relations=read_names(directory / "relations.txt"),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> EmbeddingModel:
    """Instantiate the model a checkpoint describes and load its tensors."""
    config = ckpt.config
    model = EmbeddingModel(
        config.model, ckpt.manifest["n_entities"], ckpt.manifest["n_relations"],
        stream(0, "unused-init"),
    )
    _load_tensors(_model_tensors(model), ckpt.tensors)
    return model
