"""Adam optimization, the per-iteration distillation loop, and checkpoints.

The trainer is fully deterministic: the seed fixes four independent random
streams (model init, block init, epoch shuffling, dropout masks), so a
(seed, config, dataset) triple determines every logged number. Keeping the
streams separate is what makes "distillation enabled with beta 0" produce
bit-identical parameters to "distillation disabled".
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import uuid
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, custom_node, no_grad
from .config import RunConfig
from .data import SparseTargets, TripleStore, group_queries, label_smooth, make_batches
from .distill import SemanticBlock, TeacherCache, beta_at_epoch, distill_loss, extract, total_loss
from .errors import CheckpointError, ConfigError, ShapeError, TrainingAbort
from .models import EmbeddingModel
from .rng import RngState

__all__ = [
    "Adam",
    "Checkpoint",
    "Trainer",
    "bce_loss",
    "load_checkpoint",
    "lr_at_epoch",
    "model_from_checkpoint",
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
# mean fewer ufunc calls per step.
_BLOCK_ELEMENTS = 1 << 14
_ADAM_BLOCK_ELEMENTS = 1 << 16

# The BCE and Adam loops hand each worker thread one contiguous range of
# whole blocks; numpy releases the GIL inside its ufuncs, so the ranges run
# on separate cores. The pool starts on first use, with one thread per
# usable core, and a loop with fewer than this many blocks per worker runs
# inline on the calling thread.
_WORKERS = len(os.sched_getaffinity(0))
_MIN_BLOCKS_PER_WORKER = 4
_pool: ThreadPoolExecutor | None = None


def _run_blocks(n_blocks: int, work) -> None:
    """Call ``work(first, stop)`` on contiguous ranges covering ``range(n_blocks)``.

    Each worker gets one range; the ranges depend on the worker count, so
    ``work`` must give the same result however its blocks are grouped.
    """
    global _pool
    workers = min(_WORKERS, n_blocks // _MIN_BLOCKS_PER_WORKER)
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


def bce_loss(logits: Tensor, targets) -> Tensor:
    """Multi-label binary cross entropy over all entities, from logits.

    ``targets`` is a dense array shaped like the logits, or
    :class:`~kgedistill.data.SparseTargets` (as returned by ``Batch.targets``
    and mapped by ``label_smooth``), whose entries are ``on`` at the
    positives and ``off`` everywhere else.

    The value is mean(softplus(u) - y * u) with softplus(u) computed as
    max(u, 0) + log1p(exp(-|u|)), which never exponentiates a positive
    logit. In the sparse form sum(y * u) is off * sum(u) plus (on - off)
    times the sum over the positives, so no dense target matrix is built.
    One pass over row blocks also stores the residual sigmoid(u) - y, with
    the sigmoid taken from the same exp(-|u|), and the gradient is
    g * residual / size.

    Both passes run on the module's worker pool (one thread per usable
    core), a contiguous range of row blocks per worker. The per-block
    partial sums are added on the calling thread in block order, so the
    value and the gradient do not depend on the number of workers.
    """
    u = logits.data
    sparse = isinstance(targets, SparseTargets)
    if sparse:
        y, shape = None, targets.shape
        low, high = min(targets.on, targets.off), max(targets.on, targets.off)
    else:
        y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
        shape = y.shape
        low, high = (y.min(), y.max()) if y.size else (0.0, 0.0)
    if logits.shape != shape:
        raise ShapeError(f"bce_loss: logits {logits.shape} vs targets {shape}")
    if low < 0.0 or high > 1.0:
        raise ValueError("bce_loss targets must lie in [0, 1]")

    width = u.shape[-1] if u.ndim else 1
    u2 = u.reshape(-1, width)
    y2 = None if sparse else y.reshape(-1, width)
    residual = np.empty_like(u2)
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    n_blocks = -(-len(u2) // step)
    # Per block: sum of log1p(exp(-|u|)), sum of max(u, 0), and sum(u)
    # (sparse targets) or sum(y * u) (dense targets).
    partials = np.empty((n_blocks, 3))

    def forward_blocks(first: int, stop: int) -> None:
        scratch = np.empty((2, min(step, len(u2)), width))
        for i in range(first, stop):
            rows = slice(i * step, (i + 1) * step)
            ub, rb = u2[rows], residual[rows]
            t1, t2 = scratch[0, : len(ub)], scratch[1, : len(ub)]
            np.abs(ub, out=t1)
            np.negative(t1, out=t1)
            np.exp(t1, out=t1)
            partials[i, 0] = np.log1p(t1, out=t2).sum()
            partials[i, 1] = np.maximum(ub, 0.0, out=t2).sum()
            _sigmoid(ub, t1, rb, t2)
            if sparse:
                partials[i, 2] = ub.sum()
                rb -= targets.off
            else:
                yb = y2[rows]
                partials[i, 2] = np.multiply(yb, ub, out=t2).sum()
                rb -= yb

    _run_blocks(n_blocks, forward_blocks)
    softplus_sum = third_sum = 0.0
    for log1p_sum, max_sum, third in partials.tolist():
        softplus_sum += log1p_sum
        softplus_sum += max_sum
        third_sum += third
    if sparse:
        u_pos = u2[targets.rows, targets.cols]
        yu_sum = targets.off * third_sum + (targets.on - targets.off) * float(u_pos.sum())
        e_pos = np.exp(-np.abs(u_pos))
        sigmoid_pos = _sigmoid(u_pos, e_pos, np.empty_like(u_pos), np.empty_like(u_pos))
        residual[targets.rows, targets.cols] = sigmoid_pos - targets.on
    else:
        yu_sum = third_sum
    value = (softplus_sum - yu_sum) / u.size if u.size else float("nan")
    pending = [residual]

    def vjp(g):
        # Each backward pass calls a node's VJP once; the residual buffer is
        # scaled in place and handed on, so no second N-wide array is made.
        if not pending:
            raise RuntimeError("bce_loss gradient was already taken; rebuild the loss")
        grad = pending.pop()

        def scale_blocks(first: int, stop: int) -> None:
            for i in range(first, stop):
                gb = grad[i * step : (i + 1) * step]
                np.multiply(g, gb, out=gb)
                gb /= u.size

        _run_blocks(n_blocks, scale_blocks)
        return grad.reshape(u.shape)

    return custom_node(np.float64(value), (logits,), (vjp,))


def _sigmoid(u: np.ndarray, e: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """exp(min(u, 0)) / (1 + e) with ``e = exp(-|u|)``: the logistic function
    without overflow and with full relative precision in both tails.

    exp(min(u, 0)) is e where u <= 0 and 1 where u > 0; since e <= 1 it is
    max(e, u > 0), which needs no second exponential.
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
        self.moment1 = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.moment2 = {name: np.zeros_like(p.data) for name, p in self.named_params}
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
    """Owns the model, optional distillation block, optimizer, and rng state.

    ``store`` must be reciprocal-augmented. One :meth:`train_epoch` call runs
    the full per-batch loop: BCE on smoothed 1-N targets, the softened KL
    term against the cached teacher vector when distillation is active, one
    Adam step, then a detached re-extraction that becomes the next teacher.
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
        base = RngState(seed)
        self.rng_shuffle = base.derive("shuffle")
        self.rng_dropout = base.derive("dropout")

        self.model = EmbeddingModel(
            run_config.model, store.n_entities, store.n_relations, base.derive("model-init")
        )
        self.block = None
        if run_config.isd.enabled:
            k_b = run_config.isd.k_b or run_config.model.d_e
            self.block = SemanticBlock(
                embed_dim=run_config.model.d_e,
                n_entities=store.n_entities,
                batch_size=run_config.train.batch_size,
                k_b=k_b,
                rng=base.derive("block-init"),
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
            logits = self.model.forward(
                batch.heads, batch.relations, training=True, rng=self.rng_dropout
            )
            targets = label_smooth(batch.targets(), cfg.label_smoothing)
            bce = bce_loss(logits, targets)
            if use_isd and self.teacher.present:
                student = extract(batch, self.model.entity_embeddings, self.block)
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
                source = first_batch if dcfg.static_input else batch
                with no_grad():
                    refreshed = extract(source, self.model.entity_embeddings, self.block)
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
        own partial files.
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
            "rng": {"shuffle": self.rng_shuffle.state, "dropout": self.rng_dropout.state},
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
        trainer.rng_shuffle.set_state(ckpt.manifest["rng"]["shuffle"])
        trainer.rng_dropout.set_state(ckpt.manifest["rng"]["dropout"])
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


@dataclass
class Checkpoint:
    """A loaded checkpoint: manifest, tensors, and vocabulary names."""

    manifest: dict
    tensors: dict
    entities: list[str] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)

    @property
    def n_entities(self) -> int:
        return self.manifest["n_entities"]

    @property
    def n_relations(self) -> int:
        return self.manifest["n_relations"]

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
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


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
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{manifest_path}: not a {CHECKPOINT_FORMAT} manifest")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{manifest_path}: unsupported version {manifest.get('version')!r}"
        )
    tensors = {}
    for name in manifest["tensors"]:
        tensors[name] = _read_tensor(directory / f"{name}.bin")

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
        config.model, ckpt.n_entities, ckpt.n_relations, RngState(0, "unused-init")
    )
    _load_tensors(_model_tensors(model), ckpt.tensors)
    return model
