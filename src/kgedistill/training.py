"""Adam optimization, the per-iteration distillation loop, and checkpoints.

The trainer is fully deterministic: the seed fixes four independent random
streams (model init, block init, epoch shuffling, dropout masks), so a
(seed, config, dataset) triple determines every logged number for a given
BLAS build. Each epoch runs its products on one BLAS thread, so the BLAS
thread count does not enter. Keeping the streams separate is what makes
"distillation enabled with beta 0" produce bit-identical parameters to
"distillation disabled".
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import sys
import uuid
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor, _one_blas_thread, _run_blocks, as_rows, backward, no_grad, take_grad, zeros
from .config import RunConfig
from .data import TripleStore, group_queries, label_smooth, make_batches
from .distill import SemanticBlock, TeacherCache, beta_at_epoch, distill_loss, extract, total_loss
from .errors import CheckpointError, ConfigError, TrainingAbort
from .models import EmbeddingModel, bce_loss
from .rng import stream

__all__ = [
    "Adam",
    "Checkpoint",
    "TensorFile",
    "Trainer",
    "bce_loss",  # the benchmark's reference BCE check reads and traces it here
    "load_checkpoint",
    "lr_at_epoch",
    "model_from_checkpoint",
]


def lr_at_epoch(epoch: int, lr_initial: float, decay: float) -> float:
    """Exponentially decayed learning rate: lr * decay^epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return lr_initial * decay**epoch


class Adam:
    """Bias-corrected Adam over named parameters (beta 0.9/0.999, eps 1e-8).

    Each parameter is viewed as rows (its first axis) and updated one slice
    of whole rows at a time, about ``autodiff._SLICE_ELEMENTS`` elements
    each, as :func:`~kgedistill.autodiff.take_grad` hands the gradient's
    slices over on the worker pool (one worker per usable core). Slicing
    bounds the scratch to three slice-sized buffers per worker. A gradient
    made only of pending terms (rank-1 pairs, the score head's scaled
    block, row scatters) is assembled slice by slice in scratch just before
    the update reads it, so it is never written out at full size; the
    parameter and moments of up to 512 KB a slice still stream from the
    outer caches and memory, with a 2 MB L2. Every operation is elementwise
    and in the order of the textbook formula, so the result depends
    neither on the slicing nor on the number of workers. A step leaves
    every gradient at zero, ready for the next ``backward`` to add into.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, named_params: list):
        self.named_params = list(named_params)
        self.moment1 = {name: zeros(p.data.shape) for name, p in self.named_params}
        self.moment2 = {name: zeros(p.data.shape) for name, p in self.named_params}
        self.step_count = 0

    def step(self, lr: float) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1**self.step_count
        correction2 = 1.0 - self.beta2**self.step_count
        for name, p in self.named_params:
            rows = [as_rows(a, name) for a in (p.data, self.moment1[name], self.moment2[name])]
            take_grad(p, partial(self._update, rows, lr, correction1, correction2), 2)

    def _update(self, rows: list, lr: float, correction1: float, correction2: float,
                lo: int, hi: int, g: np.ndarray, scratch: np.ndarray) -> None:
        """Update rows ``lo:hi`` of one parameter, whose parameter and moment
        arrays viewed as rows are ``rows``, from those rows ``g`` of its
        gradient, with two scratch buffers shaped like ``g``."""
        w, m, v = (a[lo:hi] for a in rows)
        t1, t2 = scratch
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


# A trainer whose expanding projection has at least this many elements
# (``n_entities * batch_size``, ~34 MB) draws the model's and the block's
# init streams at once; a smaller one draws them one after the other and
# starts no pool. Only the drawn tensors are allocated on the worker: memory
# freed on a pool thread stays in that thread's malloc arena.
_POOLED_INIT_ELEMENTS = 1 << 22


class Trainer:
    """Owns the model, optional distillation block, optimizer, and random streams.

    ``store`` must be reciprocal-augmented. One :meth:`train_epoch` call runs
    the full per-batch loop: BCE on smoothed 1-N targets, the softened KL
    term against the cached teacher vector when distillation is active, one
    Adam step, then a detached re-extraction that becomes the next teacher.
    The whole loop runs with numpy's OpenBLAS held to one thread, so every
    product of a step gives the same bits at any BLAS thread count, and no
    BLAS helper thread competes with the worker pool; Adam leaves each
    gradient zeroed for the next step's ``backward``.
    Random streams are ``stream(seed, label)`` for "shuffle", "dropout",
    "model-init" and "block-init"; checkpoints keep the first two's states.
    Each stream is drawn whole, in order, by one thread. With distillation
    on and an expanding projection of at least ``_POOLED_INIT_ELEMENTS``
    elements, the "model-init" draws run on the calling thread while a pool
    worker, where there is a second core, runs the "block-init" draws, so
    set-up waits for the longer stream rather than both; the tensors keep
    their bits either way.
    ``queries`` holds the distinct train queries as one
    :class:`~kgedistill.data.Batch` (:func:`~kgedistill.data.group_queries`),
    grouped once here and shuffled into batches every epoch. ``state`` maps ``model.<name>`` and
    ``block.<name>`` to the tensors of the model's and the block's
    ``state()``. It is built once and its arrays are updated in place;
    Adam and checkpoints read it. ``_draw_init=False`` builds the model's
    and the block's tensors unfilled instead of drawing them, for
    :meth:`resume`, which reads every one in.
    """

    def __init__(self, store: TripleStore, run_config: RunConfig, *, _draw_init: bool = True):
        if not store.augmented:
            raise ConfigError("trainer requires a reciprocal-augmented store")
        self.store = store
        self.run_config = run_config
        self.metrics_history: list[dict] = []

        seed = run_config.train.seed
        self.rng_shuffle = stream(seed, "shuffle")
        self.rng_dropout = stream(seed, "dropout")

        init_stream = partial(stream, seed) if _draw_init else (lambda label: None)
        builds = [partial(EmbeddingModel, run_config.model, store.n_entities, store.n_relations,
                          init_stream("model-init"))]
        if run_config.isd.enabled:
            builds.append(partial(
                SemanticBlock,
                embed_dim=run_config.model.d_e,
                n_entities=store.n_entities,
                batch_size=run_config.train.batch_size,
                k_b=run_config.isd.k_b or run_config.model.d_e,
                rng=init_stream("block-init"),
            ))
        built = [None, None]

        def build(first: int, stop: int) -> None:
            for part in range(first, stop):
                built[part] = builds[part]()

        if _draw_init and store.n_entities * run_config.train.batch_size >= _POOLED_INIT_ELEMENTS:
            _run_blocks(len(builds), build, min_per_worker=1)
        else:
            build(0, len(builds))
        self.model, self.block = built
        self.teacher = TeacherCache()
        self.queries = group_queries(store)
        self.state = _state(model=self.model, block=self.block)
        self.adam = Adam((name, t) for name, t in self.state.items() if t.requires_grad)

    @property
    def epoch(self) -> int:
        """The next epoch to run: one record per epoch run so far."""
        return len(self.metrics_history)

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

        batches = make_batches(self.queries, cfg.batch_size, self.rng_shuffle)
        first_batch = batches[0]
        bce_sum = kl_sum = loss_sum = 0.0
        with _one_blas_thread():
            for index, batch in enumerate(batches):
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
                    raise TrainingAbort(f"non-finite loss at epoch {ep}, batch {index}")
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
        self.metrics_history.append(record)
        return record

    # -- checkpointing ---------------------------------------------------------

    def _named_tensors(self) -> dict:
        """Every array a checkpoint restores, by name: those of :attr:`state`,
        both Adam moments and, once there is one, the teacher vector."""
        tensors = {name: t.data for name, t in self.state.items()}
        for name in self.adam.moment1:
            tensors[f"adam.m.{name}"] = self.adam.moment1[name]
            tensors[f"adam.v.{name}"] = self.adam.moment2[name]
        if self.teacher.present:
            tensors["teacher.vector"] = self.teacher.vector
        return tensors

    def save(self, directory: str | Path) -> None:
        """Write a resumable checkpoint directory. It holds:

        - ``manifest.json``: format, version, run config, the states of the
          shuffle and dropout streams, and the metrics history, whose length
          is the epoch count and, times the batches per epoch, the Adam step
          count;
        - one ``<name>.bin`` per array of :meth:`_named_tensors`:
          ``model.<name>`` and ``block.<name>`` for each tensor of
          :attr:`state`; ``adam.m.<name>`` and ``adam.v.<name>``, the two
          moments of each of its parameters, under the parameter's name
          there; and ``teacher.vector`` once there is a teacher. The files
          alone say which tensors there are;
        - ``entities.txt`` and ``relations.txt``: the vocabulary names in id
          order, one a line, which alone give the table sizes.

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
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self.run_config.to_dict(),
            "rng": {
                "shuffle": self.rng_shuffle.bit_generator.state,
                "dropout": self.rng_dropout.bit_generator.state,
            },
            "metrics_history": self.metrics_history,
        }
        with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, arr in self._named_tensors().items():
            _write_tensor(directory / f"{name}.bin", arr)
        with open(directory / "entities.txt", "w", encoding="utf-8") as fh:
            fh.writelines(e + "\n" for e in self.store.vocab.entities)
        with open(directory / "relations.txt", "w", encoding="utf-8") as fh:
            fh.writelines(r + "\n" for r in self.store.vocab.relations)

    @classmethod
    def resume(cls, directory: str | Path, store: TripleStore) -> "Trainer":
        """Rebuild a trainer from a checkpoint, bit-exact with the saved run.
        Each tensor file is read once, straight into the trainer's array,
        which starts unfilled rather than drawn. Once a run distilling at
        ``beta_init`` > 0 has run an epoch, its teacher vector is required
        and checked like every other tensor."""
        ckpt = load_checkpoint(directory)
        ckpt.check_vocab(store)
        trainer = cls(store, ckpt.config, _draw_init=False)
        trainer.metrics_history = list(ckpt.manifest["metrics_history"])
        if trainer.block is not None and trainer.run_config.isd.beta_init > 0.0 and trainer.epoch:
            trainer.teacher.refresh(np.zeros(trainer.model.entity_embeddings.shape[1]))
        _load_tensors(trainer._named_tensors(), ckpt.tensors)
        # One Adam step per batch, and every epoch runs the same full batches.
        batches = len(trainer.queries) // trainer.run_config.train.batch_size
        trainer.adam.step_count = trainer.epoch * batches
        trainer.rng_shuffle.bit_generator.state = ckpt.manifest["rng"]["shuffle"]
        trainer.rng_dropout.bit_generator.state = ckpt.manifest["rng"]["dropout"]
        return trainer


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "kgedistill-checkpoint"
CHECKPOINT_VERSION = 1
_TENSOR_MAGIC = b"KGE1"
_MAX_RANK = 8
# The manifest keys read by loading a checkpoint, resuming from it or building its model.
_MANIFEST_KEYS = ("config", "metrics_history", "rng")


@dataclass
class Checkpoint:
    """A loaded checkpoint: manifest, tensor files, and vocabulary names.

    :func:`load_checkpoint` has checked the manifest, read the vocabulary
    files and checked each tensor file's header against its size; no
    tensor's values have been read. ``tensors`` maps each tensor's name to
    its :class:`TensorFile`, whose values are read, and checked, only when
    they are restored into an array.
    """

    manifest: dict
    tensors: dict
    entities: list[str]
    relations: list[str]

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


@dataclass(frozen=True)
class TensorFile:
    """One tensor file of a checkpoint, whose header matched its size when
    the checkpoint was loaded."""

    path: Path
    shape: tuple

    def read_into(self, target: np.ndarray) -> None:
        """Read the body straight into ``target``, a C-contiguous float64
        array of this shape, and check its values there.

        The header is checked again, so a file changed since the load is
        rejected, not read as another shape. A NaN or infinite value is
        rejected as corruption: ranking would score a NaN entity table as a
        perfect prediction. ``target`` holds what was read even when the
        read is rejected.
        """
        with open(self.path, "rb") as fh:
            if _read_header(fh, self.path) != self.shape:
                raise CheckpointError(f"{self.path}: changed since the checkpoint was loaded")
            if fh.readinto(target.data) != target.nbytes:
                raise CheckpointError(f"{self.path}: file shrank while it was read")
        if not np.dtype("<f8").isnative:
            target.byteswap(inplace=True)
        # min and max propagate NaN and build no full-size mask.
        if target.size and not (np.isfinite(target.min()) and np.isfinite(target.max())):
            raise CheckpointError(f"{self.path}: holds a NaN or infinite value")


def _write_tensor(path: Path, arr: np.ndarray) -> None:
    """Write one tensor file; the body is written from the array's own buffer."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(memoryview(arr))


def _read_header(fh, path: Path) -> tuple:
    """The shape in the header of the tensor file ``path``, open as ``fh``,
    which is left at the start of the body; raises :class:`CheckpointError`
    unless the header is whole and the body is as long as the shape says."""
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
    expected = math.prod(dims)
    body = os.fstat(fh.fileno()).st_size - 8 - 8 * rank
    if body != expected * 8:
        raise CheckpointError(
            f"{path}: expected {expected * 8} data bytes for shape {dims}, got {body}"
        )
    # A zero-size shape numpy cannot hold: its other dimensions' bytes overflow.
    if 8 * math.prod(d for d in dims if d) > sys.maxsize:
        raise CheckpointError(f"{path}: implausible shape {dims}")
    return dims


def _tensor_file(path: Path) -> TensorFile:
    with open(path, "rb") as fh:
        return TensorFile(path, _read_header(fh, path))


def _load_tensors(targets: dict, tensors: dict) -> None:
    """Read each checkpoint tensor file of ``tensors`` into the array of the
    same name in ``targets``; files no target names are not read."""
    for name, target in targets.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name}")
        file = tensors[name]
        if target.shape != file.shape:
            raise CheckpointError(
                f"tensor {name} has shape {file.shape}, expected {target.shape}"
            )
        file.read_into(target)


def _state(**components) -> dict:
    """Every tensor of the components, as ``<keyword>.<name>`` for each name
    of its ``state()``; a component given as ``None`` is left out."""
    return {f"{prefix}.{name}": t for prefix, component in components.items()
            if component is not None for name, t in component.state().items()}


def load_checkpoint(directory: str | Path) -> Checkpoint:
    """Read and validate a checkpoint directory, but not its tensors' values.

    Checked here: the manifest (format, version, the keys read, the history
    and both stream states), the two vocabulary files, and each tensor
    file's header against the file's size. Each tensor's values are read
    and checked finite when it is restored (:meth:`TensorFile.read_into`),
    so a restore reads only the tensors it loads.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise CheckpointError(f"no manifest.json in {directory}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    if not isinstance(manifest["metrics_history"], list):
        raise CheckpointError(f"{manifest_path}: metrics_history must be a list")
    for key in ("shuffle", "dropout"):
        try:
            np.random.PCG64().state = rng[key]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(
                f"{manifest_path}: rng.{key} is not a PCG64 state ({exc!r})"
            ) from exc
    tensors = {path.name[:-4]: _tensor_file(path) for path in sorted(directory.glob("*.bin"))}

    def read_names(path: Path) -> list[str]:
        if not path.is_file():
            raise CheckpointError(f"no {path.name} in {directory}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return [line.rstrip("\n") for line in fh]
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: not UTF-8 text: {exc}") from exc

    return Checkpoint(
        manifest=manifest,
        tensors=tensors,
        entities=read_names(directory / "entities.txt"),
        relations=read_names(directory / "relations.txt"),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> EmbeddingModel:
    """Instantiate the model a checkpoint describes and read its ``model.*``
    tensors into it; the block's, Adam's and the teacher's are not read.
    The model's tables start unfilled, so no random init is drawn only to be
    overwritten."""
    model = EmbeddingModel(ckpt.config.model, len(ckpt.entities), len(ckpt.relations), None)
    _load_tensors({name: t.data for name, t in _state(model=model).items()}, ckpt.tensors)
    return model
