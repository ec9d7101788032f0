"""Shared test helpers: finite-difference oracle, the worker-pool fixture, a
leaf's gradient read whole and synthetic KG fixtures."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from kgedistill import autodiff
from kgedistill.autodiff import Parameter, Tensor, add_scaled, as_rows, backward, take_grad

PAPER_SCALE_VAR = "KGE_PAPER_SCALE"


def pytest_collection_modifyitems(config, items):
    """Skip ``paper_scale`` tests unless KGE_PAPER_SCALE=1 opts in."""
    if os.environ.get(PAPER_SCALE_VAR) == "1":
        return
    skip = pytest.mark.skip(reason=f"paper-scale run; set {PAPER_SCALE_VAR}=1 to run it")
    for item in items:
        if "paper_scale" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def workers(monkeypatch):
    """Set the pool's worker count; a pool started for the test is shut down.

    The interpreter switches threads every microsecond meanwhile, so workers
    interleave as finely as they can.
    """
    started = []

    def use(count: int) -> None:
        if autodiff._pool is not None:
            started.append(autodiff._pool)
        monkeypatch.setattr(autodiff, "_WORKERS", count)
        monkeypatch.setattr(autodiff, "_pool", None)

    monkeypatch.setattr(autodiff, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        if autodiff._pool is not None:
            started.append(autodiff._pool)
        for pool in started:
            pool.shutdown()


def resident_bytes() -> int:
    """This process's resident set, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def dense_grad(t: Tensor) -> np.ndarray:
    """``t``'s gradient, its pending terms added onto zeros in arrival order,
    in a new array. The gradient stays pending: it is taken with
    ``take_grad`` and a copy of the sum recorded back as its one term, so
    writes through the array returned never reach it."""
    out = np.zeros(t.shape)
    rows = as_rows(out, "a gradient")

    def work(lo, hi, g, scratch):
        np.add(rows[lo:hi], g, out=rows[lo:hi])  # onto +0.0, so a -0.0 reads as +0.0

    take_grad(t, work, 1)
    add_scaled(t, out.copy(), 1.0)
    return out


def numeric_gradient(fn, param: Parameter, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar ``fn()`` w.r.t. ``param``.

    ``fn`` must rebuild the forward pass on every call so the perturbed
    parameter value is actually used.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        hi = float(fn().data)
        flat[i] = original - step
        lo = float(fn().data)
        flat[i] = original
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def assert_gradients_match(fn, params, step: float = 1e-5, tol: float = 1e-5):
    """Backward pass vs. central differences for every listed parameter."""
    for p in params:
        take_grad(p, lambda lo, hi, g, scratch: None, 1)
    loss = fn()
    assert loss.data.size == 1
    backward(loss)
    for p in params:
        numeric = numeric_gradient(fn, p, step)
        err = relative_error(dense_grad(p), numeric)
        assert err <= tol, f"gradient mismatch: rel err {err:.3e} (shape {p.shape})"


def dense(targets) -> np.ndarray:
    """The full matrix that sparse targets stand for."""
    y = np.full(targets.shape, targets.off)
    y[targets.rows, targets.cols] = targets.on
    return y


# ---------------------------------------------------------------------------
# Synthetic knowledge graphs
# ---------------------------------------------------------------------------

def synthetic_triples(
    n_entities: int,
    n_relations: int,
    n_train: int,
    n_valid: int = 0,
    n_test: int = 0,
    seed: int = 7,
):
    """Deterministic bipartite triples: heads from the first half of the
    entity range, tails from the second half.

    The bipartite layout avoids head/tail symmetry conflicts, so bilinear
    models can memorize the graph. Every entity and relation is forced to
    appear at least once.
    """
    rng = np.random.default_rng(seed)
    half = n_entities // 2
    heads = [f"e{i}" for i in range(half)]
    tails = [f"e{i}" for i in range(half, n_entities)]
    rels = [f"r{i}" for i in range(n_relations)]

    seen = set()
    triples = []
    # Coverage pass: every entity and relation appears.
    for i in range(max(n_entities, n_relations)):
        h = heads[i % len(heads)]
        r = rels[i % len(rels)]
        t = tails[i % len(tails)]
        if (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append((h, r, t))
    total = n_train + n_valid + n_test
    while len(triples) < total:
        h = heads[rng.integers(len(heads))]
        r = rels[rng.integers(len(rels))]
        t = tails[rng.integers(len(tails))]
        if (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append((h, r, t))
    return (
        triples[:n_train],
        triples[n_train : n_train + n_valid],
        triples[n_train + n_valid : total],
    )


def write_dataset(directory: Path, train, valid, test) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        with open(directory / name, "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    return directory


@pytest.fixture
def toy_dataset_dir(tmp_path):
    """A 20-entity / 2-relation dataset on disk."""
    train, valid, test = synthetic_triples(20, 2, n_train=40, n_valid=5, n_test=5)
    return write_dataset(tmp_path / "toy", train, valid, test)


@pytest.fixture
def memorization_dataset_dir(tmp_path):
    """The 30-entity / 3-relation graph used by the memorization runs."""
    train, valid, test = synthetic_triples(30, 3, n_train=90, n_valid=8, n_test=8)
    return write_dataset(tmp_path / "memo", train, valid, test)
