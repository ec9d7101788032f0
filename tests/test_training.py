"""BCE loss, Adam, leaf gradient accumulation, bit-exact resume, golden trajectories."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import assert_gradients_match, dense, resident_bytes, synthetic_triples, write_dataset
from scipy.special import expit

from kgedistill import autodiff, models, training
from kgedistill.autodiff import (
    Parameter,
    Tensor,
    backward,
    gather_rows,
    matmul,
    mul,
    no_grad,
    tensor_sum,
    transpose,
)
from kgedistill.config import ModelConfig, RunConfig
from kgedistill.data import (
    Batch,
    SparseTargets,
    augment_reciprocal,
    build_filter_index,
    label_smooth,
    load_dataset,
)
from kgedistill.distill import SemanticBlock, distill_loss, extract, total_loss
from kgedistill.errors import CheckpointError, ConfigError, ShapeError, TrainingAbort
from kgedistill.evaluation import evaluate
from kgedistill.models import EmbeddingModel, bce_loss, score_bce
from kgedistill.rng import stream
from kgedistill.training import Adam, Trainer, load_checkpoint, lr_at_epoch, model_from_checkpoint


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def random_batch(rng, n_rows=6, n_entities=50, max_tails=4) -> Batch:
    tails = tuple(
        rng.choice(n_entities, rng.integers(1, max_tails + 1), replace=False)
        for _ in range(n_rows)
    )
    return Batch(
        heads=np.arange(n_rows), relations=np.zeros(n_rows, dtype=np.int64),
        tails=tails, n_entities=n_entities,
    )


def loss_and_grad(logits: np.ndarray, targets):
    p = Parameter(logits.copy())
    loss = bce_loss(p, targets)
    backward(loss)
    return float(loss.data), p.grad


def dense_bce(logits: np.ndarray, targets: SparseTargets):
    """Value and gradient of the BCE by the closed form on the dense targets."""
    y = dense(targets)
    return np.mean(np.logaddexp(0.0, logits) - y * logits), (expit(logits) - y) / logits.size


# ---------------------------------------------------------------------------
# BCE on sparse targets
# ---------------------------------------------------------------------------

class TestBceLoss:
    @pytest.mark.parametrize("block", [64, 1 << 14])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_sparse_matches_dense(self, monkeypatch, block, epsilon):
        """At either block size, the kernel matches the closed form on the dense targets."""
        monkeypatch.setattr(models, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(3)
        batch = random_batch(rng)
        logits = rng.normal(0.0, 4.0, (len(batch.heads), batch.n_entities))
        sparse = label_smooth(batch.targets(), epsilon)
        value, grad = loss_and_grad(logits, sparse)
        want_value, want_grad = dense_bce(logits, sparse)
        assert rel_err(value, want_value) <= 1e-12
        assert rel_err(grad, want_grad) <= 1e-14

    def test_matches_logaddexp_formula(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng)
        logits = rng.normal(0.0, 3.0, (len(batch.heads), batch.n_entities))
        targets = label_smooth(batch.targets(), 0.1)
        value, grad = loss_and_grad(logits, targets)
        want_value, want_grad = dense_bce(logits, targets)
        assert rel_err(value, want_value) <= 1e-12
        assert rel_err(grad, want_grad) <= 1e-14

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_matches_mpmath(self, epsilon):
        logits = np.array([[-40.0, -3.5, 0.0, 2.25, 35.0], [1e-9, -1e-9, 7.0, -7.0, -700.0]])
        targets = label_smooth(SparseTargets([0, 1, 1], [3, 0, 2], logits.shape), epsilon)
        value, grad = loss_and_grad(logits, targets)
        with mpmath.workdps(50):
            pairs = [
                (mpmath.mpf(u), mpmath.mpf(t))
                for u, t in zip(logits.ravel().tolist(), dense(targets).ravel().tolist())
            ]
            exact = float(sum(mpmath.log1p(mpmath.exp(u)) - t * u for u, t in pairs) / logits.size)
            exact_grad = np.array(
                [float((1 / (1 + mpmath.exp(-u)) - t) / logits.size) for u, t in pairs]
            )
        assert abs(value - exact) <= 1e-14 * abs(exact)
        assert rel_err(grad.ravel(), exact_grad) <= 1e-15
        if epsilon == 0.0:
            # Hard targets: the off-target entries are sigmoid(u) itself, so
            # each must keep full relative precision, even at 1e-304.
            off = dense(targets).ravel() == 0.0
            np.testing.assert_allclose(grad.ravel()[off], exact_grad[off], rtol=4e-16, atol=0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, n_rows=3, n_entities=7, max_tails=2)
        targets = label_smooth(batch.targets(), 0.1)
        p = Parameter(rng.normal(0.0, 2.0, (3, 7)))
        assert_gradients_match(lambda: bce_loss(p, targets) * 3.0, [p])

    def test_sigmoid_equals_the_exp_of_min_form(self):
        """The numerator max(e, u > 0) is exp(min(u, 0)) bit for bit."""
        tiny = np.finfo(float).tiny
        u = np.array([-np.inf, -800.0, -700.0, -36.0, -1.0, -tiny, -0.0, 0.0, tiny,
                      1e-300, 0.5, 1.0, 36.0, 700.0, 800.0, np.inf])
        u = np.concatenate([u, np.random.default_rng(5).normal(0.0, 30.0, 1000)])
        e = np.exp(-np.abs(u))
        got = models._sigmoid(u, e, np.empty_like(u), np.empty_like(u))
        assert got.tobytes() == (np.exp(np.minimum(u, 0.0)) / (1.0 + e)).tobytes()

    def test_zero_epsilon_keeps_hard_targets(self):
        targets = SparseTargets([0], [1], (1, 3))
        assert label_smooth(targets, 0.0) is targets
        value, grad = loss_and_grad(np.array([[0.0, 0.0, 0.0]]), targets)
        assert value == pytest.approx(np.log(2.0))
        np.testing.assert_array_equal(grad, [[0.5 / 3, -0.5 / 3, 0.5 / 3]])

    def test_smoothing_maps_on_and_off_exactly(self):
        targets = label_smooth(SparseTargets([0, 0], [1, 3], (1, 4)), 0.1)
        np.testing.assert_array_equal(
            dense(targets), (1.0 - 0.1) * np.array([[0.0, 1.0, 0.0, 1.0]]) + 0.1 / 4
        )

    def test_out_of_range_tail_raises(self):
        batch = Batch(np.array([0, 1]), np.array([0, 0]), (np.array([1]), np.array([5])), 5)
        with pytest.raises(ValueError):
            batch.targets()
        with pytest.raises(ValueError):
            SparseTargets([0], [-1], (1, 5))

    def test_repeated_tails_count_once(self):
        batch = Batch(np.array([0]), np.array([0]), (np.array([2, 2, 1]),), 4)
        targets = batch.targets()
        assert targets.cols.tolist() == [1, 2]
        np.testing.assert_array_equal(dense(targets), [[0.0, 1.0, 1.0, 0.0]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros((2, 3))), SparseTargets([0], [0], (2, 4)))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_one_shot(p, g, m, v, lr, step):
    """The unblocked update, written as the textbook formula."""
    b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
    c1, c2 = 1.0 - b1**step, 1.0 - b2**step
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def test_blocked_adam_matches_one_shot_formula():
    """Dense gradients, pending pairs, both and neither, against the formula
    on the gradient they add up to."""
    block = autodiff._SLICE_ELEMENTS
    rng = np.random.default_rng(9)

    def dense(p):
        p.grad[...] = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2)
        return p.grad.copy()

    def pair(p):
        x = rng.normal(size=(1, p.shape[0]))
        y = rng.normal(size=(1, p.shape[1])) * 10.0 ** rng.integers(-6, 2)
        backward(tensor_sum(mul(matmul(Tensor(x), p), Tensor(y))))
        return np.multiply.outer(x[0], y[0])

    # Each parameter's shape and what each step adds to its gradient, in order.
    cases = [
        ((7,), [dense]), ((2 * block + 3,), [dense]), ((130, 257), [dense]),
        ((block // 64, 64), [dense]), ((3, 1), [dense]),
        ((block // 64 + 5, 64), [pair]),  # several rows per slice
        ((3, 2 * block + 5), [pair, pair]),  # one row per slice
        ((130, 257), [dense, pair]),
        ((5, 9), []),
    ]
    params = [(f"p{i}", Parameter(rng.normal(size=shape))) for i, (shape, _) in enumerate(cases)]
    ref = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for _, p in params]
    adam = Adam(params)
    for step in range(1, 5):
        lr = 0.01 * 0.9**step
        for (_, p), (_, feeds), (w, m, v) in zip(params, cases, ref):
            g = np.zeros(p.shape)
            for feed in feeds:
                g += feed(p)
            adam_one_shot(w, g, m, v, lr, step)
        adam.step(lr)
        for (name, p), (w, m, v) in zip(params, ref):
            assert p.data.tobytes() == w.tobytes(), name
            assert adam.moment1[name].tobytes() == m.tobytes(), name
            assert adam.moment2[name].tobytes() == v.tobytes(), name
    for name, p in params:
        assert p.grad.tobytes() == bytes(p.grad.nbytes), name  # +0.0 everywhere


def test_adam_rejects_non_contiguous_parameter():
    p = Parameter(np.zeros((4, 4)))
    p.data = p.data.T
    p.grad = np.zeros((4, 4)).T
    with pytest.raises(ValueError):
        Adam([("p", p)]).step(0.1)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_zeroed_buffers_are_allocated_not_written():
    # A gradient and two Adam moments of 64 MB each: allocated zeroed pages
    # stay out of the resident set until the first step writes them.
    before = resident_bytes()
    p = Parameter(np.zeros((4096, 2048)))
    adam = Adam([("p", p)])
    grown = resident_bytes() - before
    assert p.grad.shape == adam.moment1["p"].shape == adam.moment2["p"].shape == p.shape
    assert grown < 16 << 20, f"resident set grew by {grown / 2**20:.0f} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_distillation_epoch_never_writes_the_expanding_projections_gradient(tmp_path):
    # The 64 MB expanding projection's gradient is a rank-1 pending pair on
    # every step, which Adam reads without writing the gradient buffer, so
    # an epoch writes the two moments and leaves the buffer's pages unused.
    n_entities, batch_size = 1 << 15, 256
    rng = np.random.default_rng(89)
    ids = [f"e{i}" for i in range(n_entities)]
    heads, tails = rng.integers(0, 1000, 800), rng.integers(1000, 2000, 800)
    train = [(ids[h], "r0", ids[t]) for h, t in zip(heads, tails)]
    # The test split names every entity; training never reads it.
    test = [(ids[i], "r1", ids[(i + 1) % n_entities]) for i in range(0, n_entities, 2)]
    store = augment_reciprocal(load_dataset(write_dataset(tmp_path / "wide", train, [], test)))
    doc = {"model": {"d_e": 8}, "train": {"batch_size": batch_size, "epochs": 2},
           "isd": {"enabled": True}}
    trainer = Trainer(store, RunConfig.from_dict(doc))
    w_expand = trainer.block.w_expand.data.nbytes
    assert w_expand >= 64 << 20
    before = resident_bytes()
    record = trainer.train_epoch()
    grown = resident_bytes() - before
    assert record["loss_kl"] > 0.0  # the block's gradient reached Adam
    assert grown < 2 * w_expand + w_expand // 2, f"resident set grew by {grown / 2**20:.0f} MB"


_REUSED_BLOCK_SCRIPT = """
import os, numpy as np
from kgedistill.autodiff import zeros
def resident():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
shape = (2048, 1024)
a = np.ones(shape); del a  # a freed mapping makes malloc serve this size from its heap
b = np.ones(shape); del b  # a written block that malloc keeps for reuse
before = resident()
grad = zeros(shape)
weights = np.ones(shape)
print(resident() - before)
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm") or os.confstr("CS_GNU_LIBC_VERSION") is None,
    reason="needs /proc/self/statm and glibc's malloc",
)
def test_zeroed_buffer_leaves_reused_heap_blocks_to_written_arrays():
    # np.zeros would take (and clear) the freed 16 MB block, so the written
    # array after it needs 16 fresh MB; how much depends on the heap's past.
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _REUSED_BLOCK_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    grown = int(proc.stdout)
    assert grown < 4 << 20, f"resident set grew by {grown / 2**20:.0f} MB"


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [64 * 12, 64 * 12 + 5])
def test_adam_is_bit_identical_for_any_worker_count(monkeypatch, workers, size):
    monkeypatch.setattr(autodiff, "_SLICE_ELEMENTS", 64)
    rng = np.random.default_rng(23)
    init = [rng.normal(size=shape) for shape in ((size,), (size // 8, 8), (3, 1))]
    grads = [[rng.normal(size=w.shape) for w in init] for _ in range(3)]
    runs = {}
    for count in (1, 2, 3):
        workers(count)
        params = [(f"p{i}", Parameter(w.copy())) for i, w in enumerate(init)]
        adam = Adam(params)
        for step, step_grads in enumerate(grads):
            for (_, p), g in zip(params, step_grads):
                p.grad[...] = g
            adam.step(0.01 * 0.9**step)
        runs[count] = [
            (p.data.tobytes(), adam.moment1[name].tobytes(), adam.moment2[name].tobytes())
            for name, p in params
        ]
        assert (autodiff._pool is None) == (count == 1)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_import_and_memorization_training_start_no_thread(memorization_dataset_dir):
    script = (
        "import threading\n"
        "import kgedistill\n"
        "from kgedistill import autodiff, training\n"
        "from kgedistill.config import RunConfig\n"
        "from kgedistill.data import augment_reciprocal, load_dataset\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "store = augment_reciprocal(load_dataset(__import__('sys').argv[1]))\n"
        "doc = {'model': {'d_e': 8}, 'train': {'batch_size': 16, 'epochs': 3}, 'isd': {'enabled': True}}\n"
        "trainer = training.Trainer(store, RunConfig.from_dict(doc))\n"
        "for _ in range(3):\n"
        "    trainer.train_epoch()\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert autodiff._pool is None\n"
    )
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(memorization_dataset_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Fused score head
# ---------------------------------------------------------------------------

def _score_case(rng, n_rows=12, n_cols=301, dim=5, epsilon=0.1):
    batch = random_batch(rng, n_rows=n_rows, n_entities=n_cols, max_tails=5)
    z = rng.normal(0.0, 1.5, (n_rows, dim))
    table = rng.normal(0.0, 1.5, (n_cols, dim))
    return z, table, label_smooth(batch.targets(), epsilon)


def _fused_run(z, table, targets, upstream=0.75):
    zp, tp = Parameter(z.copy()), Parameter(table.copy())
    loss = score_bce(zp, tp, targets)
    backward(loss * upstream)
    return float(loss.data), zp.grad, tp.grad


def _chain_run(z, table, targets, upstream=0.75):
    zp, tp = Parameter(z.copy()), Parameter(table.copy())
    loss = bce_loss(matmul(zp, transpose(tp)), targets)
    backward(loss * upstream)
    return float(loss.data), zp.grad, tp.grad


# The fused head computes in float32 and the chain in float64. On the cases
# below the measured errors against the chain stay under 3e-8 relative for
# the value and 5e-7 of the largest entry for either gradient (at 512 x
# 40,943 x 200 they are 2e-10 and 6e-7), so the bounds leave a margin of at
# least 20.
VALUE_TOL = 1e-6
GRAD_TOL = 1e-5


class TestScoreBce:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("block", [40, 1 << 17])
    def test_matches_the_unfused_chain(self, monkeypatch, epsilon, block):
        # 40-element blocks of 3 columns: 101 blocks in 8 groups of 13. The
        # head adds into the table's grad itself, so it refuses a table that
        # is an op's output.
        monkeypatch.setattr(models, "_SCORE_BLOCK_ELEMENTS", block)
        z, table, targets = _score_case(np.random.default_rng(43), epsilon=epsilon)
        value, dz, dtable = _fused_run(z, table, targets)
        want_value, want_dz, want_dtable = _chain_run(z, table, targets)
        assert rel_err(value, want_value) <= VALUE_TOL
        assert rel_err(dz, want_dz) <= GRAD_TOL
        assert rel_err(dtable, want_dtable) <= GRAD_TOL
        with pytest.raises(ShapeError):
            score_bce(Parameter(z), Parameter(table) * 1.0, targets)

    def test_matches_the_unfused_chain_over_wide_blocks(self, monkeypatch):
        """64 x 20,000 x 32 with logits of sd ~13: 313 blocks of 64 columns in
        8 groups of 40, so float32 rounding accumulates over long dot
        products, long block sums and long group sums of the query gradient."""
        monkeypatch.setattr(models, "_SCORE_BLOCK_ELEMENTS", 1 << 12)
        z, table, targets = _score_case(np.random.default_rng(89), n_rows=64, n_cols=20_000, dim=32)
        value, dz, dtable = _fused_run(z, table, targets)
        want_value, want_dz, want_dtable = _chain_run(z, table, targets)
        assert rel_err(value, want_value) <= VALUE_TOL
        assert rel_err(dz, want_dz) <= GRAD_TOL
        assert rel_err(dtable, want_dtable) <= GRAD_TOL

    def test_finite_differences(self, monkeypatch):
        """Central differences of the float32 head with step 1e-2 and tolerance 1e-4.

        The logits are rounded to float32, a relative error of ~6e-8, so the
        differenced loss carries rounding noise of order 6e-8 / step, while
        the truncation error grows as step**2. At step 1e-5 (the float64
        default) the noise gives a relative error of 3e-2; at 1e-3 it is
        2e-4, at 1e-2 2e-5 and at 3e-2 truncation takes it back up to 1e-4.
        Step 1e-2 sits at the minimum and the tolerance leaves a margin of 5.
        """
        monkeypatch.setattr(models, "_SCORE_BLOCK_ELEMENTS", 8)
        z, table, targets = _score_case(np.random.default_rng(47), n_rows=3, n_cols=11, dim=4)
        zp, tp = Parameter(z), Parameter(table)
        assert_gradients_match(lambda: score_bce(zp, tp, targets) * 3.0, [zp, tp], step=1e-2, tol=1e-4)

    def test_adds_into_a_table_holding_a_gradient(self):
        z, table, targets = _score_case(np.random.default_rng(53))
        prior = np.random.default_rng(59).normal(size=table.shape)
        zp, tp = Parameter(z), Parameter(table)
        tp.grad[...] = prior
        backward(score_bce(zp, tp, targets))
        _, _, fresh = _fused_run(z, table, targets, upstream=1.0)
        assert tp.grad.tobytes() == (prior + fresh).tobytes()

    def test_without_gradients_gives_the_value_only(self):
        z, table, targets = _score_case(np.random.default_rng(61))
        with no_grad():
            loss = score_bce(Parameter(z), Parameter(table), targets)
        assert not loss.requires_grad
        assert float(loss.data) == _fused_run(z, table, targets)[0]

    @pytest.mark.parametrize("kind", ["distmult", "complex", "tucker", "lowfer"])
    def test_model_forward_with_targets_is_the_bce_of_its_logits(self, kind):
        """At each kind's default batchnorm: off for DistMult and ComplEx, on
        for TuckER and LowFER, whose inference forward reads running statistics."""
        rng = np.random.default_rng(67)
        config = ModelConfig(kind=kind, d_e=6, k_l=2)
        model = EmbeddingModel(config, 40, 4, stream(2, "model"))
        heads, relations = rng.integers(0, 40, 9), rng.integers(0, 4, 9)
        targets = label_smooth(SparseTargets(np.arange(9), rng.integers(0, 40, 9), (9, 40)), 0.1)
        fused = model.forward(heads, relations, targets=targets)
        chain = bce_loss(model.forward(heads, relations), targets)
        assert rel_err(float(fused.data), float(chain.data)) <= VALUE_TOL

    def test_rejects_bad_targets(self):
        z, table = Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            score_bce(z, table, SparseTargets([0], [0], (2, 4)))
        with pytest.raises(ShapeError):
            score_bce(z, Tensor(np.zeros((5, 2))), SparseTargets([0], [0], (2, 5)))
        with pytest.raises(TypeError):
            score_bce(z, table, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            score_bce(z, table, SparseTargets([0], [0], (2, 5), on=1.5))

    def test_second_backward_over_one_graph_raises(self):
        z, table, targets = _score_case(np.random.default_rng(71))
        loss = score_bce(Parameter(z), Parameter(table), targets)
        backward(loss)
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_restores_the_blas_thread_count(self):
        z, table, targets = _score_case(np.random.default_rng(73))
        score_bce(Parameter(z), Parameter(table), targets)
        if not autodiff._openblas_threads:
            pytest.skip("numpy's OpenBLAS thread calls are not available")
        get, put = autodiff._openblas_threads
        before = get()
        put(2)
        try:
            score_bce(Parameter(z), Parameter(table), targets)
            assert get() == 2
        finally:
            put(before)


@pytest.mark.parametrize("n_cols", [301, 299])
def test_score_bce_is_bit_identical_for_any_worker_count(monkeypatch, workers, n_cols):
    # 36-element blocks of 3 columns: 101 blocks (100 with a short last one
    # at 299 columns) in 8 groups, so every worker count splits the groups.
    # The table gradient is added into one that is already there, over
    # 10-element slices of 2 rows.
    monkeypatch.setattr(models, "_SCORE_BLOCK_ELEMENTS", 36)
    monkeypatch.setattr(autodiff, "_SLICE_ELEMENTS", 10)
    z, table, targets = _score_case(np.random.default_rng(79), n_cols=n_cols)
    prior = np.random.default_rng(97).normal(size=table.shape)
    runs = {}
    for count in (1, 2, 3):
        workers(count)
        zp, tp = Parameter(z.copy()), Parameter(table.copy())
        tp.grad[...] = prior
        loss = score_bce(zp, tp, targets)
        backward(loss * 0.75)
        runs[count] = (float(loss.data), zp.grad.tobytes(), tp.grad.tobytes())
        assert (autodiff._pool is None) == (count == 1)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    _, _, fresh = _fused_run(z, table, targets)
    assert runs[1][2] == (prior + fresh).tobytes()


def test_training_step_builds_no_entity_wide_array(tmp_path, workers):
    """One epoch at 256 x 20,000 scores: the logits alone would take 41 MB.

    Two workers, each with its block scratch, plus the 640 kB table
    gradient must stay under a quarter of that.
    """
    n_entities, batch_size, d = 20_000, 256, 4
    rng = np.random.default_rng(83)
    ids = [f"e{i}" for i in range(n_entities)]
    train = [(ids[h], "r0", ids[t]) for h, t in zip(rng.integers(0, 300, 400), rng.integers(300, 600, 400))]
    # Every other entity appears only in the test split, which training never reads.
    test = [(ids[i], "r1", ids[(i + 1) % n_entities]) for i in range(0, n_entities, 2)]
    store = augment_reciprocal(load_dataset(write_dataset(tmp_path / "wide", train, [], test)))
    assert store.n_entities == n_entities
    doc = {"model": {"d_e": d}, "train": {"batch_size": batch_size, "epochs": 2}}
    trainer = Trainer(store, RunConfig.from_dict(doc))
    workers(2)
    tracemalloc.start()
    try:
        record = trainer.train_epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(record["loss_bce"])
    assert peak < batch_size * n_entities * 8 / 4


def test_score_head_holds_no_float32_copy_of_the_table(monkeypatch, workers):
    """One forward and backward at 64 x 50,000 x 16 peak below 0.6 x the table.

    The float32 entity gradient takes half the float64 table's bytes, and a
    whole-table float32 copy beside it would take the other half. Blocks of
    4,096 scores keep each worker's fixed scratch (three score blocks and
    one entity block, ~50 kB) small next to the 6.4 MB table.
    """
    monkeypatch.setattr(models, "_SCORE_BLOCK_ELEMENTS", 1 << 12)
    z, table, targets = _score_case(np.random.default_rng(101), n_rows=64, n_cols=50_000, dim=16)
    zp, tp = Parameter(z), Parameter(table)
    workers(2)
    tracemalloc.start()
    try:
        backward(score_bce(zp, tp, targets))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(tp.grad).all()
    assert peak < 0.6 * table.nbytes, f"peak {peak} B against a {table.nbytes} B table"


def _memorization_trainer(directory) -> Trainer:
    store = augment_reciprocal(load_dataset(directory))
    doc = {"model": {"d_e": 8}, "train": {"batch_size": 16, "epochs": 3, "seed": 3},
           "isd": {"enabled": True, "beta_init": 0.5}}
    return Trainer(store, RunConfig.from_dict(doc))


def _all_gradients_zero(trainer: Trainer) -> bool:
    return all(p.grad.tobytes() == bytes(p.grad.nbytes) for _, p in trainer.adam.named_params)


def test_trainer_gradients_are_zero_after_an_epoch_and_an_abort(monkeypatch, memorization_dataset_dir):
    trainer = _memorization_trainer(memorization_dataset_dir)
    stepped = []
    real_step = Adam.step

    def record_step(self, lr):
        stepped.append(any(p.grad.any() for _, p in self.named_params))
        real_step(self, lr)

    monkeypatch.setattr(Adam, "step", record_step)
    trainer.train_epoch()
    assert stepped and all(stepped)
    assert _all_gradients_zero(trainer)

    # The finiteness check runs before backward, so an abort adds nothing.
    calls, real_total = [], training.total_loss

    def non_finite_third(bce, kl, beta):
        calls.append(beta)
        return Tensor(np.nan) if len(calls) == 3 else real_total(bce, kl, beta)

    monkeypatch.setattr(training, "total_loss", non_finite_third)
    with pytest.raises(TrainingAbort):
        trainer.train_epoch()
    assert len(calls) == 3
    assert _all_gradients_zero(trainer)


def test_trainer_needs_an_augmented_store_and_stops_at_its_schedule(memorization_dataset_dir):
    doc = {"model": {"d_e": 4}, "train": {"batch_size": 16, "epochs": 1}}
    store = load_dataset(memorization_dataset_dir)
    with pytest.raises(ConfigError, match="reciprocal-augmented"):
        Trainer(store, RunConfig.from_dict(doc))
    trainer = Trainer(augment_reciprocal(store), RunConfig.from_dict(doc))
    trainer.train_epoch()
    with pytest.raises(ValueError, match="outside the configured schedule of 1"):
        trainer.train_epoch()


def _held_arrays(obj) -> list:
    """Every array ``obj`` holds in an attribute, bare or as a Tensor's data,
    looking inside the plain objects it holds (its batchnorm layers)."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, Tensor):
            found.append(value.data)
        elif isinstance(value, np.ndarray):
            found.append(value)
        elif hasattr(value, "__dict__"):
            found.extend(_held_arrays(value))
    return found


@pytest.mark.parametrize("kind", ["distmult", "complex", "tucker", "lowfer"])
@pytest.mark.parametrize("batchnorm", [False, True], ids=["plain", "batchnorm"])
def test_state_lists_every_tensor_once_and_training_keeps_its_arrays(
    memorization_dataset_dir, kind, batchnorm
):
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    doc = {"model": {"kind": kind, "d_e": 4, "k_l": 2, "batchnorm": batchnorm},
           "train": {"batch_size": 16, "epochs": 2}, "isd": {"enabled": True, "k_b": 3, "beta_init": 0.5}}
    trainer = Trainer(store, RunConfig.from_dict(doc))
    arrays = {name: t.data for name, t in trainer.state.items()}
    trainer.train_epoch()
    assert all(trainer.state[name].data is arr for name, arr in arrays.items())
    for component in (trainer.model, trainer.block):
        state = list(component.state().values())
        assert len({id(t) for t in state}) == len(state)
        assert sorted(map(id, _held_arrays(component))) == sorted(id(t.data) for t in state)
    assert sorted(map(id, arrays.values())) == sorted(
        id(t.data) for component in (trainer.model, trainer.block) for t in component.state().values()
    )


@pytest.mark.parametrize("kind", ["distmult", "complex", "tucker", "lowfer"])
def test_count_parameters_matches_what_adam_updates(memorization_dataset_dir, kind):
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    doc = {"model": {"kind": kind, "d_e": 6, "d_r": 6 if kind in ("distmult", "complex") else 4, "k_l": 2},
           "train": {"batch_size": 16}, "isd": {"enabled": True, "k_b": 5}}
    config = RunConfig.from_dict(doc)
    trainer = Trainer(store, config)
    assert models.count_parameters(
        config.model, store.n_entities, store.n_relations, isd_k_b=5, isd_batch_size=16
    ) == sum(p.data.size for _, p in trainer.adam.named_params)


def test_training_steps_run_on_one_blas_thread(monkeypatch, memorization_dataset_dir):
    with autodiff._one_blas_thread():
        pass
    if not autodiff._openblas_threads:
        pytest.skip("numpy's OpenBLAS thread calls are not available")
    get, put = autodiff._openblas_threads
    trainer = _memorization_trainer(memorization_dataset_dir)
    seen, real_backward, real_step = [], training.backward, Adam.step

    def record_backward(loss):
        seen.append(get())
        real_backward(loss)

    def record_step(self, lr):
        seen.append(get())
        real_step(self, lr)

    def failing_backward(loss):
        raise RuntimeError("backward failed")

    monkeypatch.setattr(training, "backward", record_backward)
    monkeypatch.setattr(Adam, "step", record_step)
    before = get()
    put(2)
    try:
        trainer.train_epoch()
        assert seen and set(seen) == {1}
        assert get() == 2
        monkeypatch.setattr(training, "backward", failing_backward)
        with pytest.raises(RuntimeError, match="backward failed"):
            trainer.train_epoch()
        assert get() == 2
    finally:
        put(before)


# ---------------------------------------------------------------------------
# Leaf gradients
# ---------------------------------------------------------------------------

def backward_sum_then_add(loss: Tensor) -> None:
    """Reference backward pass: same traversal as ``backward``, but every
    contribution to a node is summed first and then added to the leaf.

    A VJP that adds into its leaf parent's ``grad`` itself gets a zeroed
    stand-in for that ``grad`` while it runs; what it added there is its
    contribution."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in visited)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            node.grad += g
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if parent._parents:
                c = vjp(g)
            else:
                held, parent.grad = parent.grad, np.zeros_like(parent.grad)
                try:
                    c = vjp(g)
                    if c is None:
                        c = parent.grad
                finally:
                    parent.grad = held
            grads[id(parent)] = grads[id(parent)] + c if id(parent) in grads else c


def test_leaf_direct_accumulation_is_bit_identical():
    """One table feeds a gather, a transposed product, a one-row product
    and a square. Backward adds the square's two terms, then the one-row
    product's pending pair arrives, and the transposed product's add reads
    the gradient, which adds the pair in before it."""
    rng = np.random.default_rng(11)
    table_init, other_init = rng.normal(size=(6, 5)), rng.normal(size=(4, 5))
    row, weights = rng.normal(size=(1, 6)), rng.normal(size=(1, 5))

    def build():
        table, other = Parameter(table_init.copy()), Parameter(other_init.copy())
        rows = gather_rows(table, np.array([0, 3, 3, 1]))
        scores = matmul(mul(rows, other), transpose(table))
        loss = bce_loss(scores, SparseTargets([0, 2], [4, 1], scores.shape))
        one_row = tensor_sum(mul(matmul(Tensor(row), table), Tensor(weights)))
        return table, other, loss + one_row + tensor_sum(mul(table, table)) * 0.01

    t1, o1, loss1 = build()
    backward(loss1)
    t2, o2, loss2 = build()
    backward_sum_then_add(loss2)
    assert t1.grad.tobytes() == t2.grad.tobytes()
    assert o1.grad.tobytes() == o2.grad.tobytes()


def test_identity_vjp_feeding_two_interior_parents():
    """add hands one array to both parents; summing into it in place would
    change the other parent's gradient too."""
    p = Parameter(np.array([1.0, 2.0]))
    a, b = p * 2.0, p * 3.0
    d = (a + a) + (b + b)
    backward(tensor_sum(d * d))
    # d = 10p, so the loss is 100 p^2
    np.testing.assert_array_equal(p.grad, 200.0 * p.data)


def test_gather_rows_adds_into_a_leaf_holding_a_gradient():
    """Repeated ids land one after the other on top of the prior gradient."""
    rng = np.random.default_rng(29)
    table = Parameter(rng.normal(size=(7, 5)))
    prior = rng.normal(size=(7, 5))
    table.grad[...] = prior
    ids = np.array([4, 0, 4, 2, 4, 0])
    weights = rng.normal(size=(len(ids), 5))
    backward(tensor_sum(mul(gather_rows(table, ids), Tensor(weights))))
    old = np.zeros((7, 5))
    np.add.at(old, ids, weights)
    # A few ulp of the magnitudes summed into each entry.
    magnitude = np.abs(prior)
    np.add.at(magnitude, ids, np.abs(weights))
    assert (np.abs(table.grad - (prior + old)) <= 4 * np.finfo(float).eps * magnitude).all()
    untouched = np.setdiff1d(np.arange(7), ids)
    assert table.grad[untouched].tobytes() == prior[untouched].tobytes()


@pytest.mark.parametrize("slice_elements", [4, autodiff._SLICE_ELEMENTS])
def test_rank_one_matmul_adds_into_a_leaf_holding_a_gradient(monkeypatch, slice_elements):
    monkeypatch.setattr(autodiff, "_SLICE_ELEMENTS", slice_elements)
    rng = np.random.default_rng(31)
    row = Parameter(rng.normal(size=(1, 9)))
    table = Parameter(rng.normal(size=(9, 6)))
    prior = rng.normal(size=(9, 6))
    table.grad[...] = prior
    weights = rng.normal(size=(1, 6))
    backward(tensor_sum(mul(matmul(row * 2.0, table), Tensor(weights))))
    old = prior + (2.0 * row.data).T @ weights
    np.testing.assert_allclose(table.grad, old, rtol=4 * np.finfo(float).eps, atol=0.0)
    np.testing.assert_allclose(row.grad, 2.0 * (weights @ table.data.T), rtol=1e-15)


def test_rank_one_matmul_update_is_bit_identical_for_any_worker_count(monkeypatch, workers):
    # 12-element slices of 2 rows: 21 slices over 41 rows, added into a
    # table that already holds a gradient.
    monkeypatch.setattr(autodiff, "_SLICE_ELEMENTS", 12)
    rng = np.random.default_rng(101)
    row_init, table_init = rng.normal(size=(1, 41)), rng.normal(size=(41, 6))
    prior, weights = rng.normal(size=(41, 6)), rng.normal(size=(1, 6))
    runs = {}
    for count in (1, 2, 3):
        workers(count)
        row, table = Parameter(row_init.copy()), Parameter(table_init.copy())
        table.grad[...] = prior
        backward(tensor_sum(mul(matmul(row, table), Tensor(weights))))
        runs[count] = table.grad.tobytes()
        assert (autodiff._pool is None) == (count == 1)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    assert runs[1] == (prior + np.multiply.outer(row_init[0], weights[0])).tobytes()


def test_rank_one_matmul_into_an_interior_node_matches_finite_differences():
    rng = np.random.default_rng(37)
    row, table = Parameter(rng.normal(size=(1, 4))), Parameter(rng.normal(size=(4, 3)))
    weights = Tensor(rng.normal(size=(1, 3)))
    assert_gradients_match(
        lambda: tensor_sum(mul(matmul(row, table * 1.5), weights)), [row, table]
    )


def test_distillation_backward_builds_no_full_size_gradient():
    """batch x entities (the expanding projection) is 8x entities x d here;
    its gradient and the table's are taken without a full-size temporary.
    The task loss is the fused head that training runs."""
    n_entities, batch_size, d = 5_000, 64, 8
    rng = np.random.default_rng(41)
    model = EmbeddingModel(ModelConfig(d_e=d), n_entities, 4, stream(1, "model"))
    block = SemanticBlock(d, n_entities, batch_size, d, stream(1, "block"))
    tails = tuple(rng.choice(n_entities, 2, replace=False) for _ in range(batch_size))
    batch = Batch(
        heads=rng.integers(0, n_entities, batch_size), relations=rng.integers(0, 4, batch_size),
        tails=tails, n_entities=n_entities,
    )
    targets = label_smooth(batch.targets(), 0.1)
    bce = model.forward(batch.heads, batch.relations, targets=targets)
    kl = distill_loss(extract(batch.heads, model.entity_embeddings, block), rng.normal(size=d), 10.0)
    loss = total_loss(bce, kl, 0.5)
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.abs(block.w_expand.grad).max() > 0.0
    assert peak < block.w_expand.data.nbytes / 2


@pytest.mark.parametrize("static_input", [False, True])
def test_teacher_refresh_extracts_from_the_configured_heads(
    monkeypatch, memorization_dataset_dir, static_input
):
    """With ``static_input`` every refresh of an epoch reads its first batch's
    heads; without it each refresh reads its own step's heads. The student
    side always reads the step's heads."""
    store = augment_reciprocal(load_dataset(memorization_dataset_dir))
    epochs, calls, epoch_batches = 2, [], []
    original_extract, original_batches = training.extract, training.make_batches

    def record_extract(heads, entities, block):
        calls.append((autodiff.grad_enabled(), np.array(heads, copy=True)))
        return original_extract(heads, entities, block)

    def record_batches(*args):
        epoch_batches.append(original_batches(*args))
        return epoch_batches[-1]

    monkeypatch.setattr(training, "extract", record_extract)
    monkeypatch.setattr(training, "make_batches", record_batches)
    doc = {
        "model": {"d_e": 8},
        "train": {"batch_size": 16, "epochs": epochs, "seed": 1},
        "isd": {"enabled": True, "beta_init": 0.5, "static_input": static_input},
    }
    trainer = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(epochs):
        trainer.train_epoch()

    want = []
    for ep, batches in enumerate(epoch_batches):
        assert any(not np.array_equal(b.heads, batches[0].heads) for b in batches)
        for step, batch in enumerate(batches):
            if ep or step:
                want.append((True, batch.heads))
            want.append((False, (batches[0] if static_input else batch).heads))
    assert len(calls) == len(want)
    for (grad, heads), (want_grad, want_heads) in zip(calls, want):
        assert grad == want_grad
        np.testing.assert_array_equal(heads, want_heads)


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------

def _store(tmp_path, rename=None):
    """The memorization graph; ``rename`` maps entity names to new ones."""
    splits = synthetic_triples(30, 3, n_train=90, n_valid=8, n_test=8)
    rename = rename or {}
    train, valid, test = ([(rename.get(h, h), r, rename.get(t, t)) for h, r, t in rows] for rows in splits)
    directory = write_dataset(tmp_path / ("renamed" if rename else "memo"), train, valid, test)
    return augment_reciprocal(load_dataset(directory))


@pytest.mark.parametrize(
    "model, isd",
    [
        ({"kind": "distmult", "d_e": 8}, {"enabled": True, "m_exponent": 1.0}),
        ({"kind": "tucker", "d_e": 6, "d_r": 4, "batchnorm": True}, {}),
    ],
)
def test_resume_is_bit_exact(tmp_path, model, isd):
    store = _store(tmp_path)
    doc = {"model": model, "train": {"batch_size": 16, "epochs": 6, "seed": 5}, "isd": isd}
    straight = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(6):
        straight.train_epoch()

    first = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(3):
        first.train_epoch()
    first.save(tmp_path / "ckpt")
    resumed = Trainer.resume(tmp_path / "ckpt", store)
    for _ in range(3):
        resumed.train_epoch()

    assert resumed.metrics_history == straight.metrics_history
    want, got = straight._named_tensors(), resumed._named_tensors()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_resume_rejects_a_renamed_entity(tmp_path):
    store = _store(tmp_path)
    trainer = Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}, "train": {"batch_size": 16}}))
    trainer.save(tmp_path / "ckpt")
    renamed = _store(tmp_path, rename={"e0": "x0"})
    assert (renamed.n_entities, renamed.n_relations) == (store.n_entities, store.n_relations)
    with pytest.raises(ConfigError, match="entities"):
        Trainer.resume(tmp_path / "ckpt", renamed)


def test_failed_save_keeps_the_earlier_checkpoint(tmp_path, monkeypatch):
    store = _store(tmp_path)
    doc = {"model": {"kind": "distmult", "d_e": 8}, "train": {"batch_size": 16, "epochs": 6, "seed": 5},
           "isd": {"enabled": True, "m_exponent": 1.0}}
    straight = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(6):
        straight.train_epoch()

    first = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(3):
        first.train_epoch()
    first.save(tmp_path / "ckpt")
    first.train_epoch()
    written = []

    def fail_on_third(path, arr):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(path)
        real_write(path, arr)

    real_write = training._write_tensor
    monkeypatch.setattr(training, "_write_tensor", fail_on_third)
    with pytest.raises(OSError, match="disk full"):
        first.save(tmp_path / "ckpt")
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "memo"]
    assert all(p.parent.name != "ckpt" for p in written)

    resumed = Trainer.resume(tmp_path / "ckpt", store)
    assert resumed.epoch == 3
    for _ in range(3):
        resumed.train_epoch()
    assert resumed.metrics_history == straight.metrics_history
    want, got = straight._named_tensors(), resumed._named_tensors()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_manifest_in_the_earlier_format_loads_evaluates_and_resumes(tmp_path):
    """Manifests once also held adam_step, epoch, seed, teacher_present,
    tensors, n_entities, n_relations and base_relations; the reader ignores
    those keys."""
    store = _store(tmp_path)
    doc = {"model": {"kind": "distmult", "d_e": 8}, "train": {"batch_size": 16, "epochs": 6, "seed": 5},
           "isd": {"enabled": True, "beta_init": 0.5}}
    straight = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(6):
        straight.train_epoch()

    first = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(3):
        first.train_epoch()
    first.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert sorted(manifest) == ["config", "format", "metrics_history", "rng", "version"]
    manifest.update(
        adam_step=first.adam.step_count, epoch=3, seed=5, teacher_present=True,
        tensors=sorted(first._named_tensors()), n_entities=store.n_entities,
        n_relations=store.n_relations, base_relations=store.base_relation_count,
    )
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    index = build_filter_index(store)
    restored = model_from_checkpoint(load_checkpoint(tmp_path / "ckpt"))
    assert evaluate(restored, store, index) == evaluate(first.model, store, index)
    resumed = Trainer.resume(tmp_path / "ckpt", store)
    assert resumed.teacher.present
    for _ in range(3):
        resumed.train_epoch()
    assert resumed.metrics_history == straight.metrics_history
    want, got = straight._named_tensors(), resumed._named_tensors()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_resumed_epoch_is_the_length_of_the_history(tmp_path):
    """A manifest's own epoch and Adam step counts, as earlier manifests
    held, are not read: both follow from the history and the batch count."""
    store = _store(tmp_path)
    doc = {"model": {"d_e": 4}, "train": {"batch_size": 16, "epochs": 4}, "isd": {"enabled": True}}
    trainer = Trainer(store, RunConfig.from_dict(doc))
    for _ in range(2):
        trainer.train_epoch()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "epoch": 0, "adam_step": 0}))
    resumed = Trainer.resume(tmp_path / "ckpt", store)
    assert resumed.epoch == len(resumed.metrics_history) == 2
    assert resumed.adam.step_count == trainer.adam.step_count == 2 * (len(trainer.queries) // 16)
    assert resumed.train_epoch() == trainer.train_epoch()


@pytest.mark.parametrize(
    "state",
    [
        np.random.MT19937(1).state,
        {**np.random.PCG64(1).state, "state": {"state": 1}},
        {**np.random.PCG64(1).state, "state": {"state": -1, "inc": 1}},
    ],
    ids=["mt19937", "no-increment", "negative-state"],
)
def test_resume_rejects_a_stream_state_pcg64_refuses(tmp_path, state):
    store = _store(tmp_path)
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}, "train": {"batch_size": 16}})).save(
        tmp_path / "ckpt"
    )
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["rng"]["shuffle"] = state
    path.write_text(json.dumps(manifest, default=np.ndarray.tolist))
    with pytest.raises(CheckpointError, match="rng.shuffle is not a PCG64 state"):
        Trainer.resume(tmp_path / "ckpt", store)


def _drop_rng_dropout(manifest):
    del manifest["rng"]["dropout"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_rng_dropout, "lacks rng.dropout"),
        (lambda m: m.update(metrics_history={}), "metrics_history must be a list"),
    ],
    ids=["no-rng-stream", "dict-history"],
)
def test_malformed_manifest_rejected(tmp_path, edit, message):
    store = _store(tmp_path)
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}, "train": {"batch_size": 16}})).save(
        tmp_path / "ckpt"
    )
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(tmp_path / "ckpt")


def test_save_replaces_an_earlier_checkpoint(tmp_path):
    store = _store(tmp_path)
    trainer = Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}, "train": {"batch_size": 16}}))
    trainer.save(tmp_path / "ckpt")
    (tmp_path / "ckpt" / "stale.bin").write_bytes(b"")
    trainer.train_epoch()
    trainer.save(tmp_path / "ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "memo"]
    assert not (tmp_path / "ckpt" / "stale.bin").exists()
    assert len(load_checkpoint(tmp_path / "ckpt").manifest["metrics_history"]) == 1


# ---------------------------------------------------------------------------
# Learning-rate schedule and tensor files
# ---------------------------------------------------------------------------

def test_lr_at_epoch():
    assert lr_at_epoch(0, 0.01, 0.5) == 0.01
    assert lr_at_epoch(3, 0.01, 0.5) == 0.01 * 0.125
    assert lr_at_epoch(1000, 0.01, 1.0) == 0.01
    with pytest.raises(ValueError):
        lr_at_epoch(-1, 0.01, 0.5)


def _header(rank: int, *dims: int) -> bytes:
    return training._TENSOR_MAGIC + struct.pack("<I", rank) + struct.pack(f"<{len(dims)}Q", *dims)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"NOPE" + bytes(16), "bad magic"),
        (training._TENSOR_MAGIC + b"\x01", "truncated header"),
        (_header(9) + bytes(72), "implausible tensor rank 9"),
        (_header(2, 3), "truncated dimension header"),
        (_header(1, 3) + bytes(16), "expected 24 data bytes .* got 16"),
        (_header(1, 3) + bytes(32), "expected 24 data bytes .* got 32"),
        *((_header(1, 3) + struct.pack("<3d", 0.0, bad, 1.0), "holds a NaN or infinite value")
          for bad in (np.nan, np.inf, -np.inf)),
        # 2^32 * 2^32 elements wrap to 0 in int64, which a header alone would match.
        (_header(2, 2**32, 2**32), "expected 147573952589676412928 data bytes .* got 0"),
        (_header(2, 2**63, 2**63 + 1), "expected .* data bytes .* got 0"),
        (_header(2, 0, 2**63), "implausible shape"),
    ],
    ids=["bad-magic", "short-header", "rank-over-8", "short-dims", "short-body", "trailing-bytes",
         "nan", "inf", "minus-inf", "size-wraps-to-0", "size-wraps-negative", "zero-size-huge-dim"],
)
def test_corrupt_tensor_file_rejected(tmp_path, content, message):
    path = tmp_path / "t.bin"
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match=message):
        training._read_tensor(path)


def test_tensor_file_round_trip(tmp_path):
    extremes = np.array([-0.0, np.finfo(float).max, 1e-310])  # a non-finite value is rejected
    for value in (np.arange(12.0).reshape(3, 4), np.zeros((0, 5)), extremes,
                  np.asfortranarray(np.arange(6.0).reshape(2, 3))):
        training._write_tensor(tmp_path / "t.bin", value)
        got = training._read_tensor(tmp_path / "t.bin")
        assert got.dtype == np.float64 and got.shape == value.shape and got.flags.writeable
        assert got.tobytes() == value.tobytes()


def test_tensor_file_is_written_without_a_copy(tmp_path):
    value = np.random.default_rng(3).normal(size=1 << 21)  # 16 MB
    tracemalloc.start()
    try:
        training._write_tensor(tmp_path / "t.bin", value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < value.nbytes // 16, peak
    assert (tmp_path / "t.bin").read_bytes() == _header(1, value.size) + value.tobytes()


# ---------------------------------------------------------------------------
# Golden trajectories
# ---------------------------------------------------------------------------

# SHA-256 over every checkpointed array (sorted by name) and the metrics
# history after 3 epochs on the memorization graph, per model kind and
# distillation arm. A refactor must leave these unchanged; a deliberate
# trajectory change records new literals and says so in CHANGES.md. Like
# GOLDEN_REPORT, the literals hold for the BLAS build they were recorded on.
GOLDEN_ARMS = {
    "off": {},
    "beta-0.5": {"enabled": True, "beta_init": 0.5},
    "static": {"enabled": True, "static_input": True},
}
GOLDEN_TRAJECTORIES = {
    ("distmult", "off"): "0bcb67c0b820a5db54c74d78a3d8ac4a02d2bcf212f2d2eb0c6f2482b365e1c1",
    ("distmult", "beta-0.5"): "cf85bc9e878292b33cce5d1d014d31071dc615076789ee8c054c78672c755e3e",
    ("distmult", "static"): "4326749123beee20a6e1e684f7019835e71d637acc299a813192c36a2c5b610b",
    ("complex", "off"): "05ea12e8b8fff5d0d2d1acad4fb24df783af57e6bec26a16af5d54293033dc89",
    ("complex", "beta-0.5"): "164ab85d9dcd6b7f81346043f698006ee83b5255892a67332abbd7a38ff5481e",
    ("complex", "static"): "2527dc486c300caa697ccad5c215052f4340362a4fc05d4b4466e7d9586cce3e",
    ("tucker", "off"): "d4fd90d1b723741b9ef404d67dbdc1fef453bbc7384a4af018f6befc17193ddd",
    ("tucker", "beta-0.5"): "3f31a85bbd2c1b99976e2447be1d6b7220a62d5736979df2575c84b8fa51c4f6",
    ("tucker", "static"): "0dfe6d7df0f44cc18f4804e5d3de075ff89c1e7876f709b90bd4fb33aa36044a",
    ("lowfer", "off"): "1fc2e4e696b6ab36c78e2f727edf98fb865381c59d4f66550cf182c1893c584b",
    ("lowfer", "beta-0.5"): "8422f6b5321fe9e3438c3ae4f62c191ee2f63025081e2c590e36bda2e4dec8ab",
    ("lowfer", "static"): "476b382ff3ab7fb342a56fffcd97681c2631a02326459b600d777b72e72a35af",
}


@pytest.mark.parametrize("kind", ["distmult", "complex", "tucker", "lowfer"])
def test_distillation_at_beta_zero_is_bit_identical_to_distillation_off(tmp_path, kind):
    """``train_epoch`` skips the whole distillation path when beta is 0, so
    the model and the history are those of a run without distillation, and
    Adam, fed zero gradients, leaves the block as it was built."""
    def tensors(trainer, prefix):
        return {n: t.data.tobytes() for n, t in trainer.state.items() if n.startswith(prefix)}

    store = _store(tmp_path)
    trainers = {}
    for arm, isd in (("off", {}), ("zero", {"enabled": True, "beta_init": 0.0})):
        doc = {"model": {"kind": kind, "d_e": 8}, "train": {"batch_size": 16, "epochs": 3, "seed": 2},
               "isd": isd}
        trainers[arm] = Trainer(store, RunConfig.from_dict(doc))
    block_init = tensors(trainers["zero"], "block.")
    for trainer in trainers.values():
        for _ in range(3):
            trainer.train_epoch()

    assert tensors(trainers["zero"], "model.") == tensors(trainers["off"], "model.")
    assert trainers["zero"].metrics_history == trainers["off"].metrics_history
    assert block_init and tensors(trainers["zero"], "block.") == block_init


def test_fixed_seed_trajectories_are_unchanged(tmp_path, monkeypatch, workers):
    """The same literals at the default row slices and at 7-element ones,
    which cut every gradient pass, Adam and the score head's entity add
    into slices of one row shared out over two workers."""
    store = _store(tmp_path)
    workers(2)
    for slice_elements in (autodiff._SLICE_ELEMENTS, 7):
        monkeypatch.setattr(autodiff, "_SLICE_ELEMENTS", slice_elements)
        got = {}
        for kind, arm in GOLDEN_TRAJECTORIES:
            doc = {"model": {"kind": kind, "d_e": 8}, "train": {"batch_size": 16, "epochs": 3, "seed": 2},
                   "isd": GOLDEN_ARMS[arm]}
            trainer = Trainer(store, RunConfig.from_dict(doc))
            for _ in range(3):
                trainer.train_epoch()
            digest = hashlib.sha256()
            for name, arr in sorted(trainer._named_tensors().items()):
                digest.update(name.encode())
                digest.update(arr.tobytes())
            digest.update(json.dumps(trainer.metrics_history).encode())
            got[kind, arm] = digest.hexdigest()
        assert got == GOLDEN_TRAJECTORIES, slice_elements
