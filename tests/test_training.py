"""BCE loss, Adam, leaf gradient accumulation, and bit-exact resume."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import assert_gradients_match, synthetic_triples, write_dataset
from scipy.special import expit

from kgedistill import autodiff, training
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
    label_smooth,
    load_dataset,
)
from kgedistill.distill import SemanticBlock, distill_loss, extract, total_loss
from kgedistill.errors import CheckpointError, ConfigError, ShapeError
from kgedistill.models import EmbeddingModel
from kgedistill.rng import stream
from kgedistill.training import Adam, Trainer, bce_loss, load_checkpoint, lr_at_epoch


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
    y = targets.dense()
    return np.mean(np.logaddexp(0.0, logits) - y * logits), (expit(logits) - y) / logits.size


# ---------------------------------------------------------------------------
# BCE on sparse targets
# ---------------------------------------------------------------------------

class TestBceLoss:
    @pytest.mark.parametrize("block", [64, 1 << 14])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_sparse_matches_dense(self, monkeypatch, block, epsilon):
        """At either block size, the kernel matches the closed form on the dense targets."""
        monkeypatch.setattr(training, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(3)
        batch = random_batch(rng)
        logits = rng.normal(0.0, 4.0, (len(batch), batch.n_entities))
        sparse = label_smooth(batch.targets(), epsilon)
        value, grad = loss_and_grad(logits, sparse)
        want_value, want_grad = dense_bce(logits, sparse)
        assert rel_err(value, want_value) <= 1e-12
        assert rel_err(grad, want_grad) <= 1e-14

    def test_matches_logaddexp_formula(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng)
        logits = rng.normal(0.0, 3.0, (len(batch), batch.n_entities))
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
                for u, t in zip(logits.ravel().tolist(), targets.dense().ravel().tolist())
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
            off = targets.dense().ravel() == 0.0
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
        got = training._sigmoid(u, e, np.empty_like(u), np.empty_like(u))
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
            targets.dense(), (1.0 - 0.1) * np.array([[0.0, 1.0, 0.0, 1.0]]) + 0.1 / 4
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
        np.testing.assert_array_equal(targets.dense(), [[0.0, 1.0, 1.0, 0.0]])

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
    block = training._ADAM_BLOCK_ELEMENTS
    shapes = [(7,), (2 * block + 3,), (130, 257), (block // 64, 64), (3, 1)]
    rng = np.random.default_rng(9)
    params = [(f"p{i}", Parameter(rng.normal(size=s))) for i, s in enumerate(shapes)]
    ref = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for _, p in params]
    adam = Adam(params)
    for step in range(1, 5):
        lr = 0.01 * 0.9**step
        for (_, p), (w, m, v) in zip(params, ref):
            p.grad[...] = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2)
            adam_one_shot(w, p.grad, m, v, lr, step)
        adam.step(lr)
        for (name, p), (w, m, v) in zip(params, ref):
            assert p.data.tobytes() == w.tobytes(), name
            assert adam.moment1[name].tobytes() == m.tobytes(), name
            assert adam.moment2[name].tobytes() == v.tobytes(), name


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
    def resident_bytes() -> int:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    before = resident_bytes()
    p = Parameter(np.zeros((4096, 2048)))
    adam = Adam([("p", p)])
    grown = resident_bytes() - before
    assert p.grad.shape == adam.moment1["p"].shape == adam.moment2["p"].shape == p.shape
    assert grown < 16 << 20, f"resident set grew by {grown / 2**20:.0f} MB"


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

@pytest.fixture
def workers(monkeypatch):
    """Set the pool's worker count; a pool started for the test is shut down.

    The interpreter switches threads every microsecond meanwhile, so workers
    interleave as finely as they can.
    """
    started = []

    def use(count: int) -> None:
        if training._pool is not None:
            started.append(training._pool)
        monkeypatch.setattr(training, "_WORKERS", count)
        monkeypatch.setattr(training, "_pool", None)

    monkeypatch.setattr(training, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        if training._pool is not None:
            started.append(training._pool)
        for pool in started:
            pool.shutdown()


@pytest.mark.parametrize("size", [64 * 12, 64 * 12 + 5])
def test_adam_is_bit_identical_for_any_worker_count(monkeypatch, workers, size):
    monkeypatch.setattr(training, "_ADAM_BLOCK_ELEMENTS", 64)
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
        assert (training._pool is None) == (count == 1)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_import_and_memorization_training_start_no_thread(memorization_dataset_dir):
    script = (
        "import threading\n"
        "import kgedistill\n"
        "from kgedistill import training\n"
        "from kgedistill.config import RunConfig\n"
        "from kgedistill.data import augment_reciprocal, load_dataset\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "store = augment_reciprocal(load_dataset(__import__('sys').argv[1]))\n"
        "doc = {'model': {'d_e': 8}, 'train': {'batch_size': 16, 'epochs': 3}, 'isd': {'enabled': True}}\n"
        "trainer = training.Trainer(store, RunConfig.from_dict(doc))\n"
        "for _ in range(3):\n"
        "    trainer.train_epoch()\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert training._pool is None\n"
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


def _fused_run(z, table, targets, upstream=0.75, interior=False):
    """``interior`` passes the table through a product, so it is no leaf."""
    zp, tp = Parameter(z.copy()), Parameter(table.copy())
    loss = training.score_bce(zp, tp * 1.0 if interior else tp, targets)
    backward(loss * upstream)
    return float(loss.data), zp.grad, tp.grad


def _chain_run(z, table, targets, upstream=0.75, interior=False):
    zp, tp = Parameter(z.copy()), Parameter(table.copy())
    loss = bce_loss(matmul(zp, transpose(tp * 1.0 if interior else tp)), targets)
    backward(loss * upstream)
    return float(loss.data), zp.grad, tp.grad


class TestScoreBce:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("block", [40, 1 << 17])
    def test_matches_the_unfused_chain(self, monkeypatch, epsilon, block):
        # 40-element blocks of 3 columns: 101 blocks in 8 groups of 13. A leaf
        # table takes the blocked add, an interior one the out-of-place VJP.
        monkeypatch.setattr(training, "_SCORE_BLOCK_ELEMENTS", block)
        z, table, targets = _score_case(np.random.default_rng(43), epsilon=epsilon)
        for interior in (False, True):
            value, dz, dtable = _fused_run(z, table, targets, interior=interior)
            want_value, want_dz, want_dtable = _chain_run(z, table, targets, interior=interior)
            assert rel_err(value, want_value) <= 1e-14
            assert rel_err(dz, want_dz) <= 1e-14
            assert rel_err(dtable, want_dtable) <= 1e-14

    def test_finite_differences(self, monkeypatch):
        monkeypatch.setattr(training, "_SCORE_BLOCK_ELEMENTS", 8)
        z, table, targets = _score_case(np.random.default_rng(47), n_rows=3, n_cols=11, dim=4)
        zp, tp = Parameter(z), Parameter(table)
        assert_gradients_match(lambda: training.score_bce(zp, tp, targets) * 3.0, [zp, tp])

    def test_adds_into_a_table_holding_a_gradient(self):
        z, table, targets = _score_case(np.random.default_rng(53))
        prior = np.random.default_rng(59).normal(size=table.shape)
        zp, tp = Parameter(z), Parameter(table)
        tp.grad[...] = prior
        backward(training.score_bce(zp, tp, targets))
        _, _, fresh = _fused_run(z, table, targets, upstream=1.0)
        assert tp.grad.tobytes() == (prior + fresh).tobytes()

    def test_without_gradients_gives_the_value_only(self):
        z, table, targets = _score_case(np.random.default_rng(61))
        with no_grad():
            loss = training.score_bce(Parameter(z), Parameter(table), targets)
        assert not loss.requires_grad
        assert float(loss.data) == _fused_run(z, table, targets)[0]

    def test_model_forward_with_targets_is_the_bce_of_its_logits(self):
        rng = np.random.default_rng(67)
        model = EmbeddingModel(ModelConfig(kind="complex", d_e=6), 40, 4, stream(2, "model"))
        heads, relations = rng.integers(0, 40, 9), rng.integers(0, 4, 9)
        targets = label_smooth(SparseTargets(np.arange(9), rng.integers(0, 40, 9), (9, 40)), 0.1)
        fused = model.forward(heads, relations, targets=targets)
        chain = bce_loss(model.forward(heads, relations), targets)
        assert rel_err(float(fused.data), float(chain.data)) <= 1e-14

    def test_rejects_bad_targets(self):
        z, table = Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            training.score_bce(z, table, SparseTargets([0], [0], (2, 4)))
        with pytest.raises(ShapeError):
            training.score_bce(z, Tensor(np.zeros((5, 2))), SparseTargets([0], [0], (2, 5)))
        with pytest.raises(TypeError):
            training.score_bce(z, table, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            training.score_bce(z, table, SparseTargets([0], [0], (2, 5), on=1.5))

    def test_second_backward_over_one_graph_raises(self):
        z, table, targets = _score_case(np.random.default_rng(71))
        loss = training.score_bce(Parameter(z), Parameter(table), targets)
        backward(loss)
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_restores_the_blas_thread_count(self):
        z, table, targets = _score_case(np.random.default_rng(73))
        training.score_bce(Parameter(z), Parameter(table), targets)
        if not training._openblas_threads:
            pytest.skip("numpy's OpenBLAS thread calls are not available")
        get, put = training._openblas_threads
        before = get()
        put(2)
        try:
            training.score_bce(Parameter(z), Parameter(table), targets)
            assert get() == 2
        finally:
            put(before)


@pytest.mark.parametrize("n_cols", [301, 299])
def test_score_bce_is_bit_identical_for_any_worker_count(monkeypatch, workers, n_cols):
    # 36-element blocks of 3 columns: 101 blocks (100 with a short last one
    # at 299 columns) in 8 groups, so every worker count splits the groups.
    monkeypatch.setattr(training, "_SCORE_BLOCK_ELEMENTS", 36)
    z, table, targets = _score_case(np.random.default_rng(79), n_cols=n_cols)
    runs = {}
    for count in (1, 2, 3):
        workers(count)
        value, dz, dtable = _fused_run(z, table, targets)
        runs[count] = (value, dz.tobytes(), dtable.tobytes())
        assert (training._pool is None) == (count == 1)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


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


# ---------------------------------------------------------------------------
# Leaf gradients
# ---------------------------------------------------------------------------

def backward_sum_then_add(loss: Tensor) -> None:
    """Reference backward pass: same traversal as ``backward``, but every
    contribution to a node is summed first and then added to the leaf."""
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
            c = vjp(g)
            grads[id(parent)] = grads[id(parent)] + c if id(parent) in grads else c


def test_leaf_direct_accumulation_is_bit_identical():
    """One table feeds a gather, a transposed product and a square."""
    rng = np.random.default_rng(11)
    table_init, other_init = rng.normal(size=(6, 5)), rng.normal(size=(4, 5))

    def build():
        table, other = Parameter(table_init.copy()), Parameter(other_init.copy())
        rows = gather_rows(table, np.array([0, 3, 3, 1]))
        scores = matmul(mul(rows, other), transpose(table))
        loss = bce_loss(scores, SparseTargets([0, 2], [4, 1], scores.shape))
        return table, other, loss + tensor_sum(mul(table, table)) * 0.01

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


@pytest.mark.parametrize("outer_block", [4, autodiff._OUTER_BLOCK_ELEMENTS])
def test_rank_one_matmul_adds_into_a_leaf_holding_a_gradient(monkeypatch, outer_block):
    monkeypatch.setattr(autodiff, "_OUTER_BLOCK_ELEMENTS", outer_block)
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


def _state(trainer: Trainer) -> dict:
    tensors = trainer._named_tensors()
    if trainer.teacher.present:
        tensors["teacher.vector"] = trainer.teacher.vector
    return {k: np.array(v, copy=True) for k, v in tensors.items()}


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
    want, got = _state(straight), _state(resumed)
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
    want, got = _state(straight), _state(resumed)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def _drop_rng_dropout(manifest):
    del manifest["rng"]["dropout"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["tensors"].append("../x"), "plain file stems"),
        (lambda m: m["tensors"].append(".."), "plain file stems"),
        (lambda m: m.update(tensors="model.entity_embeddings"), "plain file stems"),
        (_drop_rng_dropout, "lacks rng.dropout"),
        (lambda m: m.update(teacher_present=True), "teacher"),
        (lambda m: m.update(epoch="0"), "epoch must be a non-negative integer, got '0'"),
        (lambda m: m.update(adam_step=-1), "adam_step must be a non-negative integer"),
        (lambda m: m.update(n_entities="30"), "n_entities must be a non-negative integer"),
        (lambda m: m.update(n_relations=6.0), "n_relations must be a non-negative integer"),
        (lambda m: m.update(n_relations=True), "n_relations must be a non-negative integer"),
        (lambda m: m.update(metrics_history={}), "metrics_history must be a list"),
        (lambda m: m.update(teacher_present=0), "teacher_present must be true or false"),
    ],
    ids=[
        "parent-dir", "dot-dot", "not-a-list", "no-rng-stream", "no-teacher-tensor",
        "string-epoch", "negative-adam-step", "string-entities", "float-relations",
        "bool-relations", "dict-history", "int-teacher-flag",
    ],
)
def test_malformed_manifest_rejected(tmp_path, edit, message):
    store = _store(tmp_path)
    Trainer(store, RunConfig.from_dict({"model": {"d_e": 4}, "train": {"batch_size": 16}})).save(
        tmp_path / "ckpt"
    )
    (tmp_path / "x.bin").write_bytes((tmp_path / "ckpt" / "model.entity_embeddings.bin").read_bytes())
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
    assert load_checkpoint(tmp_path / "ckpt").manifest["epoch"] == 1


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
    ],
    ids=["bad-magic", "short-header", "rank-over-8", "short-dims", "short-body", "trailing-bytes"],
)
def test_corrupt_tensor_file_rejected(tmp_path, content, message):
    path = tmp_path / "t.bin"
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match=message):
        training._read_tensor(path)


def test_tensor_file_round_trip(tmp_path):
    for value in (np.arange(12.0).reshape(3, 4), np.zeros((0, 5)), np.array([-0.0, np.inf, 1e-310]),
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
