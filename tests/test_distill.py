"""Semantic extraction block, softened KL loss, mixing schedule."""

import mpmath
import numpy as np
import pytest
from chains import mean, reshape, tensor_sum
from conftest import assert_gradients_match, dense_grad, synthetic_triples, write_dataset

from kgedistill.autodiff import (
    Parameter,
    Tensor,
    add_scaled,
    backward,
    gather_rows,
    matmul,
    no_grad,
    node,
)
from kgedistill.data import augment_reciprocal, group_queries, load_dataset, make_batches
from kgedistill.distill import (
    SemanticBlock,
    TeacherCache,
    beta_at_epoch,
    distill_loss,
    extract,
    total_loss,
)
from kgedistill.errors import ShapeError
from kgedistill.rng import stream


def _toy_setup(tmp_path, bs=2, d=4, k_b=3, seed=5):
    train, valid, test = synthetic_triples(6, 2, 10, 1, 1)
    write_dataset(tmp_path / "kg", train, valid, test)
    store = augment_reciprocal(load_dataset(tmp_path / "kg"))
    entities = Parameter(stream(seed, "e").normal(0, 0.5, (store.n_entities, d)))
    block = SemanticBlock(d, store.n_entities, bs, k_b, stream(seed, "b"))
    batch = make_batches(group_queries(store), bs, stream(seed, "s"))[0]
    return store, entities, block, batch


def softmax_node(u: Tensor) -> Tensor:
    """Softmax of a vector as a generic op, max-shifted."""
    shifted = u.data - u.data.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return probs * (g - inner)

    return node(probs, (u,), (vjp,))


def chain_extract(heads, entities, block):
    """``extract`` as a chain of generic ops: the reference for its node."""
    bs = len(heads)
    x = gather_rows(entities, heads)
    v = mean(x, axis=0)
    c = matmul(reshape(v, (1, v.shape[0])), block.w_central)
    s = matmul(matmul(x, block.w_features), reshape(c, (c.shape[1], 1)))
    logits = matmul(reshape(s, (1, bs)), block.w_expand)
    q = softmax_node(reshape(logits, (logits.shape[1],)))
    l = matmul(reshape(q, (1, q.shape[0])), entities)
    return reshape(l, (l.shape[1],))


class TestExtract:
    @pytest.mark.parametrize("bs", [1, 3, 16])
    def test_matches_the_op_chain_bit_for_bit(self, bs):
        """The value, the no-grad value and all four leaves' gradients, on
        an entity table that already holds a gradient and with heads that
        repeat. The projections are drawn at unit scale rather than 0.02, so
        that the gradients are as large as the prior one and a change in
        their last bits shows in the sum."""
        n, d, k_b = 40, 16, 5
        rng = np.random.default_rng(bs)
        table, prior = rng.normal(0, 0.5, (n, d)), rng.normal(size=(n, d))
        heads, weights = rng.integers(0, 8, bs), rng.normal(size=d)
        projections = [rng.normal(size=shape) for shape in ((d, k_b), (d, k_b), (bs, n))]
        runs = []
        for fn in (extract, chain_extract):
            entities = Parameter(table.copy())
            add_scaled(entities, prior, 1.0)
            block = SemanticBlock(d, n, bs, k_b, stream(bs, "block"))
            for t, init in zip(block.state().values(), projections):
                t.data[...] = init
            out = fn(heads, entities, block)
            backward(tensor_sum(out * weights))
            with no_grad():
                again = fn(heads, entities, block)
            assert not again.requires_grad
            leaves = (entities, block.w_central, block.w_features, block.w_expand)
            runs.append([out.data.tobytes(), again.data.tobytes(), *(dense_grad(t).tobytes() for t in leaves)])
        assert runs[0] == runs[1]
        assert runs[0][0] == runs[0][1]

    def test_rejects_an_entity_table_that_is_not_a_leaf(self, tmp_path):
        store, entities, block, batch = _toy_setup(tmp_path)
        with pytest.raises(ShapeError, match="leaf"):
            extract(batch.heads, entities * 1.0, block)

    def test_zero_central_projection_gives_the_mean_entity_row(self, tmp_path):
        """c = 0 makes every similarity 0, so q is uniform over the entities."""
        store, entities, block, batch = _toy_setup(tmp_path)
        block.w_central.data[...] = 0.0
        out = extract(batch.heads, entities, block).data
        np.testing.assert_allclose(out, entities.data.mean(axis=0), rtol=0.0, atol=1e-15)

    def test_convex_hull_property(self, tmp_path):
        store, entities, block, batch = _toy_setup(tmp_path)
        out = extract(batch.heads, entities, block).data
        lo = entities.data.min(axis=0) - 1e-12
        hi = entities.data.max(axis=0) + 1e-12
        assert (out >= lo).all() and (out <= hi).all()

    def test_permuted_batch_recomputation(self, tmp_path):
        """Permuting the batch rows permutes K and s; the oracle recomputes
        the pipeline directly on the batch's heads and on the permuted ones."""
        store, entities, block, batch = _toy_setup(tmp_path)
        for heads in (batch.heads, batch.heads[np.array([1, 0])]):
            got = extract(heads, entities, block).data

            e_rows = entities.data[heads]
            v = e_rows.mean(axis=0)
            c = v @ block.w_central.data
            feats = e_rows @ block.w_features.data
            s = feats @ c
            logits = s @ block.w_expand.data
            shifted = np.exp(logits - logits.max())
            q = shifted / shifted.sum()
            want = q @ entities.data
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_wrong_batch_size_rejected(self, tmp_path):
        store, entities, block, batch = _toy_setup(tmp_path)
        with pytest.raises(ShapeError):
            extract(np.array([0, 1, 2]), entities, block)

    def test_gradients_match_finite_differences(self, tmp_path):
        store, entities, block, batch = _toy_setup(tmp_path)
        w = stream(9, "w").normal(0, 1, 4)
        assert_gradients_match(
            lambda: tensor_sum(extract(batch.heads, entities, block) * w),
            [entities, block.w_central, block.w_features, block.w_expand],
        )


class TestWholeSimilarities:
    """The whole similarities q = softmax(s W_expand) inside extract: W_expand
    has one row per batch slot, so the similarity vector s must match it."""

    def test_batch_size_mismatch(self, tmp_path):
        store, entities, block, batch = _toy_setup(tmp_path, bs=3)
        with pytest.raises(ShapeError):
            extract(batch.heads[:2], entities, block)


class TestDistillLoss:
    def test_identical_vectors_give_zero(self):
        v = np.array([0.3, -0.7, 1.1])
        assert float(distill_loss(Tensor(v), v, 2.0).data) == 0.0

    def test_hand_value(self):
        # p_s = [2/3, 1/3], p_t = [1/2, 1/2], loss = (1/2) KL(p_s || p_t)
        loss = distill_loss(Tensor([np.log(2.0), 0.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(float(loss.data), 0.028316506132567876, rtol=1e-12)

    def test_teacher_gets_no_gradient(self):
        student = Parameter([0.4, -0.2, 0.9])
        teacher = Parameter([0.1, 0.3, -0.5])
        loss = distill_loss(student, teacher, 3.0)
        backward(loss)
        np.testing.assert_array_equal(dense_grad(teacher), np.zeros(3))
        assert np.any(dense_grad(student) != 0)

    def test_nonnegative_and_zero_iff_matching(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            s = rng.normal(0, 1, d)
            t = rng.normal(0, 1, d)
            val = float(distill_loss(Tensor(s), t, float(10 ** rng.uniform(-1, 5))).data)
            assert val >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            distill_loss(Tensor([1.0, 2.0]), np.zeros(3), 1.0)

    def test_distributions_without_common_mass_give_a_finite_loss(self):
        # q puts e^-800 on the entry that holds p's mass: KL = 800, loss = KL / 2.
        student = Parameter([0.0, 800.0])
        loss = distill_loss(student, np.array([0.0, -800.0]), 1.0)
        backward(loss)
        assert float(loss.data) == pytest.approx(400.0, rel=1e-15)
        assert np.all(np.isfinite(dense_grad(student)))

    def test_nonpositive_temperature_rejected(self):
        for temperature in (0.0, -2.0):
            with pytest.raises(ValueError):
                distill_loss(Tensor([1.0, 2.0]), np.zeros(2), temperature)

    def test_student_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        student = Parameter(rng.normal(0, 1, 5))
        teacher = rng.normal(0, 1, 5)
        for temperature in (1.0, 4.0):
            assert_gradients_match(
                lambda t=temperature: distill_loss(student, teacher, t), [student]
            )


def exact_distill_loss(s, t, temperature):
    """(T^2 / d) KL(p || q) and its gradient in s, at 60 digits."""
    with mpmath.workdps(60):
        T, d = mpmath.mpf(temperature), len(s)
        es = [mpmath.exp(mpmath.mpf(v) / T) for v in s.tolist()]
        et = [mpmath.exp(mpmath.mpf(v) / T) for v in t.tolist()]
        zs, zt = sum(es), sum(et)
        p = [e / zs for e in es]
        q = [e / zt for e in et]
        w = [mpmath.log(pi / qi) for pi, qi in zip(p, q)]
        kl = sum(pi * wi for pi, wi in zip(p, w))
        grad = [T / d * pi * (wi - kl) for pi, wi in zip(p, w)]
        return float(T * T / d * kl), np.array([float(g) for g in grad])


class TestDistillLossAgainstMpmath:
    """Student = teacher + gap * noise: the loss keeps its relative precision
    however close the two softened distributions are."""

    @pytest.mark.parametrize("d", [50, 200])
    @pytest.mark.parametrize("temperature", [1e-2, 1.0, 10.0, 1e3, 1e5])
    def test_value(self, d, temperature):
        rng = np.random.default_rng(d)
        for gap in (1.0, 1e-2, 1e-4, 1e-6):
            t = rng.normal(0, 1, d)
            s = t + gap * rng.normal(0, 1, d)
            want, _ = exact_distill_loss(s, t, temperature)
            assert abs(float(distill_loss(Tensor(s), t, temperature).data) - want) <= 1e-12 * want

    @pytest.mark.parametrize("temperature", [1.0, 10.0, 1e3, 1e5])
    def test_gradient(self, temperature):
        rng = np.random.default_rng(7)
        for d in (50, 200):
            for gap in (1.0, 1e-2, 1e-4, 1e-6):
                t = rng.normal(0, 1, d)
                student = Parameter(t + gap * rng.normal(0, 1, d))
                backward(distill_loss(student, t, temperature))
                _, want = exact_distill_loss(student.data, t, temperature)
                assert np.abs(dense_grad(student) - want).max() <= 1e-12 * np.abs(want).max()

    def test_large_temperature_limit(self):
        # As T grows the loss tends to sum((x - mean(x))^2) / (2 d^2), x = s - t.
        # Its distance to that limit is of relative order max|x| / T, about
        # 3e-9 here, so the 1e-8 bound checks rounding, not the expansion.
        rng = np.random.default_rng(11)
        for d in (8, 200):
            t = rng.normal(0, 1, d)
            x = 0.1 * rng.normal(0, 1, d)
            limit = np.sum((x - x.mean()) ** 2) / (2 * d * d)
            value = float(distill_loss(Tensor(t + x), t, 1e8).data)
            assert abs(value - limit) <= 1e-8 * limit


class TestBetaSchedule:
    def test_endpoints(self):
        assert beta_at_epoch(0, 1500, 1.0) == 1.0
        assert beta_at_epoch(1500, 1500, 1.0) == 0.0

    def test_midpoint(self):
        assert beta_at_epoch(750, 1500, 1.0) == 0.5

    def test_monotone_nonincreasing(self):
        values = [beta_at_epoch(ep, 100, 0.8) for ep in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == 0.8 and values[-1] == 0.0

    def test_out_of_range_epoch(self):
        with pytest.raises(ValueError):
            beta_at_epoch(11, 10, 1.0)
        with pytest.raises(ValueError):
            beta_at_epoch(-1, 10, 1.0)

    def test_empty_schedule(self):
        with pytest.raises(ValueError, match="total_epochs must be >= 1"):
            beta_at_epoch(0, 0, 1.0)


class TestTotalLoss:
    def test_beta_zero_returns_task_loss_object(self):
        bce = Tensor(4.0)
        assert total_loss(bce, Tensor(8.0), 0.0) is bce

    def test_beta_one_returns_distill_loss_object(self):
        kl = Tensor(8.0)
        assert total_loss(Tensor(4.0), kl, 1.0) is kl

    def test_convex_combination(self):
        out = total_loss(Tensor(4.0), Tensor(8.0), 0.25)
        assert float(out.data) == 5.0

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            total_loss(Tensor(1.0), Tensor(1.0), 1.5)


class TestTeacherCache:
    def test_starts_absent(self):
        assert not TeacherCache().present

    def test_refresh_copies(self):
        cache = TeacherCache()
        src = np.array([1.0, 2.0])
        cache.refresh(src)
        src[0] = 99.0
        np.testing.assert_array_equal(cache.vector, [1.0, 2.0])
