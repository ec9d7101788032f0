"""Tensor engine, dropout, batchnorm, and rng streams."""

import json

import numpy as np
import pytest
from chains import tensor_sum
from conftest import assert_gradients_match

from kgedistill.autodiff import (
    Parameter,
    Tensor,
    backward,
    gather_rows,
    matmul,
    no_grad,
    transpose,
)
from kgedistill.errors import ShapeError
from kgedistill.kernels import BatchNorm, dropout
from kgedistill.rng import stream


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_value(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_zero_left(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_bit_identical_across_runs(self):
        def run():
            rng = stream(99)
            a = rng.normal(0, 1, (17, 9))
            b = rng.normal(0, 1, (9, 23))
            return matmul(Tensor(a), Tensor(b)).data

        first, second = run(), run()
        assert first.tobytes() == second.tobytes()


class TestBackward:
    def test_sum_of_squares(self):
        x = Parameter([1.0, 2.0])
        backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_unused_parameter_gets_exact_zero(self):
        x = Parameter([1.0, 2.0])
        unused = Parameter([5.0])
        backward(tensor_sum(x * x))
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_non_scalar_rejected(self):
        x = Parameter([1.0, 2.0])
        with pytest.raises(ValueError):
            backward(x * x)

    def test_matmul_chain_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = Parameter(rng.normal(0, 1, (3, 3)))
        b = Parameter(rng.normal(0, 1, (3, 3)))
        c = Parameter(rng.normal(0, 1, (3, 3)))
        assert_gradients_match(
            lambda: tensor_sum(matmul(matmul(a, b), c)), [a, b, c], tol=1e-6
        )

    def test_gradient_accumulates_until_zeroed(self):
        x = Parameter([3.0])
        backward(tensor_sum(x * x))
        backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, [12.0])
        x.grad[...] = 0.0
        backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_no_grad_suppresses_graph(self):
        x = Parameter([1.0, 2.0])
        with no_grad():
            y = tensor_sum(x * x)
        assert not y.requires_grad
        assert y._parents == ()


class TestPrimitiveGradients:
    """Every differentiable primitive against central finite differences."""

    def test_elementwise_and_broadcasting(self):
        rng = np.random.default_rng(6)
        a = Parameter(rng.normal(0, 1, (4, 5)))
        b = Parameter(rng.normal(0, 1, (5,)))
        cases = [
            lambda: tensor_sum(a + b),
            lambda: tensor_sum(a * b),
            lambda: tensor_sum(a * -2.0 + 1.0),
        ]
        for fn in cases:
            assert_gradients_match(fn, [a, b])

    def test_matmul(self):
        rng = np.random.default_rng(8)
        a = Parameter(rng.normal(0, 1, (3, 4)))
        b = Parameter(rng.normal(0, 1, (4, 2)))
        assert_gradients_match(lambda: tensor_sum(matmul(a, b)), [a, b])

    def test_transpose(self):
        rng = np.random.default_rng(9)
        x = Parameter(rng.normal(0, 1, (2, 6)))
        w = rng.normal(0, 1, (2, 6))
        assert_gradients_match(lambda: tensor_sum(transpose(x) * w.T), [x])

    def test_gather_rows_scatter_adds(self):
        table = Parameter(np.arange(8.0).reshape(4, 2))
        ids = np.array([1, 1, 3])
        out = gather_rows(table, ids)
        np.testing.assert_array_equal(out.data, [[2, 3], [2, 3], [6, 7]])
        backward(tensor_sum(out))
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

        def loss():
            rows = gather_rows(table, ids)
            return tensor_sum(rows * rows)

        assert_gradients_match(loss, [table])
        # The gradient is scatter-added into the table's grad, so the table
        # must be a leaf.
        with pytest.raises(ShapeError):
            gather_rows(table * 1.0, ids)

    def test_shared_node_used_twice(self):
        x = Parameter([2.0])
        backward(tensor_sum(x * x + x * 3.0))
        np.testing.assert_allclose(x.grad, [7.0])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        out = dropout(x, 0.0, stream(0), training=True)
        assert out is x

    def test_inference_is_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        out = dropout(x, 0.9, None, training=False)
        assert out is x

    def test_survivor_scaling_keeps_mean(self):
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, stream(123, "drop"), training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_only_zero_or_scaled_values(self):
        x = Tensor(np.ones(1000))
        out = dropout(x, 0.25, stream(5), training=True)
        survivors = out.data[out.data != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones(64))
        a = dropout(x, 0.5, stream(9, "d"), training=True).data
        b = dropout(x, 0.5, stream(9, "d"), training=True).data
        assert a.tobytes() == b.tobytes()

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, stream(0), training=True)
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), -0.1, stream(0), training=True)

    def test_training_mode_needs_an_rng(self):
        with pytest.raises(ValueError, match="needs an rng stream"):
            dropout(Tensor([1.0]), 0.5, None, training=True)

    def test_gradient_with_frozen_mask(self):
        x = Parameter(np.linspace(-1, 1, 12))

        def loss():
            # Recreating the stream freezes the mask across FD evaluations.
            dropped = dropout(x, 0.5, stream(7, "mask"), training=True)
            return tensor_sum(dropped * dropped)

        assert_gradients_match(loss, [x])


class TestBatchNorm:
    def test_constant_column_maps_to_zero(self):
        bn = BatchNorm(2)
        x = Tensor(np.full((4, 2), 3.5))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_row_column_normalizes_to_unit_values(self):
        bn = BatchNorm(1)
        out = bn(Tensor([[0.0], [2.0]]), training=True)
        # eps=1e-5 pulls the values about 5e-6 inside [-1, 1].
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)

    def test_inference_with_unit_stats_is_identity(self):
        bn = BatchNorm(3)
        x = Tensor(np.array([[0.3, -1.2, 0.9], [0.5, 0.1, -0.4]]))
        out = bn(x, training=False)
        np.testing.assert_allclose(out.data, x.data, atol=1e-5)

    def test_running_stats_momentum(self):
        bn = BatchNorm(1)
        bn(Tensor([[0.0], [2.0]]), training=True)
        np.testing.assert_allclose(bn.running_mean.data, [0.1])  # 0.9*0 + 0.1*1
        np.testing.assert_allclose(bn.running_var.data, [0.9 * 1.0 + 0.1 * 1.0])

    def test_gradients_through_training_mode(self):
        rng = np.random.default_rng(11)
        x = Parameter(rng.normal(0, 2, (5, 3)))
        bn = BatchNorm(3)
        bn.scale.data[:] = rng.random(3) + 0.5
        bn.shift.data[:] = rng.normal(0, 1, 3)
        w = rng.normal(0, 1, (5, 3))
        assert_gradients_match(
            lambda: tensor_sum(bn(x, training=True) * w),
            [x, bn.scale, bn.shift],
        )

    def test_gradients_through_inference_mode(self):
        rng = np.random.default_rng(12)
        x = Parameter(rng.normal(0, 2, (5, 3)))
        bn = BatchNorm(3)
        bn.scale.data[:] = rng.random(3) + 0.5
        bn.shift.data[:] = rng.normal(0, 1, 3)
        bn.running_mean.data[:] = rng.normal(0, 1, 3)
        bn.running_var.data[:] = rng.random(3) + 0.5
        w = rng.normal(0, 1, (5, 3))
        assert_gradients_match(
            lambda: tensor_sum(bn(x, training=False) * w),
            [x, bn.scale, bn.shift],
        )

    def test_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            BatchNorm(3)(Tensor(np.zeros((2, 4))), training=True)


class TestRngState:
    def test_same_seed_same_sequence(self):
        a = stream(42).normal(0, 1, 16)
        b = stream(42).normal(0, 1, 16)
        assert a.tobytes() == b.tobytes()

    def test_labels_give_independent_streams(self):
        d1 = stream(42, "shuffle").normal(0, 1, 8)
        d2 = stream(42, "dropout").normal(0, 1, 8)
        assert d1.tobytes() != d2.tobytes()

    def test_state_roundtrip_resumes_stream(self):
        rng = stream(3, "s")
        rng.normal(0, 1, 5)
        saved = json.dumps(rng.bit_generator.state)
        expected = rng.normal(0, 1, 5)
        fresh = stream(3, "s")
        fresh.bit_generator.state = json.loads(saved)
        np.testing.assert_array_equal(fresh.normal(0, 1, 5), expected)

    def test_permutation_deterministic(self):
        assert stream(1).permutation(10).tolist() == stream(1).permutation(10).tolist()
