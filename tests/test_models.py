"""Scoring functions: hand values, reduction identities, gradients, the
op chains the nodes replaced, counts."""

import tracemalloc

import numpy as np
import pytest
from chains import batchnorm_chain, complex_chain, lowfer_chain, tensor_sum, tucker_chain
from conftest import assert_gradients_match, dense_grad

from kgedistill.autodiff import Parameter, Tensor, backward, matmul, mul, transpose
from kgedistill.config import ModelConfig
from kgedistill.errors import ConfigError, ShapeError
from kgedistill.kernels import BatchNorm
from kgedistill.models import (
    EmbeddingModel,
    complex_interaction,
    count_parameters,
    distmult_interaction,
    lowfer_interaction,
    tucker_interaction,
)
from kgedistill.rng import stream


class TestDistmult:
    def test_zero_embeddings_give_zero_logits(self):
        z = Tensor(np.zeros((2, 3)))
        out = matmul(distmult_interaction(z, z), transpose(Tensor(np.ones((5, 3)))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_hand_value(self):
        out = matmul(
            distmult_interaction(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])),
            transpose(Tensor([[5.0, 6.0]])),
        )
        assert out.data[0, 0] == 63.0

    def test_head_tail_symmetry_exact_on_integer_grids(self):
        # Integer-valued embeddings keep float64 arithmetic exact, so the
        # symmetry holds bit-for-bit regardless of product association.
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, r, t = (Tensor([rng.integers(-9, 10, 4).astype(float)]) for _ in range(3))
            a = matmul(distmult_interaction(h, r), transpose(t)).data[0, 0]
            b = matmul(distmult_interaction(t, r), transpose(h)).data[0, 0]
            assert a == b

    def test_head_tail_symmetry_on_continuous_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, r, t = (Tensor([rng.normal(0, 1, 4)]) for _ in range(3))
            a = matmul(distmult_interaction(h, r), transpose(t)).data[0, 0]
            b = matmul(distmult_interaction(t, r), transpose(h)).data[0, 0]
            np.testing.assert_allclose(a, b, rtol=1e-12)


class TestComplex:
    def test_real_embeddings_reduce_to_distmult(self):
        rng = np.random.default_rng(1)
        h_re, r_re = rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (2, 3))
        e_re = rng.normal(0, 1, (5, 3))
        zeros2, zeros5 = np.zeros((2, 3)), np.zeros((5, 3))
        h, r = Tensor(np.hstack([h_re, zeros2])), Tensor(np.hstack([r_re, zeros2]))
        full = matmul(complex_interaction(h, r), transpose(Tensor(np.hstack([e_re, zeros5])))).data
        real_only = matmul(
            distmult_interaction(Tensor(h_re), Tensor(r_re)), transpose(Tensor(e_re))
        ).data
        assert np.abs(full - real_only).max() <= 1e-12

    def test_one_unit_hand_value(self):
        # h = 1, r = i, t = i -> Re(1 * i * conj(i)) = 1
        out = matmul(
            complex_interaction(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])),
            transpose(Tensor([[0.0, 1.0]])),
        )
        assert out.data[0, 0] == 1.0

    def test_pure_imaginary_relation_is_antisymmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = 3
            h = Tensor([rng.normal(0, 1, 2 * d)])
            t = Tensor([rng.normal(0, 1, 2 * d)])
            r = Tensor([np.concatenate([np.zeros(d), rng.normal(0, 1, d)])])
            ht = matmul(complex_interaction(h, r), transpose(t)).data[0, 0]
            th = matmul(complex_interaction(t, r), transpose(h)).data[0, 0]
            np.testing.assert_allclose(ht, -th, atol=1e-12)

    def test_odd_dimension_rejected(self):
        odd = Tensor([[1.0, 2.0, 3.0]])
        with pytest.raises((ShapeError, ConfigError)):
            matmul(complex_interaction(odd, odd), transpose(odd))


class TestTucker:
    def test_zero_core_gives_zero(self):
        out = matmul(
            tucker_interaction(
                Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.zeros((3, 4, 3)))
            ),
            transpose(Tensor(np.ones((5, 3)))),
        )
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_identity_core_reduces_to_distmult(self):
        rng = np.random.default_rng(3)
        d = 4
        core = np.zeros((d, d, d))
        for i in range(d):
            core[i, i, i] = 1.0
        h, r = rng.normal(0, 1, (2, d)), rng.normal(0, 1, (2, d))
        e = rng.normal(0, 1, (6, d))
        h, r, e = Tensor(h), Tensor(r), Tensor(e)
        tucker = matmul(tucker_interaction(h, r, Tensor(core)), transpose(e)).data
        dist = matmul(distmult_interaction(h, r), transpose(e)).data
        assert np.abs(tucker - dist).max() <= 1e-12

    def test_scalar_hand_value(self):
        out = matmul(
            tucker_interaction(Tensor([[3.0]]), Tensor([[5.0]]), Tensor([[[2.0]]])),
            transpose(Tensor([[7.0]])),
        )
        assert out.data[0, 0] == 210.0

    @pytest.mark.parametrize("build", [tucker_interaction, tucker_chain], ids=["node", "chain"])
    def test_step_peaks_below_one_relation_map(self, build):
        """One forward and backward at d_e = d_r = 64 and a batch of 1,024
        against one (batch, d_e, d_out) map of the chain: the node stays
        below it and the chain, the control, goes above."""
        rng = np.random.default_rng(21)
        h, r = (Parameter(rng.normal(0, 1, (1024, 64))) for _ in range(2))
        core = Parameter(rng.uniform(-0.1, 0.1, (64, 64, 64)))
        weights = Tensor(rng.normal(0, 1, (1024, 64)))
        relation_map = 1024 * 64 * 64 * 8
        tracemalloc.start()
        try:
            backward(tensor_sum(mul(build(h, r, core), weights)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak < relation_map) == (build is tucker_interaction), peak / relation_map


class TestLowfer:
    def test_zero_factor_gives_zero(self):
        out = matmul(
            lowfer_interaction(
                Tensor(np.ones((2, 3))),
                Tensor(np.ones((2, 3))),
                Tensor(np.zeros((3, 6))),
                Tensor(np.ones((3, 6))),
                2,
            ),
            transpose(Tensor(np.ones((4, 3)))),
        )
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_identity_factors_reduce_to_distmult(self):
        rng = np.random.default_rng(4)
        d = 4
        eye = np.eye(d)
        h, r = rng.normal(0, 1, (2, d)), rng.normal(0, 1, (2, d))
        e = rng.normal(0, 1, (6, d))
        h, r, e = Tensor(h), Tensor(r), Tensor(e)
        low = matmul(lowfer_interaction(h, r, Tensor(eye), Tensor(eye), 1), transpose(e)).data
        dist = matmul(distmult_interaction(h, r), transpose(e)).data
        assert np.abs(low - dist).max() <= 1e-12

    def test_hand_value_with_rank_two(self):
        # g = [6, 12], z = 18, u = 18 * 5 = 90
        out = matmul(
            lowfer_interaction(
                Tensor([[2.0]]), Tensor([[3.0]]), Tensor([[1.0, 1.0]]), Tensor([[1.0, 2.0]]), 2
            ),
            transpose(Tensor([[5.0]])),
        )
        assert out.data[0, 0] == 90.0


class TestScoreGradients:
    """Analytic gradients of every score op vs. central finite differences."""

    def test_distmult(self):
        rng = np.random.default_rng(5)
        h = Parameter(rng.normal(0, 1, (3, 4)))
        r = Parameter(rng.normal(0, 1, (3, 4)))
        e = Parameter(rng.normal(0, 1, (6, 4)))
        w = rng.normal(0, 1, (3, 6))
        assert_gradients_match(
            lambda: tensor_sum(matmul(distmult_interaction(h, r), transpose(e)) * w), [h, r, e]
        )

    def test_complex(self):
        rng = np.random.default_rng(6)
        h = Parameter(rng.normal(0, 1, (2, 6)))
        r = Parameter(rng.normal(0, 1, (2, 6)))
        e = Parameter(rng.normal(0, 1, (5, 6)))
        w = rng.normal(0, 1, (2, 5))
        assert_gradients_match(
            lambda: tensor_sum(matmul(complex_interaction(h, r), transpose(e)) * w), [h, r, e]
        )

    def test_tucker(self):
        rng = np.random.default_rng(7)
        h = Parameter(rng.normal(0, 1, (2, 3)))
        r = Parameter(rng.normal(0, 1, (2, 4)))
        core = Parameter(rng.normal(0, 1, (3, 4, 3)))
        e = Parameter(rng.normal(0, 1, (5, 3)))
        w = rng.normal(0, 1, (2, 5))
        assert_gradients_match(
            lambda: tensor_sum(matmul(tucker_interaction(h, r, core), transpose(e)) * w),
            [h, r, core, e],
        )

    def test_lowfer(self):
        rng = np.random.default_rng(8)
        h = Parameter(rng.normal(0, 1, (2, 3)))
        r = Parameter(rng.normal(0, 1, (2, 4)))
        u = Parameter(rng.normal(0, 1, (3, 6)))
        v = Parameter(rng.normal(0, 1, (4, 6)))
        e = Parameter(rng.normal(0, 1, (5, 3)))
        w = rng.normal(0, 1, (2, 5))
        assert_gradients_match(
            lambda: tensor_sum(matmul(lowfer_interaction(h, r, u, v, 2), transpose(e)) * w),
            [h, r, u, v, e],
        )


def _node_and_chain(case: str, rng):
    """(inputs, node, chain): ``node`` and ``chain`` map parameters holding
    ``inputs`` to their output and the arrays the call updates in place."""
    if case == "complex":
        inputs = [rng.normal(0, 1, (64, 16)) for _ in range(2)]
        return inputs, lambda *p: (complex_interaction(*p), []), lambda *p: (complex_chain(*p), [])
    if case == "tucker":
        inputs = [rng.normal(0, 1, (512, 200)), rng.normal(0, 1, (512, 200)),
                  rng.uniform(-0.1, 0.1, (200, 200, 200))]
        return inputs, lambda *p: (tucker_interaction(*p), []), lambda *p: (tucker_chain(*p), [])
    if case == "lowfer":
        inputs = [rng.normal(0, 1, (64, 6)), rng.normal(0, 1, (64, 5)),
                  rng.normal(0, 1, (6, 18)), rng.normal(0, 1, (5, 18))]
        return (inputs, lambda *p: (lowfer_interaction(*p, 3), []),
                lambda *p: (lowfer_chain(*p, 3), []))
    training = case == "batchnorm-training"
    stats = [rng.normal(0, 1, 7), rng.random(7) + 0.5]
    inputs = [rng.normal(0, 2, (33, 7)), rng.random(7) + 0.5, rng.normal(0, 1, 7)]

    def layer(forward):
        def run(x, scale, shift):
            bn = BatchNorm(7)
            bn.scale, bn.shift = scale, shift
            bn.running_mean.data[:], bn.running_var.data[:] = stats
            return forward(bn, x), [bn.running_mean.data, bn.running_var.data]
        return run

    return (inputs, layer(lambda bn, x: bn(x, training)),
            layer(lambda bn, x: batchnorm_chain(bn, x, training)))


@pytest.mark.parametrize(
    "case", ["complex", "tucker", "lowfer", "batchnorm-training", "batchnorm-inference"]
)
def test_node_matches_its_op_chain(case):
    """Each node against the chain of generic ops it replaced, on the value,
    every gradient and batchnorm's running stats. TuckER sums in another
    order and agrees to 1e-12 of each array's largest entry; the others
    give the chain's bits."""
    inputs, build_node, build_chain = _node_and_chain(case, np.random.default_rng(17))
    results = []
    for build in (build_node, build_chain):
        params = [Parameter(a.copy()) for a in inputs]
        out, updated = build(*params)
        weights = Tensor(np.linspace(-1.0, 2.0, out.data.size).reshape(out.shape))
        backward(tensor_sum(mul(out, weights)))
        results.append([out.data, *(dense_grad(p) for p in params), *updated])
    for got, want in zip(*results):
        if case == "tucker":
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert got.tobytes() == want.tobytes()


class TestForwardPipeline:
    def _model(self, kind="distmult", **kwargs):
        defaults = dict(
            kind=kind,
            d_e=6,
            dropout1=0.0,
            dropout2=0.0,
            dropout3=0.0,
            batchnorm=False,
        )
        defaults.update(kwargs)
        config = ModelConfig(**defaults)
        return EmbeddingModel(config, n_entities=8, n_relations=4, rng=stream(11, "init"))

    def test_inference_is_deterministic_without_rng(self):
        model = self._model()
        heads, rels = np.array([0, 1]), np.array([0, 1])
        a = model.forward(heads, rels, training=False).data
        b = model.forward(heads, rels, training=False).data
        assert a.tobytes() == b.tobytes()

    def test_no_regularization_equals_bare_score(self):
        for kind in ("distmult", "complex", "tucker", "lowfer"):
            model = self._model(kind=kind, k_l=2)
            heads, rels = np.array([0, 3, 5]), np.array([1, 0, 2])
            got = model.forward(heads, rels, training=False).data
            h = Tensor(model.entity_embeddings.data[heads])
            r = Tensor(model.relation_embeddings.data[rels])
            e = Tensor(model.entity_embeddings.data)
            if kind == "distmult":
                want = matmul(distmult_interaction(h, r), transpose(e)).data
            elif kind == "complex":
                want = matmul(complex_interaction(h, r), transpose(e)).data
            elif kind == "tucker":
                want = matmul(tucker_interaction(h, r, Tensor(model.core.data)), transpose(e)).data
            else:
                u, v = Tensor(model.u_factor.data), Tensor(model.v_factor.data)
                want = matmul(lowfer_interaction(h, r, u, v, 2), transpose(e)).data
            np.testing.assert_array_equal(got, want)

    def test_training_forward_reproducible_with_seed(self):
        model = self._model(dropout1=0.3, dropout2=0.2, dropout3=0.3)
        heads, rels = np.array([0, 1, 2]), np.array([0, 1, 2])
        a = model.forward(heads, rels, training=True, rng=stream(7, "drop")).data
        b = model.forward(heads, rels, training=True, rng=stream(7, "drop")).data
        assert a.tobytes() == b.tobytes()

    def test_batchnorm_pipeline_trains_and_infers(self):
        model = self._model(kind="tucker", batchnorm=True, d_r=3)
        heads, rels = np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3])
        out_train = model.forward(heads, rels, training=True, rng=stream(1, "d")).data
        out_eval = model.forward(heads, rels, training=False).data
        assert np.isfinite(out_train).all() and np.isfinite(out_eval).all()
        assert (model.bn_input.running_mean.data != 0).any()


class TestCountParameters:
    def test_distmult_closed_form(self):
        config = ModelConfig(kind="distmult", d_e=100, batchnorm=False)
        assert count_parameters(config, 40943, 22) == (40943 + 22) * 100

    def test_tucker_core_adds_product(self):
        base = ModelConfig(kind="distmult", d_e=100, d_r=100, batchnorm=False)
        tucker = ModelConfig(kind="tucker", d_e=100, d_r=30, batchnorm=False)
        plain = count_parameters(base, 100, 10)
        with_core = count_parameters(tucker, 100, 10)
        relation_delta = 10 * 30 - 10 * 100
        assert with_core - plain == 100 * 30 * 100 + relation_delta

    def test_isd_block_scalars(self):
        config = ModelConfig(kind="distmult", d_e=100, batchnorm=False)
        plain = count_parameters(config, 40943, 22)
        with_block = count_parameters(config, 40943, 22, isd_k_b=100, isd_batch_size=512)
        assert with_block - plain == 2 * (100 * 100) + 512 * 40943

    def test_matches_allocated_parameters(self):
        for kind in ("distmult", "complex", "tucker", "lowfer"):
            config = ModelConfig(kind=kind, d_e=8, d_r=4 if kind in ("tucker", "lowfer") else None, k_l=3)
            model = EmbeddingModel(config, n_entities=9, n_relations=6, rng=stream(0, "i"))
            allocated = sum(t.data.size for t in model.state().values() if t.requires_grad)
            assert count_parameters(config, 9, 6) == allocated

    def test_monotone_in_dimension(self):
        counts = [
            count_parameters(ModelConfig(kind="distmult", d_e=d, batchnorm=False), 40943, 22)
            for d in range(100, 251, 25)
        ]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)


class TestModelConfigValidation:
    def test_complex_needs_even_dimension(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="complex", d_e=5)

    def test_distmult_needs_matching_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="distmult", d_e=4, d_r=3)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="transe")

    def test_batchnorm_defaults_per_kind(self):
        assert not ModelConfig(kind="distmult").use_batchnorm
        assert not ModelConfig(kind="complex").use_batchnorm
        assert ModelConfig(kind="tucker").use_batchnorm
        assert ModelConfig(kind="lowfer").use_batchnorm
