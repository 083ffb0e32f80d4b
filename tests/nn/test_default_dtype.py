"""The configurable default dtype and float32 training mode."""

import numpy as np
import pytest

from repro.core import TwoTowerModel, TwoTowerTrainer
from repro.data import train_test_split
from repro.nn import (
    Tensor,
    default_dtype,
    get_default_dtype,
    init,
    set_default_dtype,
)
from repro.nn.tensor import (
    concat,
    embedding_lookup,
    fused_cross,
    fused_embedding_bag,
    fused_mlp,
    stack,
)
from repro.nn.layers.embedding import EmbeddingBag
from repro.nn.layers.linear import Linear
from repro.nn.losses import (
    binary_cross_entropy,
    binary_cross_entropy_with_logits,
    mean_squared_error,
)
from repro.nn.module import Module, Parameter


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


class TestDefaultDtypeSwitch:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_set_and_restore(self):
        previous = set_default_dtype(np.float32)
        assert previous == np.float64
        assert Tensor([1.0]).data.dtype == np.float32
        set_default_dtype(previous)
        assert Tensor([1.0]).data.dtype == np.float64

    def test_context_manager(self):
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_initializers_follow_default(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            assert init.normal(rng, (3, 2)).dtype == np.float32
            assert init.zeros((3,)).dtype == np.float32
            assert init.ones((3,)).dtype == np.float32
        assert init.xavier_uniform(rng, (3, 2)).dtype == np.float64

    def test_initializer_explicit_dtype_wins(self):
        rng = np.random.default_rng(0)
        assert init.he_normal(rng, (2, 2), dtype=np.float32).dtype == np.float32

    def test_initializer_draws_match_across_dtypes(self):
        high = init.normal(np.random.default_rng(7), (4, 3))
        low = init.normal(np.random.default_rng(7), (4, 3), dtype=np.float32)
        np.testing.assert_allclose(low, high, rtol=1e-6)


class TestFloat32Compute:
    def test_forward_backward_preserve_dtype(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            layer = Linear(4, 3, rng=rng)
            x = Tensor(rng.normal(size=(5, 4)))
            assert x.data.dtype == np.float32
            out = layer(x).relu()
            assert out.data.dtype == np.float32
            out.sum().backward()
        assert layer.weight.grad.dtype == np.float32

    def test_losses_follow_prediction_dtype(self):
        with default_dtype(np.float32):
            predictions = Tensor(np.full(8, 0.3))
            loss = binary_cross_entropy(predictions, np.zeros(8))
            assert loss.data.dtype == np.float32
            mse = mean_squared_error(Tensor(np.ones(4)), np.zeros(4))
            assert mse.data.dtype == np.float32

    def test_bce_extreme_probabilities_stay_finite(self):
        """float32 clip must be wide enough that log(1-p) never hits -inf."""
        with default_dtype(np.float32):
            predictions = Tensor(np.array([1.0, 0.0, 1.0 - 1e-9]))
            loss = binary_cross_entropy(predictions, np.array([0.0, 1.0, 0.0]))
            assert np.isfinite(loss.item())
            loss.backward()

    def test_embedding_bag_mask_follows_weight_dtype(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            bag = EmbeddingBag(6, 3, rng=rng)
            out = bag(np.array([[0, 1]]), np.array([[1, 1]]))
            assert out.data.dtype == np.float32


def _f32(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float32)


class TestOpOutputsKeepDtype:
    """Under the float64 default, float32 operands compute in float32."""

    def test_explicit_leaf_dtype_and_python_data_default(self):
        assert Tensor([1.0, 2.0], dtype=np.float32).dtype == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float64

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / (b * b + 1.0),
            lambda a, b: -a,
            lambda a, b: a ** 2,
            lambda a, b: a @ b.T,
            lambda a, b: a.T,
            lambda a, b: a.reshape(-1),
            lambda a, b: a[1:, :2],
            lambda a, b: a.exp(),
            lambda a, b: (a * a + 1.0).log(),
            lambda a, b: (a * a + 1.0).sqrt(),
            lambda a, b: a.tanh(),
            lambda a, b: a.sigmoid(),
            lambda a, b: a.relu(),
            lambda a, b: a.leaky_relu(0.1),
            lambda a, b: a.clip(-0.5, 0.5),
            lambda a, b: a.abs(),
            lambda a, b: a.sum(),
            lambda a, b: a.sum(axis=0),
            lambda a, b: a.mean(),
            lambda a, b: a.mean(axis=1, keepdims=True),
            lambda a, b: a.max(axis=1),
            lambda a, b: concat([a, b], axis=1),
            lambda a, b: stack([a, b], axis=0),
        ],
    )
    def test_op_output_and_grads_stay_float32(self, op):
        rng = np.random.default_rng(0)
        a, b = _f32(rng, 3, 4), _f32(rng, 3, 4)
        out = op(a, b)
        assert out.dtype == np.float32
        out.sum().backward()
        for leaf in (a, b):
            if leaf.grad is not None:
                assert leaf.grad.dtype == np.float32

    def test_plain_operands_follow_the_tensor(self):
        a = Tensor(np.ones(3), dtype=np.float32)
        for out in (
            a * 0.5,
            0.5 * a,
            a + 1,
            1 - a,
            a / 2.0,
            2.0 / a,
            a - np.ones(3),  # a float64 array operand
            a.reshape(1, 3) @ np.ones((3, 2)),
        ):
            assert out.dtype == np.float32

    def test_fused_kernels_stay_float32(self):
        rng = np.random.default_rng(1)
        x = _f32(rng, 5, 4)
        cross = fused_cross(x, x, _f32(rng, 4, 1), _f32(rng, 4))
        mlp = fused_mlp(x, [(_f32(rng, 4, 3), _f32(rng, 3), True), (_f32(rng, 3, 2), None, False)])
        tables = [_f32(rng, 7, 2), _f32(rng, 9, 3)]
        ids = [np.array([0, 1, 2, 3, 6]), np.array([8, 0, 1, 1, 2])]
        bag = fused_embedding_bag(tables, ids)
        lookup = embedding_lookup(tables[0], ids[0])
        bce = binary_cross_entropy_with_logits(mlp.reshape(-1), np.ones(10))
        for out in (cross, mlp, bag, lookup, bce):
            assert out.dtype == np.float32
        (cross.sum() + mlp.sum() + bag.sum() + lookup.sum() + bce).backward()
        assert x.grad.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in tables)

    def test_float32_inference_matches_the_float32_default(self):
        rng = np.random.default_rng(2)
        with default_dtype(np.float32):
            layer = Linear(4, 3, rng=rng)
            x = rng.normal(size=(6, 4))
            expected = layer(Tensor(x)).sigmoid().data
        got = layer(Tensor(x, dtype=np.float32)).sigmoid().data
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expected)


class TestModuleToDtype:
    def test_casts_parameters_and_clears_grads(self):
        rng = np.random.default_rng(0)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 2, rng=rng)
                self.scale = Parameter(np.ones(2))

        net = Net()
        net.layer.weight.grad = np.zeros_like(net.layer.weight.data)
        net.to_dtype(np.float32)
        for param in net.parameters():
            assert param.data.dtype == np.float32
            assert param.grad is None
        net.to_dtype(np.float64)
        assert net.scale.data.dtype == np.float64


class TestFloat32Trainer:
    def test_two_tower_float32_fit(self, tiny_tmall_world, tiny_tower_config):
        rng = np.random.default_rng(0)
        train, _ = train_test_split(tiny_tmall_world.interactions, 0.2, rng)
        train = train.subset(np.arange(1500))
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        trainer = TwoTowerTrainer(
            epochs=2, batch_size=256, lr=3e-3, dtype=np.float32
        )
        history = trainer.fit(model, train)
        assert history.series("loss")[-1] < history.series("loss")[0]
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        # The global default is restored once fit returns.
        assert get_default_dtype() == np.float64
