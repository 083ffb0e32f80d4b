"""The fused layer path against references composed from ``Tensor`` ops.

``MLP``, ``CrossLayer`` and ``FeatureEmbeddings`` run on the fused
kernels (``fused_mlp``, ``fused_cross``, ``fused_embedding_bag``), and
``binary_cross_entropy_with_logits`` on ``_fused_bce_logits``.  Each is
checked here, in float32 and float64, against the same computation
written out in this file as a chain of elementary ``Tensor`` ops, and by
numerical gradcheck.  Stacks the MLP kernel cannot express (sigmoid
output, dropout) must keep the per-layer loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import GradSanitizer
from repro.nn import (
    Tensor,
    check_gradients,
    concat,
    default_dtype,
    embedding_lookup,
    fused_embedding_bag,
    fused_mlp,
    use_sparse_grads,
)
from repro.nn.layers import (
    MLP,
    CrossNetwork,
    Dropout,
    FeatureEmbeddings,
    Identity,
    Linear,
    ReLU,
    Sigmoid,
)
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.sparse import SparseGrad

DTYPES = [np.float64, np.float32]  # repro-lint: disable=ATN002 -- parity matrix runs both precisions on purpose


def _tolerances(dtype):
    return (
        {"rtol": 1e-12, "atol": 1e-12}
        if np.dtype(dtype) == np.float64
        else {"rtol": 1e-5, "atol": 1e-6}
    )


def _dense(grad):
    return grad.to_dense() if isinstance(grad, SparseGrad) else np.asarray(grad)


def _grads(module):
    return [_dense(param.grad) for param in module.parameters()]


def _zero_grads(module):
    for param in module.parameters():
        param.zero_grad()


def _assert_parity(fused, reference, dtype):
    """Forward outputs bit for bit (each kernel runs the reference's
    arithmetic in the same order); gradients to a dtype tolerance."""
    fused_out, fused_grads = fused
    plain_out, plain_grads = reference
    np.testing.assert_array_equal(fused_out, plain_out)
    assert len(fused_grads) == len(plain_grads)
    for fused_grad, plain_grad in zip(fused_grads, plain_grads):
        np.testing.assert_allclose(fused_grad, plain_grad, **_tolerances(dtype))


# ----------------------------------------------------------------------
# Composed references
# ----------------------------------------------------------------------
def reference_mlp(mlp, x):
    """``mlp``'s stack, one elementary op at a time."""
    for layer in mlp.layers:
        if isinstance(layer, Linear):
            x = x @ layer.weight + layer.bias
        elif isinstance(layer, ReLU):
            x = x.relu()
        elif isinstance(layer, Sigmoid):
            x = x.sigmoid()
        elif isinstance(layer, Identity):
            pass
        elif isinstance(layer, Dropout):
            assert not layer.training, "reference covers eval-mode dropout only"
        else:
            raise AssertionError(f"no reference for {type(layer).__name__}")
    return x


def reference_cross_network(network, x):
    """``x_{l+1} = x0 * (x_l @ w_l) + b_l + x_l`` with ``x0 is x`` at layer 0."""
    x0 = x
    out = x
    for layer in network.layers:
        out = x0 * (out @ layer.weight) + layer.bias + out
    return out


def reference_bank(bank, features):
    """Per-table lookups followed by one concat."""
    parts = [
        embedding_lookup(bank.table(name).weight, np.asarray(features[name]))
        for name in bank.feature_names
    ]
    return parts[0] if len(parts) == 1 else concat(parts, axis=-1)


def _run(module, forward, x_data, upstream):
    """Forward ``x_data`` through ``forward``, backprop ``upstream``."""
    _zero_grads(module)
    x = Tensor(x_data.copy(), requires_grad=True)
    out = forward(x)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [x.grad] + _grads(module)


# ----------------------------------------------------------------------
# one Linear+ReLU layer: the smallest fused_mlp
# ----------------------------------------------------------------------
class TestLinearReluKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_unfused(self, rng, dtype):
        x_data = rng.standard_normal((6, 5)).astype(dtype)
        w_data = rng.standard_normal((5, 3)).astype(dtype)
        b_data = rng.standard_normal(3).astype(dtype)

        def run(fused):
            x = Tensor(x_data.copy(), requires_grad=True)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            if fused:
                out = fused_mlp(x, [(w, b, True)])
            else:
                out = (x @ w + b).relu()
            out.sum().backward()
            return out.data, [x.grad, w.grad, b.grad]

        _assert_parity(run(True), run(False), dtype)

    def test_numerical_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        check_gradients(lambda: fused_mlp(x, [(w, b, True)]).sum(), [x, w, b])


# ----------------------------------------------------------------------
# MLP: fused stack, and the loop for stacks the kernel cannot express
# ----------------------------------------------------------------------
def _mlp(dtype, **kwargs):
    with default_dtype(dtype):
        mlp = MLP(6, (5, 4), rng=np.random.default_rng(7), **kwargs)
    return mlp.to_dtype(dtype)


class TestMLPKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_unfused(self, rng, dtype):
        """ReLU hidden layer, identity output: the fused kernel's stack."""
        mlp = _mlp(dtype, output_activation="identity")
        x_data = rng.standard_normal((8, 6)).astype(dtype)
        upstream = rng.standard_normal((8, 4)).astype(dtype)
        _assert_parity(
            _run(mlp, mlp, x_data, upstream),
            _run(mlp, lambda x: reference_mlp(mlp, x), x_data, upstream),
            dtype,
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_numerical_gradcheck(self, rng, dtype):
        mlp = _mlp(dtype, output_activation="identity")
        x = Tensor(rng.standard_normal((5, 6)).astype(dtype), requires_grad=True)
        check_gradients(lambda: (mlp(x) ** 2).sum(), [x] + mlp.parameters())

    def test_fused_forward_records_one_node(self, rng):
        mlp = _mlp(np.float64)
        out = mlp(Tensor(rng.standard_normal((4, 6)), requires_grad=True))
        assert len(out._parents) == 1 + 2 * 2  # x, then (weight, bias) x 2

    def test_rejects_wrong_width(self, rng):
        mlp = _mlp(np.float64)
        with pytest.raises(ValueError, match="6 features"):
            mlp(Tensor(rng.standard_normal((4, 5))))

    def test_state_dict_layout_is_per_linear(self):
        """The fused path keeps each Linear's parameters and names."""
        mlp = MLP(4, (3, 2), rng=np.random.default_rng(0))
        assert list(mlp.state_dict()) == [
            "layers.0.weight",
            "layers.0.bias",
            "layers.2.weight",
            "layers.2.bias",
        ]
        linears = [layer for layer in mlp.layers if isinstance(layer, Linear)]
        assert [id(p) for p in mlp.parameters()] == [
            id(p) for linear in linears for p in (linear.weight, linear.bias)
        ]


class TestMLPLoop:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid_output_matches_reference(self, rng, dtype):
        mlp = _mlp(dtype, output_activation="sigmoid")
        x_data = rng.standard_normal((8, 6)).astype(dtype)
        upstream = rng.standard_normal((8, 4)).astype(dtype)
        _assert_parity(
            _run(mlp, mlp, x_data, upstream),
            _run(mlp, lambda x: reference_mlp(mlp, x), x_data, upstream),
            dtype,
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid_output_gradcheck(self, rng, dtype):
        mlp = _mlp(dtype, output_activation="sigmoid")
        x = Tensor(rng.standard_normal((5, 6)).astype(dtype), requires_grad=True)
        check_gradients(lambda: mlp(x).sum(), [x] + mlp.parameters())

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dropout_stack_matches_reference_in_eval(self, rng, dtype):
        mlp = _mlp(dtype, output_activation="identity", dropout=0.5).eval()
        x_data = rng.standard_normal((8, 6)).astype(dtype)
        upstream = rng.standard_normal((8, 4)).astype(dtype)
        _assert_parity(
            _run(mlp, mlp, x_data, upstream),
            _run(mlp, lambda x: reference_mlp(mlp, x), x_data, upstream),
            dtype,
        )
        check_gradients(
            lambda: mlp(Tensor(x_data)).sum(), mlp.parameters()
        )

    def test_dropout_still_applies_in_training(self, rng):
        """The loop runs the Dropout layer; a fused stack would skip it."""
        mlp = _mlp(np.float64, dropout=0.5)
        x = Tensor(rng.standard_normal((64, 6)))
        trained = mlp.train()(x).data
        evaluated = mlp.eval()(x).data
        assert not np.allclose(trained, evaluated)


# ----------------------------------------------------------------------
# CrossNetwork: fused_cross with x0 is x at the first layer
# ----------------------------------------------------------------------
class TestCrossKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_reference(self, rng, dtype):
        with default_dtype(dtype):
            network = CrossNetwork(5, 3, rng=np.random.default_rng(4))
        network.to_dtype(dtype)
        for layer in network.layers:  # non-zero biases exercise grad_b
            layer.bias.assign_(rng.standard_normal(5))
        x_data = rng.standard_normal((7, 5)).astype(dtype)
        upstream = rng.standard_normal((7, 5)).astype(dtype)
        _assert_parity(
            _run(network, network, x_data, upstream),
            _run(
                network,
                lambda x: reference_cross_network(network, x),
                x_data,
                upstream,
            ),
            dtype,
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_numerical_gradcheck(self, rng, dtype):
        with default_dtype(dtype):
            network = CrossNetwork(4, 2, rng=np.random.default_rng(6))
        network.to_dtype(dtype)
        x = Tensor(rng.standard_normal((3, 4)).astype(dtype), requires_grad=True)
        check_gradients(
            lambda: (network(x) ** 2).sum(), [x] + network.parameters()
        )

    def test_first_layer_shares_x0_and_x(self, rng):
        network = CrossNetwork(4, 1, rng=np.random.default_rng(6))
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = network(x)
        assert out._parents[0] is x and out._parents[1] is x


# ----------------------------------------------------------------------
# fused BCE-with-logits
# ----------------------------------------------------------------------
class TestBCELogitsKernel:
    def test_forward_matches_stable_formula_exactly(self, rng):
        z_data = rng.standard_normal(64) * 8.0
        targets = (rng.random(64) < 0.5).astype(float)
        loss = binary_cross_entropy_with_logits(
            Tensor(z_data, requires_grad=True), targets
        )
        expected = np.mean(
            np.maximum(z_data, 0.0)
            - z_data * targets
            + np.log(1.0 + np.exp(-np.abs(z_data)))
        )
        assert loss.item() == expected

    def test_backward_is_sigmoid_minus_target(self, rng):
        z = Tensor(rng.standard_normal(32), requires_grad=True)
        targets = (rng.random(32) < 0.3).astype(float)
        binary_cross_entropy_with_logits(z, targets).backward()
        sigmoid = 1.0 / (1.0 + np.exp(-z.data))
        np.testing.assert_allclose(
            z.grad, (sigmoid - targets) / z.shape[0], rtol=1e-12, atol=1e-14
        )

    def test_extreme_logits_stay_finite(self):
        z = Tensor(np.array([800.0, -800.0, 0.0]), requires_grad=True)
        loss = binary_cross_entropy_with_logits(z, np.array([1.0, 0.0, 1.0]))
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.all(np.isfinite(z.grad))

    def test_numerical_gradcheck(self, rng):
        z = Tensor(rng.standard_normal(10), requires_grad=True)
        targets = (rng.random(10) < 0.5).astype(float)
        check_gradients(
            lambda: binary_cross_entropy_with_logits(z, targets), [z]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 16),
            elements=st.floats(
                min_value=-30.0, max_value=30.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_unfused_chain(self, z_data, label_seed):
        targets = (
            np.random.default_rng(label_seed).random(z_data.size) < 0.5
        ).astype(float)

        fused_z = Tensor(z_data.copy(), requires_grad=True)
        fused_loss = binary_cross_entropy_with_logits(fused_z, targets)
        fused_loss.backward()

        plain_z = Tensor(z_data.copy(), requires_grad=True)
        y = Tensor(targets)
        plain_loss = (
            plain_z.relu() - plain_z * y + (1.0 + (-plain_z.abs()).exp()).log()
        ).mean()
        plain_loss.backward()

        np.testing.assert_allclose(
            fused_loss.item(), plain_loss.item(), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            fused_z.grad, plain_z.grad, rtol=1e-9, atol=1e-12
        )


# ----------------------------------------------------------------------
# FeatureEmbeddings: fused_embedding_bag over several features
# ----------------------------------------------------------------------
class TestEmbeddingBagKernel:
    VOCABS = {"user": 50, "item": 30, "cat": 7}
    DIMS = {"user": 4, "item": 3, "cat": 2}

    def _features(self, rng, batch=16):
        return {
            name: rng.integers(0, size, size=batch)
            for name, size in self.VOCABS.items()
        }

    def _bank(self, dtype, vocabs=None, dims=None):
        with default_dtype(dtype):
            bank = FeatureEmbeddings(
                vocabs or self.VOCABS, dims or self.DIMS, rng=np.random.default_rng(3)
            )
        return bank.to_dtype(dtype)

    def _run_bank(self, bank, forward, features, upstream, sparse):
        _zero_grads(bank)
        with use_sparse_grads(sparse):
            out = forward(features)
            (out * Tensor(upstream)).sum().backward()
        return out.data, _grads(bank)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("sparse", [True, False])
    def test_matches_unfused_bank(self, rng, dtype, sparse):
        bank = self._bank(dtype)
        features = self._features(rng)
        upstream = rng.standard_normal((16, bank.output_dim)).astype(dtype)
        _assert_parity(
            self._run_bank(bank, bank, features, upstream, sparse),
            self._run_bank(
                bank, lambda f: reference_bank(bank, f), features, upstream, sparse
            ),
            dtype,
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bank_shared_by_two_towers_accumulates(self, rng, dtype):
        """ATNN's generator and encoder share one profile bank: two
        forwards in one graph must sum both contributions per table."""
        bank = self._bank(dtype)
        pair = (self._features(rng), self._features(rng))
        upstream = rng.standard_normal((16, 2 * bank.output_dim)).astype(dtype)

        def both(forward):
            return lambda features: concat([forward(f) for f in features], axis=-1)

        _assert_parity(
            self._run_bank(bank, both(bank), pair, upstream, True),
            self._run_bank(
                bank, both(lambda f: reference_bank(bank, f)), pair, upstream, True
            ),
            dtype,
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_numerical_gradcheck(self, rng, dtype):
        bank = self._bank(dtype)
        features = self._features(rng, batch=6)
        with use_sparse_grads(False):
            check_gradients(
                lambda: (bank(features) ** 2).sum(), bank.parameters()
            )

    def test_sparse_backward_emits_sparse_grads(self, rng):
        bank = self._bank(np.float64)
        with use_sparse_grads(True):
            bank(self._features(rng)).sum().backward()
        for param in bank.parameters():
            assert isinstance(param.grad, SparseGrad)

    def test_shared_table_accumulates_both_contributions(self, rng):
        weight = Parameter(rng.standard_normal((20, 3)))
        first = rng.integers(0, 20, size=8)
        second = rng.integers(0, 20, size=8)
        with use_sparse_grads(False):
            out = fused_embedding_bag([weight, weight], [first, second])
            out.sum().backward()
        expected = np.zeros_like(weight.data)
        np.add.at(expected, first, 1.0)  # repro-lint: disable=ATN003 -- reference dense scatter
        np.add.at(expected, second, 1.0)  # repro-lint: disable=ATN003 -- reference dense scatter
        np.testing.assert_allclose(
            np.asarray(weight.grad), expected, rtol=1e-12, atol=1e-12
        )

    def test_duplicate_indices_segment_sum(self, rng):
        weight = Parameter(rng.standard_normal((10, 2)))
        indices = np.array([3, 3, 3, 7, 0, 7])
        upstream = rng.standard_normal((6, 2))
        with use_sparse_grads(True):
            out = fused_embedding_bag([weight], [indices])
            (out * Tensor(upstream)).sum().backward()
        expected = np.zeros_like(weight.data)
        np.add.at(expected, indices, upstream)  # repro-lint: disable=ATN003 -- reference dense scatter
        np.testing.assert_allclose(
            np.asarray(weight.grad), expected, rtol=1e-12, atol=1e-12
        )

    def test_rejects_bad_inputs(self, rng):
        weight = Parameter(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            fused_embedding_bag([], [])
        with pytest.raises(ValueError):
            fused_embedding_bag([weight], [])
        with pytest.raises(TypeError):
            fused_embedding_bag([weight], [np.array([0.5, 1.5])])
        with pytest.raises(IndexError):
            fused_embedding_bag([weight], [np.array([0, 10])])
        with pytest.raises(ValueError):
            fused_embedding_bag(
                [weight, weight], [np.array([0, 1]), np.array([0])]
            )


class TestFeatureEmbeddings:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_single_feature_bank_runs_plain_lookup(self, rng, dtype):
        with default_dtype(dtype):
            bank = FeatureEmbeddings(
                {"user": 40}, {"user": 4}, rng=np.random.default_rng(5)
            )
        bank.to_dtype(dtype)
        features = {"user": rng.integers(0, 40, size=12)}
        out = bank(features)
        assert len(out._parents) == 1
        np.testing.assert_array_equal(
            out.data, bank.table("user").weight.data[features["user"]]
        )
        upstream = rng.standard_normal((12, 4)).astype(dtype)
        _zero_grads(bank)
        with use_sparse_grads(False):
            (out * Tensor(upstream)).sum().backward()
            fused_grads = _grads(bank)
            _zero_grads(bank)
            (reference_bank(bank, features) * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(
            fused_grads[0], _grads(bank)[0], **_tolerances(dtype)
        )
        with use_sparse_grads(False):
            check_gradients(
                lambda: (bank(features) ** 2).sum(), bank.parameters()
            )

    def test_missing_feature_rejected(self, rng):
        bank = FeatureEmbeddings({"a": 5, "b": 5}, {"a": 2, "b": 2}, rng=rng)
        with pytest.raises(KeyError, match="missing categorical features"):
            bank({"a": np.array([0, 1])})


# ----------------------------------------------------------------------
# training through the fused layers
# ----------------------------------------------------------------------
class _BankAndHead(Module):
    def __init__(self, vocabs, dims, rng):
        super().__init__()
        self.embeddings = FeatureEmbeddings(vocabs, dims, rng=rng)
        self.cross = CrossNetwork(self.embeddings.output_dim, 2, rng=rng)
        self.head = MLP(
            self.embeddings.output_dim, (6, 1), output_activation="identity", rng=rng
        )

    def forward(self, features):
        return self.head(self.cross(self.embeddings(features))).reshape((-1,))

    def reference(self, features):
        hidden = reference_bank(self.embeddings, features)
        hidden = reference_cross_network(self.cross, hidden)
        return reference_mlp(self.head, hidden).reshape((-1,))


class TestTrainingThroughKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fused_train_steps_stay_clean(self, rng, dtype):
        vocabs = {"user": 60, "item": 40, "cat": 9}
        dims = {"user": 4, "item": 4, "cat": 2}
        with default_dtype(dtype):
            model = _BankAndHead(vocabs, dims, np.random.default_rng(11))
            model.to_dtype(dtype)
            optimizer = Adam(model.parameters(), lr=1e-3)
            labels = (rng.random(32) < 0.4).astype(dtype)
            sanitizer = GradSanitizer(track_nonfinite=True)
            with use_sparse_grads(True), sanitizer:
                for _ in range(4):
                    optimizer.zero_grad()
                    features = {
                        name: rng.integers(0, size, size=32)
                        for name, size in vocabs.items()
                    }
                    loss = binary_cross_entropy_with_logits(
                        model(features), labels
                    )
                    loss.backward()
                    optimizer.step()
                    assert np.isfinite(loss.item())
        assert sanitizer.diagnostics == []

    def test_fused_and_unfused_training_match(self, rng):
        """Four Adam steps through the fused layers and through the
        composed reference: the same final weights."""
        vocabs = {"user": 30, "item": 20}
        dims = {"user": 3, "item": 2}
        batches = [
            {name: rng.integers(0, size, size=16) for name, size in vocabs.items()}
            for _ in range(4)
        ]
        labels = (rng.random(16) < 0.5).astype(float)

        def train(fused):
            model = _BankAndHead(vocabs, dims, np.random.default_rng(21))
            forward = model if fused else model.reference
            optimizer = Adam(model.parameters(), lr=1e-2)
            with use_sparse_grads(True):
                for features in batches:
                    optimizer.zero_grad()
                    loss = binary_cross_entropy_with_logits(
                        forward(features), labels
                    )
                    loss.backward()
                    optimizer.step()
            return model.state_dict()

        fused_state = train(True)
        plain_state = train(False)
        assert fused_state.keys() == plain_state.keys()
        for key, fused_value in fused_state.items():
            np.testing.assert_allclose(
                fused_value, plain_state[key], rtol=1e-9, atol=1e-12
            )
