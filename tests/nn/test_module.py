"""Module/Parameter registration, state dicts, train/eval modes."""

import numpy as np
import pytest

from repro.nn import Module, ModuleList, Parameter, Tensor
from repro.nn.layers import Linear


class _Block(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))
        self.child = Linear(2, 2, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.child(x @ self.weight)


class TestRegistration:
    def test_parameters_discovered_recursively(self):
        block = _Block()
        names = dict(block.named_parameters())
        assert "weight" in names
        assert "child.weight" in names
        assert "child.bias" in names

    def test_parameters_unique_when_shared(self):
        block = _Block()
        other = _Block()
        other.child = block.child  # share the submodule
        combined = list(block.parameters()) + list(other.parameters())
        unique = {id(p) for p in combined}
        assert len(unique) < len(combined)

    def test_shared_parameter_listed_once(self):
        block = _Block()
        block.alias = block.weight  # second registration of the same tensor
        assert sum(1 for p in block.parameters() if p is block.weight) == 1

    def test_num_parameters(self):
        block = _Block()
        assert block.num_parameters() == 4 + 4 + 2

    def test_register_module_explicit(self):
        container = Module()
        layer = Linear(2, 3, rng=np.random.default_rng(0))
        container.register_module("layer0", layer)
        assert dict(container.named_parameters())["layer0.weight"] is layer.weight


class TestModes:
    def test_train_eval_recursive(self):
        block = _Block()
        block.eval()
        assert not block.training
        assert not block.child.training
        block.train()
        assert block.training
        assert block.child.training

    def test_mode_reaches_nested_dropout(self):
        from repro.nn.layers import Dropout

        outer = Module()
        outer.inner = Module()
        outer.inner.drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((4, 8)))
        outer.eval()
        assert not outer.inner.drop.training
        np.testing.assert_array_equal(outer.inner.drop(x).data, x.data)
        outer.train()
        assert outer.inner.training and outer.inner.drop.training
        assert (outer.inner.drop(x).data == 0).any()

    def test_zero_grad_clears_all(self):
        block = _Block()
        out = block(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert block.weight.grad is not None
        block.zero_grad()
        assert all(p.grad is None for p in block.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestStateDict:
    def test_roundtrip(self):
        block = _Block()
        state = block.state_dict()
        other = _Block()
        other.load_state_dict(state)
        for (name_a, param_a), (name_b, param_b) in zip(
            block.named_parameters(), other.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(param_a.data, param_b.data)

    def test_state_dict_copies_data(self):
        block = _Block()
        state = block.state_dict()
        block.weight.data[0, 0] = 99.0  # repro-lint: disable=ATN001 -- mutates the live buffer on purpose to prove state_dict() snapshots are copies
        assert state["weight"][0, 0] != 99.0

    def test_missing_key_rejected(self):
        block = _Block()
        state = block.state_dict()
        del state["weight"]
        with pytest.raises(KeyError):
            block.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        block = _Block()
        state = block.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            block.load_state_dict(state)


class TestModuleList:
    def test_iteration_order(self):
        rng = np.random.default_rng(0)
        layers = ModuleList(Linear(2, 2, rng=rng) for _ in range(3))
        assert len(layers) == 3
        assert list(layers)[1] is layers[1]

    def test_parameters_registered(self):
        rng = np.random.default_rng(0)
        layers = ModuleList([Linear(2, 2, rng=rng)])
        assert len(layers.parameters()) == 2

    def test_append(self):
        layers = ModuleList()
        layers.append(Linear(2, 2, rng=np.random.default_rng(0)))
        assert len(layers) == 1
