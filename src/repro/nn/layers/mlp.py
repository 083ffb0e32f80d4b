"""Multi-layer perceptron block."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.activation import Identity, ReLU, get_activation
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.linear import Linear
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor, fused_mlp

__all__ = ["MLP"]


class MLP(Module):
    """A stack of fully connected layers with activations and dropout.

    This is the "deep" half of the DCN towers and the fully connected head
    the paper places after the cross network (256-256-256-128 in the ATNN
    configuration).

    Parameters
    ----------
    in_features:
        Input width.
    hidden_dims:
        Output width of every layer, in order.
    activation:
        Activation between layers (by name, see
        :func:`repro.nn.layers.activation.get_activation`).
    output_activation:
        Activation after the final layer; defaults to the same as
        ``activation``.  Pass ``"identity"`` for a linear output.
    dropout:
        Dropout probability applied after every activation (0 disables).
    rng:
        Generator for weight initialisation.

    A stack of ``Linear`` layers each followed by ReLU or identity runs as
    one :func:`repro.nn.tensor.fused_mlp` tape node.  A stack the kernel
    cannot express (dropout, sigmoid/tanh/leaky activations) runs layer by
    layer; the constructor decides which, once.
    """

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        activation: str = "relu",
        output_activation: Optional[str] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not hidden_dims:
            raise ValueError("hidden_dims must contain at least one layer width")
        self.in_features = in_features
        self.out_features = hidden_dims[-1]
        output_activation = output_activation or activation

        layers = ModuleList()
        widths = [in_features, *hidden_dims]
        for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            is_last = index == len(hidden_dims) - 1
            layers.append(get_activation(output_activation if is_last else activation))
            if dropout > 0.0 and not is_last:
                layers.append(Dropout(dropout, rng=rng))
        self.layers = layers
        self._fused_specs = _fused_specs(layers)

    def forward(self, x: Tensor) -> Tensor:
        if self._fused_specs is None:
            for layer in self.layers:
                x = layer(x)
            return x
        if x.ndim != 2 or x.shape[-1] != self.in_features:
            raise ValueError(
                f"MLP expected 2-D input with {self.in_features} features, "
                f"got shape {x.shape}"
            )
        return fused_mlp(
            x,
            [(linear.weight, linear.bias, relu) for linear, relu in self._fused_specs],
        )


def _fused_specs(layers: ModuleList) -> Optional[Tuple[Tuple[Linear, bool], ...]]:
    """``(Linear, relu)`` pairs when the stack is strictly ``Linear`` then
    ``ReLU`` or ``Identity``; ``None`` for any other stack."""
    items = list(layers)
    if len(items) % 2:
        return None
    specs = []
    for linear, activation in zip(items[::2], items[1::2]):
        if type(linear) is not Linear or type(activation) not in (ReLU, Identity):
            return None
        specs.append((linear, type(activation) is ReLU))
    return tuple(specs)
