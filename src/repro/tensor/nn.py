"""Neural-network module system: ``Parameter``, ``Module`` and ``Linear``.

A deliberately small imitation of ``torch.nn`` — just what the GAS GNN layers
need: parameter registration, recursive parameter collection, train/eval mode,
and state-dict (de)serialisation so well-trained models can be exported to the
inference backends (the paper's "signature file" mechanism).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation and
    serialisation.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # parameter / module traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr_name, attr_value in vars(self).items():
            full_name = f"{prefix}{attr_name}"
            if isinstance(attr_value, Parameter):
                yield full_name, attr_value
            elif isinstance(attr_value, Module):
                yield from attr_value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(attr_value, (list, tuple)):
                for index, element in enumerate(attr_value):
                    if isinstance(element, Parameter):
                        yield f"{full_name}.{index}", element
                    elif isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{full_name}.{index}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def children(self) -> Iterator["Module"]:
        for attr_value in vars(self).values():
            if isinstance(attr_value, Module):
                yield attr_value
            elif isinstance(attr_value, (list, tuple)):
                for element in attr_value:
                    if isinstance(element, Module):
                        yield element

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self.children():
            yield from child.modules()

    # ------------------------------------------------------------------ #
    # train / eval
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter name → numpy array (copied)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters from :meth:`state_dict` output (strict by name)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            param = own[name]
            values = np.asarray(values, dtype=np.float64)
            if param.data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {values.shape}"
                )
            param.data = values.copy()

    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialiser."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out
