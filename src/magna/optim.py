"""Trainable parameter registry, Adam with decoupled weight decay, checkpoints.

Checkpoint format (stable, documented for external readers): JSON with
``{"format_version": 1, "config": {...}, "params": {name: {"shape": [...],
"values": [...]}}}`` where values are row-major float64. Python's json
round-trips float64 exactly via repr, so reload is bit-exact.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .tape import Tensor

__all__ = ["ParamStore", "Adam", "GradientError", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1


class GradientError(RuntimeError):
    """A parameter saw a NaN/Inf gradient; the step was aborted."""


class ParamStore:
    """Ordered name -> Tensor map for everything the optimizer touches."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def glorot(self, name: str, shape: tuple[int, int], rng: np.random.Generator) -> Tensor:
        fan_in, fan_out = shape[0], shape[1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(name, Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True))

    def zeros(self, name: str, shape: tuple[int, int]) -> Tensor:
        return self.add(name, Tensor(np.zeros(shape), requires_grad=True))

    def full(self, name: str, shape: tuple[int, int], value: float) -> Tensor:
        return self.add(name, Tensor(np.full(shape, float(value)), requires_grad=True))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            missing = set(self._params) - set(values)
            extra = set(values) - set(self._params)
            raise KeyError(f"parameter names mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
        for name, arr in values.items():
            p = self._params[name]
            if p.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}: the checkpoint has {arr.shape}, "
                                 f"the model needs {p.data.shape}")
            p.data = np.array(arr, dtype=p.data.dtype)


class Adam:
    """Adam with bias correction; weight decay is a multiplicative shrink
    applied to the parameter before the Adam delta, never mixed into the
    moment estimates."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, store: ParamStore, lr: float, weight_decay: float = 0.0):
        self.store = store
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self) -> None:
        for name, p in self.store.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise GradientError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for name, p in self.store.items():
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in two buffers
            step = m / bc1
            step *= self.lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.EPS
            step /= denom
            p.data -= step


def save_checkpoint(path: str, store: ParamStore, config: dict | None = None) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config or {},
        "params": {
            name: {"shape": list(p.data.shape), "values": p.data.reshape(-1).tolist()}
            for name, p in store.items()
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    values = {
        name: np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    return values, payload.get("config", {})
