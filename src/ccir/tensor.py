"""Dense float32 tensors and named parameter collections.

These are the storage types for everything learnable: model parameters,
optimizer moments, checkpoint payloads.  Computation happens on plain numpy
arrays inside the autograd graph; ``Tensor`` is the validated, immutable
carrier at the boundaries.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np


class Tensor:
    """Immutable float32 array with a fixed shape.

    Values are validated at creation: NaN/Inf are rejected.  The underlying
    buffer is marked read-only so a Tensor can be shared freely.
    """

    __slots__ = ("_data",)

    def __init__(self, values, shape: Iterable[int] | None = None):
        arr = np.asarray(values, dtype=np.float32)
        if shape is not None:
            shape = tuple(int(s) for s in shape)
            if any(s <= 0 for s in shape):
                raise ValueError(f"non-positive dimension in shape {shape}")
            if arr.size != int(np.prod(shape, dtype=np.int64)):
                raise ValueError(
                    f"cannot view {arr.size} values as shape {shape}"
                )
            arr = arr.reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite (got NaN or Inf)")
        # ascontiguousarray would silently promote 0-d scalars to shape (1,)
        arr = arr.copy(order="C") if arr.ndim == 0 else np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Read-only float32 view of the values (row-major)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    def numpy(self) -> np.ndarray:
        """Writable float32 copy."""
        return self._data.copy()

    def tolist(self):
        return self._data.tolist()

    @classmethod
    def zeros(cls, shape: Iterable[int]) -> "Tensor":
        return cls(np.zeros(tuple(shape), dtype=np.float32))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.shape == other.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class ParameterSet:
    """Immutable map from parameter path to Tensor.

    Iteration order is always lexicographic by path, so two ParameterSets
    with equal contents serialize identically.
    """

    __slots__ = ("_params",)

    def __init__(self, params: Mapping[str, Tensor] | Iterable[tuple[str, Tensor]] = ()):
        items = dict(params)
        for path, t in items.items():
            if not isinstance(path, str) or not path:
                raise ValueError(f"parameter path must be a non-empty string, got {path!r}")
            if not isinstance(t, Tensor):
                items[path] = Tensor(t)
        self._params = {k: items[k] for k in sorted(items)}

    def paths(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def get(self, path: str, default=None):
        return self._params.get(path, default)

    def subset(self, predicate) -> "ParameterSet":
        """New ParameterSet keeping paths where ``predicate(path)`` is true."""
        return ParameterSet({k: v for k, v in self._params.items() if predicate(k)})

    def merge(self, other: "ParameterSet") -> "ParameterSet":
        """New ParameterSet with ``other``'s entries overriding this one's."""
        merged = dict(self._params)
        merged.update(other._params)
        return ParameterSet(merged)

    def zeros_like(self) -> "ParameterSet":
        return ParameterSet({k: Tensor.zeros(v.shape) for k, v in self._params.items()})

    def num_entries(self) -> int:
        return sum(v.size for v in self._params.values())

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def __contains__(self, path: str) -> bool:
        return path in self._params

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParameterSet)
            and self.paths() == other.paths()
            and all(self[p] == other[p] for p in self)
        )

    def __repr__(self) -> str:
        return f"ParameterSet({len(self._params)} params, {self.num_entries()} entries)"
