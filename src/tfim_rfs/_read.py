"""The readers of every public number: one real number, or a 1-d array of them."""

from collections.abc import Iterable, Sequence
from numbers import Real

import numpy as np


def _real(value, name: str) -> float:
    """``value`` as a float; ValueError unless a ``numbers.Real``, which a 0-d array is not."""
    if type(value) is float:  # before the ABC check, which costs 5x the rest
        return value
    if not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _reals(values, name: str) -> np.ndarray:
    """``values``, any iterable, read once into a 1-d float array (ValueError naming the
    shape if not 1-d): bool, int and float dtypes convert directly, others by ``_real``."""
    if not isinstance(values, (np.ndarray, Sequence)) and isinstance(values, Iterable):
        values = list(values)  # a generator, set or view
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {array.shape}")
    if array.dtype.kind not in "biuf":  # str, object, complex: the scalar rule, in order
        array = np.array([_real(v, name) for v in
                          (array.tolist() if isinstance(values, np.ndarray) else values)])
    return array.astype(float, copy=False)
