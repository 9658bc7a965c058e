import numpy as np
import pytest

from sigdrift.core import Signature


def raw_signature(matrix, provider_id="prov", parameters=None):
    """Signature straight from the given rows, no renormalization."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if parameters is None:
        parameters = [f"q{i}" for i in range(matrix.shape[0])]
    return Signature(tuple(parameters), matrix, provider_id=provider_id)


def unit_signature(matrix, provider_id="prov", parameters=None):
    """Signature with each row scaled to unit population std."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if parameters is None:
        parameters = [f"q{i}" for i in range(matrix.shape[0])]
    rows = [row / np.std(row) for row in matrix]
    return Signature(tuple(parameters), rows, provider_id)


def wavy_row(length, seed=0, mean=0.0):
    """Deterministic non-constant row: two sinusoids plus a little noise."""
    t = np.arange(length, dtype=float)
    rng = np.random.default_rng(seed)
    base = np.sin(2 * np.pi * t / 37.0) + 0.4 * np.cos(2 * np.pi * t / 11.0)
    base = base + 0.05 * rng.standard_normal(length)
    base = base - base.mean()
    return base / base.std() + mean


@pytest.fixture
def sig360():
    return unit_signature(wavy_row(360, seed=3), provider_id="alpha")
