"""Pauli and Dirac matrices with their contraction and inversion helpers.

Everything here is built from exact 0, +-1, +-i entries, so the algebraic
identities (anticommutators, squares, inverses) hold without rounding and
can be asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "alpha_dot",
    "invert_alpha_dot",
    "check_clifford",
    "CliffordReport",
    "PAULI",
    "ALPHA",
]


def _freeze(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


PAULI = tuple(
    _freeze(np.array(m, dtype=np.complex128))
    for m in (
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    )
)

_ZERO2 = np.zeros((2, 2), dtype=np.complex128)

ALPHA = tuple(
    _freeze(np.block([[_ZERO2, s], [s, _ZERO2]])) for s in PAULI
)

_I4 = _freeze(np.eye(4, dtype=np.complex128))


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a real 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    return arr


def alpha_dot(v) -> np.ndarray:
    """Contract a real 3-vector with the Dirac matrices: sum_j v_j alpha_j."""
    arr = _as_vector(v)
    return arr[0] * ALPHA[0] + arr[1] * ALPHA[1] + arr[2] * ALPHA[2]


def invert_alpha_dot(v) -> np.ndarray:
    """Return the inverse of alpha_dot(v), which equals alpha_dot(v) / |v|^2."""
    arr = _as_vector(v)
    n2 = float(arr @ arr)
    if n2 == 0.0:
        raise ZeroDivisionError("alpha_dot(0) is singular and has no inverse")
    return alpha_dot(arr) / n2


@dataclass(frozen=True)
class CliffordReport:
    """Anticommutator deviations for all ordered index pairs (j, k)."""

    deviations: tuple[tuple[int, int, float], ...]
    max_deviation: float


def check_clifford() -> CliffordReport:
    """Measure max |alpha_j alpha_k + alpha_k alpha_j - 2 delta_jk I| per pair of ``ALPHA``.

    The deviation is exactly zero for every pair.
    """
    rows = []
    worst = 0.0
    for j in range(3):
        for k in range(3):
            anti = ALPHA[j] @ ALPHA[k] + ALPHA[k] @ ALPHA[j]
            target = 2.0 * _I4 if j == k else 0.0
            dev = float(np.max(np.abs(anti - target)))
            rows.append((j + 1, k + 1, dev))
            worst = max(worst, dev)
    return CliffordReport(deviations=tuple(rows), max_deviation=worst)
