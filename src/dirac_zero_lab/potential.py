"""Hermitian 4x4 matrix potentials: constructors, Loss-Yau fields, DZL1 files.

A potential is a pointwise Hermitian 4x4 matrix on the lattice.  The
electromagnetic constructor realizes q(x) I - alpha.A(x), so adding it to
the free operator gives the minimally coupled operator.  The Loss-Yau
constructor builds the classical magnetic zero mode of the 2-spinor Weyl
operator and embeds it in the lower components of a 4-spinor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import ALPHA, PAULI
from .field import POSITION, GridSpec, SpinorField, _read_dzl1, _require_same_grid, _require_space, _write_dzl1
from .freeop import _dot_contract, _multiply, _sigma_coeffs, _symbol

__all__ = [
    "PotentialField",
    "LossYauFields",
    "from_em",
    "loss_yau",
    "loss_yau_potential",
    "apply_potential",
    "pauli_derivative",
    "weyl_residual",
    "save_potential",
    "load_potential",
]

HERMITICITY_TOL = 1e-12


@dataclass
class PotentialField:
    """Pointwise Hermitian 4x4 matrix field on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.N, self.grid.N, self.grid.N, 4, 4)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != expected:
            raise ValueError(f"potential values must have shape {expected}, got {vals.shape}")
        self.values = vals

    def __mul__(self, scalar) -> "PotentialField":
        return PotentialField(self.grid, self.values * scalar)

    __rmul__ = __mul__


def from_em(q, A, grid: GridSpec) -> PotentialField:
    """Electromagnetic coupling q(x) I_4 - alpha.A(x) from real scalar/vector data.

    ``q`` is a real (N, N, N) array or None; ``A`` a real (N, N, N, 3) array
    or None.  The result added to alpha.D gives alpha.(D - A) + q I.  It is
    Hermitian by construction, so the inputs are checked (real and finite),
    not the result.
    """
    shape = (grid.N, grid.N, grid.N)

    def real_finite(x, what: str, tail: tuple) -> np.ndarray:
        arr = np.asarray(x)
        if np.iscomplexobj(arr) and np.any(arr.imag != 0):
            raise ValueError(f"{what} potential must be real-valued")
        arr = np.broadcast_to(arr.real.astype(float), shape + tail)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what} potential is not finite on the lattice")
        return arr

    vals = np.zeros(shape + (4, 4), dtype=np.complex128)
    if q is not None:
        q_arr = real_finite(q, "scalar", ())
        for r in range(4):
            vals[..., r, r] += q_arr
    if A is not None:
        a_arr = real_finite(A, "vector", (3,))
        for j in range(3):  # each nonzero entry of alpha_j is +-1 or +-i, written straight into its place
            for r, c in zip(*np.nonzero(ALPHA[j])):
                vals[..., r, c] -= a_arr[..., j] * ALPHA[j][r, c]
    return PotentialField(grid, vals)


@dataclass
class LossYauFields:
    """The magnetic vector potential, its Weyl zero mode, and the embedded 4-spinor."""

    vector_potential: np.ndarray  # (N, N, N, 3) real
    weyl_spinor: np.ndarray  # (N, N, N, 2) complex
    zero_mode: SpinorField


def loss_yau(grid: GridSpec) -> LossYauFields:
    """Construct the classical magnetic zero mode on the lattice.

    phi(x) = (1 + |x|^2)^{-3/2} (I + i sigma.x) (1, 0)^t has |phi| = <x>^{-2}
    exactly, and the spin direction w = <phi, sigma phi> / |phi|^2 is a unit
    vector, so A(x) = 3 (1 + |x|^2)^{-1} w(x) satisfies |A| <x>^2 = 3.  The
    pair solves sigma.(D - A) phi = 0 in the continuum.
    """
    x1, x2, x3 = grid.coords
    one_plus_r2 = 1.0 + grid.radius2
    pref = one_plus_r2 ** (-1.5)
    phi = np.empty((grid.N, grid.N, grid.N, 2), dtype=np.complex128)
    phi[..., 0] = pref * (1.0 + 1j * x3)
    phi[..., 1] = pref * (1j * x1 - x2)

    density = np.sum(np.abs(phi) ** 2, axis=-1)
    w = np.empty((grid.N, grid.N, grid.N, 3))
    for j, s in enumerate(PAULI):
        w[..., j] = np.real(np.einsum("...a,ab,...b->...", np.conj(phi), s, phi)) / density
    vector_potential = 3.0 / one_plus_r2[..., None] * w

    four = np.zeros((grid.N, grid.N, grid.N, 4), dtype=np.complex128)
    four[..., 2:] = phi
    return LossYauFields(
        vector_potential=vector_potential,
        weyl_spinor=phi,
        zero_mode=SpinorField(grid, four, POSITION),
    )


def loss_yau_potential(grid: GridSpec) -> PotentialField:
    """Q = -alpha.A for the Loss-Yau vector potential."""
    return from_em(None, loss_yau(grid).vector_potential, grid)


def apply_potential(Q: PotentialField, f: SpinorField) -> SpinorField:
    """Pointwise matrix-vector product (Q f)(x)."""
    _require_space(f, POSITION, "apply_potential")
    _require_same_grid(Q, f)
    out = np.einsum("...ab,...b->...a", Q.values, f.values)
    return SpinorField(f.grid, out, POSITION)


def pauli_derivative(phi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sigma.D phi for a 2-spinor lattice field, via the multiplier sigma.xi."""
    return _multiply(_symbol(grid, False), np.asarray(phi, dtype=np.complex128))


def weyl_residual(phi: np.ndarray, A: np.ndarray, grid: GridSpec) -> float:
    """|| sigma.(D - A) phi ||_2 / || phi ||_2 on the lattice."""
    phi = np.asarray(phi, dtype=np.complex128)
    res = pauli_derivative(phi, grid) - _dot_contract(_sigma_coeffs(*np.moveaxis(A, -1, 0)), phi)
    num = np.sqrt(np.sum(np.abs(res) ** 2))
    den = np.sqrt(np.sum(np.abs(phi) ** 2))
    if den == 0:
        raise ValueError("zero 2-spinor field")
    return float(num / den)


def save_potential(Q: PotentialField, path) -> None:
    _write_dzl1(path, Q.grid.L, Q.grid.N, POSITION, Q.values, components=16)


def load_potential(path) -> PotentialField:
    """Read a DZL1 potential; the payload must be position-space, finite and Hermitian:
    max |Q - Q^dag| <= HERMITICITY_TOL max(1, max |Q|)."""
    grid, space, flat = _read_dzl1(path, components=16)
    if space != POSITION:
        raise ValueError(f"potential file {path} has space={space}; potentials live in position space")
    vals = flat.reshape(grid.N, grid.N, grid.N, 4, 4)
    if not np.all(np.isfinite(vals.view(float))):
        raise ValueError(f"potential in {path} is not finite on the lattice")
    dev = float(np.max(np.abs(vals - np.conj(np.swapaxes(vals, -1, -2)))))
    if dev > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError(f"potential in {path} is not Hermitian: max |Q - Q^dag| = {dev:.3e}")
    return PotentialField(grid, vals)
