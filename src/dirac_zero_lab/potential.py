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

from .clifford import PAULI
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


class PotentialField:
    """Pointwise Hermitian 4x4 matrix field on a grid.

    ``values`` is the (N, N, N, 4, 4) complex table.  A potential made by
    :func:`from_em` keeps its real fields q and A instead and forms the table
    on the first read of ``values``.  :meth:`chiral_blocks` gives the 2x2
    blocks a solve splits by, built straight from those fields, so a solve of
    an em potential never holds the table.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray):
        expected = (grid.N, grid.N, grid.N, 4, 4)
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != expected:
            raise ValueError(f"potential values must have shape {expected}, got {vals.shape}")
        self.grid, self._values, self._em = grid, vals, None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:  # [[a, b], [b, a]] with a = q I and b = -sigma.A, as alpha_j = [[0, s_j], [s_j, 0]]
            vals = np.zeros((self.grid.N,) * 3 + (4, 4), dtype=np.complex128)
            for rows, cols in ((slice(0, 2), slice(2, 4)), (slice(2, 4), slice(0, 2))):
                self._em_blocks(vals[..., rows, rows], vals[..., rows, cols])
            self._values = vals
        return self._values

    def chiral_blocks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(a, b) with Q = [[a, b], [b, a]] if Q commutes with gamma5 = [[0, I], [I, 0]] exactly, else None.

        A potential made by :func:`from_em` builds them from its fields, without forming its table; a table
        potential gives its own slices.
        """
        if self._em is not None:
            shape = (self.grid.N,) * 3 + (2, 2)
            return self._em_blocks(np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))
        v = self.values
        a, b = v[..., :2, :2], v[..., :2, 2:]
        if np.array_equal(a, v[..., 2:, 2:]) and np.array_equal(b, v[..., 2:, :2]):
            return a, b
        return None

    def _em_blocks(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add q I into the zeroed (N, N, N, 2, 2) block ``a`` and -sigma.A into ``b``; a None field adds nothing."""
        q, A = self._em
        if q is not None:
            for r in range(2):
                a[..., r, r] += q
        if A is not None:
            for j, s in enumerate(PAULI):  # each nonzero entry of sigma_j, +-1 or +-i, written straight into its place
                for r, c in zip(*np.nonzero(s)):
                    b[..., r, c] -= A[..., j] * s[r, c]
        return a, b

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

    Q = PotentialField.__new__(PotentialField)  # the table is formed when ``values`` is first read
    Q.grid, Q._values = grid, None
    Q._em = (
        None if q is None else real_finite(q, "scalar", ()),
        None if A is None else real_finite(A, "vector", (3,)),
    )
    return Q


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
