"""The free operator alpha.D and its inverse A, as multipliers and as quadrature.

The spectral routes act mode-by-mode: alpha.D multiplies the spectrum by
alpha_dot(xi), and A multiplies by invert_alpha_dot(xi) with the xi = 0 mode
annihilated (the continuum symbol is singular there; the removed mass is
surfaced as a warning).  The quadrature route sums the convolution kernel
(i/4pi) alpha.(x-y)/|x-y|^3 over the primary box with the odd-kernel
principal-value rule (diagonal term omitted), as an exact zero-padded FFT
convolution on the (2N)^3 lattice at O(N^3 log N) cost.
"""

from __future__ import annotations

import warnings

import numpy as np

from .clifford import ALPHA
from .field import (
    FREQUENCY,
    POSITION,
    GridSpec,
    SpinorField,
    _padded_convolve,
    _padded_offsets,
    forward_fourier,
    inverse_fourier,
    l2_norm,
)

__all__ = [
    "ZeroModeAnnihilationWarning",
    "apply_h0",
    "apply_a_spectral",
    "apply_a_quadrature",
    "zero_mode_mass",
    "verify_ah0_identity",
    "verify_pairing_identity",
    "symbol_product_max_deviation",
]

class ZeroModeAnnihilationWarning(UserWarning):
    """A applied to a field with non-negligible xi = 0 mass; that mode was dropped."""


def _matrix_contract(values: np.ndarray, coeffs) -> np.ndarray:
    """sum_j coeffs[j] * (alpha_j values) pointwise over the component axis."""
    out = coeffs[0][..., None] * (values @ ALPHA[0].T)
    out += coeffs[1][..., None] * (values @ ALPHA[1].T)
    out += coeffs[2][..., None] * (values @ ALPHA[2].T)
    return out


def apply_h0(f: SpinorField) -> SpinorField:
    """alpha.D f via the exact multiplier alpha_dot(xi) on the frequency lattice."""
    if f.space != POSITION:
        raise ValueError("apply_h0 expects a position-space field")
    fhat = forward_fourier(f)
    xi = f.grid.freq_mesh
    ghat = _matrix_contract(fhat.values, (xi[..., 0], xi[..., 1], xi[..., 2]))
    return inverse_fourier(SpinorField(f.grid, ghat, FREQUENCY))


def _inverse_symbol_coeffs(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Componentwise xi_j / |xi|^2 with the singular xi = 0 entry zeroed."""
    xi = grid.freq_mesh
    denom = grid.freq_radius2.copy()
    denom[grid.origin_index] = 1.0
    coeffs = tuple(xi[..., j] / denom for j in range(3))
    for c in coeffs:
        c[grid.origin_index] = 0.0
    return coeffs


def zero_mode_mass(f: SpinorField) -> float:
    """L^2 mass carried by the xi = 0 Fourier mode of a position-space field."""
    fhat = forward_fourier(f)
    amp = fhat.values[f.grid.origin_index]
    return float(np.sqrt(f.grid.freq_cell_volume) * np.linalg.norm(amp))


def apply_a_spectral(f: SpinorField, warn_threshold: float = 1e-8) -> SpinorField:
    """A f via the multiplier invert_alpha_dot(xi); the xi = 0 mode is annihilated.

    Emits :class:`ZeroModeAnnihilationWarning` when the annihilated L^2 mass
    exceeds ``warn_threshold`` relative to ||f||_2.
    """
    if f.space != POSITION:
        raise ValueError("apply_a_spectral expects a position-space field")
    g = f.grid
    fhat = forward_fourier(f)
    killed = float(np.sqrt(g.freq_cell_volume) * np.linalg.norm(fhat.values[g.origin_index]))
    total = l2_norm(f)
    if total > 0 and killed > warn_threshold * total:
        warnings.warn(
            f"A annihilated the xi=0 mode: L2 mass {killed:.3e} "
            f"({killed / total:.2%} of the field)",
            ZeroModeAnnihilationWarning,
            stacklevel=2,
        )
    ghat = _matrix_contract(fhat.values, _inverse_symbol_coeffs(g))
    ghat[g.origin_index] = 0.0
    return inverse_fourier(SpinorField(g, ghat, FREQUENCY))


def apply_a_quadrature(f: SpinorField) -> SpinorField:
    """A f by summing the kernel over the primary box (no periodic images).

    (Af)(x) = h^3 sum_{y != x} (i/4pi) alpha_dot(x - y) / |x - y|^3 f(y); the
    y = x term is omitted (odd kernel: midpoint principal value).  The sum is
    one exact linear convolution on the zero-padded (2N)^3 lattice (FFT, the
    mode-wise matrix sum_j hat(K_j) alpha_j of K_j(z) = z_j / |z|^3, inverse FFT,
    crop), at O(N^3 log N) cost.
    """
    if f.space != POSITION:
        raise ValueError("apply_a_quadrature expects a position-space field")
    g = f.grid
    z, r2 = _padded_offsets(g)
    inv_r3 = 1.0 / (r2 * np.sqrt(r2))
    inv_r3[0, 0, 0] = 0.0  # principal value: drop y = x
    kernel_hat = [np.fft.fftn(c * inv_r3) for c in z]
    out = _padded_convolve(f.values, g.N, lambda fhat: _matrix_contract(fhat, kernel_hat))
    return SpinorField(g, out * (1j / (4.0 * np.pi) * g.cell_volume), POSITION)


def verify_ah0_identity(f: SpinorField) -> float:
    """Relative error of A (alpha.D) f against f with its xi = 0 mode removed."""
    if f.space != POSITION:
        raise ValueError("verify_ah0_identity expects a position-space field")
    g = f.grid
    fhat = forward_fourier(f)
    centered = fhat.values.copy()
    centered[g.origin_index] = 0.0
    f0 = inverse_fourier(SpinorField(g, centered, FREQUENCY))
    denom = l2_norm(f0)
    if denom == 0.0:
        raise ValueError("field has no nonzero Fourier mode besides xi = 0 (constant input)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroModeAnnihilationWarning)
        composed = apply_a_spectral(apply_h0(f))
    return l2_norm(composed - f0) / denom


def verify_pairing_identity(g_field: SpinorField, phi: SpinorField) -> tuple[complex, complex]:
    """Both sides of the adjoint identity for A against a test field phi.

    ``phi`` lives on the dual lattice (space tag ``frequency``) and must
    vanish at the origin lattice point.  The left side transforms A g and
    pairs it with phi; the right side never applies A: it pairs the
    transform of g with the pointwise product invert_alpha_dot(w) phi(w).
    On the discrete lattice the two sides agree to rounding.
    """
    if g_field.space != POSITION:
        raise ValueError("verify_pairing_identity expects g in position space")
    if phi.space != FREQUENCY:
        raise ValueError("the test field phi must live on the dual (frequency) lattice")
    grid = g_field.grid
    if phi.grid != grid:
        raise ValueError(f"grid mismatch: {grid} vs {phi.grid}")
    if np.any(phi.values[grid.origin_index] != 0):
        raise ValueError("test field must vanish at the origin lattice point")

    measure = grid.freq_cell_volume
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroModeAnnihilationWarning)
        ag_hat = forward_fourier(apply_a_spectral(g_field))
    lhs = np.sum(ag_hat.values * np.conj(phi.values)) * measure

    g_hat = forward_fourier(g_field)
    m_phi = _matrix_contract(phi.values, _inverse_symbol_coeffs(grid))
    rhs = np.sum(g_hat.values * np.conj(m_phi)) * measure
    return complex(lhs), complex(rhs)


def symbol_product_max_deviation(grid: GridSpec) -> float:
    """max over xi != 0 of |alpha_dot(xi) invert_alpha_dot(xi) - I| (entrywise)."""
    xi = grid.freq_mesh.reshape(-1, 3)
    n2 = np.einsum("mj,mj->m", xi, xi)
    keep = n2 > 0
    xi, n2 = xi[keep], n2[keep]
    stack = np.stack(ALPHA)  # (3, 4, 4)
    sym = np.einsum("mj,jab->mab", xi, stack)
    prod = np.einsum("mab,mbc->mac", sym, sym / n2[:, None, None])
    return float(np.max(np.abs(prod - np.eye(4))))
