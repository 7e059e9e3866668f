"""The free operator alpha.D and its inverse A, as multipliers and as quadrature.

The spectral routes share one private path in native FFT order (a multiplier
commutes with the half-box shift, and the forward and inverse continuum scales
multiply to 1).  It applies alpha.c = [[0, sigma.c], [sigma.c, 0]],
sigma.c = [[c3, c1 - i c2], [c1 + i c2, -c3]], elementwise: c = xi for
alpha.D, c = xi / |xi|^2 for A, whose xi = 0 mode is annihilated (the symbol
is singular there; :func:`zero_mode_mass` measures the removed mass, which
acceptance criterion 2's detail reports).  The symbols
are cached per grid.  The path works component-major: the field is copied once
into a (w, N, N, N) buffer, each contiguous (N, N, N) component is transformed
in place, contracted with the symbol and inverted in place, and the result is
handed back interleaved.  numpy transforms every line on its own, so this is
bit-identical to one joint transform over the box axes of the (N, N, N, w)
field, and cheaper.
The quadrature route sums the convolution kernel (i/4pi) alpha.(x-y)/|x-y|^3
over the primary box with the odd-kernel principal-value rule (diagonal term
omitted), as an exact zero-padded FFT convolution on the (2N)^3 lattice at
O(N^3 log N) cost.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .clifford import ALPHA
from .field import (
    _TWO_PI_32,
    FREQUENCY,
    POSITION,
    GridSpec,
    SpinorField,
    _coords,
    _padded_convolve,
    _padded_kernel_fft,
    _require_same_grid,
    _require_space,
    _squared_norm,
    forward_fourier,
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

_AXES = (0, 1, 2)
CONTRACT_BLOCK = 4096  # elements of a component that a symbol contraction handles at once, in whole planes


class ZeroModeAnnihilationWarning(UserWarning):
    """A dropped a non-negligible xi = 0 mode; ``mass`` is its L^2 mass."""

    def __init__(self, message: str, mass: float):
        super().__init__(message)
        self.mass = mass


def _sigma_coeffs(c1, c2, c3) -> tuple:
    """The entries (c3, c1 - i c2, c1 + i c2) of sigma.c; complex c is allowed."""
    return c3, c1 - 1j * c2, c1 + 1j * c2


def _dot_contract(coeffs, v: np.ndarray, axis: int = -1) -> np.ndarray:
    """(sigma.c) v on 2-spinors, (alpha.c) v on 4-spinors, the components on ``axis``.

    ``coeffs`` = :func:`_sigma_coeffs` of c, broadcast against one component.
    """
    c3, cm, cp = coeffs
    out = np.empty(v.shape, np.complex128)
    v_c, out_c = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    for dst, src in ((0, 0),) if len(v_c) == 2 else ((0, 2), (2, 0)):
        a, b = v_c[src], v_c[src + 1]
        out_c[dst] = c3 * a + cm * b
        out_c[dst + 1] = cp * a - c3 * b
    return out


@lru_cache(maxsize=4)
def _symbol(grid: GridSpec, inverse: bool) -> tuple:
    """Native-order :func:`_sigma_coeffs` of xi (alpha.D) or xi / |xi|^2 (A; zero at xi = 0)."""
    c = _coords(np.fft.ifftshift(grid.freq_axis))
    if inverse:
        r2 = _squared_norm(c)
        r2[0, 0, 0] = 1.0  # the numerators vanish at xi = 0, so A's symbol is zero there
        c = tuple(cj / r2 for cj in c)
    coeffs = _sigma_coeffs(*c)
    for cj in coeffs:
        cj.setflags(write=False)  # shared by every caller of the cache
    return coeffs


def _multiply(coeffs, values: np.ndarray) -> np.ndarray:
    """F^{-1} (sigma.c or alpha.c) F values over the box axes of an (N, N, N, w) field.

    The field is copied once into a component-major buffer for
    :func:`_multiply_planar`; ``values`` is left as it is.
    """
    return _multiply_planar(coeffs, np.moveaxis(values, -1, 0).astype(np.complex128, order="C"))


def _multiply_planar(coeffs, planar: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`_multiply` of a C-contiguous complex (w, N, N, N) buffer, which it overwrites.

    Each component is transformed in place, contracted with the symbol in
    place a block of planes at a time (``CONTRACT_BLOCK`` elements, at least
    one plane) and inverted in place, and the interleaved (N, N, N, w) result
    is written to ``out`` (a new array if none is given), which is returned.
    The contraction's scratch is one block, so for N > 16, given ``out`` (a
    Krylov basis row), no full-size buffer is allocated; for N <= 16 a block
    is the whole field.
    """
    for comp in planar:
        np.fft.fftn(comp, out=comp)
    coeffs = [np.broadcast_to(c, planar.shape[1:]) for c in coeffs]
    step = max(1, CONTRACT_BLOCK // planar[0, 0].size)
    for s in range(0, planar.shape[1], step):
        rows = slice(s, s + step)
        planar[:, rows] = _dot_contract([c[rows] for c in coeffs], planar[:, rows], axis=0)
    for comp in planar:
        np.fft.ifftn(comp, out=comp)
    if out is None:
        out = np.empty(planar.shape[1:] + planar.shape[:1], np.complex128)
    out[...] = np.moveaxis(planar, 0, -1)
    return out


def apply_h0(f: SpinorField) -> SpinorField:
    """alpha.D f via the exact multiplier alpha_dot(xi) on the frequency lattice."""
    _require_space(f, POSITION, "apply_h0")
    return SpinorField(f.grid, _multiply(_symbol(f.grid, False), f.values), POSITION)


def zero_mode_mass(f: SpinorField) -> float:
    """L^2 mass carried by the xi = 0 Fourier mode of a position-space field."""
    _require_space(f, POSITION, "zero_mode_mass")
    dft0 = np.linalg.norm(np.sum(f.values, axis=_AXES))  # the raw DFT at xi = 0 is the lattice sum
    return float(np.sqrt(f.grid.freq_cell_volume) * f.grid.cell_volume / _TWO_PI_32 * dft0)


def apply_a_spectral(f: SpinorField, warn_threshold: float = 1e-8) -> SpinorField:
    """A f via the multiplier invert_alpha_dot(xi); the xi = 0 mode is annihilated.

    Emits :class:`ZeroModeAnnihilationWarning` when the annihilated L^2 mass
    exceeds ``warn_threshold`` relative to ||f||_2 (``inf`` skips the check).
    """
    _require_space(f, POSITION, "apply_a_spectral")
    g = f.grid
    if warn_threshold < np.inf:
        killed, total = zero_mode_mass(f), l2_norm(f)
        if total > 0 and killed > warn_threshold * total:
            message = f"A annihilated the xi=0 mode: L2 mass {killed:.3e} ({killed / total:.2%} of the field)"
            warnings.warn(ZeroModeAnnihilationWarning(message, killed), stacklevel=2)
    return SpinorField(g, _multiply(_symbol(g, True), f.values), POSITION)


def apply_a_quadrature(f: SpinorField) -> SpinorField:
    """A f by summing the kernel over the primary box (no periodic images).

    (Af)(x) = h^3 sum_{y != x} (i/4pi) alpha_dot(x - y) / |x - y|^3 f(y); the
    y = x term is omitted (odd kernel: midpoint principal value).  The sum is
    one exact linear convolution on the zero-padded (2N)^3 lattice (FFT, the
    mode-wise matrix sum_j hat(K_j) alpha_j of K_j(z) = z_j / |z|^3, inverse FFT,
    crop), at O(N^3 log N) cost.
    """
    _require_space(f, POSITION, "apply_a_quadrature")
    g = f.grid

    def kernel(j):  # K_j(z) = z_j / |z|^3, made in place in the builder's scratch r2; the builder omits y = x
        return lambda z, r2: np.multiply(z[j], np.divide(1.0, np.multiply(r2, np.sqrt(r2), out=r2), out=r2), out=r2)

    kernel_hat = _sigma_coeffs(*(_padded_kernel_fft(g, kernel(j), real=False) for j in range(3)))
    out = _padded_convolve(f.values, lambda fhat, cols: _dot_contract([c[:, cols] for c in kernel_hat], fhat))
    return SpinorField(g, out * (1j / (4.0 * np.pi) * g.cell_volume), POSITION)


def verify_ah0_identity(f: SpinorField) -> float:
    """Relative error of A (alpha.D) f against f with its xi = 0 mode removed."""
    _require_space(f, POSITION, "verify_ah0_identity")
    spec = np.fft.fftn(f.values, axes=_AXES)
    spec[0, 0, 0] = 0.0  # xi = 0; unlike subtracting the mean, this leaves a constant exactly 0
    f0 = SpinorField(f.grid, np.fft.ifftn(spec, axes=_AXES, out=spec), POSITION)
    denom = l2_norm(f0)
    if denom == 0.0:
        raise ValueError("field has no nonzero Fourier mode besides xi = 0 (constant input)")
    composed = apply_a_spectral(apply_h0(f), warn_threshold=np.inf)
    return l2_norm(composed - f0) / denom


def verify_pairing_identity(g_field: SpinorField, phi: SpinorField) -> tuple[complex, complex]:
    """Both sides of the adjoint identity for A against a test field phi.

    ``phi`` lives on the dual lattice (space tag ``frequency``) and must
    vanish at the origin lattice point.  The left side transforms A g and
    pairs it with phi; the right side never applies A: it pairs the
    transform of g with the pointwise product invert_alpha_dot(w) phi(w).
    On the discrete lattice the two sides agree to rounding.
    """
    _require_space(g_field, POSITION, "verify_pairing_identity")
    if phi.space != FREQUENCY:
        raise ValueError("the test field phi must live on the dual (frequency) lattice")
    _require_same_grid(g_field, phi)
    grid = g_field.grid
    if np.any(phi.values[grid.origin_index] != 0):
        raise ValueError("test field must vanish at the origin lattice point")

    measure = grid.freq_cell_volume
    ag_hat = forward_fourier(apply_a_spectral(g_field, warn_threshold=np.inf))
    lhs = np.sum(ag_hat.values * np.conj(phi.values)) * measure

    g_hat = np.fft.ifftshift(forward_fourier(g_field).values, axes=_AXES)
    m_phi = _dot_contract(_symbol(grid, True), np.fft.ifftshift(phi.values, axes=_AXES))
    rhs = np.sum(g_hat * np.conj(m_phi)) * measure
    return complex(lhs), complex(rhs)


def symbol_product_max_deviation(grid: GridSpec) -> float:
    """max over xi != 0 of |alpha_dot(xi) invert_alpha_dot(xi) - I| (entrywise)."""
    xi = np.stack(np.broadcast_arrays(*_coords(grid.freq_axis)), axis=-1).reshape(-1, 3)
    n2 = np.einsum("mj,mj->m", xi, xi)
    keep = n2 > 0
    xi, n2 = xi[keep], n2[keep]
    stack = np.stack(ALPHA)  # (3, 4, 4)
    sym = np.einsum("mj,jab->mab", xi, stack)
    prod = np.einsum("mab,mbc->mac", sym, sym / n2[:, None, None])
    return float(np.max(np.abs(prod - np.eye(4))))
