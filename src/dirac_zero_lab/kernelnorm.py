"""Empirical operator-norm estimation for homogeneous-weight convolution kernels.

The kernel family is k(x, y) = |x|^{-a} |x-y|^{-(d-(a+b))} |y|^{-b} with the
exact boundedness criterion a < d/p and b < d/q.  The lab operationalizes
boundedness as stability of randomized L^2 norm estimates while the box
grows at fixed resolution, and divergence as monotone growth.

The kernel factors as weight * convolution * weight, so an application is
evaluated as an exact zero-padded linear convolution over the primary box,
equal to rounding to the N^6 direct sum (the tests hold that reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .field import GridSpec, _padded_convolve, _padded_offsets, _squared_norm
from .freeop import _multiply_planar, _symbol

__all__ = [
    "NwKernelSpec",
    "NormEstimate",
    "NormSweepReport",
    "nw_classify",
    "nw_apply",
    "estimate_norm",
    "scale_sweep",
    "lemma_a_conjugated_norm",
]

STABILITY_THRESHOLD = 0.10  # "stable": top two scales within 10%
GROWTH_THRESHOLD = 0.50  # "growing": >= 50% overall increase
MONOTONE_SLACK = 0.02  # allowed non-monotonicity between consecutive scales
POWER_ITERATIONS = 40  # iteration cap of every power-iteration norm estimate
POWER_RTOL = 1e-4  # power iteration stops once consecutive estimates agree to this


def _exactable(x) -> bool:
    return isinstance(x, (int, Rational)) and not isinstance(x, bool)


@dataclass(frozen=True)
class NwKernelSpec:
    """Exponents of the weighted convolution kernel; requires finite a, b with a + b > 0."""

    a: float | Fraction
    b: float | Fraction
    d: int = 3
    p: float | Fraction = 2

    def __post_init__(self):
        if not all(abs(x) <= np.finfo(float).max for x in (self.a, self.b)):
            raise ValueError(f"kernel exponents must be finite, got a={self.a}, b={self.b}")
        if not (self.a + self.b > 0):
            raise ValueError(f"kernel needs a + b > 0, got a={self.a}, b={self.b}")
        if not (1 < self.p <= np.finfo(float).max):
            raise ValueError(f"Lebesgue exponent must lie in (1, inf), got {self.p}")
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")

    @property
    def q(self):
        """Dual exponent p / (p - 1)."""
        if _exactable(self.p):
            return Fraction(self.p) / (Fraction(self.p) - 1)
        return self.p / (self.p - 1.0)

    @property
    def convolution_exponent(self):
        """Exponent of the |x - y| factor: d - (a + b)."""
        return self.d - (self.a + self.b)

    def _criterion_sides(self):
        """(a, d/p) and (b, d/q), as Fractions where both entries are rational, else as floats."""
        for x, dual in ((self.a, self.p), (self.b, self.q)):
            exact = _exactable(x) and _exactable(dual)
            yield (Fraction(x), Fraction(self.d) / Fraction(dual)) if exact else (float(x), self.d / float(dual))

    @property
    def on_boundary(self) -> bool:
        """a = d/p or b = d/q: the criterion's edge, where the sweep's growth may stay inconclusive."""
        return any(x == edge for x, edge in self._criterion_sides())


def nw_classify(spec: NwKernelSpec) -> str:
    """'bounded' iff a < d/p and b < d/q (strict; exact for rational inputs)."""
    return "bounded" if all(x < edge for x, edge in spec._criterion_sides()) else "unbounded"


def _regularized_radius(grid: GridSpec) -> np.ndarray:
    """|x| with lattice zeros replaced by h/2 (cell midpoint)."""
    r = np.sqrt(grid.radius2)
    return np.maximum(r, grid.h / 2.0)


def _convolution_kernel_fft(grid: GridSpec, exponent: float) -> np.ndarray:
    """rfftn of |z|^{-exponent} tabulated on the padded (2N)^3 offset lattice.

    The z = 0 entry is zeroed (diagonal omitted), matching the direct sum.
    """
    _, zz = _padded_offsets(grid)
    kernel = np.power(zz, -exponent / 2.0, out=zz)
    kernel[0, 0, 0] = 0.0  # diagonal omitted, whatever the exponent sign
    # rfftn's own axis order (2, then 1, then 0), with the complex axes in place
    spec = np.fft.rfft(kernel, axis=2)
    for axis in (1, 0):
        np.fft.fft(spec, axis=axis, out=spec)
    return spec


def _linear_convolve(kernel_hat: np.ndarray, psi: np.ndarray, N: int) -> np.ndarray:
    """Exact linear convolution sum_{y in box} K[x - y] psi[y] via zero padding."""
    if np.iscomplexobj(psi):
        return _linear_convolve(kernel_hat, psi.real, N) + 1j * _linear_convolve(
            kernel_hat, psi.imag, N
        )
    # In place: a second (2N)^3 spectrum would raise the peak memory.
    return _padded_convolve(psi, N, lambda psi_hat: np.multiply(psi_hat, kernel_hat, out=psi_hat))


def _nw_operator(spec: NwKernelSpec, grid: GridSpec):
    """(apply, adjoint) of K phi = h^3 |x|^{-a} (G * (|y|^{-b} phi)), with G's FFT computed once."""
    if spec.d != 3:
        raise ValueError("grid evaluation supports d = 3 only")
    r = _regularized_radius(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # a weight or table out of float range is reported below
        left = r ** (-float(spec.a))
        right = r ** (-float(spec.b))
        kernel_hat = _convolution_kernel_fft(grid, float(spec.convolution_exponent))
    if not all(np.isfinite(x).all() for x in (left, right, kernel_hat)):
        raise ValueError(f"the kernel of a={spec.a}, b={spec.b} is not finite on the grid (L={grid.L}, N={grid.N})")
    h3 = grid.cell_volume

    # The convolution runs first, so no h^3-weight temporary is alive at its peak memory.
    def apply(phi: np.ndarray) -> np.ndarray:
        conv = _linear_convolve(kernel_hat, right * phi, grid.N)
        return h3 * left * conv

    def adjoint(phi: np.ndarray) -> np.ndarray:
        # Real symmetric convolution factor: adjoint swaps the weights.
        conv = _linear_convolve(kernel_hat, left * phi, grid.N)
        return h3 * right * conv

    return apply, adjoint


def nw_apply(spec: NwKernelSpec, phi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the kernel to a scalar lattice function.

    Evaluates h^3 sum_{y != x} k(x, y) phi(y) with |x|, |y| regularized at
    h/2, as an exact padded convolution (equal to the direct sum to rounding).
    """
    phi = np.asarray(phi)
    if phi.shape != (grid.N, grid.N, grid.N):
        raise ValueError(f"expected scalar field of shape {(grid.N,) * 3}, got {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("input function must be finite")
    apply, _ = _nw_operator(spec, grid)
    return apply(phi)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    iterations: int
    converged: bool


def _power_iteration(apply_fwd, apply_adj, start, iterations) -> NormEstimate:
    """sqrt of the top eigenvalue of K^adj K by power iteration (L^2 operator norm).

    ``start`` is the seeded start vector; it becomes the iterate's buffer and
    is overwritten.
    """
    v = start
    v /= np.linalg.norm(v)
    est_prev = 0.0
    for it in range(1, iterations + 1):
        u = apply_adj(apply_fwd(v))
        est = float(np.sqrt(max(np.real(np.vdot(v, u)), 0.0)))
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return NormEstimate(0.0, it, True)
        np.divide(u, nu, out=v)
        if est_prev > 0 and abs(est - est_prev) <= POWER_RTOL * est:
            return NormEstimate(est, it, True)
        est_prev = est
    return NormEstimate(est_prev, iterations, False)


def _lp_norm(x: np.ndarray, p: float, h3: float) -> float:
    """(h^3 sum |x|^p)^{1/p}, with the largest modulus factored out so that no power overflows."""
    modulus = np.abs(x)
    top = float(modulus.max())
    if top == 0.0:
        return 0.0
    return top * (h3 * np.sum((modulus / top) ** p)) ** (1.0 / p)


def _random_trials_norm(apply, grid: GridSpec, p: float, seed: int, trials: int) -> NormEstimate:
    """Lower-bound proxy for p != 2: max ||K phi||_p / ||phi||_p over seeded trials."""
    rng = np.random.default_rng(seed)
    h3 = grid.cell_volume
    best = 0.0
    for _ in range(trials):
        center = rng.uniform(-grid.L / 2, grid.L / 2, size=3)
        width = rng.uniform(0.5, grid.L / 2)
        phi = np.exp(-_squared_norm([x - c for x, c in zip(grid.coords, center)]) / (2 * width**2))
        phi += 0.1 * rng.standard_normal(phi.shape)
        best = max(best, _lp_norm(apply(phi), p, h3) / _lp_norm(phi, p, h3))
    return NormEstimate(best, trials, True)


def estimate_norm(
    spec: NwKernelSpec, grid: GridSpec, iterations: int = POWER_ITERATIONS, seed: int = 0
) -> NormEstimate:
    """Empirical L^p operator norm on the box.

    For p = 2 this is power iteration on K^T K (monotone nondecreasing in the
    iteration count, reproducible by seed).  For p != 2 it falls back to a
    documented lower-bound proxy: randomized trial-function maximization.
    """
    apply, adjoint = _nw_operator(spec, grid)
    if float(spec.p) == 2.0:
        start = np.random.default_rng(seed).standard_normal((grid.N,) * 3)
        return _power_iteration(apply, adjoint, start, iterations)
    return _random_trials_norm(apply, grid, float(spec.p), seed, trials=max(iterations, 8))


@dataclass(frozen=True)
class NormSweepReport:
    spec: NwKernelSpec
    scales: tuple[float, ...]
    estimates: tuple[NormEstimate, ...]
    growth_class: str  # stable | growing | inconclusive
    criterion_class: str  # bounded | unbounded
    agreement: str  # agree | disagree | inconclusive

    @property
    def norm_estimates(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.estimates)


def _classify_growth(estimates: list[float]) -> str:
    last, prev = estimates[-1], estimates[-2]
    stable = abs(last - prev) <= STABILITY_THRESHOLD * max(prev, 1e-300)
    overall = estimates[0] > 0 and last >= (1 + GROWTH_THRESHOLD) * estimates[0]
    monotone = all(
        b >= a * (1 - MONOTONE_SLACK) for a, b in zip(estimates, estimates[1:])
    )
    if stable:
        return "stable"
    if overall and monotone:
        return "growing"
    return "inconclusive"


def scale_sweep(spec: NwKernelSpec, scales, h: float, seed: int = 0) -> NormSweepReport:
    """Norm estimates across box sizes at the fixed lattice spacing h.

    h and every scale are checked before the first estimate: h finite and
    positive; each scale finite, positive, larger than the one before it, an
    even multiple of h, at least 2h (4 points per axis) and a valid grid.
    """
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"lattice spacing h must be finite and positive, got {h}")
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError(f"need at least three strictly increasing scales, got {len(scales)}")
    points = []
    for prev, L in zip([0.0, *scales], scales):
        if not (np.isfinite(L) and L > prev):
            need = "positive" if prev == 0.0 else f"larger than the scale {prev} before it (strictly increasing)"
            raise ValueError(f"scale L={L} must be finite and {need}")
        n = 2.0 * L / h
        if not np.isfinite(n) or abs(n - round(n)) > 1e-9 or round(n) % 2 or round(n) < 4:
            raise ValueError(f"scale L={L} is not an even multiple of the spacing {h}, or is below 2h")
        GridSpec(L, round(n))  # the grid's own checks, before any estimate
        points.append(round(n))
    # a grid caches its radii, so each one is built only for its own estimate
    estimates = [estimate_norm(spec, GridSpec(L, n), seed=seed) for L, n in zip(scales, points)]
    growth = _classify_growth([e.value for e in estimates])
    criterion = nw_classify(spec)
    if growth == "inconclusive":
        agreement = "inconclusive"
    elif (growth == "stable") == (criterion == "bounded"):
        agreement = "agree"
    else:
        agreement = "disagree"
    return NormSweepReport(
        spec=spec,
        scales=tuple(scales),
        estimates=tuple(estimates),
        growth_class=growth,
        criterion_class=criterion,
        agreement=agreement,
    )


def lemma_a_conjugated_norm(t: float, grid: GridSpec, seed: int = 0) -> NormEstimate:
    """Power-iteration norm of the weight-conjugated inverse operator <x>^{-t-1} A <x>^t.

    For t in [-1, 0] the kernel 1 / (4 pi <x>_reg^{t+1} |x-y|^2 <y>_reg^{-t})
    dominates it pointwise.  Evaluated with the module's |.|-regularized
    weights, its norm is ``estimate_norm(NwKernelSpec(a=t+1, b=-t), ...) /
    (4 pi)``; acceptance criterion 4's dominating-bound check compares the
    two.
    """
    w_up = grid.bracket ** float(t)
    w_down = grid.bracket ** float(-t - 1.0)
    symbol = _symbol(grid, True)
    shape = (grid.N, grid.N, grid.N, 4)

    def conjugated(w_in: np.ndarray, w_out: np.ndarray):
        def apply(v: np.ndarray) -> np.ndarray:
            # w_in v goes straight into the component-major buffer that A transforms
            planar = np.empty((4,) + shape[:3], np.complex128)
            np.multiply(w_in, np.moveaxis(v.reshape(shape), -1, 0), out=planar)
            return (w_out[..., None] * _multiply_planar(symbol, planar)).ravel()

        return apply

    rng = np.random.default_rng(seed)
    n = grid.npoints * 4
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # A is self-adjoint, so the adjoint of w_down A w_up swaps the weights
    return _power_iteration(conjugated(w_up, w_down), conjugated(w_down, w_up), start, POWER_ITERATIONS)
