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

import csv
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .field import POSITION, GridSpec, SpinorField, _padded_convolve, _padded_offsets
from .freeop import apply_a_spectral

__all__ = [
    "NwKernelSpec",
    "NormEstimate",
    "NormSweepReport",
    "nw_classify",
    "nw_apply",
    "estimate_norm",
    "scale_sweep",
    "lemma_a_conjugated_norm",
    "sweep_rows_to_csv",
]

STABILITY_THRESHOLD = 0.10  # "stable": top two scales within 10%
GROWTH_THRESHOLD = 0.50  # "growing": >= 50% overall increase
MONOTONE_SLACK = 0.02  # allowed non-monotonicity between consecutive scales


def _exactable(x) -> bool:
    return isinstance(x, (int, Rational)) and not isinstance(x, bool)


@dataclass(frozen=True)
class NwKernelSpec:
    """Exponents of the weighted convolution kernel; requires a + b > 0."""

    a: float | Fraction
    b: float | Fraction
    d: int = 3
    p: float | Fraction = 2

    def __post_init__(self):
        if not (self.a + self.b > 0):
            raise ValueError(f"kernel needs a + b > 0, got a={self.a}, b={self.b}")
        if not (1 < self.p < float("inf")):
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


def nw_classify(spec: NwKernelSpec) -> str:
    """'bounded' iff a < d/p and b < d/q (strict; exact for rational inputs)."""
    if _exactable(spec.a) and _exactable(spec.p):
        a_ok = Fraction(spec.a) < Fraction(spec.d) / Fraction(spec.p)
    else:
        a_ok = float(spec.a) < spec.d / float(spec.p)
    q = spec.q
    if _exactable(spec.b) and isinstance(q, Fraction):
        b_ok = Fraction(spec.b) < Fraction(spec.d) / q
    else:
        b_ok = float(spec.b) < spec.d / float(q)
    return "bounded" if (a_ok and b_ok) else "unbounded"


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


class _NwOperator:
    """K phi = h^3 |x|^{-a} (G * (|y|^{-b} phi)) with precomputed convolution FFT."""

    def __init__(self, spec: NwKernelSpec, grid: GridSpec):
        if spec.d != 3:
            raise ValueError("grid evaluation supports d = 3 only")
        self.spec = spec
        self.grid = grid
        r = _regularized_radius(grid)
        self.left = r ** (-float(spec.a))
        self.right = r ** (-float(spec.b))
        self.kernel_hat = _convolution_kernel_fft(grid, float(spec.convolution_exponent))

    def apply(self, phi: np.ndarray) -> np.ndarray:
        conv = _linear_convolve(self.kernel_hat, self.right * phi, self.grid.N)
        return self.grid.cell_volume * self.left * conv

    def apply_adjoint(self, phi: np.ndarray) -> np.ndarray:
        # Real symmetric convolution factor: adjoint swaps the weights.
        conv = _linear_convolve(self.kernel_hat, self.left * phi, self.grid.N)
        return self.grid.cell_volume * self.right * conv


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
    return _NwOperator(spec, grid).apply(phi)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    iterations: int
    converged: bool
    seed: int


def _power_iteration(apply_fwd, apply_adj, start, seed, iterations, rtol=1e-4) -> NormEstimate:
    """sqrt of the top eigenvalue of K^adj K by power iteration (L^2 operator norm).

    ``start`` is the seeded start vector; it becomes the iterate's buffer and
    is overwritten.  ``seed`` is only recorded.
    """
    v = start
    v /= np.linalg.norm(v)
    est_prev = 0.0
    converged = False
    used = 0
    for it in range(1, iterations + 1):
        u = apply_adj(apply_fwd(v))
        est = float(np.sqrt(max(np.real(np.vdot(v, u)), 0.0)))
        nu = np.linalg.norm(u)
        used = it
        if nu == 0.0:
            return NormEstimate(0.0, it, True, seed)
        np.divide(u, nu, out=v)
        if est_prev > 0 and abs(est - est_prev) <= rtol * est:
            converged = True
            est_prev = est
            break
        est_prev = est
    return NormEstimate(est_prev, used, converged, seed)


def _random_trials_norm(op: _NwOperator, p: float, seed: int, trials: int) -> NormEstimate:
    """Lower-bound proxy for p != 2: max ||K phi||_p / ||phi||_p over seeded trials."""
    rng = np.random.default_rng(seed)
    grid = op.grid
    h3 = grid.cell_volume
    best = 0.0
    mesh = grid.position_mesh
    for _ in range(trials):
        center = rng.uniform(-grid.L / 2, grid.L / 2, size=3)
        width = rng.uniform(0.5, grid.L / 2)
        phi = np.exp(-np.sum((mesh - center) ** 2, axis=-1) / (2 * width**2))
        phi += 0.1 * rng.standard_normal(phi.shape)
        num = (h3 * np.sum(np.abs(op.apply(phi)) ** p)) ** (1.0 / p)
        den = (h3 * np.sum(np.abs(phi) ** p)) ** (1.0 / p)
        best = max(best, num / den)
    return NormEstimate(best, trials, True, seed)


def estimate_norm(
    spec: NwKernelSpec, grid: GridSpec, iterations: int = 40, seed: int = 0
) -> NormEstimate:
    """Empirical L^p operator norm on the box.

    For p = 2 this is power iteration on K^T K (monotone nondecreasing in the
    iteration count, reproducible by seed).  For p != 2 it falls back to a
    documented lower-bound proxy: randomized trial-function maximization.
    """
    op = _NwOperator(spec, grid)
    if float(spec.p) == 2.0:
        start = np.random.default_rng(seed).standard_normal((grid.N,) * 3)
        return _power_iteration(op.apply, op.apply_adjoint, start, seed, iterations)
    return _random_trials_norm(op, float(spec.p), seed, trials=max(iterations, 8))


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

    def rows(self) -> list[dict]:
        return [
            {
                "a": str(self.spec.a),
                "b": str(self.spec.b),
                "d": self.spec.d,
                "p": str(self.spec.p),
                "scale": s,
                "norm_estimate": e.value,
                "iterations": e.iterations,
                "converged": e.converged,
                "growth_class": self.growth_class,
                "criterion_class": self.criterion_class,
            }
            for s, e in zip(self.scales, self.estimates)
        ]


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


def scale_sweep(
    spec: NwKernelSpec,
    scales,
    template: GridSpec,
    seed: int = 0,
    iterations: int = 40,
) -> NormSweepReport:
    """Norm estimates across box sizes at the template's fixed spacing h."""
    scales = [float(s) for s in scales]
    if len(scales) < 3 or any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("need at least three strictly increasing scales")
    h = template.h
    estimates = []
    for L in scales:
        n = 2.0 * L / h
        if abs(n - round(n)) > 1e-9 or round(n) % 2:
            raise ValueError(f"scale L={L} is not an even multiple of the template spacing {h}")
        grid = GridSpec(L, int(round(n)))
        estimates.append(estimate_norm(spec, grid, iterations, seed))
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


def lemma_a_conjugated_norm(t: float, grid: GridSpec, seed: int = 0, iterations: int = 40) -> NormEstimate:
    """Power-iteration norm of the weight-conjugated inverse operator <x>^{-t-1} A <x>^t.

    For t in [-1, 0] the kernel 1 / (4 pi <x>_reg^{t+1} |x-y|^2 <y>_reg^{-t})
    dominates it pointwise.  Evaluated with the module's |.|-regularized
    weights, its norm is ``estimate_norm(NwKernelSpec(a=t+1, b=-t), ...) /
    (4 pi)``; acceptance criterion 4's dominating-bound check computes that
    beside this estimate.
    """
    w_up = grid.bracket ** float(t)
    w_down = grid.bracket ** float(-t - 1.0)

    def conjugated(w_in: np.ndarray, w_out: np.ndarray):
        def apply(v: np.ndarray) -> np.ndarray:
            f = SpinorField(grid, (w_in[..., None] * v.reshape(grid.N, grid.N, grid.N, 4)), POSITION)
            return (w_out[..., None] * apply_a_spectral(f, warn_threshold=np.inf).values).ravel()

        return apply

    rng = np.random.default_rng(seed)
    n = grid.npoints * 4
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # A is self-adjoint, so the adjoint of w_down A w_up swaps the weights
    return _power_iteration(conjugated(w_up, w_down), conjugated(w_down, w_up), start, seed, iterations)


def sweep_rows_to_csv(reports, path, extra: dict | None = None) -> None:
    """One CSV row per (spec, scale)."""
    rows = []
    for rep in reports:
        for row in rep.rows():
            row.update(extra or {})
            rows.append(row)
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
