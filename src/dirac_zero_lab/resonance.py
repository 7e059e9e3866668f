"""Zero-mode detection and threshold classification.

A zero mode of alpha.D + Q is a fixed point of T = -A (Q .), so the search
looks for eigenvalue one of T by matrix-free restarted Arnoldi solves.  When
Q commutes with gamma5 = [[0, I], [I, 0]] (every q I - alpha.A does), T
splits into two chiral 2-spinor (Weyl) blocks T+- = -+S (a +- b), S =
(sigma.D)^{-1}: one solve serves both sectors of a purely magnetic Q (copied)
or a purely scalar Q (negated), any other such Q takes two half-size solves,
and a Q that mixes chiralities is solved on 4-spinors.  Detected states are
classified by a fitted pointwise decay exponent and by the trend of
weighted-H^1 partial quantities across two box sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .field import (
    POSITION,
    GridSpec,
    SpinorField,
    _pointwise_square,
    _require_space,
    l2_norm,
    restrict_to_subbox,
    sobolev_norm,
)
from .freeop import _dot_contract, _multiply_planar, _sigma_coeffs, _symbol, apply_h0
from .potential import PotentialField, apply_potential

__all__ = [
    "EigenReport",
    "format_eigenvalue",
    "DecayFit",
    "ThresholdClassification",
    "residual",
    "birman_schwinger_spectrum",
    "fixed_point_subspace",
    "zero_modes",
    "subspace_overlap",
    "real_eigenvalues",
    "decay_fit",
    "default_shell_edges",
    "shell_masses",
    "mu_trend",
    "classify_threshold_state",
    "weighted_derivative_identity_check",
]

ARNOLDI_TOL = 1e-8
ARNOLDI_MAX_ITER = 500
ARNOLDI_MIN_BASIS = 20  # the Krylov basis holds max(2k + 1, this) vectors; chosen by measurement, see README
RESTART_BLOCK = 4096  # basis columns a thick restart rotates at once
ZERO_MODE_TOL = 0.1
DEFAULT_SEED = 20240301  # the seeded start vector of every solve
SIGMA_MARGIN = 0.1  # zero_mode needs sigma >= 3/2 + margin
MU_GROWTH_THRESHOLD = 0.10  # finite-trend: partial quantity grows <= 10% from L/2 to L
MU_CHECKS = (0.4, 0.45)  # the weights mu < 1/2 whose trends a classification reports
RESIDUAL_GATE = 0.75  # classification gate on residual(f, Q)
SHELL_RATIO = np.sqrt(2.0)  # outer / inner radius of each default decay-fit shell
REAL_EIGENVALUE_TOL = 0.05  # |Im| / |lambda| below this counts as real


def residual(f: SpinorField, Q: PotentialField) -> float:
    """|| (alpha.D) f + Q f ||_2 / max(||f||_2, ||(alpha.D) f||_2)."""
    norm_f = l2_norm(f)
    if norm_f == 0.0:
        raise ValueError("residual of the zero field is undefined")
    h0f = apply_h0(f)
    scale = max(norm_f, l2_norm(h0f))
    h0f.values += apply_potential(Q, f).values
    return l2_norm(h0f) / scale


def _sector_matvec(grid: GridSpec, m: np.ndarray):
    """T v = -S (m v) on chiral 2-spinors, S = (sigma.D)^{-1} the 2-spinor block of A.

    A 4x4 ``m`` acts on 4-spinors instead, where T v = -A (m v).  The product
    -m v is written straight into a component-major buffer that every call
    reuses and :func:`freeop._multiply_planar` transforms, and ``v`` is only
    read.  ``matvec(v, out=row)`` writes T v into ``row`` and allocates no
    full-size buffer; without ``out`` it returns a new array.
    """
    width = m.shape[-1]
    shape = (grid.N, grid.N, grid.N, width)
    symbol = _symbol(grid, True)
    # (a, N, N, N, b): -m v comes out component-major; the negation commutes exactly with the products and the FFT
    m = np.negative(np.moveaxis(m, -2, 0), order="C")
    planar = np.empty((width,) + shape[:3], np.complex128)

    def matvec(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        np.einsum("a...b,...b->a...", m, v.reshape(shape), out=planar)
        result = np.empty(shape, np.complex128) if out is None else out.reshape(shape)
        return _multiply_planar(symbol, planar, result).ravel()

    return matvec


def _eigs(matvec, n: int, k: int, seed: int, tol: float = ARNOLDI_TOL, max_iter: int = ARNOLDI_MAX_ITER):
    """Top-k (by modulus) eigenpairs of the n x n operator ``matvec`` by thick-restart Arnoldi.

    ``matvec(v, out=row)`` writes the operator's image of ``v`` into the basis row ``row``.

    An ncv-step Arnoldi factorization from a seeded complex vector; pair
    theta of H converges when |beta y_ncv| <= tol max(|theta|, eps^(2/3)),
    as in ARPACK.  Until the top k all pass, the (ncv + k) // 2 leading Ritz
    vectors are kept and extended again (Krylov-Schur restart, Stewart 2001).
    Returns (eigenvalues, eigenvector columns, stats); after ``max_iter``
    restarts, only the converged pairs.  ``stats`` holds the solve's counters
    under their :class:`EigenReport` names: the matvecs (``iterations``), the
    thick restarts, the converged pairs (``nconv``) and whether all k
    converged, the seconds spent in the matvecs (``matvec_s``), in
    Gram-Schmidt and normalization (``gram_schmidt_s``) and in the Ritz steps,
    restarts and final rotation (``restart_s``), and the number of DGKS
    second Gram-Schmidt passes (``dgks_passes``).  A non-finite Krylov vector
    (an overflowing operator) raises ValueError.
    """
    rng = np.random.default_rng(seed)
    m = min(max(2 * k + 1, ARNOLDI_MIN_BASIS), n - 1)
    V = np.empty((m + 1, n), dtype=np.complex128)  # the basis, one vector per row
    H = np.zeros((m + 1, m), dtype=np.complex128)
    V[0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V[0] /= np.linalg.norm(V[0])
    scratch = np.empty(n, dtype=np.complex128)  # conj(w), then the projection c V[:j]
    stats = {"iterations": 0, "restarts": 0, "nconv": 0, "converged": False, "matvec_s": 0.0, "gram_schmidt_s": 0.0,
             "restart_s": 0.0, "dgks_passes": 0}

    def orthogonalize(w, j):
        """Gram-Schmidt of w against V[:j], again if DGKS asks: (coefficients, norm, 0 if w was in their span)."""
        with np.errstate(over="ignore"):  # an overflowing operator is reported here, not warned about
            start = np.linalg.norm(w)
        if not np.isfinite(start):
            raise ValueError(f"the operator returned a Krylov vector of norm {start}; is the potential too large?")
        h, beta = np.zeros(j, dtype=np.complex128), start
        for second in range(2):
            stats["dgks_passes"] += second
            c = np.conj(V[:j] @ np.conj(w, out=scratch))
            w -= np.matmul(c, V[:j], out=scratch)
            h, prev, beta = h + c, beta, np.linalg.norm(w)
            if beta >= 0.717 * prev:
                break
        return h, beta if beta > 64 * np.finfo(float).eps * start else 0.0

    def rotate(C):
        """V[:c] = C^T V[:m] in place, a block of columns at a time: no second basis."""
        for s in range(0, n, RESTART_BLOCK):
            V[: C.shape[1], s : s + RESTART_BLOCK] = C.T @ V[:m, s : s + RESTART_BLOCK]

    p = 0
    for stats["restarts"] in range(max_iter):
        for j in range(p, m):
            started = time.perf_counter()
            matvec(V[j], out=V[j + 1])  # then orthogonalized and normalized in place
            stats["iterations"] += 1
            multiplied = time.perf_counter()
            H[: j + 1, j], H[j + 1, j] = orthogonalize(V[j + 1], j + 1)
            beta = H[j + 1, j].real
            if beta == 0:  # an invariant subspace (T rank-deficient, say): go on as ARPACK's getv0 does
                V[j + 1] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                orthogonalize(V[j + 1], j + 1)
                beta = np.linalg.norm(V[j + 1])
            V[j + 1] /= beta
            stats["matvec_s"] += multiplied - started
            stats["gram_schmidt_s"] += time.perf_counter() - multiplied
        started = time.perf_counter()
        theta, Y = np.linalg.eig(H[:m])
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, Y = theta[order], Y[:, order]
        ok = np.abs(H[m] @ Y[:, :k]) <= tol * np.maximum(np.abs(theta[:k]), np.finfo(float).eps ** (2 / 3))
        if ok.all() or stats["restarts"] == max_iter - 1:
            ritz = Y[:, :k][:, ok]
            rotate(ritz)
            # keeps the Ritz rows and frees the rest; no view of V outlives rotate, and the reference
            # check would refuse the V that a tracer's frame-locals snapshot holds (cProfile, pdb, coverage)
            V.resize((ritz.shape[1], n), refcheck=False)
            stats["restart_s"] += time.perf_counter() - started
            stats["nconv"], stats["converged"] = ritz.shape[1], bool(ok.all())
            return theta[:k][ok], V.T, stats
        p = (m + k) // 2
        Qp = np.linalg.qr(Y[:, :p])[0]
        H[:p, :p], H[p, :p], H[p + 1 :], H[:, p:] = Qp.conj().T @ H[:m] @ Qp, H[m] @ Qp, 0.0, 0.0
        rotate(Qp)
        V[p] = V[m]
        stats["restart_s"] += time.perf_counter() - started


def format_eigenvalue(lam: complex) -> str:
    """``+1.0000-0.5000j``: four decimals a part, and a part that rounds to zero as ``+0.0000``, never ``-0.0000``."""
    real, imag = ("+0.0000" if part == "-0.0000" else part for part in (f"{lam.real:+.4f}", f"{lam.imag:+.4f}"))
    return f"{real}{imag}j"


def _pinned_order(x, y) -> int:
    """Report order of candidates (lambda, sector, ...); parts that agree to ARNOLDI_TOL |lambda| are tied."""
    tie = ARNOLDI_TOL * max(abs(x[0]), abs(y[0]))  # no finer than the solver resolves a multiple eigenvalue
    for a, b in ((abs(x[0]), abs(y[0])), (x[0].real, y[0].real), (x[0].imag, y[0].imag)):
        if abs(a - b) > tie:
            return -1 if a > b else 1
    return x[1] - y[1]


@dataclass
class EigenReport:
    """Top eigenpairs of the fixed-point operator, in the order of :func:`birman_schwinger_spectrum`.

    ``residuals`` holds ||T f - lambda f||_2 / ||f||_2 per reported pair (the
    solver's test is the |lambda|-relative form, which makes the spectrum
    exactly covariant under Q -> c Q).  ``sectors`` says what was solved
    ("+ copied", "+ negated", "+-", "full", or "none" for Q = 0), ``solve_s``
    the whole call's wall time.  The other fields are the solver's counters
    (see :func:`_eigs`): ``converged`` if every sector solved converged, and
    the matvecs (``iterations``), thick restarts, converged pairs (``nconv``),
    phase times and DGKS passes summed over the sectors.  eigenreport.json
    holds every field but ``eigenfields``.
    """

    eigenvalues: list[complex]
    eigenfields: list[SpinorField]
    residuals: list[float]
    iterations: int
    converged: bool
    sectors: str = "full"
    solve_s: float = 0.0
    restarts: int = 0
    nconv: int = 0
    matvec_s: float = 0.0
    gram_schmidt_s: float = 0.0
    restart_s: float = 0.0
    dgks_passes: int = 0

    @property
    def shortfall(self) -> str:
        """``solver stopped short: K converged pairs after R restarts``, or "" if every pair converged."""
        if self.converged:
            return ""
        return f"solver stopped short: {self.nconv} converged pairs after {self.restarts} restarts"


def birman_schwinger_spectrum(Q: PotentialField, k: int = 6, seed: int = DEFAULT_SEED) -> EigenReport:
    """Top-k eigenpairs of T f = -A (Q f), solved on chiral 2-spinor sectors where Q allows.

    In the Dirac representation gamma5 = [[0, I], [I, 0]] commutes with every
    alpha_j, hence with A.  If Q commutes with it too (exactly: Q = [[a, b],
    [b, a]] in 2x2 blocks, as for every q I - alpha.A of ``from_em``), T is
    block diagonal on the chiral components f+- = (u +- l)/sqrt(2) of
    f = (u, l), with T+- = -+S (a +- b) and S = (sigma.D)^{-1}:

    - a = 0 (purely magnetic): T- = T+, so one solve of T+ gives both copies
      of every eigenvalue (``sectors="+ copied"``);
    - b = 0 (purely scalar): T- = -T+, so one solve of T+ is negated for the
      - sector (``"+ negated"``);
    - otherwise both sectors are solved (``"+-"``).

    A Q that mixes chiralities (a file potential with a beta-type term, say)
    is solved on 4-spinors (``"full"``).  Every solve is one numpy
    thick-restart Arnoldi run (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001)
    at the full ``k`` <= n - 2, matrix-free, from a seeded complex start
    vector, so the result is deterministic for a fixed seed.  Convergence is
    judged on the relative residual ||T v - lambda v|| / |lambda| <=
    ARNOLDI_TOL, which makes the reported spectrum exactly covariant under
    scaling Q -> c Q; ARNOLDI_MAX_ITER bounds the restarts.  The sector
    pairs are merged in one pinned order (|lambda| descending; ties to
    ARNOLDI_TOL |lambda| by Re lambda, then Im lambda descending, then sector +
    before -), trimmed to k, and only the kept ones are embedded back as
    u = (f+ + f-)/sqrt(2), l = (f+ - f-)/sqrt(2).  A multiple eigenvalue that comes from the two
    sectors is thus reported with its multiplicity, which a single Krylov
    solve finds only through rounding.  If the solver stops before every
    pair converges, the converged pairs are returned with ``converged=False``.
    """
    started = time.perf_counter()
    grid = Q.grid
    blocks = Q.chiral_blocks()
    width = 4 if blocks is None else 2
    if not 1 <= k <= grid.npoints * width - 2:
        raise ValueError(f"need 1 <= k <= {grid.npoints * width - 2} eigenpairs on this grid, got k = {k}")
    # A view (solve, eigenvalue sign, lower-component sign) reports a solve's pairs
    # in one sector; lower sign 0 marks a 4-spinor solve, whose vectors are used as they are.
    if blocks is None:  # Q != 0, since 0 commutes with gamma5
        sectors, solves, views = "full", [_sector_matvec(grid, Q.values)], [(0, 1, 0)]
    else:
        a, b = blocks
        if not np.any(a):
            if not np.any(b):
                return EigenReport([], [], [], 0, True, "none")  # Q = 0, so T = 0: nothing to solve
            sectors, solves, views = "+ copied", [_sector_matvec(grid, b)], [(0, 1, 1), (0, 1, -1)]
        elif not np.any(b):
            sectors, solves, views = "+ negated", [_sector_matvec(grid, a)], [(0, 1, 1), (0, -1, -1)]
        else:
            sectors = "+-"
            solves = [_sector_matvec(grid, a + b), _sector_matvec(grid, b - a)]  # T- = S (a - b) = -S (b - a)
            views = [(0, 1, 1), (1, 1, -1)]
        del blocks, a, b  # each sector matvec holds its own negated component-major copy
    values, vectors, stats = zip(*(_eigs(matvec, grid.npoints * width, k, seed) for matvec in solves))

    ranked = sorted(
        (
            (sign * complex(lam), order, solve, col, lower)
            for order, (solve, sign, lower) in enumerate(views)
            for col, lam in enumerate(values[solve])
        ),
        key=cmp_to_key(_pinned_order),
    )[:k]
    eigenvalues, eigenfields, resids = [], [], []
    solve_residual = {}  # the copied or negated view of a pair has the same residual
    for lam, _, solve, col, lower in ranked:
        vec = vectors[solve][:, col] / np.linalg.norm(vectors[solve][:, col])
        if (solve, col) not in solve_residual:
            lam_solve = complex(values[solve][col])
            solve_residual[solve, col] = float(np.linalg.norm(solves[solve](vec) - lam_solve * vec))
        vec = vec.reshape(grid.N, grid.N, grid.N, width)
        if lower:
            vec = np.concatenate((vec, lower * vec), axis=-1)
        fld = SpinorField(grid, vec, POSITION)
        eigenvalues.append(lam)
        eigenfields.append((1.0 / l2_norm(fld)) * fld)
        resids.append(solve_residual[solve, col])
    counters = {key: sum(s[key] for s in stats) for key in stats[0]}  # summed over the sectors solved
    counters.update(converged=all(s["converged"] for s in stats), solve_s=time.perf_counter() - started)
    return EigenReport(eigenvalues, eigenfields, resids, sectors=sectors, **counters)


def fixed_point_subspace(report: EigenReport) -> tuple[list[complex], list[SpinorField]]:
    """The Ritz pairs of ``report`` with |lambda - 1| <= ZERO_MODE_TOL.

    Near the fixed point the discrete operator often carries a multifold
    eigenvalue, e.g. the two chiral copies of a Weyl zero mode; individual
    eigenvectors are then not unique while the invariant subspace is, so the
    returned fields should be compared against references by subspace
    projection, not one-by-one.
    """
    pairs = [(lam, fld) for lam, fld in zip(report.eigenvalues, report.eigenfields) if abs(lam - 1.0) <= ZERO_MODE_TOL]
    return [lam for lam, _ in pairs], [fld for _, fld in pairs]


def zero_modes(report: EigenReport, Q: PotentialField) -> list[tuple[SpinorField, float]]:
    """The zero-mode filter: (f, residual(f, Q)) for each fixed-point field f with that residual <= 10 ZERO_MODE_TOL."""
    pairs = ((fld, residual(fld, Q)) for fld in fixed_point_subspace(report)[1])
    return [(fld, res) for fld, res in pairs if res <= 10.0 * ZERO_MODE_TOL]


def subspace_overlap(fields, reference: SpinorField) -> float:
    """|| P_span reference ||_2 / || reference ||_2 for a list of spanning fields."""
    basis = []
    for fld in fields:
        v = fld.values.ravel().copy()
        for b in basis:
            v -= np.vdot(b, v) * b
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            basis.append(v / nv)
    if not basis:
        return 0.0
    r = reference.values.ravel()
    r = r / np.linalg.norm(r)
    return float(np.sqrt(sum(abs(np.vdot(b, r)) ** 2 for b in basis)))


def real_eigenvalues(report: EigenReport) -> list[float]:
    """Real parts of the report's (numerically) real, nonzero eigenvalues, in report order.

    Real: |Im lambda| <= REAL_EIGENVALUE_TOL |lambda|; nonzero: |lambda| > 1e-8 max |lambda|.
    """
    if not report.eigenvalues:
        return []
    floor = max(1e-8 * max(abs(lam) for lam in report.eigenvalues), 1e-300)
    return [
        lam.real
        for lam in report.eigenvalues
        if abs(lam) > floor and abs(lam.imag) <= REAL_EIGENVALUE_TOL * abs(lam)
    ]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay exponent sigma in |f| ~ <x>^{-sigma} from shell masses."""

    sigma: float
    stderr: float
    slope: float
    edges: tuple[float, ...]
    masses: tuple[float, ...]


def default_shell_edges(grid: GridSpec) -> list[float]:
    """Geometric shell edges, in steps of SHELL_RATIO, from ~2h out to the box half-width."""
    start = max(2.0 * grid.h, 1.0)
    edges = [grid.L]
    while edges[-1] / SHELL_RATIO > start:
        edges.append(edges[-1] / SHELL_RATIO)
    return sorted(edges)


def shell_masses(grid: GridSpec, density: np.ndarray, edges) -> tuple[list[float], list[int]]:
    """Per shell R_k <= |x| < R_{k+1} of ``edges``: sum density h^3, and the number of lattice points."""
    r = np.sqrt(grid.radius2)
    masses, counts = [], []
    for a, b in zip(edges, edges[1:]):
        mask = (r >= a) & (r < b)
        masses.append(float(np.sum(density[mask]) * grid.cell_volume))
        counts.append(int(np.count_nonzero(mask)))
    return masses, counts


def decay_fit(f: SpinorField, shells=None) -> DecayFit:
    """Fit log shell mass against log radius; mass(R..2R) ~ R^{3 - 2 sigma}.

    ``shells``: at least 5 strictly increasing, nonnegative edges within the box corner (default_shell_edges).
    """
    _require_space(f, POSITION, "decay_fit")
    edges = list(shells) if shells is not None else default_shell_edges(f.grid)
    if len(edges) < 5:
        raise ValueError(f"need at least 4 shells (5 edges), got {len(edges) - 1}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("shell edges must be strictly increasing")
    if edges[0] < 0:
        raise ValueError("shell edges must be nonnegative")
    rmax = f.grid.L * np.sqrt(3.0)
    if edges[-1] > rmax * (1 + 1e-12):
        raise ValueError(f"outermost edge {float(edges[-1])} exceeds the box corner radius {rmax:.6g}")
    masses, counts = shell_masses(f.grid, _pointwise_square(f.values), edges)
    if 0 in counts:
        raise ValueError(f"empty shells at indices {tuple(i for i, c in enumerate(counts) if c == 0)}")
    dead = [i for i, m in enumerate(masses) if m <= 0]
    if dead:
        raise ValueError(f"zero-mass shells at indices {dead}; decay fit is undefined")
    radii = [float(np.sqrt(a * b)) for a, b in zip(edges[:-1], edges[1:])]  # geometric mean of each shell's edges
    logs_r = np.log(np.array(radii))
    logs_m = np.log(np.array(masses))
    coeffs, cov = np.polyfit(logs_r, logs_m, 1, cov=True)
    slope = float(coeffs[0])
    slope_err = float(np.sqrt(cov[0, 0]))
    return DecayFit(
        sigma=(3.0 - slope) / 2.0,
        stderr=slope_err / 2.0,
        slope=slope,
        edges=tuple(edges),
        masses=tuple(masses),
    )


@dataclass(frozen=True)
class ThresholdClassification:
    kind: str  # zero_mode | resonance_candidate | inconclusive | unclassified
    fit: DecayFit | None  # None when unclassified
    mu_check: dict
    reason: str = ""  # why the state is unclassified


def _h1_partial_quantity(f: SpinorField, mu: float) -> float:
    """|| <xi> F(<x>^mu f) ||_2 on the field's own box."""
    w = f.grid.bracket ** mu
    weighted = SpinorField(f.grid, w[..., None] * f.values, POSITION)
    return sobolev_norm(weighted, 1.0)


def mu_trend(f: SpinorField, mu: float) -> str:
    """Compare the weighted-H^1 partial quantity on the L/2 sub-box and the full box."""
    sub = restrict_to_subbox(f)
    p_small = _h1_partial_quantity(sub, mu)
    p_full = _h1_partial_quantity(f, mu)
    if p_small == 0:
        return "finite-trend" if p_full == 0 else "diverging"
    return "finite-trend" if p_full <= (1.0 + MU_GROWTH_THRESHOLD) * p_small else "diverging"


def classify_threshold_state(f: SpinorField, res: float) -> ThresholdClassification:
    """Zero-mode / resonance-candidate call from decay plus weighted-norm trends.

    ``res`` is the state's residual(f, Q), as :func:`zero_modes` returns it.
    sigma > 3/2 within margin is the L^2-membership proxy (zero mode); decay
    consistent with the borderline space but not L^2 flags a resonance
    candidate, which the no-resonance property suite treats as a failure to
    investigate.  The mu trends are those of MU_CHECKS.  A state that cannot
    be classified is ``unclassified``, with no fit, no trends and the reason:
    a residual over RESIDUAL_GATE, too few, empty or zero-mass decay shells,
    or an N that :func:`mu_trend`'s half box cannot halve.  A field not in
    position space is a usage error: ``ValueError``, before the gate.
    """
    _require_space(f, POSITION, "classify_threshold_state")
    if res > RESIDUAL_GATE:
        reason = (
            f"residual {res:.3g} exceeds the classification gate {RESIDUAL_GATE}; "
            "the field is not close to a kernel state of this potential"
        )
        return ThresholdClassification("unclassified", None, {}, reason)
    try:
        fit = decay_fit(f)
        checks = {mu: mu_trend(f, mu) for mu in MU_CHECKS}
    except ValueError as exc:
        return ThresholdClassification("unclassified", None, {}, str(exc))
    if fit.sigma >= 1.5 + SIGMA_MARGIN:
        kind = "zero_mode"
    elif fit.sigma > 1.5 - SIGMA_MARGIN:
        kind = "inconclusive"
    else:
        kind = "resonance_candidate"
    return ThresholdClassification(kind=kind, fit=fit, mu_check=checks)


def weighted_derivative_identity_check(f: SpinorField, mu: float) -> float:
    """Relative defect of the weighted-derivative identity on the grid.

    Compares alpha.D applied to <x>^mu f against
    -i mu (alpha.x) <x>^{mu-2} f + <x>^mu (alpha.D f).
    """
    grid = f.grid
    w = grid.bracket ** mu
    weighted = SpinorField(grid, w[..., None] * f.values, POSITION)
    lhs = apply_h0(weighted)

    alpha_x = _sigma_coeffs(*grid.coords)
    first = _dot_contract(alpha_x, f.values)
    first *= -1j * mu * (grid.bracket ** (mu - 2.0))[..., None]
    second = w[..., None] * apply_h0(f).values
    rhs = SpinorField(grid, first + second, POSITION)
    denom = max(l2_norm(lhs), l2_norm(rhs))
    if denom == 0:
        return 0.0
    return l2_norm(lhs - rhs) / denom
