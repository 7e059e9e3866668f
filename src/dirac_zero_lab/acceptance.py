"""The acceptance suite: every release-gating check, runnable from pytest or the CLI.

Each criterion returns named checks with explicit tolerances, each with its
outcome and a detail that reports the measured value.  Scales and seeds are
fixed here so reruns are bit-for-bit reproducible.  Two checks are known to
fail on the pinned desk grids (quadrature agreement at 5%, Weyl residual at
0.05); the measured values are reported next to the bounds rather than
hidden.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import bootstrap as bs
from . import clifford, field, freeop, kernelnorm, potential, resonance

DEFAULT_SEED = resonance.DEFAULT_SEED
DEFAULT_L = 16.0
DEFAULT_N = 32

# the bounds of criteria 2 and 3's identity checks, which verify-freeop applies too
SYMBOL_PRODUCT_TOL = 1e-14
AH0_TOL = 1e-10
PAIRING_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class CriterionResult:
    index: int
    title: str
    checks: list[CheckResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed, detail: str) -> None:
        self.checks.append(CheckResult(name, bool(passed), detail))


# ---------------------------------------------------------------------------
# 1. Clifford algebra
# ---------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    res = CriterionResult(1, "Clifford algebra identities")
    rep = clifford.check_clifford()
    res.add("anticommutators exact", rep.max_deviation == 0.0, f"max deviation {rep.max_deviation}")
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_sq = worst_inv = 0.0
    eye = np.eye(4)
    for _ in range(100):
        v = rng.uniform(-5, 5, size=3)
        n2 = float(v @ v)
        m = clifford.alpha_dot(v)
        worst_sq = max(worst_sq, float(np.max(np.abs(m @ m - n2 * eye))) / n2)
        worst_inv = max(worst_inv, float(np.max(np.abs(m @ clifford.invert_alpha_dot(v) - eye))))
    res.add("(alpha.v)^2 = |v|^2 I over 100 seeded v", worst_sq <= 1e-14, f"max rel dev {worst_sq:.2e}")
    res.add("contraction inverse over 100 seeded v", worst_inv <= 1e-14, f"max dev {worst_inv:.2e}")
    return res


# ---------------------------------------------------------------------------
# 2. Inverse-operator identities (symbol, composition, quadrature)
# ---------------------------------------------------------------------------


def ah0_identity_worst(grid: field.GridSpec, seeds) -> float:
    """Largest :func:`freeop.verify_ah0_identity` error over mean-zero band-limited fields, one per seed."""
    worst = 0.0
    for s in seeds:
        f = field.random_field(grid, s, band_limit=2.0, mean_zero=True)
        worst = max(worst, freeop.verify_ah0_identity(f))
    return worst


def quadrature_gap(f: field.SpinorField) -> float:
    """||A_quad f - A_spec f|| / ||f||: the box quadrature against the periodic multiplier."""
    gap = freeop.apply_a_quadrature(f) - freeop.apply_a_spectral(f, warn_threshold=np.inf)
    return field.l2_norm(gap) / field.l2_norm(f)


def criterion_2() -> CriterionResult:
    res = CriterionResult(2, "Inverse operator: symbol, composition, quadrature")
    for N in (24, 32):
        grid = field.GridSpec(12.0, N)
        dev = freeop.symbol_product_max_deviation(grid)
        res.add(f"symbol product = I at xi != 0 (N={N})", dev <= SYMBOL_PRODUCT_TOL, f"max dev {dev:.2e}")

    grid = field.GridSpec(12.0, 24)
    worst = ah0_identity_worst(grid, range(DEFAULT_SEED, DEFAULT_SEED + 20))
    res.add("A(alpha.D) f = f on 20 mean-zero band-limited fields", worst <= AH0_TOL, f"max rel err {worst:.2e}")

    rels = {}
    for N in (24, 32):
        g = field.GridSpec(12.0, N)
        vals = np.zeros((N, N, N, 4), dtype=complex)
        vals[..., 0] = np.exp(-g.radius2)
        vals[..., 2] = 0.5 * np.exp(-1.2 * g.radius2)
        bump = field.SpinorField(g, vals, field.POSITION)
        rels[N] = quadrature_gap(bump)
        if N == 24:
            removed = freeop.zero_mode_mass(bump) / field.l2_norm(bump)
    res.add(
        "spectral vs quadrature on Gaussian bump <= 5% (L=12, N=24)",
        rels[24] <= 0.05,
        f"measured {rels[24]:.4f} (A drops {removed:.2%} of the bump's L2 mass at xi = 0); the quadrature "
        "converges to the continuum (Gauss-law error 0.020 at (12, 64)); the ~17% floor is the "
        "periodic multiplier's (see README)",
    )
    res.add("quadrature gap strictly smaller at N=32", rels[32] < rels[24], f"{rels[32]:.4f} < {rels[24]:.4f}")
    return res


# ---------------------------------------------------------------------------
# 3. Pairing identity
# ---------------------------------------------------------------------------


def annulus_test_field(grid: field.GridSpec, seed: int) -> field.SpinorField:
    rng = np.random.default_rng(seed)
    rho = np.sqrt(grid.freq_radius2)
    lo = 3.0 * grid.freq_step
    hi = 0.7 * rho.max()
    mask = (rho >= lo) & (rho <= hi)
    vals = (rng.standard_normal((grid.N,) * 3 + (4,)) + 1j * rng.standard_normal((grid.N,) * 3 + (4,)))
    vals *= mask[..., None]
    return field.SpinorField(grid, vals, field.FREQUENCY)


def pairing_discrepancy(grid: field.GridSpec, g_seed: int, phi_seed: int) -> float:
    """|lhs - rhs| / (|lhs| + |rhs| + ||g|| ||phi||) of the pairing identity, g random, phi an annulus field."""
    g = field.random_field(grid, g_seed)
    phi = annulus_test_field(grid, phi_seed)
    lhs, rhs = freeop.verify_pairing_identity(g, phi)
    scale = abs(lhs) + abs(rhs) + field.l2_norm(g) * field.l2_norm(phi)
    if scale == 0:
        raise ValueError(f"the pairing check's annulus test field is empty on the grid (L={grid.L}, N={grid.N})")
    return abs(lhs - rhs) / scale


def criterion_3() -> CriterionResult:
    res = CriterionResult(3, "Adjoint pairing identity")
    grid = field.GridSpec(12.0, 24)
    worst = 0.0
    for i in range(10):
        worst = max(worst, pairing_discrepancy(grid, DEFAULT_SEED + 100 + i, DEFAULT_SEED + 200 + i))
    res.add("two-sided agreement on 10 seeded pairs", worst <= PAIRING_TOL, f"max rel discrepancy {worst:.2e}")
    return res


# ---------------------------------------------------------------------------
# 4. Kernel-norm criterion vs empirical growth
# ---------------------------------------------------------------------------

NW_MATRIX = [
    ((1, Fraction(1, 2)), "bounded"),
    ((Fraction(1, 2), 1), "bounded"),
    ((1, 0), "bounded"),
    ((0, 1), "bounded"),
    ((2, 1), "unbounded"),
    ((1, 2), "unbounded"),
    ((2, 0), "unbounded"),
    ((0, 2), "unbounded"),
]
NW_BOUNDARY = [(Fraction(3, 2), 0), (0, Fraction(3, 2))]


def criterion_4() -> CriterionResult:
    res = CriterionResult(4, "Weighted-kernel boundedness: criterion vs growth")
    sweeps = {}
    for a, b in [spec for spec, _ in NW_MATRIX] + NW_BOUNDARY:
        spec = kernelnorm.NwKernelSpec(a=a, b=b, d=3, p=2)
        sweeps[a, b] = kernelnorm.scale_sweep(spec, [8, 16, 32], 1.0, seed=DEFAULT_SEED)

    agree = True
    details = []
    for (a, b), expected in NW_MATRIX:
        rep = sweeps[a, b]
        ok = rep.agreement == "agree" and rep.criterion_class == expected
        agree = agree and ok
        details.append(f"({a},{b})->{rep.growth_class}/{rep.criterion_class}")
    res.add("100% agreement on the 8-spec matrix", agree, "; ".join(details))

    boundary_ok = True
    bdetails = []
    for a, b in NW_BOUNDARY:
        rep = sweeps[a, b]
        ok = rep.criterion_class == "unbounded" and rep.growth_class in ("growing", "inconclusive")
        boundary_ok = boundary_ok and ok
        bdetails.append(f"({a},{b})->{rep.growth_class}")
    res.add("boundary specs classify unbounded; inconclusive growth allowed", boundary_ok, "; ".join(bdetails))

    # Conjugated-norm stability needs larger boxes before the estimates settle;
    # h = 2 keeps the largest grid affordable.
    lemma_scales = [8.0, 16.0, 32.0, 64.0]
    h = 2.0
    estimates = {}
    for t in (-1.0, 0.0, 0.5):
        vals = []
        for L in lemma_scales:
            g = field.GridSpec(L, int(2 * L / h))
            vals.append(kernelnorm.lemma_a_conjugated_norm(t, g, seed=DEFAULT_SEED).value)
        estimates[t] = vals
    for t in (-1.0, 0.0):
        drift = estimates[t][-1] / estimates[t][-2] - 1.0
        res.add(
            f"conjugated norm stable for t={t} (top drift <= 10%)",
            drift <= 0.10,
            f"estimates {[f'{v:.4f}' for v in estimates[t]]}, drift {drift:.2%}",
        )
    g_vals = estimates[0.5]
    drift_half = g_vals[-1] / g_vals[-2] - 1.0
    growing = drift_half > 0.10 and g_vals[-1] >= 1.4 * g_vals[0]
    res.add(
        "conjugated norm grows for t=1/2",
        growing,
        f"estimates {[f'{v:.4f}' for v in g_vals]}, top drift {drift_half:.2%}, "
        f"overall x{g_vals[-1] / g_vals[0]:.2f}",
    )

    grid16 = field.GridSpec(16.0, 32)
    dom_ok = True
    ddetails = []
    for t in (-1.0, -0.5, 0.0):
        a_est = kernelnorm.lemma_a_conjugated_norm(t, grid16, seed=DEFAULT_SEED).value
        # the kernel 1 / (4 pi <x>_reg^{t+1} |x-y|^2 <y>_reg^{-t}) dominates pointwise for t in [-1, 0]
        spec = kernelnorm.NwKernelSpec(a=t + 1.0, b=-t)
        # at t = -1 and t = 0 it is the (0, 1) and (1, 0) spec, swept above on this grid (scale 16) and seed
        swept = sweeps.get((spec.a, spec.b))
        nw = swept.norm_estimates[1] if swept else kernelnorm.estimate_norm(spec, grid16, seed=DEFAULT_SEED).value
        nw_est = nw / (4.0 * np.pi)
        dom_ok = dom_ok and a_est <= 1.10 * nw_est
        ddetails.append(f"t={t}: {a_est:.4f} <= 1.1*{nw_est:.4f}")
    res.add("dominating-kernel bound", dom_ok, "; ".join(ddetails))
    return res


# ---------------------------------------------------------------------------
# 5. Magnetic zero-mode example
# ---------------------------------------------------------------------------


def criterion_5() -> CriterionResult:
    res = CriterionResult(5, "Magnetic zero-mode example (sharpness witness)")
    grid = field.GridSpec(16.0, 32)
    ly = potential.loss_yau(grid)
    modulus = np.sqrt(np.sum(np.abs(ly.weyl_spinor) ** 2, axis=-1)) * grid.bracket**2
    dev = float(np.max(np.abs(modulus - 1.0)))
    res.add("|phi| <x>^2 = 1 at every grid point", dev <= 1e-12, f"max dev {dev:.2e}")

    wr16 = potential.weyl_residual(ly.weyl_spinor, ly.vector_potential, grid)
    grid24 = field.GridSpec(24.0, 48)
    ly24 = potential.loss_yau(grid24)
    wr24 = potential.weyl_residual(ly24.weyl_spinor, ly24.vector_potential, grid24)
    res.add(
        "Weyl residual <= 0.05 at (L=16, N=32)",
        wr16 <= 0.05,
        f"measured {wr16:.4f}; h=1 undersamples the unit-width core (see README)",
    )
    res.add("Weyl residual smaller at L=24", wr24 < wr16, f"{wr24:.4f} < {wr16:.4f}")

    fit = resonance.decay_fit(ly.zero_mode)
    res.add("decay fit sigma = 2.0 +- 0.15", abs(fit.sigma - 2.0) <= 0.15, f"sigma {fit.sigma:.3f}")

    w = grid.bracket
    dens = np.sum(np.abs(ly.zero_mode.values) ** 2, axis=-1) * w
    r = np.sqrt(grid.radius2)
    mask = (r >= 8.0) & (r < 16.0)
    mass = float(np.sum(dens[mask]) * grid.cell_volume)
    target = 4.0 * np.pi * np.log(2.0)
    res.add(
        "weighted shell mass [8,16) within 15% of 4 pi ln 2",
        abs(mass - target) <= 0.15 * target,
        f"{mass:.4f} vs {target:.4f}",
    )

    t04 = resonance.mu_trend(ly.zero_mode, 0.4)
    t06 = resonance.mu_trend(ly.zero_mode, 0.6)
    res.add("mu=0.4 weighted-H1 partial quantities finite-trend", t04 == "finite-trend", t04)
    res.add("mu=0.6 diverging", t06 == "diverging", t06)
    return res


# ---------------------------------------------------------------------------
# 6. Fixed-point spectrum
# ---------------------------------------------------------------------------


def criterion_6() -> CriterionResult:
    res = CriterionResult(6, "Fixed-point spectrum of -A Q")
    grid = field.GridSpec(DEFAULT_L, DEFAULT_N)
    ly = potential.loss_yau(grid)
    Q = potential.from_em(None, ly.vector_potential, grid)
    rep = resonance.birman_schwinger_spectrum(Q, k=6, seed=DEFAULT_SEED)
    near, fields = resonance.fixed_point_subspace(rep)
    res.add(
        f"eigenvalue within {resonance.ZERO_MODE_TOL} of 1",
        len(near) >= 1,
        f"eigenvalues {[f'{l.real:+.4f}{l.imag:+.4f}j' for l in rep.eigenvalues[:4]]}",
    )

    overlap = resonance.subspace_overlap(fields, ly.zero_mode)
    res.add(
        "eigenspace overlap with the magnetic zero mode >= 0.95",
        overlap >= 0.95 and len(fields) >= 1,
        f"subspace dim {len(fields)}, overlap {overlap:.4f} "
        "(twofold chiral pair: subspace projection)",
    )

    rep_half = resonance.birman_schwinger_spectrum(0.5 * Q, k=6, seed=DEFAULT_SEED)
    worst = 0.0
    for lam_h in rep_half.eigenvalues:
        best = min(abs(lam_h - 0.5 * lam) / abs(0.5 * lam) for lam in rep.eigenvalues)
        worst = max(worst, best)
    res.add("spectrum scales linearly in the amplitude", worst <= 1e-8, f"max matched dev {worst:.2e}")

    Q0 = potential.from_em(None, None, grid)
    zero_modes = resonance.zero_modes(resonance.birman_schwinger_spectrum(Q0, seed=DEFAULT_SEED), Q0)
    res.add("Q = 0 yields no zero modes", len(zero_modes) == 0, f"{len(zero_modes)} modes")

    amp = 0.1 * (1.0 + grid.radius2) ** (-1.0)
    Qs = potential.from_em(amp, None, grid)
    small_modes = resonance.zero_modes(resonance.birman_schwinger_spectrum(Qs, seed=DEFAULT_SEED), Qs)
    res.add("small scalar potential yields no zero modes", len(small_modes) == 0, f"{len(small_modes)} modes")
    return res


# ---------------------------------------------------------------------------
# 7. Exact decay-iteration traces
# ---------------------------------------------------------------------------


def _brute_force_trace(rho: Fraction) -> tuple[list[Fraction], int]:
    s = Fraction(-3, 2)
    steps = [s]
    n = 0
    while s + rho < Fraction(3, 2):  # next inverse-operator step admissible
        s = s + rho - 1
        n += 1
        steps.append(s)
    return steps, n


def criterion_7() -> CriterionResult:
    res = CriterionResult(7, "Exact decay-iteration traces")
    ok = True
    details = []
    for rho_s in ("8/5", "2", "3/2", "101/100"):
        rho = Fraction(rho_s)
        trace = bs.bootstrap_trace(rho)
        ref_steps, ref_n0 = _brute_force_trace(rho)
        match = list(trace.exponents()) == ref_steps and trace.n0 == ref_n0
        ok = ok and match
        details.append(f"rho={rho_s}: n0={trace.n0} boundary={trace.boundary_flag}")
    res.add("traces match brute-force enumeration exactly", ok, "; ".join(details))

    rng = np.random.default_rng(DEFAULT_SEED)
    prop_ok = True
    flag_ok = True
    for _ in range(100):
        den = int(rng.integers(2, 60))
        num = int(rng.integers(den + 1, 3 * den))  # rho in (1, 3)
        rho = Fraction(num, den)
        if rho <= 1 or rho >= 3:
            continue
        trace = bs.bootstrap_trace(rho)
        ref_steps, ref_n0 = _brute_force_trace(rho)
        prop_ok = prop_ok and trace.n0 == ref_n0 and list(trace.exponents()) == ref_steps
        largest = trace.n0 * (rho - 1) < 2 and (trace.n0 + 1) * (rho - 1) >= 2
        prop_ok = prop_ok and largest
        equality = Fraction(-3, 2) + trace.n0 * (rho - 1) + rho == Fraction(3, 2)
        flag_ok = flag_ok and (trace.boundary_flag == equality)
    res.add("n0 formula on 100 random rationals in (1,3)", prop_ok, "largest-n property verified")
    res.add("boundary flag is exactly the equality case", flag_ok, "checked on the same sample")
    return res


# ---------------------------------------------------------------------------
# 8. No-resonance property suite
# ---------------------------------------------------------------------------


def _admissible_family(grid: field.GridSpec):
    r2 = grid.radius2
    ly = potential.loss_yau(grid)
    yield "loss-yau", potential.from_em(None, ly.vector_potential, grid), False
    yield "scalar <x>^-2", potential.from_em(-((1.0 + r2) ** (-1.0)), None, grid), True
    yield "scalar <x>^-3", potential.from_em(-((1.0 + r2) ** (-1.5)), None, grid), True
    yield "em half-strength", potential.from_em(None, 0.5 * ly.vector_potential, grid), True
    yield "mixed em+scalar", potential.from_em(
        -0.5 * (1.0 + r2) ** (-1.0), 0.3 * ly.vector_potential, grid
    ), True


def _smooth_test_field(N: int) -> field.SpinorField:
    g = field.GridSpec(16.0, N)
    vals = np.zeros((N, N, N, 4), dtype=complex)
    vals[..., 0] = np.exp(-g.radius2 / 4.0)
    vals[..., 3] = 0.7 * np.exp(-g.radius2 / 6.0)
    return field.SpinorField(g, vals, field.POSITION)


def criterion_8() -> CriterionResult:
    res = CriterionResult(8, "No-resonance property suite")
    grid = field.GridSpec(DEFAULT_L, DEFAULT_N)
    kinds = []
    mu_ok = True
    any_modes = 0
    for name, Q0, rescale in _admissible_family(grid):
        rep = resonance.birman_schwinger_spectrum(Q0, k=4, seed=DEFAULT_SEED)
        lam1 = 1.0
        if rescale:
            reals = resonance.real_eigenvalues(rep)
            if not reals:
                kinds.append(f"{name}: no real eigenvalue")
                continue
            lam1 = reals[0]
        # The solve is covariant under Q -> c Q (criterion 6 checks it), so the
        # report of Q0 / lam1 is this one divided by lam1: no second solve.
        Q = (1.0 / lam1) * Q0
        scaled = dataclasses.replace(
            rep,
            eigenvalues=[lam / lam1 for lam in rep.eigenvalues],
            residuals=[r / abs(lam1) for r in rep.residuals],
        )
        modes = resonance.zero_modes(scaled, Q)
        any_modes += len(modes)
        for mode, resid in modes:
            cls = resonance.classify_threshold_state(mode, resid)
            kinds.append(f"{name}: {cls.kind} (sigma {cls.fit.sigma:.2f})")
            mu_ok = mu_ok and all(v == "finite-trend" for v in cls.mu_check.values())
    bad = [k for k in kinds if "resonance_candidate" in k or "inconclusive" in k]
    res.add(
        "every residual-gated state classifies zero_mode",
        not bad and any_modes > 0,
        "; ".join(kinds),
    )
    res.add("no resonance_candidate outcomes", not bad, f"{len(bad)} bad outcomes")
    res.add("mu < 1/2 weighted-H1 finite-trend on every detected mode", mu_ok, f"{any_modes} modes checked")

    err64 = resonance.weighted_derivative_identity_check(_smooth_test_field(64), 0.4)
    err32 = resonance.weighted_derivative_identity_check(_smooth_test_field(32), 0.4)
    res.add("weighted derivative identity <= 0.02 on smooth fields", err64 <= 0.02, f"err(N=64) {err64:.2e}")
    res.add("identity error at least halves when N doubles", err64 <= 0.5 * err32, f"{err32:.2e} -> {err64:.2e}")
    return res


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}
