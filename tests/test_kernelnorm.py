import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from conftest import coordinate_mesh, traced_peak_bytes
from dirac_zero_lab import field
from dirac_zero_lab.field import make_grid
from dirac_zero_lab.kernelnorm import (
    NormEstimate,
    NwKernelSpec,
    _lp_norm,
    _nw_operator,
    _power_iteration,
    estimate_norm,
    lemma_a_conjugated_norm,
    nw_apply,
    nw_classify,
    scale_sweep,
)
from dirac_zero_lab.resonance import DEFAULT_SEED


# ---------------------------------------------------------------------------
# spec construction and classification
# ---------------------------------------------------------------------------


def test_spec_requires_positive_exponent_sum():
    with pytest.raises(ValueError, match="a \\+ b"):
        NwKernelSpec(a=1, b=-2)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 1e400, Fraction(10**400)])
def test_spec_requires_finite_exponents(bad):
    with pytest.raises(ValueError, match="must be finite"):
        NwKernelSpec(a=bad, b=1)
    with pytest.raises(ValueError, match="must be finite"):
        NwKernelSpec(a=1, b=bad)


def test_spec_requires_valid_lebesgue_exponent():
    with pytest.raises(ValueError):
        NwKernelSpec(a=1, b=1, p=1)
    with pytest.raises(ValueError):
        NwKernelSpec(a=1, b=1, p=float("inf"))
    with pytest.raises(ValueError):
        NwKernelSpec(a=1, b=1, p=Fraction(10**400))  # beyond the float range


def test_spec_dimension_must_be_positive_and_the_grid_three():
    with pytest.raises(ValueError, match="dimension must be positive"):
        NwKernelSpec(1, Fraction(1, 2), d=0)
    with pytest.raises(ValueError, match="d = 3 only"):  # a valid spec, but the lattice is three-dimensional
        estimate_norm(NwKernelSpec(1, Fraction(1, 2), d=2), make_grid(4.0, 8))


def test_dual_exponent():
    assert NwKernelSpec(a=1, b=1, p=2).q == Fraction(2)
    assert NwKernelSpec(a=1, b=1, p=Fraction(3, 2)).q == Fraction(3)
    assert NwKernelSpec(a=1, b=1, p=4.0).q == pytest.approx(4.0 / 3.0)


def test_classification_examples():
    assert nw_classify(NwKernelSpec(a=1, b=Fraction(1, 2), d=3, p=2)) == "bounded"
    assert nw_classify(NwKernelSpec(a=Fraction(3, 2), b=0, d=3, p=2)) == "unbounded"
    # the conjugated-operator kernel case at t = 0
    assert nw_classify(NwKernelSpec(a=1, b=0, d=3, p=2)) == "bounded"


def test_classification_boundary_is_exact_for_rationals():
    # a = d/p exactly fails the strict inequality
    assert nw_classify(NwKernelSpec(a=Fraction(3, 2), b=Fraction(1, 10), d=3, p=2)) == "unbounded"
    assert nw_classify(NwKernelSpec(a=Fraction(3, 2) - Fraction(1, 10**12), b=0, d=3, p=2)) == "bounded"
    assert nw_classify(NwKernelSpec(a=0, b=Fraction(3, 2), d=3, p=2)) == "unbounded"


@pytest.mark.parametrize("a", [Fraction(3, 2), 1.5])
@pytest.mark.parametrize("p", [2, 2.0])
def test_boundary_spellings_classify_alike(a, p):
    for spec in (NwKernelSpec(a=a, b=0, p=p), NwKernelSpec(a=0, b=a, p=p)):
        assert nw_classify(spec) == "unbounded"
        assert spec.on_boundary
    inside = NwKernelSpec(a=a - 0.5, b=a - 1, p=p)
    assert nw_classify(inside) == "bounded"
    assert not inside.on_boundary


# ---------------------------------------------------------------------------
# kernel application
# ---------------------------------------------------------------------------


def test_nw_apply_zero_function():
    g = make_grid(4.0, 8)
    out = nw_apply(NwKernelSpec(a=1, b=1), np.zeros((8, 8, 8)), g)
    assert np.all(out == 0.0)


def test_nw_apply_rejects_a_wrong_shape_or_non_finite_input():
    g = make_grid(4.0, 8)
    with pytest.raises(ValueError, match="expected scalar field of shape"):
        nw_apply(NwKernelSpec(a=1, b=1), np.zeros((8, 8, 8, 4)), g)
    phi = np.zeros((8, 8, 8))
    phi[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        nw_apply(NwKernelSpec(a=1, b=1), phi, g)


def test_nw_apply_positive_kernel_on_ball_indicator():
    g = make_grid(4.0, 8)
    spec = NwKernelSpec(a=0.25, b=0.25)  # |x-y| exponent 2.5, all factors positive
    phi = (g.radius2 < 1.0).astype(float)
    out = nw_apply(spec, phi, g)
    assert np.all(out > 0.0)


def test_nw_apply_symmetric_spec_transpose():
    g = make_grid(4.0, 8)
    spec = NwKernelSpec(a=0.7, b=0.7)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((8, 8, 8))
    psi = rng.standard_normal((8, 8, 8))
    h3 = g.cell_volume
    lhs = h3 * np.sum(nw_apply(spec, phi, g) * psi)
    rhs = h3 * np.sum(phi * nw_apply(spec, psi, g))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def nw_apply_direct(spec, phi, grid):
    """Reference N^6 direct summation of the kernel (small grids only)."""
    pts = coordinate_mesh(grid.axis).reshape(-1, 3)
    r = np.maximum(np.sqrt(np.einsum("mj,mj->m", pts, pts)), grid.h / 2.0)
    wl = r ** (-float(spec.a))
    wr = r ** (-float(spec.b))
    src = wr * np.asarray(phi).reshape(-1)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("xyj,xyj->xy", diff, diff)
    np.fill_diagonal(d2, 1.0)
    gmat = d2 ** (-float(spec.convolution_exponent) / 2.0)
    np.fill_diagonal(gmat, 0.0)
    out = grid.cell_volume * wl * (gmat @ src)
    return out.reshape(grid.N, grid.N, grid.N)


def test_nw_apply_matches_direct_sum():
    g = make_grid(4.0, 8)
    rng = np.random.default_rng(6)
    phi = rng.standard_normal((8, 8, 8))
    for spec in (NwKernelSpec(a=1, b=0.5), NwKernelSpec(a=2, b=1), NwKernelSpec(a=1.4, b=1.6)):
        fast = nw_apply(spec, phi, g)
        ref = nw_apply_direct(spec, phi, g)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_nw_apply_complex_input():
    g = make_grid(4.0, 8)
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
    spec = NwKernelSpec(a=1, b=0.5)
    fast = nw_apply(spec, phi, g)
    ref = nw_apply_direct(spec, phi, g)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------


def test_kernel_apply_holds_no_full_size_temporary(monkeypatch):
    # one apply at (32, 64) peaks in its column pass, holding the half spectrum, the (N, N, N)
    # result and each thread's column block: the input weight is applied per block of planes,
    # the axis-2 inverse is cropped out of the thread's scratch, and the output weight comes
    # after the convolution; a third column block covers numpy's FFT and ufunc buffers
    monkeypatch.setattr(field, "_allowed_cpus", lambda: 2)
    g = make_grid(32.0, 64)
    N, n = g.N, 2 * g.N
    apply, _ = _nw_operator(NwKernelSpec(a=1, b=Fraction(1, 2)), g)
    phi = np.random.default_rng(0).standard_normal((N,) * 3)
    apply(phi)  # numpy caches its FFT plans on first use
    half_bytes = N * n * (N + 1) * 16
    pad_bytes = n * field._BLOCK * (N + 1) * 16
    assert traced_peak_bytes(apply, phi) < half_bytes + N**3 * 8 + 3 * pad_bytes


def test_power_iteration_of_a_zero_operator_is_zero():
    def zero(v):
        return np.zeros_like(v)

    assert _power_iteration(zero, zero, np.ones((4, 4, 4)), 5) == NormEstimate(0.0, 1, True)


def test_lp_norm_of_a_zero_field_is_zero():
    assert _lp_norm(np.zeros((4, 4, 4)), 3.0, 0.125) == 0.0


def test_estimate_norm_monotone_in_iterations():
    g = make_grid(8.0, 16)
    spec = NwKernelSpec(a=1, b=Fraction(1, 2))
    e3 = estimate_norm(spec, g, iterations=3, seed=9).value
    e8 = estimate_norm(spec, g, iterations=8, seed=9).value
    e40 = estimate_norm(spec, g, iterations=40, seed=9).value
    assert e3 <= e8 * (1 + 1e-12)
    assert e8 <= e40 * (1 + 1e-12)


def test_estimate_norm_seed_invariance_at_convergence():
    g = make_grid(8.0, 16)
    spec = NwKernelSpec(a=1, b=Fraction(1, 2))
    a = estimate_norm(spec, g, iterations=60, seed=1).value
    b = estimate_norm(spec, g, iterations=60, seed=2).value
    assert abs(a - b) <= 0.05 * max(a, b)


def test_estimate_norm_reproducible():
    g = make_grid(8.0, 16)
    spec = NwKernelSpec(a=2, b=1)
    a = estimate_norm(spec, g, iterations=20, seed=3)
    b = estimate_norm(spec, g, iterations=20, seed=3)
    assert a.value == b.value
    assert a.iterations == b.iterations


@pytest.mark.parametrize("L, value", [(8, 21.139645992791632), (16, 23.989834632868398)])
def test_estimate_norm_frozen_on_the_sweep_grids(L, value):
    # nw-sweep's (1, 1/2) estimates at h = 1, pinned to the bit; N = 32 shares its passes with the helper
    est = estimate_norm(NwKernelSpec(a=1, b=Fraction(1, 2)), make_grid(float(L), 2 * L), seed=DEFAULT_SEED)
    assert est.value == value


def test_estimate_norm_overflow_in_a_shared_pass_is_value_error():
    # at N = 32 the first apply already shares its passes with the helper thread, which runs
    # under the caller's errstate: the overflow is the estimate's ValueError, with no RuntimeWarning
    with pytest.raises(ValueError, match="left the floating-point range"):
        estimate_norm(NwKernelSpec(a=100, b=1), make_grid(16.0, 32))


def test_two_estimates_at_once_match_the_serial_ones(monkeypatch):
    # both callers share the one helper thread; neither waits for a job of the other's
    spec, grid = NwKernelSpec(a=1, b=Fraction(1, 2)), make_grid(16.0, 32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            jobs = [pool.submit(estimate_norm, spec, grid, seed=seed) for seed in (1, 2)]
            together = [job.result(timeout=120) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(field, "_allowed_cpus", lambda: 1)
    assert together == [estimate_norm(spec, grid, seed=seed) for seed in (1, 2)]


@pytest.mark.parametrize("a, b", [(1e300, 1), (1, 1e300), (-1, 1e300), (1e300, -1)])
def test_kernel_out_of_float_range_is_value_error(a, b):
    # finite exponents whose weights or kernel table overflow: a ValueError, no RuntimeWarning
    g = make_grid(4.0, 8)
    with pytest.raises(ValueError, match="not finite on the grid"):
        estimate_norm(NwKernelSpec(a=a, b=b), g, seed=1)


def test_estimate_norm_huge_p_proxy_stays_finite():
    # |K phi|^p overflowed for p = 1e300; with the largest modulus factored out
    # the proxy is the sup-norm ratio
    g = make_grid(4.0, 8)
    est = estimate_norm(NwKernelSpec(a=1, b=Fraction(1, 2), p=1e300), g, iterations=8, seed=4)
    assert np.isfinite(est.value) and est.value > 0


def test_estimate_norm_p_not_two_proxy():
    g = make_grid(6.0, 12)
    spec = NwKernelSpec(a=1, b=Fraction(1, 2), p=3)
    est = estimate_norm(spec, g, iterations=8, seed=4)
    assert est.value > 0
    assert np.isfinite(est.value)
    again = estimate_norm(spec, g, iterations=8, seed=4)
    assert est.value == again.value


@pytest.mark.parametrize(
    "p, value",
    [(3, 17.798555416339838), (Fraction(3, 2), 13.614076435445304), (4.0, 22.06204889145584)],
)
def test_estimate_norm_p_not_two_proxy_frozen_values(p, value):
    # the proxy's Gaussian trial functions are built from the lattice coordinates; pinned to the bit
    est = estimate_norm(NwKernelSpec(a=1, b=Fraction(1, 2), p=p), make_grid(6.0, 12), iterations=8, seed=4)
    assert est.value == value


# ---------------------------------------------------------------------------
# scale sweeps
# ---------------------------------------------------------------------------


def test_scale_sweep_validates_inputs():
    spec = NwKernelSpec(a=1, b=1)
    with pytest.raises(ValueError, match="three"):
        scale_sweep(spec, [8, 16], 1.0)
    with pytest.raises(ValueError, match="multiple"):
        scale_sweep(spec, [8, 15.3, 32], 1.0)
    with pytest.raises(ValueError, match="increasing"):
        scale_sweep(spec, [8, 32, 16], 1.0)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0])
def test_scale_sweep_rejects_bad_spacing_before_any_estimate(monkeypatch, h):
    from dirac_zero_lab import kernelnorm

    def no_estimate(*args, **kwargs):
        raise AssertionError("a norm was estimated before the spacing was checked")

    monkeypatch.setattr(kernelnorm, "estimate_norm", no_estimate)
    with pytest.raises(ValueError, match="spacing h must be finite and positive"):
        scale_sweep(NwKernelSpec(a=1, b=1), [8, 16, 32], h)


def test_scale_sweep_checks_each_grid_before_any_estimate(monkeypatch):
    # at h = 1e-300 the scales are even multiples of h, but no grid has a finite-positive cell volume
    from dirac_zero_lab import kernelnorm

    monkeypatch.setattr(kernelnorm, "estimate_norm", lambda *a, **k: pytest.fail("estimated before the check"))
    with pytest.raises(ValueError, match="cell volume"):
        scale_sweep(NwKernelSpec(a=1, b=1), [2, 3, 4], 1e-300)


def test_scale_sweep_bounded_spec_is_stable():
    rep = scale_sweep(NwKernelSpec(a=1, b=Fraction(1, 2)), [8, 16, 32], 1.0, seed=11)
    assert rep.growth_class == "stable"
    assert rep.criterion_class == "bounded"
    assert rep.agreement == "agree"


def test_scale_sweep_unbounded_spec_grows():
    rep = scale_sweep(NwKernelSpec(a=2, b=1), [8, 16, 32], 1.0, seed=11)
    assert rep.growth_class == "growing"
    assert rep.criterion_class == "unbounded"
    assert rep.agreement == "agree"
    # measured: the top-scale estimate at least doubles the bottom one
    assert rep.norm_estimates[-1] >= 2.0 * rep.norm_estimates[0]


def test_scale_sweep_boundary_spec_inconclusive_is_acceptable():
    rep = scale_sweep(NwKernelSpec(a=Fraction(3, 2), b=0), [8, 16, 32], 1.0, seed=11)
    assert rep.criterion_class == "unbounded"
    assert rep.growth_class == "inconclusive"
    assert rep.agreement == "inconclusive"


# ---------------------------------------------------------------------------
# conjugated-norm estimates
# ---------------------------------------------------------------------------


def test_conjugated_norm_adjoint_symmetry():
    g = make_grid(8.0, 16)
    r0 = lemma_a_conjugated_norm(0.0, g, seed=5)
    r1 = lemma_a_conjugated_norm(-1.0, g, seed=5)
    # t = 0 and t = -1 give adjoint operators, hence equal norms (up to the
    # power-iteration stopping tolerance)
    assert r0.value == pytest.approx(r1.value, rel=1e-3)


def test_conjugated_norm_frozen_scale_profile():
    # measured profile at h = 1: slow saturation; drift stays well below the
    # t = 1/2 growth rate
    vals = []
    for L in (8.0, 16.0, 32.0):
        g = make_grid(L, int(2 * L))
        vals.append(lemma_a_conjugated_norm(0.0, g, seed=5).value)
    assert vals[0] == pytest.approx(0.797, abs=0.03)
    assert vals[1] == pytest.approx(0.973, abs=0.03)
    assert vals[2] == pytest.approx(1.125, abs=0.03)


def test_conjugated_norm_excluded_endpoint_grows():
    vals = []
    for L in (8.0, 16.0, 32.0):
        g = make_grid(L, int(2 * L))
        vals.append(lemma_a_conjugated_norm(0.5, g, seed=5).value)
    assert vals[-1] >= 1.5 * vals[0]
    assert vals[0] < vals[1] < vals[2]


def test_conjugated_norm_dominated_by_nw_kernel():
    g = make_grid(16.0, 32)
    for t in (-1.0, -0.5, 0.0):
        bound = estimate_norm(NwKernelSpec(a=t + 1.0, b=-t), g, 40, 5).value / (4.0 * np.pi)
        assert lemma_a_conjugated_norm(t, g, seed=5).value <= 1.10 * bound
