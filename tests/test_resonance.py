import dataclasses
import json

import numpy as np
import pytest

from dirac_zero_lab.field import (
    POSITION,
    SpinorField,
    l2_norm,
    make_grid,
    random_field,
)
from dirac_zero_lab.potential import PotentialField, from_em, loss_yau, loss_yau_potential
from dirac_zero_lab.resonance import (
    _birman_schwinger_matvec,
    _eigs,
    EigenReport,
    birman_schwinger_spectrum,
    classify_threshold_state,
    coupling_thresholds,
    decay_fit,
    decay_table_to_csv,
    default_shell_edges,
    eigenreport_to_json,
    find_zero_modes,
    fixed_point_subspace,
    mu_trend,
    real_eigenvalues,
    residual,
    subspace_overlap,
    weighted_derivative_identity_check,
)


def bracket_field(grid, exponent):
    vals = np.zeros((grid.N,) * 3 + (4,), dtype=complex)
    vals[..., 0] = (1.0 + grid.radius2) ** (exponent / 2.0)
    return SpinorField(grid, vals, POSITION)


@pytest.fixture(scope="module")
def spectrum_ly(q_ly16):
    return birman_schwinger_spectrum(q_ly16, k=6)


@pytest.fixture(scope="module")
def modes_ly(spectrum_ly, q_ly16):
    return fixed_point_subspace(spectrum_ly, 0.1, q_ly16)[1]


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_plane_wave_rejects_non_kernel_field(grid16):
    xi0 = (np.pi / 16.0) * np.array([1.0, 0.0, 0.0])
    phase = np.exp(1j * np.tensordot(grid16.position_mesh, xi0, axes=([-1], [0])))
    vals = phase[..., None] * np.array([1.0, 0.0, 0.0, 0.0])
    f = SpinorField(grid16, vals, POSITION)
    Q0 = from_em(None, None, grid16)
    # |alpha.xi0 v| = |xi0| |v| for every v, and |xi0| < 1 here
    assert residual(f, Q0) == pytest.approx(np.linalg.norm(xi0), rel=1e-10)


def test_residual_zero_field_rejected(grid16, q_ly16):
    zero = SpinorField(grid16, np.zeros((32, 32, 32, 4), dtype=complex))
    with pytest.raises(ValueError):
        residual(zero, q_ly16)


def test_residual_magnetic_mode_frozen_value(grid16, ly16, q_ly16, grid24, ly24):
    # Grid truth at h = 1: dominated by the undersampled unit-width core.
    r16 = residual(ly16.zero_mode, q_ly16)
    assert r16 == pytest.approx(0.515, abs=0.02)
    from dirac_zero_lab.potential import loss_yau_potential

    r24 = residual(ly24.zero_mode, loss_yau_potential(grid24))
    assert r24 < r16


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_spectrum_zero_potential(grid16):
    rep = birman_schwinger_spectrum(from_em(None, None, grid16), k=3)
    assert all(abs(lam) <= 1e-12 for lam in rep.eigenvalues)


def test_spectrum_magnetic_potential(spectrum_ly):
    lams = spectrum_ly.eigenvalues
    assert any(abs(lam - 1.0) <= 0.1 for lam in lams)
    # converged pairs carry small relative eigen-residuals
    assert all(r <= 1e-8 for r in spectrum_ly.residuals)
    # sorted by |lambda| descending
    mags = [abs(lam) for lam in lams]
    assert mags == sorted(mags, reverse=True)


def test_spectrum_deterministic(q_ly16, spectrum_ly):
    again = birman_schwinger_spectrum(q_ly16, k=6)
    assert np.allclose(again.eigenvalues, spectrum_ly.eigenvalues, rtol=1e-12, atol=1e-14)


def test_spectrum_scales_linearly(q_ly16, spectrum_ly):
    rep_half = birman_schwinger_spectrum(0.5 * q_ly16, k=6)
    for lam_h in rep_half.eigenvalues:
        best = min(abs(lam_h - 0.5 * lam) / abs(0.5 * lam) for lam in spectrum_ly.eigenvalues)
        assert best <= 1e-8


def test_spectrum_finds_both_doublet_copies(spectrum_ly, ly16):
    # the fixed point is twofold (the two chiral sectors); one sector solve gives both
    near = [i for i, lam in enumerate(spectrum_ly.eigenvalues) if abs(lam - 1.0) <= 0.1]
    assert len(near) >= 2
    fields = [spectrum_ly.eigenfields[i] for i in near]
    assert subspace_overlap(fields, ly16.zero_mode) >= 0.95


def _sector_of(fld):
    """0 for an embedded + sector field (u = l), 1 for a - sector field (u = -l)."""
    u, lower = fld.values[..., :2], fld.values[..., 2:]
    if np.array_equal(u, lower):
        return 0
    assert np.array_equal(u, -lower), "field is not a chiral embedding"
    return 1


def _potentials_8():
    g = make_grid(8.0, 16)
    scalar = -((1.0 + g.radius2) ** (-1.0))
    return g, {
        "+ copied": loss_yau_potential(g),
        "+ negated": from_em(scalar, None, g),
        "+-": from_em(0.5 * scalar, 0.3 * loss_yau(g).vector_potential, g),
    }


@pytest.mark.parametrize("sectors", ["+ copied", "+ negated", "+-"])
def test_sector_report_matches_four_spinor_reference(sectors):
    g, potentials = _potentials_8()
    Q = potentials[sectors]
    rep = birman_schwinger_spectrum(Q, k=6)
    assert rep.sectors == sectors
    assert rep.converged and all(r <= 1e-8 for r in rep.residuals)
    ref = _eigs(_birman_schwinger_matvec(Q), g.npoints * 4, 12, 20240301)[0]
    for lam in rep.eigenvalues:
        assert min(abs(lam - r) for r in ref) <= 1e-8
    # the pinned order: |lambda| descending, then Re lambda descending, then sector + before -
    keys = [(-abs(lam), -lam.real, _sector_of(f)) for lam, f in zip(rep.eigenvalues, rep.eigenfields)]
    assert keys == sorted(keys)


def test_sector_report_is_deterministic():
    _, potentials = _potentials_8()
    first = birman_schwinger_spectrum(potentials["+-"], k=6)
    again = birman_schwinger_spectrum(potentials["+-"], k=6)
    assert first.eigenvalues == again.eigenvalues
    assert first.iterations == again.iterations


def test_scalar_double_eigenvalue_reported_twice():
    # T- = -T+ for a scalar Q, and +-0.33196 are double; a single 4-spinor
    # Krylov solve at k=4 reported each once, then +-0.3284
    g = make_grid(8.0, 16)
    rep = birman_schwinger_spectrum(from_em(-((1.0 + g.radius2) ** (-1.0)), None, g), k=4)
    assert rep.sectors == "+ negated"
    for target in (0.33196, -0.33196):
        copies = [lam for lam in rep.eigenvalues if abs(lam - target) <= 1e-5]
        assert len(copies) == 2 and abs(copies[0] - copies[1]) <= 1e-8


def test_chirality_mixing_potential_takes_four_spinor_path():
    # beta = diag(1, 1, -1, -1) anticommutes with gamma5, so no chiral split applies
    g = make_grid(8.0, 16)
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    m = (1.0 + g.radius2) ** (-1.0)
    Q = PotentialField(g, 0.5 * (loss_yau_potential(g).values + m[..., None, None] * beta))
    rep = birman_schwinger_spectrum(Q, k=4)
    assert rep.sectors == "full"
    assert len(rep.eigenvalues) == 4
    assert rep.converged and all(r <= 1e-8 for r in rep.residuals)


def test_spectrum_rejects_bad_k(q_ly16):
    with pytest.raises(ValueError):
        birman_schwinger_spectrum(q_ly16, k=0)


# ---------------------------------------------------------------------------
# zero modes and thresholds
# ---------------------------------------------------------------------------


def test_find_zero_modes_zero_potential(grid16):
    assert find_zero_modes(from_em(None, None, grid16), tol=0.1) == []


def test_find_zero_modes_magnetic(modes_ly, q_ly16):
    from dirac_zero_lab.freeop import apply_a_spectral
    from dirac_zero_lab.potential import apply_potential

    assert len(modes_ly) >= 1
    for mode in modes_ly:
        # fixed-point consistency: T f ~ f and the direct residual agrees
        tf = -1.0 * apply_a_spectral(apply_potential(q_ly16, mode))
        assert l2_norm(tf - mode) / l2_norm(mode) <= 0.1  # the tol used in the search
        assert residual(mode, q_ly16) <= 1.0  # 10 * tol
        assert residual(mode, q_ly16) <= 0.1  # eigenfields are clean discrete modes


def test_find_zero_modes_small_scalar_amplitude(grid16):
    q = 0.1 * (1.0 + grid16.radius2) ** (-1.0)
    modes = find_zero_modes(from_em(q, None, grid16), tol=0.1, k=4)
    assert modes == []


def test_real_eigenvalues_reads_the_report_in_order():
    lams = [1 + 1j, 1 - 1j, -0.5 + 0.001j, 2.0 + 0j, 1e-9 + 0j, 0.3 + 0j]
    rep = EigenReport(lams, [], [], 0, True)
    # the complex pair and the value below 1e-8 max|lambda| are skipped; no sorting
    assert real_eigenvalues(rep) == [-0.5, 2.0, 0.3]
    assert real_eigenvalues(EigenReport([], [], [], 0, True)) == []


def test_rescaled_report_matches_second_solve():
    # the solve is covariant under Q -> c Q, so dividing the first report by
    # lambda_1 gives the zero modes of Q / lambda_1 without a second solve
    g = make_grid(8.0, 16)
    Q0 = from_em(-((1.0 + g.radius2) ** (-1.0)), None, g)
    rep = birman_schwinger_spectrum(Q0, k=4)
    lam1 = real_eigenvalues(rep)[0]
    Q = (1.0 / lam1) * Q0
    scaled = dataclasses.replace(
        rep,
        eigenvalues=[lam / lam1 for lam in rep.eigenvalues],
        residuals=[r / abs(lam1) for r in rep.residuals],
    )
    _, fields = fixed_point_subspace(scaled, 0.1, Q)
    direct = find_zero_modes(Q, tol=0.1, k=4)
    assert len(direct) >= 1
    assert len(fields) == len(direct)
    for mode in direct:
        assert subspace_overlap(fields, mode) >= 1.0 - 1e-10


def test_coupling_thresholds_magnetic(q_ly16):
    taus = coupling_thresholds(q_ly16, k=4)
    assert taus, "expected at least one real eigenvalue"
    assert abs(abs(taus[0]) - 1.0) <= 0.1


def test_coupling_thresholds_scale_with_amplitude(q_ly16):
    taus_half = coupling_thresholds(0.5 * q_ly16, k=4)
    assert abs(abs(taus_half[0]) - 2.0) <= 0.1


def test_coupling_thresholds_zero_potential(grid16):
    assert coupling_thresholds(from_em(None, None, grid16), k=3) == []


def test_fixed_point_subspace_overlap(spectrum_ly, ly16):
    ritz, fields = fixed_point_subspace(spectrum_ly, tol=0.1)
    assert len(fields) >= 1
    assert all(abs(v - 1.0) <= 0.1 for v in ritz)
    assert subspace_overlap(fields, ly16.zero_mode) >= 0.95


def test_subspace_overlap_basics(grid16, ly16):
    assert subspace_overlap([], ly16.zero_mode) == 0.0
    assert subspace_overlap([ly16.zero_mode], ly16.zero_mode) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------


def test_decay_fit_recovers_synthetic_exponents():
    g = make_grid(32.0, 64)
    for sigma0 in (1.5, 2.0, 3.0):
        fit = decay_fit(bracket_field(g, -sigma0))
        assert fit.sigma == pytest.approx(sigma0, abs=0.1)


def test_decay_fit_magnetic_mode(ly16):
    fit = decay_fit(ly16.zero_mode)
    assert fit.sigma == pytest.approx(2.0, abs=0.15)
    assert fit.stderr < 0.05


def test_decay_fit_flags_empty_outer_shells(grid16):
    vals = np.zeros((32, 32, 32, 4), dtype=complex)
    vals[..., 0] = np.where(grid16.radius2 < 1.0, 1.0, 0.0)
    f = SpinorField(grid16, vals, POSITION)
    with pytest.raises(ValueError, match="shell"):
        decay_fit(f)


def test_decay_fit_requires_enough_shells(ly16):
    with pytest.raises(ValueError, match="shells"):
        decay_fit(ly16.zero_mode, shells=[2.0, 4.0, 8.0])


def test_default_shell_edges_geometric(grid16):
    edges = default_shell_edges(grid16)
    assert edges[-1] == grid16.L
    assert len(edges) >= 5
    ratios = [b / a for a, b in zip(edges, edges[1:])]
    assert all(r == pytest.approx(np.sqrt(2.0), rel=1e-9) for r in ratios)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_magnetic_mode(ly16, q_ly16):
    cls = classify_threshold_state(ly16.zero_mode, q_ly16)
    assert cls.kind == "zero_mode"
    assert cls.sigma == pytest.approx(2.0, abs=0.15)
    assert cls.mu_check[0.4] == "finite-trend"
    assert cls.mu_check[0.45] == "finite-trend"


def test_classify_gate_rejects_mismatched_pair(grid16, q_ly16):
    # an oscillating <x>^{-1.2} profile is nowhere near the kernel of this
    # operator, so the residual gate trips
    k = (np.pi / 16.0) * np.array([10.0, 0.0, 0.0])
    phase = np.exp(1j * np.tensordot(grid16.position_mesh, k, axes=([-1], [0])))
    vals = np.zeros((32, 32, 32, 4), dtype=complex)
    vals[..., 0] = (1.0 + grid16.radius2) ** (-0.6) * phase
    fake = SpinorField(grid16, vals, POSITION)
    with pytest.raises(ValueError, match="gate"):
        classify_threshold_state(fake, q_ly16)


def test_mu_trend_diverges_past_half(ly16):
    # decay sharpness: mu = 0.6 sits outside the guaranteed range
    assert mu_trend(ly16.zero_mode, 0.4) == "finite-trend"
    assert mu_trend(ly16.zero_mode, 0.6) == "diverging"


# ---------------------------------------------------------------------------
# weighted derivative identity
# ---------------------------------------------------------------------------


def test_weighted_identity_collapses_at_mu_zero(grid16):
    f = random_field(grid16, seed=61, band_limit=1.5)
    assert weighted_derivative_identity_check(f, 0.0) <= 1e-12


def test_weighted_identity_gaussian_converges_with_n():
    errs = {}
    for N in (32, 64):
        g = make_grid(16.0, N)
        vals = np.zeros((N, N, N, 4), dtype=complex)
        vals[..., 0] = np.exp(-g.radius2 / 4.0)
        vals[..., 3] = 0.7 * np.exp(-g.radius2 / 6.0)
        errs[N] = weighted_derivative_identity_check(SpinorField(g, vals), 0.4)
    assert errs[32] <= 0.03  # measured 2.3e-2
    assert errs[64] <= 0.5 * errs[32]  # at least halves; spectral rate is much faster
    assert errs[64] <= 0.02


def test_weighted_identity_magnetic_mode_improves_with_n(ly16):
    err32 = weighted_derivative_identity_check(ly16.zero_mode, 0.4)
    g64 = make_grid(16.0, 64)
    from dirac_zero_lab.potential import loss_yau

    ly64 = loss_yau(g64)
    err64 = weighted_derivative_identity_check(ly64.zero_mode, 0.4)
    assert err32 <= 0.35  # measured 0.23 at h = 1
    assert err64 < err32


def test_weighted_identity_with_potential_substitution(ly16, q_ly16):
    # with Hf = 0 the substitution -Q f for alpha.D f holds up to the grid residual
    err = weighted_derivative_identity_check(ly16.zero_mode, 0.4, Q=q_ly16)
    assert err <= 0.6  # measured 0.42: bounded by the sampling error, stays finite


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_eigenreport_json_and_fields(tmp_path, spectrum_ly, ly16):
    path = tmp_path / "report.json"
    payload = eigenreport_to_json(
        spectrum_ly, path, field_dir=tmp_path / "fields", reference=ly16.zero_mode
    )
    on_disk = json.loads(path.read_text())
    assert on_disk["eigenvalues"] == payload["eigenvalues"]
    assert on_disk["sectors"] == "+ copied"
    assert on_disk["solve_s"] > 0.0
    assert len(on_disk["eigenfield_files"]) == len(spectrum_ly.eigenfields)
    assert len(on_disk["overlaps"]) == len(spectrum_ly.eigenfields)
    from dirac_zero_lab.field import load_field

    first = load_field(on_disk["eigenfield_files"][0])
    assert first.grid == spectrum_ly.eigenfields[0].grid


def test_decay_table_csv(tmp_path, ly16):
    fit = decay_fit(ly16.zero_mode)
    path = tmp_path / "decay.csv"
    decay_table_to_csv(fit, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("radius_inner")
    assert len(rows) == 1 + len(fit.masses)
