import dataclasses
from functools import cmp_to_key

import numpy as np
import pytest

from conftest import coordinate_mesh, traced_peak_bytes
from dirac_zero_lab.clifford import ALPHA
from dirac_zero_lab.field import (
    POSITION,
    SpinorField,
    l2_norm,
    make_grid,
    random_field,
)
from dirac_zero_lab.freeop import _dot_contract, _symbol
from dirac_zero_lab.potential import PotentialField, from_em, loss_yau, loss_yau_potential
from dirac_zero_lab import acceptance, resonance
from dirac_zero_lab.resonance import (
    ARNOLDI_TOL,
    _eigs,
    _pinned_order,
    _sector_matvec,
    EigenReport,
    birman_schwinger_spectrum,
    classify_threshold_state,
    decay_fit,
    default_shell_edges,
    fixed_point_subspace,
    mu_trend,
    real_eigenvalues,
    residual,
    subspace_overlap,
    weighted_derivative_identity_check,
    zero_modes,
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
    return zero_modes(spectrum_ly, q_ly16)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_plane_wave_rejects_non_kernel_field(grid16):
    xi0 = (np.pi / 16.0) * np.array([1.0, 0.0, 0.0])
    phase = np.exp(1j * np.tensordot(coordinate_mesh(grid16.axis), xi0, axes=([-1], [0])))
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


def _assert_pinned_order(rep):
    """|lambda| descending; parts within ARNOLDI_TOL |lambda| tie, then Re, Im descending, sector + before -."""
    rows = [(lam, _sector_of(f)) for lam, f in zip(rep.eigenvalues, rep.eigenfields)]
    for (x, sx), (y, sy) in zip(rows, rows[1:]):
        tie = ARNOLDI_TOL * max(abs(x), abs(y))
        for a, b in ((abs(x), abs(y)), (x.real, y.real), (x.imag, y.imag)):
            if abs(a - b) > tie:
                assert a > b, (x, y)
                break
        else:
            assert sx <= sy, (x, y)


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
    ref = _eigs(_sector_matvec(g, Q.values, 1), g.npoints * 4, 12, 20240301)[0]
    for lam in rep.eigenvalues:
        assert min(abs(lam - r) for r in ref) <= 1e-8
    _assert_pinned_order(rep)


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
    # a chiral sector at N = 4 has n = 2 * 64 unknowns, and the solver needs k <= n - 2
    g = make_grid(4.0, 4)
    assert len(birman_schwinger_spectrum(loss_yau_potential(g), k=126).eigenvalues) == 126
    with pytest.raises(ValueError, match="k <= 126"):
        birman_schwinger_spectrum(loss_yau_potential(g), k=127)


def _random_block(g, width, seed):
    """A strided width x width block of a random 4x4 lattice matrix field, as _chiral_blocks returns."""
    rng = np.random.default_rng(seed)
    shape = (g.N,) * 3 + (4, 4)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[..., :width, :width]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("width", [2, 4])
def test_sector_matvec_is_bit_identical_to_joint_transform(width, sign):
    # T v = -sign S (m v), S the inverse symbol: the sign folded into m gives the
    # bits of an interleaved einsum, one joint transform pair and an explicit negation
    g = make_grid(6.0, 12)
    m = _random_block(g, width, seed=width)
    rng = np.random.default_rng(sign + 2)
    v = rng.standard_normal(g.npoints * width) + 1j * rng.standard_normal(g.npoints * width)
    mv = np.einsum("...ab,...b->...a", m, v.reshape((g.N,) * 3 + (width,)))
    ref = np.fft.ifftn(_dot_contract(_symbol(g, True), np.fft.fftn(mv, axes=(0, 1, 2))), axes=(0, 1, 2))
    ref = ref.ravel()
    if sign > 0:
        ref = np.negative(ref)
    assert np.array_equal(_sector_matvec(g, m, sign)(v), ref)


@pytest.mark.parametrize("width", [2, 4])
def test_sector_matvec_leaves_its_argument_alone(width):
    # the transforms run in place, but never on the caller's Krylov row
    g = make_grid(4.0, 8)
    n = g.npoints * width
    rng = np.random.default_rng(width)
    V = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    before = V.copy()
    out = _sector_matvec(g, _random_block(g, width, seed=5), 1)(V[1])
    assert np.array_equal(V, before)
    assert out.shape == (n,) and out.flags.c_contiguous


# ---------------------------------------------------------------------------
# the thick-restart Arnoldi solver, against independent references
# ---------------------------------------------------------------------------


def _nonnormal(n, seed, lead=()):
    """U T U^H with T upper triangular: eigenvalues on the diagonal (``lead`` first, the rest in the unit disk)."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    diag[: len(lead)] = lead
    T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) / np.sqrt(n)
    T[np.diag_indices(n)] = diag
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return U @ T @ U.conj().T


def test_eigs_dense_nonnormal_matches_eigvals():
    A = _nonnormal(300, 0)
    ref = np.linalg.eigvals(A)
    ref = ref[np.argsort(-np.abs(ref))][:6]
    vals, vecs, _, converged, _ = _eigs(lambda v: A @ v, 300, 6, 1, tol=1e-12)
    assert converged and len(vals) == 6
    for lam in ref:
        assert np.min(np.abs(vals - lam)) <= 1e-10 * abs(lam)
    for lam, vec in zip(vals, vecs.T):
        assert np.linalg.norm(A @ vec - lam * vec) <= 1e-11 * abs(lam) * np.linalg.norm(vec)


def test_eigs_rank_deficient_operator():
    # the Krylov space is exhausted after a few steps; the solve goes on from fresh vectors
    rng = np.random.default_rng(3)
    n = 200
    U, W = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)) for _ in range(2))
    B = U @ np.diag([2.0, -1.0 + 0.5j, 0.3j]) @ W.conj().T / n
    vals, vecs, _, converged, _ = _eigs(lambda v: B @ v, n, 6, 1)
    assert converged and len(vals) == 6
    ref = np.linalg.eigvals(B)
    ref = ref[np.argsort(-np.abs(ref))][:3]
    assert np.allclose(vals[:3], ref, rtol=1e-10, atol=0)
    assert np.all(np.abs(vals[3:]) <= 1e-12)
    for lam, vec in zip(vals, vecs.T):
        assert np.linalg.norm(B @ vec - lam * vec) / np.linalg.norm(vec) <= 1e-12


def test_eigs_stopped_early_returns_only_converged_pairs():
    # two well-separated leading eigenvalues above a clustered bulk: one cycle converges only 3
    A = _nonnormal(300, 4, lead=(3.0, -2.0))
    vals, vecs, matvecs, converged, restarts = _eigs(lambda v: A @ v, 300, 6, 1, max_iter=1)
    assert not converged and restarts == 0 and matvecs == 30
    assert 1 <= len(vals) < 6 and vecs.shape == (300, len(vals))
    assert abs(vals[0] - 3.0) <= 1e-10
    for lam, vec in zip(vals, vecs.T):
        assert np.linalg.norm(A @ vec - lam * vec) <= 2e-8 * abs(lam) * np.linalg.norm(vec)


def test_eigs_is_deterministic():
    A = _nonnormal(300, 0)
    first = _eigs(lambda v: A @ v, 300, 6, 7)
    again = _eigs(lambda v: A @ v, 300, 6, 7)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert first[2:] == again[2:]


def test_eigs_restart_blocking_changes_no_bit(monkeypatch):
    # n is not a multiple of the block size, and the solve restarts several times
    rng = np.random.default_rng(5)
    n = 10_001
    d = 0.9 * rng.uniform(0.0, 1.0, n) ** 0.25 * np.exp(2j * np.pi * rng.uniform(size=n))
    d[:4] = (2.0, -1.5, 1.2j, 1.0)

    def matvec(v):
        return d * v + 0.05 * np.roll(v, 1)

    assert n > resonance.RESTART_BLOCK and n % resonance.RESTART_BLOCK
    blocked = _eigs(matvec, n, 4, 1)
    assert blocked[3] and blocked[4] >= 2
    monkeypatch.setattr(resonance, "RESTART_BLOCK", n)
    whole = _eigs(matvec, n, 4, 1)
    assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])
    assert blocked[2:] == whole[2:]


def test_eigs_holds_no_second_basis(grid16, q_ly16):
    # the (16, 32) loss-yau sector solve: the basis, k Ritz vectors and a few
    # n-vectors of matvec and Gram-Schmidt work, but no copy of the basis at a restart
    matvec = _sector_matvec(grid16, resonance._chiral_blocks(q_ly16)[1], 1)
    n, k = grid16.npoints * 2, 6
    m = max(2 * k + 1, resonance.ARNOLDI_MIN_BASIS)
    solves = []
    peak = traced_peak_bytes(lambda: solves.append(_eigs(matvec, n, k, resonance.DEFAULT_SEED)))
    assert solves[0][4] >= 1  # the solve restarted
    assert peak < (m + 1 + k + 4) * n * 16


def _point_potential():
    """Q = -alpha_3 delta at the origin of the (L=4, N=8) grid: T has rank 2 on each chiral sector."""
    g = make_grid(4.0, 8)
    vals = np.zeros((8, 8, 8, 4, 4), dtype=complex)
    vals[4, 4, 4] = -ALPHA[2]
    assert g.radius2[4, 4, 4] == 0.0
    return PotentialField(g, vals)


def test_point_supported_potential_reproduces_reference():
    # reference: the ARPACK eigs solve this solver replaced, same seed and ncv
    rep = birman_schwinger_spectrum(_point_potential(), k=6)
    assert rep.sectors == "+ copied" and rep.converged
    lam = -0.025286282354780372 + 0.03576020344812588j
    expected = [lam, lam, lam.conjugate(), lam.conjugate(), 0.0, 0.0]
    assert np.allclose(rep.eigenvalues, expected, rtol=0, atol=1e-12)
    assert all(r <= 1e-12 for r in rep.residuals)
    # the conjugate pair is pinned: Im lambda descending, then sector + before -
    assert [_sector_of(f) for f in rep.eigenfields[:4]] == [0, 1, 0, 1]
    _assert_pinned_order(rep)


def test_pinned_order_ties_conjugates_by_imaginary_part():
    # moduli and real parts that differ at rounding level tie; Im then sector decides
    lam = 0.0477 + 0.6848j
    noisy = [
        (lam.conjugate() * (1 + 3e-16), 0),
        (lam.conjugate(), 1),
        (lam * (1 - 2e-16), 1),
        (lam, 0),
        (-0.9 + 0j, 0),
        (0.3 + 0.3j, 0),
    ]
    ranked = sorted(noisy, key=cmp_to_key(_pinned_order))
    assert [(round(c[0].imag, 4), c[1]) for c in ranked] == [
        (0.0, 0), (0.6848, 0), (0.6848, 1), (-0.6848, 0), (-0.6848, 1), (0.3, 0)
    ]


def test_pinned_order_does_not_follow_the_krylov_basis_size(monkeypatch, grid16):
    # The scalar <x>^-2 report holds +-0.33514 twice.  Its copies agree only to
    # the solver's tolerance: at a basis floor of 24 they differ by 1e-10
    # relative, which a 1e-10 tie width ordered as (+a, -a, +a', -a').
    Q = from_em(-((1.0 + grid16.radius2) ** (-1.0)), None, grid16)
    monkeypatch.setattr(resonance, "ARNOLDI_MIN_BASIS", 24)
    rep = birman_schwinger_spectrum(Q, k=4)
    assert [np.sign(lam.real) for lam in rep.eigenvalues] == [1, 1, -1, -1]
    assert [_sector_of(f) for f in rep.eigenfields] == [0, 1, 0, 1]  # the order at the default floor of 30
    _assert_pinned_order(rep)


# ---------------------------------------------------------------------------
# zero modes and thresholds
# ---------------------------------------------------------------------------


def test_find_zero_modes_zero_potential(grid16):
    Q = from_em(None, None, grid16)
    assert zero_modes(birman_schwinger_spectrum(Q), Q) == []


def test_find_zero_modes_magnetic(modes_ly, q_ly16):
    from dirac_zero_lab.freeop import apply_a_spectral
    from dirac_zero_lab.potential import apply_potential

    assert len(modes_ly) >= 1
    for mode, res in modes_ly:
        # fixed-point consistency: T f ~ f and the direct residual agrees
        tf = -1.0 * apply_a_spectral(apply_potential(q_ly16, mode), warn_threshold=np.inf)
        assert l2_norm(tf - mode) / l2_norm(mode) <= 0.1  # the tol used in the search
        assert res == residual(mode, q_ly16)  # the filter hands on the residual it gated
        assert res <= 1.0  # 10 * tol
        assert res <= 0.1  # eigenfields are clean discrete modes


def test_find_zero_modes_small_scalar_amplitude(grid16):
    q = 0.1 * (1.0 + grid16.radius2) ** (-1.0)
    Q = from_em(q, None, grid16)
    assert zero_modes(birman_schwinger_spectrum(Q, k=4), Q) == []


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
    fields = [f for f, _ in zero_modes(scaled, Q)]
    direct = [f for f, _ in zero_modes(birman_schwinger_spectrum(Q, k=4), Q)]
    assert len(direct) >= 1
    assert len(fields) == len(direct)
    for mode in direct:
        assert subspace_overlap(fields, mode) >= 1.0 - 1e-10


def coupling_thresholds(report):
    """Couplings tau with tau Q supporting a fixed point, tau = 1 / lambda, sorted by |tau|."""
    return sorted((1.0 / lam for lam in real_eigenvalues(report)), key=abs)


def test_coupling_thresholds_magnetic(spectrum_ly):
    taus = coupling_thresholds(spectrum_ly)
    assert taus, "expected at least one real eigenvalue"
    assert abs(abs(taus[0]) - 1.0) <= 0.1


def test_coupling_thresholds_scale_with_amplitude(q_ly16):
    taus_half = coupling_thresholds(birman_schwinger_spectrum(0.5 * q_ly16, k=4))
    assert abs(abs(taus_half[0]) - 2.0) <= 0.1


def test_coupling_thresholds_zero_potential(grid16):
    assert coupling_thresholds(birman_schwinger_spectrum(from_em(None, None, grid16), k=3)) == []


def test_fixed_point_subspace_overlap(spectrum_ly, ly16):
    ritz, fields = fixed_point_subspace(spectrum_ly)
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
    cls = classify_threshold_state(ly16.zero_mode, residual(ly16.zero_mode, q_ly16))
    assert cls.kind == "zero_mode"
    assert cls.fit.sigma == pytest.approx(2.0, abs=0.15)
    assert cls.mu_check[0.4] == "finite-trend"
    assert cls.mu_check[0.45] == "finite-trend"


def test_classify_gate_rejects_mismatched_pair(grid16, q_ly16):
    # an oscillating <x>^{-1.2} profile is nowhere near the kernel of this
    # operator, so the residual gate trips
    k = (np.pi / 16.0) * np.array([10.0, 0.0, 0.0])
    phase = np.exp(1j * np.tensordot(coordinate_mesh(grid16.axis), k, axes=([-1], [0])))
    vals = np.zeros((32, 32, 32, 4), dtype=complex)
    vals[..., 0] = (1.0 + grid16.radius2) ** (-0.6) * phase
    fake = SpinorField(grid16, vals, POSITION)
    with pytest.raises(ValueError, match="gate"):
        classify_threshold_state(fake, residual(fake, q_ly16))


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


@pytest.mark.parametrize("N, value", [(32, 0.02336294670058545), (64, 0.0004886558859649782)])
def test_weighted_identity_frozen_values(N, value):
    # the alpha.x term is built from the lattice coordinates; pinned to the bit
    assert weighted_derivative_identity_check(acceptance._smooth_test_field(N), 0.4) == value


def test_weighted_identity_magnetic_mode_improves_with_n(ly16):
    err32 = weighted_derivative_identity_check(ly16.zero_mode, 0.4)
    g64 = make_grid(16.0, 64)
    from dirac_zero_lab.potential import loss_yau

    ly64 = loss_yau(g64)
    err64 = weighted_derivative_identity_check(ly64.zero_mode, 0.4)
    assert err32 <= 0.35  # measured 0.23 at h = 1
    assert err64 < err32
