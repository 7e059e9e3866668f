import numpy as np
import pytest

from dirac_zero_lab.acceptance import annulus_test_field, pairing_discrepancy
from dirac_zero_lab.clifford import alpha_dot, invert_alpha_dot
from dirac_zero_lab.field import (
    FREQUENCY,
    POSITION,
    SpinorField,
    forward_fourier,
    inverse_fourier,
    l2_norm,
    make_grid,
    random_field,
)
from dirac_zero_lab.freeop import (
    ZeroModeAnnihilationWarning,
    _dot_contract,
    _multiply,
    _symbol,
    apply_a_quadrature,
    apply_a_spectral,
    apply_h0,
    symbol_product_max_deviation,
    verify_ah0_identity,
    verify_pairing_identity,
    zero_mode_mass,
)
from dirac_zero_lab.potential import pauli_derivative


def plane_wave(grid, mode, v):
    phase = np.exp(1j * np.tensordot(grid.position_mesh, np.asarray(mode, float), axes=([-1], [0])))
    return SpinorField(grid, phase[..., None] * np.asarray(v, complex), POSITION)


def gaussian_bump(grid, widths=(1.0, 1.2)):
    vals = np.zeros((grid.N,) * 3 + (4,), dtype=complex)
    vals[..., 0] = np.exp(-grid.radius2 / widths[0])
    vals[..., 2] = 0.5 * np.exp(-grid.radius2 / widths[1])
    return SpinorField(grid, vals, POSITION)


# ---------------------------------------------------------------------------
# alpha.D as a multiplier
# ---------------------------------------------------------------------------


def test_h0_plane_wave_eigenaction():
    g = make_grid(8.0, 16)
    xi0 = (np.pi / 8.0) * np.array([1.0, -2.0, 3.0])  # lattice mode
    v = np.array([0.3, -0.1j, 0.7, 0.2 + 0.1j])
    f = plane_wave(g, xi0, v)
    expected = plane_wave(g, xi0, alpha_dot(xi0) @ v)
    out = apply_h0(f)
    assert l2_norm(out - expected) / l2_norm(expected) <= 1e-12


def test_h0_constant_field_is_zero():
    g = make_grid(8.0, 16)
    vals = np.ones((g.N,) * 3 + (4,), dtype=complex)
    out = apply_h0(SpinorField(g, vals))
    assert l2_norm(out) <= 1e-12 * l2_norm(SpinorField(g, vals))


def test_h0_squared_is_componentwise_laplacian():
    # independent oracle: |xi|^2 multiplier built directly in the test
    g = make_grid(8.0, 16)
    f = random_field(g, seed=21, band_limit=2.0)
    twice = apply_h0(apply_h0(f))
    fhat = forward_fourier(f)
    lap = inverse_fourier(
        SpinorField(g, g.freq_radius2[..., None] * fhat.values, FREQUENCY)
    )
    assert l2_norm(twice - lap) / l2_norm(lap) <= 1e-10


def test_h0_symmetry_under_pairing():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=22)
    h = random_field(g, seed=23)
    # <H0 f, h> = <f, H0 h> in the lattice inner product
    lhs = np.vdot(h.values, apply_h0(f).values)
    rhs = np.vdot(apply_h0(h).values, f.values)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# A as a multiplier
# ---------------------------------------------------------------------------


def test_a_spectral_single_mode():
    g = make_grid(8.0, 16)
    xi0 = (np.pi / 8.0) * np.array([2.0, 1.0, -1.0])
    v = np.array([1.0, 0.5, -0.25j, 0.0])
    f = plane_wave(g, xi0, v)
    expected = plane_wave(g, xi0, invert_alpha_dot(xi0) @ v)
    out = apply_a_spectral(f)
    assert l2_norm(out - expected) / l2_norm(expected) <= 1e-12


def test_a_spectral_annihilates_constant_with_warning():
    g = make_grid(8.0, 16)
    vals = np.ones((g.N,) * 3 + (4,), dtype=complex)
    f = SpinorField(g, vals)
    with pytest.warns(ZeroModeAnnihilationWarning) as rec:
        out = apply_a_spectral(f)
    assert l2_norm(out) <= 1e-12
    # the annihilated mass is the whole field, and the warning carries it
    assert zero_mode_mass(f) == pytest.approx(l2_norm(f), rel=1e-12)
    assert rec[0].message.mass == pytest.approx(zero_mode_mass(f), rel=1e-12)


def dense_multiplier(f, inverse):
    """Independent oracle: the 4x4 matrix alpha_dot(xi) (or its inverse, zero at
    xi = 0) applied mode by mode on the centered frequency lattice."""
    g = f.grid
    xi = g.freq_mesh.reshape(-1, 3)
    mats = np.zeros((xi.shape[0], 4, 4), dtype=complex)
    for m, x in enumerate(xi):
        if not inverse:
            mats[m] = alpha_dot(x)
        elif np.any(x):
            mats[m] = invert_alpha_dot(x)
    fhat = forward_fourier(f).values.reshape(-1, 4)
    out = np.einsum("mab,mb->ma", mats, fhat).reshape(f.values.shape)
    return inverse_fourier(SpinorField(g, out, FREQUENCY)).values


@pytest.mark.parametrize("op", ["h0", "a", "pauli"])
def test_multipliers_match_dense_reference_across_grids(op):
    # Grids alternate within one test, so a symbol cached under the wrong grid
    # key (N alone, L alone) fails; (4, 8) is revisited after the others.
    for L, N in ((4.0, 8), (6.0, 12), (6.0, 8), (4.0, 8)):
        g = make_grid(L, N)
        f = random_field(g, seed=N)  # nonzero mean: A must drop and report it
        if op == "h0":
            out, ref = apply_h0(f).values, dense_multiplier(f, inverse=False)
        elif op == "a":
            with pytest.warns(ZeroModeAnnihilationWarning) as rec:
                out = apply_a_spectral(f).values
            assert rec[0].message.mass == pytest.approx(zero_mode_mass(f), rel=1e-12)
            ref = dense_multiplier(f, inverse=True)
        else:
            # alpha.xi (0, phi) = (sigma.xi phi, 0): the upper block is the Pauli derivative
            phi = f.values[..., :2]
            lower = SpinorField(g, np.concatenate([np.zeros_like(phi), phi], axis=-1))
            out, ref = pauli_derivative(phi, g), dense_multiplier(lower, inverse=False)[..., :2]
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)


def joint_multiply(coeffs, values):
    """Reference: one joint transform pair over the box axes of the interleaved (N, N, N, w) field."""
    return np.fft.ifftn(_dot_contract(coeffs, np.fft.fftn(values, axes=(0, 1, 2))), axes=(0, 1, 2))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("N", [8, 12])
def test_component_major_multiply_is_bit_identical_to_joint_transform(N, width, inverse):
    # numpy transforms each line on its own, so per-component transforms give the same bits
    g = make_grid(6.0, N)
    rng = np.random.default_rng(10 * N + width)
    v = rng.standard_normal((N, N, N, width)) + 1j * rng.standard_normal((N, N, N, width))
    before = v.copy()
    coeffs = _symbol(g, inverse)
    out = _multiply(coeffs, v)
    assert np.array_equal(out, joint_multiply(coeffs, v))
    assert np.array_equal(v, before)  # the input is copied, never transformed in place
    assert out.shape == v.shape and out.flags.c_contiguous


def test_pauli_derivative_is_bit_identical_to_joint_transform():
    g = make_grid(6.0, 12)
    phi = random_field(g, seed=5).values[..., 2:]  # a strided 2-spinor view
    assert np.array_equal(pauli_derivative(phi, g), joint_multiply(_symbol(g, False), phi))


def test_h0_a_composition_is_identity_on_mean_zero_fields():
    g = make_grid(8.0, 16)
    f = random_field(g, seed=24, band_limit=2.5, mean_zero=True)
    out1 = apply_h0(apply_a_spectral(f))
    out2 = apply_a_spectral(apply_h0(f))
    assert l2_norm(out1 - f) / l2_norm(f) <= 1e-10
    assert l2_norm(out2 - f) / l2_norm(f) <= 1e-10


def test_symbol_product_identity_on_lattice():
    assert symbol_product_max_deviation(make_grid(8.0, 16)) <= 1e-14


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------


def test_quadrature_zero_field():
    g = make_grid(4.0, 8)
    z = SpinorField(g, np.zeros((8, 8, 8, 4), dtype=complex))
    assert l2_norm(apply_a_quadrature(z)) == 0.0


@pytest.mark.parametrize("N", [8, 34])
def test_quadrature_point_source_antisymmetry(N):
    g = make_grid(N / 2, N)
    vals = np.zeros((N, N, N, 4), dtype=complex)
    i = g.origin_index[0]
    vals[i, i, i, 0] = 1.0
    out = apply_a_quadrature(SpinorField(g, vals)).values
    # K(-z) = -K(z): values at +r and -r are exact negatives
    for shift in ((1, 0, 0), (2, 1, 0), (1, 1, 1)):
        plus = out[i + shift[0], i + shift[1], i + shift[2]]
        minus = out[i - shift[0], i - shift[1], i - shift[2]]
        assert np.max(np.abs(plus + minus)) <= 1e-14


@pytest.mark.parametrize("L, N", [(4.0, 8), (6.0, 12)])
def test_quadrature_matches_dense_reference(L, N):
    g = make_grid(L, N)
    rng = np.random.default_rng(25)
    vals = rng.standard_normal((N, N, N, 4)) + 1j * rng.standard_normal((N, N, N, 4))
    f = SpinorField(g, vals)
    fast = apply_a_quadrature(f)
    pts = g.position_mesh.reshape(-1, 3)
    V = vals.reshape(-1, 4)
    out = np.zeros_like(V)
    for i in range(pts.shape[0]):
        z = pts[i] - pts
        n2 = np.einsum("mj,mj->m", z, z)
        keep = n2 > 0
        kern = z[keep] / n2[keep, None] ** 1.5
        for j in range(3):
            out[i] += (alpha_dot(np.eye(3)[j]) @ (kern[:, j] @ V[keep])) * 1.0
    out *= 1j / (4 * np.pi) * g.cell_volume
    ref = SpinorField(g, out.reshape(N, N, N, 4))
    assert l2_norm(fast - ref) / l2_norm(ref) <= 1e-12


def test_quadrature_vs_spectral_shrinks_with_resolution_and_box():
    # The gap is the box-truncation + kernel-sampling discrepancy between the
    # two operator realizations; measured ~0.19 at (L=8, N=16).  It shrinks
    # both when N grows at fixed L and when L grows at fixed h.
    rels = {}
    for L, N in ((8.0, 16), (8.0, 20), (12.0, 24)):
        g = make_grid(L, N)
        f = gaussian_bump(g)
        rels[(L, N)] = l2_norm(apply_a_quadrature(f) - apply_a_spectral(f, warn_threshold=np.inf)) / l2_norm(f)
    assert rels[(8.0, 16)] <= 0.30
    assert rels[(8.0, 20)] < rels[(8.0, 16)]  # N up at fixed L
    assert rels[(12.0, 24)] < rels[(8.0, 16)]  # L up at fixed h


# ---------------------------------------------------------------------------
# composition and pairing identities
# ---------------------------------------------------------------------------


def test_verify_ah0_on_random_mean_zero_fields():
    g = make_grid(8.0, 16)
    for seed in (31, 32, 33):
        f = random_field(g, seed=seed, band_limit=2.5, mean_zero=True)
        assert verify_ah0_identity(f) <= 1e-10


def test_verify_ah0_constant_is_degenerate():
    g = make_grid(8.0, 16)
    for c in (1.0, 0.1 + 0.2j):  # the second constant is not exact in binary
        f = SpinorField(g, np.full((16, 16, 16, 4), c, dtype=complex))
        with pytest.raises(ValueError, match="constant"):
            verify_ah0_identity(f)


def test_verify_ah0_on_slowly_decaying_field(grid16, ly16, grid24, ly24):
    # The discrete composition cancels mode-by-mode, so even the slowly
    # decaying magnetic zero mode passes at rounding level (well within the
    # 0.05 budget); the value is noise at every box size.
    err16 = verify_ah0_identity(ly16.zero_mode)
    err24 = verify_ah0_identity(ly24.zero_mode)
    assert err16 <= 1e-10
    assert err24 <= 1e-10
    assert err16 <= 0.05 and err24 <= 0.05


def test_pairing_identity_zero_input():
    g = make_grid(8.0, 16)
    zero = SpinorField(g, np.zeros((16, 16, 16, 4), dtype=complex))
    phi = annulus_test_field(g, seed=41)
    lhs, rhs = verify_pairing_identity(zero, phi)
    assert lhs == 0 and rhs == 0


def test_pairing_identity_agreement():
    g = make_grid(8.0, 16)
    for seed in (42, 43, 44):
        assert pairing_discrepancy(g, seed, seed + 100) <= 1e-8


def test_pairing_identity_requires_vanishing_at_origin():
    g = make_grid(8.0, 16)
    gfield = random_field(g, seed=45)
    vals = np.zeros((16, 16, 16, 4), dtype=complex)
    vals[g.origin_index] = 1.0
    phi = SpinorField(g, vals, FREQUENCY)
    with pytest.raises(ValueError, match="origin"):
        verify_pairing_identity(gfield, phi)


def test_pairing_identity_requires_dual_lattice_test_field():
    g = make_grid(8.0, 16)
    gfield = random_field(g, seed=46)
    phi = random_field(g, seed=47)  # position-tagged: wrong side
    with pytest.raises(ValueError, match="dual"):
        verify_pairing_identity(gfield, phi)
