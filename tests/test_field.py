import numpy as np
import pytest

from dirac_zero_lab.field import (
    FREQUENCY,
    POSITION,
    SpinorField,
    _padded_convolve,
    forward_fourier,
    inverse_fourier,
    l2_norm,
    load_field,
    make_grid,
    random_field,
    restrict_to_subbox,
    save_field,
    shell_profile,
    sobolev_norm,
)


def gaussian_field(grid, width2=1.0, component=0):
    vals = np.zeros((grid.N, grid.N, grid.N, 4), dtype=complex)
    vals[..., component] = np.exp(-grid.radius2 / (2.0 * width2))
    return SpinorField(grid, vals, POSITION)


def bracket_power_field(grid, exponent, component=0):
    vals = np.zeros((grid.N, grid.N, grid.N, 4), dtype=complex)
    vals[..., component] = (1.0 + grid.radius2) ** (exponent / 2.0)
    return SpinorField(grid, vals, POSITION)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_make_grid_arithmetic():
    g = make_grid(8.0, 16)
    assert g.h == 1.0
    assert g.npoints == 16**3
    assert g.freq_step == pytest.approx(np.pi / 8.0)
    assert 0.0 in g.axis
    assert 0.0 in g.freq_axis
    assert g.axis[0] == -8.0
    assert g.axis[-1] == 7.0


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_grid(8.0, 15)
    with pytest.raises(ValueError):
        make_grid(-1.0, 16)
    with pytest.raises(ValueError):
        make_grid(8.0, 2)


@pytest.mark.parametrize("L, N", [(1e-300, 8), (1e300, 8), (1e-110, 8), (1e110, 8), (1.0, 10**400)])
def test_grid_cell_volumes_must_be_finite_and_positive(L, N):
    # h^3 or (pi/L)^3 over- or underflows: rejected before any arithmetic, with no warning
    with pytest.raises(ValueError, match="cell volume"):
        make_grid(L, N)


def test_grid_equality_and_origin():
    g = make_grid(8.0, 16)
    assert g == make_grid(8.0, 16)
    assert g != make_grid(8.0, 32)
    assert np.array_equal(g.position_mesh[g.origin_index], np.zeros(3))


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------


def test_gaussian_transform_matches_analytic():
    g = make_grid(12.0, 64)
    f = gaussian_field(g)
    fhat = forward_fourier(f)
    expected = np.exp(-g.freq_radius2 / 2.0)
    err = np.sqrt(
        np.sum(np.abs(fhat.values[..., 0] - expected) ** 2) / np.sum(expected**2)
    )
    assert err <= 1e-6
    assert np.max(np.abs(fhat.values[..., 1:])) == 0.0


def test_round_trip_identity_on_random_fields():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=42)
    back = inverse_fourier(forward_fourier(f))
    assert l2_norm(back - f) / l2_norm(f) <= 1e-12


def test_parseval():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=1)
    assert l2_norm(forward_fourier(f)) == pytest.approx(l2_norm(f), rel=1e-12)


def padded_convolve_reference(values, N, apply_kernel):
    """Zero-fill the (2N)^3 box, full rfftn/irfftn (real) or fftn/ifftn, crop."""
    shape, axes = (2 * N,) * 3, (0, 1, 2)
    pad = np.zeros(shape + values.shape[3:], dtype=values.dtype)
    pad[:N, :N, :N] = values
    if np.iscomplexobj(values):
        conv = np.fft.ifftn(apply_kernel(np.fft.fftn(pad, axes=axes)), axes=axes)
    else:
        conv = np.fft.irfftn(apply_kernel(np.fft.rfftn(pad, axes=axes)), s=shape, axes=axes)
    return conv[:N, :N, :N]


@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("trailing", [(), (4,)])
def test_pruned_padded_convolve_is_bit_identical_to_full_padding(N, trailing):
    rng = np.random.default_rng(N + len(trailing))
    values = rng.standard_normal((N, N, N) + trailing)
    if trailing:
        values = values + 1j * rng.standard_normal(values.shape)
    # a non-symmetric kernel transform, mixing the spinor components when present
    last = 2 * N if trailing else N + 1  # fftn or rfftn layout
    kernel_hat = rng.standard_normal((2 * N, 2 * N, last))
    kernel_hat = kernel_hat * np.exp(1j * rng.uniform(0, 2 * np.pi, kernel_hat.shape))

    def apply_kernel(spec):  # in place as in kernelnorm, or a new array as in freeop
        if not trailing:
            return np.multiply(spec, kernel_hat, out=spec)
        return kernel_hat[..., None] * spec[..., ::-1] + spec

    out = _padded_convolve(values, N, apply_kernel)
    ref = padded_convolve_reference(values, N, apply_kernel)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


def test_space_tag_enforced():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=2)
    with pytest.raises(ValueError):
        inverse_fourier(f)
    with pytest.raises(ValueError):
        forward_fourier(forward_fourier(f))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_weighted_shell_mass_matches_radial_oracle():
    # f = <x>^{-2} e1 at s = 1/2: the squared shell mass over [R, 2R] approaches
    # 4 pi ln 2; the exact radial oracle is 4 pi (I(2R) - I(R)) with
    # I(r) = asinh(r) - r / sqrt(1 + r^2).
    g = make_grid(16.0, 32)
    f = bracket_power_field(g, -2.0)
    w = g.bracket  # <x>^{2s} with s = 1/2
    dens = np.sum(np.abs(f.values) ** 2, axis=-1) * w
    r = np.sqrt(g.radius2)
    mask = (r >= 8.0) & (r < 16.0)
    lattice = float(np.sum(dens[mask]) * g.cell_volume)

    def radial(rr):
        return np.arcsinh(rr) - rr / np.sqrt(1.0 + rr**2)

    oracle = 4.0 * np.pi * (radial(16.0) - radial(8.0))
    assert lattice == pytest.approx(oracle, rel=0.03)
    assert lattice == pytest.approx(4.0 * np.pi * np.log(2.0), rel=0.15)


def test_weighted_norm_partial_sums_have_decreasing_increments():
    # f = <x>^{-2} e1 at s = 0.4 converges as the box grows; the box-to-box
    # increments must shrink and each value must match the radial quadrature.
    values = {}
    for L, N in ((8.0, 16), (16.0, 32), (32.0, 64)):
        g = make_grid(L, N)
        f = bracket_power_field(g, -2.0)
        values[L] = np.sqrt(np.sum((1.0 + g.radius2) ** 0.4 * np.abs(f.values[..., 0]) ** 2) * g.cell_volume)

    def radial_oracle(L):
        # cube corners matter at these sizes, so integrate over the cube by
        # oversampled midpoint quadrature in radius up to the corner, with the
        # spherical-cap volume correction handled by direct 3d quadrature.
        n = 160
        ax = (np.arange(n) + 0.5) / n * 2 * L - L
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r2 = xx**2 + yy**2 + zz**2
        val = np.sum((1.0 + r2) ** (0.4 - 2.0)) * (2 * L / n) ** 3
        return np.sqrt(val)

    for L in values:
        assert values[L] == pytest.approx(radial_oracle(L), rel=0.02)
    inc1 = values[16.0] - values[8.0]
    inc2 = values[32.0] - values[16.0]
    assert 0 < inc2 < inc1


def test_weighted_norm_monotone_in_exponent():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=4)
    # the weight <xi>^{2s} >= 1 grows with s at every frequency
    vals = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0)]
    assert vals == sorted(vals)


def test_sobolev_s_zero_equals_l2():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=5)
    position_l2 = np.sqrt(np.sum(np.abs(f.values) ** 2) * g.cell_volume)
    assert sobolev_norm(f, 0.0) == pytest.approx(position_l2, rel=1e-12)


def test_sobolev_band_limited_bound():
    g = make_grid(8.0, 16)
    f = random_field(g, seed=6, band_limit=1.0)
    assert sobolev_norm(f, 1.0) <= np.sqrt(2.0) * l2_norm(f) * (1 + 1e-12)


def test_sobolev_gaussian_moment_ratio():
    # ratio^2 = int (1+|xi|^2) e^{-|xi|^2} / int e^{-|xi|^2} = 1 + 3/2
    g = make_grid(12.0, 32)
    f = gaussian_field(g)
    ratio = sobolev_norm(f, 1.0) / l2_norm(f)
    assert ratio == pytest.approx(np.sqrt(2.5), rel=1e-6)


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------


def test_shell_profile_uniform_field_equal_volume_shells():
    g = make_grid(16.0, 32)
    vals = np.zeros((g.N, g.N, g.N, 4), dtype=complex)
    vals[..., 0] = 1.0
    f = SpinorField(g, vals)
    # equal-volume shells: cube the radii arithmetically
    lo, hi = 4.0**3, 8.0**3
    edges = [(lo + k * (hi - lo) / 3.0) ** (1.0 / 3.0) for k in range(4)]
    prof = shell_profile(f, edges)
    masses = np.array(prof.masses)
    assert np.all(np.abs(masses / masses.mean() - 1.0) <= 0.05)


def test_shell_profile_support():
    g = make_grid(8.0, 16)
    vals = np.zeros((g.N, g.N, g.N, 4), dtype=complex)
    vals[..., 0] = np.where(g.radius2 < 1.0, 1.0, 0.0)
    f = SpinorField(g, vals)
    prof = shell_profile(f, [2.0, 3.0])
    assert prof.masses[0] == 0.0
    assert prof.counts[0] > 0


def test_shell_profile_dyadic_halving_for_inverse_square_bracket():
    g = make_grid(32.0, 64)
    f = bracket_power_field(g, -2.0)
    prof = shell_profile(f, [4.0, 8.0, 16.0, 32.0])

    def radial(rr):  # integral of r^2 (1+r^2)^{-2}
        return 0.5 * np.arctan(rr) - rr / (2.0 * (1.0 + rr**2))

    for (a, b), mass in zip(((4, 8), (8, 16), (16, 32)), prof.masses):
        oracle = 4.0 * np.pi * (radial(b) - radial(a))
        assert mass == pytest.approx(oracle, rel=0.05)
    assert prof.masses[1] / prof.masses[0] == pytest.approx(0.5, abs=0.08)


def test_shell_profile_flags_empty_shells():
    g = make_grid(8.0, 16)
    f = random_field(g, seed=12)
    prof = shell_profile(f, [1e-9, 0.5, 1.5])  # no lattice point has 0 < |x| < 0.5 at h = 1
    assert prof.empty_shells == (0,)


def test_shell_profile_rejects_bad_edges():
    g = make_grid(8.0, 16)
    f = random_field(g, seed=13)
    with pytest.raises(ValueError):
        shell_profile(f, [2.0, 1.0])
    with pytest.raises(ValueError):
        shell_profile(f, [1.0, 100.0])
    total = sum(shell_profile(f, [0.0, 4.0, 8.0]).masses)
    assert total <= l2_norm(f) ** 2 + 1e-12


# ---------------------------------------------------------------------------
# sub-box restriction
# ---------------------------------------------------------------------------


def test_restrict_to_subbox():
    g = make_grid(16.0, 32)
    f = bracket_power_field(g, -2.0)
    sub = restrict_to_subbox(f)
    assert sub.grid == make_grid(8.0, 16)
    assert sub.grid.h == g.h
    i, j = g.origin_index[0], sub.grid.origin_index[0]
    assert sub.values[j, j, j, 0] == f.values[i, i, i, 0]
    with pytest.raises(ValueError):
        restrict_to_subbox(f, factor=5)


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------


def test_field_file_round_trip(tmp_path):
    g = make_grid(6.0, 12)
    f = random_field(g, seed=14)
    path = tmp_path / "field.dzl1"
    save_field(f, path)
    back = load_field(path)
    assert back.grid == g
    assert back.space == POSITION
    assert np.array_equal(back.values, f.values)


def test_field_file_rejects_truncated_payload(tmp_path):
    g = make_grid(4.0, 8)
    f = random_field(g, seed=15)
    path = tmp_path / "field.dzl1"
    save_field(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="payload length"):
        load_field(path)


def test_field_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.dzl1"
    path.write_bytes(b"NOPE L=1.0 N=4 space=position components=4\n" + b"\0" * 64)
    with pytest.raises(ValueError, match="not a DZL1"):
        load_field(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"DZL1 L=1.0 space=position components=4", "missing the 'N' key"),
        (b"DZL1 L=1.0 N=4 stray space=position components=4", "token 'stray'"),
        (b"DZL1 L=4.0 N=4 space=position components=4 L=8.0", "token 'L=8.0' repeats the key 'L'"),
        (b"DZL1 L=1.0 N=4 space=position components=4 foo=bar", "unknown key in DZL1 header token 'foo=bar'"),
        (b"DZL1 L=1.0 N=4 =3 space=position components=4", "unknown key in DZL1 header token '=3'"),
    ],
    ids=["missing-key", "stray-token", "repeated-key", "unknown-key", "empty-key"],
)
def test_field_file_rejects_bad_header(tmp_path, header, message):
    path = tmp_path / "bad.dzl1"
    path.write_bytes(header + b"\n" + b"\0" * (4**3 * 4 * 16))
    with pytest.raises(ValueError, match=message):
        load_field(path)


def test_frequency_field_round_trips_space_tag(tmp_path):
    g = make_grid(6.0, 12)
    fhat = forward_fourier(random_field(g, seed=16))
    path = tmp_path / "spec.dzl1"
    save_field(fhat, path)
    assert load_field(path).space == FREQUENCY


def test_random_field_deterministic():
    g = make_grid(6.0, 12)
    a = random_field(g, seed=17, band_limit=1.5, mean_zero=True)
    b = random_field(g, seed=17, band_limit=1.5, mean_zero=True)
    assert np.array_equal(a.values, b.values)
    fhat = forward_fourier(a)
    assert abs(fhat.values[g.origin_index]).max() <= 1e-13
