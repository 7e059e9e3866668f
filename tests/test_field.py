import itertools
import re

import numpy as np
import pytest

from conftest import coordinate_mesh, traced_peak_bytes
from dirac_zero_lab import field, freeop, potential, resonance
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
    assert np.array_equal(coordinate_mesh(g.axis)[g.origin_index], np.zeros(3))
    assert all(c[g.origin_index] == 0.0 for c in np.broadcast_arrays(*g.coords))


def test_grid_is_an_immutable_value():
    g = make_grid(8, 16.0)
    assert (g.L, g.N) == (8.0, 16) and type(g.L) is float and type(g.N) is int
    assert repr(g) == "GridSpec(L=8.0, N=16)"
    assert hash(g) == hash((8.0, 16)) == hash(make_grid(8.0, 16))
    assert g != (8.0, 16)
    assert g.radius2.max() == 192.0  # cached now, so a changed L or N would leave it stale
    with pytest.raises(AttributeError):
        g.L = 16.0
    with pytest.raises(AttributeError):
        g.N = 32
    assert (g.L, g.N, g.h) == (8.0, 16, 1.0)


@pytest.mark.parametrize("L, N", [(4.0, 8), (12.0, 24), (16.0, 32), (32.0, 64)])
def test_radii_equal_the_mesh_form_and_build_no_mesh(L, N):
    g = make_grid(L, N)
    r2 = np.sum(coordinate_mesh(g.axis) ** 2, axis=-1)
    assert np.array_equal(g.radius2, r2)
    assert np.array_equal(g.freq_radius2, np.sum(coordinate_mesh(g.freq_axis) ** 2, axis=-1))
    assert np.array_equal(g.bracket, np.sqrt(1.0 + r2))
    assert not hasattr(g, "position_mesh") and not hasattr(g, "freq_mesh")


def test_radii_memory_budget():
    # |x|^2, |xi|^2 and <x> at N = 64 hold their three arrays and one temporary at most;
    # a (N, N, N, 3) coordinate mesh alone would take three more
    g = make_grid(32.0, 64)
    assert traced_peak_bytes(lambda: (g.radius2, g.freq_radius2, g.bracket)) < 5 * g.npoints * 8


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
    """Zero-fill the (2N)^3 box, full rfftn/irfftn (real) or fftn/ifftn, crop.

    Both inverses take axis 0 first, as ``irfftn`` does; ``ifftn`` over axes
    (2, 1, 0) transforms them in that reversed order."""
    shape, axes = (2 * N,) * 3, (0, 1, 2)
    pad = np.zeros(shape + values.shape[3:], dtype=values.dtype)
    pad[:N, :N, :N] = values
    if np.iscomplexobj(values):
        conv = np.fft.ifftn(apply_kernel(np.fft.fftn(pad, axes=axes), slice(None)), axes=(2, 1, 0))
    else:
        conv = np.fft.irfftn(apply_kernel(np.fft.rfftn(pad, axes=axes), slice(None)), s=shape, axes=axes)
    return conv[:N, :N, :N]


@pytest.mark.parametrize("N", [4, 8, 16, 32, 34])
@pytest.mark.parametrize("trailing", [(), (4,)])
def test_pruned_padded_convolve_is_bit_identical_to_full_padding(monkeypatch, N, trailing):
    rng = np.random.default_rng(N + len(trailing))
    values = rng.standard_normal((N, N, N) + trailing)
    if trailing:
        values = values + 1j * rng.standard_normal(values.shape)
    # a non-symmetric kernel transform, mixing the spinor components when present
    last = 2 * N if trailing else N + 1  # fftn or rfftn layout
    kernel_hat = rng.standard_normal((2 * N, 2 * N, last))
    kernel_hat = kernel_hat * np.exp(1j * rng.uniform(0, 2 * np.pi, kernel_hat.shape))

    def apply_kernel(spec, cols):  # in place as in kernelnorm, or a new array as in freeop
        if not trailing:
            return np.multiply(spec, kernel_hat[:, cols], out=spec)
        return kernel_hat[:, cols, :, None] * spec[..., ::-1] + spec

    ref = padded_convolve_reference(values, N, apply_kernel)
    # an input weight is applied one block of planes at a time, with the bits of weighting first
    weight = rng.uniform(0.5, 2.0, (N, N, N))
    ref_weighted = padded_convolve_reference(weight[(...,) + (None,) * len(trailing)] * values, N, apply_kernel)
    # on the shared path and on one CPU; N = 32 and 34 share their real passes,
    # and the 2N = 68 columns of N = 34 end in a short block
    for cpus in (2, 1):
        monkeypatch.setattr(field, "_allowed_cpus", lambda: cpus)
        out = _padded_convolve(values, apply_kernel)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert np.array_equal(out, ref)
        assert np.array_equal(_padded_convolve(values, apply_kernel, weight=weight), ref_weighted)


def test_padded_convolve_inside_a_helper_job_matches_the_serial_one(monkeypatch):
    # the helper thread runs its own passes serially, so a convolution started on it
    # never waits for itself; the result is the serial one, for real and complex input
    N = 32
    rng = np.random.default_rng(5)
    for trailing in ((), (4,)):
        values = rng.standard_normal((N, N, N) + trailing)
        if trailing:
            values = values + 1j * rng.standard_normal(values.shape)
        last = 2 * N if trailing else N + 1
        kernel_hat = rng.standard_normal((2 * N, 2 * N, last)) + 1j * rng.standard_normal((2 * N, 2 * N, last))

        def apply_kernel(spec, cols):
            return spec * kernel_hat[:, cols][(...,) + (None,) * len(trailing)]

        on_helper = field._helper_pool().submit(_padded_convolve, values, apply_kernel).result(timeout=60)
        with monkeypatch.context() as m:
            m.setattr(field, "_allowed_cpus", lambda: 1)
            assert np.array_equal(on_helper, _padded_convolve(values, apply_kernel))


def _skewed_kernel(z, r2):  # nonzero at z = 0, where the builder passes |z|^2 = 1; not symmetric in the axes
    return (1.0 + z[0] - 2.0 * z[1] * z[2]) / (r2 + 0.5)


def _inverse_power(z, r2):  # in place, as kernelnorm's |z|^{-e}
    return np.power(r2, -0.75, out=r2)


@pytest.mark.parametrize("real, reference", [(True, np.fft.rfftn), (False, np.fft.fftn)])
def test_padded_kernel_fft_equals_numpy_bit_for_bit(monkeypatch, real, reference):
    # the one builder of the kernel transforms (kernelnorm real, the quadrature complex), against
    # numpy's transform of the full table on the same offsets with z = 0 zeroed; on the shared path
    # and on one CPU. N = 8 runs each pass as one slice, and the 2N = 68 planes of N = 34 end in a short block
    for N, kernel in itertools.product((8, 32, 34), (_skewed_kernel, _inverse_power)):
        grid = make_grid(N / 4, N)
        z = coordinate_mesh(np.fft.ifftshift(grid.h * np.arange(-N, N, dtype=float)))
        r2 = np.sum(z**2, axis=-1)
        r2[0, 0, 0] = 1.0
        table = kernel(np.moveaxis(z, -1, 0), r2)
        assert table[0, 0, 0] != 0.0
        table[0, 0, 0] = 0.0
        expected = reference(table)
        for cpus in (2, 1):
            monkeypatch.setattr(field, "_allowed_cpus", lambda: cpus)
            spec = field._padded_kernel_fft(grid, kernel, real)
            assert spec.shape == expected.shape
            assert np.array_equal(spec, expected), (N, kernel.__name__, cpus)


def test_padded_kernel_fft_builds_no_full_table(monkeypatch):
    # the table is made block by block in each thread's scratch: the traced peak of a warm N = 32
    # real build stays under the spectrum, the two threads' block scratches and one more block for
    # numpy's 64 KiB ufunc and FFT buffers in each thread, where one (64)^3 table alone is 2 MiB
    monkeypatch.setattr(field, "_allowed_cpus", lambda: 2)
    grid = make_grid(16.0, 32)
    n = 2 * grid.N
    spec_bytes = n * n * (n // 2 + 1) * 16
    scratch_bytes = field._BLOCK * n * n * 8
    field._padded_kernel_fft(grid, _inverse_power, True)  # numpy caches its FFT plans on first use
    peak = traced_peak_bytes(field._padded_kernel_fft, grid, _inverse_power, True)
    assert peak < spec_bytes + 3 * scratch_bytes


def test_spinor_field_rejects_a_wrong_shape_or_space_tag():
    g = make_grid(4.0, 8)
    with pytest.raises(ValueError, match=r"field values must have shape \(8, 8, 8, 4\), got \(8, 8, 8, 2\)"):
        SpinorField(g, np.zeros((8, 8, 8, 2)))
    with pytest.raises(ValueError, match="unknown space tag 'momentum'"):
        SpinorField(g, np.zeros((8, 8, 8, 4)), "momentum")


def test_fields_in_two_spaces_neither_add_nor_subtract():
    f = random_field(make_grid(4.0, 8), seed=3)
    fhat = forward_fourier(f)
    for combine in (SpinorField.__add__, SpinorField.__sub__):
        with pytest.raises(ValueError, match="space mismatch: position vs frequency"):
            combine(f, fhat)


def test_space_tag_enforced():
    g = make_grid(6.0, 12)
    f = random_field(g, seed=2)
    with pytest.raises(ValueError):
        inverse_fourier(f)
    with pytest.raises(ValueError):
        forward_fourier(forward_fourier(f))


# every reader of a field, called with the field in the wrong space (and valid other arguments)
SPACE_READERS = {
    "forward_fourier": forward_fourier,
    "inverse_fourier": inverse_fourier,
    "sobolev_norm": lambda f: sobolev_norm(f, 1.0),
    "restrict_to_subbox": restrict_to_subbox,
    "apply_h0": freeop.apply_h0,
    "zero_mode_mass": freeop.zero_mode_mass,
    "apply_a_spectral": freeop.apply_a_spectral,
    "apply_a_quadrature": freeop.apply_a_quadrature,
    "verify_ah0_identity": freeop.verify_ah0_identity,
    "verify_pairing_identity": lambda f: freeop.verify_pairing_identity(f, f),
    "apply_potential": lambda f: potential.apply_potential(potential.from_em(None, None, f.grid), f),
    "decay_fit": resonance.decay_fit,
    "classify_threshold_state": lambda f: resonance.classify_threshold_state(f, 0.0),
}


@pytest.mark.parametrize("reader", list(SPACE_READERS))
def test_each_reader_names_itself_on_a_field_in_the_wrong_space(reader):
    f = random_field(make_grid(4.0, 8), seed=3)
    space = FREQUENCY if reader == "inverse_fourier" else POSITION
    wrong = f if space == FREQUENCY else forward_fourier(f)
    with pytest.raises(ValueError, match=f"^{reader} expects a {space}-space field$"):
        SPACE_READERS[reader](wrong)


# every reader of two fields (or of a potential and a field), called with them on two grids
GRID_PAIRS = {
    "field arithmetic": lambda f, g: f - g,
    "verify_pairing_identity": lambda f, g: freeop.verify_pairing_identity(f, forward_fourier(g)),
    "apply_potential": lambda f, g: potential.apply_potential(potential.from_em(None, None, f.grid), g),
}


@pytest.mark.parametrize("reader", list(GRID_PAIRS))
def test_each_reader_of_two_fields_refuses_two_grids(reader):
    # equal N, so the grid check and not a shape mismatch refuses them; the first argument's grid is named first
    f, g = (random_field(make_grid(L, 8), seed=3) for L in (4.0, 6.0))
    with pytest.raises(ValueError, match=f"^grid mismatch: {re.escape(str(f.grid))} vs {re.escape(str(g.grid))}$"):
        GRID_PAIRS[reader](f, g)


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
    with pytest.raises(ValueError, match="not divisible by 4"):
        restrict_to_subbox(bracket_power_field(make_grid(15.0, 30), -2.0))


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
        (b"DZL1 L=1.0 N=4.0 space=position components=4", r"token 'N=4.0' in .*bad.dzl1: invalid literal for int"),
        (b"DZL1 L=abc N=4 space=position components=4", r"token 'L=abc' in .*bad.dzl1: could not convert"),
        (b"DZL1 L=1.0 N=4 space=position components=x", r"token 'components=x' in .*bad.dzl1: invalid literal"),
        (b"DZL1 L=4.0 N=-4 space=position components=4", r"bad.dzl1: points per axis .* got -4"),
        (b"DZL1 L=4.0 N=3 space=position components=4", r"bad.dzl1: points per axis .* got 3"),
        (b"DZL1 L=-4.0 N=4 space=position components=4", r"bad.dzl1: box half-width .* got -4.0"),
        (b"DZL1 L=4.0 N=4 space=bogus components=4", r"bad.dzl1: unknown space tag 'bogus'"),
        ("DZL1 L=4.0 N=4 space=position components=4 \u00b5".encode(), r"corrupt DZL1 header in .*bad.dzl1"),
    ],
    ids=["missing-key", "stray-token", "repeated-key", "unknown-key", "empty-key", "float-N", "text-L",
         "text-components", "negative-N", "odd-N", "negative-L", "unknown-space", "non-ascii"],
)
def test_field_file_rejects_bad_header(tmp_path, header, message):
    path = tmp_path / "bad.dzl1"
    path.write_bytes(header + b"\n" + b"\0" * (4**3 * 4 * 16))
    with pytest.raises(ValueError, match=message) as info:
        load_field(path)
    assert str(path) in str(info.value)  # every header error names the file


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
