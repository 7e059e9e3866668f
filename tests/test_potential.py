import numpy as np
import pytest

from dirac_zero_lab.clifford import ALPHA
from dirac_zero_lab.field import l2_norm, make_grid
from dirac_zero_lab.freeop import apply_h0
from dirac_zero_lab.potential import (
    PotentialField,
    apply_potential,
    from_em,
    load_potential,
    loss_yau,
    loss_yau_potential,
    pauli_derivative,
    save_potential,
    weyl_residual,
)


def decay_envelope(Q, rho):
    """Smallest C with |q_jk(x)| <= C <x>^{-rho} entrywise on the lattice."""
    return float(np.max(np.abs(Q.values) * (Q.grid.bracket**rho)[..., None, None]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_from_em_zero():
    g = make_grid(4.0, 8)
    Q = from_em(None, None, g)
    assert np.all(Q.values == 0)


def test_from_em_vector_potential_matches_contraction(grid16, ly16):
    Q = from_em(None, ly16.vector_potential, grid16)
    manual = np.zeros_like(Q.values)
    for j in range(3):
        manual -= ly16.vector_potential[..., j, None, None] * ALPHA[j]
    assert np.array_equal(Q.values, manual)
    assert np.max(np.abs(Q.values - np.conj(np.swapaxes(Q.values, -1, -2)))) <= 1e-14


def test_from_em_scalar_envelope():
    g = make_grid(8.0, 16)
    q = (1.0 + g.radius2) ** (-1.0)
    Q = from_em(q, None, g)
    assert decay_envelope(Q, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_from_em_rejects_complex_inputs():
    g = make_grid(4.0, 8)
    with pytest.raises(ValueError, match="real"):
        from_em(np.full((8, 8, 8), 1j), None, g)
    with pytest.raises(ValueError, match="real"):
        from_em(None, np.full((8, 8, 8, 3), 1j), g)


def test_from_em_rejects_non_finite_inputs():
    g = make_grid(4.0, 8)
    with pytest.raises(ValueError, match="scalar potential is not finite"):
        from_em(np.full((8, 8, 8), np.nan), None, g)
    with pytest.raises(ValueError, match="vector potential is not finite"):
        from_em(None, np.full((8, 8, 8, 3), np.inf), g)


# ---------------------------------------------------------------------------
# the magnetic zero-mode construction
# ---------------------------------------------------------------------------


def test_loss_yau_modulus_identity(grid16, ly16):
    modulus = np.sqrt(np.sum(np.abs(ly16.weyl_spinor) ** 2, axis=-1))
    assert np.max(np.abs(modulus * grid16.bracket**2 - 1.0)) <= 1e-12


def test_loss_yau_vector_potential_bound(grid16, ly16):
    scaled = np.sqrt(np.sum(ly16.vector_potential**2, axis=-1)) * grid16.bracket**2
    assert np.max(scaled) <= 3.0 + 1e-9
    # |w| = 1 exactly, so the bound is attained everywhere
    assert np.min(scaled) >= 3.0 - 1e-9


def test_loss_yau_value_at_origin(grid16, ly16):
    i = grid16.origin_index
    assert ly16.weyl_spinor[i][0] == pytest.approx(1.0)
    assert ly16.weyl_spinor[i][1] == pytest.approx(0.0)
    assert ly16.vector_potential[i] == pytest.approx([0.0, 0.0, 3.0])


def test_loss_yau_zero_mode_embedding(grid16, ly16):
    assert np.all(ly16.zero_mode.values[..., :2] == 0)
    assert np.array_equal(ly16.zero_mode.values[..., 2:], ly16.weyl_spinor)


def test_weyl_residual_frozen_values(grid16, ly16, grid24, ly24):
    # Measured grid truth: the h = 1 lattice undersamples the unit-width core,
    # so the residual sits near 0.58 and shrinks slowly with the box.
    r16 = weyl_residual(ly16.weyl_spinor, ly16.vector_potential, grid16)
    r24 = weyl_residual(ly24.weyl_spinor, ly24.vector_potential, grid24)
    assert r16 == pytest.approx(0.579, abs=0.02)
    assert r24 < r16
    # at finer resolution the residual drops steeply
    g64 = make_grid(16.0, 64)
    ly64 = loss_yau(g64)
    r64 = weyl_residual(ly64.weyl_spinor, ly64.vector_potential, g64)
    assert r64 < 0.15 < r16


def test_block_identity_embeds_weyl_residual(grid16, ly16, q_ly16):
    # (alpha.D + Q) f embeds sigma.(D - A) phi in the upper components
    hf = apply_h0(ly16.zero_mode) + apply_potential(q_ly16, ly16.zero_mode)
    res2 = pauli_derivative(ly16.weyl_spinor, grid16).copy()
    for j, s in enumerate(
        (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
    ):
        res2 -= ly16.vector_potential[..., j, None] * (ly16.weyl_spinor @ s.T)
    assert np.max(np.abs(hf.values[..., :2] - res2)) <= 1e-12
    assert np.max(np.abs(hf.values[..., 2:])) <= 1e-12
    # and the norm ratio reproduces the 2-spinor residual exactly
    ratio = l2_norm(hf) / l2_norm(ly16.zero_mode)
    assert ratio == pytest.approx(
        weyl_residual(ly16.weyl_spinor, ly16.vector_potential, grid16), rel=1e-10
    )


def test_loss_yau_envelope_stable_across_boxes():
    cs = []
    for L, N in ((12.0, 24), (16.0, 32), (24.0, 48)):
        g = make_grid(L, N)
        Q = loss_yau_potential(g)
        cs.append(decay_envelope(Q, 2.0))
    assert max(cs) <= 1.05 * min(cs)


# ---------------------------------------------------------------------------
# hermiticity
# ---------------------------------------------------------------------------


def test_hermiticity_check_reports_injected_gap(tmp_path):
    g = make_grid(4.0, 8)
    vals = np.zeros((8, 8, 8, 4, 4), dtype=complex)
    vals[..., 0, 1] = 0.25
    vals[..., 1, 0] = 0.05  # should be conj(0.25)
    path = tmp_path / "gap.dzl1"
    save_potential(PotentialField(g, vals), path)
    with pytest.raises(ValueError, match=r"max \|Q - Q\^dag\| = 2\.000e-01"):
        load_potential(path)


# ---------------------------------------------------------------------------
# 2-spinor operator helpers
# ---------------------------------------------------------------------------


def test_pauli_derivative_plane_wave():
    g = make_grid(8.0, 16)
    xi0 = (np.pi / 8.0) * np.array([1.0, 2.0, -1.0])
    phase = np.exp(1j * np.tensordot(g.position_mesh, xi0, axes=([-1], [0])))
    v = np.array([1.0, 0.3 - 0.2j])
    phi = phase[..., None] * v
    sigma_xi = sum(c * s for c, s in zip(xi0, (
        np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))))
    expected = phase[..., None] * (sigma_xi @ v)
    out = pauli_derivative(phi, g)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_weyl_residual_rejects_zero_spinor():
    g = make_grid(4.0, 8)
    with pytest.raises(ValueError):
        weyl_residual(np.zeros((8, 8, 8, 2)), np.zeros((8, 8, 8, 3)), g)


# ---------------------------------------------------------------------------
# potential files
# ---------------------------------------------------------------------------


def test_potential_file_round_trip(tmp_path, grid16, q_ly16):
    path = tmp_path / "potential.dzl1"
    save_potential(q_ly16, path)
    back = load_potential(path)
    assert back.grid == grid16
    assert np.array_equal(back.values, q_ly16.values)


def test_potential_file_rejects_field_component_count(tmp_path):
    g = make_grid(4.0, 8)
    from dirac_zero_lab.field import random_field, save_field

    path = tmp_path / "field.dzl1"
    save_field(random_field(g, seed=1), path)
    with pytest.raises(ValueError, match="components"):
        load_potential(path)


def test_potential_file_rejects_header_without_grid_size(tmp_path):
    path = tmp_path / "bad.dzl1"
    path.write_bytes(b"DZL1 L=2.0 space=position components=16\n" + b"\0" * (4**3 * 16 * 16))
    with pytest.raises(ValueError, match="missing the 'N' key"):
        load_potential(path)


@pytest.mark.parametrize(
    "defect, message",
    [("non-hermitian", "not Hermitian"), ("non-finite", "not finite"), ("frequency", "space=frequency")],
)
def test_load_potential_rejects_invalid_payload(tmp_path, defect, message):
    g = make_grid(4.0, 8)
    vals = np.zeros((8, 8, 8, 4, 4), dtype=complex)
    if defect == "non-hermitian":
        vals[..., 0, 1] = 1e-6  # the rule: max |Q - Q^dag| <= 1e-12 max(1, max |Q|)
    elif defect == "non-finite":
        vals[0, 0, 0, 0, 0] = np.nan
    path = tmp_path / "q.dzl1"
    save_potential(PotentialField(g, vals), path)
    if defect == "frequency":
        path.write_bytes(path.read_bytes().replace(b"space=position", b"space=frequency", 1))
    with pytest.raises(ValueError, match=message):
        load_potential(path)
