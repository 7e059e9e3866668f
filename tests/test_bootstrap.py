from fractions import Fraction

import numpy as np
import pytest

from dirac_zero_lab.bootstrap import (
    bootstrap_trace,
    map_weight_through_a,
    map_weight_through_q,
)
from dirac_zero_lab.field import l2_norm, random_field
from dirac_zero_lab.freeop import apply_a_spectral
from dirac_zero_lab.potential import apply_potential, loss_yau_potential
from dirac_zero_lab.resonance import RESIDUAL_GATE, decay_fit, residual


F = Fraction


# ---------------------------------------------------------------------------
# single-step maps
# ---------------------------------------------------------------------------


def test_q_map_gains_rho():
    assert map_weight_through_q(F(-3, 2), F(2)) == F(1, 2)
    assert map_weight_through_q(0, 2) == 2
    assert map_weight_through_q(F(-3, 2), F(8, 5)) == F(8, 5) - F(3, 2)


def test_q_map_rejects_long_range():
    with pytest.raises(ValueError):
        map_weight_through_q(0, 1)
    with pytest.raises(ValueError):
        map_weight_through_q(0, F(1, 2))


def test_maps_reject_floats():
    with pytest.raises(TypeError):
        map_weight_through_q(0.5, 2)
    with pytest.raises(TypeError):
        map_weight_through_a(0.5)


def test_a_map_loses_one_inside_window():
    # rho = 2 first round: gained exponent 1/2 maps to -1/2
    assert map_weight_through_a(F(1, 2)) == F(-1, 2)
    assert map_weight_through_a(0) == -1


def test_a_map_rejects_window_violations():
    with pytest.raises(ValueError, match="window"):
        map_weight_through_a(F(3, 2))  # endpoint excluded
    with pytest.raises(ValueError, match="window"):
        map_weight_through_a(F(-1, 2))
    with pytest.raises(ValueError, match="window"):
        map_weight_through_a(F(7, 4))


# ---------------------------------------------------------------------------
# full traces, checked against brute-force enumeration
# ---------------------------------------------------------------------------


def brute_force(rho: Fraction):
    s = F(-3, 2)
    steps = [s]
    while s + rho < F(3, 2):
        s = s + rho - 1
        steps.append(s)
    return steps, len(steps) - 1


def test_trace_eight_fifths():
    trace = bootstrap_trace(F(8, 5))
    assert trace.exponents() == (F(-3, 2), F(-9, 10), F(-3, 10), F(3, 10))
    assert trace.n0 == 3
    assert not trace.boundary_flag
    assert F(-3, 2) + trace.n0 * (F(8, 5) - 1) + F(8, 5) == F(19, 10)


def test_trace_two_hits_boundary():
    trace = bootstrap_trace(2)
    assert trace.exponents() == (F(-3, 2), F(-1, 2))
    assert trace.n0 == 1
    assert trace.boundary_flag
    assert "mu < 1/2" in trace.terminal


def test_trace_three_halves_hits_boundary():
    trace = bootstrap_trace(F(3, 2))
    assert trace.n0 == 3
    assert trace.boundary_flag


def test_trace_near_one_has_many_steps():
    trace = bootstrap_trace(F(101, 100))
    assert trace.n0 == 199
    assert len(trace.steps) == 200
    assert trace.boundary_flag  # 2 / (rho - 1) = 200 is an integer
    ref_steps, ref_n0 = brute_force(F(101, 100))
    assert list(trace.exponents()) == ref_steps
    assert trace.n0 == ref_n0


def test_trace_rejects_long_range():
    with pytest.raises(ValueError):
        bootstrap_trace(1)
    with pytest.raises(ValueError):
        bootstrap_trace(F(9, 10))


def test_trace_clamps_large_rho():
    trace = bootstrap_trace(F(7, 2))
    assert trace.clamped
    assert trace.requested_rho == F(7, 2)
    assert trace.rho == F(5, 2)
    assert trace.n0 == 1
    assert not trace.boundary_flag
    assert not bootstrap_trace(F(29, 10)).clamped


def test_trace_rejects_float_rho():
    with pytest.raises(TypeError):
        bootstrap_trace(1.6)


def test_trace_rejects_a_rho_that_is_no_rational_number():
    with pytest.raises(ValueError, match="rho must be rational, got 'abc'"):
        bootstrap_trace("abc")


def test_n0_property_on_random_rationals():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(100):
        den = int(rng.integers(2, 60))
        num = int(rng.integers(den + 1, 3 * den))
        rho = F(num, den)
        if not (1 < rho < 3):
            continue
        trace = bootstrap_trace(rho)
        ref_steps, ref_n0 = brute_force(rho)
        assert trace.n0 == ref_n0
        assert list(trace.exponents()) == ref_steps
        # n0 is the largest n with n (rho - 1) < 2
        assert trace.n0 * (rho - 1) < 2 <= (trace.n0 + 1) * (rho - 1)
        # boundary flag is exactly the equality case
        assert trace.boundary_flag == (F(-3, 2) + trace.n0 * (rho - 1) + rho == F(3, 2))
        checked += 1
    assert checked >= 90


def test_trace_exponents_strictly_increase_and_stay_exact():
    trace = bootstrap_trace(F(5, 4))
    exps = trace.exponents()
    assert all(isinstance(e, Fraction) for e in exps)
    assert all(b > a for a, b in zip(exps, exps[1:]))
    # every intermediate re-checks the inverse-operator window
    for prev, nxt in zip(exps, exps[1:]):
        assert nxt == map_weight_through_a(map_weight_through_q(prev, F(5, 4)))


# ---------------------------------------------------------------------------
# empirical iteration on grid data
# ---------------------------------------------------------------------------


def iterate_fixed_point_map(f, Q, rounds):
    """Iterate f -> -A(Q f); return the fitted decay exponents and the relative step sizes."""
    sigmas, steps = [decay_fit(f).sigma], []
    for _ in range(rounds):
        nxt = -1.0 * apply_a_spectral(apply_potential(Q, f), warn_threshold=np.inf)
        steps.append(l2_norm(nxt - f) / l2_norm(f))
        f = nxt
        sigmas.append(decay_fit(f).sigma)
    return sigmas, steps


def test_empirical_gate_rejects_random_field(grid16, q_ly16):
    # the iteration is only meaningful near a kernel state; a random field is far from one
    assert residual(random_field(grid16, seed=55), q_ly16) > RESIDUAL_GATE


def test_empirical_fixed_point_on_magnetic_mode(grid16, ly16, q_ly16, grid24, ly24):
    assert residual(ly16.zero_mode, q_ly16) <= RESIDUAL_GATE
    sigmas, steps = iterate_fixed_point_map(ly16.zero_mode, q_ly16, rounds=3)
    # measured: the first iterate moves by ~0.22 at (16, 32) and the steps shrink
    assert steps[0] <= 0.30
    assert steps[0] > steps[1] > steps[2]
    # fitted decay exponents are nondecreasing within fit noise
    for a, b in zip(sigmas, sigmas[1:]):
        assert b >= a - 0.05
    # bigger box: smaller first step
    _, steps24 = iterate_fixed_point_map(ly24.zero_mode, loss_yau_potential(grid24), rounds=1)
    assert steps24[0] < steps[0]
