"""Release-gating acceptance criteria, one test per criterion.

Each test prints one line per check, as ``acceptance`` prints it.  Two
checks encode tolerances that the pinned desk grids measurably cannot reach
(see the failure details and the project notes); they are asserted as stated
rather than loosened, so this module is expected to report their failures
honestly.
"""

import functools
import json

import pytest

from dirac_zero_lab import acceptance, cli, resonance


@pytest.fixture(scope="module")
def criterion():
    """Each criterion's result by its number, computed once for this module."""
    return functools.cache(lambda index: acceptance.CRITERIA[index]())


def _run(result):
    print()
    for check in result.checks:
        print(cli._check_line(check))
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "; ".join(f"{c.name} ({c.detail})" for c in failed)


def test_criterion_1_clifford_suite(criterion):
    _run(criterion(1))


def test_criterion_2_inverse_operator_suite(criterion):
    _run(criterion(2))


def test_criterion_3_pairing_identity_suite(criterion):
    _run(criterion(3))


def test_criterion_4_kernel_norm_suite(criterion):
    _run(criterion(4))


def test_criterion_5_magnetic_zero_mode_suite(criterion):
    _run(criterion(5))


def test_criterion_6_fixed_point_spectrum_suite(criterion):
    _run(criterion(6))


def test_criterion_7_decay_iteration_suite(criterion):
    _run(criterion(7))


def test_criterion_8_no_resonance_property_suite(criterion):
    _run(criterion(8))


@pytest.mark.parametrize(
    "index, name, measured",
    [
        (2, "spectral vs quadrature on Gaussian bump <= 5% (L=12, N=24)", "measured 0.1727"),
        (5, "Weyl residual <= 0.05 at (L=16, N=32)", "measured 0.5787"),
    ],
)
def test_known_red_check_is_the_criterions_only_failure(criterion, index, name, measured):
    # the known-red check fails the criterion's own test, so a second failing check would change no count there
    failed = [c for c in criterion(index).checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert failed[0].detail.startswith(measured)


def test_criterion_8_reports_an_unclassifiable_mode(monkeypatch, tmp_path, ly16):
    # a detected mode that classify_threshold_state rejects is a bad outcome, printed as
    # zero-mode prints it, and the run still writes acceptance.json: no usage error
    def fake_spectrum(Q, k=6, seed=0):
        return resonance.EigenReport([1.0 + 0.0j], [ly16.zero_mode], [0.0], 1, True)

    def refuse(f, res):
        raise ValueError("too few shells")

    monkeypatch.setattr(resonance, "birman_schwinger_spectrum", fake_spectrum)
    monkeypatch.setattr(resonance, "residual", lambda f, Q: 0.01)
    monkeypatch.setattr(resonance, "classify_threshold_state", refuse)
    assert cli.main(["acceptance", "--only", "8", "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "acceptance.json").read_text())["criterion_8"]["checks"]
    assert not checks[0]["passed"]
    assert checks[0]["detail"].split("; ")[0] == "loss-yau: unclassified (too few shells)"
    assert not checks[1]["passed"] and checks[1]["detail"] == "5 bad outcomes"
    assert not checks[2]["passed"] and checks[2]["detail"] == "0 of 5 modes checked"


def test_mutation_smoke_corrupted_matrix_fails_criterion_1(monkeypatch):
    # an injected sign error in the second Dirac matrix must trip the suite
    from dirac_zero_lab import clifford

    bad = tuple(m.copy() for m in clifford.ALPHA)
    bad[1][0, 3] = -bad[1][0, 3]
    monkeypatch.setattr(clifford, "ALPHA", bad)
    result = acceptance.criterion_1()
    assert not result.passed
