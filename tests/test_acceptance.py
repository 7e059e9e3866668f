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

from dirac_zero_lab import acceptance, cli, potential, resonance


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


CHECK_NAMES = {
    1: [
        "anticommutators exact",
        "(alpha.v)^2 = |v|^2 I over 100 seeded v",
        "contraction inverse over 100 seeded v",
    ],
    2: [
        "symbol product = I at xi != 0 (N=24)",
        "symbol product = I at xi != 0 (N=32)",
        "A(alpha.D) f = f on 20 mean-zero band-limited fields",
        "spectral vs quadrature on Gaussian bump <= 5% (L=12, N=24)",
        "quadrature gap strictly smaller at N=32",
    ],
    3: ["two-sided agreement on 10 seeded pairs"],
    4: [
        "100% agreement on the 8-spec matrix",
        "boundary specs classify unbounded; inconclusive growth allowed",
        "conjugated norm stable for t=-1.0 (top drift <= 10%)",
        "conjugated norm stable for t=0.0 (top drift <= 10%)",
        "conjugated norm grows for t=1/2",
        "dominating-kernel bound",
    ],
    5: [
        "|phi| <x>^2 = 1 at every grid point",
        "Weyl residual <= 0.05 at (L=16, N=32)",
        "Weyl residual smaller at L=24",
        "decay fit sigma = 2.0 +- 0.15",
        "weighted shell mass [8,16) within 15% of 4 pi ln 2",
        "mu=0.4 weighted-H1 partial quantities finite-trend",
        "mu=0.6 diverging",
    ],
    6: [
        "eigenvalue within 0.1 of 1",
        "eigenspace overlap with the magnetic zero mode >= 0.95",
        "spectrum scales linearly in the amplitude",
        "Q = 0 yields no zero modes",
        "small scalar potential yields no zero modes",
    ],
    7: [
        "traces match brute-force enumeration exactly",
        "n0 formula on 100 random rationals in (1,3)",
        "boundary flag is exactly the equality case",
    ],
    8: [
        "every residual-gated state classifies zero_mode",
        "no resonance_candidate outcomes",
        "mu < 1/2 weighted-H1 finite-trend on every detected mode",
        "weighted derivative identity <= 0.02 on smooth fields",
        "identity error at least halves when N doubles",
    ],
}


def test_the_35_check_names_in_order(criterion):
    # the names half of the acceptance contract; after the tests above, the cached results cost no solve
    assert {i: [c.name for c in criterion(i).checks] for i in acceptance.CRITERIA} == CHECK_NAMES
    assert sum(map(len, CHECK_NAMES.values())) == 35


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


def _fake_detected_mode(monkeypatch, mode, converged=True):
    """Every potential's spectrum is the eigenvalue 1 with ``mode``, at residual 0.01, after 9 restarts."""

    def fake_spectrum(Q, k=6, seed=0):
        return resonance.EigenReport([1.0 + 0.0j], [mode], [0.0], 1, converged, restarts=9, nconv=1)

    monkeypatch.setattr(resonance, "birman_schwinger_spectrum", fake_spectrum)
    monkeypatch.setattr(resonance, "residual", lambda f, Q: 0.01)


def test_criterion_8_reports_an_unclassifiable_mode(monkeypatch, tmp_path, ly16):
    # a detected mode that classify_threshold_state returns unclassified is a bad outcome,
    # printed as zero-mode prints it, and the run still writes acceptance.json: no usage error
    def cannot_classify(f, res):
        return resonance.ThresholdClassification("unclassified", None, {}, "too few shells")

    _fake_detected_mode(monkeypatch, ly16.zero_mode)
    monkeypatch.setattr(resonance, "classify_threshold_state", cannot_classify)
    assert cli.main(["acceptance", "--only", "8", "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "acceptance.json").read_text())["criterion_8"]["checks"]
    assert not checks[0]["passed"]
    assert checks[0]["detail"].split("; ")[0] == "loss-yau: unclassified (too few shells)"
    assert not checks[1]["passed"] and checks[1]["detail"] == "5 bad outcomes"
    assert not checks[2]["passed"] and checks[2]["detail"] == "0 of 5 modes checked"


def test_criterion_8_names_a_potential_with_no_real_eigenvalue(monkeypatch, ly16):
    # a rescaled potential whose spectrum holds no real eigenvalue has no eigenvalue to scale to 1:
    # the detail says so, and with no mode detected anywhere the first check fails
    def no_real_spectrum(Q, k=6, seed=0):
        return resonance.EigenReport([0.5j], [ly16.zero_mode], [0.0], 1, True)

    monkeypatch.setattr(resonance, "birman_schwinger_spectrum", no_real_spectrum)
    checks = acceptance.criterion_8().checks
    rescaled = ["scalar <x>^-2", "scalar <x>^-3", "em half-strength", "mixed em+scalar"]
    assert not checks[0].passed and checks[0].detail == "; ".join(f"{name}: no real eigenvalue" for name in rescaled)
    assert checks[1].passed and checks[1].detail == "0 bad outcomes"


def test_criterion_8_counts_outcomes_not_words_of_its_detail(monkeypatch, ly16, grid16):
    # a zero_mode state of a potential whose name holds an outcome's word is no bad outcome
    _fake_detected_mode(monkeypatch, ly16.zero_mode)
    family = [("inconclusive-looking name", potential.from_em(None, None, grid16), False)]
    monkeypatch.setattr(acceptance, "_admissible_family", lambda grid: iter(family))
    checks = acceptance.criterion_8().checks
    assert checks[0].passed and checks[0].detail == "inconclusive-looking name: zero_mode (sigma 1.97)"
    assert checks[1].passed and checks[1].detail == "0 bad outcomes"


@pytest.mark.parametrize(
    "converged, short", [(True, ""), (False, "; solver stopped short: 1 converged pairs after 9 restarts")]
)
def test_criteria_6_and_8_say_when_a_solve_stopped_short(monkeypatch, ly16, grid16, converged, short):
    # each solve that stopped short is named in the first check's detail, in zero-mode's words;
    # the pass/fail rules do not read it, and a run whose solves converge keeps its detail
    _fake_detected_mode(monkeypatch, ly16.zero_mode, converged)
    first = acceptance.criterion_6().checks[0]  # four solves
    assert first.passed and first.detail == "eigenvalues ['+1.0000+0.0000j']" + 4 * short
    family = [("loss-yau", potential.from_em(None, None, grid16), False)]
    monkeypatch.setattr(acceptance, "_admissible_family", lambda grid: iter(family))
    first = acceptance.criterion_8().checks[0]
    assert first.passed and first.detail == "loss-yau: zero_mode (sigma 1.97)" + short


def test_mutation_smoke_corrupted_matrix_fails_criterion_1(monkeypatch):
    # an injected sign error in the second Dirac matrix must trip the suite
    from dirac_zero_lab import clifford

    bad = tuple(m.copy() for m in clifford.ALPHA)
    bad[1][0, 3] = -bad[1][0, 3]
    monkeypatch.setattr(clifford, "ALPHA", bad)
    result = acceptance.criterion_1()
    assert not result.passed
