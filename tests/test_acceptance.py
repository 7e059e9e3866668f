"""Release-gating acceptance criteria, one test per criterion.

Each test prints one line per check, as ``acceptance`` prints it.  Two
checks encode tolerances that the pinned desk grids measurably cannot reach
(see the failure details and the project notes); they are asserted as stated
rather than loosened, so this module is expected to report their failures
honestly.
"""

from dirac_zero_lab import acceptance, cli


def _run(index):
    result = acceptance.CRITERIA[index]()
    print()
    for check in result.checks:
        print(cli._check_line(check))
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "; ".join(f"{c.name} ({c.detail})" for c in failed)


def test_criterion_1_clifford_suite():
    _run(1)


def test_criterion_2_inverse_operator_suite():
    _run(2)


def test_criterion_3_pairing_identity_suite():
    _run(3)


def test_criterion_4_kernel_norm_suite():
    _run(4)


def test_criterion_5_magnetic_zero_mode_suite():
    _run(5)


def test_criterion_6_fixed_point_spectrum_suite():
    _run(6)


def test_criterion_7_decay_iteration_suite():
    _run(7)


def test_criterion_8_no_resonance_property_suite():
    _run(8)


def test_mutation_smoke_corrupted_matrix_fails_criterion_1(monkeypatch):
    # an injected sign error in the second Dirac matrix must trip the suite
    from dirac_zero_lab import clifford

    bad = tuple(m.copy() for m in clifford.ALPHA)
    bad[1][0, 3] = -bad[1][0, 3]
    monkeypatch.setattr(clifford, "ALPHA", bad)
    result = acceptance.criterion_1()
    assert not result.passed
