import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak_bytes
from dirac_zero_lab import field
from dirac_zero_lab.cli import _criterion_indices, _json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# clifford-check
# ---------------------------------------------------------------------------


def test_clifford_check_passes(capsys):
    code, out, _ = run_cli(capsys, "clifford-check")
    assert code == 0
    assert out.count("(") >= 9  # nine anticommutator pairs listed
    assert "max deviation: 0.0" in out


def test_clifford_check_json(capsys):
    code, out, _ = run_cli(capsys, "clifford-check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation"] == 0.0
    assert len(payload["pairs"]) == 9


# ---------------------------------------------------------------------------
# verify-freeop
# ---------------------------------------------------------------------------


def test_verify_freeop_default_grid_passes(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "verify-freeop", "--seed", "7", "--out", str(out_dir))
    assert code == 0
    assert "[ok] symbol-product" in out
    assert "[ok] ah0-identity" in out
    assert "[ok] pairing-identity" in out
    assert "[ok] spectral-vs-quadrature" in out
    # provenance: the resolved config sits beside the outputs
    cfg = (out_dir / "run-config.cfg").read_text()
    assert "seed = 7" in cfg
    assert (out_dir / "verify-freeop.json").exists()


def test_verify_freeop_empty_annulus_is_usage_error(capsys, tmp_path):
    # at N = 4 the pairing check's annulus test field holds no frequency
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "verify-freeop", "--L", "4", "--N", "4", "--out", str(out_dir))
    assert code == 2
    assert "annulus" in err and "N=4" in err
    assert "Traceback" not in err and out == ""
    assert not out_dir.exists()


def test_verify_freeop_impossible_tolerance_fails(capsys):
    # at (L=16, N=8) the quadrature gap is about 0.8, over the fixed 0.25 bound
    code, out, _ = run_cli(capsys, "verify-freeop", "--L", "16", "--N", "8")
    assert code == 1
    assert "[FAIL] spectral-vs-quadrature" in out
    assert out.splitlines()[-1] == "failed checks: spectral-vs-quadrature"


def test_verify_freeop_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "verify-freeop", "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert "cannot read config" in err


def test_config_file_round_trip(capsys, tmp_path):
    # The config file outranks the command's default grid (12, 24), and a
    # run's own run-config.cfg reproduces the run.
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("L = 8\nN = 16  # a coarse grid\nseed = 9\n")
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = run_cli(capsys, "verify-freeop", "--config", str(cfg), "--out", str(first))
    assert code == 0
    written = (first / "run-config.cfg").read_text().splitlines()
    assert "L = 8.0" in written and "N = 16" in written
    # only keys that some code reads are written
    assert not [l for l in written if l.startswith(("emit", "tol."))]
    code, _, _ = run_cli(
        capsys, "verify-freeop", "--config", str(first / "run-config.cfg"), "--out", str(second)
    )
    assert code == 0
    assert (second / "verify-freeop.json").read_text() == (first / "verify-freeop.json").read_text()


def test_config_rejects_unknown_tolerance(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("L = 8\nN = 16\ntol.arnoldi = 1e-6\n")
    code, _, err = run_cli(capsys, "verify-freeop", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 2
    assert "unknown config key 'tol.arnoldi'" in err
    assert not (tmp_path / "run").exists()


def test_config_rejects_unknown_key(capsys, tmp_path):
    # a misspelled grid key must not silently run the default grid
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("L = 8\nNn = 16\n")
    code, _, err = run_cli(capsys, "verify-freeop", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 2
    assert "'Nn'" in err
    assert not (tmp_path / "run").exists()


def test_config_key_given_twice_is_usage_error(capsys, tmp_path):
    # a later line must not silently override an earlier one
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("L = 8\nN = 16\nL = 12\n")
    code, out, err = run_cli(capsys, "verify-freeop", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "config key 'L' is given twice" in err
    assert not (tmp_path / "run").exists()


def test_cli_import_loads_no_scipy(tmp_path):
    # the package needs numpy only: neither the import nor a full eigensolve loads scipy
    import dirac_zero_lab

    src = os.path.dirname(os.path.dirname(dirac_zero_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    probe = f"import sys, dirac_zero_lab.cli; print({loaded})"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
    argv = ["zero-mode", "--potential", "loss-yau", "--L", "8", "--N", "16", "--out", str(tmp_path / "zm")]
    probe = f"import sys; from dirac_zero_lab.cli import main; main({argv!r}); print({loaded})"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert "zero modes at tolerance 0.1: 2" in out  # the eigensolve ran
    assert out.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# nw-sweep
# ---------------------------------------------------------------------------


def test_nw_sweep_bounded_agrees(capsys, tmp_path):
    out_dir = tmp_path / "nw"
    code, out, _ = run_cli(
        capsys, "nw-sweep", "--a", "1", "--b", "1/2", "--out", str(out_dir)
    )
    assert code == 0
    assert "agreement=agree" in out
    assert (out_dir / "nw-sweep.csv").read_text().startswith("a,b,d,p,scale")


def test_nw_sweep_csv_rows(capsys, tmp_path):
    # one row per scale, as scale_sweep reports it, with the run's seed, in csv's own \r\n line ending
    from fractions import Fraction

    from dirac_zero_lab.kernelnorm import NwKernelSpec, scale_sweep

    out_dir = tmp_path / "nw"
    code, _, _ = run_cli(
        capsys, "nw-sweep", "--a", "1", "--b", "1/2", "--scales", "4,8,16", "--seed", "12", "--out", str(out_dir)
    )
    rep = scale_sweep(NwKernelSpec(a=1, b=Fraction(1, 2)), [4, 8, 16], 1.0, seed=12)
    assert code == (0 if rep.agreement == "agree" else 1)
    raw = (out_dir / "nw-sweep.csv").read_bytes()
    header = b"a,b,d,p,scale,norm_estimate,iterations,converged,growth_class,criterion_class,seed\r\n"
    assert raw.startswith(header) and raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n") == 4
    with open(out_dir / "nw-sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row, scale, est in zip(rows, (4, 8, 16), rep.estimates):
        assert (row["a"], row["b"], row["d"], row["p"], row["seed"]) == ("1", "1/2", "3", "2", "12")
        assert float(row["scale"]) == scale
        assert float(row["norm_estimate"]) == est.value
        assert int(row["iterations"]) == est.iterations
        assert row["converged"] == str(est.converged)
        assert (row["growth_class"], row["criterion_class"]) == (rep.growth_class, rep.criterion_class)


def test_nw_sweep_unbounded_agrees(capsys):
    code, out, _ = run_cli(capsys, "nw-sweep", "--a", "2", "--b", "1")
    assert code == 0
    assert "criterion=unbounded" in out
    assert "growth=growing" in out


def test_nw_sweep_float_boundary_spec_inconclusive_exits_zero(capsys):
    # the boundary spec (3/2, 0) in float spelling: inconclusive growth is allowed there
    code, out, _ = run_cli(capsys, "nw-sweep", "--a", "1.5", "--b", "0", "--p", "2.0")
    assert "agreement=inconclusive" in out
    assert code == 0


def test_nw_sweep_bad_scales_write_nothing(capsys, tmp_path):
    out_dir = tmp_path / "nw"
    code, out, err = run_cli(capsys, "nw-sweep", "--a", "1", "--b", "1/2", "--scales", "4,8", "--out", str(out_dir))
    assert code == 2
    assert "three strictly increasing scales" in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "scales, message",
    [
        ("8,16,inf", "scale L=inf must be finite"),
        ("8,16,nan", "scale L=nan must be finite"),
        ("-8,8,16", "scale L=-8.0 must be finite"),
        ("1,2,4", "scale L=1.0 is not an even multiple"),
    ],
)
def test_nw_sweep_checks_every_scale_before_any_estimate(capsys, tmp_path, monkeypatch, scales, message):
    from dirac_zero_lab import kernelnorm

    def no_estimate(*args, **kwargs):
        raise AssertionError("a norm was estimated before every scale was checked")

    monkeypatch.setattr(kernelnorm, "estimate_norm", no_estimate)
    out_dir = tmp_path / "nw"
    code, out, err = run_cli(capsys, "nw-sweep", "--a", "1", "--b", "1/2", f"--scales={scales}", "--out", str(out_dir))
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert message in err
    assert not out_dir.exists()


def test_nw_sweep_rejects_nonpositive_exponent_sum(capsys):
    code, _, err = run_cli(capsys, "nw-sweep", "--a", "1", "--b", "-2")
    assert code == 2
    assert "a + b" in err


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_trace_table(capsys):
    code, out, _ = run_cli(capsys, "bootstrap", "--rho", "8/5")
    assert code == 0
    assert "n0 = 3" in out
    assert "-9/10" in out


def test_bootstrap_boundary_flag_surfaced(capsys):
    code, out, _ = run_cli(capsys, "bootstrap", "--rho", "2")
    assert code == 0
    assert "boundary_flag = True" in out


def test_bootstrap_json_exact_pairs(capsys):
    code, out, _ = run_cli(capsys, "bootstrap", "--rho", "8/5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == [8, 5]
    assert payload["n0"] == 3
    assert payload["steps"][1]["exponent"] == [-9, 10]
    assert payload["boundary_flag"] is False


def test_bootstrap_trace_file_is_the_json_stdout(capsys, tmp_path):
    # the trace's own fields, each fraction an exact pair: no float in the text
    code, out, _ = run_cli(capsys, "bootstrap", "--rho", "8/5", "--json")
    assert code == 0
    assert run_cli(capsys, "bootstrap", "--rho", "8/5", "--out", str(tmp_path))[0] == 0
    text = (tmp_path / "bootstrap-trace.json").read_text()
    assert out == text + "\n"
    json.loads(text, parse_float=lambda token: pytest.fail(f"float {token} in the trace"))
    assert hashlib.sha256(text.encode()).hexdigest() == "fb120ecd4161dfad1d0a3e2c5fb95f6ac12b3802fe51a487f87293f73d734b88"


def test_json_rejects_a_value_it_cannot_write_exactly():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        _json({"value": object()})


def test_bootstrap_rejects_long_range(capsys):
    code, _, err = run_cli(capsys, "bootstrap", "--rho", "1")
    assert code == 2
    assert "exceed 1" in err


def test_bootstrap_rejects_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "bootstrap", "--rho", "1/0")
    assert code == 2
    assert "rho must be rational" in err and out == ""


# ---------------------------------------------------------------------------
# zero-mode
# ---------------------------------------------------------------------------


def test_zero_mode_zero_potential(capsys, tmp_path):
    out_dir = tmp_path / "zm"
    code, out, _ = run_cli(
        capsys, "zero-mode", "--potential", "zero", "--L", "8", "--N", "16", "--out", str(out_dir)
    )
    assert code == 0
    assert "zero modes at tolerance 0.1: 0" in out
    assert (out_dir / "eigenreport.json").exists()
    assert (out_dir / "run-config.cfg").exists()


def test_zero_mode_small_scalar_decay(capsys, tmp_path):
    out_dir = tmp_path / "zm-scalar"
    code, out, _ = run_cli(
        capsys,
        "zero-mode", "--potential", "scalar-decay", "--amp", "0.1", "--rho", "2",
        "--L", "8", "--N", "16", "--out", str(out_dir),
    )
    assert code == 0
    assert "zero modes at tolerance 0.1: 0" in out


def test_zero_mode_em_potential(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "zero-mode", "--potential", "em", "--amp", "0", "--a-scale", "0.4",
        "--L", "8", "--N", "16", "--out", str(tmp_path / "em"),
    )
    assert code == 0


def test_zero_mode_potential_from_file(capsys, tmp_path):
    from dirac_zero_lab.field import make_grid
    from dirac_zero_lab.potential import from_em, save_potential

    g = make_grid(8.0, 16)
    q = 0.05 * (1.0 + g.radius2) ** (-1.0)
    path = tmp_path / "pot.dzl1"
    save_potential(from_em(q, None, g), path)
    code, out, _ = run_cli(
        capsys,
        "zero-mode", "--potential", f"file:{path}", "--L", "8", "--N", "16",
        "--out", str(tmp_path / "file-run"),
    )
    assert code == 0
    assert "zero modes at tolerance 0.1: 0" in out


def test_zero_mode_bad_potential_header_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.dzl1"
    path.write_bytes(b"DZL1 L=8.0 space=position components=16\n")
    code, _, err = run_cli(capsys, "zero-mode", "--potential", f"file:{path}", "--out", str(tmp_path))
    assert code == 2
    assert "'N'" in err
    assert "Traceback" not in err


def test_zero_mode_non_ascii_potential_header_is_usage_error(capsys, tmp_path):
    path = tmp_path / "pot.dzl1"
    path.write_bytes("DZL1 L=8.0 N=16 space=position components=16 \u00b5\n".encode())
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "zero-mode", "--potential", f"file:{path}", "--L", "8", "--N", "16", "--out", str(out_dir)
    )
    assert code == 2
    assert f"corrupt DZL1 header in {path}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_zero_mode_scalar_decay_needs_rho_over_one(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "zero-mode", "--potential", "scalar-decay", "--rho", "1", "--L", "8", "--N", "16",
        "--out", str(out_dir),
    )
    assert code == 2
    assert "scalar-decay needs rho > 1, got 1.0" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_zero_mode_repeated_potential_header_key_is_usage_error(capsys, tmp_path):
    from dirac_zero_lab.field import make_grid
    from dirac_zero_lab.potential import from_em, save_potential

    g = make_grid(8.0, 16)
    path = tmp_path / "pot.dzl1"
    save_potential(from_em(0.05 * (1.0 + g.radius2) ** (-1.0), None, g), path)
    # a second L= would otherwise win, and the run would use a grid the file was not written on
    path.write_bytes(path.read_bytes().replace(b" components=16\n", b" components=16 L=4.0\n", 1))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "zero-mode", "--potential", f"file:{path}", "--L", "4", "--N", "16", "--out", str(out_dir)
    )
    assert code == 2
    assert "repeats the key 'L'" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "defect, message",
    [
        ("non-hermitian", "not Hermitian"),
        ("frequency", "space=frequency"),
        ("grid", "differs from the run grid"),
    ],
)
def test_zero_mode_rejected_potential_file_is_usage_error(capsys, tmp_path, defect, message):
    from dirac_zero_lab.field import make_grid
    from dirac_zero_lab.potential import PotentialField, save_potential

    g = make_grid(8.0, 16)
    vals = np.zeros((16, 16, 16, 4, 4), dtype=complex)
    vals[..., 0, 0] = 0.05 * (1.0 + g.radius2) ** (-1.0)
    if defect == "non-hermitian":
        vals[..., 0, 1] = 1e-3
    path = tmp_path / "pot.dzl1"
    save_potential(PotentialField(g, vals), path)
    if defect == "frequency":
        path.write_bytes(path.read_bytes().replace(b"space=position", b"space=frequency", 1))
    # the "grid" case runs on the default (16, 32) grid against the file's (8, 16)
    grid_flags = [] if defect == "grid" else ["--L", "8", "--N", "16"]
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "zero-mode", "--potential", f"file:{path}", *grid_flags, "--out", str(out_dir)
    )
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not out_dir.exists()  # no run-config.cfg names a grid the run never used


def test_zero_mode_loss_yau_end_to_end(capsys, tmp_path):
    # the flagship run: detect the magnetic zero mode and classify it
    out_dir = tmp_path / "ly"
    code, out, _ = run_cli(
        capsys, "zero-mode", "--potential", "loss-yau", "--k", "4", "--out", str(out_dir)
    )
    assert code == 0
    assert "kind=zero_mode" in out
    payload = json.loads((out_dir / "eigenreport.json").read_text())
    assert any(abs(complex(re, im) - 1.0) <= 0.1 for re, im in payload["eigenvalues"])
    assert payload["sectors"] == "+ copied"  # magnetic Q: one chiral sector solve, copied
    assert payload["eigenfield_files"]
    assert (out_dir / "decay-fit-0.csv").exists()


def test_zero_mode_run_never_holds_the_table_beside_the_basis(capsys, tmp_path):
    # the loss-yau potential's 8 MiB table is formed for the residuals after the solve and
    # released before the classification; the peak is the solve's (21 MiB of Krylov basis)
    codes = []
    argv = ["zero-mode", "--potential", "loss-yau", "--out", str(tmp_path / "ly")]
    peak = traced_peak_bytes(lambda: codes.append(main(argv)))
    assert codes == [0] and "kind=zero_mode" in capsys.readouterr().out
    assert peak <= 32 * 2**20


def test_zero_mode_that_stops_short_says_so(capsys, tmp_path, monkeypatch):
    # one Arnoldi pass converges only some of the pairs; stdout says so, and a converged run
    # (every other zero-mode test) prints no such line
    import functools

    from dirac_zero_lab import resonance

    monkeypatch.setattr(resonance, "_eigs", functools.partial(resonance._eigs, max_iter=1))
    monkeypatch.setattr(resonance, "ARNOLDI_MIN_BASIS", 30)  # the pass that converges 2 pairs
    out_dir = tmp_path / "short"
    args = ["zero-mode", "--potential", "loss-yau", "--L", "8", "--N", "16", "--out", str(out_dir)]
    _, out, _ = run_cli(capsys, *args)
    payload = json.loads((out_dir / "eigenreport.json").read_text())
    assert payload["converged"] is False and payload["nconv"] == 2
    assert "solver stopped short: 2 converged pairs after 0 restarts\n" in out
    monkeypatch.undo()
    _, out, _ = run_cli(capsys, *args)
    assert "stopped short" not in out


def test_zero_mode_eigenreport_json_and_fields(capsys, tmp_path, q_ly16, ly16):
    # eigenreport.json records the solve that birman_schwinger_spectrum returns, field files included
    from dirac_zero_lab import resonance
    from dirac_zero_lab.field import load_field

    out_dir = tmp_path / "ly"
    code, _, _ = run_cli(capsys, "zero-mode", "--potential", "loss-yau", "--out", str(out_dir))
    assert code == 0
    report = resonance.birman_schwinger_spectrum(q_ly16, k=6)
    on_disk = json.loads((out_dir / "eigenreport.json").read_text())
    # every report field but the eigenfields, which are files
    fields = {f.name for f in dataclasses.fields(resonance.EigenReport)} - {"eigenfields"}
    assert set(on_disk) == fields | {"eigenfield_files", "overlaps"}
    assert on_disk["eigenvalues"] == [[lam.real, lam.imag] for lam in report.eigenvalues]
    assert on_disk["residuals"] == report.residuals
    assert on_disk["iterations"] == report.iterations
    assert on_disk["converged"] is True
    assert on_disk["sectors"] == "+ copied"
    assert on_disk["solve_s"] > 0.0
    # one sector solve: its thick restarts, and the k pairs it converged
    assert on_disk["restarts"] == report.restarts >= 1
    assert on_disk["nconv"] == report.nconv == 6
    # the solver's own cost: phase times within the solve's wall time, at most one DGKS pass a matvec
    phases = [on_disk[key] for key in ("matvec_s", "gram_schmidt_s", "restart_s")]
    assert all(t >= 0.0 for t in phases) and sum(phases) <= on_disk["solve_s"]
    assert 0 <= on_disk["dgks_passes"] <= on_disk["iterations"]
    files = [str(out_dir / "eigenfields" / f"eigenfield_{i}.dzl1") for i in range(6)]
    assert on_disk["eigenfield_files"] == files
    for path, fld in zip(files, report.eigenfields):
        stored = load_field(path)
        assert stored.grid == fld.grid and np.array_equal(stored.values, fld.values)
    # the overlap of each field with the Loss-Yau zero mode: near 1 on the twofold pair at lambda = 1
    overlaps = on_disk["overlaps"]
    assert len(overlaps) == 6 and all(0.0 <= o <= 1.0 + 1e-12 for o in overlaps)
    assert np.hypot(*overlaps[:2]) == pytest.approx(resonance.subspace_overlap(report.eigenfields[:2], ly16.zero_mode))


def test_zero_mode_decay_fit_csv(capsys, tmp_path):
    # one row per default shell, in csv's own \r\n line ending, with the fit printed on stdout
    from dirac_zero_lab import field, resonance

    out_dir = tmp_path / "ly"
    code, out, _ = run_cli(capsys, "zero-mode", "--potential", "loss-yau", "--k", "4", "--out", str(out_dir))
    assert code == 0
    shells = len(resonance.default_shell_edges(field.GridSpec(16.0, 32))) - 1
    for i in (0, 1):
        raw = (out_dir / f"decay-fit-{i}.csv").read_bytes()
        assert raw.startswith(b"radius_inner,radius_outer,mass,fitted_slope,sigma\r\n")
        lines = raw.split(b"\r\n")
        assert lines[-1] == b"" and not any(b"\n" in line for line in lines)
        rows = [[float(x) for x in line.split(b",")] for line in lines[1:-1]]
        assert len(rows) == shells
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))  # adjacent shells
        assert all(r[2] > 0.0 and r[3:] == rows[0][3:] for r in rows)  # one slope and sigma per fit
        assert f"mode {i}: kind=zero_mode sigma={rows[0][4]:.3f}" in out


def test_zero_mode_rerun_leaves_no_stale_outputs(capsys, tmp_path):
    # a second run into one directory keeps only its own numbered fields and fits, and no other file goes
    out_dir = tmp_path / "zm"
    argv = ["zero-mode", "--potential", "loss-yau", "--L", "8", "--N", "16", "--out", str(out_dir)]
    run_cli(capsys, *argv)
    assert len(list((out_dir / "eigenfields").iterdir())) == 6
    keep = [out_dir / "decay-fit-x.csv", out_dir / "notes.csv", out_dir / "eigenfields" / "eigenfield_a.dzl1"]
    for path in [out_dir / "decay-fit-3.csv", *keep]:
        path.write_text("an earlier file\n")
    run_cli(capsys, *argv, "--k", "2")
    report = json.loads((out_dir / "eigenreport.json").read_text())
    assert sorted(os.path.basename(p) for p in report["eigenfield_files"]) == ["eigenfield_0.dzl1", "eigenfield_1.dzl1"]
    assert sorted(p.name for p in (out_dir / "eigenfields").iterdir()) == [
        "eigenfield_0.dzl1", "eigenfield_1.dzl1", "eigenfield_a.dzl1"
    ]
    assert not (out_dir / "decay-fit-3.csv").exists()  # at (8, 16) no mode is classified, so no fit is written
    assert all(path.read_text() == "an earlier file\n" for path in keep)


def test_zero_mode_out_of_range_k_is_usage_error(capsys, tmp_path):
    # a chiral sector at N = 4 has 128 unknowns, so k may be at most 126
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        capsys, "zero-mode", "--L", "4", "--N", "4", "--k", "127", "--out", str(out_dir)
    )
    assert code == 2
    assert "k <= 126" in err
    assert "Traceback" not in err and out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "amp, message",
    [("nan", "scalar potential is not finite"), ("1e308", "Krylov vector of norm inf")],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_mode_non_finite_potential_is_usage_error(capsys, tmp_path, amp, message):
    # nan is rejected where the potential is built; 1e308 overflows the solver's
    # first matvec, which is reported by the one error line and no numpy warning
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        capsys, "zero-mode", "--potential", "scalar-decay", "--amp", amp, "--L", "4", "--N", "8",
        "--out", str(out_dir),
    )
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert out == ""
    assert not out_dir.exists()


def test_zero_mode_small_box_mode_is_unclassified(capsys, tmp_path):
    # at (8, 16) the default decay shells are too few to fit: each detected
    # mode is reported unclassified and the run is inconclusive, not an error
    out_dir = tmp_path / "ly8"
    code, out, err = run_cli(
        capsys, "zero-mode", "--potential", "loss-yau", "--L", "8", "--N", "16", "--out", str(out_dir)
    )
    assert code == 1
    assert "zero modes at tolerance 0.1: 2" in out
    assert "mode 0: unclassified (need at least 4 shells (5 edges), got 3)" in out
    assert "mode 1: unclassified" in out
    assert err == ""
    assert (out_dir / "eigenreport.json").exists()
    assert not list(out_dir.glob("decay-fit-*.csv"))


def test_zero_mode_unknown_potential(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "zero-mode", "--potential", "whatever")
    assert code == 2
    assert "unknown potential" in err
    # a rejected run writes nothing, not even its default dzl-zero-mode/ directory
    assert list(tmp_path.iterdir()) == []


def test_zero_mode_exit_three_on_resonance_candidate(capsys, tmp_path, monkeypatch):
    # wiring check for the theorem-violating exit code: fabricate a detected
    # state and a classifier that calls it a resonance candidate
    from dirac_zero_lab import cli, resonance
    from dirac_zero_lab.field import make_grid
    from dirac_zero_lab.potential import loss_yau

    g = make_grid(8.0, 16)
    mode = loss_yau(g).zero_mode

    def fake_spectrum(Q, k=6, seed=0, **kwargs):
        return resonance.EigenReport(
            eigenvalues=[1.0 + 0.0j],
            eigenfields=[mode],
            residuals=[0.0],
            iterations=1,
            converged=True,
        )

    def fake_classify(f, res, **kwargs):
        fit = resonance.DecayFit(sigma=1.0, stderr=0.1, slope=1.0, edges=(1.0, 2.0), masses=(1.0,))
        return resonance.ThresholdClassification(kind="resonance_candidate", fit=fit, mu_check={})

    monkeypatch.setattr(cli.resonance, "birman_schwinger_spectrum", fake_spectrum)
    monkeypatch.setattr(cli.resonance, "residual", lambda f, Q: 0.01)
    monkeypatch.setattr(cli.resonance, "classify_threshold_state", fake_classify)
    code, out, _ = run_cli(
        capsys,
        "zero-mode", "--potential", "loss-yau", "--L", "8", "--N", "16",
        "--out", str(tmp_path / "rc"),
    )
    assert code == 3


def test_cli_outputs_are_bit_for_bit_reproducible(capsys, tmp_path):
    args = ["nw-sweep", "--a", "1", "--b", "1/2", "--scales", "4,8,16", "--h", "1"]
    code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "one"))
    code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "two"))
    assert code1 == code2
    assert (tmp_path / "one" / "nw-sweep.csv").read_bytes() == (
        tmp_path / "two" / "nw-sweep.csv"
    ).read_bytes()
    # configs agree apart from the output path itself
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("out =")]
    assert strip(tmp_path / "one" / "run-config.cfg") == strip(tmp_path / "two" / "run-config.cfg")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_nw_sweep_on_one_cpu_writes_the_same_bytes(tmp_path):
    # the convolutions share their passes with a helper thread only where two CPUs are allowed;
    # nw-sweep's L = 16 and 17 (N = 32, 34) and verify-freeop's quadrature at (12, 24) take that
    # path. The child restricts itself as its first statement, because preexec_fn is unsafe in
    # this process, which may hold a helper thread.
    # BLAS sizes its own thread pool from the allowed CPUs, which moves the last bits of
    # the L = 17 estimate at the parent commit too, so both children run one BLAS thread.
    import dirac_zero_lab

    src = os.path.dirname(os.path.dirname(dirac_zero_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cpu = min(os.sched_getaffinity(0))
    cases = [
        (["nw-sweep", "--a", "1", "--b", "1/2", "--scales", "8,16,17"], "nw-sweep.csv", b"L=17.0: norm estimate"),
        (["verify-freeop"], "verify-freeop.json", b"[ok] spectral-vs-quadrature"),
    ]
    for argv, output, marker in cases:
        runs = []
        for name, restrict in (("one", f"os.sched_setaffinity(0, {{{cpu}}})"), ("all", "pass")):
            out = tmp_path / argv[0] / name
            child = [*argv, "--out", str(out)]
            probe = f"import os; {restrict}; from dirac_zero_lab.cli import main; raise SystemExit(main({child!r}))"
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, timeout=300)
            stdout = proc.stdout.replace(str(out).encode(), b"OUT")
            runs.append((proc.returncode, stdout, (out / output).read_bytes()))
        assert runs[0] == runs[1], argv[0]
        assert runs[0][0] == 0 and marker in runs[0][1]


@pytest.mark.skipif(field._allowed_cpus() < 2, reason="the helper thread runs only where two CPUs are allowed")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-freeop", "--L", "8", "--N", "16"], 0),
        # exit 1 on these small grids: the sweep is inconclusive, and the two modes are unclassified
        (["nw-sweep", "--a", "1", "--b", "1/2", "--h", "2", "--scales", "8,16,32"], 1),
        (["zero-mode", "--L", "8", "--N", "16"], 1),
    ],
    ids=["verify-freeop", "nw-sweep", "zero-mode"],
)
def test_traced_spans_nest_while_the_helper_thread_works(tmp_path, argv, code):
    # the benchmark's tracer keeps one call stack, so a public function run on the helper thread
    # (say, from a kernel callable inside a shared pass) leaves spans that do not nest, and the op
    # is judged incorrect. The child installs bench/tracer.py's Tracer as bench/opcli.py does, and
    # bench/run.py's span_analysis checks the spans as the benchmark does. A short call on the
    # helper rarely overlaps a span in time, so the child also records each span's thread.
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    child = f"""
import json, sys, threading, time
sys.path[:0] = [{run.SRC!r}, {str(bench)!r}]
from dirac_zero_lab import cli
from tracer import Tracer

class Spans(list):
    threads = []

    def append(self, span):
        self.threads.append(threading.get_ident())
        super().append(span)

tracer = Tracer()
tracer.spans = Spans()  # before install, which hands the list to every wrapper
tracer.install()
start = time.perf_counter()
code = cli.main(sys.argv[2:])
wall = time.perf_counter() - start
main = threading.main_thread().ident
with open(sys.argv[1], "w") as fh:
    json.dump(dict(spans=tracer.spans, off_main=[t != main for t in Spans.threads], wall=wall), fh)
raise SystemExit(code)
"""
    report = tmp_path / "report.json"
    cmd = [sys.executable, "-c", child, str(report), *argv, "--out", str(tmp_path / "out")]
    proc = subprocess.run(cmd, capture_output=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), timeout=300)
    assert proc.returncode == code, proc.stderr.decode()[-2000:]
    result = json.loads(report.read_text())
    assert result["spans"] and len(result["off_main"]) == len(result["spans"])
    assert not any(result["off_main"])
    analysis = run.span_analysis(result["spans"], result["wall"])
    assert abs(analysis["closure_err_s"]) <= 1e-6
    assert analysis["min_self_s"] >= -1e-6


def test_zero_mode_output_root_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DZL_OUTPUT_ROOT", str(tmp_path))
    code, out, _ = run_cli(capsys, "zero-mode", "--potential", "zero", "--L", "8", "--N", "16")
    assert code == 0
    assert (tmp_path / "zero-mode" / "eigenreport.json").exists()


# ---------------------------------------------------------------------------
# acceptance driver
# ---------------------------------------------------------------------------


def test_acceptance_without_only_runs_every_criterion_in_order():
    assert _criterion_indices(None, {3: None, 1: None, 2: None}) == [1, 2, 3]


def test_acceptance_only_bootstrap(capsys, tmp_path):
    out_dir = tmp_path / "acc"
    code, out, _ = run_cli(capsys, "acceptance", "--only", "7", "--out", str(out_dir))
    assert code == 0
    assert "[PASS] criterion 7" in out
    payload = json.loads((out_dir / "acceptance.json").read_text())
    assert payload["criterion_7"]["passed"] is True
    assert payload["criterion_7"]["elapsed"] >= 0.0


def test_acceptance_prints_each_criterion_as_it_finishes(capsys, tmp_path, monkeypatch):
    # a criterion's lines are on stdout before the next criterion starts, with its elapsed time
    from dirac_zero_lab import acceptance

    def first():
        res = acceptance.CriterionResult("first")
        res.add("one check", True, "fine")
        return res

    def second():
        assert capsys.readouterr().out == "[PASS] criterion 1: first (0.0s)\n    [ok] one check: fine\n"
        res = acceptance.CriterionResult("second")
        res.add("other check", False, "measured 2")
        return res

    monkeypatch.setattr(acceptance, "CRITERIA", {1: first, 3: second})
    code = main(["acceptance", "--only", " 3,1", "--out", str(tmp_path / "acc")])
    assert code == 1
    assert capsys.readouterr().out == (
        "[FAIL] criterion 3: second (0.0s)\n    [FAIL] other check: measured 2\n"
        "1/2 checks passed across 2 criteria\n"
    )
    payload = json.loads((tmp_path / "acc" / "acceptance.json").read_text())
    assert list(payload) == ["criterion_1", "criterion_3"]
    assert payload["criterion_3"]["checks"] == [{"name": "other check", "passed": False, "detail": "measured 2"}]
    assert payload["criterion_3"]["passed"] is False and 0.0 <= payload["criterion_3"]["elapsed"] < 0.05


def test_acceptance_only_clifford_by_number(capsys):
    code, out, _ = run_cli(capsys, "acceptance", "--only", "1")
    assert code == 0
    assert "[PASS] criterion 1" in out


def test_acceptance_unknown_selector(capsys, tmp_path, monkeypatch):
    # --only takes criterion numbers; a name, even the bootstrap criterion's, is no selector
    from dirac_zero_lab import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", {i: None for i in acceptance.CRITERIA})  # none may run
    out_dir = tmp_path / "acc"
    code, out, err = run_cli(capsys, "acceptance", "--only", "bootstrap", "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert "unknown criterion selector 'bootstrap': criteria are numbered 1-8" in err


def test_acceptance_bad_selector_runs_and_writes_nothing(capsys, tmp_path):
    out_dir = tmp_path / "acc"
    code, out, err = run_cli(capsys, "acceptance", "--only", "1,99", "--out", str(out_dir))
    assert code == 2
    assert "no criterion 99" in err
    assert "criterion" not in out
    assert not out_dir.exists()


def test_acceptance_empty_selector_is_usage_error(capsys, tmp_path, monkeypatch):
    # an empty --only selects no criterion; it must not mean "all eight"
    from dirac_zero_lab import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", {i: None for i in acceptance.CRITERIA})  # none may run
    out_dir = tmp_path / "acc"
    code, out, err = run_cli(capsys, "acceptance", "--only", "", "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert "unknown criterion selector ''" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


# ---------------------------------------------------------------------------
# settings: each command accepts, defaults and records only what it reads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv, grid, message",
    [
        (["verify-freeop"], ["--L", "{}", "--N", "16"], "box half-width must be positive"),
        (["nw-sweep", "--a", "1", "--b", "1/2"], ["--h", "{}"], "spacing h must be finite and positive"),
        (["zero-mode", "--potential", "zero"], ["--L", "{}", "--N", "16"], "box half-width must be positive"),
    ],
    ids=["verify-freeop", "nw-sweep", "zero-mode"],
)
def test_invalid_grid_writes_nothing(capsys, tmp_path, argv, grid, message, value):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, *argv, *(g.format(value) for g in grid), "--out", str(out_dir))
    assert code == 2
    assert message in err
    assert not out_dir.exists()


def _assert_clean_usage_error(code, out, err, out_dir):
    """Exit 2, one error line on stderr, nothing on stdout and nothing written."""
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("L", ["1e-300", "1e300"])
@pytest.mark.parametrize(
    "command", [["verify-freeop"], ["zero-mode", "--potential", "loss-yau"]], ids=["verify-freeop", "zero-mode"]
)
def test_grid_without_finite_cell_volume_is_usage_error(capsys, tmp_path, command, L):
    # h^3 or (pi/L)^3 over- or underflows: the grid is rejected before any arithmetic or warning
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, *command, "--L", L, "--N", "8", "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert "cell volume" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--a", "inf", "--b", "1/2"], "must be finite"),
        (["--a", "1e400", "--b", "1/2"], "must be finite"),
        (["--a", "1", "--b", "inf"], "must be finite"),
        (["--a", "1e300", "--b", "1/2"], "not finite on the grid"),
        (["--a", "1", "--b", "1e300"], "not finite on the grid"),
        (["--a", "1", "--b", "1/2", "--p", "3", "--h", "1e-300"], "cell volume"),
        # a finite kernel whose K^T K image overflows (to inf at a = 100, to nan at a = 200)
        (["--a", "100", "--b", "1"], "left the floating-point range"),
        (["--a", "200", "--b", "1"], "left the floating-point range"),
        (["--a", "300", "--b", "1", "--p", "3"], "left the floating-point range"),
    ],
)
def test_nw_sweep_unevaluable_kernel_is_usage_error(capsys, tmp_path, flags, message):
    out_dir = tmp_path / "nw"
    code, out, err = run_cli(capsys, "nw-sweep", *flags, "--scales", "2,3,4", "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert message in err


def test_nw_sweep_huge_p_runs_without_warning(capsys, tmp_path):
    # the p != 2 proxy raised |K phi| to the power p = 1e300 and overflowed
    code, out, err = run_cli(capsys, "nw-sweep", "--a", "1", "--b", "1/2", "--p", "1e300", "--scales", "2,3,4")
    assert code in (0, 1) and err == ""
    assert "criterion=unbounded" in out and "nan" not in out


@pytest.mark.parametrize(
    "flags",
    [
        ["--potential", "em", "--a-scale", "inf"],
        ["--potential", "scalar-decay", "--rho", "inf"],
        ["--potential", "em", "--rho=-1000"],
        ["--potential", "em", "--a-scale", "1e308"],
    ],
)
def test_zero_mode_potential_flag_out_of_float_range_is_usage_error(capsys, tmp_path, flags):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "zero-mode", *flags, "--L", "4", "--N", "8", "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert "potential is not finite" in err


@pytest.mark.parametrize(
    "flags, unread",
    [
        (["--potential", "zero", "--amp", "5", "--a-scale", "3"], "--amp, --a-scale"),
        (["--potential", "loss-yau", "--rho", "3"], "--rho"),
        (["--potential", "file:absent.dzl1", "--amp", "0.1"], "--amp"),  # checked before the file is read
        (["--potential", "scalar-decay", "--a-scale", "1"], "--a-scale"),
    ],
)
def test_zero_mode_potential_flag_the_potential_does_not_read_is_usage_error(capsys, tmp_path, flags, unread):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "zero-mode", *flags, "--L", "4", "--N", "8", "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert f"error: --potential {flags[1]} does not read {unread}\n" == err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-freeop", "--L", "4", "--N", "8"],
        ["nw-sweep", "--a", "1", "--b", "1/2", "--scales", "2,3,4"],
        ["zero-mode", "--potential", "zero", "--L", "4", "--N", "8"],
    ],
    ids=["verify-freeop", "nw-sweep", "zero-mode"],
)
def test_negative_seed_is_usage_error(capsys, tmp_path, argv, source):
    out_dir = tmp_path / "run"
    if source == "flag":
        argv = [*argv, "--seed", "-1"]
    else:
        (tmp_path / "lab.cfg").write_text("seed = -1\n")
        argv = [*argv, "--config", str(tmp_path / "lab.cfg")]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert "seed must be non-negative, got -1" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["bootstrap", "--rho", "2", "--seed", "5"], None),
        (["bootstrap", "--rho", "2", "--L", "3"], None),
        (["bootstrap", "--rho", "2", "--N", "8"], None),
        (["acceptance", "--only", "7", "--L", "8"], None),
        (["acceptance", "--only", "7", "--N", "16"], None),
        (["nw-sweep", "--a", "1", "--b", "1/2", "--d", "3"], None),
        (["nw-sweep", "--a", "1", "--b", "1/2"], "tol.zero_mode = 0.1"),
        (["bootstrap", "--rho", "2"], "tol.quadrature = 0.25"),
        (["acceptance", "--only", "7"], "tol.ah0 = 1e-10"),
        (["zero-mode", "--potential", "zero", "--L", "4", "--N", "4"], "tol.ah0 = 1e-10"),
        (["verify-freeop", "--L", "4", "--N", "4"], "tol.zero_mode = 0.1"),
        (["bootstrap", "--rho", "2"], "seed = 5"),
        (["acceptance", "--only", "7"], "L = 8"),
        (["nw-sweep", "--a", "1", "--b", "1/2", "--L", "16"], None),
        (["nw-sweep", "--a", "1", "--b", "1/2", "--N", "32"], None),
        (["nw-sweep", "--a", "1", "--b", "1/2"], "N = 32"),
        (["verify-freeop", "--L", "4", "--N", "4"], "h = 1"),
        (["verify-freeop", "--L", "4", "--N", "4", "--h", "1"], None),  # a prefix of --help, not --help
        (["bootstrap", "--rho", "2", "--js"], None),  # a prefix of --json, not --json
        (["acceptance", "--only", "7", "--seed", "5"], None),
        (["acceptance", "--only", "7"], "seed = 5"),
        # the bounds are constants: no command takes them as a setting
        (["verify-freeop", "--L", "4", "--N", "8", "--tol-ah0", "1e-9"], None),
        (["verify-freeop", "--L", "4", "--N", "8", "--tol-pairing", "1e-8"], None),
        (["verify-freeop", "--L", "4", "--N", "8", "--tol-quadrature", "1"], None),
        (["zero-mode", "--potential", "zero", "--L", "4", "--N", "4", "--tol", "0.2"], None),
        (["verify-freeop", "--L", "4", "--N", "8"], "tol.ah0 = 1e-10"),
        (["verify-freeop", "--L", "4", "--N", "8"], "tol.pairing = 1e-8"),
        (["verify-freeop", "--L", "4", "--N", "8"], "tol.quadrature = 0.25"),
        (["verify-freeop", "--L", "4", "--N", "8"], "tol.symbol_product = 1e-14"),
        (["zero-mode", "--potential", "zero", "--L", "4", "--N", "4"], "tol.zero_mode = 0.1"),
    ],
)
def test_unread_setting_is_usage_error(capsys, tmp_path, argv, config):
    out_dir = tmp_path / "run"
    if config is not None:
        (tmp_path / "lab.cfg").write_text(config + "\n")
        argv = [*argv, "--config", str(tmp_path / "lab.cfg")]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if config is not None:
        key = config.split(" = ")[0]
        assert f"unknown config key {key!r}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "source, value, message",
    [
        ("config", "N = 8.0", "config key 'N' in {cfg}: invalid literal for int() with base 10: '8.0'"),
        ("header", "N=8.0", "DZL1 header token 'N=8.0' in {pot}: invalid literal for int() with base 10: '8.0'"),
        ("scales", "8,x,16", "--scales: could not convert string to float: 'x'"),
        ("exponent", "1/0", "--b: bad numeric value '1/0'"),
    ],
)
def test_unparsable_value_names_its_key_and_source(capsys, tmp_path, source, value, message):
    cfg, pot, out_dir = tmp_path / "lab.cfg", tmp_path / "pot.dzl1", tmp_path / "run"
    if source == "config":
        cfg.write_text(value + "\n")
        argv = ["verify-freeop", "--config", str(cfg)]
    elif source == "header":
        pot.write_text(f"DZL1 L=4.0 {value} space=position components=16\n")
        argv = ["zero-mode", "--potential", f"file:{pot}", "--L", "4", "--N", "8"]
    elif source == "scales":
        argv = ["nw-sweep", "--a", "1", "--b", "1/2", "--scales", value]
    else:
        argv = ["nw-sweep", "--a", "1", "--b", value]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    _assert_clean_usage_error(code, out, err, out_dir)
    assert message.format(cfg=cfg, pot=pot) in err


def test_readme_settings_table_matches_settings():
    # README's table of each command's settings and defaults is cli.SETTINGS, row by row
    import pathlib
    import re

    from dirac_zero_lab.cli import SETTINGS

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | settings and defaults |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        command, cell = re.fullmatch(r"\| `([a-z-]+)` \| (.*) \|", line).groups()
        pairs = [] if cell == "none" else cell.split(", ")
        rows[command] = dict(re.fullmatch(r"`(\S+)` (\S+)", pair).groups() for pair in pairs)
    assert rows == {command: {key: str(value) for key, value in row.items()} for command, row in SETTINGS.items()}


def test_readme_usage_lines_match_parser():
    # README's command-line block has a line for every subcommand, and each flag on it is one of its options
    import argparse
    import pathlib
    import re

    from dirac_zero_lab.cli import build_parser

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    commands = []
    for line in block.splitlines():
        prog, command, usage = (line.split(None, 2) + [""])[:3]
        assert prog == "dirac-zero-lab", line
        commands.append(command)
        options = {opt for action in subparsers[command]._actions for opt in action.option_strings}
        assert set(re.findall(r"--[A-Za-z][\w-]*", usage)) <= options, line
    assert sorted(commands) == sorted(subparsers)


@pytest.mark.parametrize(
    "argv, flags, keys",
    [
        (
            ["verify-freeop"],
            ["--L", "8", "--N", "16", "--seed", "7"],
            ["L", "N", "seed", "out"],
        ),
        (
            ["nw-sweep", "--a", "1", "--b", "1/2", "--scales", "4,8,16"],
            ["--h", "2", "--seed", "7"],
            ["h", "seed", "out"],
        ),
        (["bootstrap", "--rho", "2"], [], ["out"]),
        (
            ["zero-mode", "--potential", "zero"],
            ["--L", "4", "--N", "4"],
            ["L", "N", "seed", "out"],
        ),
        (["acceptance", "--only", "7"], [], ["out"]),
    ],
    ids=["verify-freeop", "nw-sweep", "bootstrap", "zero-mode", "acceptance"],
)
def test_run_config_records_the_settings_read(capsys, tmp_path, argv, flags, keys):
    from dirac_zero_lab.cli import SETTINGS

    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = run_cli(capsys, *argv, *flags, "--out", str(first))
    written = (first / "run-config.cfg").read_text().splitlines()
    assert [line.split(" = ")[0] for line in written] == keys
    assert set(keys) == {*SETTINGS[argv[0]], "out"}
    # the record alone, passed back through --config, reproduces the run
    again, _, _ = run_cli(capsys, *argv, "--config", str(first / "run-config.cfg"), "--out", str(second))
    assert again == code
    rewritten = (second / "run-config.cfg").read_text().splitlines()
    assert [l for l in rewritten if not l.startswith("out =")] == [l for l in written if not l.startswith("out =")]
