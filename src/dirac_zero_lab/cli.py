"""Command-line surface: reproducible experiments, and every output file and line they emit.

Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 a detected
state classified as a resonance candidate (the theorem-violating outcome).
Every run that writes files also writes its resolved configuration beside
them, so no output lacks provenance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import acceptance as acc
from . import bootstrap as bs
from . import clifford, field, freeop, kernelnorm, potential, resonance

OUTPUT_ROOT_ENV = "DZL_OUTPUT_ROOT"

# The settings each command reads, with their defaults.  A command takes a
# flag or a --config key only for its own row (plus out), and its
# run-config.cfg records exactly that row (plus out).
SETTINGS = {
    "verify-freeop": {"L": 12.0, "N": 24, "seed": acc.DEFAULT_SEED},
    "nw-sweep": {"h": 1.0, "seed": acc.DEFAULT_SEED},
    "bootstrap": {},
    "zero-mode": {"L": acc.DEFAULT_L, "N": acc.DEFAULT_N, "seed": acc.DEFAULT_SEED},
    "acceptance": {},
}

# verify-freeop's spectral-vs-quadrature bound.  The gap at (L=12, N=24) is ~0.17,
# a floor of the periodic multiplier (the quadrature converges to the continuum);
# acceptance asserts a failing 0.05.
QUADRATURE_TOL = 0.25

# The potential flags each zero-mode potential reads, with their defaults ("file:" for every file:PATH).
POTENTIALS = {
    "zero": {},
    "loss-yau": {},
    "file:": {},
    "scalar-decay": {"amp": 0.1, "rho": 2.0},
    "em": {"amp": 0.1, "rho": 2.0, "a_scale": 1.0},
}
# (flag, the part of the potential it sets) of each potential flag
POTENTIAL_FLAGS = {"amp": ("--amp", "scalar"), "rho": ("--rho", "scalar"), "a_scale": ("--a-scale", "vector")}

# (flag, help) of each setting
FLAGS = {
    "L": ("--L", "box half-width"),
    "N": ("--N", "points per axis, even"),
    "h": ("--h", "lattice spacing of every scale's grid"),
    "seed": ("--seed", "seed of the run's random data and start vectors"),
}


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line: {raw.rstrip()}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key in values:
                    raise ValueError(f"config key {key!r} is given twice in {path}")
                values[key] = val
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _settings(args, out: str | None = None) -> dict:
    """The command's settings plus ``out``: flag > --config file > DZL_OUTPUT_ROOT > default.

    The seed must be non-negative.
    """
    row = SETTINGS[args.command]
    cfg = dict(row, out=out)
    if os.environ.get(OUTPUT_ROOT_ENV):
        cfg["out"] = os.path.join(os.environ[OUTPUT_ROOT_ENV], args.command)
    if args.config:
        for key, val in _parse_config_file(args.config).items():
            if key == "out":
                cfg["out"] = val or cfg["out"]
            elif key in row:
                try:
                    cfg[key] = type(row[key])(val)
                except ValueError as exc:
                    raise ValueError(f"config key {key!r} in {args.config}: {exc}") from None
            else:
                raise ValueError(f"unknown config key {key!r} for {args.command}; known: {', '.join([*row, 'out'])}")
    for key in row:
        if vars(args).get(key) is not None:
            cfg[key] = vars(args)[key]
    if args.out:
        cfg["out"] = args.out
    if cfg.get("seed", 0) < 0:
        raise ValueError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def _emit(cfg: dict, name: str, text: str) -> None:
    if cfg["out"] is None:
        return
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], name), "w", newline="") as fh:  # a CSV's \r\n rows stay as written
        fh.write(text)


def _json(payload) -> str:
    """The JSON text of every record ``cli`` writes: a Fraction as [numerator, denominator], a complex as [real, imag]."""

    def exact(value):
        if isinstance(value, Fraction):
            return [value.numerator, value.denominator]
        if isinstance(value, complex):
            return [value.real, value.imag]
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return json.dumps(payload, indent=2, sort_keys=True, default=exact)


def _emit_json(cfg: dict, name: str, payload: dict) -> None:
    _emit(cfg, name, _json(payload))


def _emit_csv(cfg: dict, name: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _emit(cfg, name, buf.getvalue())


def _emit_settings(cfg: dict) -> None:
    """run-config.cfg: the settings the run read and ``out``."""
    _emit(cfg, "run-config.cfg", "".join(f"{key} = {val}\n" for key, val in cfg.items()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_clifford_check(args) -> int:
    report = clifford.check_clifford()
    if args.json:
        payload = {
            "max_deviation": report.max_deviation,
            "pairs": [{"j": j, "k": k, "deviation": d} for j, k, d in report.deviations],
        }
        print(_json(payload))
    else:
        print("anticommutator deviations (j, k, max entrywise):")
        for j, k, d in report.deviations:
            print(f"  ({j},{k}): {d}")
        print(f"max deviation: {report.max_deviation}")
    return 0 if report.max_deviation == 0.0 else 1


def cmd_verify_freeop(args) -> int:
    cfg = _settings(args)
    grid = field.GridSpec(cfg["L"], cfg["N"])
    seed = cfg["seed"]
    vals = np.zeros((grid.N,) * 3 + (4,), dtype=complex)
    vals[..., 0] = np.exp(-grid.radius2)
    bump = field.SpinorField(grid, vals, field.POSITION)
    # criteria 2 and 3's checks, on this command's grid, seeds and field counts
    lines = [
        ("symbol-product", freeop.symbol_product_max_deviation(grid), acc.SYMBOL_PRODUCT_TOL),
        ("ah0-identity", acc.ah0_identity_worst(grid, range(seed, seed + 8)), acc.AH0_TOL),
        ("pairing-identity", acc.pairing_discrepancy(grid, seed + 50, seed + 60), acc.PAIRING_TOL),
        ("spectral-vs-quadrature", acc.quadrature_gap(bump), QUADRATURE_TOL),
    ]
    _emit_settings(cfg)
    for name, value, bound in lines:
        print(f"[{'ok' if value <= bound else 'FAIL'}] {name}: {value:.3e} (tolerance {bound:.3e})")
    failures = [name for name, value, bound in lines if not value <= bound]
    _emit_json(
        cfg,
        "verify-freeop.json",
        {name: {"value": value, "tolerance": bound} for name, value, bound in lines},
    )
    if failures:
        print(f"failed checks: {', '.join(failures)}")
        return 1
    return 0


def _parse_number(text: str, flag: str):
    try:
        return Fraction(text) if "/" in text or text.lstrip("+-").isdigit() else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag}: bad numeric value {text!r}") from exc


def cmd_nw_sweep(args) -> int:
    cfg = _settings(args)
    a, b, p = (_parse_number(getattr(args, name), f"--{name}") for name in "abp")
    spec = kernelnorm.NwKernelSpec(a=a, b=b, p=p)
    try:
        scales = [float(s) for s in args.scales.split(",")]
    except ValueError as exc:
        raise ValueError(f"--scales: {exc}") from None
    report = kernelnorm.scale_sweep(spec, scales, cfg["h"], seed=cfg["seed"])  # rejects bad scales first
    _emit_settings(cfg)
    for scale, est in zip(report.scales, report.norm_estimates):
        print(f"L={scale}: norm estimate {est:.6f}")
    print(
        f"growth={report.growth_class} criterion={report.criterion_class} "
        f"agreement={report.agreement}"
    )
    _emit_csv(
        cfg,
        "nw-sweep.csv",
        ["a", "b", "d", "p", "scale", "norm_estimate", "iterations", "converged",
         "growth_class", "criterion_class", "seed"],
        [
            [spec.a, spec.b, spec.d, spec.p, s, e.value, e.iterations, e.converged,
             report.growth_class, report.criterion_class, cfg["seed"]]
            for s, e in zip(report.scales, report.estimates)
        ],
    )
    # a spec on the criterion's edge may grow too slowly to classify: inconclusive is no failure there
    return 0 if report.agreement == "agree" or (report.agreement == "inconclusive" and spec.on_boundary) else 1


def cmd_bootstrap(args) -> int:
    trace = bs.bootstrap_trace(args.rho)
    cfg = _settings(args)
    _emit_settings(cfg)
    text = _json(dataclasses.asdict(trace))
    if args.json:
        print(text)
    else:
        print(f"requested rho = {trace.requested_rho}" + (" (clamped to 5/2)" if trace.clamped else ""))
        print(f"{'n':>4}  {'exponent':>10}  justification")
        for step in trace.steps:
            print(f"{step.n:>4}  {str(step.exponent):>10}  {step.justification}")
        print(f"n0 = {trace.n0}; boundary_flag = {trace.boundary_flag}")
        print(trace.terminal)
    _emit(cfg, "bootstrap-trace.json", text)
    return 0


def _build_potential(args, grid: field.GridSpec) -> tuple[potential.PotentialField, field.SpinorField | None]:
    """The named potential, and the Loss-Yau zero mode as the overlap reference for ``loss-yau``."""
    name = args.potential
    kind = "file:" if name.startswith("file:") else name
    if kind not in POTENTIALS:
        raise ValueError(f"unknown potential {name!r}")
    given = {key: vars(args)[key] for key in POTENTIAL_FLAGS if vars(args)[key] is not None}
    unread = [POTENTIAL_FLAGS[key][0] for key in given if key not in POTENTIALS[kind]]
    if unread:  # a flag the potential does not read is a usage error, not a setting silently dropped
        raise ValueError(f"--potential {name} does not read {', '.join(unread)}")
    values = {**POTENTIALS[kind], **given}
    for key, value in values.items():
        if not np.isfinite(value):
            flag, part = POTENTIAL_FLAGS[key]
            raise ValueError(f"{part} potential is not finite: {flag} {value}")
    if kind == "file:":
        return potential.load_potential(name[5:]), None
    if name == "zero":
        return potential.from_em(None, None, grid), None
    if name == "loss-yau":
        ly = potential.loss_yau(grid)
        return potential.from_em(None, ly.vector_potential, grid), ly.zero_mode
    amp, rho = values["amp"], values["rho"]
    if name == "scalar-decay":
        if rho <= 1:
            raise ValueError(f"scalar-decay needs rho > 1, got {rho}")
        return potential.from_em(amp * (1.0 + grid.radius2) ** (-rho / 2.0), None, grid), None
    ly = potential.loss_yau(grid)
    with np.errstate(over="ignore"):  # a potential out of float range is rejected by from_em
        q = amp * (1.0 + grid.radius2) ** (-rho / 2.0) if amp else None
        vector = values["a_scale"] * ly.vector_potential
    return potential.from_em(q, vector, grid), None


def _remove_numbered_outputs(out: str) -> None:
    """Delete an earlier run's eigenfields/eigenfield_<i>.dzl1 and decay-fit-<i>.csv files from ``out``."""
    for folder, pattern in ((os.path.join(out, "eigenfields"), r"eigenfield_\d+\.dzl1"), (out, r"decay-fit-\d+\.csv")):
        for name in os.listdir(folder) if os.path.isdir(folder) else ():
            if re.fullmatch(pattern, name):
                os.remove(os.path.join(folder, name))


def _emit_eigenreport(cfg: dict, report: resonance.EigenReport, reference: field.SpinorField | None) -> None:
    """eigenreport.json (each report field but the eigenfields), and each field as eigenfields/eigenfield_<i>.dzl1."""
    overlaps = []
    if reference is not None:
        ref_norm = field.l2_norm(reference)
        for fld in report.eigenfields:
            ip = np.sum(fld.values * np.conj(reference.values)) * fld.grid.cell_volume
            overlaps.append(float(abs(ip) / (field.l2_norm(fld) * ref_norm)))
    field_dir = os.path.join(cfg["out"], "eigenfields")
    os.makedirs(field_dir, exist_ok=True)
    files = [os.path.join(field_dir, f"eigenfield_{i}.dzl1") for i in range(len(report.eigenfields))]
    for fld, fp in zip(report.eigenfields, files):
        field.save_field(fld, fp)
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "eigenfields"}
    _emit_json(cfg, "eigenreport.json", dict(payload, eigenfield_files=files, overlaps=overlaps))


def cmd_zero_mode(args) -> int:
    cfg = _settings(args, out="dzl-zero-mode")
    grid = field.GridSpec(cfg["L"], cfg["N"])
    Q, reference = _build_potential(args, grid)
    if Q.grid != grid:
        raise ValueError(f"the potential's grid {Q.grid} differs from the run grid {grid}; pass its --L and --N")
    report = resonance.birman_schwinger_spectrum(Q, k=args.k, seed=cfg["seed"])  # rejects a bad --k before any output
    _emit_settings(cfg)
    _remove_numbered_outputs(cfg["out"])  # so the directory holds this run's fields and fits only
    _emit_eigenreport(cfg, report, reference)
    modes = resonance.zero_modes(report, Q)
    del Q  # its last reader: the classification runs without its table
    print(f"eigenvalues: {[resonance.format_eigenvalue(lam) for lam in report.eigenvalues]}")
    if report.shortfall:  # eigenreport.json records it too
        print(report.shortfall)
    print(f"zero modes at tolerance {resonance.ZERO_MODE_TOL}: {len(modes)}")
    exit_code = 0  # 3 if any mode is a resonance candidate, else 1 if any is inconclusive or unclassified
    for i, (mode, resid) in enumerate(modes):
        cls = resonance.classify_threshold_state(mode, resid)
        exit_code = max(exit_code, {"zero_mode": 0, "resonance_candidate": 3}.get(cls.kind, 1))
        fit = cls.fit
        if fit is None:
            print(f"mode {i}: unclassified ({cls.reason})")
            continue
        _emit_csv(
            cfg,
            f"decay-fit-{i}.csv",
            ["radius_inner", "radius_outer", "mass", "fitted_slope", "sigma"],
            [[a, b, m, fit.slope, fit.sigma] for a, b, m in zip(fit.edges[:-1], fit.edges[1:], fit.masses)],
        )
        print(
            f"mode {i}: kind={cls.kind} sigma={fit.sigma:.3f}+-{fit.stderr:.3f} "
            f"residual={resid:.3e} mu_check={cls.mu_check}"
        )
    return exit_code


def _criterion_indices(only: str | None, criteria: dict) -> list[int]:
    """The criteria that ``--only`` names (all without it), checked before any of them runs."""
    if only is None:
        return sorted(criteria)
    indices = set()
    for item in only.split(","):
        token = item.strip()
        if not token.isdigit():
            raise ValueError(f"unknown criterion selector {item!r}: criteria are numbered 1-{len(criteria)}")
        if int(token) not in criteria:
            raise ValueError(f"no criterion {int(token)}")
        indices.add(int(token))
    return sorted(indices)


def _check_line(check: acc.CheckResult) -> str:
    """One acceptance check as ``acceptance`` prints it."""
    return f"    [{'ok' if check.passed else 'FAIL'}] {check.name}: {check.detail}"


def cmd_acceptance(args) -> int:
    cfg = _settings(args)
    criteria = acc.CRITERIA
    results, payload = [], {}  # payload: acceptance.json
    for idx in _criterion_indices(args.only, criteria):
        t0 = time.perf_counter()
        result = criteria[idx]()
        elapsed = time.perf_counter() - t0
        # each criterion's lines print as soon as it finishes
        print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {idx}: {result.title} ({elapsed:.1f}s)")
        for check in result.checks:
            print(_check_line(check))
        results.append(result)
        payload[f"criterion_{idx}"] = dict(dataclasses.asdict(result), passed=result.passed, elapsed=elapsed)
    _emit_settings(cfg)
    _emit_json(cfg, "acceptance.json", payload)
    total = sum(len(r.checks) for r in results)
    good = sum(sum(c.passed for c in r.checks) for r in results)
    print(f"{good}/{total} checks passed across {len(results)} criteria")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-zero-lab",
        description="Desk-scale numerics for zero modes of the 3D massless Dirac operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text):
        """A subcommand with flags for the settings it reads, and --out and --config if it has outputs."""
        p = sub.add_parser(name, help=text, allow_abbrev=False)  # so --h is no --help, --se no --seed
        p.set_defaults(func=func)
        if name in SETTINGS:
            for key, default in SETTINGS[name].items():
                flag, doc = FLAGS[key]
                p.add_argument(flag, dest=key, type=type(default), default=None, help=f"{doc} (default {default})")
            p.add_argument("--out", type=str, default=None, help="output directory")
            p.add_argument("--config", type=str, default=None, help="key = value config file")
        return p

    p = command("clifford-check", cmd_clifford_check, "verify the Dirac matrix algebra")
    p.add_argument("--json", action="store_true")

    command("verify-freeop", cmd_verify_freeop, "run the inverse-operator identity checks")

    p = command("nw-sweep", cmd_nw_sweep, "norm-growth sweep for a weighted kernel")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--p", default="2")
    p.add_argument("--scales", default="8,16,32")

    p = command("bootstrap", cmd_bootstrap, "exact decay-iteration trace")
    p.add_argument("--rho", required=True, help="rational decay exponent, e.g. 8/5")
    p.add_argument("--json", action="store_true")

    p = command("zero-mode", cmd_zero_mode, "fixed-point spectrum and classification")
    p.add_argument("--potential", default="loss-yau", help="zero|loss-yau|scalar-decay|em|file:PATH")
    for key, (flag, _) in POTENTIAL_FLAGS.items():
        p.add_argument(flag, dest=key, type=float, default=None)  # None: not given
    p.add_argument("--k", type=int, default=6)

    p = command("acceptance", cmd_acceptance, "run the acceptance criteria suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers, 1-8")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input of any kind: usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
