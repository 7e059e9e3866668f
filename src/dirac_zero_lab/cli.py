"""Command-line surface: reproducible experiments and report emission.

Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 a detected
state classified as a resonance candidate (the theorem-violating outcome).
Every run that writes files also writes its resolved configuration beside
them, so no output lacks provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
    "verify-freeop": {
        "L": 12.0,
        "N": 24,
        "seed": acc.DEFAULT_SEED,
        "tol.ah0": 1e-10,
        "tol.pairing": 1e-8,
        # The gap at (L=12, N=24) is ~0.17, a floor of the periodic multiplier (the
        # quadrature converges to the continuum); acceptance asserts a failing 0.05.
        "tol.quadrature": 0.25,
        "tol.symbol_product": 1e-14,
    },
    "nw-sweep": {"h": 1.0, "seed": acc.DEFAULT_SEED},
    "bootstrap": {},
    "zero-mode": {
        "L": acc.DEFAULT_L,
        "N": acc.DEFAULT_N,
        "seed": acc.DEFAULT_SEED,
        "tol.zero_mode": resonance.ZERO_MODE_TOL,
    },
    "acceptance": {"seed": acc.DEFAULT_SEED},
}

# (flag, help) of the settings that have a flag; tol.symbol_product is set by --config only.
FLAGS = {
    "L": ("--L", "box half-width"),
    "N": ("--N", "points per axis, even"),
    "h": ("--h", "lattice spacing of every scale's grid"),
    "seed": ("--seed", "seed of the run's random data and start vectors"),
    "tol.ah0": ("--tol-ah0", "ah0-identity tolerance"),
    "tol.pairing": ("--tol-pairing", "pairing-identity tolerance"),
    "tol.quadrature": ("--tol-quadrature", "spectral-vs-quadrature tolerance"),
    "tol.zero_mode": ("--tol", "zero-mode eigenvalue tolerance"),
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

    Every tolerance must be finite and non-negative, and so must the seed.
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
                cfg[key] = type(row[key])(val)
            else:
                kind = "tolerance" if key.startswith("tol.") else "config key"
                raise ValueError(f"unknown {kind} {key!r} for {args.command}; known: {', '.join([*row, 'out'])}")
    for key in row:
        if vars(args).get(key) is not None:
            cfg[key] = vars(args)[key]
    if args.out:
        cfg["out"] = args.out
    for key, val in cfg.items():
        if key.startswith("tol.") and not (np.isfinite(val) and val >= 0):
            raise ValueError(f"tolerance {key} must be finite and non-negative, got {val}")
    if cfg.get("seed", 0) < 0:
        raise ValueError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def _emit(cfg: dict, name: str, text: str) -> None:
    if cfg["out"] is None:
        return
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], name), "w") as fh:
        fh.write(text)


def _emit_json(cfg: dict, name: str, payload: dict) -> None:
    _emit(cfg, name, json.dumps(payload, indent=2, sort_keys=True))


def _emit_settings(cfg: dict) -> None:
    """run-config.cfg: the settings the run read and ``out``, tolerances last."""
    keys = sorted(cfg, key=lambda key: key.startswith("tol."))
    _emit(cfg, "run-config.cfg", "".join(f"{key} = {cfg[key]}\n" for key in keys))


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
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("anticommutator deviations (j, k, max entrywise):")
        for j, k, d in report.deviations:
            print(f"  ({j},{k}): {d}")
        print(f"max deviation: {report.max_deviation}")
    return 0 if report.max_deviation == 0.0 else 1


def cmd_verify_freeop(args) -> int:
    cfg = _settings(args)
    grid = field.make_grid(cfg["L"], cfg["N"])
    seed = cfg["seed"]
    vals = np.zeros((grid.N,) * 3 + (4,), dtype=complex)
    vals[..., 0] = np.exp(-grid.radius2)
    bump = field.SpinorField(grid, vals, field.POSITION)
    # criteria 2 and 3's checks, on this command's grid, seeds and field counts
    lines = [
        ("symbol-product", freeop.symbol_product_max_deviation(grid), cfg["tol.symbol_product"]),
        ("ah0-identity", acc.ah0_identity_worst(grid, range(seed, seed + 8)), cfg["tol.ah0"]),
        ("pairing-identity", acc.pairing_discrepancy(grid, seed + 50, seed + 60), cfg["tol.pairing"]),
        ("spectral-vs-quadrature", acc.quadrature_gap(bump), cfg["tol.quadrature"]),
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


def _parse_number(text: str):
    try:
        return Fraction(text) if "/" in text or text.lstrip("+-").isdigit() else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad numeric value {text!r}") from exc


def cmd_nw_sweep(args) -> int:
    cfg = _settings(args)
    spec = kernelnorm.NwKernelSpec(a=_parse_number(args.a), b=_parse_number(args.b), p=_parse_number(args.p))
    scales = [float(s) for s in args.scales.split(",")]
    report = kernelnorm.scale_sweep(spec, scales, cfg["h"], seed=cfg["seed"])  # rejects bad scales first
    _emit_settings(cfg)
    for scale, est in zip(report.scales, report.norm_estimates):
        print(f"L={scale}: norm estimate {est:.6f}")
    print(
        f"growth={report.growth_class} criterion={report.criterion_class} "
        f"agreement={report.agreement}"
    )
    if cfg["out"]:
        kernelnorm.sweep_rows_to_csv(
            [report], os.path.join(cfg["out"], "nw-sweep.csv"), extra={"seed": cfg["seed"]}
        )
    # a spec on the criterion's edge may grow too slowly to classify: inconclusive is no failure there
    return 0 if report.agreement == "agree" or (report.agreement == "inconclusive" and spec.on_boundary) else 1


def cmd_bootstrap(args) -> int:
    try:
        trace = bs.bootstrap_trace(args.rho)
    except TypeError as exc:  # rho that is not rational
        raise ValueError(str(exc)) from exc
    cfg = _settings(args)
    _emit_settings(cfg)
    payload = trace.to_json_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"requested rho = {trace.requested_rho}" + (" (clamped to 5/2)" if trace.clamped else ""))
        print(f"{'n':>4}  {'exponent':>10}  justification")
        for step in trace.steps:
            print(f"{step.n:>4}  {str(step.exponent):>10}  {step.justification}")
        print(f"n0 = {trace.n0}; boundary_flag = {trace.boundary_flag}")
        print(trace.terminal)
    _emit_json(cfg, "bootstrap-trace.json", payload)
    return 0


def _build_potential(args, grid: field.GridSpec) -> potential.PotentialField:
    flags = {"--amp": (args.amp, "scalar"), "--rho": (args.rho, "scalar"), "--a-scale": (args.a_scale, "vector")}
    for flag, (value, part) in flags.items():
        if not np.isfinite(value):
            raise ValueError(f"{part} potential is not finite: {flag} {value}")
    name = args.potential
    if name.startswith("file:"):
        return potential.load_potential(name[5:])
    if name == "zero":
        return potential.from_em(None, None, grid)
    if name == "loss-yau":
        return potential.loss_yau_potential(grid)
    if name == "scalar-decay":
        if args.rho <= 1:
            raise ValueError(f"scalar-decay needs rho > 1, got {args.rho}")
        profile = args.amp * (1.0 + grid.radius2) ** (-args.rho / 2.0)
        return potential.from_em(profile, None, grid)
    if name == "em":
        ly = potential.loss_yau(grid)
        with np.errstate(over="ignore"):  # a potential out of float range is rejected by from_em
            q = args.amp * (1.0 + grid.radius2) ** (-args.rho / 2.0) if args.amp else None
            vector = args.a_scale * ly.vector_potential
        return potential.from_em(q, vector, grid)
    raise ValueError(f"unknown potential {name!r}")


def cmd_zero_mode(args) -> int:
    cfg = _settings(args, out="dzl-zero-mode")
    grid = field.make_grid(cfg["L"], cfg["N"])
    Q = _build_potential(args, grid)
    if Q.grid != grid:
        raise ValueError(f"the potential's grid {Q.grid} differs from the run grid {grid}; pass its --L and --N")
    report = resonance.birman_schwinger_spectrum(Q, k=args.k, seed=cfg["seed"])  # rejects a bad --k before any output
    _emit_settings(cfg)
    tol, out = cfg["tol.zero_mode"], cfg["out"]
    reference = potential.loss_yau(grid).zero_mode if args.potential == "loss-yau" else None
    resonance.eigenreport_to_json(
        report,
        os.path.join(out, "eigenreport.json"),
        field_dir=os.path.join(out, "eigenfields"),
        reference=reference,
    )
    _, modes = resonance.fixed_point_subspace(report, tol, Q)
    print(f"eigenvalues: {[f'{l.real:+.4f}{l.imag:+.4f}j' for l in report.eigenvalues]}")
    print(f"zero modes at tolerance {tol}: {len(modes)}")
    exit_code = 0  # 3 if any mode is a resonance candidate, else 1 if any is inconclusive or unclassified
    for i, mode in enumerate(modes):
        try:
            cls = resonance.classify_threshold_state(mode, Q)
        except ValueError as exc:
            print(f"mode {i}: unclassified ({exc})")
            exit_code = max(exit_code, 1)
            continue
        resonance.decay_table_to_csv(cls.fit, os.path.join(out, f"decay-fit-{i}.csv"))
        print(
            f"mode {i}: kind={cls.kind} sigma={cls.fit.sigma:.3f}+-{cls.fit.stderr:.3f} "
            f"residual={cls.residual:.3e} mu_check={cls.mu_check}"
        )
        exit_code = max(exit_code, {"inconclusive": 1, "resonance_candidate": 3}.get(cls.kind, 0))
    return exit_code


def cmd_acceptance(args) -> int:
    cfg = _settings(args)
    only = args.only.split(",") if args.only else None
    results = acc.run_acceptance(only=only, seed=cfg["seed"])
    _emit_settings(cfg)
    payload = {
        f"criterion_{r.index}": {
            "title": r.title,
            "passed": r.passed,
            "elapsed": r.elapsed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in r.checks],
        }
        for r in results
    }
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
                if key in FLAGS:
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
    p.add_argument("--amp", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--a-scale", type=float, default=1.0)
    p.add_argument("--k", type=int, default=6)

    p = command("acceptance", cmd_acceptance, "run the acceptance criteria suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers or names")
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
