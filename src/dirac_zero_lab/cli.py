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
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import acceptance as acc
from . import bootstrap as bs
from . import clifford, field, freeop, kernelnorm, potential, resonance

OUTPUT_ROOT_ENV = "DZL_OUTPUT_ROOT"

DEFAULT_TOLERANCES = {
    "symbol_product": 1e-14,
    "ah0": 1e-10,
    "pairing": 1e-8,
    # The gap at (L=12, N=24) is ~0.17, a floor of the periodic multiplier (the
    # quadrature converges to the continuum); acceptance asserts a failing 0.05.
    "quadrature": 0.25,
    "zero_mode": 0.1,
}


@dataclass
class RunConfig:
    L: float = acc.DEFAULT_L
    N: int = acc.DEFAULT_N
    seed: int = acc.DEFAULT_SEED
    out_dir: str | None = None
    tolerances: dict = dc_field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def lines(self) -> list[str]:
        rows = [
            f"L = {self.L}",
            f"N = {self.N}",
            f"seed = {self.seed}",
            f"out = {self.out_dir or ''}",
        ]
        rows.extend(f"tol.{k} = {v!r}" for k, v in sorted(self.tolerances.items()))
        return rows

    def write_beside_outputs(self, name: str = "run-config.cfg") -> None:
        if self.out_dir is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(self.out_dir, name), "w") as fh:
            fh.write("\n".join(self.lines()) + "\n")


class UsageError(Exception):
    pass


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"malformed config line: {raw.rstrip()}")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key] = val
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_config(args, **defaults) -> RunConfig:
    """Precedence: flag > --config file > DZL_OUTPUT_ROOT > per-command ``defaults``."""
    cfg = RunConfig(**defaults)
    if os.environ.get(OUTPUT_ROOT_ENV):
        cfg.out_dir = os.path.join(os.environ[OUTPUT_ROOT_ENV], getattr(args, "command", "run"))
    if getattr(args, "config", None):
        for key, val in _parse_config_file(args.config).items():
            if key in ("L", "N", "seed"):
                setattr(cfg, key, float(val) if key == "L" else int(val))
            elif key == "out":
                cfg.out_dir = val or cfg.out_dir
            elif key.startswith("tol."):
                if key[4:] not in DEFAULT_TOLERANCES:
                    raise UsageError(f"unknown tolerance {key!r}; known: {', '.join(DEFAULT_TOLERANCES)}")
                cfg.tolerances[key[4:]] = float(val)
            else:
                raise UsageError(f"unknown config key {key!r}; known: L, N, seed, out, tol.<name>")
    for name in ("L", "N", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    for name, dest in (("tol_ah0", "ah0"), ("tol_pairing", "pairing"), ("tol_quadrature", "quadrature"), ("tol", "zero_mode")):
        val = getattr(args, name, None)
        if val is not None:
            cfg.tolerances[dest] = val
    if cfg.N % 2 or cfg.N < 4 or cfg.L <= 0:
        raise UsageError(f"invalid grid: L={cfg.L}, N={cfg.N}")
    return cfg


def _emit_json(cfg: RunConfig, name: str, payload: dict) -> None:
    if cfg.out_dir is None:
        return
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


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
    cfg = _build_config(args, L=12.0, N=24)
    cfg.write_beside_outputs()
    grid = field.make_grid(cfg.L, cfg.N)
    tol = cfg.tolerances
    failures = []
    lines = []
    dev = freeop.symbol_product_max_deviation(grid)
    lines.append(("symbol-product", dev, tol["symbol_product"]))
    worst = 0.0
    for i in range(8):
        f = field.random_field(grid, cfg.seed + i, band_limit=2.0, mean_zero=True)
        worst = max(worst, freeop.verify_ah0_identity(f))
    lines.append(("ah0-identity", worst, tol["ah0"]))
    g = field.random_field(grid, cfg.seed + 50)
    phi = acc.annulus_test_field(grid, cfg.seed + 60)
    lhs, rhs = freeop.verify_pairing_identity(g, phi)
    scale = abs(lhs) + abs(rhs) + field.l2_norm(g) * field.l2_norm(phi)
    lines.append(("pairing-identity", abs(lhs - rhs) / scale, tol["pairing"]))
    vals = np.zeros((grid.N,) * 3 + (4,), dtype=complex)
    vals[..., 0] = np.exp(-grid.radius2)
    bump = field.SpinorField(grid, vals, field.POSITION)
    rel = field.l2_norm(
        freeop.apply_a_quadrature(bump) - freeop.apply_a_spectral(bump, warn_threshold=np.inf)
    ) / field.l2_norm(bump)
    lines.append(("spectral-vs-quadrature", rel, tol["quadrature"]))
    for name, value, bound in lines:
        ok = value <= bound
        if not ok:
            failures.append(name)
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {value:.3e} (tolerance {bound:.3e})")
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
        raise UsageError(f"bad numeric value {text!r}") from exc


def cmd_nw_sweep(args) -> int:
    cfg = _build_config(args)
    cfg.write_beside_outputs()
    try:
        spec = kernelnorm.NwKernelSpec(
            a=_parse_number(args.a), b=_parse_number(args.b), d=args.d, p=_parse_number(args.p)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    scales = [float(s) for s in args.scales.split(",")]
    template = field.make_grid(cfg.L, cfg.N)
    report = kernelnorm.scale_sweep(spec, scales, template, seed=cfg.seed)
    for scale, est in zip(report.scales, report.norm_estimates):
        print(f"L={scale}: norm estimate {est:.6f}")
    print(
        f"growth={report.growth_class} criterion={report.criterion_class} "
        f"agreement={report.agreement}"
    )
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        kernelnorm.sweep_rows_to_csv(
            [report], os.path.join(cfg.out_dir, "nw-sweep.csv"), extra={"seed": cfg.seed}
        )
    if report.agreement == "agree":
        return 0
    if report.agreement == "inconclusive":
        d = Fraction(spec.d)
        boundary = (
            isinstance(spec.a, (int, Fraction))
            and isinstance(spec.p, (int, Fraction))
            and (Fraction(spec.a) == d / Fraction(spec.p) or Fraction(spec.b) == d / spec.q)
        )
        return 0 if boundary else 1
    return 1


def cmd_bootstrap(args) -> int:
    try:
        trace = bs.bootstrap_trace(args.rho)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    cfg = _build_config(args)
    cfg.write_beside_outputs()
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
    name = args.potential
    if name.startswith("file:"):
        return potential.load_potential(name[5:])
    if name == "zero":
        return potential.from_em(None, None, grid)
    if name == "loss-yau":
        return potential.loss_yau_potential(grid)
    if name == "scalar-decay":
        if args.rho <= 1:
            raise UsageError(f"scalar-decay needs rho > 1, got {args.rho}")
        profile = args.amp * (1.0 + grid.radius2) ** (-args.rho / 2.0)
        return potential.from_em(profile, None, grid)
    if name == "em":
        ly = potential.loss_yau(grid)
        q = args.amp * (1.0 + grid.radius2) ** (-args.rho / 2.0) if args.amp else None
        return potential.from_em(q, args.a_scale * ly.vector_potential, grid)
    raise UsageError(f"unknown potential {name!r}")


def cmd_zero_mode(args) -> int:
    cfg = _build_config(args, out_dir="dzl-zero-mode")
    grid = field.make_grid(cfg.L, cfg.N)
    Q = _build_potential(args, grid)
    if Q.grid != grid:
        raise ValueError(f"the potential's grid {Q.grid} differs from the run grid {grid}; pass its --L and --N")
    report = resonance.birman_schwinger_spectrum(Q, k=args.k, seed=cfg.seed)  # rejects a bad --k before any output
    cfg.write_beside_outputs()
    tol = cfg.tolerances["zero_mode"]
    reference = potential.loss_yau(grid).zero_mode if args.potential == "loss-yau" else None
    resonance.eigenreport_to_json(
        report,
        os.path.join(cfg.out_dir, "eigenreport.json"),
        field_dir=os.path.join(cfg.out_dir, "eigenfields"),
        reference=reference,
    )
    _, modes = resonance.fixed_point_subspace(report, tol, Q)
    print(f"eigenvalues: {[f'{l.real:+.4f}{l.imag:+.4f}j' for l in report.eigenvalues]}")
    print(f"zero modes at tolerance {tol}: {len(modes)}")
    if not modes:
        return 0
    exit_code = 0
    for i, mode in enumerate(modes):
        cls = resonance.classify_threshold_state(mode, Q)
        try:
            fit = resonance.decay_fit(mode)
            resonance.decay_table_to_csv(fit, os.path.join(cfg.out_dir, f"decay-fit-{i}.csv"))
        except ValueError as exc:
            print(f"mode {i}: decay table skipped ({exc})")
        print(
            f"mode {i}: kind={cls.kind} sigma={cls.sigma:.3f}+-{cls.sigma_stderr:.3f} "
            f"residual={cls.residual:.3e} mu_check={cls.mu_check}"
        )
        if cls.kind == "resonance_candidate":
            exit_code = 3
        elif cls.kind == "inconclusive" and exit_code == 0:
            exit_code = 1
    return exit_code


def cmd_acceptance(args) -> int:
    cfg = _build_config(args)
    cfg.write_beside_outputs()
    only = args.only.split(",") if args.only else None
    try:
        results = acc.run_acceptance(only=only, seed=cfg.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=float, default=None, help="box half-width")
    p.add_argument("--N", type=int, default=None, help="points per axis (even)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--config", type=str, default=None, help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-zero-lab",
        description="Desk-scale numerics for zero modes of the 3D massless Dirac operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clifford-check", help="verify the Dirac matrix algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_clifford_check)

    p = sub.add_parser("verify-freeop", help="run the inverse-operator identity checks")
    _add_grid_args(p)
    p.add_argument("--tol-ah0", type=float, default=None)
    p.add_argument("--tol-pairing", type=float, default=None)
    p.add_argument("--tol-quadrature", type=float, default=None)
    p.set_defaults(func=cmd_verify_freeop)

    p = sub.add_parser("nw-sweep", help="norm-growth sweep for a weighted kernel")
    _add_grid_args(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p", default="2")
    p.add_argument("--scales", default="8,16,32")
    p.set_defaults(func=cmd_nw_sweep)

    p = sub.add_parser("bootstrap", help="exact decay-iteration trace")
    _add_grid_args(p)
    p.add_argument("--rho", required=True, help="rational decay exponent, e.g. 8/5")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("zero-mode", help="fixed-point spectrum and classification")
    _add_grid_args(p)
    p.add_argument("--potential", default="loss-yau", help="zero|loss-yau|scalar-decay|em|file:PATH")
    p.add_argument("--amp", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--a-scale", type=float, default=1.0)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--tol", type=float, default=None, help="zero-mode eigenvalue tolerance")
    p.set_defaults(func=cmd_zero_mode)

    p = sub.add_parser("acceptance", help="run the acceptance criteria suite")
    _add_grid_args(p)
    p.add_argument("--only", default=None, help="comma-separated criterion numbers or names")
    p.set_defaults(func=cmd_acceptance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
