"""Benchmark for dirac-zero-lab: three CLI workloads, gated answers, traced layers.

    python3 bench/run.py                  # every workload, untraced then traced
    python3 bench/run.py --workload zero-mode --seed 1 --seconds 30 --trace 0

One operation is one CLI invocation in a fresh interpreter (bench/opcli.py),
as a user's run is, so nothing cached inside one process carries over to the
next op.  Load comes from one closed-loop client: an op starts when the
previous one has exited, and ops repeat until --seconds have passed and at
least two ops have run.  Every op's answer is checked; a failing op is
counted, not raised.  With --trace 1 every second op runs under the span
tracer (bench/tracer.py) and the run reports per-layer metrics instead of
end-to-end ones.  The last line of stdout is the JSON result; a results file
with provenance goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OPCLI = os.path.join(BENCH, "opcli.py")
WORK = os.path.join(BENCH, ".work")
RESULTS = os.path.join(BENCH, "results")
PYCACHE = os.path.join(BENCH, ".pycache")

DEFAULT_SEED = 20240301
DEFAULT_SECONDS = 30
SETUP_PROBES = 4  # import-only probes before the first op, and 2 more after each op
MIN_OPS = 2  # a median of at least two ops, even if one op outlasts --seconds
RUN_DEADLINE_S = 170.0  # an op still running then is killed and counted failed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Directories whose contents a run may change: the benchmark's own scratch
# and results, and caches that tools keep beside sources.
SNAPSHOT_SKIP_NAMES = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build"}
SNAPSHOT_SKIP_PATHS = {WORK, RESULTS, PYCACHE}

END_TO_END = {  # name: (unit, better)
    "op_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "field.fft_calls": ("count", "lower"),
    "field.fft_self_s": ("s", "lower"),
    "field.norm_self_s": ("s", "lower"),
    "field.fft_pair_ms": ("ms", "lower"),
    "freeop.a_spectral_calls": ("count", "lower"),
    "freeop.a_spectral_self_s": ("s", "lower"),
    "freeop.a_spectral_ms": ("ms", "lower"),
    "freeop.quadrature_share": ("ratio", "lower"),
    "freeop.quadrature_pairs": ("count", "lower"),
    "freeop.quadrature_ms": ("ms", "lower"),
    "potential.apply_calls": ("count", "lower"),
    "potential.apply_share": ("ratio", "lower"),
    "potential.build_share": ("ratio", "lower"),
    "resonance.matvecs": ("count", "lower"),
    "resonance.spectrum_share": ("ratio", "lower"),
    "resonance.spectrum_self_share": ("ratio", "lower"),
    "resonance.outside_matvec_share": ("ratio", "lower"),
    "resonance.matvecs_per_pair": ("ratio", "lower"),
    "resonance.matvec_ms": ("ms", "lower"),
    "resonance.classify_share": ("ratio", "lower"),
    "kernelnorm.estimate_calls": ("count", "lower"),
    "kernelnorm.estimate_self_share": ("ratio", "lower"),
    "kernelnorm.power_iters": ("count", "lower"),
    "kernelnorm.nw_apply_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
ANSWERS = {  # printed and stored, gated per op where the README says so
    "failed_share": ("ratio", "lower"),
    "zero_mode.eig_dev": ("1", "lower"),
    "zero_mode.overlap": ("1", "higher"),
    "known_red.quadrature_gap": ("1", "lower"),
    "known_red.weyl_residual": ("1", "lower"),
}


def use_checkout() -> None:
    """Import dirac_zero_lab from this checkout; cache its byte code in bench/."""
    sys.path.insert(0, SRC)
    sys.pycache_prefix = PYCACHE


# ---------------------------------------------------------------------------
# workloads: CLI arguments and per-op correctness gates
# ---------------------------------------------------------------------------


class GateError(Exception):
    pass


def _zero_mode_gate(rc, stdout, out):
    from dirac_zero_lab import field, potential, resonance

    with open(os.path.join(out, "eigenreport.json")) as fh:
        report = json.load(fh)
    lams = [complex(re_, im) for re_, im in report["eigenvalues"]]
    if not lams:
        raise GateError("no eigenvalues reported")
    eig_dev = min(abs(lam - 1.0) for lam in lams)
    near = [i for i, lam in enumerate(lams) if abs(lam - 1.0) <= 0.1]
    paths = [os.path.join(out, "eigenfields", f"eigenfield_{i}.dzl1") for i in near]
    fields = [field.load_field(path) for path in paths]
    overlap = 0.0
    if fields:
        reference = potential.loss_yau(fields[0].grid).zero_mode
        overlap = resonance.subspace_overlap(fields, reference)
    answers = {"zero_mode.eig_dev": eig_dev, "zero_mode.overlap": overlap}
    kinds = re.findall(r"^mode \d+: kind=(\S+)", stdout, re.M)
    if rc != 0:
        raise GateError(f"exit code {rc}", answers)
    if "zero_mode" not in kinds:
        raise GateError(f"no mode classified zero_mode (kinds {kinds})", answers)
    if eig_dev > 0.1:
        raise GateError(f"min |lambda - 1| = {eig_dev:.4g} > 0.1", answers)
    return answers


def _verify_freeop_gate(rc, stdout, out):
    with open(os.path.join(out, "verify-freeop.json")) as fh:
        checks = json.load(fh)
    expected = {"symbol-product", "ah0-identity", "pairing-identity", "spectral-vs-quadrature"}
    if set(checks) != expected:
        raise GateError(f"checks {sorted(checks)}, expected {sorted(expected)}")
    answers = {"known_red.quadrature_gap": checks["spectral-vs-quadrature"]["value"]}
    over = [k for k, c in checks.items() if not c["value"] <= c["tolerance"]]
    if rc != 0 or over:
        raise GateError(f"exit code {rc}; over tolerance: {over}", answers)
    return answers


# Norm estimates of the kernel-norms op at L = 8, 16, 32 (CLI default start
# vector).  Power iteration stops at rtol 1e-4, so a correct op lands well
# inside 1% of them.
KERNEL_NORMS_EXPECTED = (21.139646, 23.989835, 26.226069)


def _kernel_norms_gate(rc, stdout, out):
    estimates = [float(v) for v in re.findall(r"^L=\S+: norm estimate (\S+)$", stdout, re.M)]
    verdict = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if rc != 0 or verdict != "growth=stable criterion=bounded agreement=agree":
        raise GateError(f"exit code {rc}; verdict {verdict!r}")
    if len(estimates) != len(KERNEL_NORMS_EXPECTED) or not all(
        abs(got / want - 1.0) <= 0.01 for got, want in zip(estimates, KERNEL_NORMS_EXPECTED)
    ):
        raise GateError(f"norm estimates {estimates}, expected {list(KERNEL_NORMS_EXPECTED)}")
    return {}


# zero-mode and kernel-norms run without --seed, as a user runs them: there
# the CLI seed is the start vector of the Krylov solver or of the power
# iterations, and it sets how much work an op does (zero-mode: 180 matvecs at
# the default, 120 at seeds 1 and 7), for the same answer.  Handing them the
# benchmark seed would turn seed-to-seed spread into a 20-40% swing in op_s.
# kernel-norms is one scale sweep of acceptance criterion 4 (the first spec of
# its matrix, at the same grids), not the whole criterion: a 20 s op whose
# (2N)^3 = 128^3 transforms are bound by memory bandwidth varied by 10-20%
# between neighbouring ops on a shared host, and a run held only two of them.
WORKLOADS = {
    "zero-mode": (
        lambda seed, out: ["zero-mode", "--potential", "loss-yau", "--L", "16", "--N", "32"]
        + ["--out", out],
        _zero_mode_gate,
    ),
    "verify-freeop": (
        lambda seed, out: ["verify-freeop", "--L", "12", "--N", "24", "--seed", str(seed)]
        + ["--out", out],
        _verify_freeop_gate,
    ),
    "kernel-norms": (
        lambda seed, out: ["nw-sweep", "--a", "1", "--b", "1/2", "--scales", "8,16,32"]
        + ["--out", out],
        _kernel_norms_gate,
    ),
}


# ---------------------------------------------------------------------------
# environment, provenance, repository guard
# ---------------------------------------------------------------------------


def pin_threads() -> dict:
    """Pin the BLAS/OMP thread variables to one thread; children inherit them.

    The lab's BLAS calls are small.  With two OpenBLAS threads a zero-mode op
    burns twice the CPU time in spin-waits and takes 13.6 s instead of
    11.3 s (2-core x86-64, OpenBLAS 0.3.31), and its wall time then depends
    on what else runs on the second core.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict:
    env = dict(os.environ)
    # Byte-code caches are written, as an installed package has them, but
    # into the benchmark's own directory rather than beside the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["TMPDIR"] = WORK
    return env


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed, threads, argv) -> dict:
    import dirac_zero_lab

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else None
    except OSError:
        pass
    return {
        "package_version": getattr(dirac_zero_lab, "__version__", None),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "argv": argv,
    }


def tree_snapshot() -> dict:
    """(size, mtime) of every file in the checkout outside the skipped dirs."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [
            d
            for d in dirnames
            if d not in SNAPSHOT_SKIP_NAMES and os.path.join(dirpath, d) not in SNAPSHOT_SKIP_PATHS
        ]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.lstat(path)
            except OSError:
                continue
            snap[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return snap


def tree_changes(before, after) -> list[str]:
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------


def run_process(cli_argv, trace, workdir, timeout) -> dict:
    """Run bench/opcli.py once; wall time, import time and peak RSS of the child."""
    report_path = os.path.join(workdir, "report.json")
    cmd = [sys.executable, OPCLI, report_path, "1" if trace else "0", *cli_argv]
    with open(os.path.join(workdir, "stdout.txt"), "w+") as out, open(
        os.path.join(workdir, "stderr.txt"), "w+"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:  # interrupted while waiting
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {}
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "setup_s": report["imported"] - start if "imported" in report else None,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": stdout,
        "stderr": stderr,
        "report": report,
    }


def run_op(index, workload, seed, trace, deadline) -> dict:
    argv_fn, gate = WORKLOADS[workload]
    workdir = os.path.join(WORK, f"op-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "out")
    argv = argv_fn(seed, out)
    res = run_process(argv, trace, workdir, deadline - time.perf_counter())
    rec = {
        "op": index,
        "traced": trace,
        "argv": argv,
        "rc": res["rc"],
        "wall_s": res["wall_s"],
        "setup_s": res["setup_s"],
        "rss_mb": res["rss_mb"],
        "cpu_s": res["cpu_s"],
        "passed": False,
        "reason": None,
        "answers": {},
    }
    try:
        rec["answers"] = gate(res["rc"], res["stdout"], out)
        rec["passed"] = True
    except GateError as exc:
        rec["reason"] = exc.args[0]
        if len(exc.args) > 1:
            rec["answers"] = exc.args[1]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        rec["reason"] = f"unreadable output: {type(exc).__name__}: {exc}"
    if not rec["passed"]:
        rec["stderr_tail"] = res["stderr"][-2000:]
    if trace:
        report = res["report"]
        rec["spans"] = report.get("spans", [])
        rec["missing"] = report.get("missing", [])
        rec["annotation_errors"] = report.get("annotation_errors", [])
    shutil.rmtree(workdir, ignore_errors=True)
    return rec


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

BUILD_NAMES = {"potential.loss_yau", "potential.loss_yau_potential", "potential.from_em"}
MATVEC_NAMES = {"potential.apply_potential", "freeop.apply_a_spectral"}
SPECTRUM = "resonance.birman_schwinger_spectrum"


def span_analysis(spans, wall) -> dict:
    """Per-name calls, self and inclusive time; layer metrics for one traced op.

    Self time is a span's duration minus its direct children's durations; a
    call stack is single-threaded, so children never overlap.  The op's wall
    time minus the top-level spans is cli.self_s, so self times plus
    cli.self_s add up to the wall time.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    calls, self_s, incl = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        if not has_ancestor(i, {name}):
            incl[name] = incl.get(name, 0.0) + dur[i]

    def c(name):
        return calls.get(name, 0)

    def st(name):
        return self_s.get(name, 0.0)

    def info_sum(name, pick=lambda v: v):
        return sum(pick(s[4]) for s in spans if s[0] == name and s[4] is not None)

    top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    spectrum = incl.get(SPECTRUM, 0.0)
    in_matvec = sum(
        dur[i] for i, s in enumerate(spans) if s[0] in MATVEC_NAMES and has_ancestor(i, {SPECTRUM})
    )
    matvecs = info_sum(SPECTRUM, lambda v: v[0])
    pairs = info_sum(SPECTRUM, lambda v: v[1])
    build = sum(
        dur[i]
        for i, s in enumerate(spans)
        if s[0] in BUILD_NAMES and not has_ancestor(i, BUILD_NAMES)
    )
    modules = {}
    for name, t in self_s.items():
        mod = name.split(".", 1)[0]
        modules[mod] = modules.get(mod, 0.0) + t
    metrics = {
        "field.fft_calls": c("field.forward_fourier") + c("field.inverse_fourier"),
        "field.fft_self_s": st("field.forward_fourier") + st("field.inverse_fourier"),
        "field.norm_self_s": st("field.l2_norm"),
        "freeop.a_spectral_calls": c("freeop.apply_a_spectral"),
        "freeop.a_spectral_self_s": st("freeop.apply_a_spectral"),
        "freeop.quadrature_share": st("freeop.apply_a_quadrature") / wall,
        "freeop.quadrature_pairs": info_sum("freeop.apply_a_quadrature"),
        "potential.apply_calls": c("potential.apply_potential"),
        "potential.apply_share": st("potential.apply_potential") / wall,
        "potential.build_share": build / wall,
        "resonance.matvecs": matvecs,
        "resonance.spectrum_share": spectrum / wall,
        "resonance.spectrum_self_share": st(SPECTRUM) / wall,
        "resonance.outside_matvec_share": (spectrum - in_matvec) / spectrum if spectrum else 0.0,
        "resonance.matvecs_per_pair": matvecs / pairs if pairs else 0.0,
        "resonance.classify_share": incl.get("resonance.classify_threshold_state", 0.0) / wall,
        "kernelnorm.estimate_calls": c("kernelnorm.estimate_norm"),
        "kernelnorm.estimate_self_share": st("kernelnorm.estimate_norm") / wall,
        "kernelnorm.power_iters": info_sum("kernelnorm.estimate_norm"),
        "cli.self_s": wall - top,
    }
    closure = sum(self_s.values()) + metrics["cli.self_s"] - wall
    # below zero only if a child span outlived its parent
    min_self = min((dur[i] - child[i] for i in range(n)), default=0.0)
    by_name = {
        name: {"calls": calls[name], "self_s": self_s[name], "incl_s": incl.get(name, 0.0)}
        for name in sorted(calls)
    }
    return {
        "metrics": metrics,
        "modules": modules,
        "by_name": by_name,
        "closure_err_s": closure,
        "min_self_s": min_self,
    }


# ---------------------------------------------------------------------------
# warm microbenchmarks (benchmark process, --trace 1 only)
# ---------------------------------------------------------------------------


def _median_ms(fn, min_reps, budget_s=0.4, max_reps=40):
    fn()  # warm: plans, caches, first-touch pages
    times = []
    spent = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - spent < budget_s and len(times) < max_reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def microbenchmarks(seed) -> tuple[dict, list]:
    """Warm per-call times of the baseline rows; a vanished name is reported missing."""
    import numpy as np
    from dirac_zero_lab import field, freeop, kernelnorm, potential

    def fft_pair():
        f = field.random_field(field.make_grid(16.0, 32), seed)
        return lambda: field.inverse_fourier(field.forward_fourier(f))

    def a_spectral():
        f = field.random_field(field.make_grid(16.0, 32), seed)
        return lambda: freeop.apply_a_spectral(f, warn_threshold=math.inf)

    def quadrature():
        g = field.make_grid(12.0, 16)
        vals = np.zeros((16, 16, 16, 4), dtype=complex)
        vals[..., 0] = np.exp(-g.radius2)
        bump = field.SpinorField(g, vals, field.POSITION)
        return lambda: freeop.apply_a_quadrature(bump)

    def matvec():
        g = field.make_grid(16.0, 32)
        Q = potential.loss_yau_potential(g)
        f = field.random_field(g, seed)
        return lambda: freeop.apply_a_spectral(potential.apply_potential(Q, f), warn_threshold=math.inf)

    def nw_apply():
        spec = kernelnorm.NwKernelSpec(a=1, b=0.5, d=3, p=2)
        phi = np.random.default_rng(seed).standard_normal((64, 64, 64))
        return lambda: kernelnorm.nw_apply(spec, phi, field.make_grid(32.0, 64))

    plan = [
        ("field.fft_pair_ms", fft_pair, 10),
        ("freeop.a_spectral_ms", a_spectral, 10),
        ("freeop.quadrature_ms", quadrature, 3),
        ("resonance.matvec_ms", matvec, 10),
        ("kernelnorm.nw_apply_ms", nw_apply, 5),
    ]
    rows, missing = {}, []
    for name, build, reps in plan:
        try:
            rows[name] = _median_ms(build(), reps)
        except AttributeError as exc:  # a public name was removed or renamed
            rows[name] = 0.0
            missing.append(f"{name}: {exc}")
    return rows, missing


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def tail_percentile(values):
    """Highest integer percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, sorted(values)[max(math.ceil(p / 100.0 * n) - 1, 0)]


def run(workload, seed, seconds, trace) -> dict:
    os.makedirs(WORK, exist_ok=True)
    before = tree_snapshot()
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S

    # Set-up probes import the package and exit.  The first is unmeasured: it
    # fills the byte-code cache.  The machine's speed drifts over seconds, so
    # the probes are spread over the run rather than taken in one burst.
    probe_dir = os.path.join(WORK, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    probes = []

    def probe(count):
        for _ in range(count):
            res = run_process([], False, probe_dir, deadline - time.perf_counter())
            if res["rc"] != 0 or res["setup_s"] is None:
                raise SystemExit(f"error: importing dirac_zero_lab failed:\n{res['stderr'][-2000:]}")
            probes.append(res["setup_s"])

    probe(1)
    probes.clear()
    probe(SETUP_PROBES)
    ops = []
    t0 = time.perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            ops.append(run_op(len(ops), workload, seed, traced, deadline))
            probe(2)
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and len(ops) >= MIN_OPS) or time.perf_counter() >= deadline:
            break
    measured = time.perf_counter() - t0
    shutil.rmtree(probe_dir, ignore_errors=True)

    plain = [op for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    failed = sum(not op["passed"] for op in ops)
    problems = [f"op {op['op']}: {op['reason']}" for op in ops if not op["passed"]]
    walls = [op["wall_s"] for op in plain]

    answers = {"failed_share": failed / len(ops)}
    for key in ("zero_mode.eig_dev", "zero_mode.overlap", "known_red.quadrature_gap"):
        vals = [op["answers"][key] for op in ops if key in op["answers"]]
        if vals:
            answers[key] = statistics.median(vals)
    if workload == "zero-mode":
        from dirac_zero_lab import field, potential

        g = field.make_grid(16.0, 32)
        ly = potential.loss_yau(g)
        answers["known_red.weyl_residual"] = potential.weyl_residual(
            ly.weyl_spinor, ly.vector_potential, g
        )

    extra = {}
    if trace:
        layer, missing, per_op = {}, set(), []
        for op in traced_ops:
            ana = span_analysis(op.pop("spans"), op["wall_s"])
            per_op.append(ana)
            missing.update(op["missing"])
            if abs(ana["closure_err_s"]) > 1e-6 or ana["min_self_s"] < -1e-6:
                problems.append(
                    f"op {op['op']}: spans do not nest (closure {ana['closure_err_s']:.3g} s, "
                    f"min self {ana['min_self_s']:.3g} s)"
                )
        for name in per_op[0]["metrics"]:
            layer[name] = statistics.median(a["metrics"][name] for a in per_op)
        traced_wall = statistics.median(op["wall_s"] for op in traced_ops)
        layer["trace.overhead_s"] = traced_wall - statistics.median(walls)
        micro, micro_missing = microbenchmarks(seed)
        layer.update(micro)
        metrics = {name: (layer[name], unit) for name, (unit, _) in PER_LAYER.items()}
        extra = {
            "missing": sorted(missing) + micro_missing,
            "modules_self_s": [a["modules"] for a in per_op],
            "spans_by_name": [a["by_name"] for a in per_op],
            "closure_err_s": [a["closure_err_s"] for a in per_op],
        }
        if extra["missing"]:
            print(f"warning: traced names missing: {extra['missing']}", file=sys.stderr)
    else:
        values = {
            "op_s": statistics.median(walls),
            "setup_s": statistics.median(
                probes + [op["setup_s"] for op in plain if op["setup_s"] is not None]
            ),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in plain),
        }
        metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}

    changed = tree_changes(before, tree_snapshot())
    if changed:
        problems.append(f"run changed the checkout: {changed[:20]}")
    shutil.rmtree(WORK, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "measured_s": measured,
        "run_s": time.perf_counter() - started,
        "correct": not problems,
        "problems": problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "answers": answers,
        "op_s_samples": walls,
        "op_s_tail": tail_percentile(walls),
        "setup_probes_s": probes,
        "ops": ops,
        **extra,
    }


def print_report(res) -> None:
    head = f"== {res['workload']} seed={res['seed']} trace={res['trace']}"
    print(f"{head}: {res['attempted']} ops, {res['failed']} failed, {res['measured_s']:.1f} s measured")
    table = PER_LAYER if res["trace"] else END_TO_END
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} ({table[name][1]} is better)")
    if not res["trace"]:
        tail = res["op_s_tail"]
        n = len(res["op_s_samples"])
        shown = f"p{tail[0]} = {tail[1]:.4g} s (n={n})" if tail else f"none: n={n} < 11"
        print(f"  {'op_s tail':34s} {shown}")
    for name, value in res["answers"].items():
        unit, better = ANSWERS[name]
        print(f"  {name:34s} {value:14.6g} {unit:6s} ({better} is better)")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")


def write_result(res, prov) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, **res}, fh, indent=1, default=str)
    return path


def contract_line(res) -> dict:
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: untraced, then traced")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dirac_zero_lab", "cli.py")):
        print(f"error: no dirac_zero_lab sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()  # before numpy loads, here and in every child
    use_checkout()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for workload in workloads:
        argv_shown = WORKLOADS[workload][0](args.seed, "<tmp>")
        prov = provenance(args.seed, threads, {workload: argv_shown})
        for trace in traces:
            res = run(workload, args.seed, args.seconds, bool(trace))
            res["result_file"] = os.path.relpath(write_result(res, prov), ROOT)
            print_report(res)
            results.append(res)
    if len(results) == 1:
        print(json.dumps(contract_line(results[0])))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "runs": {f"{r['workload']}/trace{r['trace']}": contract_line(r) for r in results},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
