"""Checks of the benchmark itself (not collected by pytest; run directly).

    python3 bench/selftest.py

1. Traced and untraced ops give bit-identical answers: same exit code, same
   stdout, byte-identical output files, on small grids of three commands.
2. In a traced op, spans nest, and span self times plus cli.self_s add up
   to the wall time.
3. The tracer reports a public name that has disappeared as missing instead
   of crashing.
4. BENCHMARK.json declares exactly the metrics run.py reports.

Exits 0 when every check passes, 1 otherwise.
"""

import filecmp
import json
import os
import shutil
import sys

import run
import tracer

SMALL_OPS = [
    ["zero-mode", "--potential", "loss-yau", "--L", "8", "--N", "16"],
    ["verify-freeop", "--L", "6", "--N", "12", "--seed", "3"],
    ["nw-sweep", "--a", "1", "--b", "1/2", "--L", "4", "--N", "8", "--scales", "4,8"],
]


def _outputs(path):
    return sorted(os.path.relpath(os.path.join(d, f), path) for d, _, fs in os.walk(path) for f in fs)


def check_bit_identical(failures):
    work = os.path.join(run.WORK, "selftest")
    for argv in SMALL_OPS:
        results, dirs = [], []
        for trace in (False, True):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            out = os.path.join(work, "out")
            res = run.run_process(argv + ["--out", out], trace, work, timeout=120)
            kept = os.path.join(run.WORK, f"selftest-{int(trace)}")
            shutil.rmtree(kept, ignore_errors=True)
            shutil.move(out, kept)
            results.append(res)
            dirs.append(kept)
        plain, traced = results
        name = argv[0]
        if plain["rc"] != traced["rc"] or plain["stdout"] != traced["stdout"]:
            failures.append(f"{name}: exit code or stdout differs under tracing")
        files = _outputs(dirs[0])
        if not files or files != _outputs(dirs[1]):
            failures.append(f"{name}: output file sets differ: {files} vs {_outputs(dirs[1])}")
        else:
            _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
            if mismatch or errors:
                failures.append(f"{name}: files differ under tracing: {mismatch + errors}")
        spans = traced["report"].get("spans", [])
        if not spans:
            failures.append(f"{name}: traced op recorded no spans")
            continue
        ana = run.span_analysis(spans, traced["wall_s"])
        err = ana["closure_err_s"]
        if abs(err) > 1e-6:
            failures.append(f"{name}: self times plus cli.self_s miss the wall time by {err:.3g} s")
        if ana["min_self_s"] < -1e-6:
            failures.append(f"{name}: a child span outlived its parent")
        print(f"{name}: {len(files)} files identical, {len(spans)} spans, closure {err:.1e} s")
    shutil.rmtree(run.WORK, ignore_errors=True)


def check_missing_name(failures):
    import dirac_zero_lab.cli  # noqa: F401  (loads every module)
    from dirac_zero_lab import freeop

    saved = freeop.apply_a_quadrature
    del freeop.apply_a_quadrature  # as if a refactor had deleted it
    try:
        tr = tracer.Tracer(expected=tracer.EXPECTED + ("kernelnorm.no_such_function",))
        tr.install()
    finally:
        freeop.apply_a_quadrature = saved
    want = ["freeop.apply_a_quadrature", "kernelnorm.no_such_function"]
    if tr.missing != want:
        failures.append(f"tracer missing-name report {tr.missing}, expected {want}")
    print(f"tracer: {len(tr.wrapped)} functions wrapped, missing reported as {tr.missing}")


def check_declared_metrics(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        if got != table:
            failures.append(f"BENCHMARK.json {key} does not match run.py")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads do not match run.py")


def main():
    run.pin_threads()
    run.use_checkout()
    failures = []
    check_bit_identical(failures)
    check_missing_name(failures)
    check_declared_metrics(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
