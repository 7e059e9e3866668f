"""Run one dirac-zero-lab CLI invocation in this fresh interpreter.

    python3 bench/opcli.py REPORT TRACE [CLI-ARGS...]

Imports the package from the checkout's ``src``, records when the import
finished, optionally installs the span tracer (TRACE = 1), runs
``cli.main(CLI-ARGS)`` and writes a JSON report to REPORT.  With no CLI
arguments it only imports: that is the set-up probe.  The exit code is the
CLI's.
"""

import json
import os
import sys
import time


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from dirac_zero_lab import cli

    report = {"imported": time.perf_counter(), "rc": 0}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv:
            report["rc"] = cli.main(argv)
    finally:
        report["done"] = time.perf_counter()
        if tracer is not None:
            report.update(
                spans=tracer.spans,
                wrapped=tracer.wrapped,
                missing=tracer.missing,
                annotation_errors=tracer.annotation_errors,
            )
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main())
