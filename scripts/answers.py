"""Run the canonical commands and write a sha256 manifest of everything they print and write.

    python3 scripts/answers.py OUTDIR

Each command of ``COMMANDS`` runs through ``cli.main`` in this interpreter,
with ``OUTDIR`` as the working directory and ``--out NAME`` where it takes
one, so every path it records is relative.  ``NAME.log`` holds its exit
code, stdout and stderr, and ``NAME/`` its output files.  ``OUTDIR/MANIFEST``
then lists ``sha256  path`` for every other file under ``OUTDIR``, after
the wall times are replaced by ``-``: ``solve_s`` in ``eigenreport.json``,
``elapsed`` in ``acceptance.json`` and the ``(x.xs)`` of each acceptance
criterion line.

Two checkouts give equal answers when their manifests are equal
(``diff A/MANIFEST B/MANIFEST``), and two runs of one checkout must always
give equal manifests.  The last bits depend on the host and its BLAS thread
count, so compare manifests made on one host with one environment.  The run
takes about 20 s, most of it the acceptance suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, argv): the name is the --out directory and the log's stem
COMMANDS = [
    ("zero-mode-loss-yau", ["zero-mode", "--potential", "loss-yau"]),
    ("zero-mode-loss-yau-seed-1", ["zero-mode", "--potential", "loss-yau", "--seed", "1"]),
    ("zero-mode-loss-yau-seed-7", ["zero-mode", "--potential", "loss-yau", "--seed", "7"]),
    ("zero-mode-scalar-decay", ["zero-mode", "--potential", "scalar-decay", "--L", "8", "--N", "16"]),
    ("verify-freeop", ["verify-freeop"]),
    ("nw-sweep", ["nw-sweep", "--a", "1", "--b", "1/2"]),
    ("nw-sweep-p3", ["nw-sweep", "--a", "1", "--b", "1/2", "--p", "3", "--scales", "4,6,8"]),
    ("bootstrap", ["bootstrap", "--rho", "8/5", "--json"]),
    ("clifford-check", ["clifford-check", "--json"]),
    ("acceptance", ["acceptance"]),
]

# (file-name pattern, regex, replacement): the wall times, which no two runs share
WALL_TIMES = [
    (r".*\.log", r"^(\[(?:PASS|FAIL)\] criterion \d+: .*) \(\d+\.\ds\)$", r"\1 (-)"),
    (r"eigenreport\.json", r'"solve_s": [^,\n]+', '"solve_s": "-"'),
    (r"acceptance\.json", r'"elapsed": [^,\n]+', '"elapsed": "-"'),
]


def argv_of(name: str, argv: list[str]) -> list[str]:
    """The command line of one canonical command: with --out NAME, unless the command writes no files."""
    return argv if argv[0] == "clifford-check" else [*argv, "--out", name]


def run(outdir: str) -> str:
    """Run every command into ``outdir`` and return the manifest's text."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dirac_zero_lab import cli

    if os.path.exists(outdir) and os.listdir(outdir):
        raise SystemExit(f"{outdir} is not empty: the manifest lists every file in it")
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for name, argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_of(name, argv))
        with open(f"{name}.log", "w") as fh:
            fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    lines = []
    for folder, dirs, files in os.walk("."):
        dirs.sort()
        for file in sorted(files):
            path = os.path.relpath(os.path.join(folder, file))
            if path == "MANIFEST":
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            for pattern, regex, repl in WALL_TIMES:
                if re.fullmatch(pattern, file):
                    data = re.sub(regex, repl, data.decode(), flags=re.M).encode()
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {path}\n")
    manifest = "".join(lines)
    with open("MANIFEST", "w") as fh:
        fh.write(manifest)
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    print(run(sys.argv[1]), end="")
