"""Run the canonical commands and write a sha256 manifest of everything they print and write.

    python3 scripts/answers.py OUTDIR

Each command of ``COMMANDS`` runs through ``cli.main`` in this interpreter,
with ``OUTDIR`` as the working directory and ``--out NAME`` where it takes
one, so every path it records is relative; it first writes the potential
that ``zero-mode-file`` reads to ``OUTDIR/POTENTIAL_FILE``.  ``NAME.log``
holds its exit code, stdout and stderr, and ``NAME/`` its output files.
``OUTDIR/MANIFEST`` then lists ``sha256  path`` for every other file under
``OUTDIR``, after the wall times are replaced by ``-``: every ``NAME_s`` key
of ``eigenreport.json`` (``solve_s``, the solver's phase times and any
timing field added later), ``elapsed`` in ``acceptance.json`` and the
``(x.xs)`` of each acceptance criterion line.

Two checkouts give equal answers when their manifests are equal
(``diff A/MANIFEST B/MANIFEST``), and two runs of one checkout must always
give equal manifests.  The last bits of a BLAS reduction depend on how many
threads BLAS runs, so the script sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before numpy loads, as the
benchmark does, whatever the shell exported; they still depend on the host,
so compare manifests made on one host.  The run takes about 20 s, most of it
the acceptance suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the chirality-mixing potential of zero-mode-file, so that a 4-spinor solve is in the manifest
POTENTIAL_FILE = "chirality-mixing.dzl1"

# (name, argv): the name is the --out directory and the log's stem
COMMANDS = [
    ("zero-mode-loss-yau", ["zero-mode", "--potential", "loss-yau"]),
    ("zero-mode-loss-yau-seed-1", ["zero-mode", "--potential", "loss-yau", "--seed", "1"]),
    ("zero-mode-loss-yau-seed-7", ["zero-mode", "--potential", "loss-yau", "--seed", "7"]),
    ("zero-mode-scalar-decay", ["zero-mode", "--potential", "scalar-decay", "--L", "8", "--N", "16"]),
    ("zero-mode-em", ["zero-mode", "--potential", "em", "--L", "8", "--N", "16"]),
    ("zero-mode-file", ["zero-mode", "--potential", f"file:{POTENTIAL_FILE}", "--L", "8", "--N", "16"]),
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
    (r"eigenreport\.json", r'"(\w+_s)": [^,\n]+', r'"\1": "-"'),
    (r"acceptance\.json", r'"elapsed": [^,\n]+', '"elapsed": "-"'),
]


def argv_of(name: str, argv: list[str]) -> list[str]:
    """The command line of one canonical command: with --out NAME, unless the command writes no files."""
    return argv if argv[0] == "clifford-check" else [*argv, "--out", name]


def write_potential_file(path: str) -> None:
    """The Loss-Yau Q plus 0.2 <x>^-2 beta on the (8, 16) grid: beta = diag(1, 1, -1, -1) mixes chiralities."""
    import numpy as np

    from dirac_zero_lab import field, potential

    g = field.GridSpec(8.0, 16)
    beta = np.diag([1.0, 1.0, -1.0, -1.0])
    Q = potential.from_em(None, potential.loss_yau(g).vector_potential, g)
    values = Q.values + 0.2 * ((1.0 + g.radius2) ** -1.0)[..., None, None] * beta
    potential.save_potential(potential.PotentialField(g, values), path)


def run(outdir: str) -> str:
    """Run every command into ``outdir`` and return the manifest's text."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dirac_zero_lab import cli

    if os.path.exists(outdir) and os.listdir(outdir):
        raise SystemExit(f"{outdir} is not empty: the manifest lists every file in it")
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    write_potential_file(POTENTIAL_FILE)
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
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read once, when numpy first loads
    print(run(sys.argv[1]), end="")
