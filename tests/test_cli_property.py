"""Property test of the command line: argv built from edge and normal values.

Each example runs one of the five commands that read settings, with every
numeric flag given: up to two of them take an edge value (non-finite,
negative, zero, over- or underflowing, fractional, malformed), the others a
normal one.  Whatever the argv, ``cli.main`` returns an exit code in
{0, 1, 2, 3}, no exception or warning escapes it, and an exit 2 leaves
``--out`` empty.  Grids stay at N <= 8 and ``nw-sweep`` scales at 2h, 3h and
4h, so each example runs in milliseconds; ``acceptance`` is reached only
through ``--only 1,7`` and bad selectors.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import event, given, settings, strategies as st

from dirac_zero_lab.cli import main

EDGE = ("nan", "inf", "-1", "0", "1e-300", "1e300", "1e400", "3/2", "1/0", "abc")
SEEDS = ("1", "7")
EXPONENTS = ("0", "1/2", "1", "3/2", "2", "0.7")

# the normal values of each command's numeric flags
NUMERIC = {
    "verify-freeop": {
        "L": ("4", "6"),
        "N": ("4", "6", "8"),
        "seed": SEEDS,
        "tol-ah0": ("1e-10",),
        "tol-pairing": ("1e-8",),
        "tol-quadrature": ("0.25",),
    },
    "nw-sweep": {
        "a": EXPONENTS,
        "b": EXPONENTS,
        "p": ("2", "3"),
        "h": ("1", "2", "0.5"),
        "seed": SEEDS,
        "scale": ("4",),
    },
    "bootstrap": {"rho": ("8/5", "2", "101/100")},
    "zero-mode": {
        "L": ("4", "6"),
        "N": ("4", "6", "8"),
        "seed": SEEDS,
        "tol": ("0.1",),
        "amp": ("0.1", "-0.5"),
        "rho": ("2", "3"),
        "a-scale": ("0.5", "1"),
        "k": ("1", "4"),
    },
    "acceptance": {"seed": SEEDS},
}

# the other arguments, one list drawn per example
OTHER = {
    "verify-freeop": [[]],
    "nw-sweep": [[]],
    "bootstrap": [[], ["--json"]],
    "zero-mode": [["--potential", name] for name in ("zero", "loss-yau", "scalar-decay", "em")],
    "acceptance": [["--only", only] for only in ("1,7", "1,99", "nonsense", "0", "7,x")],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(NUMERIC)))
    normal = NUMERIC[command]
    edged = draw(st.sets(st.sampled_from(sorted(normal)), max_size=2))
    values = {name: draw(st.sampled_from(EDGE if name in edged else normal[name])) for name in normal}
    if command == "nw-sweep":
        # scales 2h and 3h, then "scale" times h: 4h, or an edge value in place of the largest scale
        try:
            h = float(values["h"])
        except ValueError:
            h = 1.0
        last = values.pop("scale")
        values["scales"] = f"{2 * h},{3 * h},{4 * h if last == '4' else last}"
    return [command] + [f"--{name}={value}" for name, value in values.items()] + draw(st.sampled_from(OTHER[command]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cli_argv())
def test_cli_exits_cleanly_on_any_argv(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(args + ["--out", out])
        event(f"{args[0]}: exit {code}")  # shown by --hypothesis-show-statistics
        assert code in (0, 1, 2, 3), (args, code)
        assert not caught, (args, [str(w.message) for w in caught])
        assert "Traceback" not in stderr.getvalue()
        if code == 2:
            assert not os.path.exists(out) or not os.listdir(out), (args, os.listdir(out))
