"""Property tests of the command line and of the files it reads.

The first test runs one of the five commands that read settings, with every
numeric flag given (for ``zero-mode``, only the potential flags that its
potential reads; another is a usage error): up to two of them take an edge
value (non-finite, negative, zero, over- or underflowing, fractional,
malformed), the others a normal one.  The second gives a command its settings through a --config
file of drawn lines, and the third loads a drawn DZL1 potential file into
``zero-mode``.  Whatever the input, ``cli.main`` returns an exit code in
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

from dirac_zero_lab.cli import POTENTIAL_FLAGS, POTENTIALS, SETTINGS, main

EDGE = ("nan", "inf", "-1", "0", "1e-300", "1e300", "1e400", "3/2", "1/0", "abc")
SEEDS = ("1", "7")
EXPONENTS = ("0", "1/2", "1", "3/2", "2", "0.7")

# the normal values of each command's numeric flags
NUMERIC = {
    "verify-freeop": {
        "L": ("4", "6"),
        "N": ("4", "6", "8"),
        "seed": SEEDS,
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
        "amp": ("0.1", "-0.5"),
        "rho": ("2", "3"),
        "a-scale": ("0.5", "1"),
        "k": ("1", "4"),
    },
    "acceptance": {},
}

# the other arguments, one list drawn per example
OTHER = {
    "verify-freeop": [[]],
    "nw-sweep": [[]],
    "bootstrap": [[], ["--json"]],
    "zero-mode": [["--potential", name] for name in ("zero", "loss-yau", "scalar-decay", "em")],
    "acceptance": [["--only", only] for only in ("1,7", "1,99", "nonsense", "0", "7,x", "")],
}


def draw_values(draw, normal):
    """One value per name of ``normal``: up to two of them an edge value, the others a normal one."""
    edged = draw(st.sets(st.sampled_from(sorted(normal)), max_size=2)) if normal else set()
    return {name: draw(st.sampled_from(EDGE if name in edged else normal[name])) for name in normal}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(NUMERIC)))
    values = draw_values(draw, NUMERIC[command])
    if command == "nw-sweep":
        # scales 2h and 3h, then "scale" times h: 4h, or an edge value in place of the largest scale
        try:
            h = float(values["h"])
        except ValueError:
            h = 1.0
        last = values.pop("scale")
        values["scales"] = f"{2 * h},{3 * h},{4 * h if last == '4' else last}"
    other = draw(st.sampled_from(OTHER[command]))
    if command == "zero-mode":
        unread = {flag[2:] for key, (flag, _) in POTENTIAL_FLAGS.items() if key not in POTENTIALS[other[1]]}
        values = {name: value for name, value in values.items() if name not in unread}
    return [command] + [f"--{name}={value}" for name, value in values.items()] + other


def run_main(args):
    """``main(args)`` with a fresh --out: the exit code, after checking the properties above."""
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
    return code


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cli_argv())
def test_cli_exits_cleanly_on_any_argv(args):
    run_main(args)


# the arguments of each command that are not settings, and the normal values of the settings
CONFIG_ARGS = {
    "verify-freeop": [],
    "nw-sweep": ["--a", "1", "--b", "1/2", "--scales", "2,3,4"],
    "bootstrap": ["--rho", "8/5"],
    "zero-mode": ["--potential", "zero"],
    "acceptance": ["--only", "7"],
}
CONFIG_VALUES = {"L": ("4", "6.0"), "N": ("4", "6", "8"), "h": ("1",), "seed": SEEDS}
# lines beside the settings: keys no command reads (removed settings, a
# misspelling, an empty key), keys some command reads, a repeat, malformed lines
OTHER_LINES = ("tol.ah0 = 1e-10", "tol.zero_mode = 0.1", "Nn = 16", "= 4", "seed = 5", "h = 1", "L = 6",
               "L 4", "out =", "# a comment", "")


@st.composite
def config_file(draw):
    command = draw(st.sampled_from(sorted(CONFIG_ARGS)))
    values = draw_values(draw, {key: CONFIG_VALUES[key] for key in SETTINGS[command]})
    lines = [f"{key} = {value}" for key, value in values.items() if draw(st.booleans())]
    lines += draw(st.lists(st.sampled_from(OTHER_LINES), max_size=1))
    return command, draw(st.permutations(lines))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(config_file())
def test_config_file_lines_exit_cleanly(drawn):
    command, lines = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lab.cfg")
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        run_main([command, *CONFIG_ARGS[command], "--config", path])


HEADER = {"L": ("4.0", "4"), "N": ("4",), "space": ("position",), "components": ("16",)}


@st.composite
def dzl1_file(draw):
    """A DZL1 potential for the (4, 4) grid: header values edged, a key dropped or a token
    added, the payload cut or padded."""
    header = draw_values(draw, HEADER)
    dropped = draw(st.sampled_from([None] * 4 + list(HEADER)))
    tokens = [f"{key}={value}" for key, value in header.items() if key != dropped]
    tokens += draw(st.lists(st.sampled_from(["N=4", "x=1", "stray", "=4"]), max_size=1))
    fill = draw(st.sampled_from((b"\0", b"\0", b"\xff", b"\x7f")))  # zero, NaN, non-Hermitian
    size = 4**3 * 16 * 16 + draw(st.sampled_from((0, 0, 0, -16, 16, -1)))
    return ("DZL1 " + " ".join(draw(st.permutations(tokens))) + "\n").encode() + fill * size


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dzl1_file())
def test_potential_file_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pot.dzl1")
        with open(path, "wb") as fh:
            fh.write(data)
        run_main(["zero-mode", "--potential", f"file:{path}", "--L", "4", "--N", "4"])
