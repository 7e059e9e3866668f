"""Where output is written, the command list that scripts/answers.py runs, and the lines scripts/unreached.py counts.

``cli`` owns every output file and printed line; the numerics modules return
values.  The one exception is the DZL1 codec of ``field``, which hides a
binary format behind ``save_field``/``load_field``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from dirac_zero_lab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirac_zero_lab"
IO_MODULES = {"csv", "json"}
IO_CALLS = {"print", "open"}
CODEC = {("field", "_write_dzl1"), ("field", "_read_dzl1")}


def _io_uses(module: str, tree: ast.Module) -> list[str]:
    """Each csv/json import and print/open call of a module, outside the DZL1 codec, as 'module:line what'."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and (module, top.name) in CODEC:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names if name.split(".")[0] in IO_MODULES | IO_CALLS]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_cli_writes_output(path):
    uses = _io_uses(path.stem, ast.parse(path.read_text()))
    if path.stem == "cli":
        assert uses  # the guard sees the writes where they are
    else:
        assert uses == []


def test_the_guard_sees_each_kind_of_io():
    source = "import csv\nfrom json import dumps\ndef f():\n    print(open('x'))\ndef _write_dzl1():\n    open('y')\n"
    assert _io_uses("field", ast.parse(source)) == ["field:1 csv", "field:2 json", "field:4 print", "field:4 open"]
    assert _io_uses("kernelnorm", ast.parse(source))[-1] == "kernelnorm:6 open"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_canonical_commands_parse():
    # every command that scripts/answers.py runs is still a valid command line; none is run here
    answers = _script("answers")
    names = [name for name, _ in answers.COMMANDS]
    assert len(set(names)) == len(names)
    parser = build_parser()
    for name, argv in answers.COMMANDS:
        args = parser.parse_args(answers.argv_of(name, argv))
        assert args.command == argv[0]
        assert getattr(args, "out", name) == name


def test_unreached_leaves_out_the_main_block(tmp_path):
    # only running the file as a script reaches those lines, so no in-process test can
    path = tmp_path / "mod.py"
    path.write_text('import sys\n\n\ndef f():\n    return 1\n\n\nif __name__ == "__main__":\n    sys.exit(f())\n')
    assert _script("unreached").executable_lines(str(path)) == {1, 4, 5}
