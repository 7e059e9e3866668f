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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(trees: dict[str, ast.Module]) -> list[str]:
    """Each read of a single-underscore attribute in a module that does not define that name, as 'module:line what'.

    A module defines a name by a def, a class, or an assignment to that name or to an attribute of that name.
    """
    found = []
    for module, tree in trees.items():
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        found += [
            f"{module}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and _private(node.attr) and node.attr not in defined
        ]
    return sorted(found)


def test_private_state_is_read_only_where_it_is_defined():
    # a module asks another for what it needs through a public name; an import of a private function
    # (the one multiplier path, say) is no attribute read and stays allowed
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _foreign_private_reads(trees) == []


def test_the_private_read_guard_sees_each_kind_of_definition():
    owner = "class P:\n    def _m(self):\n        self._x = 1\n_y = 2\nP._z = 3\n"
    reader = "from .owner import _y\ndef f(p):\n    return p._m(), p._x, p._z, p.__class__, p._w\n"
    trees = {"owner.py": ast.parse(owner + "def g(p):\n    return p._m, p._x, p._z\n"), "reader.py": ast.parse(reader)}
    assert _foreign_private_reads(trees) == [f"reader.py:3 p._{name}" for name in "mwxz"]


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


def test_unreached_names_a_file_changed_during_the_run(tmp_path):
    # the lines are listed from the text read before the run; a file edited since is named
    # instead, since the line numbers that ran no longer match its text
    script = _script("unreached")
    kept, edited = tmp_path / "kept.py", tmp_path / "edited.py"
    for path in (kept, edited):
        path.write_text("def f():\n    return 1\n")
    texts = {str(kept): kept.read_text(), str(edited): edited.read_text()}
    edited.write_text('"""A docstring."""\n\n\ndef f():\n    return 1\n')
    missed, changed = script.unreached(texts)
    assert changed == [str(edited)]
    assert missed == [(str(kept), 1, "def f():"), (str(kept), 2, "return 1")]
