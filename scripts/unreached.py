"""List the executable lines of ``src/`` that the Tier-1 suite never runs.

    python3 scripts/unreached.py [PYTEST-ARGS...]

Runs pytest in this interpreter (by default with the Tier-1 arguments
``-q --continue-on-collection-errors``) with ``src/`` first on the path,
under a ``sys.settrace`` tracer that records the lines run in frames of
``src/`` files, on every thread: ``threading.settrace`` reaches the helper
thread that shares the large passes, which starts after the tracer is set.
Frames of other files get no line tracing, and the lines a test runs under a
tracer of its own are not seen.  A line is executable if a code object
compiled from its file has an instruction on it, other than the entry
bookkeeping of a code object (``RESUME`` and its like, which report no line
of their own); the lines of a module-level ``if __name__ == "__main__":``
block are left out, since no in-process test can run them.
Each ``src/`` file's text is read before pytest runs, and the lines are
listed from that text.  A file whose text changed during the run is named
instead, since its line numbers no longer match the code that ran.
Prints ``path:line: source`` for each line never run, then the count, and
exits 1 if it listed any line or named any changed file.
Tests that run the CLI in a child process are not traced.  Standard library
only; pytest is what it runs, not what it uses.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]
ENTRY_OPS = {"RESUME", "MAKE_CELL", "COPY_FREE_VARS", "RETURN_GENERATOR", "POP_TOP", "NOP", "CACHE", "EXTENDED_ARG"}

ran: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(SRC + os.sep) else None


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _main_block_lines(tree: ast.Module) -> set[int]:
    """The lines of each module-level ``if __name__ == "__main__":`` block."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def executable_lines(path: str, source: str | None = None) -> set[int]:
    """Lines of ``path`` (or of its text ``source``) that carry an instruction other than a code
    object's entry bookkeeping, outside a module-level ``if __name__ == "__main__":`` block."""
    if source is None:
        source = _read(path)
    module = compile(source, path, "exec")
    lines = set()
    for code in _code_objects(module):
        names = {ins.offset: ins.opname for ins in dis.get_instructions(code)}
        ops: dict[int, set[str]] = {}
        for start, end, line in code.co_lines():
            if line is not None:
                ops.setdefault(line, set()).update(names[o] for o in range(start, end, 2) if o in names)
        lines.update(line for line, names in ops.items() if not names <= ENTRY_OPS)
    return lines - _main_block_lines(ast.parse(source))


def src_texts() -> dict[str, str]:
    """The text of each ``.py`` file under ``src/``, by path."""
    return {
        os.path.join(folder, name): _read(os.path.join(folder, name))
        for folder, _, files in sorted(os.walk(SRC))
        for name in sorted(files)
        if name.endswith(".py")
    }


def unreached(texts: dict[str, str]) -> tuple[list[tuple[str, int, str]], list[str]]:
    """(path, line, source) of each executable line of ``texts`` that never ran, and the files changed since."""
    missed, changed = [], []
    for path, source in texts.items():
        if not os.path.exists(path) or _read(path) != source:
            changed.append(path)
            continue
        lines = source.splitlines()
        missed += [(path, n, lines[n - 1].strip()) for n in sorted(executable_lines(path, source)) if (path, n) not in ran]
    return missed, changed


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    texts = src_texts()
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed, changed = unreached(texts)
    print()
    for path, n, text in missed:
        print(f"{os.path.relpath(path, ROOT)}:{n}: {text}")
    for path in changed:
        print(f"{os.path.relpath(path, ROOT)}: changed during the run, so its lines are not listed")
    print(f"{len(missed)} executable lines of src/ never ran")
    return 1 if missed or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
