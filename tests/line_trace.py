"""Which statements of `src/contactbundles` does the tier-1 suite never run?

Runs the tier-1 suite in this process under a `sys.settrace` hook that
records the lines executed in `src/contactbundles`, then prints each
executable statement that no test ran, as `path:line: source`.  A statement
counts as run when any of its own lines ran (for a compound statement, the
lines of its header); docstrings are not statements.  Code that runs only in
a subprocess is not seen.

    PYTHONPATH=src python tests/line_trace.py [extra pytest arguments]

The hook makes the suite about three times slower, so timing tests such as
`test_long_chain_answers_quickly[cycle]` fail under it; the script prints
pytest's exit status and the statements either way, and exits 0.
"""

import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "contactbundles")


def _is_docstring(body: list, i: int) -> bool:
    node = body[i]
    return (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _code_lines(code: types.CodeType) -> set:
    """The lines that the code object and those nested in it hold instructions for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(source: str, path: str) -> dict:
    """Map each line of the file to the start line of the innermost statement
    that owns it; a compound statement owns its header, not its body.  A
    statement that compiles to no instruction (`global`, `nonlocal`) owns no
    line."""
    tree = ast.parse(source, path)
    owner = {}
    # ast.walk is breadth first, so an inner statement overrides its parent
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody", "handlers"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue
            for i, stmt in enumerate(body):
                if isinstance(stmt, ast.ExceptHandler):
                    # the `except` line runs when the handler is tested
                    owner[stmt.lineno] = stmt.lineno
                    continue
                if not isinstance(stmt, ast.stmt) or _is_docstring(body, i):
                    continue
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                for line in range(first, stmt.end_lineno + 1):
                    owner[line] = stmt.lineno
    code = _code_lines(compile(tree, path, "exec"))
    executable = {owner[line] for line in code if line in owner}
    return {line: start for line, start in owner.items() if start in executable}


def main(argv: list) -> None:
    prefix = PACKAGE + os.sep
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              os.path.join(ROOT, "tests")] + argv)
    finally:
        sys.settrace(None)

    missed = total = 0
    for folder, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            owner = statements(source, path)
            ran = {owner[line] for f, line in hit if f == path and line in owner}
            starts = sorted(set(owner.values()))
            total += len(starts)
            lines = source.splitlines()
            for line in starts:
                if line not in ran:
                    missed += 1
                    print(f"{os.path.relpath(path, ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"pytest exit status {int(status)}; {missed} of {total} statements not run")


if __name__ == "__main__":
    main(sys.argv[1:])
