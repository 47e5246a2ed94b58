"""List the functions of src/dswave that no CLI run enters.

Runs dswave.cli.main in this process for every subcommand and every
`verify` suite at their defaults, plus `planewave` and `wavepacket` at
n = 3 and 4, with a sys.settrace hook on call events.  The package's
functions (methods and nested functions included) are read from its
source with ast.  Prints the exit code of each run, then every function
that was never entered, as module:line qualname, and then those of them
that no file under tests/ names either (a method by its own name, or by
its class's for a dunder; a nested function by its outer function's).
The tests may still run those through a function they do name, as a
private helper, or through an option the CLI runs leave off.

    python tools/linetrace.py

Needs only the package's own dependencies.  Environment variables
DSWAVE_* are cleared first, so every run sees the defaults.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
sys.path.insert(0, os.path.abspath(SRC))

from dswave import cli, criteria  # noqa: E402


def package_functions(pkg_dir: str) -> dict[tuple[str, int], tuple[str, int, str]]:
    """(file, first line) -> (module, def line, qualname) for every def;
    the first line is that of the first decorator, as in co_firstlineno."""
    found = {}
    for name in sorted(os.listdir(pkg_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg_dir, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qual = prefix + child.name
                    found[(path, first)] = (name[:-3], child.lineno, qual)
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def names_in_tests(tests_dir: str) -> set[str]:
    """Every name, attribute and imported name in the files under tests_dir."""
    names = set()
    for base, _, files in os.walk(tests_dir):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def named_by(qual: str, names: set[str]) -> bool:
    """Whether names holds the name a caller would write for qual."""
    parts = qual.split(".<locals>.")[0].split(".")
    name = parts[-1]
    if name.startswith("__") and name.endswith("__") and len(parts) > 1:
        name = parts[-2]
    return name in names


def runs() -> list[tuple[dict, list[str]]]:
    """(environment overrides, argv) of every traced CLI call."""
    out = [({}, [cmd]) for cmd in ("planewave", "wavepacket", "contract", "appendix-d")]
    out += [({}, ["verify", suite]) for suite in criteria.SUITES]
    out += [({"DSWAVE_N": n}, [cmd]) for n in ("3", "4")
            for cmd in ("planewave", "wavepacket")]
    return out


def main() -> int:
    for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        del os.environ[key]
    pkg_dir = os.path.dirname(os.path.abspath(cli.__file__))
    functions = package_functions(pkg_dir)
    entered = set()

    def tracer(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as out:
        for env, argv in runs():
            os.environ.update(env)
            sink = io.StringIO()
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(["--out", out] + argv)
            finally:
                sys.settrace(None)
                for key in env:
                    del os.environ[key]
            label = " ".join(f"{k}={v}" for k, v in env.items())
            err = sink.getvalue().strip().splitlines()[-1:] if code else []
            print(f"exit {code}: {label + ' ' if label else ''}dswave {' '.join(argv)}"
                  + (f"  ({err[0]})" if err else ""))
    missed = sorted(v for k, v in functions.items() if k not in entered)
    print(f"never entered: {len(missed)} of {len(functions)} functions")
    for module, line, qual in missed:
        print(f"  {module}:{line} {qual}")
    names = names_in_tests(TESTS)
    untested = [m for m in missed if not named_by(m[2], names)]
    print(f"never entered and named by no test: {len(untested)}")
    for module, line, qual in untested:
        print(f"  {module}:{line} {qual}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
