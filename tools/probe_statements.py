"""Statement-deletion probe: which library statements can the tests lose?

Each statement of ``src/rematch`` is replaced by ``pass``, one at a time, and
the tests run against the result. A mutant that no test fails "survives":
either no test needs that statement, or the statement does nothing. This is
mutation testing (DeMillo, Lipton & Sayward, "Hints on Test Data Selection",
IEEE Computer, 1978) with the one operator of statement deletion.

The probe copies the committed tree (``git archive HEAD``) into a temporary
directory and mutates the copy only; the checkout is never written. Mutants
are written with ``ast.unparse``, so a first check runs the whole suite on a
copy whose selected modules are all unparsed but unmutated, and stops if it
fails. Each mutant then runs one pytest process at a time: the module's own
test file (``tests/test_<module>.py``, when there is one) and
``tests/test_pinned.py`` first, stopping at the first failure, and the whole
suite only for a mutant those leave alive. A run that takes ten times the
clean run's time, and at least a minute, counts as killed. Every run seeds
hypothesis with 0 and starts with no ``.hypothesis`` directory in the copy, so
a mutant's verdict hangs neither on its draws nor on the failing examples an
earlier mutant saved.

Docstrings and ``pass`` statements are not sites. A site is named by its
module, first line and statement type, as at the probed commit.

Usage, from the repository root (stdlib only; all ~1,500 sites of the
library take about an hour and a half on a 2-vCPU machine):

    python tools/probe_statements.py
    python tools/probe_statements.py --modules data cli
    python tools/probe_statements.py --sample 50 --seed 3

Progress goes to standard error; the survivor table, one
``module.py:line  Statement  source`` row per survivor, to standard output.
The exit status is 0 when no mutant survives, 1 when one does, and 2 when
the unmutated copy already fails the suite.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

PACKAGE = Path("src/rematch")
PINS_TEST = "tests/test_pinned.py"
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 10.0, 60.0
MEMORY_LIMIT = 4 << 30  # address space of one test process, in bytes
# the test file of a module not named after it
OWN_TESTS = {"__init__": "package", "_settings": "pipeline"}


def statement_lists(tree: ast.AST):
    """Every ``(owner, field)`` whose value is a list of statements."""
    for node in ast.walk(tree):
        for name, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                yield node, name


def is_docstring(owner: ast.AST, index: int, stmt: ast.stmt) -> bool:
    return (index == 0 and isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                              ast.AsyncFunctionDef))
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def sites(tree: ast.AST) -> list:
    """``(owner, field, index)`` of each statement the probe deletes."""
    found = []
    for owner, name in statement_lists(tree):
        for index, stmt in enumerate(getattr(owner, name)):
            if not isinstance(stmt, ast.Pass) and not is_docstring(owner, index, stmt):
                found.append((owner, name, index))
    found.sort(key=lambda site: (getattr(site[0], site[1])[site[2]].lineno,
                                 getattr(site[0], site[1])[site[2]].col_offset))
    return found


def mutant(source: str, number: int) -> str:
    """The module with its ``number``-th site replaced by ``pass``."""
    tree = ast.parse(source)
    owner, name, index = sites(tree)[number]
    body = getattr(owner, name)
    body[index] = ast.copy_location(ast.Pass(), body[index])
    return ast.unparse(tree) + "\n"


def copy_head(root: Path, target: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=root,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(tree: Path, targets: list, timeout: float | None) -> tuple[bool, float]:
    """Run pytest over ``targets`` in ``tree``, without the examples an earlier
    run saved; whether every test passed, and the seconds it took. A run past
    ``timeout`` is stopped and counts as failed."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *targets]
    started = time.monotonic()
    child = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True,
                             preexec_fn=limit_memory)
    try:
        passed = child.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        passed = False
    return passed, time.monotonic() - started


def quick_targets(tree: Path, module: str) -> list:
    own = f"tests/test_{OWN_TESTS.get(module, module)}.py"
    return [own, PINS_TEST] if (tree / own).is_file() else [PINS_TEST]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=None,
                        help="module names under src/rematch (default: all)")
    parser.add_argument("--sample", type=int, default=None,
                        help="probe this many sites, drawn at random")
    parser.add_argument("--seed", type=int, default=0, help="seed of --sample")
    args = parser.parse_args(argv)

    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    work = Path(tempfile.mkdtemp(prefix="probe-statements-"))
    try:
        copy_head(root, work)
        modules = args.modules or sorted(path.stem for path in (work / PACKAGE).glob("*.py"))
        sources = {module: (work / PACKAGE / f"{module}.py").read_text()
                   for module in modules}
        todo = [(module, number) for module in modules
                for number in range(len(sites(ast.parse(sources[module]))))]
        if args.sample is not None:
            todo = sorted(random.Random(args.seed).sample(todo, min(args.sample, len(todo))))

        def write(module: str, text: str) -> None:
            (work / PACKAGE / f"{module}.py").write_text(text)

        for module in modules:
            write(module, ast.unparse(ast.parse(sources[module])) + "\n")
        clean, full_seconds = run_tests(work, ["tests"], None)
        if not clean:
            print("the unmutated, unparsed copy fails the suite; nothing probed",
                  file=sys.stderr)
            return 2
        for module in modules:
            write(module, sources[module])
        quick_seconds = {module: run_tests(work, quick_targets(work, module), None)[1]
                         for module in {module for module, _ in todo}}

        survivors = []
        for count, (module, number) in enumerate(todo, start=1):
            tree = ast.parse(sources[module])
            owner, name, index = sites(tree)[number]
            stmt = getattr(owner, name)[index]
            where = f"{module}.py:{stmt.lineno}"
            write(module, mutant(sources[module], number))
            budget = max(TIMEOUT_FACTOR * quick_seconds[module], TIMEOUT_FLOOR)
            alive = run_tests(work, quick_targets(work, module), budget)[0]
            if alive:
                budget = max(TIMEOUT_FACTOR * full_seconds, TIMEOUT_FLOOR)
                alive = run_tests(work, ["tests"], budget)[0]
            write(module, sources[module])
            print(f"[{count}/{len(todo)}] {where} {type(stmt).__name__}: "
                  f"{'SURVIVED' if alive else 'killed'}", file=sys.stderr, flush=True)
            if alive:
                line = sources[module].splitlines()[stmt.lineno - 1].strip()
                survivors.append(f"{where}\t{type(stmt).__name__}\t{line}")
        print(f"{len(survivors)} of {len(todo)} mutants survived", file=sys.stderr)
        for row in survivors:
            print(row)
        return 1 if survivors else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
