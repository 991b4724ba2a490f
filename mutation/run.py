"""Run the committed mutation checks: each named mutant must fail the tests
it names.

    python mutation/run.py                 # every mutant in mutants.json
    python mutation/run.py NAME [NAME ...] # only these

``mutants.json`` is a list of mutants.  Each gives a ``name``, a ``file``
(relative to the repository root), the exact ``old`` text, which must occur
exactly once in that file, its ``new`` text, and the pytest node ids in
``kill`` that must fail once the text is replaced.

The runner first runs every named test on an unmutated copy of ``src``,
``tests`` and ``pyproject.toml``, where they must all pass.  Then, for each
mutant, it applies the one replacement to a fresh copy in a temporary
directory and runs the mutant's tests there.  A mutant is killed only when
pytest reports failing tests (exit 1).  The runner exits 1 if a mutant
survives, if its old text is missing or repeated, or if pytest ends any
other way (a test id that no longer exists is a usage error, not a kill),
so the list cannot go stale unnoticed.  It needs only the standard library
and the test dependencies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600


def copy_tree(dest: Path) -> None:
    """The parts of the repository a test run needs, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` in ``tree``, stopping at the first
    failure; -1 if it runs past ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def check(mutant: dict) -> str | None:
    """None if the mutant is killed, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant["file"]
        text = target.read_text()
        found = text.count(mutant["old"])
        if found != 1:
            return f"old text found {found} times in {mutant['file']}"
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        code = run_tests(tree, mutant["kill"])
    if code == 0:
        return "survived"
    if code != 1:
        return f"pytest ended with exit {code}, not with failing tests"
    return None


def main(argv: list[str]) -> int:
    mutants = json.loads((Path(__file__).with_name("mutants.json")).read_text())
    names = [m["name"] for m in mutants]
    unknown = sorted(set(argv) - set(names))
    if unknown:
        print(f"error: no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not argv or m["name"] in argv]
    tests = sorted({test for m in chosen for test in m["kill"]})
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy_tree(Path(tmp))
        code = run_tests(Path(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass unmutated (pytest exit {code})")
        return 1
    failed = 0
    for mutant in chosen:
        problem = check(mutant)
        failed += problem is not None
        print(f"{'killed' if problem is None else 'FAILED'}  {mutant['name']}" + (f": {problem}" if problem else ""))
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
