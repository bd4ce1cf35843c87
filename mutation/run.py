"""Run the mutation table (mutation/mutants.py).

    python mutation/run.py

Copies src/, tests/ and pyproject.toml to a temporary directory, checks that
the unmutated copy passes every test the table names, then applies one
mutant at a time and runs its tests with `pytest -x`, one subprocess at a
time.  A mutant is killed when its tests fail or run past TIMEOUT seconds.
Hypothesis runs under the "mutation" profile of tests/conftest.py, which
stops at the first failing example without shrinking it.

Prints one line per mutant.  Exit status: 0 when every mutant is killed, 1
when one survives, when a snippet does not occur exactly once, or when the
unmutated copy fails its tests.  Standard library only; pytest runs in the
subprocesses.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from mutants import MUTANTS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per pytest run


def _pytest(copy: Path, tests) -> int | None:
    """pytest's exit status on `tests` in `copy`, or None past TIMEOUT."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--hypothesis-profile=mutation", *tests]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="approxsys-mutation-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        every = sorted({t for m in MUTANTS for t in m.tests})
        start = time.perf_counter()
        status = _pytest(copy, every)
        print(f"unmutated copy: exit {status} in {time.perf_counter() - start:.1f} s", flush=True)
        if status != 0:
            return 1

        for mutant in MUTANTS:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.snippet) != 1:
                print(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times", flush=True)
                failed += 1
                continue
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
            start = time.perf_counter()
            try:
                status = _pytest(copy, mutant.tests)
            finally:
                path.write_text(text)
            took = time.perf_counter() - start
            verdict = {1: "killed", None: "killed (timeout)", 0: "SURVIVED"}.get(status, f"ERROR (exit {status})")
            print(f"{mutant.name}: {verdict} in {took:.1f} s", flush=True)
            failed += not verdict.startswith("killed")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
