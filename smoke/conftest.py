"""Shared fixtures of the smoke suite.

Every check drives the command line as a user does: ``python -m repro``
in a fresh interpreter, so ``__main__``, the real exit code and any
spawned workers are part of what is checked.  Run the suite from the
repository root with ``PYTHONPATH=src python -m pytest smoke -q``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _run(argv, cwd, env, code):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    if code is not None:
        assert proc.returncode == code, (
            f"exit {proc.returncode}, expected {code}\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return proc


@pytest.fixture(scope="session")
def repro(tmp_path_factory):
    """``repro(cmd, code=0)`` runs ``python -m repro <cmd>`` from a
    scratch directory, checks the exit code (unless ``code`` is None)
    and returns the completed process."""
    cwd = tmp_path_factory.mktemp("cwd")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return lambda cmd, code=0: _run(["-m", "repro", *cmd.split()], cwd, env,
                                    code)


@pytest.fixture(scope="session")
def tree(tmp_path_factory):
    """``tree(*argv)`` runs ``python *argv`` under ``REPRO_FAST=1`` in a
    copy of the checkout's files, and checks that it exits 0.  The
    benches and the examples run there because they rewrite
    ``results/``."""
    root = tmp_path_factory.mktemp("tree")
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard",
         "src", "benchmarks", "examples", "results", "pyproject.toml"],
        cwd=REPO, capture_output=True, text=True, check=True).stdout
    for name in listed.splitlines():
        if (REPO / name).is_file():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, root / name)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_FAST="1")
    return lambda *argv: _run(argv, root, env, 0)


@pytest.fixture(scope="session")
def bench(tree):
    """``bench(name)`` runs ``benchmarks/bench_<name>.py``; the bench's
    own assertions are the check."""
    return lambda name: tree("-m", "pytest", "-q", "-p", "no:cacheprovider",
                             f"benchmarks/bench_{name}.py")


@pytest.fixture(scope="session")
def fleet(repro, tmp_path_factory):
    """A 10^4-tag fleet enrolled by two workers: ``(dir, process)``."""
    directory = tmp_path_factory.mktemp("fleet")
    return directory, repro(f"server enroll --dir {directory} --tags 10000 "
                            "--shard-size 2048 --workers 2")
