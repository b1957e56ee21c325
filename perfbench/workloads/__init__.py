"""The benchmark's workloads.

Each workload module has ``build(seed, folder) -> Plan``, which writes the
workload's generated inputs into ``folder``.  A plan holds one *pass* of
in-process jobs (empty for the ``cli`` workload) and a fixed list of
``qlctx`` command lines; ``worker.py`` runs them in whole rounds and times
them.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass
class Job:
    """One in-process call.  ``check`` raises ``checks.Mismatch`` on a wrong
    result and may return counts to add to the run's tallies."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]


@dataclass
class Command:
    """One ``qlctx`` invocation; ``check`` gets the exit code and stdout."""

    name: str
    args: list[str]
    check: Callable[[int, str], None]


@dataclass
class Plan:
    """A workload's jobs for one pass, its ``qlctx`` commands, and the parts
    of ``reference.py`` whose drift on this host follows its own most
    closely."""

    folder: Path
    jobs: list[Job] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)
    warmup: Callable[[], None] = lambda: None
    reference: tuple[str, ...] = ("python", "numpy")


COMMAND_TIMEOUT_S = 120


def run_qlctx(args: list[str], cwd: Path) -> tuple[int, str, str, float]:
    """Run ``qlctx`` as a user would, in a new interpreter; returns the exit
    code, stdout, stderr and wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qlctx.cli", *args], cwd=cwd,
                          capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


# A library workload runs its one command this many times per round: a
# single invocation's time has a heavy tail, and a median needs more
# samples of it than of a pass, which averages over many calls.
COMMAND_REPEATS = 2


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def write(folder: Path, name: str, text: str) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    (folder / name).write_text(text)


def assignment(p: dict) -> str:
    """Atom probabilities in the ``--p 'A=1,B=1/2'`` syntax (nonzero only)."""
    return ",".join(f"{a}={v}" for a, v in p.items() if v != 0)


NAMES = ("cli", "logic", "realize", "spin")


def load(name: str):
    """The workload module; imported on demand so that a worker imports only
    what its own workload needs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"{__name__}.{name}")
