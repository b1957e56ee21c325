"""One workload in one fresh interpreter.

Started by ``run.py`` with a fixed environment.  It builds the workload's
inputs, warms up, and reports its set-up time.  Unless ``--setup-only`` is
given it then runs whole rounds, one client in a closed loop with no two
jobs at once, until the next round would end after ``--seconds``.  In a
library workload a round is one pass of the in-process jobs followed by
its ``qlctx`` commands; in the ``cli`` workload a round is its list of
commands and counts as one pass.  The workload's reference (see
``reference.py``) is timed after the set-up, right before every pass and
every command, and once at the end; every time is also reported scaled
by it.  Every output is checked outside the timed region.  The last line of stdout is one JSON object with
the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import reference
import workloads
from workloads import run_qlctx

# the library workload whose passes measure each layer
HOME = {"logic": "logic", "lp": "logic", "realizability": "realize",
        "states": "spin", "linalg": "spin", "uniqueness": "spin"}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


class Runner:
    """Times jobs and commands, checks their outputs, and counts."""

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        # every reference time, in order; a sample is (wall time, index of
        # the reference timed right before it), and the next reference
        # follows it at once
        self.references: list[float] = []
        self.passes: list[list[tuple[float, int]]] = []
        self.invocations: list[tuple[float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.tallies: Counter = Counter()
        # traced runs follow each command with an import-only run, so that
        # host drift cancels from the command's own cost
        self.pair_with_import = False
        self.command_costs: list[float] = []

    def _judge(self, name, check, *output) -> None:
        try:
            self.tallies.update(check(*output) or {})
        except checks.Failed as exc:
            self._fail(name, exc)
        except Exception as exc:  # a malformed output is a wrong output
            self.wrong.append(f"{name}: {type(exc).__name__}: {exc}")

    def _fail(self, name, reason) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {reason}")

    def job(self, job: workloads.Job) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:
            self._fail(job.name, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self._judge(job.name, job.check, result)
        return elapsed

    def reference(self) -> int:
        """Times the workload's reference; returns its index."""
        self.references.append(reference.time_reference(self.plan.reference))
        return len(self.references) - 1

    def command(self, command: workloads.Command) -> tuple[float, int]:
        """Runs one invocation; returns its sample."""
        self.attempted += 1
        sample = (workloads.COMMAND_TIMEOUT_S, self.reference())
        try:
            code, out, err, elapsed = run_qlctx(command.args, self.plan.folder)
        except subprocess.TimeoutExpired:
            self._fail(command.name, "timed out")
            return sample
        sample = (elapsed, sample[1])
        if "Traceback" in err:
            self._fail(command.name, err.strip().splitlines()[-1])
        else:
            self._judge(command.name, command.check, code, out)
        self.invocations.append(sample)
        if self.pair_with_import:
            import_only = _seconds([sys.executable, "-c", "import qlctx.cli"])
            self.command_costs.append(elapsed - import_only)
        return sample

    def one_pass(self) -> None:
        index = self.reference()
        self.passes.append([(sum(self.job(job) for job in self.plan.jobs), index)])

    def round(self) -> None:
        if self.plan.jobs:
            self.one_pass()
            for command in self.plan.commands:
                self.command(command)
        else:
            self.passes.append([self.command(c) for c in self.plan.commands])

    def scaled(self, sample: tuple[float, int]) -> float:
        """The sample's wall time scaled by the mean of the references on
        either side of it; needs the closing reference (``finish``)."""
        seconds, k = sample
        around = (self.references[k] + self.references[k + 1]) / 2
        return seconds * reference.nominal(self.plan.reference) / around

    def finish(self) -> dict:
        """Times the closing reference; returns the raw and scaled samples."""
        self.reference()
        return {
            "pass_times": [sum(t for t, _ in p) for p in self.passes],
            "pass_scaled": [sum(map(self.scaled, p)) for p in self.passes],
            "cli_times": [t for t, _ in self.invocations],
            "cli_scaled": [self.scaled(s) for s in self.invocations],
            "references": self.references,
        }


def run_rounds(runner: Runner, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        runner.round()
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return


def _seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, capture_output=True, check=True,
                   timeout=workloads.COMMAND_TIMEOUT_S)
    return time.perf_counter() - start


def import_breakdown(times: int = 3) -> dict[str, float]:
    """Median over runs of ``python -X importtime -c 'import qlctx.cli'``:
    the whole import, and the self time of each top-level package's modules."""
    runs = []
    for _ in range(times):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import qlctx.cli"], capture_output=True, text=True,
                             check=True, timeout=workloads.COMMAND_TIMEOUT_S).stderr
        by_package: Counter = Counter()
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            by_package[name.strip().split(".")[0]] += int(self_us) / 1000
            if name.strip() == "qlctx.cli":
                by_package["<total>"] = int(cumulative_us) / 1000
        runs.append(by_package)
    keys = ("<total>", "scipy", "numpy", "click", "qlctx")
    return {k: statistics.median(r[k] for r in runs) for k in keys}


def layer_metrics(tracer, passes: dict[str, int], tallies: Counter) -> dict:
    """Per-pass layer figures, each taken on the layer's home workload."""

    def per_pass(layer, kind="total"):
        group = HOME[layer.split(".")[0]]
        return tracer.layer_times(group).get(layer, {}).get(kind, 0.0) / passes[group]

    def count(name):
        group = HOME[name.split(".")[0]]
        return tracer.counts[group].get(name, 0) / passes[group]

    restarts = tallies["restarts"]
    return {
        "logic.parse_ms": per_pass("logic.parse"),
        "logic.enumerate_ms": per_pass("logic.enumerate"),
        "logic.enumerate_calls": count("logic.enumerate_calls"),
        "logic.states_returned": count("logic.states_returned"),
        "logic.classify_ms": per_pass("logic.classify", "self"),
        "logic.hull_ms": per_pass("logic.hull", "self"),
        "lp.feasibility_ms": per_pass("lp.feasibility"),
        "lp.feasibility_calls": count("lp.feasibility_calls"),
        "lp.tableau_cells": count("lp.tableau_cells"),
        "realizability.saturate_ms": per_pass("realizability.saturate"),
        "realizability.search_ms": per_pass("realizability.search", "self"),
        "realizability.lbfgs_ms": per_pass("realizability.lbfgs"),
        "realizability.lbfgs_nfev": count("realizability.lbfgs_nfev"),
        "realizability.lbfgs_nit": count("realizability.lbfgs_nit"),
        "realizability.verify_ms": per_pass("realizability.verify"),
        "realizability.restart_success":
            tallies["restart_successes"] / restarts if restarts else 0.0,
        "states.spin_total_operators_ms": per_pass("states.spin_total_operators"),
        "states.singlet_subspace_ms": per_pass("states.singlet_subspace", "self"),
        "linalg.kernel_ms": per_pass("linalg.kernel"),
        "states.apply_local_calls": count("states.apply_local_calls"),
        "states.apply_local_ms": per_pass("states.apply_local"),
        "linalg.rotation_unitary_ms": per_pass("linalg.rotation_unitary"),
        "uniqueness.check_uniqueness_ms": per_pass("uniqueness.check_uniqueness"),
        "states.kron_mb": count("states.kron_mb"),
    }


def traced_run(args, plan: workloads.Plan, runner: Runner) -> tuple[dict, dict]:
    """Rounds with spans on, one traced pass of every other library
    workload (so that every layer is reported), and the start-up probes.
    Returns the layer metrics and the runner's samples."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.group = args.workload
    runner.pair_with_import = True
    run_rounds(runner, args.seconds)
    samples = runner.finish()
    passes = {args.workload: len(runner.passes)}
    tallies = Counter(runner.tallies)
    for name in ("logic", "realize", "spin"):
        if name == args.workload:
            continue
        other = workloads.load(name).build(args.seed, plan.folder / name)
        tracer.group = None
        other.warmup()
        tracer.group = name
        probe = Runner(other)
        probe.one_pass()
        passes[name] = 1
        tallies.update(probe.tallies)
        runner.attempted += probe.attempted
        runner.failed += probe.failed
        runner.failures += probe.failures
        runner.wrong += probe.wrong
    tracer.uninstall()
    tracer.dump(Path(args.out) / f"trace-{args.workload}-seed{args.seed}.json")

    metrics = layer_metrics(tracer, passes, tallies)
    interpreter = statistics.median(_seconds([sys.executable, "-c", "pass"])
                                    for _ in range(3))
    imports = import_breakdown()
    metrics.update({
        "cli.interpreter_ms": 1000 * interpreter,
        "cli.import_ms": imports["<total>"],
        "cli.import.scipy_ms": imports["scipy"],
        "cli.import.numpy_ms": imports["numpy"],
        "cli.import.click_ms": imports["click"],
        "cli.import.qlctx_ms": imports["qlctx"],
        "cli.command_ms": 1000 * statistics.median(runner.command_costs),
        "trace.pass_s": statistics.median(samples["pass_scaled"]),
        "host.reference_ms": 1000 * statistics.median(runner.references),
    })
    return metrics, samples


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--start", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--out", required=True, help="directory for inputs and traces")
    args = parser.parse_args(argv)
    # One CPU for this process and the qlctx processes it starts, so that
    # the reference is timed on the CPU that runs what it scales: the two
    # CPUs of this host drift apart, and an invocation would otherwise run
    # on either.  No two of them are busy at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    folder = Path(args.out) / f"inputs-{args.workload}-seed{args.seed}"
    plan = workloads.load(args.workload).build(args.seed, folder)
    plan.warmup()
    result = {"setup_s": time.monotonic() - args.start}
    # scaled like every other time, by the median of three references
    # timed right after the set-up
    after = statistics.median(reference.time_reference(plan.reference)
                              for _ in range(3))
    result["setup_scaled"] = result["setup_s"] * reference.nominal(plan.reference) / after
    if not args.setup_only:
        runner = Runner(plan)
        if args.trace:
            result["layers"], samples = traced_run(args, plan, runner)
        else:
            run_rounds(runner, args.seconds)
            samples = runner.finish()
        result.update(samples, attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures[:20], wrong=runner.wrong[:20],
                      wrong_count=len(runner.wrong))
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
