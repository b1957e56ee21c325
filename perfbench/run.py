"""Benchmark for qlctx: one command, four workloads.

    python3 perfbench/run.py --workload {cli,logic,realize,spin} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qlctx is taken from ``src/``.  Each
workload runs in fresh child interpreters with a fixed environment (see
``ENV``).  With ``--trace 0`` three children set up (the median set-up
time is reported) and the last one measures; the end-to-end metrics are
printed, with every time scaled to a fixed host speed (see
``reference.py``), and the raw medians go to stderr.  With ``--trace 1``
one child runs with spans on and the per-layer metrics are printed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Inputs and span
files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170  # every child is stopped by then

# One BLAS thread: with the default, worker threads compete with the
# harness on a 2-core host; one CLI call used 1.36 s of CPU in 1.13 s.
ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUPS = 3


def spawn(args, started: float, extra: list[str]) -> dict:
    """Run one worker in its own process group; stop the group at the
    deadline.  Returns the worker's JSON report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(OUT),
            "--start", repr(time.monotonic()), *extra]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH",)}
    env.update(ENV)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    left = DEADLINE_S - (time.monotonic() - started)
    try:
        out, err = proc.communicate(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} worker overran the deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "logic", "realize", "spin"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "qlctx" / "cli.py").is_file():
        print(f"perfbench: no qlctx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        report = spawn(args, started, [])
        metrics = report["layers"]
    else:
        setups = [spawn(args, started, ["--setup-only"]) for _ in range(SETUPS - 1)]
        report = spawn(args, started, [])
        setups.append(report)
        print(f"perfbench: raw medians: pass {statistics.median(report['pass_times']):.4f} s, "
              f"invocation {1000 * statistics.median(report['cli_times']):.1f} ms, "
              f"reference {1000 * statistics.median(report['references']):.2f} ms, "
              f"set-up {statistics.median(s['setup_s'] for s in setups):.4f} s",
              file=sys.stderr)
        metrics = {
            "pass_s": statistics.median(report["pass_scaled"]),
            "cli_p50_ms": 1000 * statistics.median(report["cli_scaled"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_scaled"] for s in setups),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for line in report["failures"] + report["wrong"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": report["wrong_count"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
