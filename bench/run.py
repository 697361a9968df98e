"""Benchmark entry point: one run of one workload, from the checkout root.

    python3 bench/run.py --workload verdict --seed 1 --seconds 10 --trace 0

Load is a closed loop with a single client: each op starts when the
previous one and its output check have finished.  The run and each
set-up sample happen in a fresh interpreter (bench/worker.py).  The
last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced pass (see bench/README.md).  The line
before it, ``record: {...}``, holds the full run record with the
environment stamp; the same record is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
# a run must end within 180 s, set-up samples included
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 10.0
# fixed reference for worker.calibrate(), its median in early runs on the
# machine in bench/README.md; times are reported as if each op had run
# at the speed where the calibration takes this long
CAL_REF_S = 0.027


def _start(root: Path, argv: list[str], timeout: float):
    """The worker process and a timer that kills it after timeout seconds."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    return proc, watchdog


def _wait_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from process start to its READY line."""
    for line in proc.stdout:
        if line.strip() == "READY":
            return time.perf_counter() - started
    raise RuntimeError(f"worker exited with code {proc.wait()} before it was ready")


def _stop(proc: subprocess.Popen, watchdog: threading.Timer) -> None:
    watchdog.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _setup_sample(root: Path, argv: list[str]) -> tuple[float, float]:
    """Seconds to READY and the calibration the worker measured after it."""
    started = time.perf_counter()
    proc, watchdog = _start(root, [*argv, "--setup-only"], SETUP_TIMEOUT_S)
    try:
        ready = _wait_ready(proc, started)
        cal = [float(line[len("CAL "):]) for line in proc.stdout if line.startswith("CAL ")]
        if proc.wait() != 0 or len(cal) != 1:
            raise RuntimeError("set-up sample failed")
        return ready, cal[0]
    finally:
        _stop(proc, watchdog)


def _measured_run(root: Path, argv: list[str]) -> tuple[float, dict]:
    started = time.perf_counter()
    proc, watchdog = _start(root, argv, WORKER_TIMEOUT_S)
    try:
        ready = _wait_ready(proc, started)
        record = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                record = json.loads(line[len("RESULT "):])
        if proc.wait() != 0 or record is None:
            raise RuntimeError(f"worker failed with code {proc.returncode}")
        return ready, record
    finally:
        _stop(proc, watchdog)


def at_reference_speed(record: dict) -> list[list[float]]:
    """Op times of each pass scaled to the reference speed.

    Each op's wall time is multiplied by CAL_REF_S over the mean of the
    calibrations taken just before and just after it.
    """
    return [
        [t * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1]) for i, t in enumerate(ops)]
        for ops, cal in zip(record["op_s"], record["cal_s"])
    ]


def end_to_end(setup: list[tuple[float, float]], record: dict) -> dict:
    passes = at_reference_speed(record)
    return {
        "setup_s": {
            "value": statistics.median(t * CAL_REF_S / cal for t, cal in setup),
            "unit": "s",
        },
        "run_s": {"value": statistics.median(map(sum, passes)), "unit": "s"},
        "op_s_p50": {
            "value": statistics.median(t for ops in passes for t in ops),
            "unit": "s",
        },
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


PER_LAYER_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "matrices_built": "count",
    "matrices_per_root": "count",
    "roots_found": "count",
    "nodes": "count",
    "points": "count",
    "steps": "count",
    "steps_per_s": "1/s",
    "csv_bytes": "B",
    "overhead_s": "s",
}


def per_layer(record: dict) -> dict:
    trace = dict(record["trace"])
    roots = trace["spectral.roots_found"]
    trace["hill.matrices_per_root"] = trace["hill.matrices_built"] / max(1, roots)
    caputo_s = trace["integrator.solve_caputo.s"]
    trace["integrator.steps_per_s"] = (
        trace["integrator.steps"] / caputo_s if caputo_s else 0.0
    )
    trace["trace.overhead_s"] = record["trace_spans"] * record["trace_span_cost_s"]
    return {
        name: {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
        for name, value in trace.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "frachill" / "__init__.py").is_file():
        print(f"bench: no src/frachill under {root}; run from the checkout root", file=sys.stderr)
        return 2
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup = [_setup_sample(root, worker_argv) for _ in range(SETUP_SAMPLES - 1)]
        ready, record = _measured_run(
            root,
            [*worker_argv, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
    except (RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setup.append((ready, record["cal_s"][0][0]))

    record["setup_samples_s"] = [t for t, _ in setup]
    record["setup_cal_s"] = [cal for _, cal in setup]
    record["failed_ratio"] = record["failed"] / record["attempted"]
    metrics = per_layer(record) if args.trace else end_to_end(setup, record)
    record["metrics"] = metrics

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("record: " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
