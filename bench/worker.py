"""One benchmark run in a fresh interpreter; started by run.py.

Protocol on stdout: the line ``READY`` once set-up (import, inputs,
warm-up) is done, then one line ``CAL <seconds>`` with --setup-only,
otherwise one line ``RESULT <json>``.
The report the CLI prints in the reproduce workload is captured, not
passed on.

The run repeats the workload's pass, untraced, until --seconds have
been spent on timed ops (at least one pass).  With --trace 1 one more
pass follows with the tracer on; its spans are written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path.cwd()


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import frachill

    where = Path(frachill.__file__).resolve()
    if ROOT.resolve() not in where.parents:
        raise ImportError(f"frachill was imported from {where}, not from {ROOT}/src")


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git() -> dict:
    """Commit and dirty flag; both null outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.resolve().parent))

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def environment(seed: int, wl) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git": _git(),
        "seed": seed,
        "ops_per_pass": len(wl.ops),
        "ops": wl.describe(),
    }


def calibrate() -> float:
    """Seconds of a fixed reference computation that calls no frachill code.

    A shared machine's speed can drift by tens of percent within
    minutes, for every kind of work alike (bench/README.md); run.py
    scales op and set-up times by this figure, measured next to them.  The work mirrors the library's: a
    batch of small complex SVDs (the Hill scan), dot products of growing
    length (the PECE memory sum) and scalar math in a Python loop (the
    scalar special functions).  Median of three timings.
    """
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((96, 41, 41)) + 1j * rng.standard_normal((96, 41, 41))
    x = rng.standard_normal(200_000)
    y = rng.standard_normal(200_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np.linalg.svd(mats, compute_uv=False)
        acc = 0.0
        for k in range(1, 201):
            acc += float(np.dot(x[: 1000 * k], y[-1000 * k :]))
        for i in range(32_000):
            acc += math.exp(-1e-3 * i) * math.cos(i) + math.gamma(1.0 + 1e-4 * i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_pass(wl, results: dict, traced_by=None) -> tuple[list[float], list[float]]:
    """Time each op of one pass, check it untimed.

    Returns the op times and the calibrations taken before each op and
    after the last one.
    """
    op_s, cal_s = [], []
    for index, op in enumerate(wl.ops):
        cal_s.append(calibrate())
        results["attempted"] += 1
        if traced_by is not None:
            traced_by.op = index
            traced_by.active = True
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced_by is not None:
            traced_by.active = False
        op_s.append(elapsed)
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            results["failed"] += 1
            results["failures"].append({"op": op.name, "error": error})
    cal_s.append(calibrate())
    return op_s, cal_s


def measure(wl, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """Untraced passes until `seconds` of op time, then one traced pass if asked.

    Op and calibration times are kept per pass.  The spans of the traced
    pass are written to spans_path when given.
    """
    results = {"attempted": 0, "failed": 0, "failures": []}
    op_s, cal_s = [], []
    while not op_s or sum(map(sum, op_s)) < seconds:
        ops, cals = _run_pass(wl, results)
        op_s.append(ops)
        cal_s.append(cals)
    record = {
        "pass_s": [sum(ops) for ops in op_s],
        "op_s": op_s,
        "cal_s": cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        from tracer import Tracer, span_cost

        tracer = Tracer()
        tracer.install()
        try:
            ops, _ = _run_pass(wl, results, traced_by=tracer)
        finally:
            tracer.uninstall()
        record["traced_pass_s"] = sum(ops)
        record["trace"] = tracer.metrics()
        record["trace_absent"] = sorted(tracer.absent)
        record["trace_spans"] = len(tracer.span_id)
        record["trace_span_cost_s"] = span_cost()
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans_path)
    record.update(
        attempted=results["attempted"],
        failed=results["failed"],
        failures=results["failures"],
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    _import_library()
    import workloads

    wl = workloads.build(args.workload, args.seed, out_dir)
    workloads.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        print(f"CAL {calibrate()!r}", flush=True)
        return 0

    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    record = {"workload": args.workload, "seed": args.seed}
    record.update(measure(wl, args.seconds, bool(args.trace), spans))
    if args.trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    record.update(diagnostics=wl.diagnostics, environment=environment(args.seed, wl))
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
