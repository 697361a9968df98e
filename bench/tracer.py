"""Spans around every call into the layers' public functions.

The package binds functions across modules by name (``from .hill import
sigma_min_grid``), so patching the defining module alone would miss
callers.  ``Tracer.install`` replaces every binding of each listed
function in every loaded ``frachill`` module with one wrapper, and
``uninstall`` puts the originals back.  A listed function that no longer
exists is recorded as absent and its metrics read null.

Spans (name, start, end, parent, op id) stay in memory while the run
lasts; ``save`` writes them out at the end.  Calls made while the
tracer is inactive (the benchmark's own output checks) are not
recorded.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np

# the public functions of each layer that the trace times
FUNCTIONS = {
    "hill": ("assemble", "sigma_min_and_nullvector", "sigma_min_grid", "evaluate_grid"),
    "spectral": ("find_eigenvalues", "verify_floquet", "reconstruct_floquet"),
    "history": ("forcing_grid",),
    "specfun": ("upper_incomplete_gamma", "upper_incomplete_gamma_vec", "mittag_leffler"),
    "system": ("principal_power", "principal_power_grid", "eval_J"),
    "integrator": ("solve_liouville_weyl", "solve_caputo"),
    "cli": ("reproduce_figures",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _csv_bytes(outdir) -> int:
    return sum(p.stat().st_size for p in Path(outdir).glob("*.csv"))


# work counted at the call boundary: span name -> (counter, amount)
COUNTERS = {
    "hill.assemble": ("hill.matrices_built", lambda a, k, r: 1),
    "hill.sigma_min_grid": (
        "hill.matrices_built",
        lambda a, k, r: np.size(_arg(a, k, 2, "lams")),
    ),
    "hill.evaluate_grid": (
        "hill.matrices_built",
        lambda a, k, r: np.size(_arg(a, k, 2, "lams")),
    ),
    "spectral.find_eigenvalues": ("spectral.roots_found", lambda a, k, r: len(r)),
    "history.forcing_grid": (
        "history.forcing_grid.nodes",
        lambda a, k, r: np.size(_arg(a, k, 1, "ts")),
    ),
    "specfun.upper_incomplete_gamma_vec": (
        "specfun.upper_incomplete_gamma_vec.points",
        lambda a, k, r: np.size(_arg(a, k, 1, "x")),
    ),
    "system.principal_power_grid": (
        "system.principal_power_grid.points",
        lambda a, k, r: np.size(_arg(a, k, 0, "w")),
    ),
    "integrator.solve_caputo": ("integrator.steps", lambda a, k, r: len(r.times) - 1),
    "cli.reproduce_figures": (
        "cli.csv_bytes",
        lambda a, k, r: _csv_bytes(_arg(a, k, 0, "outdir")),
    ),
}
COUNTER_NAMES = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
        self.absent: set[str] = set()
        self.active = False
        self.op = -1
        self.calls = [0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        # one entry per finished span
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_name = array.array("h")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._next_id = 0
        # open spans: [span id, seconds covered by finished children]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        counter = COUNTERS.get(self.names[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.total_s[index] += duration
                self.self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.span_id.append(frame[0])
                self.span_parent.append(parent)
                self.span_name.append(index)
                self.span_op.append(self.op)
                self.span_start.append(start)
                self.span_end.append(end)
            if counter is not None:
                self.counters[counter[0]] += int(counter[1](args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each listed function in frachill.*."""
        wrappers = {}
        for index, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            module = importlib.import_module(f"frachill.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.add(name)
                continue
            wrappers[id(fn)] = (fn, self._wrap(index, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "frachill" or mod_name.startswith("frachill.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def metrics(self) -> dict:
        """Per-layer totals: <name>.calls/.s/.self_s plus the counters."""
        out: dict = {}
        for index, name in enumerate(self.names):
            gone = name in self.absent
            out[f"{name}.calls"] = None if gone else self.calls[index]
            out[f"{name}.s"] = None if gone else self.total_s[index]
            out[f"{name}.self_s"] = None if gone else self.self_s[index]
        out.update(self.counters)
        return out

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def span_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one recorded span adds to a call, from a wrapped no-op.

    The best of several timings of the wrapper around a no-op, minus the
    bare no-op's.  Spans of microsecond functions are mostly this cost,
    and it also lands in the self time of their parents.
    """
    probe = Tracer()
    probe.active = True

    def noop():
        return None

    wrapped = probe._wrap(probe.names.index("hill.sigma_min_and_nullvector"), noop)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, (best(wrapped) - best(noop)) / calls)
