"""Seeded workloads of the benchmark, with an output check for every op.

A workload is a fixed list of ops, one *pass*.  The seed draws the
continuous parameters of each op (coefficients, amplitudes, rates); the
discrete mix (orders, truncations, history kinds, step counts) is the
same in every pass, so that timings of different seeds compare.  Where
a range is sampled more than once per pass it is stratified: each
stratum of the range gets one draw, in a seeded order.

Library functions are always reached through module attributes at call
time (``spectral.find_eigenvalues``, not a name bound at import), so
that the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from frachill import cli, hill, history, integrator, spectral, system

WORKLOADS = ("verdict", "verify", "march", "reproduce")

# grid_shape default of spectral.find_eigenvalues
_SCAN_POINTS = 101 * 101
# fixed inputs of cli.reproduce_figures: two 101 x 151 dense maps at N=20
_REPRODUCE_MAP_POINTS = 2 * 101 * 151

# anchors of the verdict workload (a = -1, alpha = 0.5, N = 20)
STABLE_B = 1.0
UNSTABLE_B = 2.5
UNSTABLE_LAM = 0.108241373276464
ANCHOR_TOL = 1e-9
ROOT_SIGMA_TOL = 1e-9
STRIP_SLACK = 1e-6

VERIFY_T_END = 4.0 * math.pi
VERIFY_DT = 1e-3
VERIFY_MAX_REL_ERR = 0.05  # README guarantee 2

MARCH_DT = 0.01
MARCH_VOC_TOL = 1e-6
MARCH_A = -1.0


@dataclass
class Op:
    """One timed call into the library and the check of its output.

    ``check`` runs after the timer stops; it returns None when the
    output is right and a message otherwise.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    sizes: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    # numbers the checks keep for the run record, e.g. the verify error
    diagnostics: dict = field(default_factory=dict)

    def describe(self) -> list[dict]:
        return [{"name": op.name, **op.sizes} for op in self.ops]


def _scalar(a: float, b: float, alpha: float):
    """J(t) = a + b sin t."""
    return system.make_system(alpha, 1.0, {0: [[a]], 1: [[-0.5j * b]]})


def _mathieu(c: float, d: float, alpha: float):
    """x'' -type pair with J(t) = [[0, 1], [c + d sin t, 0]]."""
    return system.make_system(
        alpha,
        1.0,
        {0: [[0.0, 1.0], [c, 0.0]], 1: [[0.0, 0.0], [-0.5j * d, 0.0]]},
    )


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n draws from [lo, hi], one per equal stratum, in a seeded order."""
    cells = rng.permutation(n) + rng.random(n)
    return [lo + (hi - lo) * float(c) / n for c in cells]


# ---------------------------------------------------------------------------
# verdict: root search on the default strip, then stable / unstable
# ---------------------------------------------------------------------------

def _verdict_op(name: str, spec, N: int, expect=None) -> Op:
    """find_eigenvalues on the default strip plus the verdict.

    expect(pairs, verdict) returns a message when an anchor's known
    answer is missed.
    """

    def run():
        pairs = spectral.find_eigenvalues(spec, N)
        unstable = any(
            ep.classification == spectral.VALID_FLOQUET and ep.lam.real > 0.0
            for ep in pairs
        )
        return pairs, ("unstable" if unstable else "stable")

    def check(out):
        pairs, verdict = out
        region = spectral.gershgorin(spec, N)
        re_hi = max(region.re_max, 1e-5)
        half = 0.5 * spec.omega
        for ep in pairs:
            lam = ep.lam
            matrix = hill.assemble(spec, N, lam).matrix
            sigma = float(np.linalg.svd(matrix, compute_uv=False)[-1])
            if not sigma < ROOT_SIGMA_TOL:
                return f"root {lam} has sigma_min {sigma:.3e}"
            if not (
                -STRIP_SLACK <= lam.real <= re_hi + STRIP_SLACK
                and -half < lam.imag <= half + STRIP_SLACK
            ):
                return f"root {lam} lies outside the default strip"
            if not region.covers(lam, slack=STRIP_SLACK):
                return f"root {lam} lies outside the Gershgorin region"
        return expect(pairs, verdict) if expect else None

    sizes = {"matrix_order": spec.dim * (2 * N + 1), "grid_points": _SCAN_POINTS}
    return Op(name, run, check, sizes)


def _expect_stable(pairs, verdict):
    if verdict != "stable" or any(ep.lam.real >= 0.0 for ep in pairs):
        return f"b={STABLE_B} anchor: expected no root with Re >= 0, got {[ep.lam for ep in pairs]}"
    return None


def _expect_root(lam_true: float):
    def expect(pairs, verdict):
        if verdict != "unstable" or not any(
            abs(ep.lam - lam_true) <= ANCHOR_TOL for ep in pairs
        ):
            return f"expected the root {lam_true!r}, got {[ep.lam for ep in pairs]}"
        return None

    return expect


def _verdict(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    alphas = (0.3, 0.5, 0.7, 0.9)
    ops = []
    # b is stratified within each N: the N=20 ops cost about three times
    # the N=10 ones, and systems with no root cost more than those with one
    for N in (10, 20):
        for alpha, b in zip(alphas, _stratified(rng, 0.5, 3.0, len(alphas))):
            ops.append(
                _verdict_op(
                    f"scalar b={b:.6g} alpha={alpha} N={N}",
                    _scalar(-1.0, b, alpha),
                    N,
                )
            )
    c, d = float(rng.uniform(0.5, 1.5)), float(rng.uniform(1.0, 3.0))
    ops.append(_verdict_op(f"mathieu c={c:.6g} d={d:.6g} alpha=0.9 N=10", _mathieu(c, d, 0.9), 10))
    ops.append(
        _verdict_op(
            f"anchor scalar b={STABLE_B} N=20",
            _scalar(-1.0, STABLE_B, 0.5),
            20,
            _expect_stable,
        )
    )
    ops.append(
        _verdict_op(
            f"anchor scalar b={UNSTABLE_B} N=20",
            _scalar(-1.0, UNSTABLE_B, 0.5),
            20,
            _expect_root(UNSTABLE_LAM),
        )
    )
    a = float(rng.uniform(0.5, 2.0))
    alpha = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
    ops.append(
        _verdict_op(
            f"anchor constant a={a:.6g} alpha={alpha} N=10",
            system.make_system(alpha, 1.0, {0: [[a]]}),
            10,
            _expect_root(a ** (1.0 / alpha)),
        )
    )
    return Workload(ops)


# ---------------------------------------------------------------------------
# verify: root search, then the Floquet form against a PECE march
# ---------------------------------------------------------------------------

def _verify(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    Ns = (6, 8, 10)
    # guarantee 2 holds with margin only up to b = 2.4 at N = 6
    bs = _stratified(rng, 2.2, 2.4, len(Ns))
    wl = Workload([], {"max_rel_err": 0.0})
    steps = int(math.floor(VERIFY_T_END / VERIFY_DT + 1e-9))
    for N, b in zip(Ns, bs):
        spec = _scalar(-1.0, b, 0.5)

        def run(spec=spec, N=N):
            pairs = spectral.find_eigenvalues(spec, N)
            valid = [
                ep
                for ep in pairs
                if ep.classification == spectral.VALID_FLOQUET and ep.lam.real > 0.0
            ]
            if not valid:
                raise ValueError("no growing root to verify")
            ep = max(valid, key=lambda e: e.lam.real)
            return spectral.verify_floquet(ep, spec, VERIFY_T_END, VERIFY_DT)

        def check(err):
            wl.diagnostics["max_rel_err"] = max(wl.diagnostics["max_rel_err"], err)
            if not err <= VERIFY_MAX_REL_ERR:
                return f"max_rel_err {err:.3e} > {VERIFY_MAX_REL_ERR}"
            return None

        wl.ops.append(
            Op(
                f"scalar b={b:.6g} alpha=0.5 N={N}",
                run,
                check,
                {
                    "matrix_order": 2 * N + 1,
                    "grid_points": _SCAN_POINTS,
                    "steps": steps,
                    "harmonics": 2 * N + 1,
                },
            )
        )
    return wl


# ---------------------------------------------------------------------------
# march: PECE from each history kind, scalar A = -1
# ---------------------------------------------------------------------------

def _histories(rng: np.random.Generator) -> dict:
    sign = float(rng.choice([-1.0, 1.0]))
    span = float(rng.uniform(2.0, 4.0))
    grid = np.linspace(-span, 0.0, 31)
    tail = float(rng.uniform(0.3, 1.0))
    bump = float(rng.uniform(-0.5, 0.5))
    samples = tail + bump * 0.5 * (1.0 - np.cos(math.pi * (grid + span) / span))
    return {
        "constant": history.Constant(values=[sign * float(rng.uniform(0.5, 1.5))]),
        "sinusoid": history.TruncatedSinusoid(
            amplitude=[float(rng.uniform(0.5, 1.5))],
            frequency=float(rng.uniform(0.5, 2.0)),
            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        ),
        "ramp": history.PiecewiseConstantRamp(
            far_value=[float(rng.uniform(0.5, 1.5))],
            ramp_start=float(rng.uniform(-3.0, -1.0)),
        ),
        "sampled": history.Sampled(grid=grid, samples=samples, tail_value=[tail]),
        # the rate sets how many nodes take the scalar incomplete gamma
        # (|rate t| <= 45), so a narrow range keeps the op's cost steady
        "exp": history.ExpGrowth(
            rate=float(rng.uniform(0.4, 0.6)),
            coefficient=[float(rng.uniform(0.5, 1.5))],
        ),
    }


def _march_op(kind: str, h, alpha: float, steps: int) -> Op:
    spec = system.make_system(alpha, 1.0, {0: [[MARCH_A]]})
    t_end = steps * MARCH_DT

    def run():
        tr = integrator.solve_liouville_weyl(spec, h, t_end, MARCH_DT)
        return float(tr.times[-1]), float(tr.final[0]), float(np.max(np.abs(tr.values)))

    def check(out):
        t_last, u_end, u_max = out
        ref = integrator.voc_solution_scalar(MARCH_A, alpha, h, t_last)
        if not abs(u_end - ref) <= MARCH_VOC_TOL:
            return f"|u(t_end) - voc| = {abs(u_end - ref):.3e} > {MARCH_VOC_TOL}"
        bound = 3.0 * h.norm_inf() + 1e-3  # README guarantee 7
        if not u_max <= bound:
            return f"max|u| = {u_max:.6g} > {bound:.6g}"
        return None

    return Op(f"{kind} alpha={alpha} steps={steps}", run, check, {"steps": steps})


def _march(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    hs = _histories(rng)
    # a second 20k-step sinusoid keeps the pass's median op inside the
    # block of 20k-step ops, between the cheap routes and the 40k march
    plan = [(kind, 20_000) for kind in hs] + [("sinusoid", 20_000), ("constant", 40_000)]
    alphas = rng.permutation([0.3, 0.5, 0.7] * 2 + [0.5])
    ops = [
        _march_op(kind, hs[kind], float(alpha), steps)
        for (kind, steps), alpha in zip(plan, alphas)
    ]
    return Workload(ops)


# ---------------------------------------------------------------------------
# reproduce: the CLI figure pipeline, in process
# ---------------------------------------------------------------------------

def source_key() -> str:
    """Digest of the library source and numpy/scipy versions.

    Reproduce outputs must be byte-identical for equal keys (guarantee 9).
    """
    import scipy

    digest = hashlib.sha256(f"{np.__version__} {scipy.__version__}".encode())
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def same_as_reference(reference: Path, hashes: dict) -> Optional[str]:
    """Compare CSV hashes with those an earlier run of the same source wrote.

    The first run of a source writes the reference, so the comparison also
    spans runs in different processes.
    """
    if not reference.is_file():
        reference.parent.mkdir(parents=True, exist_ok=True)
        reference.write_text(json.dumps(hashes, indent=1) + "\n")
        return None
    first = json.loads(reference.read_text())
    if hashes != first:
        changed = sorted(n for n in hashes.keys() | first.keys() if hashes.get(n) != first.get(n))
        return f"CSV bytes differ from an earlier run of the same source: {changed}"
    return None


def _reproduce(out_dir: Path) -> Workload:
    """Fixed inputs; each op writes under out_dir and the check removes it."""
    wl = Workload([], {"csv_sha256": None})
    reference = out_dir / f"reproduce-csv-sha256-{source_key()}.json"
    count = [0]

    def run():
        count[0] += 1
        outdir = out_dir / f"reproduce-{os.getpid()}-{count[0]}"
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(["reproduce", "--outdir", str(outdir)])
        except BaseException:
            shutil.rmtree(outdir, ignore_errors=True)
            raise
        return code, out.getvalue(), outdir

    def check(out):
        code, report, outdir = out
        try:
            hashes = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.glob("*.csv"))
            }
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if code != 0:
            return f"exit code {code}"
        lines = report.splitlines()
        if not lines or not all(line.startswith("PASS") for line in lines[:-1]):
            return f"report has a failed check: {report!r}"
        if len(hashes) != 7:
            return f"expected 7 CSVs, got {sorted(hashes)}"
        wl.diagnostics["csv_sha256"] = hashes
        return same_as_reference(reference, hashes)

    wl.ops.append(
        Op(
            "reproduce",
            run,
            check,
            {"matrix_order": 41, "grid_points": _REPRODUCE_MAP_POINTS},
        )
    )
    return wl


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """The workload's op list for a seed; reproduce writes under out_dir."""
    if name == "verdict":
        return _verdict(seed)
    if name == "verify":
        return _verify(seed)
    if name == "march":
        return _march(seed)
    if name == "reproduce":
        return _reproduce(out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def warm_up() -> None:
    """Small calls down every layer, so first-call costs land in set-up."""
    spec = _scalar(-1.0, 2.5, 0.5)
    pairs = spectral.find_eigenvalues(spec, 2, grid_shape=(9, 9))
    hill.evaluate_grid(spec, 2, [0.1 + 0.1j, 0.2])
    integrator.solve_liouville_weyl(spec, history.Constant(values=[1.0]), 0.5, 0.01)
    valid = [ep for ep in pairs if ep.classification == spectral.VALID_FLOQUET]
    if valid:
        spectral.verify_floquet(valid[0], spec, 0.1, 0.01)
