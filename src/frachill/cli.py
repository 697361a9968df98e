"""Command line front end: JSON configs in, CSV/JSON artifacts out.

Subcommands map one-to-one onto the library services.  Every
file-producing command writes `<out>.manifest.json` next to its output,
recording the resolved parameters, input-file hashes, package version,
and wall time.  Data files are deterministic: rerunning a command with
identical inputs reproduces them byte for byte (manifests may differ in
the recorded duration).

Exit codes: 0 success, 2 usage or schema errors, 1 numerical failure
or a write failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from frachill import __version__
from frachill.errors import (
    FracHillError,
    IterationError,
    NumericalError,
    SchemaError,
)
from frachill.history import Constant, ForcingEvaluator, forcing_grid, parse_history
from frachill.hill import evaluate_grid
from frachill.integrator import _grid, solve_liouville_weyl
from frachill.specfun import mittag_leffler
from frachill.spectral import (
    classify_lti,
    compare_floquet,
    find_eigenvalues,
    reconstruct_floquet,
    verify_floquet,
)
from frachill.system import make_system, parse_system

__all__ = ["run", "main", "reproduce_figures", "RunManifest"]

log = logging.getLogger("frachill.cli")

_LOG_LEVELS = {
    "quiet": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    wanted = os.environ.get("FRACHILL_LOG", "quiet")
    level = _LOG_LEVELS.get(wanted, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _fmt(x: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return f"{float(x):.17g}"


def _parse_complex(text: str) -> complex:
    # only a trailing i or I is the imaginary suffix; "inf" keeps its i
    spelled = text[:-1] + "j" if text[-1:] in ("i", "I") else text
    try:
        return complex(spelled)
    except ValueError:
        raise SchemaError(f"cannot parse complex number {text!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise SchemaError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"malformed grid {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SchemaError(f"grid endpoints must be finite, got {text!r}")
    if count < 2:
        raise SchemaError(f"grid needs at least 2 points, got {count}")
    return np.linspace(start, stop, count)


def _parse_strip(text: str) -> tuple[float, float, float, float]:
    parts = text.split(":")
    if len(parts) != 4:
        raise SchemaError(f"strip must be re0:re1:im0:im1, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"malformed strip {text!r}: {exc}") from None


def _load_json(path: str) -> tuple[object, str]:
    """Parse a JSON input file, returning the document and its hash."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    return doc, hashlib.sha256(raw).hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record written next to every output file."""

    command: str
    parameters: dict
    inputs: dict = field(default_factory=dict)
    version: str = __version__
    duration_s: float = 0.0

    def write(self, out_path) -> None:
        path = Path(f"{out_path}.manifest.json")
        path.write_text(
            json.dumps(asdict(self), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


def _write_csv(path, columns) -> None:
    """Write (name, values) columns as CSV.

    A complex column writes name_re,name_im; numbers go through _fmt and
    strings are written as they are.
    """
    header, cells = [], []
    for name, values in columns:
        values = np.asarray(values)
        if np.iscomplexobj(values):
            header += [f"{name}_re", f"{name}_im"]
            parts = (values.real, values.imag)
        else:
            header.append(name)
            parts = (values,)
        for part in parts:
            cells.append([v if isinstance(v, str) else _fmt(v) for v in part.tolist()])
    lines = [",".join(header), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _emit(path, columns, command, parameters, inputs, started) -> None:
    _write_csv(path, columns)
    manifest = RunManifest(
        command=command,
        parameters=parameters,
        inputs=inputs,
        duration_s=round(time.perf_counter() - started, 6),
    )
    manifest.write(path)
    log.info("wrote %s", path)


def _trajectory_columns(times, values, name: str = "y") -> list:
    """t, then component j of values as column name{j}."""
    return [("t", times)] + [
        (f"{name}{j + 1}", column) for j, column in enumerate(values.T)
    ]


def _det_columns(lams, logdet, sigma) -> list:
    return [
        ("re", lams.real),
        ("im", lams.imag),
        ("log_abs_det", logdet),
        ("sigma_min", sigma),
    ]


def _eig_columns(pairs) -> list:
    lams = np.array([ep.lam for ep in pairs], dtype=complex)
    return [
        ("re", lams.real),
        ("im", lams.imag),
        ("residual", [ep.residual for ep in pairs]),
        ("classification", [ep.classification for ep in pairs]),
    ]


def _cmd_ml(args) -> int:
    z = _parse_complex(args.z)
    value = mittag_leffler(args.alpha, args.beta, z)
    print(f"{_fmt(value.real)},{_fmt(value.imag)}")
    return 0


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    sys_doc, sys_hash = _load_json(args.system)
    hist_doc, hist_hash = _load_json(args.history)
    spec = parse_system(sys_doc)
    history = parse_history(hist_doc)
    tr = solve_liouville_weyl(spec, history, args.t_end, args.dt)
    _emit(
        args.out,
        _trajectory_columns(tr.times, np.atleast_2d(tr.values)),
        "simulate",
        {"t_end": args.t_end, "dt": args.dt},
        {
            "system": {"path": args.system, "sha256": sys_hash},
            "history": {"path": args.history, "sha256": hist_hash},
        },
        started,
    )
    return 0


def _cmd_forcing(args) -> int:
    started = time.perf_counter()
    hist_doc, hist_hash = _load_json(args.history)
    history = parse_history(hist_doc)
    ts = _parse_grid(args.grid)
    fe = ForcingEvaluator(history=history, alpha=args.alpha)
    _emit(
        args.out,
        _trajectory_columns(ts, forcing_grid(fe, ts), "f"),
        "forcing",
        {"alpha": args.alpha, "grid": args.grid},
        {"history": {"path": args.history, "sha256": hist_hash}},
        started,
    )
    return 0


def _cmd_hill_det(args) -> int:
    started = time.perf_counter()
    sys_doc, sys_hash = _load_json(args.system)
    spec = parse_system(sys_doc)
    res = _parse_grid(args.re)
    ims = _parse_grid(args.im)
    # row-major: the --re axis is the outer loop
    lams = (res[:, None] + 1j * ims[None, :]).ravel()
    _emit(
        args.out,
        _det_columns(lams, *evaluate_grid(spec, args.N, lams)),
        "hill-det",
        {"N": args.N, "re": args.re, "im": args.im},
        {"system": {"path": args.system, "sha256": sys_hash}},
        started,
    )
    return 0


def _search(args):
    """Load --system and search --strip at --N, --tol.

    Returns the system, the hash of its file and the eigenpairs.
    """
    sys_doc, sys_hash = _load_json(args.system)
    spec = parse_system(sys_doc)
    strip = _parse_strip(args.strip) if args.strip else None
    return spec, sys_hash, find_eigenvalues(spec, args.N, strip=strip, tol=args.tol)


def _cmd_eig(args) -> int:
    started = time.perf_counter()
    _, sys_hash, pairs = _search(args)
    _emit(
        args.out,
        _eig_columns(pairs),
        "eig",
        {"N": args.N, "tol": args.tol, "strip": args.strip},
        {"system": {"path": args.system, "sha256": sys_hash}},
        started,
    )
    return 0


def _select_pair(pairs, index: int):
    if not pairs:
        raise IterationError("no eigenpair found in the search strip")
    if not 0 <= index < len(pairs):
        raise SchemaError(
            f"eigenpair index {index} out of range: search found {len(pairs)}"
        )
    return pairs[index]


def _cmd_floquet(args) -> int:
    started = time.perf_counter()
    spec, sys_hash, pairs = _search(args)
    ep = _select_pair(pairs, args.index)
    times = _grid(0.0, args.t_end, args.dt)
    tr = reconstruct_floquet(ep, spec, times)
    _emit(
        args.out,
        _trajectory_columns(tr.times, tr.values),
        "floquet",
        {
            "N": args.N,
            "tol": args.tol,
            "strip": args.strip,
            "index": args.index,
            "lambda_re": ep.lam.real,
            "lambda_im": ep.lam.imag,
            "t_end": args.t_end,
            "dt": args.dt,
        },
        {"system": {"path": args.system, "sha256": sys_hash}},
        started,
    )
    return 0


def _cmd_verify(args) -> int:
    spec, _, pairs = _search(args)
    print("lambda_re,lambda_im,max_rel_err")
    for ep in pairs:
        if ep.classification != "valid-floquet":
            log.info("skipping %s eigenpair at %s", ep.classification, ep.lam)
            continue
        err = verify_floquet(ep, spec, args.t_end, args.dt)
        print(f"{_fmt(ep.lam.real)},{_fmt(ep.lam.imag)},{_fmt(err)}")
    return 0


def _cmd_lti(args) -> int:
    doc, _ = _load_json(args.matrix)
    data = doc.get("matrix") if isinstance(doc, dict) else doc
    try:
        A = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"matrix document is not numeric: {exc}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SchemaError(f"matrix must be square, got shape {A.shape}")
    result = classify_lti(A, args.alpha)
    print("mu_re,mu_im,case,s_re,s_im")
    for entry in result.entries:
        s_re = _fmt(entry.s.real) if entry.s is not None else ""
        s_im = _fmt(entry.s.imag) if entry.s is not None else ""
        print(
            f"{_fmt(entry.mu.real)},{_fmt(entry.mu.imag)},"
            f"{entry.case},{s_re},{s_im}"
        )
    return 0


def _example_scalar(b: float, alpha: float = 0.5):
    """J(t) = -1 + b sin(t) as exponential Fourier coefficients."""
    return make_system(alpha, 1.0, {0: [[-1.0]], 1: [[-0.5j * b]]})


def _example_mathieu(c: float = 1.0, d: float = 2.0, alpha: float = 0.9):
    """Coupled 2x2 system with J_1 = [[0,0],[-i d/2,0]]."""
    return make_system(
        alpha,
        1.0,
        {0: [[0.0, 1.0], [c, 0.0]], 1: [[0.0, 0.0], [-0.5j * d, 0.0]]},
    )


def _check(checks: list, ok: bool, text: str) -> None:
    checks.append(f"{'PASS' if ok else 'FAIL'} {text}")
    if not ok:
        log.warning("check failed: %s", text)


def reproduce_figures(outdir) -> str:
    """Emit the reference data sets and a pass/fail summary report.

    Writes trajectory CSVs for the stable and unstable scalar cases,
    log-determinant grids, eigenvalue scatters for the scalar and
    coupled examples, and the Hill-versus-simulation comparison, each
    with a manifest.  Returns the report text (also written to
    report.txt).  Data files are byte-identical across reruns.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    checks: list[str] = []

    # trajectories from constant history 1, alpha = 0.5, a = -1
    final_abs = {}
    for b, label in ((1.0, "b1"), (2.5, "b2p5")):
        started = time.perf_counter()
        spec = _example_scalar(b)
        tr = solve_liouville_weyl(spec, Constant(values=[1.0]), 50.0, 0.01)
        final_abs[b] = float(np.linalg.norm(tr.final))
        _emit(
            out / f"fig2_trajectory_{label}.csv",
            _trajectory_columns(tr.times, np.atleast_2d(tr.values)),
            "reproduce",
            {"b": b, "alpha": 0.5, "t_end": 50.0, "dt": 0.01, "history": "constant 1"},
            {},
            started,
        )

    # log|det| and sigma_min maps over the lambda plane, N = 20
    res = np.linspace(-1.0, 1.0, 101)
    ims = np.linspace(-1.5, 1.5, 151)
    lams = (res[:, None] + 1j * ims[None, :]).ravel()
    for b, label in ((1.0, "b1"), (2.5, "b2p5")):
        started = time.perf_counter()
        _emit(
            out / f"fig4_logdet_{label}.csv",
            _det_columns(lams, *evaluate_grid(_example_scalar(b), 20, lams)),
            "reproduce",
            {"b": b, "N": 20, "re": "-1:1:101", "im": "-1.5:1.5:151"},
            {},
            started,
        )

    # eigenvalue scatters over several group periods
    started = time.perf_counter()
    scalar_eigs = find_eigenvalues(
        _example_scalar(2.5), 20, strip=(0.0, 4.0, -2.5, 2.5)
    )
    _emit(
        out / "fig5_eigs_scalar.csv",
        _eig_columns(scalar_eigs),
        "reproduce",
        {"b": 2.5, "N": 20, "strip": "0:4:-2.5:2.5"},
        {},
        started,
    )
    started = time.perf_counter()
    mathieu_eigs = find_eigenvalues(
        _example_mathieu(), 10, strip=(-3.0, 3.0, -2.5, 2.5)
    )
    _emit(
        out / "fig5_eigs_mathieu.csv",
        _eig_columns(mathieu_eigs),
        "reproduce",
        {"c": 1.0, "d": 2.0, "alpha": 0.9, "N": 10, "strip": "-3:3:-2.5:2.5"},
        {},
        started,
    )

    # Hill reconstruction against direct time marching, b = 2.2
    started = time.perf_counter()
    spec22 = _example_scalar(2.2)
    pairs22 = find_eigenvalues(spec22, 10)
    ep = _select_pair(pairs22, 0)
    sim, hill, max_rel_err = compare_floquet(ep, spec22, 4.0 * math.pi, 1e-3)
    _emit(
        out / "fig6_verification.csv",
        [("t", sim.times), ("y_sim", sim.values[:, 0]), ("y_hill", hill.values[:, 0])],
        "reproduce",
        {"b": 2.2, "N": 10, "t_end": 4.0 * math.pi, "dt": 1e-3},
        {},
        started,
    )

    # threshold checks
    stable_eigs = find_eigenvalues(_example_scalar(1.0), 20)
    grow = [ep for ep in stable_eigs if ep.lam.real >= 0.0]
    _check(
        checks,
        not grow,
        f"b=1: no eigenvalue with Re >= 0 in the default strip "
        f"(found {len(stable_eigs)})",
    )
    _check(
        checks,
        final_abs[1.0] < 0.1,
        f"b=1: |y(50)| = {final_abs[1.0]:.6g} < 0.1",
    )
    unstable = [
        ep
        for ep in find_eigenvalues(_example_scalar(2.5), 20)
        if ep.lam.real > 0.0 and ep.residual < 1e-9
    ]
    _check(
        checks,
        len(unstable) >= 1,
        f"b=2.5: {len(unstable)} eigenvalue(s) with Re > 0 and residual < 1e-9",
    )
    _check(
        checks,
        final_abs[2.5] > 10.0,
        f"b=2.5: |y(50)| = {final_abs[2.5]:.6g} > 10",
    )
    _check(
        checks,
        max_rel_err <= 0.05,
        f"b=2.2: Hill vs simulation max relative error "
        f"{max_rel_err:.6g} <= 0.05 over two periods",
    )
    groups = sorted({round(ep.lam.real, 6) for ep in mathieu_eigs})
    _check(
        checks,
        len(groups) == 2 and groups[0] < 0.0 < groups[1],
        f"mathieu: two eigenvalue groups with Re parts {groups}, "
        "one positive",
    )

    passed = sum(line.startswith("PASS") for line in checks)
    checks.append(f"{passed}/{len(checks)} checks passed")
    report = "\n".join(checks) + "\n"
    report_path = out / "report.txt"
    report_path.write_text(report, encoding="utf-8", newline="\n")
    RunManifest(command="reproduce", parameters={"outdir": str(outdir)}).write(
        report_path
    )
    return report


def _cmd_reproduce(args) -> int:
    report = reproduce_figures(args.outdir)
    print(report, end="")
    return 0 if "FAIL" not in report else 1


def _build_parser() -> argparse.ArgumentParser:
    # the eigenvalue search shared by eig, floquet and verify
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--system", required=True)
    search.add_argument("--N", type=int, required=True)
    search.add_argument("--tol", type=float, default=1e-9)
    search.add_argument("--strip", default=None, help="re0:re1:im0:im1")

    parser = argparse.ArgumentParser(
        prog="frachill",
        description="Stability of periodic solutions of fractional-order systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ml", help="evaluate E_{alpha,beta}(z)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--z", required=True, help='complex number, e.g. "0.5+0.25i"')
    p.set_defaults(func=_cmd_ml)

    p = sub.add_parser("simulate", help="march an infinite-history problem")
    p.add_argument("--system", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("forcing", help="evaluate the history forcing term")
    p.add_argument("--history", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--grid", required=True, help="start:stop:count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forcing)

    p = sub.add_parser("hill-det", help="determinant map over a lambda grid")
    p.add_argument("--system", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--re", required=True, help="start:stop:count")
    p.add_argument("--im", required=True, help="start:stop:count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hill_det)

    p = sub.add_parser(
        "eig", parents=[search], help="search Floquet exponents in a strip"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser(
        "floquet", parents=[search], help="reconstruct y(t) = e^{lt} p(t)"
    )
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_floquet)

    p = sub.add_parser(
        "verify", parents=[search], help="cross-check eigenpairs by marching"
    )
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--dt", type=float, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lti", help="classify constant-matrix eigenvalues")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_lti)

    p = sub.add_parser("reproduce", help="emit reference data and report")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join dash-leading values onto their flag.

    Every long flag but --help takes a value, and values like
    "-0.5:0.5:201", "-1e-3", "-inf" or "-0.5+0.25i" start with a dash, so
    the parser would otherwise mistake them for an option.  A token that
    is itself an option ("--..." or "-h") is never taken as a value.
    """
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and tok not in ("--", "--help")
            and "=" not in tok
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
            and argv[i + 1] != "-h"
        ):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def run(argv=None) -> int:
    """Parse argv, dispatch, and map exceptions to exit codes."""
    _configure_logging()
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"frachill: schema error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"frachill: numerical error: {exc}", file=sys.stderr)
        return 1
    except FracHillError as exc:
        print(f"frachill: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"frachill: i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
