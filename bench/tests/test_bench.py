"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Most tests measure the first op of a workload in process; one full
untraced pass of `march` goes through the command line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import frachill  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", "0",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _first_op(name: str, trace: bool, tmp_path: Path) -> dict:
    """The record of one pass made of the workload's first op only."""
    wl = workloads.build(name, 3, tmp_path)
    wl.ops = wl.ops[:1]
    record = worker.measure(wl, 0.0, trace)
    assert record["failed"] == 0, record["failures"]
    return record


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", ["verdict", "verify", "march"])
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = workloads.build(name, 1, tmp_path).describe()
    assert first == workloads.build(name, 1, tmp_path).describe()
    other = workloads.build(name, 2, tmp_path).describe()
    assert first != other
    # the seed moves parameters, never the mix of sizes
    strip = lambda ops: [{k: v for k, v in op.items() if k != "name"} for op in ops]
    assert strip(first) == strip(other)


def test_reproduce_inputs_are_fixed(tmp_path):
    assert (
        workloads.build("reproduce", 1, tmp_path).describe()
        == workloads.build("reproduce", 2, tmp_path).describe()
    )


def test_tracer_wraps_every_binding_and_restores_it():
    from frachill import cli, hill, spectral

    original = hill.sigma_min_grid
    t = tracer.Tracer()
    t.install()
    try:
        assert hill.sigma_min_grid is not original
        assert spectral.sigma_min_grid is hill.sigma_min_grid
        assert frachill.sigma_min_grid is hill.sigma_min_grid
        assert cli.find_eigenvalues is spectral.find_eigenvalues
    finally:
        t.uninstall()
    assert hill.sigma_min_grid is original
    assert spectral.sigma_min_grid is original
    assert not t.absent


def test_command_prints_every_end_to_end_metric():
    done = _command("march")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_calibration_around_each_op():
    ref = run.CAL_REF_S
    record = {"op_s": [[1.0, 2.0]], "cal_s": [[ref, ref, 3.0 * ref]], "peak_rss_mb": 1.0}
    assert run.at_reference_speed(record) == [[1.0, 1.0]]
    metrics = run.end_to_end([(0.5, 2.0 * ref)], record)
    assert metrics["setup_s"]["value"] == 0.25
    assert metrics["run_s"]["value"] == 2.0


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: run.per_layer(_first_op(name, True, tmp)) for name in ("verdict", "march")}


def test_per_layer_metrics_match_benchmark_json(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metrics in traced.values():
        assert _units(metrics) == expected


def test_trace_shows_the_predicted_zeros(traced):
    verdict = {k: m["value"] for k, m in traced["verdict"].items()}
    march = {k: m["value"] for k, m in traced["march"].items()}
    assert march["hill.matrices_built"] == 0
    assert verdict["integrator.steps"] == 0
    assert verdict["history.forcing_grid.nodes"] == 0
    # and the layers that should work do
    assert verdict["hill.matrices_built"] > 0
    assert march["integrator.steps"] == 20_000
    assert 0 < march["trace.overhead_s"] < march["integrator.solve_liouville_weyl.s"]


def test_reproduce_hashes_are_compared_across_runs(tmp_path):
    reference = tmp_path / "ref.json"
    hashes = {"a.csv": "1", "b.csv": "2"}
    assert workloads.same_as_reference(reference, hashes) is None
    assert workloads.same_as_reference(reference, dict(hashes)) is None
    message = workloads.same_as_reference(reference, {"a.csv": "1", "b.csv": "3"})
    assert message is not None and "b.csv" in message


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _command("verdict", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
