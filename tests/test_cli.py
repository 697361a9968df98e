"""Tests for the command line front end: schemas, exit codes, manifests."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.special import wofz

from frachill.cli import run
from frachill.history import Constant, ForcingEvaluator, forcing_grid, parse_history
from frachill.hill import evaluate_grid
from frachill.specfun import mittag_leffler
from frachill.system import make_system


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def scalar_system_doc(b, alpha=0.5):
    return {
        "alpha": alpha,
        "omega": 1.0,
        "dim": 1,
        "harmonics": [
            {"k": 0, "re": [[-1.0]], "im": [[0.0]]},
            {"k": 1, "re": [[0.0]], "im": [[-b / 2.0]]},
        ],
    }


def constant_history_doc():
    return {"kind": "constant", "value": [1.0], "t0": 0.0}


@pytest.fixture
def system_file(tmp_path):
    return write_json(tmp_path / "sys.json", scalar_system_doc(2.5))


@pytest.fixture
def history_file(tmp_path):
    return write_json(tmp_path / "hist.json", constant_history_doc())


class TestMl:
    def test_value_round_trips(self, capsys):
        assert run(["ml", "--alpha", "0.5", "--z", "-1.0"]) == 0
        out = capsys.readouterr().out.strip()
        re_s, im_s = out.split(",")
        expected = mittag_leffler(0.5, 1.0, -1.0)
        assert float(re_s) == expected.real
        assert float(im_s) == expected.imag

    def test_complex_argument_with_i_suffix(self, capsys):
        assert run(["ml", "--alpha", "0.7", "--beta", "2.0", "--z", "0.3+0.4i"]) == 0
        out = capsys.readouterr().out.strip()
        re_s, im_s = out.split(",")
        expected = mittag_leffler(0.7, 2.0, 0.3 + 0.4j)
        assert complex(float(re_s), float(im_s)) == expected


    def test_overflow_prints_inf(self, capsys):
        # E_{0.3,1}(10) = exp(10^(10/3)) / 0.3 is beyond double precision
        assert run(["ml", "--alpha", "0.3", "--z", "10"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "inf,0"
        assert captured.err == ""

    def test_sector_boundary(self, capsys):
        # 4 e^{i pi/2}, on the boundary |arg z| = alpha pi of E_{1/2,1}
        z = "2.4492935982947064e-16+4i"
        assert run(["ml", "--alpha", "0.5", "--z", z]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        re_s, im_s = captured.out.strip().split(",")
        want = wofz(-1j * complex(z.replace("i", "j")))
        assert abs(complex(float(re_s), float(im_s)) - want) <= 1e-9


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert run(["simulate", "--t-end", "1", "--dt", "0.1"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = run(
            ["eig", "--system", str(bad), "--N", "3", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert "schema error" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            [
                "eig",
                "--system",
                str(tmp_path / "absent.json"),
                "--N",
                "3",
                "--out",
                str(tmp_path / "o.csv"),
            ]
        )
        assert code == 2

    def test_numerical_domain_error(self, capsys):
        # alpha outside (0, 2) is a numerical-domain failure, not usage
        assert run(["ml", "--alpha", "2.5", "--z", "1.0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, system_file, history_file, capsys):
        out = tmp_path / "no_such_dir" / "traj.csv"
        code = run(
            [
                "simulate",
                "--system",
                system_file,
                "--history",
                history_file,
                "--t-end",
                "0.5",
                "--dt",
                "0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    def test_threads_must_be_positive(self, capsys):
        assert run(["ml", "--alpha", "0.5", "--z", "1.0", "--threads", "0"]) == 2


class TestSimulate:
    def test_trajectory_and_manifest(self, tmp_path, system_file, history_file):
        out = tmp_path / "traj.csv"
        code = run(
            [
                "simulate",
                "--system",
                system_file,
                "--history",
                history_file,
                "--t-end",
                "1.0",
                "--dt",
                "0.25",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y1"
        assert lines[1] == "0,1"
        assert len(lines) == 6
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["version"]
        digest = hashlib.sha256(
            (tmp_path / "sys.json").read_bytes()
        ).hexdigest()
        assert manifest["inputs"]["system"]["sha256"] == digest

    def test_rerun_byte_identical(self, tmp_path, system_file, history_file):
        args = [
            "simulate",
            "--system",
            system_file,
            "--history",
            history_file,
            "--t-end",
            "1.0",
            "--dt",
            "0.25",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_library_call(self, tmp_path, system_file, history_file):
        out = tmp_path / "traj.csv"
        run(
            [
                "simulate",
                "--system",
                system_file,
                "--history",
                history_file,
                "--t-end",
                "2.0",
                "--dt",
                "0.5",
                "--out",
                str(out),
            ]
        )
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        from frachill.integrator import solve_liouville_weyl

        spec = make_system(0.5, 1.0, {0: [[-1.0]], 1: [[-1.25j]]})
        tr = solve_liouville_weyl(spec, Constant(values=[1.0]), 2.0, 0.5)
        assert np.allclose(rows[:, 1], np.real(tr.values[:, 0]), rtol=0, atol=0)


class TestForcing:
    def test_constant_history_zero_forcing(self, tmp_path, history_file):
        out = tmp_path / "f.csv"
        code = run(
            [
                "forcing",
                "--history",
                history_file,
                "--alpha",
                "0.5",
                "--grid",
                "0:4:5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1], np.zeros(5))

    def test_matches_evaluator(self, tmp_path):
        hist = write_json(
            tmp_path / "ramp.json",
            {"kind": "ramp", "far_value": [1.0], "ramp_start": -1.0, "t0": 0.0},
        )
        out = tmp_path / "f.csv"
        assert run(
            [
                "forcing",
                "--history",
                hist,
                "--alpha",
                "0.5",
                "--grid",
                "1:3:3",
                "--out",
                str(out),
            ]
        ) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        fe = ForcingEvaluator(
            history=parse_history(json.loads((tmp_path / "ramp.json").read_text())),
            alpha=0.5,
        )
        expected = forcing_grid(fe, np.linspace(1.0, 3.0, 3))
        assert np.allclose(rows[:, 1], expected[:, 0], rtol=1e-12)


class TestHillDet:
    def test_grid_matches_library(self, tmp_path, system_file):
        out = tmp_path / "grid.csv"
        code = run(
            [
                "hill-det",
                "--system",
                system_file,
                "--N",
                "4",
                "--re",
                "0:0.2:3",
                "--im",
                "-0.1:0.1:3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im,log_abs_det,sigma_min"
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (9, 4)
        # row-major: the --re axis is the outer loop
        assert np.allclose(rows[:3, 0], 0.0)
        assert np.allclose(rows[:3, 1], [-0.1, 0.0, 0.1])
        spec = make_system(0.5, 1.0, {0: [[-1.0]], 1: [[-1.25j]]})
        res = np.linspace(0.0, 0.2, 3)
        ims = np.linspace(-0.1, 0.1, 3)
        lams = (res[:, None] + 1j * ims[None, :]).ravel()
        logdet, sigma = evaluate_grid(spec, 4, lams)
        assert np.allclose(rows[:, 2], logdet, rtol=1e-14)
        assert np.allclose(rows[:, 3], sigma, rtol=1e-14)


class TestEig:
    def test_unstable_row(self, tmp_path, system_file):
        out = tmp_path / "eigs.csv"
        assert run(
            ["eig", "--system", system_file, "--N", "8", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im,residual,classification"
        assert len(lines) == 2
        re_s, _, residual, cls = lines[1].split(",")
        assert float(re_s) > 0.0
        assert float(residual) < 1e-9
        assert cls == "valid-floquet"

    def test_stable_empty(self, tmp_path):
        sys_file = write_json(tmp_path / "s1.json", scalar_system_doc(1.0))
        out = tmp_path / "eigs.csv"
        assert run(
            ["eig", "--system", sys_file, "--N", "8", "--out", str(out)]
        ) == 0
        assert out.read_text().splitlines() == ["re,im,residual,classification"]

    def test_explicit_strip_flag(self, tmp_path, system_file):
        out = tmp_path / "eigs.csv"
        assert run(
            [
                "eig",
                "--system",
                system_file,
                "--N",
                "8",
                "--strip",
                "-0.5:0.5:-0.4:0.4",
                "--out",
                str(out),
            ]
        ) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1


class TestFloquet:
    def test_reconstruction_csv(self, tmp_path, system_file):
        out = tmp_path / "flo.csv"
        code = run(
            [
                "floquet",
                "--system",
                system_file,
                "--N",
                "8",
                "--t-end",
                "1.0",
                "--dt",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y1_re,y1_im"
        assert len(lines) == 4

    def test_no_eigenpair_is_numerical_failure(self, tmp_path, capsys):
        sys_file = write_json(tmp_path / "s1.json", scalar_system_doc(1.0))
        code = run(
            [
                "floquet",
                "--system",
                sys_file,
                "--N",
                "8",
                "--t-end",
                "1.0",
                "--dt",
                "0.5",
                "--out",
                str(tmp_path / "flo.csv"),
            ]
        )
        assert code == 1

    def test_index_out_of_range(self, tmp_path, system_file, capsys):
        code = run(
            [
                "floquet",
                "--system",
                system_file,
                "--N",
                "8",
                "--index",
                "3",
                "--t-end",
                "1.0",
                "--dt",
                "0.5",
                "--out",
                str(tmp_path / "flo.csv"),
            ]
        )
        assert code == 2


class TestVerify:
    def test_prints_error_per_pair(self, tmp_path, system_file, capsys):
        code = run(
            [
                "verify",
                "--system",
                system_file,
                "--N",
                "8",
                "--t-end",
                "2.0",
                "--dt",
                "1e-2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda_re,lambda_im,max_rel_err"
        assert len(lines) == 2
        re_s, _, err_s = lines[1].split(",")
        assert float(re_s) > 0.0
        assert float(err_s) < 0.05


class TestLti:
    def test_case_table(self, tmp_path, capsys):
        mat = write_json(tmp_path / "A.json", {"matrix": [[1.0, 0.0], [0.0, -1.0]]})
        assert run(["lti", "--alpha", "0.5", "--matrix", mat]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu_re,mu_im,case,s_re,s_im"
        table = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert table["1"][2] == "a"
        assert float(table["1"][3]) == 1.0
        assert table["-1"][2] == "c"
        assert table["-1"][3] == ""

    def test_bare_array_document(self, tmp_path, capsys):
        mat = write_json(tmp_path / "A.json", [[0.5]])
        assert run(["lti", "--alpha", "0.5", "--matrix", mat]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[2] == "a"

    def test_non_square_is_schema_error(self, tmp_path, capsys):
        mat = write_json(tmp_path / "A.json", [[1.0, 2.0]])
        assert run(["lti", "--alpha", "0.5", "--matrix", mat]) == 2
