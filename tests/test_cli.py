"""Command-line behavior: artifacts, exit codes, determinism, round trips."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepctrl import cli
from sweepctrl.cli import main
from sweepctrl.models import bundled_scenario_path
from sweepctrl.sweeping import read_trajectory_csv, trajectory_csv

PED2 = str(bundled_scenario_path("pedestrian2.scn"))
PED3 = str(bundled_scenario_path("pedestrian3.scn"))
ROBOT = str(bundled_scenario_path("robot2.scn"))


class TestSimulate:
    def test_writes_csv_and_cost(self, tmp_path, capsys):
        code = main(["simulate", PED2, "--control", "1.8,1.8", "--mesh-exp", "8", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("cost = ")
        csv_text = (tmp_path / "trajectory.csv").read_text()
        assert csv_text.splitlines()[0] == "t,x1,x2,u1,u2,eta1"
        assert len(csv_text.splitlines()) == 2**8 + 2

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["simulate", PED3, "--control", "2,2,2", "--mesh-exp", "7", "--out", str(d)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_out_of_set_control_exits_2_naming_bound(self, tmp_path, capsys):
        code = main(["simulate", PED2, "--control", "2.5,2.5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "1.8" in err  # the violated bound is named

    def test_nan_control_exits_2_naming_component(self, tmp_path, capsys):
        code = main(["simulate", PED3, "--control", "nan,nan,nan", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "u1 = nan outside [-2, 2]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.scn"), "--control", "1,1"]) == 2

    def test_bad_mesh_exp_exits_2(self, tmp_path):
        assert main(["simulate", PED2, "--control", "1,1", "--mesh-exp", "2", "--out", str(tmp_path)]) == 2

    def test_control_file(self, tmp_path):
        rows = "\n".join(["1.0 1.0"] * (2**6))
        f = tmp_path / "u.txt"
        f.write_text(rows + "\n")
        code = main(["simulate", PED2, "--control-file", str(f), "--mesh-exp", "6", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("text", ["", "\n  \n", "# no rows\n  # here either\n"], ids=["empty", "blank", "comments"])
    def test_control_file_without_rows_exits_2_naming_it(self, tmp_path, capsys, text):
        f = tmp_path / "u.txt"
        f.write_text(text)
        code = main(["simulate", PED2, "--control-file", str(f), "--mesh-exp", "6", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{f}: holds no control rows" in err and "Traceback" not in err


class TestControlWidth:
    """A control row of the wrong width is an input error (exit 2) naming both widths."""

    def _expect_width_error(self, code, capsys, got, want):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"width {got}" in err and f"width {want}" in err

    @pytest.mark.parametrize(
        "name, control, got, want",
        [("pedestrian3.scn", "1,1", 2, 3), ("pedestrian2.scn", "1", 1, 2), ("pedestrian2.scn", "1,1,1", 3, 2)],
    )
    def test_inline_control(self, tmp_path, capsys, name, control, got, want):
        scn = str(bundled_scenario_path(name))
        code = main(["simulate", scn, f"--control={control}", "--mesh-exp", "4", "--out", str(tmp_path)])
        self._expect_width_error(code, capsys, got, want)
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("rows", [["1 1"] * 16, ["1 1 1"] * 8 + ["1 1"] * 8], ids=["narrow", "ragged"])
    def test_control_file(self, tmp_path, capsys, rows):
        f = tmp_path / "u.txt"
        f.write_text("\n".join(rows) + "\n")
        code = main(["simulate", PED3, "--control-file", str(f), "--mesh-exp", "4", "--out", str(tmp_path)])
        self._expect_width_error(code, capsys, 2, 3)

    def test_trajectory_csv_without_a_control_column(self, tmp_path, capsys):
        assert main(["solve-reduced", PED3, "--mesh-exp", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        drop = lines[0].split(",").index("u3")
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(",".join(c for j, c in enumerate(ln.split(",")) if j != drop) for ln in lines))
        capsys.readouterr()
        code = main(["verify", PED3, "--certificate", str(tmp_path / "certificate.json"),
                     "--trajectory", str(cut), "--out", str(tmp_path)])
        self._expect_width_error(code, capsys, 2, 3)


def test_each_call_in_one_process_returns_its_own_exit_code(tmp_path, capsys):
    """The argument parser is built once per process; a parse leaves nothing behind for the next."""
    assert main(["simulate", PED2, "--control", "1,1", "--no-such-option"]) == 2
    assert main(["simulate", PED2, "--control", "1,1", "--mesh-exp", "4", "--out", str(tmp_path)]) == 0
    assert main(["simulate", PED2, "--mesh-exp", "4", "--out", str(tmp_path)]) == 2  # no control carried over
    assert "needs --control" in capsys.readouterr().err
    assert main(["nonsense"]) == 2
    assert main(["solve-reduced", PED2, "--mesh-exp", "4", "--out", str(tmp_path)]) == 0


class TestSolveReduced:
    def test_prints_published_headline(self, tmp_path, capsys):
        code = main(["solve-reduced", PED2, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[1.8, 1.8]" in out
        assert "0.5555" in out

    def test_round_trip_verify_passes(self, tmp_path, capsys):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        code = main(
            [
                "verify",
                PED2,
                "--certificate",
                str(tmp_path / "certificate.json"),
                "--trajectory",
                str(tmp_path / "trajectory.csv"),
                "--tol",
                "1e-6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_robot_round_trip_at_rounding_tolerance(self, tmp_path):
        assert main(["solve-reduced", ROBOT, "--out", str(tmp_path)]) == 0
        code = main(
            [
                "verify",
                ROBOT,
                "--certificate",
                str(tmp_path / "certificate.json"),
                "--trajectory",
                str(tmp_path / "trajectory.csv"),
                "--tol",
                "0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_round_trip_next_to_a_contact_time(self, tmp_path, capsys):
        # The contact time falls a hair from a mesh node at m = 9: a rounded
        # CSV turns the sliver interval into a velocity error above 1e-6.
        text = bundled_scenario_path("pedestrian2.scn").read_text()
        text = text.replace("R = 3", "R = 2.962869875173863")
        text = text.replace("x0 = -60 -48", "x0 = -60.46337872690717 -48.46337872690717")
        scn = tmp_path / "variant.scn"
        scn.write_text(text)
        assert main(["solve-reduced", str(scn), "--mesh-exp", "9", "--out", str(tmp_path)]) == 0
        code = main(
            [
                "verify",
                str(scn),
                "--certificate",
                str(tmp_path / "certificate.json"),
                "--trajectory",
                str(tmp_path / "trajectory.csv"),
                "--tol=1e-6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0, capsys.readouterr().out

    def test_solution_json_contents(self, tmp_path):
        main(["solve-reduced", PED3, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["control"] == [2.0, 2.0, 2.0]
        assert payload["verification_passed"] is True
        assert np.allclose(payload["report"]["gamma"], [-23 / 3, -13 / 15, -457 / 15])


class TestVerify:
    def test_corrupted_certificate_exits_1(self, tmp_path, capsys):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        data = json.loads(cert_file.read_text())
        data["q_values"][0][0] += 0.1
        cert_file.write_text(json.dumps(data))
        code = main(
            [
                "verify",
                PED2,
                "--certificate",
                str(cert_file),
                "--trajectory",
                str(tmp_path / "trajectory.csv"),
                "--tol",
                "1e-6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def _verify(self, tmp_path, cert_file, traj_file):
        return main(["verify", PED2, "--certificate", str(cert_file), "--trajectory", str(traj_file),
                     "--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "text",
        ["", "t,x1,x2,u1,u2,eta1\n", "a,b\n1,2\n", "t,x1\n1\n",
         "t,x1,x2,u1,u2,eta1\n0,-60,-48,1.8,1.8,0\n6,nan,3,1.8,1.8,5.4\n",
         "t,x1,x2,u1,u2,eta1\n0,-60,-48,1.8,1.8,0\n6,-3,3,1.8,1.8,nan\n",
         "t,x1,u1,u2,eta1\n0,-60,1.8,1.8,0\n6,-3,1.8,1.8,5.4\n",
         "t,x1,x2,y1,u1,u2,eta1\n0,-60,-48,0,1.8,1.8,0\n6,-3,3,0,1.8,1.8,5.4\n",
         "t,x1,x2,u1,u2,eta1\n0,-60,-48,1.8,1.8,0\n6,-3,3,1.8,1.8\n"],
        ids=["empty", "header-only", "no-t-column", "short-row", "nan-state", "nan-eta", "state-width",
             "unknown-column", "ragged-row"],
    )
    def test_malformed_trajectory_exits_2(self, tmp_path, capsys, text):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        traj_file = tmp_path / "bad.csv"
        traj_file.write_text(text)
        capsys.readouterr()
        assert self._verify(tmp_path, tmp_path / "certificate.json", traj_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [("t,x1,u1,u2,eta1\n0,-60,1.8,1.8,0\n6,-3,1.8,1.8,5.4\n",
          "trajectory state has width 1, the scenario needs 2"),
         ("t,x1,x2,y1\n0,-60,-48,0\n6,-3,3,0\n", "header column 'y1' is not t, x<i>, u<i> or eta<i>"),
         ("t,x1,x2\n0,-60,-48\n3,-30\n6,-3,3,1\n", "data row 2 has 2 cells, the header 3"),
         ("t,x1,x2\n0,-60\n6,-3\n", "data row 1 has 2 cells, the header 3"),
         ("t,x1,x2,u1,u2,eta1\n0,-60,-48,1.8,1.8,0\n5,-3,3,1.8,1.8,5.4\n",
          "trajectory horizon 5 != scenario horizon 6"),
         ("t,x2,x1\n0,-48,-60\n6,3,-3\n", "column 2 'x2' is out of place"),
         ("t,x1,x1\n0,-60,-60\n6,-3,-3\n", "column 3 'x1' is out of place"),
         ("t,x1,x3\n0,-60,-48\n6,-3,3\n", "column 3 'x3' is out of place"),
         ("x1,x2,t\n-60,-48,0\n-3,3,6\n", "column 1 'x1' is out of place"),
         ("t,x1,x2,eta1,u1,u2\n0,-60,-48,0,1.8,1.8\n6,-3,3,5.4,1.8,1.8\n", "column 5 'u1' is out of place")],
        ids=["state-width", "unknown-column", "ragged-row", "every-row-short", "other-horizon", "swapped-states",
             "repeated-state", "state-gap", "t-not-first", "control-after-eta"],
    )
    def test_malformed_trajectory_message_names_the_problem(self, tmp_path, capsys, text, message):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        traj_file = tmp_path / "bad.csv"
        traj_file.write_text(text)
        capsys.readouterr()
        code = main(["verify", PED2, "--certificate", str(tmp_path / "certificate.json"),
                     "--trajectory", str(traj_file), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_certificate_missing_field_exits_2(self, tmp_path, capsys):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        data = json.loads(cert_file.read_text())
        del data["lambda"]
        cert_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lambda" in err

    @pytest.mark.parametrize(
        "payload, field",
        [([1, 2], "JSON object"), ("certificate", "JSON object"), ({"lambda": None}, "'lambda'"),
         ({"gamma_atoms": 5}, "'gamma_atoms'"), ({"p_values": [[float("nan"), 2.4]]}, "'p_values'"),
         ({"lambda": float("inf")}, "'lambda'"),
         ({"eta_values": [[0.0, 0.0], [5.4, 0.0]]}, "'eta_values' has width 2, the scenario needs 1"),
         ({"eta_terminal": [5.4, 0.0]}, "'eta_terminal' has width 2, the scenario needs 1"),
         ({"p_values": [[-2.4, 2.4, 0.0]], "gamma_atoms": [[6.0, [0.0, 0.0, 0.0]]]},
          "'p_values' has width 3, the scenario needs 2"),
         ({"q_values": [[0.225, 0.9, 0.0], [-1.2, 4.8, 0.0]]}, "'q_values' has width 3, the scenario needs 2"),
         ({"gamma_atoms": [[6.0, [0.0, 0.0, 0.0]]]}, "gamma atom at t=6 has shape (3,), p has width 2"),
         ({"eta_times": [0.0, 5.0], "eta_values": [[5.4]], "p_times": [0.0, 5.0], "q_times": [0.0, 5.0],
           "q_values": [[-1.2, 4.8]], "gamma_atoms": [[5.0, [-1.2, -2.4]]]},
          "certificate horizon 5 != scenario horizon 6")],
        ids=["top-level-list", "top-level-string", "null-lambda", "number-gamma-atoms", "nan-p-values",
             "infinite-lambda", "eta-width", "eta-terminal-width", "p-width", "q-width", "atom-width",
             "other-horizon"],
    )
    def test_malformed_certificate_exits_2_naming_the_field(self, tmp_path, capsys, payload, field):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        if isinstance(payload, dict):
            payload = {**json.loads(cert_file.read_text()), **payload}
        cert_file.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["verify", PED2, "--certificate", str(tmp_path / "certificate.json"),
                     "--trajectory", str(tmp_path / "trajectory.csv"), f"--tol={tol}", "--out", str(tmp_path)])
        assert code == 2
        assert "--tol" in capsys.readouterr().err

    def test_control_with_control_columns_exits_2(self, tmp_path, capsys, reduced_artifacts):
        red, _ = reduced_artifacts
        out = tmp_path / "out"
        code = main(["verify", PED2, "--certificate", str(red / "certificate.json"),
                     "--trajectory", str(red / "trajectory.csv"), "--control", "9,9", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--control" in err and "control columns" in err and "Traceback" not in err
        assert not out.exists()

    def test_report_file_written(self, tmp_path):
        main(["solve-reduced", PED2, "--out", str(tmp_path)])
        main(
            [
                "verify",
                PED2,
                "--certificate",
                str(tmp_path / "certificate.json"),
                "--trajectory",
                str(tmp_path / "trajectory.csv"),
                "--out",
                str(tmp_path),
            ]
        )
        text = (tmp_path / "report.txt").read_text()
        assert "1-primal" in text and "overall" in text


@pytest.mark.parametrize("command", ["simulate", "solve-reduced", "solve-discrete", "convergence"])
def test_tol_is_a_verify_option_only(tmp_path, capsys, command):
    control = ["--control=1.8,1.8"] if command == "simulate" else []
    assert main([command, PED2, *control, "--tol=0.5", "--out", str(tmp_path)]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "solution.txt").exists()


def test_scipy_optimize_is_loaded_only_by_a_projection(tmp_path):
    assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
    import sweepctrl

    script = f"""
import sys
loaded = lambda: "scipy.optimize" in sys.modules
import sweepctrl
after_package = loaded()
import sweepctrl.cli
after_cli = loaded()
code = sweepctrl.cli.main(["verify", {PED2!r}, "--certificate", {str(tmp_path / "certificate.json")!r},
                           "--trajectory", {str(tmp_path / "trajectory.csv")!r}, "--out", {str(tmp_path)!r}])
print(after_package, after_cli, code, loaded())
"""
    src = str(Path(sweepctrl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split()[-4:] == ["False", "False", "0", "False"]


def test_two_agent_simulate_and_solve_discrete_leave_scipy_unloaded(tmp_path):
    import sweepctrl

    script = f"""
import sys
import sweepctrl.cli
codes = [
    sweepctrl.cli.main(["simulate", {ROBOT!r}, "--control=-3.37,-1.685", "--mesh-exp", "8", "--out", {str(tmp_path)!r}]),
    sweepctrl.cli.main(["solve-discrete", {PED2!r}, "--mesh-exp", "6", "--budget", "40", "--out", {str(tmp_path)!r}]),
]
print(*codes, "scipy.optimize" in sys.modules)
"""
    src = str(Path(sweepctrl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split()[-3:] == ["0", "0", "False"]
    assert "eta1" in (tmp_path / "trajectory.csv").read_text().splitlines()[0]


class TestSolveDiscrete:
    def test_finds_reduced_optimum(self, tmp_path, capsys):
        code = main(
            ["solve-discrete", PED2, "--mesh-exp", "8", "--budget", "300", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost J_m" in out
        assert (tmp_path / "trajectory.csv").exists()
        payload = (tmp_path / "solution.txt").read_text()
        assert "localization penalty" in payload

    def test_reports_simulations_under_evaluations(self, tmp_path):
        assert main(["solve-discrete", ROBOT, "--mesh-exp", "6", "--budget", "50", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "solution.txt").read_text().splitlines()
        i = next(k for k, ln in enumerate(lines) if ln.startswith("evaluations   = "))
        assert lines[i] == "evaluations   = 50"
        label, sims = lines[i + 1].split(" = ")
        assert label == "simulations  " and 0 < int(sims) < 50


class TestConvergence:
    def test_table_and_csv(self, tmp_path, capsys):
        code = main(["convergence", PED2, "--m-range", "6:10:2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 4  # header + three meshes
        csv_lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv_lines[0] == "m,J_m,endpoint_error"
        assert len(csv_lines) == 4

    @pytest.mark.parametrize("control", [[], ["--control=1,1"]], ids=["reduced", "explicit"])
    def test_empty_m_range_exits_2(self, tmp_path, capsys, control):
        code = main(["convergence", PED2, "--m-range=14:6", *control, "--out", str(tmp_path)])
        assert code == 2
        assert "--m-range" in capsys.readouterr().err

    def test_explicit_control(self, tmp_path):
        code = main(
            ["convergence", PED3, "--control", "2,2,2", "--m-range", "6,8", "--out", str(tmp_path)]
        )
        assert code == 0


class TestNegativeControl:
    """robot2's optimal control is negative; `--control -a,-b` must work like `--control=-a,-b`."""

    R_OPT = -25.0 * 2.0**0.5 / 21.0  # segment parameter, u = (2r, r)

    @pytest.mark.parametrize("command", ["simulate", "verify", "convergence"])
    def test_both_spellings_accepted(self, tmp_path, capsys, command):
        u = f"{2.0 * self.R_OPT!r},{self.R_OPT!r}"
        extra = {"simulate": ["--mesh-exp", "6"], "convergence": ["--m-range", "6,8"]}.get(command, [])
        if command == "verify":
            # A trajectory without control columns, so that verify reads --control.
            assert main(["solve-reduced", ROBOT, "--mesh-exp", "6", "--out", str(tmp_path)]) == 0
            data = read_trajectory_csv((tmp_path / "trajectory.csv").read_text())
            (tmp_path / "states.csv").write_text(trajectory_csv(data["times"], data["states"]))
            extra = ["--certificate", str(tmp_path / "certificate.json"),
                     "--trajectory", str(tmp_path / "states.csv"), "--tol", "0.05"]
        outputs = []
        for spelling in (["--control", u], [f"--control={u}"]):
            capsys.readouterr()
            assert main([command, ROBOT, *spelling, *extra, "--out", str(tmp_path / "out")]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


# Any JSON value: nested lists and objects of null, booleans, integers, floats (NaN,
# infinities, subnormals and huge values included) and short strings.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def reduced_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("reduced")
    assert main(["solve-reduced", PED2, "--mesh-exp", "5", "--out", str(out)]) == 0
    return out, json.loads((out / "certificate.json").read_text())


class TestCertificateFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_mutated_certificate_exits_with_a_documented_code(self, reduced_artifacts, data):
        out, base = reduced_artifacts
        cert = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(base)))
            how = data.draw(st.sampled_from(["replace", "drop", "element"]))
            target = cert.get(key)
            if how == "drop":
                cert.pop(key, None)
            elif how == "element" and isinstance(target, list) and target:
                i = data.draw(st.integers(0, len(target) - 1))
                if isinstance(target[i], list) and target[i]:
                    target = target[i]
                    i = data.draw(st.integers(0, len(target) - 1))
                target[i] = data.draw(JSON_VALUES)
            else:
                cert[key] = data.draw(JSON_VALUES)
        if data.draw(st.integers(0, 19)) == 0:
            cert = data.draw(JSON_VALUES)
        cert_file = out / "fuzz.json"
        cert_file.write_text(json.dumps(cert))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", PED2, "--certificate", str(cert_file), "--trajectory",
                         str(out / "trajectory.csv"), "--out", str(out / "verify")])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestOptionsPerSubcommand:
    """Each subcommand accepts only the options its handler reads: another one exits 2 naming it."""

    @pytest.mark.parametrize(
        "command, option, extra, artifact",
        [("convergence", "--control-file", ["--m-range=6"], "convergence.csv"),
         ("convergence", "--mesh-exp", ["--m-range=6"], "convergence.csv"),
         ("verify", "--control-file", [], "report.txt"),
         ("verify", "--mesh-exp", [], "report.txt"),
         ("simulate", "--control-file", ["--control=1,1", "--mesh-exp=4"], "trajectory.csv")],
        ids=["convergence-control-file", "convergence-mesh-exp", "verify-control-file", "verify-mesh-exp",
             "simulate-control-and-control-file"],
    )
    def test_unread_option_exits_2(self, tmp_path, capsys, reduced_artifacts, command, option, extra, artifact):
        rows = tmp_path / "u.txt"
        rows.write_text("1 1\n" * 16)
        value = str(rows) if option == "--control-file" else "8"
        if command == "verify":
            red, _ = reduced_artifacts
            extra = ["--certificate", str(red / "certificate.json"), "--trajectory", str(red / "trajectory.csv")]
        out = tmp_path / "out"
        code = main([command, PED2, *extra, option, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err
        assert not (out / artifact).exists()

    def test_m_range_with_extra_fields_exits_2(self, tmp_path, capsys):
        code = main(["convergence", PED2, "--m-range", "6:10:2:99", "--out", str(tmp_path)])
        assert code == 2
        assert "--m-range" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()


class TestPathErrors:
    """A directory where a file belongs, or --out naming a file, is an input error: exit 2, no traceback."""

    def _expect_path_error(self, code, capsys):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("where", ["scenario", "--certificate", "--trajectory", "--control-file"])
    def test_directory_exits_2(self, tmp_path, capsys, reduced_artifacts, where):
        red, _ = reduced_artifacts
        cert, traj, folder = str(red / "certificate.json"), str(red / "trajectory.csv"), str(tmp_path)
        argv = {
            "scenario": ["simulate", folder, "--control=1,1", "--mesh-exp=4"],
            "--control-file": ["simulate", PED2, "--control-file", folder, "--mesh-exp=4"],
            "--certificate": ["verify", PED2, "--certificate", folder, "--trajectory", traj],
            "--trajectory": ["verify", PED2, "--certificate", cert, "--trajectory", folder],
        }[where]
        self._expect_path_error(main([*argv, "--out", str(tmp_path / "out")]), capsys)

    @pytest.mark.parametrize("command", ["simulate", "solve-reduced", "solve-discrete", "verify", "convergence"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, reduced_artifacts, command):
        red, _ = reduced_artifacts
        extra = {
            "simulate": ["--control=1,1", "--mesh-exp=4"],
            "solve-reduced": ["--mesh-exp=4"],
            "solve-discrete": ["--mesh-exp=4", "--budget=10"],
            "verify": ["--certificate", str(red / "certificate.json"), "--trajectory", str(red / "trajectory.csv")],
            "convergence": ["--m-range=6"],
        }[command]
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        self._expect_path_error(main([command, PED2, *extra, "--out", str(taken)]), capsys)
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["simulate", "solve-reduced", "solve-discrete", "verify", "convergence"])
    def test_out_is_checked_before_any_work(self, tmp_path, capsys, monkeypatch, reduced_artifacts, command, below):
        red, _ = reduced_artifacts
        calls = []
        for name in ("simulate", "solve_discrete", "solve_reduced", "verify_certificate"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        extra = {
            "simulate": ["--control=1,1", "--mesh-exp=4"],
            "solve-reduced": ["--mesh-exp=4"],
            "solve-discrete": ["--mesh-exp=4", "--budget=10"],
            "verify": ["--certificate", str(red / "certificate.json"), "--trajectory", str(red / "trajectory.csv")],
            "convergence": ["--m-range=6", "--control=1,1"],
        }[command]
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / "sub" / "dir" if below else taken
        self._expect_path_error(main([command, PED2, *extra, "--out", str(out)]), capsys)
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["taken"] and taken.read_text() == "keep\n"

    def test_directory_scenario_exit_code_of_the_process(self, tmp_path):
        import sweepctrl

        src = str(Path(sweepctrl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "sweepctrl.cli", "simulate", str(tmp_path), "--control", "1,1"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
