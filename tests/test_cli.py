"""Command-line behavior: artifacts, exit codes, determinism, round trips."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepctrl import cli, models
from sweepctrl.cli import main
from sweepctrl.models import bundled_scenario_path
from sweepctrl.polyhedra import ProjectionError
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

    @pytest.mark.parametrize("count", [1, 7, 9])
    def test_control_file_with_the_wrong_row_count_exits_2_naming_it(self, tmp_path, capsys, count):
        f = tmp_path / "u.txt"
        f.write_text("1 1\n" * count)
        code = main(["simulate", PED2, "--control-file", str(f), "--mesh-exp", "3", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {f}: control row count {count}, the mesh at m = 3 has 8 intervals\n"
        assert not (tmp_path / "out").exists()


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
         "t,x1,x2,u1,u2,eta1\n0,-60,-48,1.8,1.8,0\n6,-3,3,1.8,1.8\n",
         "t,x1,x2,u1,u2,eta1\n1,-60,-48,1.8,1.8,0\n1.4629629629629630,-53.6,-46.4,1.8,1.8,5.4\n"
         "6,-3,3,1.8,1.8,5.4\n"],
        ids=["empty", "header-only", "no-t-column", "short-row", "nan-state", "nan-eta", "state-width",
             "unknown-column", "ragged-row", "late-start"],
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
         ("t,x1,x2,eta1,u1,u2\n0,-60,-48,0,1.8,1.8\n6,-3,3,5.4,1.8,1.8\n", "column 5 'u1' is out of place"),
         ("t,x1,x2,u1,u2,eta1\n1,-60,-48,1.8,1.8,0\n6,-3,3,1.8,1.8,5.4\n", "trajectory starts at t = 1, not at 0"),
         ("t,x1,x2,u1,u2,eta1\n0,-60,-48,1.8,1.8,0\n6,abc,3,1.8,1.8,5.4\n",
          "column 'x1', data row 2: 'abc' is not a finite number")],
        ids=["state-width", "unknown-column", "ragged-row", "every-row-short", "other-horizon", "swapped-states",
             "repeated-state", "state-gap", "t-not-first", "control-after-eta", "late-start", "text-cell"],
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
          "certificate horizon 5 != scenario horizon 6"),
         ({"p_times": [1.0, 6.0]}, "'p_times' starts at t = 1, not at 0"),
         ({"eta_times": [0.25, 0.5555555555555556, 6.0]}, "'eta_times' starts at t = 0.25, not at 0"),
         ({"q_times": [0.0, 0.5555555555555556, 5.0]}, "'q_times' ends at t = 5: certificate horizon 5"),
         ({"eta_times": [0.0, 0.5555555555555556, 9.0]}, "'eta_times' ends at t = 9: certificate horizon 9")],
        ids=["top-level-list", "top-level-string", "null-lambda", "number-gamma-atoms", "nan-p-values",
             "infinite-lambda", "eta-width", "eta-terminal-width", "p-width", "q-width", "atom-width",
             "other-horizon", "late-p-start", "late-eta-start", "early-q-end", "late-eta-end"],
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

    @pytest.mark.parametrize(
        "payload, message",
        [({"lambda": True}, "'lambda': true is not a number"),
         ({"lambda": "1"}, "'lambda': \"1\" is not a number"),
         ({"eta_terminal": [True]}, "'eta_terminal': true is not a number"),
         ({"eta_terminal": ["5.4"]}, "'eta_terminal': \"5.4\" is not a number"),
         ({"eta_times": ["0", "0.5555555555555556", "6"]}, "'eta_times': \"0\" is not a number"),
         ({"eta_values": [[0.0], [False]]}, "'eta_values': false is not a number"),
         ({"p_values": [[-2.4, "2.4"]]}, "'p_values': \"2.4\" is not a number"),
         ({"q_times": [0.0, True, 6.0]}, "'q_times': true is not a number"),
         ({"q_values": [[0.225, None], [-1.2, 4.8]]}, "'q_values': null is not a number"),
         ({"gamma_atoms": [["0.5555555555555556", [-1.425, 3.9]], [6.0, [-1.2, -2.4]]]},
          "'gamma_atoms': \"0.5555555555555556\" is not a number"),
         ({"gamma_atoms": [[0.5555555555555556, [-1.425, True]], [6.0, [-1.2, -2.4]]]},
          "'gamma_atoms': true is not a number")],
        ids=["bool-lambda", "string-lambda", "bool-eta-terminal", "string-eta-terminal", "string-eta-times",
             "bool-eta-values", "string-p-values", "bool-q-times", "null-q-values", "string-atom-time",
             "bool-atom-value"],
    )
    def test_certificate_value_that_is_not_a_json_number_exits_2(self, tmp_path, capsys, payload, message):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        cert_file.write_text(json.dumps({**json.loads(cert_file.read_text()), **payload}))
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, place",
        [("lambda", lambda data, big: big),
         ("eta_values", lambda data, big: [[0.0], [big]]),
         ("gamma_atoms", lambda data, big: [[big, data["gamma_atoms"][0][1]], data["gamma_atoms"][1]])],
        ids=["lambda", "eta-value", "atom-time"],
    )
    def test_certificate_int_beyond_float_range_exits_2_naming_the_field(self, tmp_path, capsys, field, place):
        # A JSON integer of 401 digits is a number, but no float holds it.
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        data = json.loads(cert_file.read_text())
        data[field] = place(data, 10**400)
        cert_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: certificate field '{field}': not all finite numbers") and "Traceback" not in err

    def test_certificate_non_number_is_named_before_a_non_finite_number(self, tmp_path, capsys):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        cert_file.write_text(json.dumps({**json.loads(cert_file.read_text()), "eta_values": [[10**400], [True]]}))
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        assert capsys.readouterr().err.startswith("error: certificate field 'eta_values': true is not a number")

    @pytest.mark.parametrize("step", ["eta", "p", "q"])
    def test_certificate_step_fields_of_mismatched_length_exit_2_naming_both(self, tmp_path, capsys, step):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        data = json.loads(cert_file.read_text())
        data[f"{step}_times"] = data[f"{step}_times"][:-1]  # one breakpoint short
        cert_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: certificate fields '{step}_times', '{step}_values': need one more "
                              "breakpoint than segment values") and "Traceback" not in err

    @pytest.mark.parametrize("nested", ["top-level", "lambda"])
    def test_deeply_nested_certificate_exits_2_naming_the_file(self, tmp_path, capsys, nested):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        deep = "[" * 200_000
        if nested == "lambda":
            deep = cert_file.read_text().replace('"lambda": 1.0', '"lambda": ' + deep, 1)
            assert deep != cert_file.read_text()
        cert_file.write_text(deep)
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cert_file) in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ['{"lambda": 1,}', '{"lambda": 1.0,', "", "certificate"])
    def test_certificate_that_is_not_json_exits_2_naming_the_file(self, tmp_path, capsys, text):
        assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
        cert_file = tmp_path / "certificate.json"
        cert_file.write_text(text)
        capsys.readouterr()
        assert self._verify(tmp_path, cert_file, tmp_path / "trajectory.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: certificate {cert_file}: not valid JSON: ") and "Traceback" not in err

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


def test_orjson_is_loaded_only_by_a_csv_write(tmp_path):
    assert main(["solve-reduced", PED2, "--out", str(tmp_path)]) == 0
    import sweepctrl

    script = f"""
import contextlib, io, sys
loaded = lambda: "orjson" in sys.modules
import sweepctrl
after_package = loaded()
import sweepctrl.cli
after_cli = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    help_code = sweepctrl.cli.main(["--help"])
after_help = loaded()
verify_code = sweepctrl.cli.main(["verify", {PED2!r}, "--certificate", {str(tmp_path / "certificate.json")!r},
                                  "--trajectory", {str(tmp_path / "trajectory.csv")!r}, "--out", {str(tmp_path)!r}])
after_verify = loaded()
simulate_code = sweepctrl.cli.main(["simulate", {PED2!r}, "--control", "1.8,1.8", "--mesh-exp", "6",
                                    "--out", {str(tmp_path / "sim")!r}])
print(after_package, after_cli, help_code, after_help, verify_code, after_verify, simulate_code, loaded())
"""
    src = str(Path(sweepctrl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split()[-8:] == ["False", "False", "0", "False", "0", "False", "0", "True"]


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


ROBOT3_CHAIN = """model = robot
n = 3
R = 1.5
T = 6
x0 = -30 -30 -25 -25 -20 -20
speeds = 1 1 1
angles_deg = 225 225 225
control.kind = box
control.lo = -3 -3 -3
control.hi = 1 1 1
"""


def test_multi_row_simulate_and_solve_discrete_leave_scipy_optimize_unloaded(tmp_path):
    # Three or more agents project onto two or more rows, through scipy's NNLS kernel, whose
    # extension file is loaded alone: no CLI run imports `scipy.optimize`.
    import sweepctrl

    chain = tmp_path / "robot3.scn"
    chain.write_text(ROBOT3_CHAIN)
    out = {name: str(tmp_path / name) for name in ("chain", "sim", "search")}
    script = f"""
import sys
import sweepctrl.cli
from sweepctrl import polyhedra
codes = [sweepctrl.cli.main(["simulate", {str(chain)!r}, "--control=-3,-1,1", "--mesh-exp", "8", "--out", {out["chain"]!r}])]
nnls_built = polyhedra._nnls.cache_info().currsize  # 1 once a projection has taken the NNLS branch
codes += [
    sweepctrl.cli.main(["simulate", {PED3!r}, "--control=2,2,0.5", "--mesh-exp", "8", "--out", {out["sim"]!r}]),
    sweepctrl.cli.main(["solve-discrete", {PED3!r}, "--mesh-exp", "6", "--budget", "20", "--out", {out["search"]!r}]),
]
print(*codes, nnls_built, "scipy.optimize" in sys.modules)
"""
    src = str(Path(sweepctrl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split()[-5:] == ["0", "0", "0", "1", "False"]
    for name in out:
        assert (tmp_path / name / "trajectory.csv").is_file()


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads the process's mapped files")
def test_pedestrian_simulate_and_solve_discrete_never_load_the_nnls_kernel(tmp_path):
    # Every pedestrian step pools adjacent violators on Python floats: a fresh process that simulates
    # and searches three pedestrians maps no `scipy/optimize/_slsqplib*` file.  A robot chain of three
    # then maps it, which shows that the probe sees the kernel.
    import sweepctrl

    chain = tmp_path / "robot3.scn"
    chain.write_text(ROBOT3_CHAIN)
    out = {name: str(tmp_path / name) for name in ("sim", "search", "chain")}
    script = f"""
import sys
import sweepctrl.cli
from sweepctrl import polyhedra
def kernel_mapped():
    with open("/proc/self/maps") as maps:
        return "_slsqplib" in maps.read()
codes = [
    sweepctrl.cli.main(["simulate", {PED3!r}, "--control=2,2,0.5", "--mesh-exp", "8", "--out", {out["sim"]!r}]),
    sweepctrl.cli.main(["solve-discrete", {PED3!r}, "--mesh-exp", "6", "--budget", "20", "--out", {out["search"]!r}]),
]
pedestrians = kernel_mapped(), polyhedra._nnls.cache_info().currsize
codes.append(sweepctrl.cli.main(["simulate", {str(chain)!r}, "--control=-3,-1,1", "--mesh-exp", "8", "--out", {out["chain"]!r}]))
print(*codes, *pedestrians, kernel_mapped())
"""
    src = str(Path(sweepctrl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split()[-6:] == ["0", "0", "0", "False", "0", "True"]


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


# Values a scenario key may be mutated to: non-finite, extreme, empty, words and lists of a wrong length.
SCENARIO_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "", "fast", "0", "-1", "1 2", "1 2 3 4")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario-fuzz")


class TestScenarioFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_mutated_pedestrian_file_exits_with_a_documented_code(self, fuzz_dir, data):
        # A bundled pedestrian file with 1-3 numeric values mutated, the whole value or one of its
        # entries, through `simulate` and `solve-discrete` on a coarse mesh.
        path, control = data.draw(st.sampled_from([(PED2, "1.8,1.8"), (PED3, "2,2,0.5")]))
        entries = [line.split("=", 1) for line in Path(path).read_text().splitlines() if "=" in line]
        keys = [key.strip() for key, _ in entries]
        values = [value.split() for _, value in entries]
        numeric = [i for i, key in enumerate(keys) if key not in ("model", "control.kind")]
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.sampled_from(numeric))
            value = data.draw(st.sampled_from(SCENARIO_VALUES))
            if len(values[i]) > 1 and data.draw(st.booleans()):
                values[i][data.draw(st.integers(0, len(values[i]) - 1))] = value
            else:
                values[i] = [value]
        scenario = fuzz_dir / "fuzz.scn"
        scenario.write_text("".join(f"{key} = {' '.join(value)}\n" for key, value in zip(keys, values)))
        m = str(data.draw(st.integers(3, 5)))  # the CLI takes m >= 3
        for argv in (["simulate", str(scenario), "--control", control, "--mesh-exp", m],
                     ["solve-discrete", str(scenario), "--mesh-exp", m, "--budget", "20"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(fuzz_dir / "out")])
            assert code in (0, 1, 2, 3), (argv, scenario.read_text())
            assert "Traceback" not in err.getvalue()


    def test_mutated_robot_file_exits_with_a_documented_code(self, fuzz_dir):
        # robot2 as bundled, with a heading switch at the first contact or at a time, and a chain of
        # three robots, with 1-3 values mutated: half of them to a value of SCENARIO_VALUES, half
        # to a milder one (one entry times a factor, or another switch), so that about a quarter of
        # the draws parse and run, building the chain set and, for the chain, K(x) at each step.
        robot2 = Path(ROBOT).read_text()
        templates = [(robot2, "-3.37,-1.685"),
                     (robot2 + "angles_deg_post = 45 45\nswitch_at = contact\n", "-3.37,-1.685"),
                     (robot2 + "angles_deg_post = 90 180\nswitch_at = 2.5\n", "-3.37,-1.685"),
                     (ROBOT3_CHAIN, "-3,-1,0.5")]
        rng = np.random.default_rng(39)
        runs = {"draws": 0, "exit 0": 0, "chain exit 0": 0}
        with mock.patch.object(models, "_chain_set", wraps=models._chain_set) as chain_set, \
                mock.patch.object(models, "_noncollision_system", wraps=models._noncollision_system) as k_of_x:
            for _ in range(400):
                k = int(rng.integers(len(templates)))
                text, control = templates[k]
                entries = [line.split("=", 1) for line in text.splitlines() if "=" in line and not line.startswith("#")]
                keys = [key.strip() for key, _ in entries]
                values = [value.split() for _, value in entries]
                numeric = [i for i, key in enumerate(keys) if key not in ("model", "control.kind")]
                for _ in range(int(rng.integers(1, 4))):
                    i = int(rng.choice(numeric))
                    j = int(rng.integers(len(values[i])))
                    if rng.random() < 0.5:
                        if len(values[i]) == 1 or rng.random() < 0.5:
                            values[i] = [str(rng.choice(SCENARIO_VALUES))]
                        else:
                            values[i][j] = str(rng.choice(SCENARIO_VALUES))
                    elif keys[i] == "switch_at":
                        values[i] = [str(rng.choice(["contact", "0", "1.5", "6"]))]
                    elif keys[i] not in ("n", "control.bound_on"):
                        with contextlib.suppress(ValueError):  # an entry an earlier mutation made a word
                            values[i][j] = repr(float(values[i][j]) * float(rng.choice([0.5, 0.9, 1.1, 2.0])))
                scenario = fuzz_dir / "fuzz-robot.scn"
                scenario.write_text("".join(f"{key} = {' '.join(value)}\n" for key, value in zip(keys, values)))
                m = str(int(rng.integers(3, 6)))
                codes = []
                for argv in (["simulate", str(scenario), "--control", control, "--mesh-exp", m],
                             ["solve-discrete", str(scenario), "--mesh-exp", m, "--budget", "20"]):
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        codes.append(main([*argv, "--out", str(fuzz_dir / "out-robot")]))
                    assert codes[-1] in (0, 1, 2, 3), (argv, scenario.read_text())
                    assert "Traceback" not in err.getvalue()
                runs["draws"] += 1
                runs["exit 0"] += codes == [0, 0]
                runs["chain exit 0"] += codes == [0, 0] and k == 3
        assert runs["exit 0"] >= 0.2 * runs["draws"] and runs["chain exit 0"] >= 0.04 * runs["draws"], runs
        assert chain_set.call_count >= 2 * runs["exit 0"] and k_of_x.call_count >= 8 * runs["chain exit 0"]


# Cells a trajectory CSV or control file may be mutated to: non-finite, extreme, empty, words, several values.
CELL_VALUES = ("nan", "inf", "-inf", "1e400", "-1e308", "5e-324", "", " ", "x", "0", "-1", "0.5", "3", "1 2", "1,2", "#")


def mutated_rows(data, text: str) -> str:
    """`text` with 1-3 mutations: a cell replaced, a row dropped, duplicated or cut short, or the
    file truncated at any character."""
    lines, cut = text.splitlines(), None
    for _ in range(data.draw(st.integers(1, 3))):
        how = data.draw(st.sampled_from(["cell", "drop", "duplicate", "cut short", "truncate"]))
        i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        if how == "truncate" or not lines:
            cut = data.draw(st.integers(0, len(text)))
            continue
        cells = lines[i].split(",")
        if how == "cell":
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(CELL_VALUES))
            lines[i] = ",".join(cells)
        elif how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = ",".join(cells[: data.draw(st.integers(0, len(cells) - 1))])
    text = "".join(line + "\n" for line in lines)
    return text if cut is None else text[:cut]


@pytest.fixture(scope="module")
def robot_reduced_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("reduced-robot")
    assert main(["solve-reduced", ROBOT, "--mesh-exp", "5", "--out", str(out)]) == 0
    return out


class TestTrajectoryAndControlFileFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_mutated_trajectory_csv_exits_with_a_documented_code(self, reduced_artifacts, robot_reduced_artifacts, data):
        # A `solve-reduced` CSV with 1-3 mutations, verified against its own certificate.
        scenario, out = data.draw(st.sampled_from([(PED2, reduced_artifacts[0]), (ROBOT, robot_reduced_artifacts)]))
        csv = out / "fuzz.csv"
        csv.write_text(mutated_rows(data, (out / "trajectory.csv").read_text()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", scenario, "--certificate", str(out / "certificate.json"), "--trajectory",
                         str(csv), "--out", str(out / "verify")])
        assert code in (0, 1, 2, 3), csv.read_text()
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_mutated_control_file_exits_with_a_documented_code(self, fuzz_dir, data):
        # 2^m rows of a control in U with 1-3 mutations, simulated at m = 3-5.
        scenario, row = data.draw(st.sampled_from([(PED2, "1.8,1.8"), (PED3, "2,-1,0.5"), (ROBOT, "-3.37,-1.685")]))
        m = data.draw(st.integers(3, 5))
        controls = fuzz_dir / "controls.txt"
        controls.write_text(mutated_rows(data, f"{row}\n" * 2**m))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", scenario, "--control-file", str(controls), "--mesh-exp", str(m),
                         "--out", str(fuzz_dir / "out")])
        assert code in (0, 1, 2, 3), controls.read_text()
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


class TestRejectedValues:
    """A malformed option value or control file exits 2 naming the option or the file line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", PED2, "--control=1,1", "--mesh-exp", "abc"], "--mesh-exp: expected an integer, got 'abc'"),
            (["convergence", PED2, "--m-range", "6:x"], "--m-range: expected 'lo:hi[:step]' or a list, got '6:x'"),
            (["convergence", PED2, "--m-range", "6,eight"], "--m-range: expected 'lo:hi[:step]' or a list"),
            (["simulate", PED2, "--control", "abc"], "--control: expected numbers, got 'abc'"),
            (["convergence", PED2, "--control", ","], "--control: expected numbers, got ','"),
        ],
        ids=["mesh-exp", "m-range-field", "m-range-list", "control-word", "control-empty"],
    )
    def test_option_value(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_tol_value(self, tmp_path, capsys, reduced_artifacts):
        red, _ = reduced_artifacts
        code = main(["verify", PED2, "--certificate", str(red / "certificate.json"),
                     "--trajectory", str(red / "trajectory.csv"), "--tol", "abc", "--out", str(tmp_path)])
        assert code == 2
        assert "--tol: expected a number, got 'abc'" in capsys.readouterr().err

    def test_control_file_line(self, tmp_path, capsys):
        f = tmp_path / "u.txt"
        f.write_text("# rows\n1 1\n1 abc\n")
        code = main(["simulate", PED2, "--control-file", str(f), "--mesh-exp", "4", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {f}: line 3: expected numbers\n"
        assert not (tmp_path / "out").exists()

    def test_verify_without_any_control(self, tmp_path, capsys, reduced_artifacts):
        red, _ = reduced_artifacts
        data = read_trajectory_csv((red / "trajectory.csv").read_text())
        states = tmp_path / "states.csv"
        states.write_text(trajectory_csv(data["times"], data["states"]))
        code = main(["verify", PED2, "--certificate", str(red / "certificate.json"),
                     "--trajectory", str(states), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: verify needs control columns in the CSV or --control\n"
        assert not (tmp_path / "out").exists()


def test_solve_discrete_outside_every_template_runs_without_a_reference(tmp_path, capsys):
    scn = tmp_path / "four.scn"
    scn.write_text("model = pedestrian\nn = 4\nR = 1\nT = 2\nx0 = -12 -8 -4 0\nspeeds = 2 1 1 1\n"
                   "control.kind = box\ncontrol.lo = -1 -1 -1 -1\ncontrol.hi = 1 1 1 1\n")
    code = main(["solve-discrete", str(scn), "--mesh-exp", "4", "--budget", "30", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("discrete solution\n") and "localization" not in out and "reduced optimum" not in out
    assert (tmp_path / "out" / "solution.txt").read_text() == out
    assert read_trajectory_csv((tmp_path / "out" / "trajectory.csv").read_text())["etas"].shape == (17, 3)


@pytest.mark.parametrize(
    "error", [ProjectionError("the polyhedron is empty"), np.linalg.LinAlgError("Singular matrix")],
    ids=["projection-error", "lin-alg-error"],
)
@pytest.mark.parametrize(
    "argv, callee",
    [(["simulate", PED2, "--control=1,1", "--mesh-exp=4"], "simulate"),
     (["solve-reduced", PED2, "--mesh-exp=4"], "solve_reduced")],
)
def test_numerical_failure_inside_a_command_exits_3(tmp_path, capsys, monkeypatch, error, argv, callee):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, callee, fail)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {error}\n"
    assert not (tmp_path / "out").exists()
