"""Where a control is checked against U, and when the reduced report is computed.

`ControlSignal.from_parameters` checks a control once, when it builds it from
parameter rows; `simulate` and `recover_eta` check every other signal.
`ReducedSolution.verification` is computed when it is first read.
"""

import numpy as np
import pytest

import sweepctrl.optimizer as optimizer
from sweepctrl.models import ControlSet, bundled_scenario
from sweepctrl.optimality import verify_certificate
from sweepctrl.optimizer import solve_discrete, solve_reduced
from sweepctrl.sweeping import ControlSignal, Mesh, recover_eta, simulate
from sweepctrl.tolerances import CONTROL_TOL

BUNDLED = ("robot2.scn", "pedestrian2.scn", "pedestrian3.scn")
MODES = ("constant", "piecewise", "localization")


@pytest.fixture
def check_rows_calls(monkeypatch):
    """The control rows of every `ControlSet.check_rows` call."""
    calls = []
    real = ControlSet.check_rows

    def spy(self, values):
        calls.append(np.array(values))
        return real(self, values)

    monkeypatch.setattr(ControlSet, "check_rows", spy)
    return calls


def search_arguments(scn, mode: str) -> dict:
    if mode == "constant":
        return {"m": 6, "budget": 200}
    if mode == "piecewise":
        return {"m": 3, "budget": 150, "piecewise": True}
    red = solve_reduced(scn)
    return {"m": 6, "budget": 100, "reference": (red.path, red.control), "localization_radius": 0.5}


class TestSearchControls:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_no_check_rows_call_during_the_search(self, check_rows_calls, name, mode):
        scn = bundled_scenario(name)
        kwargs = search_arguments(scn, mode)
        check_rows_calls.clear()
        sol = solve_discrete(scn, **kwargs)
        assert sol.simulations > 0
        assert check_rows_calls == []

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_results_do_not_depend_on_the_mark(self, monkeypatch, check_rows_calls, name, mode):
        """The same search with every control rebuilt as a plain signal, which `simulate` checks."""
        scn = bundled_scenario(name)
        kwargs = search_arguments(scn, mode)
        marked = solve_discrete(scn, **kwargs)
        real = ControlSignal.from_parameters

        def unmarked(mesh, U, P):
            return ControlSignal(mesh, real(mesh, U, P).values.copy())

        monkeypatch.setattr(ControlSignal, "from_parameters", staticmethod(unmarked))
        check_rows_calls.clear()
        plain = solve_discrete(scn, **kwargs)
        assert len(check_rows_calls) == plain.simulations  # the mark really was ignored
        assert np.array_equal(marked.control.values, plain.control.values)
        assert np.array_equal(marked.trajectory.nodes, plain.trajectory.nodes)
        assert (marked.cost, marked.evaluations, marked.simulations, marked.converged) == (
            plain.cost, plain.evaluations, plain.simulations, plain.converged
        )
        assert marked.localization == plain.localization

    def test_user_signal_outside_the_set_still_raises(self, check_rows_calls):
        scn = bundled_scenario("pedestrian2.scn")
        values = np.tile([1.8, 1.8], (16, 1))
        values[5] = [2.5, 1.8]
        with pytest.raises(ValueError, match="interval 5 "):
            simulate(scn, ControlSignal(Mesh(scn.horizon, 4), values))
        assert len(check_rows_calls) == 1

    def test_recover_eta_checks_only_a_user_signal(self, check_rows_calls):
        scn = bundled_scenario("pedestrian3.scn")
        mesh = Mesh(scn.horizon, 6)
        built = ControlSignal.from_parameters(mesh, scn.control_set, [[2.0, 2.0, 0.5]])
        traj = simulate(scn, built)
        prof = recover_eta(scn, traj, built)
        assert check_rows_calls == []
        user = ControlSignal.constant(mesh, [2.0, 2.0, 0.5])
        assert np.array_equal(recover_eta(scn, traj, user).values, prof.values)
        assert len(check_rows_calls) == 1


class TestFromParameters:
    U = ControlSet.box([-2.0, -1.0], [2.0, 1.0])

    @pytest.mark.parametrize(
        "P, message",
        [([[2.5, 0.0]], r"row 0: p1 = 2.5 outside \[-2, 2\]"),
         ([[0.0, -1.5]], r"row 0: p2 = -1.5 outside \[-1, 1\]"),
         ([[0.0, np.nan]], "row 0: p2 = nan outside"),
         ([[np.inf, 0.0]], "row 0: p1 = inf outside"),
         ([[0.0, 0.0], [0.0, 0.0], [0.0, 3.0], [9.0, 0.0]], "row 2: p2 = 3 outside")],
        ids=["above", "below", "nan", "inf", "first-bad-row"],
    )
    def test_parameters_outside_the_box_rejected(self, P, message):
        with pytest.raises(ValueError, match=message):
            ControlSignal.from_parameters(Mesh(6.0, 4), self.U, P)

    def test_the_tolerance_band_is_inside(self):
        P = [[2.0 + 0.5 * CONTROL_TOL, -1.0 - 0.5 * CONTROL_TOL]]
        assert ControlSignal.from_parameters(Mesh(6.0, 4), self.U, P).values.shape == (16, 2)

    @pytest.mark.parametrize(
        "P", [[[0.0, 0.0, 0.0]], np.zeros((3, 2)), np.zeros((0, 2))], ids=["width", "rows", "empty"]
    )
    def test_shapes_that_do_not_fit_rejected(self, P):
        with pytest.raises(ValueError, match="do not fit 2 parameters on 16 intervals"):
            ControlSignal.from_parameters(Mesh(6.0, 4), self.U, P)

    @pytest.mark.parametrize(
        "U, P",
        [(U, [[1.5, -0.25]]),
         (U, np.repeat([[1.0, 0.0], [1.0, 0.0], [-2.0, 1.0], [0.5, 0.5]], 4, axis=0)),
         (ControlSet.segment([2.0, 1.0], (-3.37, 3.37), 1), [[-3.37 / 3.0]]),
         (ControlSet.segment([2.0, 1.0], (-3.37, 3.37), 1), [[1.0], [1.0], [-2.0], [0.3]])],
        ids=["box-constant", "box-piecewise", "segment-constant", "segment-piecewise"],
    )
    def test_values_and_starts_match_a_checked_signal(self, U, P):
        mesh = Mesh(6.0, 4)
        signal = ControlSignal.from_parameters(mesh, U, P)
        values = np.repeat(np.asarray(P) @ U.basis, mesh.intervals // len(P), axis=0)
        assert np.array_equal(signal.values, values)
        assert np.array_equal(signal.checked_starts(U), U.check_rows(values))

    def test_values_are_read_only(self):
        signal = ControlSignal.from_parameters(Mesh(6.0, 4), self.U, [[1.0, 0.5]])
        assert not signal.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            signal.values[0, 0] = 9.0

    def test_a_signal_built_in_another_set_is_checked(self, check_rows_calls):
        scn = bundled_scenario("pedestrian2.scn")
        mesh = Mesh(scn.horizon, 5)
        wide = ControlSet.box([-5.0, -5.0], [5.0, 5.0])
        with pytest.raises(ValueError, match="interval 0 "):
            simulate(scn, ControlSignal.from_parameters(mesh, wide, [[3.0, 1.0]]))
        U = scn.control_set
        equal = ControlSet(U.kind, U.basis, U.lo, U.hi)  # the same set, another object
        u = ControlSignal.from_parameters(mesh, equal, U.parameters([[1.8, 1.8]]))
        traj = simulate(scn, u)
        recover_eta(scn, traj, u)
        assert len(check_rows_calls) == 3


class TestLazyVerification:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_computed_once_on_first_read(self, monkeypatch, name):
        calls = []
        real = optimizer.verify_certificate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "verify_certificate", counting)
        sol = solve_reduced(bundled_scenario(name))
        assert calls == []
        first = sol.verification
        assert sol.verification is first
        assert len(calls) == 1
        assert first == verify_certificate(sol.scenario, sol.path, sol.control, sol.certificate)
        assert first.passed
