"""Catch-up scheme: stepping, worked-scenario closed forms, multiplier recovery, CSV."""

import math
import sys
import threading
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepctrl.models import (
    ControlSet,
    PedestrianScenario,
    RobotScenario,
    bundled_scenario,
    bundled_scenario_path,
    in_contact,
    linearized_noncollision,
    parse_scenario_text,
    pedestrian_sweeping_set,
    run_starts,
)
from sweepctrl.optimality import DualCertificate, PiecewisePath, StepFunction, check_nonatomicity, check_transversality
from sweepctrl import cli, polyhedra, sweeping
from sweepctrl.polyhedra import Polyhedron, contains, decompose_on_rows, project_raw
from sweepctrl.sweeping import (
    STEP_TOL,
    ControlSignal,
    Mesh,
    Trajectory,
    catchup_step,
    contact_switch_time,
    contact_times,
    cost,
    read_trajectory_csv,
    recover_eta,
    simulate,
    trajectory_csv,
)
from sweepctrl.tolerances import CONTACT_TOL, CONTROL_TOL, EMPTY_RTOL, MEMBERSHIP_TOL

SQRT2 = np.sqrt(2.0)

# Optimal constant controls of the worked scenarios (closed-form values).
ROBOT_R = -25.0 * SQRT2 / 21.0          # segment parameter, u = (2r, r)
PED2_U = np.array([1.8, 1.8])
PED3_U = np.array([2.0, 2.0, 2.0])


def ped2():
    return bundled_scenario("pedestrian2.scn")


def ped3():
    return bundled_scenario("pedestrian3.scn")


def robot2():
    return bundled_scenario("robot2.scn")


def ped2_closed_form(t):
    """Two-phase path for the two-pedestrian scenario at the optimal control.

    Free motion with velocities (14.4, 3.6) until the gap closes to 2R at
    t1 = 5/9, then the locked pair moves at the common velocity (9, 9).
    """
    t1 = 5.0 / 9.0
    x_t1 = np.array([-60.0, -48.0]) + t1 * np.array([14.4, 3.6])
    if t < t1:
        return np.array([-60.0, -48.0]) + t * np.array([14.4, 3.6])
    return x_t1 + (t - t1) * np.array([9.0, 9.0])


def ped3_closed_form(t):
    """Pre-contact velocities (16, 6, 6); all three lock at 28/3 after t1 = 0.6."""
    t1 = 0.6
    if t < t1:
        return np.array([-60.0, -48.0, -42.0]) + t * np.array([16.0, 6.0, 6.0])
    x_t1 = np.array([-60.0, -48.0, -42.0]) + t1 * np.array([16.0, 6.0, 6.0])
    return x_t1 + (t - t1) * np.full(3, 28.0 / 3.0)


def robot2_closed_form(t):
    """First-contact branch at the optimal control: free until the disks touch,
    then both move at the common velocity 25/6 per coordinate."""
    v1 = -3.0 * SQRT2 * ROBOT_R  # 50/7 per coordinate of agent 1
    v2 = -(SQRT2 / 2.0) * ROBOT_R  # 25/21 per coordinate of agent 2
    t1 = (10.0 * SQRT2 - 12.0) / (5.0 * SQRT2 / 2.0) / (-ROBOT_R) / 2.0  # placeholder, fixed below
    # Euclidean contact: gap per coordinate falls from 10 at rate v1 - v2
    # until it reaches 2R/sqrt(2) = 6*sqrt(2).
    t1 = (10.0 - 6.0 * SQRT2) / (v1 - v2)
    x0 = np.array([-30.0, -30.0, -20.0, -20.0])
    if t < t1:
        return x0 + t * np.array([v1, v1, v2, v2])
    x_t1 = x0 + t1 * np.array([v1, v1, v2, v2])
    vbar = 0.5 * (v1 + v2)
    return x_t1 + (t - t1) * np.full(4, vbar)


class TestCatchupStep:
    def test_interior_step_is_explicit_euler(self):
        P = Polyhedron(np.array([[1.0, -1.0]]), np.array([-6.0]))
        x = np.array([-60.0, -48.0])
        g = np.array([14.4, 3.6])
        assert np.allclose(catchup_step(P, g, x, 0.01), x + 0.01 * g)

    def test_contact_step_matches_halfspace_oracle(self):
        P = Polyhedron(np.array([[1.0, -1.0]]), np.array([-6.0]))
        x = np.array([-3.0, 3.0])
        g = np.array([14.4, 3.6])
        # y = (-2.856, 3.036) violates by 0.108; oracle projection is (-2.91, 3.09).
        got = catchup_step(P, g, x, 0.01)
        assert np.allclose(got, [-2.91, 3.09], atol=1e-12)

    def test_zero_drive_keeps_state(self):
        P = Polyhedron(np.array([[1.0, -1.0]]), np.array([-6.0]))
        x = np.array([-3.0, 3.0])
        assert np.allclose(catchup_step(P, np.zeros(2), x, 0.5), x)

    def test_takes_the_step_simulate_takes(self):
        # A free step 5e-10 outside K(x0): inside MEMBERSHIP_TOL, outside STEP_TOL.  simulate takes
        # the pedestrians' pool-adjacent-violators step bit for bit, and catchup_step, through
        # `project_raw`, projects it to the same node within rounding.
        scn = PedestrianScenario(n=2, R=1.0, T=1.0, x0=np.array([0.0, 2.0]), speeds=np.ones(2),
                                 control_set=ControlSet.box([-1.0, -1.0], [1.0, 1.0]))
        u = np.array([1e-9, 0.0])
        mesh = Mesh(1.0, 1)
        got = catchup_step(scn.sweeping_set(), scn.g(scn.x0, u), scn.x0, mesh.h)
        first = simulate(scn, ControlSignal.constant(mesh, u)).nodes[1]
        pooled, support = sweeping._chain_step(scn.x0.tolist(), (mesh.h * scn.g(scn.x0, u)).tolist(), 2.0 * scn.R)
        assert np.array(pooled).tobytes() == first.tobytes() and support == [0]
        assert np.max(np.abs(got - first)) <= 1e-12 * max(1.0, np.max(np.abs(got)))
        assert scn.pair_gaps(got)[0] >= 0.0 and scn.pair_gaps(first)[0] >= 0.0


class TestSimulate:
    def test_free_motion_when_gap_never_closes(self):
        scn = bundled_scenario("pedestrian2.scn")
        mesh = Mesh(T=6.0, m=6)
        u = ControlSignal.constant(mesh, [0.1, 0.1])  # slow approach, no contact
        traj = simulate(scn, u)
        expect = scn.x0 + 6.0 * scn.speeds * 0.1
        assert np.allclose(traj.terminal, expect, atol=1e-10)

    def test_two_pedestrians_hit_published_endpoint(self):
        traj = simulate(ped2(), ControlSignal.constant(Mesh(6.0, 12), PED2_U))
        assert np.allclose(traj.terminal, [-3.0, 3.0], atol=0.02)
        assert cost(traj) == pytest.approx(9.0, abs=0.1)

    def test_three_pedestrians_lock_at_common_velocity(self):
        traj = simulate(ped3(), ControlSignal.constant(Mesh(6.0, 12), PED3_U))
        vel = traj.velocities()
        # Late intervals: the locked triple moves together at 28/3.
        assert np.allclose(vel[-10:], 28.0 / 3.0, atol=0.05)
        assert np.allclose(traj.terminal, [0.0, 6.0, 12.0], atol=0.05)

    def test_three_pedestrians_precontact_velocities(self):
        traj = simulate(ped3(), ControlSignal.constant(Mesh(6.0, 12), PED3_U))
        vel = traj.velocities()
        assert np.allclose(vel[1:100], [16.0, 6.0, 6.0], atol=1e-9)

    def test_robot_reaches_first_contact_branch_endpoint(self):
        scn = robot2()
        mesh = Mesh(6.0, 12)
        traj = simulate(scn, ControlSignal.constant(mesh, [2.0 * ROBOT_R, ROBOT_R]))
        target = np.array([-3.0 * SQRT2, -3.0 * SQRT2, 3.0 * SQRT2, 3.0 * SQRT2])
        assert np.allclose(traj.terminal, target, atol=5 * mesh.h * 10.2)
        assert cost(traj) == pytest.approx(36.0, abs=0.5)

    def test_nodes_stay_feasible_and_ordered(self):
        for scn, u in ((ped2(), PED2_U), (ped3(), PED3_U)):
            traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 8), u))
            C = scn.sweeping_set()
            assert all(contains(C, x, 1e-7) for x in traj.nodes)
            gaps = np.diff(traj.nodes, axis=1)
            assert np.all(gaps >= 2 * scn.R - 1e-7)
        scn = robot2()
        traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 8), [2.0 * ROBOT_R, ROBOT_R]))
        assert all(contains(scn.sweeping_set(), x, 1e-7) for x in traj.nodes)

    def test_mesh_mismatch_rejected(self):
        scn = ped2()
        with pytest.raises(ValueError, match="horizon"):
            simulate(scn, ControlSignal.constant(Mesh(5.0, 6), PED2_U))

    def test_out_of_set_control_rejected(self):
        scn = ped2()
        with pytest.raises(ValueError, match="outside"):
            simulate(scn, ControlSignal.constant(Mesh(6.0, 6), [2.5, 2.5]))


class TestClosedFormAgreement:
    @pytest.mark.parametrize(
        "scn_name,u,oracle,vmax",
        [
            ("pedestrian2.scn", PED2_U, ped2_closed_form, 14.4),
            ("pedestrian3.scn", PED3_U, ped3_closed_form, 16.0),
            ("robot2.scn", np.array([2.0 * ROBOT_R, ROBOT_R]), robot2_closed_form, 10.2),
        ],
    )
    def test_all_nodes_track_the_two_phase_path(self, scn_name, u, oracle, vmax):
        scn = bundled_scenario(scn_name)
        mesh = Mesh(6.0, 10)
        traj = simulate(scn, ControlSignal.constant(mesh, u))
        tol = 5.0 * mesh.h * vmax
        for t, x in zip(traj.times, traj.nodes):
            assert np.linalg.norm(x - oracle(t)) <= tol

    @pytest.mark.parametrize(
        "scn_name,u,oracle",
        [
            ("pedestrian2.scn", PED2_U, ped2_closed_form),
            ("pedestrian3.scn", PED3_U, ped3_closed_form),
            ("robot2.scn", np.array([2.0 * ROBOT_R, ROBOT_R]), robot2_closed_form),
        ],
    )
    def test_endpoint_error_shrinks_under_refinement(self, scn_name, u, oracle):
        # The worked scenarios are exactly integrable by the scheme (the
        # projection preserves the conserved sums and clamps gaps exactly),
        # so the endpoint error sits at float-noise level for every m; the
        # decrease assertion therefore carries a noise floor.
        floor = 1e-9
        scn = bundled_scenario(scn_name)
        errors = []
        diffs = []
        prev_terminal = None
        for m in (6, 8, 10, 12):
            traj = simulate(scn, ControlSignal.constant(Mesh(6.0, m), u))
            errors.append(np.linalg.norm(traj.terminal - oracle(6.0)))
            if prev_terminal is not None:
                diffs.append(np.linalg.norm(traj.terminal - prev_terminal))
            prev_terminal = traj.terminal
        assert all(errors[i + 1] < max(errors[i], floor) for i in range(len(errors) - 1))
        assert all(diffs[i + 1] < max(diffs[i], floor) for i in range(len(diffs) - 1))

    def test_refinement_shows_real_decay_off_the_symmetric_family(self):
        # A robot pair with unequal headings has genuine O(h) discretization
        # error: the contact normal rotates, so the per-step linearization
        # is not exact and refinement visibly helps.
        from sweepctrl.models import parse_scenario_text

        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 6\nT = 6\nx0 = -30 -31 -20 -20\nspeeds = 3 1\n"
            "angles_deg = 225 210\ncontrol.kind = segment\ncontrol.link = 2 1\n"
            "control.bounds = -3.37 3.37\ncontrol.bound_on = 1\n"
        )
        u = np.array([2.0 * ROBOT_R, ROBOT_R])
        ref = simulate(scn, ControlSignal.constant(Mesh(6.0, 14), u)).terminal
        errors = [
            np.linalg.norm(simulate(scn, ControlSignal.constant(Mesh(6.0, m), u)).terminal - ref)
            for m in (6, 8, 10)
        ]
        assert errors[2] < errors[1] < errors[0]
        assert errors[0] > 1e-6  # the signal is real, not noise


class TestContactTimes:
    def test_two_pedestrians(self):
        scn = ped2()
        mesh = Mesh(6.0, 12)
        traj = simulate(scn, ControlSignal.constant(mesh, PED2_U))
        ct = contact_times(traj, scn.sweeping_set(), 1e-7)
        assert len(ct) == 1
        t1, row = ct[0]
        assert row == 0
        assert abs(t1 - 5.0 / 9.0) <= mesh.h

    def test_three_pedestrians(self):
        scn = ped3()
        mesh = Mesh(6.0, 12)
        traj = simulate(scn, ControlSignal.constant(mesh, PED3_U))
        ct = dict((row, t) for t, row in contact_times(traj, scn.sweeping_set(), 1e-7))
        assert ct[1] == 0.0
        assert abs(ct[0] - 0.6) <= mesh.h

    def test_inactive_row_absent(self):
        scn = ped2()
        traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 6), [0.1, 0.1]))
        assert contact_times(traj, scn.sweeping_set(), 1e-7) == []


class TestRecoverEta:
    def test_two_pedestrians_multiplier(self):
        scn = ped2()
        mesh = Mesh(6.0, 12)
        u = ControlSignal.constant(mesh, PED2_U)
        traj = simulate(scn, u)
        prof = recover_eta(scn, traj, u)
        assert prof.max_residual() < 1e-6
        # Free phase: no multiplier; locked phase: eta = 3*1.8 = 5.4.
        assert np.all(prof.values[:100, 0] == 0.0)
        assert prof.values[-1, 0] == pytest.approx(5.4, abs=1e-9)
        assert prof.terminal[0] == pytest.approx(5.4, abs=1e-9)

    def test_three_pedestrians_multipliers(self):
        scn = ped3()
        mesh = Mesh(6.0, 12)
        u = ControlSignal.constant(mesh, PED3_U)
        traj = simulate(scn, u)
        prof = recover_eta(scn, traj, u)
        assert prof.max_residual() < 1e-6
        # Initial contact of the rear pair only: eta2 = 2 while the front runs free.
        assert prof.values[1, 1] == pytest.approx(2.0, abs=1e-9)
        assert prof.values[1, 0] == 0.0
        # After the second contact both rows carry the locked-train values.
        assert prof.values[-1, 0] == pytest.approx(20.0 / 3.0, abs=1e-9)
        assert prof.values[-1, 1] == pytest.approx(16.0 / 3.0, abs=1e-9)

    def test_robot_contact_multiplier(self):
        scn = robot2()
        mesh = Mesh(6.0, 12)
        u = ControlSignal.constant(mesh, [2.0 * ROBOT_R, ROBOT_R])
        traj = simulate(scn, u)
        prof = recover_eta(scn, traj, u)
        assert prof.max_residual() < 1e-6
        assert prof.terminal[0] == pytest.approx(125.0 / 42.0, abs=1e-9)

    def test_complementarity_as_primal_fact(self):
        # eta vanishes on every interval whose right node is out of contact.
        scn = ped3()
        mesh = Mesh(6.0, 9)
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = ControlSignal.constant(mesh, rng.uniform(-2.0, 2.0, size=3))
            traj = simulate(scn, u)
            prof = recover_eta(scn, traj, u)
            assert prof.max_residual() < 1e-6
            for k in range(mesh.intervals):
                inactive = np.setdiff1d(np.arange(2), scn.contact_rows(traj.nodes[k + 1]))
                assert np.all(prof.values[k, inactive] == 0.0)


    @pytest.mark.parametrize("make", [robot2, ped3], ids=["robot2", "pedestrian3"])
    def test_non_finite_node_named(self, make):
        # A NaN node once gave eta = 0 and a NaN residual on the two intervals around it.
        scn = make()
        u = ControlSignal.constant(Mesh(6.0, 4), scn.control_set.vertices()[0])
        nodes = simulate(scn, u).nodes.copy()
        nodes[5, 1] = np.nan
        with pytest.raises(ValueError, match="trajectory node 5, coordinate x2: nan is not a finite number"):
            recover_eta(scn, Trajectory(u.mesh, nodes), u)

    @pytest.mark.parametrize("T", [5.0, 7.0])
    def test_control_mesh_off_the_scenario_horizon_rejected(self, T):
        # As in `simulate`: a trajectory and control on one mesh of another horizon are not fitted.
        scn = ped2()
        u = ControlSignal.constant(Mesh(T, 4), PED2_U)
        traj = Trajectory(u.mesh, np.tile(scn.x0, (17, 1)))
        with pytest.raises(ValueError, match=f"control mesh horizon {T} != scenario horizon 6.0"):
            recover_eta(scn, traj, u)

    def test_trajectory_and_control_on_different_meshes_rejected(self):
        scn = ped2()
        u = ControlSignal.constant(Mesh(6.0, 5), PED2_U)
        traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 4), PED2_U))
        with pytest.raises(ValueError, match="trajectory and control live on different meshes"):
            recover_eta(scn, traj, u)


class TestConstructionGuards:
    @pytest.mark.parametrize("rows", [16, 18])
    def test_trajectory_node_count(self, rows):
        with pytest.raises(ValueError, match=r"node count must be 2\^m \+ 1"):
            Trajectory(Mesh(6.0, 4), np.zeros((rows, 2)))

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            Mesh(T=6.0, m=0)
        with pytest.raises(ValueError):
            Mesh(T=6.0, m=25)
        with pytest.raises(ValueError):
            Mesh(T=-1.0, m=4)

    def test_control_signal_needs_full_interval_count(self):
        mesh = Mesh(6.0, 3)
        with pytest.raises(ValueError, match="interval values"):
            ControlSignal(mesh, np.zeros((5, 2)))

    def test_catchup_step_needs_positive_step(self):
        P = Polyhedron(np.array([[1.0, -1.0]]), np.array([-6.0]))
        with pytest.raises(ValueError):
            catchup_step(P, np.zeros(2), np.array([-60.0, -48.0]), 0.0)

    def test_eta_profile_rejects_negative_coefficients(self):
        from sweepctrl.sweeping import EtaProfile

        with pytest.raises(ValueError):
            EtaProfile(
                times=np.array([0.0, 1.0]),
                values=np.array([[-0.1]]),
                terminal=np.array([0.0]),
                residuals=np.array([0.0]),
            )


class TestRobotVariants:
    def test_declared_heading_switch_changes_course(self):
        from sweepctrl.models import parse_scenario_text

        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 1\nT = 4\nx0 = 0 0 20 20\nspeeds = 1 1\n"
            "angles_deg = 0 0\nangles_deg_post = 90 90\nswitch_at = 2.0\n"
            "control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
        )
        traj = simulate(scn, ControlSignal.constant(Mesh(4.0, 6), [1.0, 1.0]))
        vel = traj.velocities()
        assert np.allclose(vel[0], [1, 0, 1, 0], atol=1e-12)  # along the x-axis
        assert np.allclose(vel[-1], [0, 1, 0, 1], atol=1e-12)  # along the y-axis after the switch

    def test_three_robot_train_stays_feasible(self):
        from sweepctrl.models import parse_scenario_text

        scn = parse_scenario_text(
            "model = robot\nn = 3\nR = 6\nT = 6\nx0 = -40 -40 -25 -25 -10 -10\n"
            "speeds = 3 2 1\nangles_deg = 225 225 225\n"
            "control.kind = box\ncontrol.lo = -2 -2 -2\ncontrol.hi = 2 2 2\n"
        )
        traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 9), [-2.0, -2.0, -2.0]))
        # Euclidean pairwise separation and the polyhedral constraints hold
        # at every node; the fast rear agent ends up pushing the train.
        for x in traj.nodes:
            for i in range(3):
                for j in range(i + 1, 3):
                    assert scn.pair_gap_euclid(x, i, j) >= -1e-7
        assert all(contains(scn.sweeping_set(), x, 1e-7) for x in traj.nodes)
        u = ControlSignal.constant(Mesh(6.0, 9), [-2.0, -2.0, -2.0])
        prof = recover_eta(scn, traj, u)
        assert prof.max_residual() < 1e-6
        assert prof.terminal[0] > 0.0 and prof.terminal[1] > 0.0


def exact_pedestrian_endpoint(scn, u_const):
    """Event-driven exact integrator for constant pedestrian controls.

    Independent of the mesh scheme: between events the velocity is the
    projection of the drive onto the feasible direction cone at the
    current contact configuration, and event times (a gap reaching 2R)
    are found analytically.
    """
    from sweepctrl.polyhedra import project_raw

    drive = scn.speeds * np.asarray(u_const, dtype=float)
    C = scn.sweeping_set()
    x = scn.x0.astype(float).copy()
    t = 0.0
    guard = 0
    while t < scn.T - 1e-13:
        guard += 1
        assert guard < 50
        gaps = np.diff(x) - 2.0 * scn.R
        active = np.flatnonzero(gaps <= 1e-9)
        if active.size:
            v, _ = project_raw(C.normals[active], np.zeros(active.size), drive)
        else:
            v = drive
        rates = np.diff(v)
        step = scn.T - t
        for j in range(scn.n - 1):
            if j not in active and rates[j] < -1e-14:
                step = min(step, gaps[j] / (-rates[j]))
        x = x + step * v
        t += step
    return x


class TestEventOracle:
    def test_catchup_matches_exact_events_on_random_scenarios(self):
        from sweepctrl.models import ControlSet, PedestrianScenario

        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            R = float(rng.uniform(0.5, 3.0))
            x0 = np.cumsum(np.concatenate([[rng.uniform(-80, -40)], rng.uniform(2 * R, 6 * R, n - 1)]))
            speeds = rng.uniform(0.5, 8.0, n)
            scn = PedestrianScenario(
                n=n,
                R=R,
                T=6.0,
                x0=x0,
                speeds=speeds,
                control_set=ControlSet.box([-2.0] * n, [2.0] * n),
            )
            u_const = rng.uniform(-2.0, 2.0, n)
            mesh = Mesh(6.0, 11)
            traj = simulate(scn, ControlSignal.constant(mesh, u_const))
            exact = exact_pedestrian_endpoint(scn, u_const)
            vmax = float(np.max(np.abs(scn.speeds * u_const)))
            assert np.linalg.norm(traj.terminal - exact) <= 5 * mesh.h * max(vmax, 1.0)


class TestAdmissibleVelocityConsistency:
    def test_every_step_velocity_is_admissible(self):
        # The defining property of the scheme: each interval velocity lies in
        # the first-order admissible velocity set at the left node.  Checked
        # through the independently implemented membership test.
        from sweepctrl.models import admissible_velocities_contains, parse_scenario_text

        scn = parse_scenario_text(
            "model = robot\nn = 3\nR = 6\nT = 6\nx0 = -40 -40 -25 -25 -10 -10\n"
            "speeds = 3 2 1\nangles_deg = 225 225 225\n"
            "control.kind = box\ncontrol.lo = -2 -2 -2\ncontrol.hi = 2 2 2\n"
        )
        rng = np.random.default_rng(41)
        mesh = Mesh(6.0, 7)
        for _ in range(5):
            u = ControlSignal.constant(mesh, rng.uniform(-2.0, 2.0, 3))
            traj = simulate(scn, u)
            vel = traj.velocities()
            for k in range(mesh.intervals):
                assert admissible_velocities_contains(scn, traj.nodes[k], vel[k], mesh.h, tol=1e-7)


class TestCsv:
    def test_round_trip_and_determinism(self):
        scn = ped2()
        mesh = Mesh(6.0, 5)
        u = ControlSignal.constant(mesh, PED2_U)
        traj = simulate(scn, u)
        prof = recover_eta(scn, traj, u)
        text1 = trajectory_csv(traj.times, traj.nodes, u.values, prof.values, prof.terminal)
        text2 = trajectory_csv(traj.times, traj.nodes, u.values, prof.values, prof.terminal)
        assert text1 == text2
        back = read_trajectory_csv(text1)
        assert np.allclose(back["times"], traj.times)
        assert np.allclose(back["states"], traj.nodes, atol=1e-10)
        assert np.allclose(back["controls"][:-1], u.values)
        assert np.allclose(back["etas"][:-1], prof.values, atol=1e-10)
        header = text1.splitlines()[0]
        assert header == "t,x1,x2,u1,u2,eta1"

    def test_shortest_exact_digits(self):
        text = trajectory_csv(np.array([0.0, 1.0 / 3.0]), np.array([[1e-7], [123456.789012345]]))
        lines = text.splitlines()
        assert lines[1].split(",")[1] == "1e-07"
        assert lines[2].split(",")[0] == "0.3333333333333333"
        assert lines[2].split(",")[1] == "123456.789012345"

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda rows: st.tuples(
                *(
                    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=rows * w, max_size=rows * w)
                    for w in (1, 2, 3, 1)
                )
            )
        )
    )
    def test_round_trip_is_bit_exact(self, cols):
        rows = len(cols[0])
        times, states, controls, etas = (np.reshape(c, (rows, -1)) for c in cols)
        back = read_trajectory_csv(trajectory_csv(times[:, 0], states, controls, etas[:-1], etas[-1]))
        for key, want in (("times", times[:, 0]), ("states", states), ("controls", controls), ("etas", etas)):
            assert back[key].tobytes() == want.tobytes(), key

    # Malformed text for the differential test: each edits the data rows of a well-formed CSV.
    MUTATIONS = {
        "ragged": lambda rows, r: rows[:r] + [rows[r].rsplit(",", 1)[0]] + rows[r + 1:],
        "extra-cell": lambda rows, r: rows[:r] + [rows[r] + ",1.0"] + rows[r + 1:],
        "empty-cell": lambda rows, r: rows[:r] + ["," + rows[r].split(",", 1)[1]] + rows[r + 1:],
        "trailing-comma": lambda rows, r: rows[:r] + [rows[r] + ","] + rows[r + 1:],
        "hash": lambda rows, r: rows[:r] + ["#" + rows[r]] + rows[r + 1:],
        "blank-lines": lambda rows, r: rows[:r] + ["", "   ", rows[r], "\t"] + rows[r + 1:],
        "crlf": lambda rows, r: ["\r\n".join(rows)],
        "spaces": lambda rows, r: rows[:r] + [", ".join(f" {c} " for c in rows[r].split(","))] + rows[r + 1:],
        "nan": lambda rows, r: rows[:r] + ["nan," + rows[r].split(",", 1)[1]] + rows[r + 1:],
        "inf": lambda rows, r: rows[:r] + [rows[r].rsplit(",", 1)[0] + ",-inf"] + rows[r + 1:],
        "overflow": lambda rows, r: rows[:r] + [rows[r].rsplit(",", 1)[0] + ",1e400"] + rows[r + 1:],
        "underscore": lambda rows, r: rows[:r] + ["1_0," + rows[r].split(",", 1)[1]] + rows[r + 1:],
        "single-row": lambda rows, r: rows[r:r + 1],
    }

    @staticmethod
    def outcome(text: str):
        """`read_trajectory_csv`'s arrays as bytes, or its ValueError text."""
        try:
            return {k: (v.shape, v.tobytes()) for k, v in read_trajectory_csv(text).items()}
        except ValueError as exc:
            return str(exc)

    def outcome_cell_by_cell(self, text: str):
        """The same, with the one-parse path refused, so every cell goes through float()."""

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "loadtxt", refuse)
            return self.outcome(text)

    @pytest.mark.parametrize("cell", ["nan", " NaN ", "-inf", "1e400"])
    def test_non_finite_cell_named_with_its_text(self, cell):
        text = f"t,x1,x2\n0,-60,-48\n6,-3,{cell}\n"
        with pytest.raises(ValueError) as exc:
            read_trajectory_csv(text)
        assert str(exc.value) == f"trajectory CSV column 'x2', data row 2: {cell.strip()!r} is not a finite number"

    def test_header_without_state_columns_rejected(self):
        with pytest.raises(ValueError, match="trajectory CSV header needs 'x' columns after 't'"):
            read_trajectory_csv("t\n0\n6\n")

    def test_well_formed_text_is_parsed_in_one_call(self, monkeypatch):
        def cell_by_cell(*args):
            raise AssertionError("parsed cell by cell")

        monkeypatch.setattr(sweeping, "_parse_cells", cell_by_cell)
        text = trajectory_csv(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 2.0], [-0.0, 5e-324], [1e300, -1e-300]]))
        assert read_trajectory_csv(text)["states"].tobytes() == np.array([[1.0, 2.0], [-0.0, 5e-324], [1e300, -1e-300]]).tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda rows: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5),
                min_size=rows, max_size=rows,
            )
        ),
        st.sampled_from([None, *MUTATIONS]),
        st.integers(0, 4),
    )
    def test_one_parse_matches_the_cell_by_cell_path(self, values, mutation, r):
        """Bit-identical arrays on repr-formatted doubles (subnormals, +-0.0 and 1e+-300 included),
        and the same result or the same ValueError text on malformed rows."""
        rows = [",".join(map(repr, row)) for row in values]
        if mutation is not None:
            rows = self.MUTATIONS[mutation](rows, r % len(rows))
        text = "t,x1,x2,u1,eta1\n" + "\n".join(rows) + "\n"
        fast = self.outcome(text)
        assert fast == self.outcome_cell_by_cell(text)
        if mutation is None:
            assert fast["states"][1] == np.array(values)[:, 1:3].tobytes()


def reference_trajectory_csv(times, states, controls=None, etas=None, eta_terminal=None):
    """`trajectory_csv` as the per-cell formula: the same table, each row `repr` cell by cell."""
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    rows = times.shape[0]
    cols = ["t"] + [f"x{i + 1}" for i in range(states.shape[1])]
    blocks = [times[:, None], states]
    if controls is not None:
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        cols += [f"u{i + 1}" for i in range(controls.shape[1])]
        blocks.append(controls[np.minimum(np.arange(rows), controls.shape[0] - 1)])
    if etas is not None:
        etas = np.atleast_2d(np.asarray(etas, dtype=float))
        cols += [f"eta{i + 1}" for i in range(etas.shape[1])]
        last = etas[-1] if eta_terminal is None else np.asarray(eta_terminal, dtype=float)
        blocks.append(np.vstack([etas[:rows], np.tile(last, (max(rows - etas.shape[0], 0), 1))]))
    lines = [",".join(cols)] + [",".join(map(repr, row)) for row in np.hstack(blocks).tolist()]
    return "\n".join(lines) + "\n"


# Values on both sides of where repr switches to exponent form (|x| < 0.0001 and |x| >= 1e16),
# signed zeros, subnormals and the non-finite values, which orjson would write as null.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, float("nan"), float("inf"),
    float("-inf"), np.nextafter(0.0001, 0.0), 0.0001, np.nextafter(0.0001, 1.0), 9999999999999998.0,
    1e16, np.nextafter(1e16, 2e16), 1e15, 123456789012345.0, 0.1, 1.0 / 3.0, 1e300, 1.7976931348623157e308,
]
csv_cells = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_VALUES).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(5e-5, 2e-4),
    st.floats(5e15, 2e16),
)


@st.composite
def csv_tables(draw):
    """Arguments of `trajectory_csv`: 0-6 rows, 1-3 state columns, controls and etas with any number
    of rows from 1 (a short eta block is padded with its terminal row), C- or F-ordered."""
    rows, n = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    order = draw(st.sampled_from("CF"))

    def block(nrows, width):
        cells = draw(st.lists(csv_cells, min_size=nrows * width, max_size=nrows * width))
        return np.array(np.reshape(np.array(cells, dtype=float), (nrows, width)), order=order)

    times, states = block(rows, 1)[:, 0], block(rows, n)
    controls = block(draw(st.integers(1, rows + 1)), draw(st.integers(1, 3))) if draw(st.booleans()) else None
    etas = eta_terminal = None
    if draw(st.booleans()):
        etas = block(draw(st.integers(1, rows + 1)), draw(st.integers(1, 3)))
        eta_terminal = block(1, etas.shape[1])[0] if draw(st.booleans()) else None
    return times, states, controls, etas, eta_terminal


class TestCsvReference:
    """`trajectory_csv` formats the table in one orjson call; its text must be the per-cell formula's."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(csv_tables())
    def test_text_equals_the_per_cell_formula(self, args):
        assert trajectory_csv(*args) == reference_trajectory_csv(*args)

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edge_value_in_a_row_of_positional_values(self, value, sign):
        states = np.array([[0.5, 2.0], [sign * value, 3.0], [1.0, 7.25]])
        args = (np.array([0.0, 0.5, 1.0]), states, np.array([[1.5], [-2.5]]), np.array([[4.0], [sign * value]]))
        assert trajectory_csv(*args) == reference_trajectory_csv(*args)

    def test_zero_rows_one_state_column_and_an_f_ordered_table(self):
        states = np.asfortranarray(np.arange(12.0).reshape(4, 3) / 7.0)
        assert np.hstack([np.zeros(4)[:, None], states]).flags.f_contiguous  # orjson refuses such a table
        for args in [(np.zeros(0), np.zeros((0, 1))), (np.zeros(0), np.zeros((0, 2)), np.ones((1, 2)), np.ones((1, 1))),
                     (np.array([0.25]), np.array([[1e-300]])), (np.linspace(0.0, 1.0, 4), states)]:
            assert trajectory_csv(*args) == reference_trajectory_csv(*args)
        assert trajectory_csv(np.zeros(0), np.zeros((0, 1))) == "t,x1\n"

    @pytest.mark.parametrize(
        "name, control", [("pedestrian2.scn", "1.8,1.8"), ("pedestrian3.scn", "2,2,2"),
                          ("robot2.scn", f"{float(2.0 * ROBOT_R)!r},{float(ROBOT_R)!r}")],
        ids=["pedestrian2", "pedestrian3", "robot2"],
    )
    def test_cli_csvs_of_the_bundled_files(self, tmp_path, monkeypatch, name, control):
        """The `solve-reduced` and `simulate` CSVs equal the ones the per-cell formula writes."""
        scn = str(bundled_scenario_path(name))
        commands = [["solve-reduced", scn], ["simulate", scn, f"--control={control}"]]
        for k, command in enumerate(commands):
            assert cli.main([*command, "--out", str(tmp_path / f"{k}-new")]) == 0
            with monkeypatch.context() as mp:
                mp.setattr(cli, "trajectory_csv", reference_trajectory_csv)
                assert cli.main([*command, "--out", str(tmp_path / f"{k}-ref")]) == 0
            new, ref = ((tmp_path / f"{k}-{side}" / "trajectory.csv").read_bytes() for side in ("new", "ref"))
            assert new == ref and len(new.splitlines()) > 2**12  # the default mesh, m = 12


class TestControlCheck:
    def test_first_out_of_set_interval_named(self):
        # A run of equal controls is checked once, at its first interval; the
        # report still names the first interval outside U.
        values = np.tile(PED2_U, (64, 1))
        values[7:20] = [2.5, 2.5]
        values[30] = [3.0, 3.0]
        with pytest.raises(ValueError, match="interval 7 "):
            simulate(ped2(), ControlSignal(Mesh(6.0, 6), values))
        values[7:20] = PED2_U
        with pytest.raises(ValueError, match="interval 30 "):
            simulate(ped2(), ControlSignal(Mesh(6.0, 6), values))


def reference_from_parameters(mesh, U, P):
    """`ControlSignal.from_parameters` as the array formulas: the values and run starts it builds,
    or the text of the error it raises."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.ndim != 2 or P.shape[1] != len(U.lo) or not len(P) or mesh.intervals % len(P):
        return f"parameter rows of shape {P.shape} do not fit {len(U.lo)} parameters on {mesh.intervals} intervals"
    inside = U.in_box(P)
    if not inside.all():
        k, i = np.argwhere(~inside)[0]
        return f"parameter row {k}: p{i + 1} = {P[k, i]:g} outside [{U.lo[i]:g}, {U.hi[i]:g}]"
    values = np.repeat(P @ U.basis, mesh.intervals // len(P), axis=0)
    return values, np.zeros(1, dtype=np.intp) if len(P) == 1 else run_starts(values)


def built_or_error(mesh, U, P):
    try:
        return ControlSignal.from_parameters(mesh, U, P)
    except ValueError as exc:
        return str(exc)


@st.composite
def parameter_cases(draw):
    """A box or a segment U, a mesh, and parameter rows P of U (mostly one row) whose entries sit
    inside, on the bounds, at lo - CONTROL_TOL and hi + CONTROL_TOL, one float past them, or at
    a signed zero, NaN or an infinity; P given as a list, a 1-D array, an int array or rows."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 3))
        ends = [sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))) for _ in range(q)]
        U = ControlSet.box([a for a, _ in ends], [b for _, b in ends])
    else:
        d = draw(st.integers(1, 3))
        link = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]), min_size=d, max_size=d))
        link[0] = link[0] or 1.0
        U = ControlSet.segment(link, sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))))
    q, m = len(U.lo), draw(st.integers(1, 6))

    def entry(i, anywhere=True):
        lo, hi = float(U.lo[i]), float(U.hi[i])
        edges = [lo, hi, lo - CONTROL_TOL, hi + CONTROL_TOL]
        inside = st.one_of(st.floats(0.0, 1.0).map(lambda f: lo + (hi - lo) * f), st.sampled_from(edges))
        if not anywhere:
            return draw(inside)
        edges = [np.nextafter(lo - CONTROL_TOL, -np.inf), np.nextafter(hi + CONTROL_TOL, np.inf), 0.0, -0.0,
                 np.nan, np.inf, -np.inf]
        return draw(st.one_of(inside, st.sampled_from(edges), st.floats()))

    form = draw(st.sampled_from(["list", "1-D", "int", "row", "rows"]))
    if form == "int":
        return Mesh(1.0, m), U, np.array([draw(st.integers(-1000, 1000)) for _ in range(q)])
    if form == "rows":  # mostly inside, so that rows are built as well as refused
        rows, anywhere = 2 ** draw(st.integers(0, m)), draw(st.booleans())
        return Mesh(1.0, m), U, np.array([[entry(i, anywhere) for i in range(q)] for _ in range(rows)])
    row = [entry(i) for i in range(q)]
    return Mesh(1.0, m), U, {"list": row, "1-D": np.array(row), "row": np.array([row])}[form]


class TestFromParametersReference:
    """`from_parameters` checks one parameter row on Python floats and shares one read-only `[0]`
    as its run starts; the values, starts and error text must be the array formulas'."""

    @staticmethod
    def assert_matches(mesh, U, P):
        got, expected = built_or_error(mesh, U, P), reference_from_parameters(mesh, U, P)
        if isinstance(expected, str):
            assert got == expected
            return
        values, starts = expected
        assert got.values.shape == values.shape and got.values.tobytes() == values.tobytes()
        assert not got.values.flags.writeable and not got._starts.flags.writeable
        assert got._starts.dtype == starts.dtype and got._starts.tolist() == starts.tolist()
        assert got.mesh is mesh and got._built_in is U and got.checked_starts(U) is got._starts
        assert got == ControlSignal(mesh, values)

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(parameter_cases())
    def test_values_starts_and_errors_equal_the_array_formulas(self, case):
        self.assert_matches(*case)

    @pytest.mark.parametrize(
        "p, message",
        [
            (2.0 + CONTROL_TOL, None),
            (np.nextafter(2.0 + CONTROL_TOL, np.inf), "parameter row 0: p2 = 2 outside [-2, 2]"),
            (-2.0 - CONTROL_TOL, None),
            (np.nextafter(-2.0 - CONTROL_TOL, -np.inf), "parameter row 0: p2 = -2 outside [-2, 2]"),
            (np.nan, "parameter row 0: p2 = nan outside [-2, 2]"),
            (np.inf, "parameter row 0: p2 = inf outside [-2, 2]"),
            (-np.inf, "parameter row 0: p2 = -inf outside [-2, 2]"),
        ],
    )
    def test_the_bounds_of_one_row(self, p, message):
        mesh, U = Mesh(6.0, 6), ped3().control_set
        first = "parameter row 0: p1 = 3 outside [-2, 2]"  # the first parameter outside is named
        assert built_or_error(mesh, U, [3.0, p, 0.5]) == reference_from_parameters(mesh, U, [3.0, p, 0.5]) == first
        self.assert_matches(mesh, U, [1.0, p, 0.5])
        got = built_or_error(mesh, U, [1.0, p, 0.5])
        assert got == message if message else isinstance(got, ControlSignal)

    def test_parameter_forms_of_one_row(self):
        mesh, U = Mesh(6.0, 6), ped3().control_set
        for P in ([1, -2, 0.5], np.array([1.0, -2.0, 0.5]), np.array([1, -2, 0]), np.array([[1.0, -2.0, 0.5]]),
                  [-0.0, 0.0, -0.0], [1.0, 2.0], 1.0, np.zeros((0, 3)), np.zeros((3, 3)), np.zeros((1, 1, 3))):
            self.assert_matches(mesh, U, P)
        self.assert_matches(mesh, robot2().control_set, 0.5)  # a segment's one parameter as a scalar
        one, other = (ControlSignal.from_parameters(mesh, U, [p, p, p]) for p in (1.0, -1.0))
        assert one._starts is other._starts  # one shared array


SWITCH_TEXT = (
    "model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 5 5\nspeeds = 1 1\n"
    "angles_deg = 45 45\n{switch}control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
)


class TestContactSwitch:
    def test_switch_at_contact_equals_switch_at_first_contact_time(self):
        u = ControlSignal.constant(Mesh(6.0, 8), [1.0, -0.5])
        post = "angles_deg_post = 90 90\nswitch_at = {}\n"
        scn = parse_scenario_text(SWITCH_TEXT.format(switch=post.format("contact")))
        traj = simulate(scn, u)
        first = next(k for k, x in enumerate(traj.nodes) if scn.contact_rows(x).size)
        assert first == 145
        t_first = float(traj.times[first])
        assert t_first == 3.3984375
        timed = simulate(parse_scenario_text(SWITCH_TEXT.format(switch=post.format(repr(t_first)))), u)
        assert np.array_equal(traj.nodes, timed.nodes)
        never = simulate(parse_scenario_text(SWITCH_TEXT.format(switch="")), u)
        assert not np.allclose(traj.nodes, never.nodes)
        assert np.allclose(traj.velocities()[-1], [0.0, 1.0, 0.0, -0.5], atol=1e-12)


@st.composite
def chain_runs(draw):
    """A pedestrian or robot chain of 2-5 agents under a random piecewise box control."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(3, 8))
    R = draw(st.floats(0.5, 2.0))
    spare = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1, max_size=n - 1)))
    speeds = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    U = ControlSet.box([-2.0] * n, [2.0] * n)
    if draw(st.booleans()):
        x0 = -20.0 + np.concatenate([[0.0], np.cumsum(2.0 * R + spare)])
        scn = PedestrianScenario(n=n, R=R, T=6.0, x0=x0, speeds=speeds, control_set=U)
    else:
        # Ordered on the diagonal with Euclidean gaps 2R + spare.
        a = -20.0 + np.concatenate([[0.0], np.cumsum((2.0 * R + spare) / np.sqrt(2.0))])
        headings = np.deg2rad(draw(st.lists(st.floats(0.0, 360.0), min_size=n, max_size=n)))
        scn = RobotScenario(n=n, R=R, T=6.0, x0=np.repeat(a, 2), speeds=speeds, angles=headings, control_set=U)
    mesh = Mesh(6.0, m)
    pieces = draw(st.integers(1, mesh.intervals))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.choice(np.arange(1, mesh.intervals), pieces - 1, replace=False))
    values = rng.uniform(-2.0, 2.0, (pieces, n))[np.searchsorted(cuts, np.arange(mesh.intervals), side="right")]
    return scn, ControlSignal(mesh, values)


class TestCatchupInvariants:
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(chain_runs())
    def test_every_node_keeps_the_separation(self, run):
        scn, u = run
        nodes = simulate(scn, u).nodes
        if isinstance(scn, PedestrianScenario):
            gaps = np.diff(nodes, axis=1)
            assert np.all(gaps > 0.0)  # order kept
        else:
            P = nodes.reshape(nodes.shape[0], scn.n, 2)
            i, j = np.triu_indices(scn.n, 1)
            gaps = np.linalg.norm(P[:, i] - P[:, j], axis=2)
        assert np.min(gaps) >= 2.0 * scn.R - 1e-9


def stepwise(scn, u, pooled=False):
    """The catch-up loop with one projection per interval: the reference for filled runs.  With
    `pooled`, a pedestrian step is `sweeping._chain_step`, the pool-adjacent-violators step that
    `simulate` takes, in place of `project_raw`."""
    h, contact, x = u.mesh.h, None, scn.x0
    nodes = [x]
    for uk, tk in zip(u.values, u.mesh.nodes):
        if scn.switches_at_contact and contact is None and scn.contact_rows(x).size:
            contact = tk
        g = h * scn.drive(uk, tk, contact)
        if pooled and isinstance(scn, PedestrianScenario):
            x = np.array(sweeping._chain_step(x.tolist(), g.tolist(), 2.0 * scn.R)[0])
        else:
            x, _ = project_raw(*scn.constraint_rows(x), x + g, tol=STEP_TOL)
        nodes.append(x)
    return np.array(nodes)


def assert_matches_stepwise(scn, u):
    """Robot nodes bit for bit; pedestrian nodes to 1e-12 relative (contact arcs are summed, not projected)."""
    got, ref = simulate(scn, u).nodes, stepwise(scn, u)
    if isinstance(scn, RobotScenario):
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@st.composite
def piecewise_chains(draw):
    """A 2-5-agent pedestrian or robot chain under 1-8 constant control pieces, m = 3-10."""
    n = draw(st.integers(2, 5))
    R = draw(st.floats(0.5, 2.0))
    spare = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1, max_size=n - 1)))
    speeds = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    U = ControlSet.box([-2.0] * n, [2.0] * n)
    family = draw(st.sampled_from(["pedestrian", "robot", "diagonal robot"]))
    if family == "pedestrian":
        x0 = -20.0 + np.concatenate([[0.0], np.cumsum(2.0 * R + spare)])
        scn = PedestrianScenario(n=n, R=R, T=6.0, x0=x0, speeds=speeds, control_set=U)
    else:
        a = -20.0 + np.concatenate([[0.0], np.cumsum((2.0 * R + spare) / np.sqrt(2.0))])
        if family == "robot":
            headings = np.deg2rad(draw(st.lists(st.floats(0.0, 360.0), min_size=n, max_size=n)))
        else:  # a train on its own diagonal: the rear agents push the front ones
            headings = np.full(n, np.deg2rad(225.0))
        scn = RobotScenario(n=n, R=R, T=6.0, x0=np.repeat(a, 2), speeds=speeds, angles=headings, control_set=U)
    mesh = Mesh(6.0, draw(st.integers(3, 10)))
    pieces = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.choice(np.arange(1, mesh.intervals), pieces - 1, replace=False))
    values = rng.uniform(-2.0, 2.0, (pieces, n))[np.searchsorted(cuts, np.arange(mesh.intervals), side="right")]
    return scn, ControlSignal(mesh, values)


JOSTLE_ROBOTS = (
    "model = robot\nn = 4\nR = 1.5\nT = 6\nx0 = -20 -20 -17 -17 -14 -14 -11 -11\nspeeds = 3 2 1.5 1\n"
    "angles_deg = 225 225 225 225\ncontrol.kind = box\ncontrol.lo = -2 -2 -2 -2\ncontrol.hi = 2 2 2 2\n"
)


class TestRunFilling:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(piecewise_chains())
    def test_filled_runs_match_the_stepwise_loop(self, run):
        assert_matches_stepwise(*run)

    def test_control_changing_every_interval_is_bit_identical(self):
        rng = np.random.default_rng(5)
        mesh = Mesh(6.0, 9)
        ped = PedestrianScenario(
            n=5, R=1.0, T=6.0, x0=np.array([-20.0, -17.5, -15.0, -12.0, -9.5]),
            speeds=np.array([3.0, 2.5, 2.0, 1.5, 1.0]), control_set=ControlSet.box([-2.0] * 5, [2.0] * 5),
        )
        for scn in (ped, parse_scenario_text(JOSTLE_ROBOTS)):
            # Mostly forward draws, so the chain stays in contact much of the time.
            u = ControlSignal(mesh, rng.uniform(-1.0, 2.0, (mesh.intervals, scn.n)))
            assert np.all(np.any(np.diff(u.values, axis=0) != 0.0, axis=1))
            assert np.array_equal(simulate(scn, u).nodes, stepwise(scn, u, pooled=True))

    @pytest.mark.parametrize("chain", [1, 2], ids=["pedestrians8", "robots3"])
    def test_jostling_chains_are_bit_identical_to_the_stepwise_loop(self, chain):
        # A pedestrian chain pools adjacent violators on floats, and a robot chain's NNLS block is
        # formed with K(x).
        scn, u = jostling_chains()[chain]
        assert u.mesh.m == 9 and np.all(np.any(np.diff(u.values, axis=0) != 0.0, axis=1))
        nodes = simulate(scn, u).nodes
        assert nodes.tobytes() == stepwise(scn, u, pooled=True).tobytes()
        assert np.sum(np.any(in_contact(scn.pair_gaps(nodes)), axis=1)) > u.mesh.intervals // 4

    @pytest.mark.parametrize("switch", ["1.3", "2.0", "5.99"])
    def test_timed_heading_switch_inside_a_run_matches_stepwise(self, switch):
        scn = parse_scenario_text(
            "model = robot\nn = 3\nR = 1\nT = 6\nx0 = 0 0 4 4 9 9\nspeeds = 1 2 1\n"
            f"angles_deg = 0 45 90\nangles_deg_post = 90 225 180\nswitch_at = {switch}\n"
            "control.kind = box\ncontrol.lo = -1 -1 -1\ncontrol.hi = 1 1 1\n"
        )
        for u in ([1.0, -0.5, 0.3], [0.2, 1.0, -1.0]):
            assert_matches_stepwise(scn, ControlSignal.constant(Mesh(6.0, 10), u))

    def test_contact_switch_found_by_a_slow_approach(self):
        # The pair starts 1.5e-7 from contact and closes it at 2e-8 per unit time, far
        # below one step's margin: the switch must still happen at the first node in contact.
        a = float((2.0 + 1.5e-7) / np.sqrt(2.0))
        scn = parse_scenario_text(
            f"model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 {a!r} {a!r}\nspeeds = 1 1\nangles_deg = 45 45\n"
            "angles_deg_post = 90 0\nswitch_at = contact\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
        )
        u = ControlSignal.constant(Mesh(6.0, 10), [1.0, 1.0 - 2e-8])
        nodes = simulate(scn, u).nodes
        assert np.array_equal(nodes, stepwise(scn, u))
        first = next(k for k, x in enumerate(nodes) if scn.contact_rows(x).size)
        assert 0 < first < u.mesh.intervals

    @pytest.mark.parametrize(
        "x0,angles,m,u",
        [
            ("-10.41 -5.9", "347.7 248.87", 4, [1.25, 1.92]),
            ("-2.65 -8.56", "284.19 72.15", 3, [-0.71, -1.09]),
            ("-5.69 -2.5", "210.71 265.62", 6, [-0.84, 0.21]),
        ],
    )
    def test_oblique_approach_matches_stepwise(self, x0, angles, m, u):
        # Coarse steps at an angle: the step from the last filled node would leave the
        # linearized set although the disks stay apart, so the fill must stop before it.
        scn = parse_scenario_text(
            f"model = robot\nn = 2\nR = 1\nT = 6\nx0 = {x0} 0 0\nspeeds = 2 2\nangles_deg = {angles}\n"
            "control.kind = box\ncontrol.lo = -2 -2\ncontrol.hi = 2 2\n"
        )
        assert_matches_stepwise(scn, ControlSignal.constant(Mesh(6.0, m), u))

    def test_robot_contact_arcs_are_stepped(self, monkeypatch):
        supports = []
        hook = RobotScenario.free_run

        def spy(self, x, d, support, cap):
            supports.append(len(support))
            return hook(self, x, d, support, cap)

        monkeypatch.setattr(RobotScenario, "free_run", spy)
        for scn, u in ((robot2(), [2.0 * ROBOT_R, ROBOT_R]), (parse_scenario_text(JOSTLE_ROBOTS), [-2.0] * 4)):
            simulate(scn, ControlSignal.constant(Mesh(6.0, 10), u))
        assert supports and not any(supports)

    @pytest.mark.parametrize("family", ["robot2", "robots3", "pedestrian2"])
    def test_a_free_step_from_x0_starts_the_fill_at_node_1(self, monkeypatch, family):
        # One free step fixes the step map: `free_run` is a sufficient condition from any node,
        # and the fill's cumulative sum repeats the free step's own addition x + h g.
        scn, u = {
            "robot2": (robot2(), [0.1, 0.05]),
            "robots3": (parse_scenario_text(
                "model = robot\nn = 3\nR = 1\nT = 6\nx0 = 0 0 4 4 9 9\nspeeds = 1 1 1\nangles_deg = 225 45 45\n"
                "control.kind = box\ncontrol.lo = -1 -1 -1\ncontrol.hi = 1 1 1\n"), [1.0, 0.5, 0.25]),
            "pedestrian2": (ped2(), [0.1, 0.1]),
        }[family]
        starts = []
        hook = type(scn).free_run

        def spy(self, x, d, support, cap):
            starts.append(np.asarray(x).tolist())
            return hook(self, x, d, support, cap)

        monkeypatch.setattr(type(scn), "free_run", spy)
        u = ControlSignal.constant(Mesh(6.0, 8), u)
        nodes = simulate(scn, u).nodes
        assert nodes.tobytes() == stepwise(scn, u, pooled=True).tobytes()
        assert not np.any(in_contact(scn.pair_gaps(nodes)))  # free flight throughout
        assert starts == [nodes[1].tolist()]  # one fill, from node 1, to the horizon

    def test_a_free_stretch_costs_one_pair_arc_call(self, monkeypatch):
        # robot2 at the reduced optimum: a free step filled as far as `free_run` allows, one more
        # free step that it allows no fill from, then the contact arc to the horizon.
        import sweepctrl.sweeping as sweeping

        calls, pair_arc = [], sweeping._pair_arc

        def counted(x, g, count, c):
            arc, projected = pair_arc(x, g, count, c)
            calls.append((count, len(arc) // 4, projected))
            return arc, projected

        monkeypatch.setattr(sweeping, "_pair_arc", counted)
        u = ControlSignal.constant(Mesh(6.0, 10), [2.0 * ROBOT_R, ROBOT_R])
        assert np.array_equal(simulate(robot2(), u).nodes, stepwise(robot2(), u))
        assert calls == [(1024, 1, False), (982, 1, False), (981, 981, True)]
        calls.clear()
        simulate(robot2(), ControlSignal.constant(Mesh(6.0, 10), [0.1, 0.05]))
        assert calls == [(1024, 1, False)]

    def test_constant_runs_cost_a_few_projections(self, monkeypatch):
        # The steps each family takes: a pedestrian step is one `_chain_step` call, and a pair's
        # `_pair_arc` call takes as many steps as it returns nodes; the fill adds the rest.
        import sweepctrl.sweeping as sweeping

        steps = []
        chain_step, pair_arc = sweeping._chain_step, sweeping._pair_arc

        def counted_chain_step(*args):
            steps.append(1)
            return chain_step(*args)

        def counted_pair_arc(*args):
            arc, projected = pair_arc(*args)
            steps.append(len(arc) // 4)
            return arc, projected

        monkeypatch.setattr(sweeping, "_chain_step", counted_chain_step)
        monkeypatch.setattr(sweeping, "_pair_arc", counted_pair_arc)
        for scn, u in ((ped2(), PED2_U), (ped3(), PED3_U), (robot2(), [0.1, 0.05])):
            steps.clear()
            simulate(scn, ControlSignal.constant(Mesh(6.0, 14), u))
            assert 0 < sum(steps) <= 16

    @pytest.mark.parametrize(
        "scn,m,u",
        [
            (robot2(), 10, [-3.37, -1.685]),  # the reduced optimum
            (parse_scenario_text(SWITCH_TEXT.format(switch="angles_deg_post = 90 90\nswitch_at = 4.5\n")), 10, [1.0, -0.5]),
            (parse_scenario_text(SWITCH_TEXT.format(switch="angles_deg_post = 90 90\nswitch_at = contact\n")), 10, [1.0, -0.5]),
            (parse_scenario_text(SWITCH_TEXT.format(switch="")), 1, [1.0, -0.5]),  # first contact on the last step
        ],
        ids=["robot2-optimum", "timed-switch-in-arc", "switch-at-contact", "contact-on-last-step"],
    )
    def test_robot_pair_contact_arcs_make_no_projection_call(self, monkeypatch, scn, m, u):
        import sweepctrl.sweeping as sweeping

        u = ControlSignal.constant(Mesh(6.0, m), u)
        # The steps of the stepwise loop on a contact arc: those right after a projected step
        # taken with no contact switch pending.
        h, contact, x, after = u.mesh.h, None, scn.x0, False
        on_arc = []
        for uk, tk in zip(u.values, u.mesh.nodes):
            if scn.switches_at_contact and contact is None and scn.contact_rows(x).size:
                contact = tk
            x, W = project_raw(*scn.constraint_rows(x), x + h * scn.drive(uk, tk, contact), tol=STEP_TOL)
            on_arc.append(after)
            after = bool(W.size) and not (scn.switches_at_contact and contact is None)
        calls = []

        def counted(name, project):
            def spy(*args, **kwargs):
                calls.append(name)
                return project(*args, **kwargs)

            return spy

        # Every step of a pair, on an arc or off it, is a `_pair_arc` step: no array projection.
        monkeypatch.setattr(sweeping, "project_raw", counted("project_raw", project_raw))
        monkeypatch.setattr(sweeping, "_project_rows", counted("_project_rows", sweeping._project_rows))
        assert np.array_equal(simulate(scn, u).nodes, stepwise(scn, u))
        assert not calls
        if m > 1:
            assert sum(on_arc) > 150
        if scn.switch_time is not None:
            assert on_arc[np.searchsorted(u.mesh.nodes, scn.switch_time)]

    def test_exact_event_endpoint_at_fine_mesh(self):
        rng = np.random.default_rng(37)
        mesh = Mesh(6.0, 14)
        cases = [(ped2(), PED2_U), (ped3(), PED3_U)]
        for _ in range(6):
            n = int(rng.integers(2, 5))
            R = float(rng.uniform(0.5, 3.0))
            x0 = np.cumsum(np.concatenate([[rng.uniform(-80, -40)], rng.uniform(2 * R, 6 * R, n - 1)]))
            scn = PedestrianScenario(
                n=n, R=R, T=6.0, x0=x0, speeds=rng.uniform(0.5, 8.0, n),
                control_set=ControlSet.box([-2.0] * n, [2.0] * n),
            )
            cases.append((scn, rng.uniform(-2.0, 2.0, n)))
        for scn, u_const in cases:
            traj = simulate(scn, ControlSignal.constant(mesh, u_const))
            vmax = float(np.max(np.abs(scn.speeds * u_const)))
            assert np.linalg.norm(traj.terminal - exact_pedestrian_endpoint(scn, u_const)) <= 5 * mesh.h * max(vmax, 1.0)


def reference_pair_arc(scn, x, drive):
    """The contact-arc loop `simulate` ran step by step before `_pair_arc`: `pair_row`, y = x + g
    through `map(add)` and `_project_one_row` per increment, up to the first no-op step (kept)."""
    xs, arc = list(x), []
    for g in drive:
        a, c = scn.pair_row(xs)
        y = list(map(add, xs, g))
        xs = polyhedra._project_one_row(a, c, y, STEP_TOL)
        if xs is None:
            arc.append(y)
            break
        arc.append(xs)
    return arc


def chained_pair_arc(x, drive, c):
    """`_pair_arc` fed a list of increments run by run, as `simulate` feeds it: one call per run of
    equal increments, from the last node, while the last step projected; the flat nodes."""
    xs, arc, k = list(x), [], 0
    while k < len(drive):
        count = next((j for j in range(k + 1, len(drive)) if drive[j] != drive[k]), len(drive)) - k
        nodes, projected = sweeping._pair_arc(xs, drive[k], count, c)
        arc += nodes
        if not projected:
            break
        xs, k = nodes[-4:], k + count
    return arc


def arc_outcome(run):
    """The flat nodes of an arc as bytes, or the type and text of the error it raises."""
    try:
        return np.array(run(), dtype=float).tobytes()
    except (ValueError, polyhedra.ProjectionError) as exc:
        return type(exc), str(exc)


def pair_increment(theta, s1, d1, s2, d2):
    """One step of two robots: robot 1 at speed s1 along theta + d1, robot 2 at speed s2 along
    theta + pi + d2, where theta points from robot 1 to robot 2 (|d| < pi/2 closes the gap)."""
    a1, a2 = theta + d1, theta + math.pi + d2
    return [s1 * math.cos(a1), s1 * math.sin(a1), s2 * math.cos(a2), s2 * math.sin(a2)]


ARC_KINDS = ("pushing", "stop-first", "switch", "random", "coincident", "non-finite")


@st.composite
def pair_arcs(draw):
    """A two-robot scenario, a node of its pair in contact and the increments of an arc from it."""
    kind = draw(st.sampled_from(ARC_KINDS))
    R = draw(st.floats(0.25, 3.0))
    scn = RobotScenario(n=2, R=R, T=6.0, x0=np.array([0.0, 0.0, 2.0 * R, 2.0 * R]), speeds=np.ones(2),
                        angles=np.zeros(2), control_set=ControlSet.box([-1.0, -1.0], [1.0, 1.0]))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    gap = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9]))
    cx, cy = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    dist = 2.0 * R + gap
    x = [cx, cy, cx + dist * math.cos(theta), cy + dist * math.sin(theta)]
    steps = draw(st.integers(1, 40))
    speed = st.floats(1e-3, 0.05 * R)
    slip = st.floats(-0.3, 0.3)
    push = pair_increment(theta, draw(speed), draw(slip), draw(speed), draw(slip))
    drive = [push] * steps
    if kind == "stop-first":  # both robots back away: the first step projects nothing
        drive[0] = pair_increment(theta, draw(speed), math.pi + draw(slip), draw(speed), math.pi + draw(slip))
    elif kind == "switch":  # the headings change inside the arc, as at a timed switch
        other = pair_increment(theta, draw(speed), draw(slip), draw(speed), draw(slip))
        cut = draw(st.integers(0, steps))
        drive = [push] * cut + [other] * (steps - cut)
    elif kind == "random":  # any direction: the arc goes on while the step closes the gap
        pieces = st.lists(st.floats(-0.1 * R, 0.1 * R), min_size=4, max_size=4)
        drive = [draw(pieces) for _ in range(steps)]
    elif kind == "coincident":
        x = [cx, cy, cx, cy]
    elif kind == "non-finite":  # a NaN or infinite increment, reached while the arc goes on
        bad = list(push)
        bad[draw(st.integers(0, 3))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        drive[draw(st.integers(0, steps - 1))] = bad
    return kind, scn, x, drive


@st.composite
def pair_runs(draw):
    """Two robots in contact pushing each other under a piecewise control of 1-8 pieces, m = 3-10,
    with a timed heading switch on some draws: the runs and the headings change inside the arc."""
    R = draw(st.floats(0.5, 2.0))
    theta = draw(st.floats(0.1, math.pi / 2.0 - 0.1))  # robot 2 above and right of robot 1
    x0 = np.array([-20.0, -20.0, -20.0 + 2.0 * R * math.cos(theta), -20.0 + 2.0 * R * math.sin(theta)])
    x0[2:] += 1e-9  # apart by less than the first step closes: that step projects

    def headings():
        return [theta + draw(st.floats(-1.2, 1.2)), theta + math.pi + draw(st.floats(-1.2, 1.2))]

    switch = draw(st.one_of(st.none(), st.floats(0.5, 5.5)))
    scn = RobotScenario(
        n=2, R=R, T=6.0, x0=x0, speeds=np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=2, max_size=2))),
        angles=np.array(headings()), control_set=ControlSet.box([-2.0, -2.0], [2.0, 2.0]),
        angles_post=None if switch is None else np.array(headings()), switch_at=switch,
    )
    mesh = Mesh(6.0, draw(st.integers(3, 10)))
    pieces = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.choice(np.arange(1, mesh.intervals), pieces - 1, replace=False))
    low = draw(st.sampled_from([0.3, -1.0]))  # 0.3: every step pushes; -1.0: arcs end and start again
    values = rng.uniform(low, 2.0, (pieces, 2))
    values[0] = rng.uniform(0.3, 2.0, 2)  # the first step pushes, so an arc starts at the second
    return scn, ControlSignal(mesh, values[np.searchsorted(cuts, np.arange(mesh.intervals), side="right")])


class TestPairArcReference:
    """`_pair_arc` steps a two-robot contact arc on four local floats; its nodes and errors must be
    those of the per-step loop it replaced (`pair_row`, `map(add)`, `_project_one_row`)."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(pair_arcs())
    def test_nodes_and_errors_equal_the_per_step_loop(self, case):
        kind, scn, x, drive = case
        got = arc_outcome(lambda: chained_pair_arc(x, drive, -2.0 * scn.R))
        assert got == arc_outcome(lambda: reference_pair_arc(scn, x, drive))
        if kind == "stop-first":
            assert isinstance(got, bytes) and len(got) == 4 * 8  # the first step's node, kept
        elif kind in ("pushing", "switch"):
            assert isinstance(got, bytes) and len(got) == 4 * 8 * len(drive)  # to the last increment
        elif kind == "coincident":
            assert got == (ValueError, "coincident centers 1, 2: gradient undefined")
        elif kind == "non-finite":
            assert got == (ValueError, "projection input must not contain infs or NaNs")

    @pytest.mark.parametrize(
        "x, g, want",
        [
            ([0.0, 0.0, 2.0, 0.0], [-1e308, 0.0, 1e308, 0.0], None),  # top overflows to -inf: y is kept
            ([0.0, 0.0, 2.0, 0.0], [0.0, 0.0, math.inf, 0.0], "projection input must not contain infs or NaNs"),
            ([0.0, 0.0, 2.0, 0.0], [0.0, 0.0, -math.inf, 0.0], "projection input must not contain infs or NaNs"),
            ([0.0, 0.0, 2.0, 0.0], [math.nan, 0.0, 0.0, 0.0], "projection input must not contain infs or NaNs"),
            ([1.5e308, 1.5e308, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], "the polyhedron is empty"),  # hypot overflows
        ],
        ids=["far-step-kept", "top-minus-inf", "top-plus-inf", "top-nan", "row-norm-zero"],
    )
    def test_edge_steps_keep_the_one_row_outcome(self, x, g, want):
        scn = robot2()
        got = arc_outcome(lambda: sweeping._pair_arc(x, g, 2, -2.0 * scn.R)[0])
        assert got == arc_outcome(lambda: reference_pair_arc(scn, x, [g, g]))
        if want is None:
            assert got == np.array([a + b for a, b in zip(x, g)]).tobytes()
        else:
            assert got[1] == want

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(pair_runs())
    def test_piecewise_controls_changing_inside_an_arc_match_stepwise(self, run):
        scn, u = run
        arcs = []

        def counted(x, g, count, c):
            arcs.append((count, g))
            return pair_arc(x, g, count, c)

        pair_arc = sweeping._pair_arc
        with mock.patch.object(sweeping, "_pair_arc", counted):
            nodes = simulate(scn, u).nodes
        assert nodes.tobytes() == stepwise(scn, u).tobytes()
        # The first call takes the first run, to where the control or the heading first changes.
        times, K = u.mesh.nodes, u.mesh.intervals
        first = next((k for k in range(1, K) if (u.values[k] != u.values[0]).any()
                      or scn.switch_time is not None and times[k] >= scn.switch_time), K)
        assert arcs and arcs[0] == (first, (u.mesh.h * scn.drive(u.values[0], 0.0)).tolist())

    def test_a_run_after_an_arc_is_filled_to_the_run_end(self, monkeypatch):
        # Robot 1 pushes robot 2 up the diagonal for 256 intervals, then both part and drift:
        # each fill after the arc must stop where its run of equal controls ends.
        scn = parse_scenario_text(SWITCH_TEXT.format(switch="").replace("x0 = 0 0 5 5", "x0 = 0 0 1.5 1.5"))
        u = ControlSignal(Mesh(6.0, 10), np.repeat([[1.0, 0.2], [-1.0, 1.0], [0.5, 0.5], [0.2, 1.0]], 256, 0))
        caps, free_run = [], RobotScenario.free_run

        def spy(self, x, d, support, cap):
            caps.append((x.copy(), cap))
            return free_run(self, x, d, support, cap)

        monkeypatch.setattr(RobotScenario, "free_run", spy)
        nodes = simulate(scn, u).nodes
        assert nodes.tobytes() == stepwise(scn, u).tobytes()
        fills = []
        for x, cap in caps:
            k = int(np.flatnonzero((nodes == x).all(axis=1))[0])  # the node the fill starts from
            assert cap == 256 * (1 + (k - 1) // 256) - k  # the end of the run of interval k - 1
            fills.append(k)
        assert any(256 < k < 512 for k in fills) and any(512 < k for k in fills)

    @pytest.mark.parametrize("switch", ["1.3", "3.0", "5.99"])
    def test_timed_heading_switch_inside_an_arc_matches_stepwise(self, switch):
        scn = parse_scenario_text(SWITCH_TEXT.format(switch=f"angles_deg_post = 90 180\nswitch_at = {switch}\n"))
        u = ControlSignal(Mesh(6.0, 10), np.repeat([[1.0, -0.5], [0.8, -0.9], [1.0, -0.2], [0.6, -1.0]], 256, 0))
        assert simulate(scn, u).nodes.tobytes() == stepwise(scn, u).tobytes()

    def test_arcs_that_stop_and_start_again_match_stepwise(self):
        # A control drawn anew every interval ends and restarts the pair's contact arc hundreds
        # of times: each interval is one `_pair_arc` call of one step under its own increment.
        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 1.5\nT = 6\nx0 = -20 -20 -17 -17\nspeeds = 1 3\nangles_deg = 225 225\n"
            "control.kind = box\ncontrol.lo = -2 -2\ncontrol.hi = 2 2\n"
        )
        mesh = Mesh(6.0, 12)
        u = ControlSignal(mesh, np.random.default_rng(1).uniform(-1.0, 2.0, (mesh.intervals, 2)))
        arcs = []

        def counted(x, g, count, c):
            arc, projected = pair_arc(x, g, count, c)
            arcs.append((count, g, projected))
            return arc, projected

        pair_arc = sweeping._pair_arc
        with mock.patch.object(sweeping, "_pair_arc", counted):
            nodes = simulate(scn, u).nodes
        assert nodes.tobytes() == stepwise(scn, u).tobytes()
        assert len(arcs) == mesh.intervals  # every run is one interval: one call, one step each
        for k, (count, g, _) in enumerate(arcs):  # each call steps its own interval's increment
            assert count == 1 and g == (mesh.h * scn.drive(u.values[k])).tolist()
        projected = [p for _, _, p in arcs]
        assert sum(b and not a for a, b in zip(projected, projected[1:])) > 500  # arcs that start again


def reference_chain_steps(scn, u):
    """The pedestrians' catch-up loop as `simulate` ran it on arrays through the NNLS step, with
    `_chain_step` as the step: y = x + h g per interval, and after two steps in a row with one
    support, `free_run` steps of the last displacement, added one at a time."""
    h, K = u.mesh.h, u.mesh.intervals
    nodes = np.empty((K + 1, scn.n))
    nodes[0] = scn.x0
    k, prev = 0, None
    for end in run_starts(u.values)[1:].tolist() + [K]:
        g = h * scn.drive(u.values[k])
        while k < end:
            x = nodes[k]
            xn, W = sweeping._chain_step(x.tolist(), g.tolist(), 2.0 * scn.R)
            k += 1
            nodes[k] = xn
            if k < end and W == prev:
                d = nodes[k] - x if W else g
                for _ in range(scn.free_run(nodes[k], d, W, end - k)):
                    nodes[k + 1] = nodes[k] + d
                    k += 1
                W = None
            prev = W
    return nodes


def step_outcome(step):
    """A step's node as bytes, or the type and text of the error it raises."""
    try:
        return np.asarray(step(), dtype=float).tobytes()
    except (ValueError, polyhedra.ProjectionError) as exc:
        return type(exc), str(exc)


CHAIN_CONTROLS = ("constant", "piecewise", "every interval")


@st.composite
def pedestrian_chain_runs(draw):
    """A chain of 2-8 pedestrians, about 40 % of its start gaps closed, under a constant control,
    one of 2-8 pieces or one drawn anew every interval (mostly forward, so the chain jostles), m = 3-8."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(CHAIN_CONTROLS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = float(rng.uniform(0.5, 2.0))
    spare = np.where(rng.random(n - 1) < 0.4, 0.0, rng.uniform(0.0, 2.0, n - 1))
    x0 = -20.0 + np.concatenate([[0.0], np.cumsum(2.0 * R + spare)])
    scn = PedestrianScenario(n=n, R=R, T=6.0, x0=x0, speeds=rng.uniform(0.0, 3.0, n),
                             control_set=ControlSet.box([-2.0] * n, [2.0] * n))
    mesh = Mesh(6.0, draw(st.integers(3, 8)))
    pieces = {"constant": 1, "piecewise": int(rng.integers(2, 9)), "every interval": mesh.intervals}[kind]
    cuts = np.sort(rng.choice(np.arange(1, mesh.intervals), pieces - 1, replace=False))
    values = rng.uniform(-1.0, 2.0, (pieces, n))[np.searchsorted(cuts, np.arange(mesh.intervals), side="right")]
    return kind, scn, ControlSignal(mesh, values)


class TestChainStepReference:
    """`simulate` steps a pedestrian chain in one loop on Python floats, each step one
    pool-adjacent-violators `_chain_step`: its nodes must be those of the per-step loop over that
    kernel bit for bit, each one the `project_raw` step from the node before within 1e-12
    relative, feasible to STEP_TOL, and its errors those of `project_raw`."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(pedestrian_chain_runs())
    def test_nodes_equal_the_per_step_loop_and_the_projection(self, case):
        kind, scn, u = case
        nodes = simulate(scn, u).nodes
        assert nodes.tobytes() == reference_chain_steps(scn, u).tobytes()
        A, c = scn.sweeping_set().normals, scn.sweeping_set().offsets
        g = u.mesh.h * scn.drive(u.values)
        for x, g_k, node in zip(nodes[:-1], g, nodes[1:]):
            ref, _ = project_raw(A, c, x + g_k, tol=STEP_TOL)
            assert np.max(np.abs(node - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert np.max(nodes[:, :-1] - nodes[:, 1:] + 2.0 * scn.R) <= STEP_TOL
        if kind == "every interval":
            assert np.array_equal(nodes, stepwise(scn, u, pooled=True))

    @pytest.mark.parametrize(
        "x, g, want",
        [
            ([0.0, 3.0, 6.0], [0.0, math.inf, 0.0], "projection input must not contain infs or NaNs"),
            ([0.0, 3.0, 6.0], [0.0, 0.0, -math.inf], "projection input must not contain infs or NaNs"),
            ([0.0, 3.0, 6.0], [math.nan, 0.0, 0.0], "projection input must not contain infs or NaNs"),
            ([0.0, 3.0], [math.inf, math.inf], "projection input must not contain infs or NaNs"),
            ([1e308, 1.5e308, 1.7e308], [1e308, 0.0, 0.0], "projection input must not contain infs or NaNs"),
            ([-1e308, 1e308], [-0.7e308, 0.7e308], None),  # the violation overflows to -inf: y is kept
            ([-1e308, 1e308, 1e308 + 1e300], [-0.7e308, 0.7e308, -1e300], "projection input must not contain infs or NaNs"),
            ([-1.5e308, 0.0, 3.0], [-0.2e308, 0.0, 0.0], None),  # far inside: kept
            ([1e308, 1.2e308, 1.4e308], [0.5e308, 0.0, -0.5e308], "pooled"),  # its z sums overflow: projected
        ],
        ids=["inf", "minus-inf", "nan", "two-infs", "y-overflows", "violation-minus-inf",
             "minus-inf-and-a-violation", "far-inside", "large-finite"],
    )
    def test_edge_steps_keep_the_outcome_of_project_raw(self, x, g, want):
        chain = pedestrian_sweeping_set(len(x), 1.0)
        y = np.array([a + b for a, b in zip(x, g)])  # on floats: an overflow is inf, with no warning
        got = step_outcome(lambda: sweeping._chain_step(x, g, 2.0)[0])
        with np.errstate(over="ignore", invalid="ignore"):  # the NNLS branch warns before it raises
            ref = step_outcome(lambda: project_raw(chain.normals, chain.offsets, y, tol=STEP_TOL)[0])
        if want == "pooled":
            a, b = np.frombuffer(got), np.frombuffer(ref)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)) and not np.array_equal(a, y)
        else:
            assert got == ref
            assert got == (y.tobytes() if want is None else (ValueError, want))

    def test_a_drive_beyond_the_scale_exits_2_naming_its_keys(self, tmp_path, capsys):
        # A speed of 1e308 would overflow the drive: the scenario is refused where it is read.
        text = bundled_scenario_path("pedestrian3.scn").read_text()
        assert "speeds = 8 4 2" in text
        scenario = tmp_path / "fast.scn"
        scenario.write_text(text.replace("speeds = 8 4 2", "speeds = 1e308 1 1"))
        code = cli.main(["simulate", str(scenario), "--control", "2,2,2", "--mesh-exp", "6", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "error: keys 'x0', 'R', 'T', 'speeds': |x0| + 2R n + T s |u| = inf, beyond 1e+100"
        )


class TestProjectionPath:
    def test_two_agent_steps_make_no_nnls_call(self, monkeypatch):
        import sweepctrl.polyhedra as polyhedra

        calls = []
        nnls = polyhedra._nnls()

        def counted(*args, **kwargs):
            calls.append(1)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(polyhedra, "_nnls", lambda: counted)
        scn = robot2()
        traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 10), [2.0 * ROBOT_R, ROBOT_R]))
        assert np.min(scn.pair_gaps(traj.nodes)) <= 1e-9  # the run has its contact arc
        # No pedestrian step calls NNLS either: each pools adjacent violators on floats.
        simulate(ped3(), ControlSignal.constant(Mesh(6.0, 10), PED3_U))
        for scn, u in jostling_chains()[:2]:
            simulate(scn, u)
        assert not calls
        simulate(*jostling_chains()[2])  # three robots: the spy sees NNLS
        assert calls

    def test_a_fixed_set_is_read_once_per_simulation(self, monkeypatch):
        # The pedestrians' set is never read, and no step projects through `polyhedra`: each
        # interval is one `_chain_step`, or a filled one.
        import sweepctrl.sweeping as sweeping

        rows, projections, steps = [], [], []
        hook, project_rows, project, chain_step = (PedestrianScenario.constraint_rows, sweeping._project_rows,
                                                   sweeping.project_raw, sweeping._chain_step)

        def counted_rows(self, x):
            rows.append(1)
            return hook(self, x)

        def counted(call, log):
            def spy(*args, **kwargs):
                log.append(1)
                return call(*args, **kwargs)
            return spy

        monkeypatch.setattr(PedestrianScenario, "constraint_rows", counted_rows)
        monkeypatch.setattr(sweeping, "_project_rows", counted(project_rows, projections))
        monkeypatch.setattr(sweeping, "project_raw", counted(project, projections))
        monkeypatch.setattr(sweeping, "_chain_step", counted(chain_step, steps))
        for scn, u in ((ped3(), ControlSignal.constant(Mesh(6.0, 14), PED3_U)), jostling_chains()[1]):
            rows.clear(), projections.clear(), steps.clear()
            simulate(scn, u)
            assert not rows and not projections
            if u.mesh.m == 14:  # constant runs are filled: a few steps
                assert 0 < len(steps) <= 16
            else:  # the control changes every interval: every interval is stepped
                assert len(steps) == u.mesh.intervals


class TestOneDriveCall:
    """`simulate` takes the drive in one call: a one-run control on its one row, several runs in
    one gathered call."""

    def test_a_search_drives_one_row_per_simulation(self, monkeypatch):
        from sweepctrl import optimizer

        rows, simulations = [], []
        drive, run = PedestrianScenario.drive, optimizer.simulate

        def spied_drive(self, u, *args):
            rows.append(np.shape(u))
            return drive(self, u, *args)

        def counted(scn, u):
            simulations.append(1)
            return run(scn, u)

        monkeypatch.setattr(PedestrianScenario, "drive", spied_drive)
        monkeypatch.setattr(optimizer, "simulate", counted)
        scn = bundled_scenario("pedestrian3.scn")
        sol = optimizer.solve_discrete(scn, 6, budget=50)
        assert len(simulations) == sol.simulations > 1
        assert rows == [(scn.n,)] * len(simulations)

    def test_a_timed_switch_takes_one_gathered_call_for_its_two_runs(self, monkeypatch):
        rows, drive = [], RobotScenario.drive

        def spied_drive(self, u, *args):
            rows.append(np.shape(u))
            return drive(self, u, *args)

        scn = parse_scenario_text(SWITCH_TEXT.format(switch="angles_deg_post = 90 180\nswitch_at = 2.5\n"))
        u = ControlSignal.constant(Mesh(6.0, 8), [1.0, -0.5])
        monkeypatch.setattr(RobotScenario, "drive", spied_drive)
        nodes = simulate(scn, u).nodes
        assert rows == [(2, scn.n)]
        monkeypatch.undo()
        assert nodes.tobytes() == stepwise(scn, u).tobytes()


def robot_text(n, R, x0, speeds, lo, hi):
    return (
        f"model = robot\nn = {n}\nR = {R}\nT = 6\nx0 = {x0}\nspeeds = {speeds}\n"
        f"angles_deg = {' '.join(['225'] * n)}\ncontrol.kind = box\n"
        f"control.lo = {' '.join([str(lo)] * n)}\ncontrol.hi = {' '.join([str(hi)] * n)}\n"
    )


def walk_controls(rng, mesh, target, lo, hi):
    """A bounded random walk around `target`, one control row per interval."""
    u, out = target.copy(), np.empty((mesh.intervals, target.size))
    for k in range(mesh.intervals):
        u = out[k] = np.clip(u + 0.05 * (target - u) + rng.normal(0.0, 0.15 * (hi - lo), target.size), lo, hi)
    return ControlSignal(mesh, out)


def jostling_chains():
    """Chains of 5 and 8 pedestrians and of 3 and 4 robots on the diagonal, each under a
    control that changes every interval and closes the gaps."""
    rng = np.random.default_rng(23)
    mesh = Mesh(6.0, 9)
    out = []
    for n in (5, 8):
        x0 = -40.0 + np.concatenate([[0.0], np.cumsum(2.0 + rng.uniform(0.0, 1.0, n - 1))])
        scn = PedestrianScenario(
            n=n, R=1.0, T=6.0, x0=x0, speeds=rng.uniform(1.5, 2.5, n), control_set=ControlSet.box([-1.0] * n, [2.0] * n)
        )
        out.append((scn, walk_controls(rng, mesh, 2.0 - 2.4 * np.arange(n) / (n - 1), -1.0, 2.0)))
    for n in (3, 4):
        a = -30.0 + np.concatenate([[0.0], np.cumsum(1.5 * np.sqrt(2.0) * (1.0 + rng.uniform(0.0, 0.6, n - 1)))])
        speeds = " ".join(map(repr, rng.uniform(1.0, 2.0, n).tolist()))
        scn = parse_scenario_text(robot_text(n, 0.75, " ".join(map(repr, np.repeat(a, 2).tolist())), speeds, -3, 1))
        out.append((scn, walk_controls(rng, mesh, -3.0 + 3.2 * np.arange(n) / (n - 1), -3.0, 1.0)))
    return out


def nnls_step_formula(A, c, y, tol):
    """The NNLS branch of `project_raw` as numpy array formulas, through the same solver: E =
    [-A^T; h] with h = (A y - c)/top, d = 1 - add.reduce(h u), x = y - A^T((top/d) u)."""
    viol = A @ y - c
    top = float(np.maximum.reduce(viol))
    if top <= tol:
        return y.copy(), np.empty(0, dtype=int)
    E = np.vstack([-A.T, viol / top])
    f = np.zeros(len(E))
    f[-1] = 1.0
    u, _ = polyhedra._nnls()(E, f)
    hu = E[-1] * u
    d = 1.0 - float(np.add.reduce(hu))
    assert d > EMPTY_RTOL * (1.0 + float(np.add.reduce(np.abs(hu))))
    return y - A.T @ ((top / d) * u), u.nonzero()[0]


class TestNnlsStepAgainstItsFormula:
    """`project_raw`'s multi-row branch decides and sums on Python floats where numpy would
    pay a call per array of a few entries; it gives the bits of the array formulas."""

    @staticmethod
    def assert_same(A, c, y, tol):
        x, W = project_raw(A, c, y, tol=tol)
        x_ref, W_ref = nnls_step_formula(A, c, y, tol)
        assert x.tobytes() == x_ref.tobytes() and np.array_equal(W, W_ref)
        return W.size > 0

    def test_criterion_6_instances(self):
        rng = np.random.default_rng(2023)
        projected = 0
        for _ in range(2000):
            n, s = int(rng.integers(2, 9)), int(rng.integers(2, 8))  # s = 1 takes the closed form
            A, c, y = rng.standard_normal((s, n)), np.abs(rng.standard_normal(s)) + 0.1, rng.standard_normal(n) * 5.0
            projected += self.assert_same(A, c, y, MEMBERSHIP_TOL)
        assert projected > 1000

    def test_eight_or_more_rows(self):
        # numpy's add.reduce sums 8 or more terms pairwise, not left to right: so does the branch.
        rng = np.random.default_rng(2024)
        projected = 0
        for _ in range(300):
            s = int(rng.integers(8, 13))
            n = int(rng.integers(s, 16))  # room for every row to be active
            A, c, y = rng.standard_normal((s, n)), np.abs(rng.standard_normal(s)) + 0.1, rng.standard_normal(n) * 5.0
            projected += self.assert_same(A, c, y, MEMBERSHIP_TOL)
        assert projected > 250

    @staticmethod
    def steps(scn, u):
        """(A, c, y) of each catch-up step of the stepwise loop (no heading switch here)."""
        x, h = scn.x0, u.mesh.h
        for uk, tk in zip(u.values, u.mesh.nodes):
            A, c = scn.constraint_rows(x)
            y = x + h * scn.drive(uk, tk)
            yield A, c, y
            x, _ = project_raw(A, c, y, tol=STEP_TOL)

    @pytest.mark.parametrize("chain", range(4), ids=["pedestrians5", "pedestrians8", "robots3", "robots4"])
    def test_jostling_chain_steps(self, chain):
        scn, u = jostling_chains()[chain]
        projected = sum(self.assert_same(A, c, y, STEP_TOL) for A, c, y in self.steps(scn, u))
        assert projected > u.mesh.intervals // 4

    def test_five_robots_ten_rows(self):
        rng = np.random.default_rng(5)
        a = -30.0 + np.concatenate([[0.0], np.cumsum(1.5 * np.sqrt(2.0) * (1.0 + rng.uniform(0.0, 0.6, 4)))])
        speeds = " ".join(map(repr, rng.uniform(1.0, 2.0, 5).tolist()))
        scn = parse_scenario_text(robot_text(5, 0.75, " ".join(map(repr, np.repeat(a, 2).tolist())), speeds, -3, 1))
        u = walk_controls(rng, Mesh(6.0, 8), -3.0 + 3.2 * np.arange(5) / 4, -3.0, 1.0)
        projected = 0
        for A, c, y in self.steps(scn, u):
            assert A.shape[0] == 10
            projected += self.assert_same(A, c, y, STEP_TOL)
        assert projected > u.mesh.intervals // 4


def nnls_eta(scn, traj, u):
    """The multipliers fitted interval by interval: one NNLS `decompose_on_rows` call on the
    step's adjacent rows (sqrt(2) times those of `linearized_noncollision` for robots) whose
    linearized gap at the right node is at most CONTACT_TOL."""
    X, n = traj.nodes, scn.n
    contact = contact_switch_time(scn, traj.times, X)
    defects = scn.drive(u.values, traj.times[:-1], contact) - traj.velocities()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    adjacent = [pairs.index((j, j + 1)) for j in range(n - 1)]
    values = np.zeros((len(defects), n - 1))
    for k, v in enumerate(defects):
        if isinstance(scn, RobotScenario):
            A, c = linearized_noncollision(X[k], scn.R)
            P = Polyhedron(np.sqrt(2.0) * A[adjacent], np.sqrt(2.0) * c[adjacent])
            gaps = (c - A @ X[k + 1])[adjacent]
        else:
            P, gaps = scn.sweeping_set(), scn.pair_gaps(X[k + 1])
        for j, val in decompose_on_rows(P, np.flatnonzero(gaps <= CONTACT_TOL), v).coefficients.items():
            values[k, j] = val
    return values


OFF_DIAGONAL_ROBOT2 = ("-32 -26 -20 -20", "-36 -24 -20 -20")


class TestRecoverEtaOnStepRows:
    @pytest.mark.parametrize("m", [8, 10, 12])
    @pytest.mark.parametrize("x0", OFF_DIAGONAL_ROBOT2)
    def test_robot2_off_the_diagonal_is_explained(self, x0, m):
        # The pair slides along its contact tangent, ending each step O(h^2) outside the
        # circle: only the step's own rows see the contact.
        text = bundled_scenario_path("robot2.scn").read_text().replace("x0 = -30 -30 -20 -20", f"x0 = {x0}")
        scn = parse_scenario_text(text)
        u = ControlSignal.constant(Mesh(6.0, m), [-3.37, -1.685])
        prof = recover_eta(scn, simulate(scn, u), u)
        assert np.any(prof.values > 0.0)
        assert prof.max_residual() < 1e-9

    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_three_robots_off_the_diagonal_are_explained(self, m):
        scn = parse_scenario_text(robot_text(3, 5, "-36 -30 -24 -21 -10 -10", "3 2 1", -2, 2))
        u = ControlSignal.constant(Mesh(6.0, m), [-2.0, -2.0, -2.0])
        prof = recover_eta(scn, simulate(scn, u), u)
        assert np.all(np.any(prof.values > 0.0, axis=0))  # both pairs push
        assert prof.max_residual() < 1e-9

    def test_a_push_between_non_adjacent_robots_shows_in_the_residual(self):
        # Robots 1 and 3 touch past robot 2: their row is no column of the profile.
        scn = parse_scenario_text(robot_text(3, 2, "-30 -27 -24 -20 -17 -15", "3 2 1", -2, 2))
        u = ControlSignal.constant(Mesh(6.0, 8), [-2.0, -2.0, -2.0])
        traj = simulate(scn, u)
        A, c = linearized_noncollision(traj.nodes[175], scn.R)
        assert abs(c[1] - A[1] @ traj.nodes[176]) <= CONTACT_TOL  # pair (1, 3) in contact
        assert recover_eta(scn, traj, u).residuals[175] > 1.0

    def test_matches_the_nnls_fit_interval_by_interval(self):
        cases = [(ped2(), PED2_U), (ped3(), PED3_U), (robot2(), [2.0 * ROBOT_R, ROBOT_R])]
        runs = [(scn, ControlSignal.constant(Mesh(6.0, m), u)) for scn, u in cases for m in (8, 10)]
        for scn, u in runs + jostling_chains():
            traj = simulate(scn, u)
            prof = recover_eta(scn, traj, u)
            want = nnls_eta(scn, traj, u)
            assert np.any(want > 0.0)
            assert np.max(np.abs(prof.values - want)) <= 1e-12 * max(1.0, np.max(want))
            assert np.array_equal(prof.values > 0.0, want > 0.0)
            assert prof.max_residual() < 1e-11

    def test_makes_no_nnls_call(self, monkeypatch):
        import sweepctrl.polyhedra as polyhedra

        scn, u = jostling_chains()[1]
        assert scn.n == 8
        traj = simulate(scn, u)
        calls = []
        nnls = polyhedra._nnls()

        def counted(*args, **kwargs):
            calls.append(1)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(polyhedra, "_nnls", lambda: counted)
        prof = recover_eta(scn, traj, u)
        assert np.any(prof.values > 0.0) and not calls

    def test_blocks_give_the_unblocked_result(self, monkeypatch):
        import sweepctrl.sweeping as sweeping

        for scn, u in jostling_chains()[1:3]:
            traj = simulate(scn, u)
            whole = recover_eta(scn, traj, u)
            monkeypatch.setattr(sweeping, "ETA_BLOCK", 100)
            parts = recover_eta(scn, traj, u)
            monkeypatch.undo()
            np.testing.assert_allclose(parts.values, whole.values, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(parts.residuals, whole.residuals, rtol=0, atol=1e-13)

    def test_wrong_state_width_is_named(self):
        scn = robot2()
        mesh = Mesh(6.0, 4)
        u = ControlSignal.constant(mesh, [2.0 * ROBOT_R, ROBOT_R])
        traj = Trajectory(mesh, np.zeros((mesh.intervals + 1, 8)))
        with pytest.raises(ValueError, match="trajectory state width 8 != scenario state width 4"):
            recover_eta(scn, traj, u)


class TestMeshInput:
    @pytest.mark.parametrize("T", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_horizon_must_be_finite_and_positive(self, T):
        with pytest.raises(ValueError, match="horizon"):
            Mesh(T, 3)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", None])
    def test_exponent_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="exponent"):
            Mesh(6.0, m)

    def test_a_step_that_underflows_is_rejected(self):
        with pytest.raises(ValueError, match="^horizon 5e-324 leaves a zero step on 8 intervals$"):
            Mesh(5e-324, 3)

    def test_numpy_integer_exponent_is_accepted(self):
        assert Mesh(6.0, np.int64(3)).intervals == 8

    def test_nodes_are_one_read_only_linspace_per_mesh(self):
        mesh = Mesh(6.0, 10)
        nodes = mesh.nodes
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[1] = 0.0
        assert np.array_equal(nodes, np.linspace(0.0, 6.0, 2**10 + 1))
        assert np.array_equal(mesh.nodes, nodes)
        assert mesh == Mesh(6.0, 10) and hash(mesh) == hash(Mesh(6.0, 10))
        traj = Trajectory(mesh, np.zeros((mesh.intervals + 1, 2)))
        assert np.array_equal(traj.times, np.linspace(0.0, 6.0, 2**10 + 1))


# Gaps on both sides of the contact band |gap| <= CONTACT_TOL, and a deep overlap.
CONTACT_GAPS = {
    "0": 0.0,
    "+0.5tol": 0.5 * CONTACT_TOL,
    "-0.5tol": -0.5 * CONTACT_TOL,
    "+2tol": 2.0 * CONTACT_TOL,
    "-2tol": -2.0 * CONTACT_TOL,
    "-1": -1.0,
}


def pair_at_gap(family, gap):
    """A two-agent scenario (a robot pair that switches heading at contact), a state whose pair
    gap is `gap`, and a control whose drive closes that gap."""
    U = ControlSet.box([-2.0, -2.0], [2.0, 2.0])
    if family == "pedestrian":
        scn = PedestrianScenario(n=2, R=1.0, T=1.0, x0=np.array([-10.0, 0.0]), speeds=np.ones(2), control_set=U)
        x = np.array([-2.0 - gap, 0.0])
    else:
        scn = RobotScenario(
            n=2, R=1.0, T=1.0, x0=np.array([-10.0, -10.0, 0.0, 0.0]), speeds=np.ones(2),
            angles=np.deg2rad([45.0, 45.0]), angles_post=np.deg2rad([90.0, 90.0]), switch_at="contact",
            control_set=U,
        )
        d = (2.0 + gap) / SQRT2
        x = np.array([-d, -d, 0.0, 0.0])
    return scn, x


class TestContactRule:
    """Every contact decision classifies a pair gap as `models.in_contact` does."""

    def test_in_contact_is_the_band_on_both_sides(self):
        gaps = np.array(list(CONTACT_GAPS.values()))
        assert in_contact(gaps).tolist() == [True, True, True, False, False, False]
        assert not in_contact(np.nan)

    @pytest.mark.parametrize("family", ["pedestrian", "robot"])
    @pytest.mark.parametrize("gap", CONTACT_GAPS.values(), ids=CONTACT_GAPS.keys())
    def test_every_contact_decision_agrees(self, family, gap):
        scn, x = pair_at_gap(family, gap)
        assert abs(scn.pair_gaps(x)[0] - gap) <= 1e-14
        touching = abs(gap) <= CONTACT_TOL
        assert scn.contact_rows(x).tolist() == ([0] if touching else [])
        if scn.switches_at_contact:
            assert contact_switch_time(scn, np.array([0.0, 0.5]), np.array([scn.x0, x])) == (0.5 if touching else None)
        # A path resting at x, eta_T = 1 on the one row, and one atom of gamma inside the horizon.
        path = PiecewisePath(np.array([0.0, 1.0]), np.array([x, x]))
        zero = np.zeros(scn.state_dim)
        cert = DualCertificate(
            lam=1.0, eta=StepFunction.constant(1.0, [0.0]), eta_terminal=np.array([1.0]),
            p=StepFunction.constant(1.0, zero), q=StepFunction.constant(1.0, zero), gamma_atoms=((0.5, zero),),
        )
        assert check_transversality(scn, path, cert)[1] == (0.0 if touching else 1.0)
        assert check_nonatomicity(cert, path, scn) == (0 if touching else 1)
        # The drive pushes the pair together while the trajectory rests: an active row takes the push.
        mesh = Mesh(1.0, 1)
        prof = recover_eta(scn, Trajectory(mesh, np.array([x, x, x])), ControlSignal.constant(mesh, [1.0, 0.0]))
        assert (prof.values[:, 0] > 0.0).tolist() == [touching, touching]


def project_onto_order_cone(y, R):
    """P_C(y) for C = {x : x_{j+1} - x_j >= 2R}, by pool-adjacent-violators on z_j = y_j - 2R j:
    the isotonic regression of z, shifted back.  Uses no package code."""
    z = np.asarray(y, dtype=float) - 2.0 * R * np.arange(len(y))
    blocks = []  # [sum, count] of each pooled block, left to right
    for v in z:
        blocks.append([v, 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            s, c = blocks.pop()
            blocks[-1][0] += s
            blocks[-1][1] += c
    fitted = np.concatenate([np.full(c, s / c) for s, c in blocks])
    return fitted + 2.0 * R * np.arange(len(y))


@st.composite
def constant_pedestrian_chains(draw):
    """A chain of 2-8 pedestrians (R = 1, about 40 % of the start gaps closed) under one
    constant box control, m = 3-8."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spare = np.where(rng.random(n - 1) < 0.4, 0.0, rng.uniform(0.0, 4.0, n - 1))
    x0 = -20.0 + np.concatenate([[0.0], np.cumsum(2.0 + spare)])
    scn = PedestrianScenario(
        n=n, R=1.0, T=6.0, x0=x0, speeds=rng.uniform(0.0, 3.0, n), control_set=ControlSet.box([-2.0] * n, [2.0] * n)
    )
    return scn, ControlSignal.constant(Mesh(6.0, draw(st.integers(3, 8))), rng.uniform(-2.0, 2.0, n))


class TestPedestrianFlowOracle:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(constant_pedestrian_chains())
    def test_every_node_is_one_projection_of_free_flight(self, run):
        # Under a constant control each catch-up node is P_C(x0 + t_k S u), the sticky-particle flow.
        scn, u = run
        traj = simulate(scn, u)
        velocity = scn.speeds * u.values[0]
        for t, node in zip(traj.times, traj.nodes):
            ref = project_onto_order_cone(scn.x0 + t * velocity, scn.R)
            assert np.linalg.norm(node - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


class TestConcurrentSimulations:
    """The package promises that independent simulations may run concurrently: scenarios share
    read-only templates (a fixed set's NNLS block, a robot chain's layout), and each call copies
    what it writes."""

    def test_threads_sharing_scenarios_get_the_serial_nodes(self):
        chains = jostling_chains()
        ped, robots = chains[0][0], chains[2][0]  # 5 pedestrians and 3 robots: multi-row blocks
        mesh = Mesh(6.0, 9)
        jobs = []
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            jobs.append([
                (ped, walk_controls(rng, mesh, 2.0 - 0.6 * np.arange(5), -1.0, 2.0)),
                (robots, walk_controls(rng, mesh, np.array([-3.0, -1.4, 0.2]), -3.0, 1.0)),
            ])
        serial = [[simulate(scn, u).nodes.tobytes() for scn, u in job] for job in jobs]
        results, errors = [None] * len(jobs), []
        start = threading.Barrier(len(jobs))

        def work(i):
            try:
                start.wait(timeout=30)
                results[i] = [[simulate(scn, u).nodes.tobytes() for scn, u in jobs[i]] for _ in range(6)]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert results == [[nodes] * 6 for nodes in serial]
