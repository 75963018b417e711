"""Catch-up scheme: stepping, worked-scenario closed forms, multiplier recovery, CSV."""

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
    linearized_noncollision,
    parse_scenario_text,
)
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
from sweepctrl.tolerances import CONTACT_TOL

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
        # A free step 5e-10 outside K(x0): inside MEMBERSHIP_TOL, outside STEP_TOL.
        scn = PedestrianScenario(n=2, R=1.0, T=1.0, x0=np.array([0.0, 2.0]), speeds=np.ones(2),
                                 control_set=ControlSet.box([-1.0, -1.0], [1.0, 1.0]))
        u = np.array([1e-9, 0.0])
        mesh = Mesh(1.0, 1)
        got = catchup_step(scn.sweeping_set(), scn.g(scn.x0, u), scn.x0, mesh.h)
        first = simulate(scn, ControlSignal.constant(mesh, u)).nodes[1]
        assert got.tobytes() == first.tobytes()
        assert scn.pair_gaps(got)[0] >= 0.0


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


class TestConstructionGuards:
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
            v, _ = project_raw(C.normals[active], np.zeros(active.size), drive, np.zeros(scn.n))
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


def stepwise(scn, u):
    """The catch-up loop with one projection per interval: the reference for filled runs."""
    h, contact, x = u.mesh.h, None, scn.x0
    nodes = [x]
    for uk, tk in zip(u.values, u.mesh.nodes):
        if scn.switches_at_contact and contact is None and scn.contact_rows(x).size:
            contact = tk
        x, _ = project_raw(*scn.constraint_rows(x), x + h * scn.drive(uk, tk, contact), tol=STEP_TOL)
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
            assert np.array_equal(simulate(scn, u).nodes, stepwise(scn, u))

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

    def test_constant_runs_cost_a_few_projections(self, monkeypatch):
        import sweepctrl.sweeping as sweeping

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return project_raw(*args, **kwargs)

        monkeypatch.setattr(sweeping, "project_raw", counted)
        for scn, u in ((ped2(), PED2_U), (ped3(), PED3_U), (robot2(), [0.1, 0.05])):
            calls.clear()
            simulate(scn, ControlSignal.constant(Mesh(6.0, 14), u))
            assert len(calls) <= 16

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
        # The stepwise loop's step inputs, and the steps on a contact arc: those right after a
        # projected step taken with no contact switch pending.
        h, contact, x, after = u.mesh.h, None, scn.x0, False
        inputs, on_arc = [], []
        for uk, tk in zip(u.values, u.mesh.nodes):
            if scn.switches_at_contact and contact is None and scn.contact_rows(x).size:
                contact = tk
            y = x + h * scn.drive(uk, tk, contact)
            x, W = project_raw(*scn.constraint_rows(x), y, tol=STEP_TOL)
            inputs.append(y.tobytes())
            on_arc.append(after)
            after = bool(W.size) and not (scn.switches_at_contact and contact is None)
        calls = []

        def counted(A, c, y, *args, **kwargs):
            calls.append(y.tobytes())
            return project_raw(A, c, y, *args, **kwargs)

        monkeypatch.setattr(sweeping, "project_raw", counted)
        assert np.array_equal(simulate(scn, u).nodes, stepwise(scn, u))
        off_arc = {y for y, arc in zip(inputs, on_arc) if not arc}
        assert calls and set(calls) <= off_arc
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
        assert not calls
        simulate(ped3(), ControlSignal.constant(Mesh(6.0, 10), PED3_U))  # two rows: the spy sees NNLS
        assert calls


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
