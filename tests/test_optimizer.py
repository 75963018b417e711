"""Reduced analytic solver, formula operations, and the discrete direct solver."""

import numpy as np
import pytest

from sweepctrl.models import (
    ControlSet,
    PedestrianScenario,
    RobotScenario,
    bundled_scenario,
    bundled_scenario_path,
    parse_scenario_text,
)
from sweepctrl.optimality import verify_certificate
from sweepctrl.optimizer import (
    DiscreteSolution,
    UnsupportedScenarioError,
    locked_train_multipliers,
    pedestrian_contact_time,
    pedestrian_velocity_match,
    robot_contact_quadratic,
    robot_eta_formula,
    robot_y_quadratic,
    sample_path,
    solve_discrete,
    solve_reduced,
)
from sweepctrl.sweeping import ControlSignal, Mesh, cost as trajectory_cost, simulate

SQRT2 = np.sqrt(2.0)
R_OPT = -25.0 * SQRT2 / 21.0  # optimal segment parameter of the robot scenario


def robot2():
    return bundled_scenario("robot2.scn")


def ped2():
    return bundled_scenario("pedestrian2.scn")


def ped3():
    return bundled_scenario("pedestrian3.scn")


OFF_DIAGONAL_PAIR = (
    "model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 10 0.5\nspeeds = 1 1\nangles_deg = 225 225\n"
    "control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
)


class TestRobotFormulas:
    def test_eta_formula_at_the_optimum(self):
        scn = robot2()
        u = np.array([2.0 * R_OPT, R_OPT])
        # -(5 sqrt2 / 4) * r = 125/42 at the optimal parameter.
        assert robot_eta_formula(scn, u) == pytest.approx(125.0 / 42.0, abs=1e-12)

    def test_eta_zero_for_equal_pushed_speeds(self):
        scn = robot2()
        # s = (3, 1): pushed speeds match at u = (r, 3r); stay inside the set.
        assert robot_eta_formula(scn, np.array([0.5, 1.5])) == 0.0

    def test_eta_zero_off_the_diagonal_heading(self):
        scn = RobotScenario(
            n=2,
            R=1.0,
            T=6.0,
            x0=np.array([0.0, 0.0, 5.0, 5.0]),
            speeds=np.array([3.0, 1.0]),
            angles=np.zeros(2),
            control_set=ControlSet.box([-1, -1], [1, 1]),
        )
        assert robot_eta_formula(scn, np.array([1.0, 0.5])) == 0.0

    def test_contact_quadratic_roots(self):
        scn = robot2()
        u = np.array([2.0 * R_OPT, R_OPT])
        roots = robot_contact_quadratic(scn, u)
        assert len(roots) == 2
        # t * r = (12 - 10 sqrt2)/5 and (-12 - 10 sqrt2)/5.
        assert roots[0] == pytest.approx((12.0 - 10.0 * SQRT2) / (5.0 * R_OPT), rel=1e-12)
        assert roots[1] == pytest.approx((-12.0 - 10.0 * SQRT2) / (5.0 * R_OPT), rel=1e-12)
        assert roots[1] == pytest.approx(3.11, abs=0.01)

    def test_contact_quadratic_touching_start(self):
        # Euclidean distance exactly 2R at t = 0 puts a root at the origin.
        scn = RobotScenario(
            n=2,
            R=6.0,
            T=6.0,
            x0=np.array([-30.0, -30.0, -30.0 + 6 * SQRT2, -30.0 + 6 * SQRT2]),
            speeds=np.array([3.0, 1.0]),
            angles=np.deg2rad([225.0, 225.0]),
            control_set=ControlSet.segment([2.0, 1.0], (-3.37, 3.37), 0),
        )
        roots = robot_contact_quadratic(scn, np.array([-1.0, -0.5]))
        assert roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_contact_quadratic_diverging(self):
        scn = robot2()
        # Positive controls push both robots away from the origin; the faster
        # one leads, so the pair separates and never meets in (0, T].
        assert robot_contact_quadratic(scn, np.array([3.0, 1.5])) == []

    def test_contact_quadratic_without_contact(self):
        # The pair moves along the diagonal, 6.7 from it: the relative motion misses the disk
        # of radius 2R, so the discriminant is negative.
        scn = parse_scenario_text(OFF_DIAGONAL_PAIR)
        d1, d2 = scn.x0[2] - scn.x0[0], scn.x0[3] - scn.x0[1]
        assert abs(d1 - d2) / SQRT2 > 2.0 * scn.R
        assert robot_contact_quadratic(scn, np.array([1.0, -1.0])) == []

    @pytest.mark.parametrize("v", [1e-170, -1e-170])
    def test_contact_quadratic_of_an_underflowing_relative_speed_is_linear(self, v):
        # A touching start (3-4-5) whose relative speed d squares to 0.0: the quadratic formula
        # would divide by 2a = 0, the linear root -c/b gives the contact at t = 0.
        scn = parse_scenario_text(OFF_DIAGONAL_PAIR.replace("R = 1", "R = 2.5").replace("10 0.5", "3 4"))
        assert v * v == 0.0
        assert robot_contact_quadratic(scn, np.array([0.0, v])) == [0.0]

    def test_y_quadratic_off_the_diagonal_has_no_root(self):
        # |dx1 - dx2| = 9.5 > 2 sqrt(2) R: the discriminant is negative.
        assert robot_y_quadratic(parse_scenario_text(OFF_DIAGONAL_PAIR)) == []

    def test_y_quadratic_published_roots(self):
        roots = robot_y_quadratic(robot2())
        assert roots == pytest.approx([5.0 - 3.0 * SQRT2, 5.0 + 3.0 * SQRT2], abs=1e-12)

    def test_y_quadratic_touching_start_has_zero_root(self):
        scn = RobotScenario(
            n=2,
            R=6.0,
            T=6.0,
            x0=np.array([-30.0, -30.0, -30.0 + 6 * SQRT2, -30.0 + 6 * SQRT2]),
            speeds=np.array([3.0, 1.0]),
            angles=np.deg2rad([225.0, 225.0]),
            control_set=ControlSet.segment([2.0, 1.0], (-3.37, 3.37), 0),
        )
        roots = robot_y_quadratic(scn)
        assert min(abs(y) for y in roots) < 1e-9

    @pytest.mark.parametrize("R_scale", [0.5, 1.0, 2.0])
    def test_roots_satisfy_their_quadratics(self, R_scale):
        # Brute-force substitution oracle for both quadratics.
        scn = RobotScenario(
            n=2,
            R=6.0 * R_scale,
            T=6.0,
            x0=np.array([-30.0, -30.0, -20.0, -20.0]),
            speeds=np.array([3.0, 1.0]),
            angles=np.deg2rad([225.0, 225.0]),
            control_set=ControlSet.segment([2.0, 1.0], (-3.37, 3.37), 0),
        ) if R_scale <= 1.0 else None
        if scn is None:
            # Doubled radius: the start would overlap; shift the second agent out.
            scn = RobotScenario(
                n=2,
                R=12.0,
                T=6.0,
                x0=np.array([-40.0, -40.0, -20.0, -20.0]),
                speeds=np.array([3.0, 1.0]),
                angles=np.deg2rad([225.0, 225.0]),
                control_set=ControlSet.segment([2.0, 1.0], (-3.37, 3.37), 0),
            )
        ssum = scn.x0[0] + scn.x0[1] - scn.x0[2] - scn.x0[3]
        dist2 = (scn.x0[0] - scn.x0[2]) ** 2 + (scn.x0[1] - scn.x0[3]) ** 2
        for y in robot_y_quadratic(scn):
            assert abs(8 * y * y + 4 * ssum * y - (4 * scn.R**2 - dist2)) < 1e-9
        u = np.array([2.0 * R_OPT, R_OPT])
        d = scn.speeds[1] * u[1] - scn.speeds[0] * u[0]
        th = scn.angles[0]
        for t in robot_contact_quadratic(scn, u):
            val = (
                d * d * t * t
                + 2 * d * ((scn.x0[2] - scn.x0[0]) * np.cos(th) + (scn.x0[3] - scn.x0[1]) * np.sin(th)) * t
                + dist2
                - 4 * scn.R**2
            )
            assert abs(val) < 1e-9


class TestPedestrianFormulas:
    def test_two_participant_contact_time(self):
        scn = ped2()
        t1 = pedestrian_contact_time(scn, np.array([1.8, 1.8]))
        assert t1 == pytest.approx(1.0 / 1.8, abs=1e-12)

    def test_initial_contact_is_time_zero(self):
        scn = ped3()
        assert pedestrian_contact_time(scn, np.array([2.0, 2.0, 2.0]), row=1) == 0.0

    def test_three_participant_front_contact(self):
        scn = ped3()
        u = np.array([2.0, 2.0, 2.0])
        eta2_0 = pedestrian_velocity_match(scn, u, 1)
        assert eta2_0 == pytest.approx(2.0)
        t1 = pedestrian_contact_time(scn, u, row=0, neighbor_eta=eta2_0)
        assert t1 == pytest.approx(0.6)

    def test_no_contact_returns_none(self):
        scn = ped2()
        assert pedestrian_contact_time(scn, np.array([-1.0, -1.0])) is None

    def test_velocity_match_published_values(self):
        scn = ped2()
        assert pedestrian_velocity_match(scn, np.array([1.8, 1.8]), 0) == pytest.approx(5.4)
        assert pedestrian_velocity_match(scn, np.array([0.5, 2.0]), 0) == pytest.approx(0.0)
        eta = locked_train_multipliers(ped3(), np.array([2.0, 2.0, 2.0]), [0, 1])
        assert eta == pytest.approx([20.0 / 3.0, 16.0 / 3.0])

    def test_locked_train_matches_single_equation_chain(self):
        scn = ped3()
        u = np.array([2.0, 2.0, 2.0])
        eta = locked_train_multipliers(scn, u, [0, 1])
        # Cross-check against the two coupled velocity-matching equations.
        assert 2 * eta[0] == pytest.approx(eta[1] + 8 * u[0] - 4 * u[1])
        assert 2 * eta[1] == pytest.approx(eta[0] + 4 * u[1] - 2 * u[2])

    @pytest.mark.parametrize("row", [-2, -1, 2, 5, 0.5, np.int64(3)])
    def test_a_row_outside_the_chain_is_named(self, row):
        scn, u = ped3(), np.array([2.0, 2.0, 2.0])
        calls = (
            lambda: pedestrian_contact_time(scn, u, row=row),
            lambda: pedestrian_velocity_match(scn, u, row),
            lambda: locked_train_multipliers(scn, u, [0, row]),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"pair row {row} is not an integer in 0..1"):
                call()

    def test_a_repeated_row_is_named(self):
        with pytest.raises(ValueError, match="pair row 1 given twice"):
            locked_train_multipliers(ped3(), np.array([2.0, 2.0, 2.0]), [1, 1])


class TestSolveReducedRobot:
    def test_published_headline_values(self):
        sol = solve_reduced(robot2())
        assert sol.control == pytest.approx([-3.37, -1.68], abs=0.01)
        assert sol.report["t1"] == pytest.approx(3.11, abs=0.01)
        assert sol.report["eta1"] == pytest.approx(2.97, abs=0.01)
        assert sol.cost == pytest.approx(36.0, abs=0.5)
        a, b, c = sol.reduced_cost
        assert a == pytest.approx(441.0, rel=0.005)
        assert b == pytest.approx(1484.92, rel=0.005)
        assert c == pytest.approx(1286.0, rel=0.005)

    def test_both_branches_reported_with_equal_cost(self):
        sol = solve_reduced(robot2())
        assert len(sol.cases) == 2
        assert sol.cases[0].cost == pytest.approx(sol.cases[1].cost, abs=1e-9)
        assert sol.cases[0].y > sol.cases[1].y
        assert not sol.cases[0].ordering_preserved  # presented branch crosses
        assert sol.cases[1].ordering_preserved
        assert sol.simulation_path is sol.cases[1].path

    def test_certificate_passes_at_rounding_tolerance(self):
        sol = solve_reduced(robot2())
        assert sol.verification.passed
        rep = verify_certificate(sol.scenario, sol.path, sol.control, sol.certificate, tol=0.05)
        assert rep.passed

    def test_published_dual_values(self):
        sol = solve_reduced(robot2())
        assert np.allclose(sol.report["q"], [0.0, 1.59, 0.0, 2.38], atol=0.05)
        assert np.allclose(sol.report["p_T"], [-7.17, -7.17, 7.25, 7.25], atol=0.05)
        assert np.allclose(
            sol.report["gamma_from_contact"], [-7.17, -8.76, 7.25, 4.87], atol=0.05
        )

    def test_simulation_branch_matches_resimulation(self):
        sol = solve_reduced(robot2())
        mesh = Mesh(sol.scenario.T, 14)
        traj = simulate(sol.scenario, ControlSignal.constant(mesh, sol.control))
        vmax = float(np.max(np.abs(sol.scenario.speeds * sol.control)))
        assert np.linalg.norm(traj.terminal - sol.simulation_path.terminal) <= 5 * mesh.h * vmax

    def test_cost_matches_own_trajectory(self):
        sol = solve_reduced(robot2())
        xT = sol.path.terminal
        assert sol.cost == pytest.approx(0.5 * float(xT @ xT), abs=1e-9)


class TestSolveReducedPedestrianPair:
    def test_published_headline_values(self):
        sol = solve_reduced(ped2())
        assert sol.control[1] == 1.8  # closed form 3240/1800, exactly representable
        assert sol.report["t1"] == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert sol.report["eta_t1"] == pytest.approx(5.4, abs=1e-9)
        assert np.allclose(sol.report["q"], [0.225, 0.9], atol=1e-12)
        assert np.allclose(sol.report["p_T"], [-2.4, 2.4], atol=1e-12)
        assert np.allclose(sol.report["gamma_from_contact"], [-2.6, 1.5], atol=0.03)
        assert np.allclose(sol.report["terminal_state"], [-3.0, 3.0], atol=1e-6)
        assert sol.cost == pytest.approx(9.0, abs=1e-9)

    def test_reduced_cost_expression(self):
        # J(r) = 0.5[(30r - 57)^2 + (30r - 51)^2] = 900 r^2 - 3240 r + 2925.
        sol = solve_reduced(ped2())
        assert sol.reduced_cost == pytest.approx((900.0, -3240.0, 2925.0))
        # The stationary point is the published fraction 3240/1800.
        a, b, _ = sol.reduced_cost
        assert -b / (2 * a) == 1.8

    def test_certificate_exact(self):
        sol = solve_reduced(ped2())
        rep = verify_certificate(sol.scenario, sol.path, sol.control, sol.certificate, tol=1e-9)
        assert rep.passed

    def test_initial_contact_pair(self):
        # Gap exactly 2R at the start: the locked phase covers [0, T] and the
        # optimum drives the pair to straddle the doorway symmetrically.
        scn = PedestrianScenario(
            n=2,
            R=3.0,
            T=6.0,
            x0=np.array([-54.0, -48.0]),
            speeds=np.array([8.0, 2.0]),
            control_set=ControlSet.segment([1.0, 1.0], (-1.8, 1.8), 0),
        )
        sol = solve_reduced(scn)
        assert sol.report["t1"] == 0.0
        assert sol.control[0] == pytest.approx(1.7, abs=1e-12)
        assert np.allclose(sol.path.terminal, [-3.0, 3.0], atol=1e-9)
        assert sol.cost == pytest.approx(9.0, abs=1e-9)
        assert sol.verification.passed
        traj = simulate(scn, ControlSignal.constant(Mesh(6.0, 10), sol.control))
        assert np.allclose(traj.terminal, sol.path.terminal, atol=1e-9)

    def test_initial_contact_gap_rounding_below_2R_gives_contact_time_zero(self):
        # x0[1] - x0[0] - 2R rounds to -1.8e-15: a touching start, not a contact before t = 0.
        text = bundled_scenario_path("pedestrian2.scn").read_text()
        text = text.replace("R = 3", "R = 0.5206151166111441")
        text = text.replace("x0 = -60 -48", "x0 = -29.74084119416171 -28.699610960939424")
        sol = solve_reduced(parse_scenario_text(text))
        assert sol.report["t1"] == 0.0
        assert sol.contact_schedule == ((0.0, 0),)
        assert sol.verification.passed


    def test_interior_optimum_near_the_bound_gets_a_neutral_psi(self):
        # u = 1.79828623 lies 1.7e-3 inside the bound 1.8: psi = u would not
        # maximize there, so the free-phase psi must have no link component.
        text = bundled_scenario_path("pedestrian2.scn").read_text()
        text = text.replace("R = 3", "R = 0.9817003402013244")
        text = text.replace("x0 = -60 -48", "x0 = -37.49912854852485 -32.56549130321504")
        text = text.replace("speeds = 8 2", "speeds = 3.9912163647618644 2.5024309879776903")
        sol = solve_reduced(parse_scenario_text(text))
        assert sol.control[0] == pytest.approx(1.79828623, abs=1e-8)
        assert sol.verification.entry("6-maximization").residual <= 1e-12
        assert sol.verification.passed


class TestSolveReducedPedestrianTriple:
    def test_published_headline_values(self):
        sol = solve_reduced(ped3())
        assert np.allclose(sol.control, [2.0, 2.0, 2.0])
        assert sol.report["t1"] == 0.6
        assert sol.report["t2"] == 0.0
        assert np.allclose(
            sol.report["post_contact_slopes"], [28.0 / 3.0, 22.0 / 3.0, 34.0 / 3.0], atol=1e-9
        )
        assert np.allclose(
            sol.report["p_T"], [-20.0 / 3.0, 92.0 / 15.0, -262.0 / 15.0], atol=1e-9
        )
        assert np.allclose(
            sol.report["gamma"], [-23.0 / 3.0, -13.0 / 15.0, -457.0 / 15.0], atol=1e-9
        )

    def test_case_two_rejected_with_contradiction(self):
        sol = solve_reduced(ped3())
        assert len(sol.rejected_cases) == 1
        assert "s2*u2" in sol.rejected_cases[0]

    def test_certificate_exact_and_consistent_path(self):
        sol = solve_reduced(ped3())
        rep = verify_certificate(sol.scenario, sol.path, sol.control, sol.certificate, tol=1e-9)
        assert rep.passed
        # The certified path runs the locked train at the common slope.
        v_arc = sol.path.velocity(3.0)
        assert np.allclose(v_arc, 28.0 / 3.0, atol=1e-12)
        assert sol.cost == pytest.approx(90.0, abs=1e-9)

    def test_resimulation_matches_certified_path(self):
        sol = solve_reduced(ped3())
        mesh = Mesh(6.0, 14)
        traj = simulate(sol.scenario, ControlSignal.constant(mesh, sol.control))
        assert np.linalg.norm(traj.terminal - sol.path.terminal) <= 5 * mesh.h * 16.0


class TestRobotQuadrantVariant:
    """First-quadrant pair on the 45-degree diagonal with the far robot pushing.

    The rear (near-origin) robot is slow, the far robot fast, so the
    optimum drives both toward the origin through contact, mirroring the
    published third-quadrant geometry.  Exercises the heading-switch
    plumbing (a declared switch at contact to the same diagonal heading)
    and the branch validations away from the published data.
    """

    def scenario(self):
        return parse_scenario_text(
            "model = robot\nn = 2\nR = 6\nT = 6\nx0 = 10 10 20 20\nspeeds = 1 3\n"
            "angles_deg = 45 45\nangles_deg_post = 45 45\nswitch_at = contact\n"
            "control.kind = segment\ncontrol.link = 2 1\n"
            "control.bounds = -3.37 3.37\ncontrol.bound_on = 1\n"
        )

    def test_solution_is_internally_consistent(self):
        scn = self.scenario()
        sol = solve_reduced(scn)
        assert sol.verification.passed
        # Contact really happens inside the horizon and the multiplier pushes.
        t1 = sol.report["t1"]
        assert 0.0 < t1 <= 6.0
        assert sol.report["eta1"] > 0.0
        # The y-roots are shared with the mirrored published data (same gaps).
        roots = robot_y_quadratic(scn)
        assert roots == pytest.approx([5 - 3 * SQRT2, 5 + 3 * SQRT2], abs=1e-12)

    def test_simulation_tracks_the_consistent_branch(self):
        scn = self.scenario()
        sol = solve_reduced(scn)
        mesh = Mesh(6.0, 12)
        traj = simulate(scn, ControlSignal.constant(mesh, sol.control))
        vmax = float(np.max(np.abs(scn.speeds * sol.control)))
        err = np.linalg.norm(traj.terminal - sol.simulation_path.terminal)
        assert err <= 5 * mesh.h * max(vmax, 1.0)

    def test_mixed_headings_rejected(self):
        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 6\nT = 6\nx0 = -30 -30 -20 -20\nspeeds = 3 1\n"
            "angles_deg = 225 225\nangles_deg_post = 45 45\nswitch_at = contact\n"
            "control.kind = segment\ncontrol.link = 2 1\n"
            "control.bounds = -3.37 3.37\ncontrol.bound_on = 1\n"
        )
        with pytest.raises(UnsupportedScenarioError, match="heading"):
            solve_reduced(scn)

    def test_unequal_post_contact_headings_rejected(self):
        # The second robot would turn off the diagonal at contact; the template keeps one heading.
        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 6\nT = 6\nx0 = -30 -30 -20 -20\nspeeds = 3 1\n"
            "angles_deg = 225 225\nangles_deg_post = 225 45\nswitch_at = contact\n"
            "control.kind = segment\ncontrol.link = 2 1\n"
            "control.bounds = -3.37 3.37\ncontrol.bound_on = 1\n"
        )
        with pytest.raises(UnsupportedScenarioError, match="common heading"):
            solve_reduced(scn)


def touching_pair():
    """The pair of `TestSolveReducedPedestrianPair.test_initial_contact_pair`: contact from t = 0."""
    return PedestrianScenario(
        n=2,
        R=3.0,
        T=6.0,
        x0=np.array([-54.0, -48.0]),
        speeds=np.array([8.0, 2.0]),
        control_set=ControlSet.segment([1.0, 1.0], (-1.8, 1.8), 0),
    )


def pair_touching_at_T():
    """A pedestrian pair whose optimal push closes the gap exactly at T = 3 (t1 = T, eta = 0 on
    [0, T) and eta_T = 3)."""
    return parse_scenario_text(
        "model = pedestrian\nn = 2\nR = 3\nT = 3\nx0 = -29 -5\nspeeds = 6 2\n"
        "control.kind = segment\ncontrol.link = 1 1\ncontrol.bounds = -4 4\n"
    )


class TestCertificateRule:
    """Every template certificate is fixed by eta, eta_T and q: lambda = 1, p constant at
    p(T) = -(x(T) + A^T eta_T), an atom of gamma at each inner jump of q equal to the jump and a
    last atom (T, p(T) - q(T-)); the cost is `sweeping.cost` of the path.  Checked bit for bit
    on each branch of the two templates."""

    @pytest.mark.parametrize(
        "make",
        [robot2, ped2, ped3, touching_pair, pair_touching_at_T, lambda: TestRobotQuadrantVariant().scenario()],
        ids=["robot2", "pedestrian2", "pedestrian3", "pair-touching-start", "pair-contact-at-T",
             "robot-quadrant"],
    )
    def test_p_gamma_and_cost_follow_from_eta_and_q(self, make):
        sol = solve_reduced(make())
        scn, cert = sol.scenario, sol.certificate
        T = scn.T
        pT = -(sol.path.terminal + scn.sweeping_set().normals.T @ cert.eta_terminal)
        assert cert.lam == 1.0
        assert cert.p.times.tolist() == [0.0, T] and cert.p.values.shape == (1, scn.state_dim)
        assert cert.p.values[0].tobytes() == pT.tobytes()
        q = cert.q
        expected = [(float(q.times[k]), q.values[k] - q.values[k - 1]) for k in range(1, len(q.values))]
        expected.append((T, pT - q.values[-1]))
        assert [t for t, _ in cert.gamma_atoms] == [t for t, _ in expected]
        assert [v.tobytes() for _, v in cert.gamma_atoms] == [v.tobytes() for _, v in expected]
        assert sol.cost == trajectory_cost(sol.path) == sol.report["cost"]
        for case in sol.cases:
            assert case.cost == trajectory_cost(case.path)
        p_key = "certified_p_T" if "certified_p_T" in sol.report else "p_T"
        assert sol.report[p_key] == pT.tolist()
        assert sol.verification.passed


class TestUnsupportedTemplates:
    def test_interleaved_contacts_rejected(self):
        scn = PedestrianScenario(
            n=3,
            R=3.0,
            T=6.0,
            x0=np.array([-60.0, -48.0, -36.0]),  # both gaps open
            speeds=np.array([8.0, 4.0, 2.0]),
            control_set=ControlSet.box([-2, -2, -2], [2, 2, 2]),
        )
        with pytest.raises(UnsupportedScenarioError, match="solve_discrete|rear pair"):
            solve_reduced(scn)

    def test_a_pair_with_a_vanishing_speed_is_rejected(self):
        # The certificate divides psi by each speed: 5e-324 would overflow it.
        text = bundled_scenario_path("pedestrian2.scn").read_text()
        assert "speeds = 8 2" in text
        with pytest.raises(UnsupportedScenarioError, match="^analytic pair template needs every speed at least 1e-100$"):
            solve_reduced(parse_scenario_text(text.replace("speeds = 8 2", "speeds = 8 5e-324")))

    def test_robot_triple_rejected(self):
        scn = RobotScenario(
            n=3,
            R=1.0,
            T=6.0,
            x0=np.array([0.0, 0.0, 5.0, 5.0, 10.0, 10.0]),
            speeds=np.array([3.0, 2.0, 1.0]),
            angles=np.deg2rad([225.0] * 3),
            control_set=ControlSet.box([-1] * 3, [1] * 3),
        )
        with pytest.raises(UnsupportedScenarioError):
            solve_reduced(scn)


TOUCHING_R = repr(float(3.0 / SQRT2))  # robots 3 apart on both axes touch


class TestPairTemplateOutcomes:
    """Both families take one rule: a branch needs the pair to press (eta1 = e r > 0), a
    touching start is contact from t = 0, and the contact-free rival ranges over U only."""

    @pytest.mark.parametrize(
        "text",
        [
            "model = pedestrian\nn = 2\nR = 2\nT = 4\nx0 = -30 -25\nspeeds = 4 6\ncontrol.kind = segment\n"
            "control.link = 1 1\ncontrol.bounds = -2.9 -2.5\n",
            "model = pedestrian\nn = 2\nR = 2\nT = 4\nx0 = -30 -26\nspeeds = 4 6\ncontrol.kind = segment\n"
            "control.link = 1 1\ncontrol.bounds = -2.9 -2.5\n",
            "model = robot\nn = 2\nR = 5.5\nT = 9\nx0 = 20 20 40 40\nspeeds = 3 4\nangles_deg = 45 45\n"
            "control.kind = segment\ncontrol.link = 1 2\ncontrol.bounds = -3.7 -2.6\n",
            f"model = robot\nn = 2\nR = {TOUCHING_R}\nT = 6\nx0 = -32 -32 -29 -29\nspeeds = 2 3\n"
            "angles_deg = 225 225\ncontrol.kind = segment\ncontrol.link = 1 1\ncontrol.bounds = 0.5 2.5\n",
        ],
        ids=["ped-front-runner-faster", "ped-front-runner-faster-touching", "robot-zero-outside-U",
             "robot-touching-pressed"],
    )
    def test_forced_contact_matches_the_direct_search(self, text):
        scn = parse_scenario_text(text)
        sol = solve_reduced(scn)
        assert sol.verification.passed
        assert sol.cost == pytest.approx(solve_discrete(scn, m=8, budget=300).cost, rel=1e-6)

    def test_touching_start_free_to_separate_is_refused(self):
        # Pressing moves the pair away from the origin; separating toward it is cheaper.
        scn = parse_scenario_text(
            f"model = robot\nn = 2\nR = {TOUCHING_R}\nT = 6\nx0 = 18 18 21 21\nspeeds = 1 1.5\n"
            "angles_deg = 45 45\ncontrol.kind = segment\ncontrol.link = 2 1\ncontrol.bounds = -3 3\n"
        )
        with pytest.raises(UnsupportedScenarioError):
            solve_reduced(scn)
        assert solve_discrete(scn, m=8, budget=300).cost < 0.5 * float(scn.x0 @ scn.x0)


class TestSolveDiscrete:
    def test_two_pedestrians_near_reduced_optimum(self):
        sol = solve_discrete(ped2(), m=10, budget=500)
        assert isinstance(sol, DiscreteSolution)
        assert sol.control.values[0][1] == pytest.approx(1.8, abs=0.02)
        assert sol.cost == pytest.approx(9.0, rel=0.02)
        assert sol.converged

    def test_robot_near_reduced_optimum(self):
        sol = solve_discrete(robot2(), m=10, budget=500)
        assert sol.cost == pytest.approx(36.0, rel=0.02)

    def test_parked_agent_leaves_a_free_scalar_problem(self):
        # One agent parked far behind with zero speed: the free agent's
        # optimum is the clipped scalar formula u = -x0/(T s).
        scn = PedestrianScenario(
            n=2,
            R=3.0,
            T=6.0,
            x0=np.array([-1000.0, -24.0]),
            speeds=np.array([0.0, 8.0]),
            control_set=ControlSet.box([-2, -2], [2, 2]),
        )
        sol = solve_discrete(scn, m=8, budget=800)
        assert sol.control.values[0][1] == pytest.approx(24.0 / 48.0, abs=0.01)
        assert abs(sol.trajectory.terminal[1]) < 0.2
        assert sol.cost == pytest.approx(0.5 * 1000.0**2, rel=1e-3)

    def test_more_starts_never_hurt(self):
        j0 = solve_discrete(ped2(), m=8, budget=400, extra_starts=0).cost
        j3 = solve_discrete(ped2(), m=8, budget=1200, extra_starts=3, seed=5).cost
        assert j3 <= j0 + 1e-12

    def test_cost_converges_in_mesh(self):
        target = 9.0
        errs = [abs(solve_discrete(ped2(), m=m, budget=400).cost - target) for m in (6, 8, 10)]
        assert all(e2 <= e1 + 1e-3 for e1, e2 in zip(errs, errs[1:]))

    def test_localization_report_at_reference(self):
        red = solve_reduced(ped2())
        sol = solve_discrete(
            ped2(), m=8, budget=50, reference=(red.path, red.control), localization_radius=0.0
        )
        assert sol.localization is not None
        assert sol.localization["control_term"] < 1e-12
        assert sol.localization["velocity_term"] < 0.5  # contact-interval mismatch only
        assert sol.cost == pytest.approx(red.cost, rel=0.02)

    @pytest.mark.parametrize("name", ["robot2.scn", "pedestrian2.scn", "pedestrian3.scn"])
    @pytest.mark.parametrize("m", [6, 10])
    def test_localization_matches_a_loop_over_midpoints(self, name, m):
        scn = bundled_scenario(name)
        red = solve_reduced(scn)
        sol = solve_discrete(scn, m=m, budget=3, reference=(red.path, red.control))
        h = sol.mesh.h
        vel = sol.trajectory.velocities()
        v_pen = u_pen = 0.0
        for k, tm in enumerate(sol.mesh.nodes[:-1] + 0.5 * h):
            dv = vel[k] - red.path.velocity(tm)
            du = sol.control.values[k] - np.asarray(red.control, dtype=float)
            v_pen += 0.5 * h * float(dv @ dv)
            u_pen += 0.5 * h * float(du @ du)
        got = sol.localization
        assert got["velocity_term"] == pytest.approx(v_pen, rel=1e-12, abs=1e-300)
        assert got["control_term"] == pytest.approx(u_pen, rel=1e-12, abs=1e-300)
        assert got["total"] == pytest.approx(v_pen + u_pen, rel=1e-12, abs=1e-300)

    def test_piecewise_refinement_does_not_regress(self):
        base = solve_discrete(ped2(), m=5, budget=300)
        pw = solve_discrete(ped2(), m=5, budget=2000, piecewise=True)
        assert pw.cost <= base.cost + 1e-9

    def test_piecewise_refinement_on_box_controls(self):
        base = solve_discrete(ped3(), m=4, budget=200)
        pw = solve_discrete(ped3(), m=4, budget=1500, piecewise=True)
        assert pw.cost <= base.cost + 1e-9
        assert pw.control.values.shape == (16, 3)

    @pytest.mark.parametrize(
        "name, m, budget, piecewise",
        [
            ("pedestrian3.scn", 6, 13, False),
            ("robot2.scn", 6, 12, False),
            ("pedestrian2.scn", 3, 46, True),
            ("pedestrian3.scn", 3, 21, True),
        ],
    )
    def test_search_never_exceeds_its_budget(self, name, m, budget, piecewise):
        sol = solve_discrete(bundled_scenario(name), m=m, budget=budget, piecewise=piecewise)
        assert sol.evaluations <= budget
        assert not sol.converged

    @pytest.mark.parametrize("name, budget", [("pedestrian2.scn", 61), ("robot2.scn", 84)])
    def test_budget_spent_mid_refinement_is_not_converged(self, name, budget):
        sol = solve_discrete(bundled_scenario(name), m=3, budget=budget, piecewise=True)
        assert sol.evaluations == budget
        assert sol.converged is False

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            solve_discrete(ped2(), m=3, budget=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"budget": 2.5}, "budget"),
            ({"budget": "50"}, "budget"),
            ({"extra_starts": -1}, "extra_starts"),
            ({"extra_starts": 1.5}, "extra_starts"),
            ({"localization_radius": -1.0}, "localization_radius"),
            ({"localization_radius": float("nan")}, "localization_radius"),
            ({"localization_radius": float("inf")}, "localization_radius"),
        ],
    )
    def test_bad_search_arguments_rejected(self, kwargs, name):
        red = solve_reduced(ped2())
        with pytest.raises(ValueError, match=name):
            solve_discrete(ped2(), m=3, reference=(red.path, red.control), **kwargs)

    def test_numpy_integer_budget_accepted(self):
        sol = solve_discrete(ped2(), m=3, budget=np.int64(5))
        assert sol.evaluations == 5

    @pytest.mark.parametrize(
        "ref, message",
        [((5.0, 2.0, 2.0), "u1 = 5 outside"), ((2.0, 2.0, -3.0), "u3 = -3 outside"), ((2.0, np.nan, 2.0), "u2 = nan")],
    )
    @pytest.mark.parametrize("radius", [0.5, None])
    def test_reference_control_outside_U_rejected_naming_the_coordinate(self, ref, message, radius):
        # At radius 0.5 around (5, 2, 2) the localized box for u1 would be empty, and the search
        # would put u1 at 2, three units from the ball's centre.
        red = solve_reduced(ped3())
        with pytest.raises(ValueError, match=f"reference control outside the control set: {message}"):
            solve_discrete(ped3(), m=4, budget=20, reference=(red.path, np.array(ref)), localization_radius=radius)

    def test_reference_on_the_bound_within_tolerance_keeps_a_nonempty_box(self):
        red = solve_reduced(ped3())
        ref = np.array([2.0 + 5e-10, 1.0, 0.0])  # outside U by less than CONTROL_TOL
        sol = solve_discrete(ped3(), m=4, budget=60, reference=(red.path, ref), localization_radius=0.25)
        u = sol.control.values
        assert np.all(u[:, 0] == 2.0)
        assert np.all(np.abs(u[:, 1:] - ref[1:]) <= 0.25)


class TestDiscreteSearchCache:
    """Each distinct control is simulated once per search; a repeat is looked up, counts
    against the budget and gives the stored cost."""

    @staticmethod
    def spy(monkeypatch):
        import sweepctrl.optimizer as optimizer

        seen = []
        real = optimizer.simulate

        def recording(scn, u):
            seen.append(u.values.tobytes())
            return real(scn, u)

        monkeypatch.setattr(optimizer, "simulate", recording)
        return seen

    @pytest.mark.parametrize(
        "name, m, budget, piecewise",
        [
            ("robot2.scn", 6, 2000, False),
            ("pedestrian2.scn", 6, 2000, False),
            ("pedestrian3.scn", 6, 2000, False),
            ("robot2.scn", 3, 84, True),
        ],
    )
    def test_no_control_is_simulated_twice(self, monkeypatch, name, m, budget, piecewise):
        seen = self.spy(monkeypatch)
        sol = solve_discrete(bundled_scenario(name), m=m, budget=budget, piecewise=piecewise)
        assert len(seen) == len(set(seen)) == sol.simulations
        assert sol.simulations <= sol.evaluations

    @pytest.mark.parametrize("name", ["robot2.scn", "pedestrian2.scn", "pedestrian3.scn"])
    def test_final_trajectory_is_the_best_controls(self, name):
        scn = bundled_scenario(name)
        sol = solve_discrete(scn, m=6, budget=50)
        assert np.array_equal(sol.trajectory.nodes, simulate(scn, sol.control).nodes)
        assert sol.cost == trajectory_cost(sol.trajectory)

    @pytest.mark.parametrize("name, m, piecewise", [("robot2.scn", 6, False), ("pedestrian2.scn", 3, True)])
    def test_exhausted_budget_counts_lookups(self, monkeypatch, name, m, piecewise):
        seen = self.spy(monkeypatch)
        sol = solve_discrete(bundled_scenario(name), m=m, budget=50, piecewise=piecewise)
        assert sol.evaluations == 50
        assert sol.converged is False
        assert len(seen) == sol.simulations < 50

    @pytest.mark.parametrize(
        "name, budget, cost, simulations",
        [("pedestrian2.scn", 17, "0x1.2000000000000p+3", 16), ("robot2.scn", 19, "0x1.20000759986e5p+5", 16),
         ("pedestrian3.scn", 66, "0x1.2000000000000p+5", 61)],
    )
    def test_a_start_that_finds_the_budget_spent_ends_the_search(self, monkeypatch, name, budget, cost, simulations):
        # At m = 6, `budget` is the first start's exact evaluation count: its compass search
        # converges on the last evaluation the budget allows, and the next start's first
        # evaluation finds the budget spent.
        seen = self.spy(monkeypatch)
        scn = bundled_scenario(name)
        sol = solve_discrete(scn, 6, budget=budget)
        assert (sol.cost, sol.evaluations, sol.simulations, sol.converged) == (
            float.fromhex(cost), budget, simulations, False)
        assert len(seen) == len(set(seen)) == simulations
        full = solve_discrete(scn, 6, budget=2000)
        assert full.evaluations > budget and full.converged

    def test_a_best_control_above_the_lowest_simulated_cost_is_simulated_again(self, monkeypatch):
        # robot2 at a 1e-5 length scale: near the optimum a step lowers the cost by less than
        # SEARCH_IMPROVE_TOL, so the search keeps a control that is not the lowest-cost one it
        # simulated, and simulates that control once more for its trajectory.
        text = ROBOT2_FILE
        for old, small in [("R = 6", "R = 6e-5"), ("x0 = -30 -30 -20 -20", "x0 = -3e-4 -3e-4 -2e-4 -2e-4"),
                           ("speeds = 3 1", "speeds = 3e-5 1e-5")]:
            assert old in text
            text = text.replace(old, small)
        scn = parse_scenario_text(text)
        seen = self.spy(monkeypatch)
        sol = solve_discrete(scn, 4, budget=2000)
        assert (sol.cost, sol.evaluations, sol.simulations, sol.converged) == (
            float.fromhex("0x1.eec7d2e594c24p-29"), 62, 19, True)
        assert len(seen) == sol.simulations == len(set(seen)) + 1 and seen[-1] in seen[:-1]
        assert np.array_equal(sol.trajectory.nodes, simulate(scn, sol.control).nodes)
        assert sol.cost == trajectory_cost(sol.trajectory)


class TestBundledSearchPaths:
    """The whole search path of each bundled file at m = 10, pinned to the bit: a change to how
    `simulate` steps or fills a run that moves one node moves a cost, and so the search."""

    @pytest.mark.parametrize(
        "name, cost, evaluations, simulations, control",
        [
            ("robot2.scn", "0x1.20000759986e4p+5", 68, 19, [-3.3675317382812504, -1.6837658691406252]),
            ("pedestrian2.scn", "0x1.2000000000000p+3", 45, 16, [1.8, 1.8]),
            ("pedestrian3.scn", "0x1.2000000000000p+5", 561, 154, [2.0, 2.0, 0.5]),
        ],
    )
    def test_search_path_is_pinned(self, name, cost, evaluations, simulations, control):
        sol = solve_discrete(bundled_scenario(name), 10, budget=2000)
        assert sol.cost == float.fromhex(cost)
        assert (sol.evaluations, sol.simulations, sol.converged) == (evaluations, simulations, True)
        assert sol.control.values.tolist() == [control] * 2**10

    @pytest.mark.parametrize(
        "name, m, budget, cost, evaluations, simulations, converged, values_digest",
        [
            ("pedestrian2.scn", 3, 2000, "0x1.2000000000000p+3", 109, 80, True, "061b1ae0430995b5d38035d84f4553ef"),
            ("robot2.scn", 5, 2000, "0x1.2000000763983p+5", 642, 340, True, "22bd7d84f0000aa0346e247613d57cf5"),
            ("pedestrian3.scn", 3, 2000, "0x1.2000000000000p+5", 817, 410, True, "429b31aa3ab97984ef49b2c26c63ab80"),
            ("robot2.scn", 3, 84, "0x1.20000759986e2p+5", 84, 35, False, "f1e81b512fe6e06080499e194b77e360"),
        ],
    )
    def test_piecewise_search_path_is_pinned(
        self, name, m, budget, cost, evaluations, simulations, converged, values_digest
    ):
        # The refinement steps one interval's parameters at a time, so the digest of the whole
        # control stands for the 2^m rows.
        import hashlib

        sol = solve_discrete(bundled_scenario(name), m, budget=budget, piecewise=True)
        assert sol.cost == float.fromhex(cost)
        assert (sol.evaluations, sol.simulations, sol.converged) == (evaluations, simulations, converged)
        assert hashlib.blake2b(sol.control.values.tobytes(), digest_size=16).hexdigest() == values_digest


class TestSamplePath:
    def test_breakpoints_enter_the_grid(self):
        sol = solve_reduced(ped2())
        times, states = sample_path(sol.path, Mesh(6.0, 4))
        t1 = sol.report["t1"]
        assert np.any(np.isclose(times, t1))
        k = int(np.argmin(np.abs(times - t1)))
        assert np.allclose(states[k], sol.path.value(t1))


PED2_FILE = bundled_scenario_path("pedestrian2.scn").read_text()
PED3_FILE = bundled_scenario_path("pedestrian3.scn").read_text()
ROBOT2_FILE = bundled_scenario_path("robot2.scn").read_text()


class TestTemplateRejections:
    """Each way a scenario falls outside the two templates raises UnsupportedScenarioError naming it."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (PED2_FILE.split("control.kind")[0] + "control.kind = box\ncontrol.lo = -1.8 -1.8\ncontrol.hi = 1.8 1.8\n",
             "analytic pair template needs a linked-segment control set"),
            (PED2_FILE.replace("x0 = -60 -48", "x0 = -39 -31").replace("speeds = 8 2", "speeds = 1 1"),
             "equal pushed speeds: no contact interaction to resolve"),
            (PED2_FILE.replace("x0 = -60 -48", "x0 = -25 2").replace("speeds = 8 2", "speeds = 8 6"),
             "optimal control avoids contact"),
            (ROBOT2_FILE.replace("angles_deg = 225 225", "angles_deg = 0 0"),
             r"contact heading must satisfy cos = sin"),
            (PED3_FILE.split("control.kind")[0] + "control.kind = segment\ncontrol.link = 1 1 1\n"
             "control.bounds = -2 2\n", "analytic three-pedestrian template needs a box control set"),
            (PED3_FILE.replace("speeds = 8 4 2", "speeds = 8 2 4"),
             "initial contact does not push: outside the template"),
            (PED3_FILE.replace("speeds = 8 4 2", "speeds = 1 4 2"),
             "front pair never locks under the extremal control"),
        ],
        ids=["box-pair", "equal-pushed-speeds", "contact-free-optimum", "off-diagonal-heading", "segment-triple",
             "no-push", "no-lock"],
    )
    def test_outside_the_template(self, text, message):
        with pytest.raises(UnsupportedScenarioError, match=message):
            solve_reduced(parse_scenario_text(text))

    def test_non_positive_locked_train_multipliers(self, monkeypatch):
        # With the rear pair pushing and the front pair locking within T, both locked multipliers
        # are positive in exact arithmetic; the guard stands against rounding, so the solver's
        # multipliers are replaced here.
        import sweepctrl.optimizer as optimizer

        real = optimizer.locked_train_multipliers
        monkeypatch.setattr(
            optimizer, "locked_train_multipliers",
            lambda scn, u, rows: real(scn, u, rows) * (-1.0 if len(rows) == 2 else 1.0),
        )
        with pytest.raises(UnsupportedScenarioError, match="locked train multipliers not positive"):
            solve_reduced(ped3())

    @pytest.mark.parametrize(
        "formula, args",
        [(robot_eta_formula, ([1.0, 1.0, 1.0],)), (robot_contact_quadratic, ([1.0, 1.0, 1.0],)),
         (robot_y_quadratic, ())],
        ids=["eta", "contact-quadratic", "y-quadratic"],
    )
    def test_robot_formulas_need_two_robots(self, formula, args):
        scn = parse_scenario_text(
            "model = robot\nn = 3\nR = 6\nT = 6\nx0 = -40 -40 -25 -25 -10 -10\nspeeds = 3 2 1\n"
            "angles_deg = 225 225 225\ncontrol.kind = box\ncontrol.lo = -2 -2 -2\ncontrol.hi = 2 2 2\n"
        )
        with pytest.raises(UnsupportedScenarioError, match="applies to the two-robot model"):
            formula(scn, *args)
