"""Scenario construction, control sets, separation gaps, set-representation checks."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sweepctrl.models import (
    ControlSet,
    PedestrianScenario,
    RobotScenario,
    ScenarioFormatError,
    admissible_velocities_contains,
    bundled_scenario,
    bundled_scenario_path,
    distance_gap,
    linearized_noncollision,
    parse_scenario_text,
    pedestrian_g,
    pedestrian_sweeping_set,
    robot_g,
    robot_sweeping_set,
    verify_set_representation,
)
from sweepctrl.polyhedra import _project_rows
from sweepctrl.tolerances import CONTACT_TOL, CONTROL_TOL, STEP_TOL


def robot_example():
    return bundled_scenario("robot2.scn")


def pedestrian_two():
    return bundled_scenario("pedestrian2.scn")


def pedestrian_three():
    return bundled_scenario("pedestrian3.scn")


class TestSweepingSets:
    def test_robot_two_agents(self):
        P = robot_sweeping_set(2, 6.0)
        assert P.normals.tolist() == [[1.0, 1.0, -1.0, -1.0]]
        assert P.offsets.tolist() == [-12.0]

    def test_robot_three_agents(self):
        P = robot_sweeping_set(3, 6.0)
        assert P.normals.tolist() == [
            [1.0, 1.0, -1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, -1.0, -1.0],
        ]
        assert P.offsets.tolist() == [-12.0, -12.0]

    def test_robot_zero_radius(self):
        assert robot_sweeping_set(2, 0.0).offsets.tolist() == [0.0]

    def test_robot_needs_two_agents(self):
        with pytest.raises(ValueError):
            robot_sweeping_set(1, 6.0)

    def test_pedestrian_rows(self):
        P = pedestrian_sweeping_set(2, 3.0)
        assert P.normals.tolist() == [[1.0, -1.0]]
        assert P.offsets.tolist() == [-6.0]
        P3 = pedestrian_sweeping_set(3, 3.0)
        assert P3.normals.tolist() == [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]
        assert P3.offsets.tolist() == [-6.0, -6.0]
        assert pedestrian_sweeping_set(2, 0.0).offsets.tolist() == [0.0]

    def test_robot_rows_sum_to_zero_with_four_nonzeros(self):
        for n in range(2, 7):
            P = robot_sweeping_set(n, 2.5)
            for row in P.normals:
                assert row.sum() == 0.0
                assert np.count_nonzero(row) == 4
                assert sorted(row[row != 0.0]) == [-1.0, -1.0, 1.0, 1.0]


class TestPerturbationMaps:
    def test_robot_drive_matches_published_slope(self):
        scn = robot_example()
        g = robot_g(scn, scn.x0, np.array([-3.37, -1.685]), 0.0)
        # 3 * (-3.37) * cos(225 deg) = 7.149...; both coordinates equal.
        assert g[0] == pytest.approx(7.149, abs=1e-3)
        assert g[1] == pytest.approx(g[0])

    def test_robot_zero_control(self):
        scn = robot_example()
        assert np.allclose(robot_g(scn, scn.x0, np.zeros(2), 0.0), 0.0)

    def test_axis_aligned_drive(self):
        scn = RobotScenario(
            n=2,
            R=1.0,
            T=1.0,
            x0=np.array([0.0, 0.0, 5.0, 5.0]),
            speeds=np.array([1.0, 1.0]),
            angles=np.zeros(2),
            control_set=ControlSet.box([-1, -1], [1, 1]),
        )
        assert np.allclose(robot_g(scn, scn.x0, np.array([1.0, 1.0]), 0.0), [1, 0, 1, 0])

    def test_pedestrian_drive(self):
        scn = pedestrian_two()
        assert np.allclose(pedestrian_g(scn, np.array([1.8, 1.8])), [14.4, 3.6])
        assert np.allclose(pedestrian_g(scn, np.zeros(2)), 0.0)

    def test_pedestrian_three_drive(self):
        scn = pedestrian_three()
        assert np.allclose(pedestrian_g(scn, np.array([2.0, 2.0, 2.0])), [16.0, 8.0, 4.0])

    @pytest.mark.parametrize("switch_at", ["2.0", "contact"])
    def test_headings_switch_at_the_switch_time_and_agree_with_theta(self, switch_at):
        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 5 5\nspeeds = 1 1\n"
            f"angles_deg = 0 225\nangles_deg_post = 90 45\nswitch_at = {switch_at}\n"
            "control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
        )
        contact = 2.0 if switch_at == "contact" else None
        times = np.array([0.0, np.nextafter(2.0, 0.0), 2.0, 5.0])
        H = scn.headings(times, contact)
        for t, h, post in zip(times, H, (False, False, True, True)):
            th = scn.theta(t, contact)
            assert np.array_equal(th, scn.angles_post if post else scn.angles)
            assert np.array_equal(h, np.stack([np.cos(th), np.sin(th)], axis=1))
            assert np.array_equal(scn.headings(t, contact), h)

    @pytest.mark.parametrize("name", ["robot2.scn", "pedestrian2.scn", "pedestrian3.scn"])
    def test_drive_over_arrays_is_the_per_row_drive_and_its_adjoint_the_transpose(self, name):
        scn = bundled_scenario(name)
        rng = np.random.default_rng(3)
        U, Q, times = rng.standard_normal((6, scn.n)), rng.standard_normal((6, scn.state_dim)), np.linspace(0, 6, 6)
        G, psi = scn.drive(U, times), scn.drive_adjoint(Q, times)
        for u, q, t, g, p in zip(U, Q, times, G, psi):
            assert np.array_equal(scn.drive(u, t), g)
            assert np.array_equal(scn.drive_adjoint(q, t), p)
            assert float(q @ g) == pytest.approx(float(p @ u), rel=1e-12, abs=1e-12)

    def test_control_outside_set_rejected(self):
        scn = pedestrian_two()
        with pytest.raises(ValueError, match="outside"):
            pedestrian_g(scn, np.array([2.5, 2.5]))

    def test_linearity_in_control(self):
        scn = pedestrian_three()
        rng = np.random.default_rng(3)
        for _ in range(50):
            u1 = rng.uniform(-2, 2, 3)
            u2 = rng.uniform(-2, 2, 3)
            a = rng.uniform()
            lhs = pedestrian_g(scn, a * u1 + (1 - a) * u2)
            rhs = a * pedestrian_g(scn, u1) + (1 - a) * pedestrian_g(scn, u2)
            assert np.allclose(lhs, rhs)


class TestDistanceGap:
    def test_robot_initial_gap(self):
        scn = robot_example()
        assert distance_gap(scn, scn.x0, 0, 1) == pytest.approx(8.0)

    def test_coincident_centers(self):
        scn = robot_example()
        x = np.array([1.0, 2.0, 1.0, 2.0])
        assert distance_gap(scn, x, 0, 1) == pytest.approx(-2.0 * scn.R)

    def test_pedestrian_contact_pair(self):
        scn = pedestrian_three()
        assert distance_gap(scn, np.array([-60.0, -48.0, -42.0]), 1, 2) == pytest.approx(0.0)

    def test_gap_matches_polyhedron_row_under_ordering(self):
        scn = robot_example()
        C = scn.sweeping_set()
        rng = np.random.default_rng(5)
        for _ in range(200):
            base = rng.uniform(-40, 0, 2)
            incr = rng.uniform(0.1, 25.0, 2)
            x = np.concatenate([base, base + incr])
            inside = C.slack(x)[0] >= 0.0
            assert inside == (distance_gap(scn, x, 0, 1) >= 0.0)


class TestAdmissibleVelocities:
    def test_zero_velocity_admissible(self):
        scn = robot_example()
        assert admissible_velocities_contains(scn, scn.x0, np.zeros(4), 0.01)

    def test_contact_pair_separating_velocity(self):
        scn = robot_example()
        # Euclidean contact along the x-axis: centers 12 apart.
        x = np.array([0.0, 0.0, 12.0, 0.1])
        v = np.array([-1.0, 0.0, 1.0, 0.0])  # separating
        assert admissible_velocities_contains(scn, x, v, 0.01)

    def test_contact_pair_approaching_velocity(self):
        scn = robot_example()
        x = np.array([0.0, 0.0, 12.0, 0.1])
        v = np.array([5.0, 0.0, -5.0, 0.0])  # approaching
        assert not admissible_velocities_contains(scn, x, v, 0.01)

    def test_coincident_centers_raise(self):
        scn = robot_example()
        with pytest.raises(ValueError, match="coincident"):
            admissible_velocities_contains(scn, np.array([0.0, 0.0, 0.0, 0.0]), np.zeros(4), 0.01)


class TestStepRows:
    def test_robot_rows_are_sqrt2_times_the_adjacent_tangent_rows(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            scn = parse_scenario_text(
                f"model = robot\nn = {n}\nR = 1\nT = 6\nx0 = {' '.join(str(4 * i) for i in range(2 * n))}\n"
                f"speeds = {' '.join(['1'] * n)}\nangles_deg = {' '.join(['225'] * n)}\n"
                f"control.kind = box\ncontrol.lo = {' '.join(['-1'] * n)}\ncontrol.hi = {' '.join(['1'] * n)}\n"
            )
            X = rng.uniform(-30.0, 30.0, (7, 2 * n))
            Y = X + rng.normal(0.0, 1.0, X.shape)
            B, gaps = scn.step_rows(X, Y)
            assert B.shape == (7, n - 1, 2 * n) and gaps.shape == (7, n - 1)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            adjacent = [pairs.index((j, j + 1)) for j in range(n - 1)]
            for x, y, b, gap in zip(X, Y, B, gaps):
                A, c = linearized_noncollision(x, scn.R)
                np.testing.assert_allclose(b, np.sqrt(2.0) * A[adjacent], rtol=0, atol=1e-15)
                np.testing.assert_allclose(gap, (c - A @ y)[adjacent], rtol=0, atol=1e-12)

    def test_robot_rows_equal_the_sum_norm_rows_on_the_diagonal(self):
        scn = robot_example()
        B, gaps = scn.step_rows(scn.x0[None, :], scn.x0[None, :])
        np.testing.assert_allclose(B[0], scn.sweeping_set().normals, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gaps, scn.pair_gaps(scn.x0)[None, :], rtol=0, atol=1e-12)

    def test_robot_coincident_centers_raise(self):
        scn = robot_example()
        with pytest.raises(ValueError, match="coincident centers 1, 2 at node 1"):
            scn.step_rows(np.array([[0.0, 0.0, 12.0, 12.0], [1.0, 1.0, 1.0, 1.0]]), np.zeros((2, 4)))

    def test_pedestrian_rows_are_the_sweeping_set(self):
        scn = pedestrian_three()
        Y = np.array([[-60.0, -48.0, -42.0], [-10.0, -4.0, 3.0]])
        B, gaps = scn.step_rows(Y, Y)
        assert np.array_equal(B, np.broadcast_to(scn.sweeping_set().normals, (2, 2, 3)))
        assert np.array_equal(gaps, scn.pair_gaps(Y))


class TestRobotConstraintRows:
    """`RobotScenario.constraint_rows` is `linearized_noncollision` with one read-only offsets
    array for every state, which the catch-up loop never writes into."""

    @staticmethod
    def chain(n):
        return parse_scenario_text(
            f"model = robot\nn = {n}\nR = 1.5\nT = 6\nx0 = {' '.join(str(4 * (i // 2)) for i in range(2 * n))}\n"
            f"speeds = {' '.join(['1.5'] * n)}\nangles_deg = {' '.join(['225'] * n)}\n"
            f"control.kind = box\ncontrol.lo = {' '.join(['-3'] * n)}\ncontrol.hi = {' '.join(['1'] * n)}\n"
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_and_offsets_are_linearized_noncollision_bit_for_bit(self, n):
        scn = self.chain(n)
        rng = np.random.default_rng(n)
        for x in [scn.x0, *rng.uniform(-30.0, 30.0, (20, 2 * n))]:
            A, c = scn.constraint_rows(x)
            A_ref, c_ref = linearized_noncollision(x, scn.R)
            assert A.shape == A_ref.shape and A.dtype == A_ref.dtype and A.tobytes() == A_ref.tobytes()
            assert c.shape == c_ref.shape and c.dtype == c_ref.dtype and c.tobytes() == c_ref.tobytes()
            assert c_ref.flags.writeable and A.flags.writeable  # the function's arrays stay fresh

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_offsets_are_read_only_and_unchanged_by_a_simulation(self, n):
        from sweepctrl.sweeping import ControlSignal, Mesh, simulate

        scn = self.chain(n)
        c = scn.constraint_rows(scn.x0)[1]
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 0.0
        # The rear robots are driven into the front ones: most steps project onto several rows.
        u = ControlSignal.constant(Mesh(6.0, 8), -3.0 + 3.5 * np.arange(n) / (n - 1))
        traj = simulate(scn, u)
        assert np.any(scn.pair_gaps(traj.nodes[-1]) < 1e-6)
        assert scn.constraint_rows(traj.nodes[-1])[1] is c
        assert c.tolist() == [-3.0] * (n * (n - 1) // 2)

    @staticmethod
    def dense_rows(x):
        """K(x)'s rows written out pair by pair i < j, each a dense row: the reference."""
        n = len(x) // 2
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                dx, dy = float(x[2 * i]) - float(x[2 * j]), float(x[2 * i + 1]) - float(x[2 * j + 1])
                dist = math.hypot(dx, dy)
                nx, ny = dx / dist, dy / dist
                row = np.zeros(2 * n)
                row[2 * i], row[2 * i + 1], row[2 * j], row[2 * j + 1] = -nx, -ny, nx, ny
                rows.append(row)
        return np.array(rows)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rows_and_nnls_block_match_dense_pair_rows_byte_for_byte(self, n):
        scn = self.chain(n)
        rng = np.random.default_rng(100 + n)
        for x in [scn.x0, *rng.uniform(-30.0, 30.0, (40, 2 * n)), *rng.normal(0.0, 1e-3, (10, 2 * n))]:
            ref = self.dense_rows(x)
            A, c, E = scn.catchup_rows(x)
            for got in (A, scn.constraint_rows(x)[0], linearized_noncollision(x, scn.R)[0]):
                assert got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert c is scn.constraint_rows(x)[1]
            # E's block is -A^T, zeros included (-0.0), C-contiguous, with a spare last row.
            assert E.shape == (2 * n + 1, len(ref)) and E.flags.c_contiguous
            assert E[: 2 * n].tobytes() == (-ref.T).tobytes()

    @pytest.mark.parametrize("n, i, j", [(3, 0, 2), (4, 1, 3), (5, 3, 4), (6, 0, 5)])
    def test_a_coincident_pair_raises_naming_both_robots(self, n, i, j):
        scn = self.chain(n)
        x = np.random.default_rng(n).uniform(-30.0, 30.0, 2 * n)
        x[2 * j : 2 * j + 2] = x[2 * i : 2 * i + 2]
        for call in (scn.catchup_rows, lambda x: scn.constraint_rows(x), lambda x: linearized_noncollision(x, scn.R)):
            with pytest.raises(ValueError, match=f"coincident centers {i + 1}, {j + 1}: gradient undefined"):
                call(x)

    def test_a_non_finite_state_gives_a_non_finite_block_the_projection_refuses(self):
        scn = self.chain(3)
        x = scn.x0.copy()
        x[3] = np.nan
        A, c, E = scn.catchup_rows(x)
        assert np.isnan(A).any() and E.shape == (7, 3)
        assert E[:6].tobytes() == (-A.T).tobytes()  # NaN included
        g = scn.drive(np.array([-3.0, -1.0, 1.0])) * (6.0 / 2**8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ValueError comes before any numpy warning
            with pytest.raises(ValueError, match="^projection input must not contain infs or NaNs$"):
                _project_rows(A, c, x + g, STEP_TOL, E)


def parent_pair_row(xs, R):
    """K(x)'s one row of two robots in the float formula `pair_row` wrote out before it read
    `constraint_rows` back: hypot, then two divisions."""
    dx, dy = xs[0] - xs[2], xs[1] - xs[3]
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        raise ValueError("coincident centers 1, 2: gradient undefined")
    nx, ny = dx / dist, dy / dist
    return [-nx, -ny, nx, ny], -2.0 * R


class TestPairRowReference:
    """`pair_row` is `constraint_rows` read back as floats, with the bits of the formula it had."""

    @staticmethod
    def states(count=1200):
        """Derandomized two-robot states over many scales, with NaN, inf, signed zeros and coincident
        centres mixed in."""
        rng = np.random.default_rng(20181105)
        special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
        for k in range(count):
            scale = 10.0 ** rng.uniform(-300, 300) if k % 3 == 0 else 30.0
            x = (rng.uniform(-1.0, 1.0, 4) * scale).tolist()
            how = k % 8
            if how == 1:
                x[2:4] = x[0:2]  # coincident centres
            elif how == 2:
                x[int(rng.integers(4))] = special[int(rng.integers(len(special)))]
            elif how == 3:
                x[2], x[3] = x[0] + special[int(rng.integers(7))], x[1]  # one axis apart by at most 5e-324
            yield x

    @pytest.mark.parametrize("R", [6.0, 0.0, 1.5])
    def test_pair_row_has_the_bits_of_the_float_formula(self, R):
        scn = parse_scenario_text(bundled_scenario_path("robot2.scn").read_text().replace("R = 6", f"R = {R}"))
        bits = lambda values: struct.pack(f"{len(values)}d", *values)
        seen = {"nan": 0, "coincident": 0}
        for xs in self.states():
            try:
                a_ref, c_ref = parent_pair_row(xs, R)
            except ValueError as exc:
                seen["coincident"] += 1
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    scn.pair_row(xs)
                continue
            a, c = scn.pair_row(xs)
            assert type(c) is float and all(type(v) is float for v in a)
            assert bits([*a, c]) == bits([*a_ref, c_ref]), xs
            seen["nan"] += math.isnan(a_ref[0])
        assert seen["nan"] >= 50 and seen["coincident"] >= 150


class TestSetRepresentation:
    def test_no_disagreements_on_ordered_samples(self):
        scn = robot_example()
        report = verify_set_representation(scn, samples=1000, seed=7)
        assert report.disagreements == 0
        assert report.flagged_out_of_region > 0  # sampler straddles the ordering region
        assert report.samples == 1000

    def test_reference_at_example_start(self):
        scn = robot_example()
        report = verify_set_representation(scn, samples=500, seed=11)
        assert report.disagreements == 0

    def test_far_from_the_origin_the_descriptions_round_apart(self):
        # At |x| ~ 1e16 floats are 2 apart.  C's row sums x_i1 + x_i2 - x_j1 - x_j2 through a
        # partial sum near 2e16, where floats are 4 apart, so it rounds the 2R = 2 margin away;
        # the all-pairs sum and the distance test take exact coordinate differences first.  Near
        # the boundary the three descriptions then disagree.
        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 1\nT = 6\nx0 = 1e16 1e16 10000000000000004 10000000000000004\n"
            "speeds = 1 1\nangles_deg = 225 225\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
        )
        report = verify_set_representation(scn, samples=2000, seed=1)
        assert report.disagreements > 0
        assert verify_set_representation(robot_example(), samples=2000, seed=1).disagreements == 0


class TestControlSets:
    def test_segment_membership_and_vertices(self):
        U = ControlSet.segment([2.0, 1.0], (-3.37, 3.37), bound_on=0)
        assert U.contains(np.array([-3.37, -1.685]))
        assert U.contains(np.array([3.37, 1.685]))
        assert not U.contains(np.array([3.38, 1.69]))
        assert not U.contains(np.array([1.0, 1.0]))  # off the link line
        v = U.vertices()
        assert np.allclose(sorted(v[:, 0]), [-3.37, 3.37])

    def test_off_the_link_within_the_relative_tolerance_is_inside(self):
        # u = (4 + 3e-9, 2) is 1.2e-9 off the link line: more than CONTROL_TOL, but within
        # CONTROL_TOL * |r| at r = 2.  Twice as far off (2.4e-9) it is outside.
        U = ControlSet.segment([2, 1], [-5, 5], 0)
        u = np.array([4.0 + 3e-9, 2.0])
        assert np.abs(u - U.clamp(u)).max() > CONTROL_TOL
        assert U.contains(u) and U.violation_message(u) is None
        assert U.check_rows(np.array([u, u, [0.0, 0.0]])).tolist() == [0, 2]
        far = np.array([4.0 + 6e-9, 2.0])
        assert U.violation_message(far) == f"u = {far.tolist()} is not proportional to the link [2.0, 1.0]"

    def test_box_vertices_and_linear_max(self):
        U = ControlSet.box([-2, -2, -2], [2, 2, 2])
        assert U.vertices().shape == (8, 3)
        val, u = U.maximize_linear(np.array([8.0, 28.0, 26.0]))
        assert np.allclose(u, [2, 2, 2])
        assert val == pytest.approx(124.0)

    def test_segment_linear_max_hits_endpoint(self):
        U = ControlSet.segment([1.0, 1.0], (-1.8, 1.8), bound_on=0)
        val, u = U.maximize_linear(np.array([1.8, 1.8]))
        assert np.allclose(u, [1.8, 1.8])
        assert val == pytest.approx(6.48)

    def test_vertices_inside_and_barycentric_cover(self):
        rng = np.random.default_rng(2)
        U = ControlSet.box([-1.0, 0.0, -2.0], [2.0, 1.0, 0.5])
        verts = U.vertices()
        assert all(U.contains(v) for v in verts)
        for _ in range(100):
            u = rng.uniform(U.lo, U.hi)
            # Product of per-axis interpolation weights reproduces u exactly.
            w = np.ones(len(verts))
            for ax in range(U.dim):
                tau = (u[ax] - U.lo[ax]) / (U.hi[ax] - U.lo[ax])
                w *= np.where(verts[:, ax] == U.hi[ax], tau, 1.0 - tau)
            assert w.sum() == pytest.approx(1.0)
            assert np.allclose(w @ verts, u)

    def test_clamp(self):
        U = ControlSet.segment([1.0, 1.0], (-1.8, 1.8), bound_on=0)
        assert np.allclose(U.clamp(np.array([5.0, 5.0])), [1.8, 1.8])
        B = ControlSet.box([-2, -2], [2, 2])
        assert np.allclose(B.clamp(np.array([5.0, -7.0])), [2.0, -2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_box_bound_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ControlSet.box([bad, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ControlSet.box([0.0, 0.0], [1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_control_rejected_naming_component(self, bad):
        B = ControlSet.box([-2, -2, -2], [2, 2, 2])
        u = np.array([0.0, bad, 0.0])
        assert not B.contains(u)
        assert B.violation_message(u) == f"u2 = {bad:g} outside [-2, 2]"
        S = ControlSet.segment([2.0, 1.0], (-3.37, 3.37), bound_on=1)
        assert not S.contains(np.array([bad, 1.0]))
        assert S.violation_message(np.array([bad, 1.0])) == f"u1 = {bad:g} is not a finite number"


@st.composite
def control_set_and_row(draw):
    """A box or a segment in R^d and a row: on the set, or with NaN, +-inf, a point off the
    link, a point out of range, or the wrong width."""
    d = draw(st.integers(1, 4))
    small = st.floats(-5.0, 5.0)
    if draw(st.booleans()):
        lo = draw(hnp.arrays(float, d, elements=small))
        U = ControlSet.box(lo, lo + draw(hnp.arrays(float, d, elements=st.floats(0.0, 5.0))))
    else:
        link = draw(hnp.arrays(float, d, elements=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)))
        U = ControlSet.segment(link, (draw(small), draw(small)), draw(st.integers(0, d - 1)))
    p = U.lo + (U.hi - U.lo) * draw(hnp.arrays(float, U.lo.size, elements=st.floats(0.0, 1.0)))
    u = U.at_parameter(p)
    entry = st.floats(-10.0, 10.0) | st.sampled_from([np.nan, np.inf, -np.inf])
    change = draw(st.sampled_from(["none", "entry", "row", "width"]))
    if change == "entry":
        u[draw(st.integers(0, d - 1))] = draw(entry)
    elif change == "row":
        u = draw(hnp.arrays(float, d, elements=entry))
    elif change == "width":
        u = draw(hnp.arrays(float, draw(st.integers(1, 5).filter(lambda w: w != d)), elements=entry))
    return U, u, change


class TestControlSetAgreement:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(control_set_and_row())
    def test_contains_message_and_check_rows_agree(self, case):
        U, u, change = case
        inside = U.contains(u)
        msg = U.violation_message(u)
        try:
            U.check_rows([u])
            raised = None
        except ValueError as exc:
            raised = str(exc)
        assert inside == (msg is None) == (raised is None)
        if raised is not None:
            assert raised == f"control value on interval 0 outside the admissible set: {msg}"
        if change == "none":
            assert inside
        if change == "width":
            assert f"width {u.size}" in msg and f"width {U.dim}" in msg


def reference_first_violation(U: ControlSet, values, tol):
    """`ControlSet._first_violation` as one formula for both kinds: every row's parameters (of its
    finite entries), its distance from the span of the basis and its bounds, then the first bad row."""
    V = np.atleast_2d(np.asarray(values, dtype=float))
    if V.shape[1] != U.dim:
        return 0, f"u has width {V.shape[1]}, the control set width {U.dim}"
    finite = np.isfinite(V)
    P = U.parameters(np.where(finite, V, 0.0))
    off = np.abs(V - P @ U.basis)
    within = U.in_box(P)
    on = off.max(1) <= tol * np.maximum(1.0, np.abs(P).max(1))
    good = on & within.all(1)
    if good.all():
        return None
    k = int(good.argmin())
    u, p = V[k], P[k]
    if U.kind == "box":
        i = int(np.argmin(finite[k] & within[k]))
        return k, f"u{i + 1} = {u[i]:g} outside [{U.lo[i]:g}, {U.hi[i]:g}]"
    if not finite[k].all():
        i = int(np.argmin(finite[k]))
        return k, f"u{i + 1} = {u[i]:g} is not a finite number"
    if not on[k]:
        return k, f"u = {u.tolist()} is not proportional to the link {U.link.tolist()}"
    return k, f"link parameter {p[0]:g} outside [{U.rlo:g}, {U.rhi:g}]"


@st.composite
def control_set_and_rows(draw):
    """The set and first row of `control_set_and_row`, then up to five more rows of its width,
    each on the set or with one entry a number in [-10, 10], NaN or +-inf."""
    U, u, change = draw(control_set_and_row())
    if change == "width":
        return U, u
    entry = st.floats(-10.0, 10.0) | st.sampled_from([np.nan, np.inf, -np.inf])
    rows = [u]
    for _ in range(draw(st.integers(0, 5))):
        row = U.at_parameter(U.lo + (U.hi - U.lo) * draw(hnp.arrays(float, U.lo.size, elements=st.floats(0.0, 1.0))))
        if draw(st.booleans()):
            row[draw(st.integers(0, U.dim - 1))] = draw(entry)
        rows.insert(draw(st.integers(0, len(rows))), row)
    return U, np.array(rows)


class TestFirstViolationReference:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(control_set_and_rows())
    def test_fast_paths_agree_with_the_one_formula(self, case):
        U, rows = case
        assert U._first_violation(rows, CONTROL_TOL) == reference_first_violation(U, rows, CONTROL_TOL)


def reference_robot_free_run(scn: RobotScenario, x, d, cap: int) -> int:
    """`RobotScenario.free_run` as array formulas over every pair i < j at once."""
    i, j = np.triu_indices(scn.n, 1)
    P, V = np.reshape(x, (-1, 2)), np.reshape(d, (-1, 2))
    D, dD = P[i] - P[j], V[i] - V[j]
    a = np.sum(dD * dD, axis=1)
    b = np.sum(D * dD, axis=1)
    c = np.sum(D * D, axis=1) - (2.0 * scn.R + np.sqrt(a) + CONTACT_TOL) ** 2
    if np.any(c < 0.0):
        return 0
    disc = b * b - a * c
    hit = (b < 0.0) & (disc >= 0.0)
    if not hit.any():
        return cap
    return int(min(cap, np.min(c[hit] / (np.sqrt(disc[hit]) - b[hit]))))


def reference_pedestrian_free_run(scn: PedestrianScenario, x, d, support, cap: int) -> int:
    """`PedestrianScenario.free_run` as matrix products with the sweeping set's rows."""
    A, c = scn.sweeping_set().normals, scn.sweeping_set().offsets
    rate = A @ d
    rate[support] = 0.0
    hit = rate > 0.0
    if not hit.any():
        return cap
    return int(min(cap, max(0.0, np.min((c - A @ x)[hit] / rate[hit]))))


# A step cap, as `simulate` passes the steps left in a run: none, one, or 2^m.
FREE_RUN_CAPS = [0, 1] + [2**m for m in range(1, 25)]


def contact_gap(rng) -> float:
    """A gap beyond 2R: touching, at or within CONTACT_TOL of it, overlapping, or apart."""
    kind = rng.integers(3)
    if kind == 0:
        return float(rng.choice([0.0, CONTACT_TOL, -CONTACT_TOL, -0.5]))
    return rng.uniform(-2.0 * CONTACT_TOL, 2.0 * CONTACT_TOL) if kind == 1 else rng.uniform(0.0, 10.0)


def free_run_draw(rng, size: int) -> tuple[float, np.ndarray, int]:
    """A radius, an increment of zero, rounding-level (1e-9) or order-one entries, and a cap."""
    R = float(rng.choice([0.0, 1.0])) if rng.integers(2) else rng.uniform(0.1, 3.0)
    d = rng.choice([0.0, 1e-9, 1.0]) * rng.uniform(-1.0, 1.0, size)
    return R, d, int(rng.choice(FREE_RUN_CAPS))


class TestFreeRunReference:
    """`free_run` decides a run length on Python floats; it must be the array formulas' int exactly,
    on seeded draws that reach every outcome: no step, the cap, and a run the first root ends."""

    def test_robot_pairs_agree_with_the_array_formula(self):
        rng, outcomes = np.random.default_rng(5), set()
        for _ in range(4000):
            n = int(rng.integers(2, 7))
            R, d, cap = free_run_draw(rng, 2 * n)
            scn = RobotScenario(
                n=n, R=R, T=1.0, x0=np.repeat((2.0 * R + 1.0) * np.arange(n), 2), speeds=np.ones(n),
                angles=np.zeros(n), control_set=ControlSet.box(-np.ones(n), np.ones(n)),
            )
            x = rng.uniform(-40.0, 40.0, 2 * n)
            if rng.integers(2):  # one pair i < j at 2R plus a contact gap
                i, j = sorted(rng.choice(n, 2, replace=False).tolist())
                angle = rng.uniform(0.0, 2.0 * math.pi)
                x[2 * j : 2 * j + 2] = x[2 * i : 2 * i + 2] + (2.0 * R + contact_gap(rng)) * np.array(
                    [math.cos(angle), math.sin(angle)]
                )
            run = scn.free_run(x, d, [], cap)
            assert run == reference_robot_free_run(scn, x, d, cap), (n, R, x.tolist(), d.tolist(), cap)
            outcomes.add(0 if run == 0 else 2 if run == cap else 1)
        assert outcomes == {0, 1, 2}

    def test_pedestrian_rows_agree_with_the_matrix_products(self):
        rng, outcomes = np.random.default_rng(5), set()
        for _ in range(4000):
            n = int(rng.integers(2, 9))
            R, d, cap = free_run_draw(rng, n)
            scn = PedestrianScenario(
                n=n, R=R, T=1.0, x0=(2.0 * R + 1.0) * np.arange(n), speeds=np.ones(n),
                control_set=ControlSet.box(-np.ones(n), np.ones(n)),
            )
            x = rng.uniform(-60.0, 0.0) + np.cumsum([0.0] + [2.0 * R + contact_gap(rng) for _ in range(n - 1)])
            support = np.flatnonzero(rng.integers(2, size=n - 1)).tolist()
            run = scn.free_run(x, d, support, cap)
            assert run == reference_pedestrian_free_run(scn, x, d, support, cap), (n, R, x.tolist(), d.tolist(),
                                                                                   support, cap)
            outcomes.add(0 if run == 0 else 2 if run == cap else 1)
        assert outcomes == {0, 1, 2}

    @pytest.mark.parametrize("cap", [0, 1, 2**20])
    @pytest.mark.parametrize("gap", [-0.5, 0.0, 0.5 * CONTACT_TOL])
    def test_overlapping_or_touching_robots_run_no_steps(self, cap, gap):
        scn = robot_example()
        x, d = np.array([0.0, 0.0, 2.0 * scn.R + gap, 0.0]), np.zeros(4)
        assert scn.free_run(x, d, [], cap) == reference_robot_free_run(scn, x, d, cap) == 0


def reference_headings(scn, t, contact_time=None) -> np.ndarray:
    """The headings gathered for every time, (N, n, coords): the table `drive` took before one
    (n, coords) table broadcast over the times where no heading switches."""
    if isinstance(scn, PedestrianScenario):
        return np.ones((*np.shape(t), scn.n, 1))
    switch = contact_time if scn.switch_at == "contact" else scn.switch_at
    if scn.angles_post is None or switch is None:
        phase = np.zeros(np.shape(t), dtype=int)
    else:
        phase = (np.asarray(t) >= switch).astype(int)
    angles = np.array([scn.angles, scn.angles if scn.angles_post is None else scn.angles_post])
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)[phase]


def reference_drive(scn, u, t, contact_time=None) -> np.ndarray:
    g = (scn.speeds * u)[..., None] * reference_headings(scn, t, contact_time)
    return g.reshape(*g.shape[:-2], -1)


def reference_drive_adjoint(scn, q, t, contact_time=None) -> np.ndarray:
    H = reference_headings(scn, t, contact_time)
    return scn.speeds * np.sum(H * np.reshape(q, (*np.shape(q)[:-1], scn.n, H.shape[-1])), axis=-1)


# Control and adjoint entries: signed zeros, order-one values, and large and tiny magnitudes.
drive_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300))


@st.composite
def drive_cases(draw):
    """A scenario (pedestrians, or robots with no switch, a time switch or a contact switch), N
    control rows and adjoint rows, N times on [0, T] that may hit the switch, and a contact time."""
    n, N = draw(st.integers(2, 4)), draw(st.integers(1, 16))
    T = 6.0
    speeds = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    U = ControlSet.box(-np.ones(n), np.ones(n))
    family = draw(st.sampled_from(["pedestrian", "robot", "robot-time", "robot-contact"]))
    if family == "pedestrian":
        scn = PedestrianScenario(n=n, R=1.0, T=T, x0=3.0 * np.arange(n), speeds=speeds, control_set=U)
    else:
        angle = st.floats(0.0, 2.0 * math.pi)
        angles = np.array(draw(st.lists(angle, min_size=n, max_size=n)))
        post = np.array(draw(st.lists(angle, min_size=n, max_size=n))) if family != "robot" else None
        switch = {"robot": None, "robot-time": draw(st.floats(0.0, T)), "robot-contact": "contact"}[family]
        scn = RobotScenario(n=n, R=1.0, T=T, x0=np.repeat(3.0 * np.arange(n), 2), speeds=speeds, angles=angles,
                            control_set=U, angles_post=post, switch_at=switch)
    times = np.sort(draw(st.lists(st.floats(0.0, T), min_size=N, max_size=N)))
    contact = draw(st.one_of(st.none(), st.floats(0.0, T), st.sampled_from(times.tolist())))
    if isinstance(scn, RobotScenario) and scn.switch_time is not None and draw(st.booleans()):
        times[N // 2] = scn.switch_time  # a time exactly at the switch takes the post-switch headings
    u = draw(hnp.arrays(float, (N, n), elements=drive_entries))
    q = draw(hnp.arrays(float, (N, scn.state_dim), elements=drive_entries))
    return scn, u, q, times, contact


class TestDriveReference:
    """Where no heading switches, `headings` gives one (n, coords) table that `drive` and
    `drive_adjoint` broadcast over the times; every entry keeps the bits of the gathered table."""

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(drive_cases())
    def test_drive_and_adjoint_equal_the_gathered_heading_formula(self, case):
        scn, u, q, times, contact = case
        self.assert_same_bits(scn.drive(u, times, contact), reference_drive(scn, u, times, contact))
        self.assert_same_bits(scn.drive_adjoint(q, times, contact), reference_drive_adjoint(scn, q, times, contact))
        t = float(times[0])
        self.assert_same_bits(scn.drive(u[0], t, contact), reference_drive(scn, u[0], t, contact))
        self.assert_same_bits(scn.drive_adjoint(q[0], t, contact), reference_drive_adjoint(scn, q[0], t, contact))

    @pytest.mark.parametrize("name", ["robot2.scn", "pedestrian2.scn", "pedestrian3.scn"])
    def test_one_shared_table_without_a_switch(self, name):
        scn = bundled_scenario(name)
        H = scn.headings(np.linspace(0.0, scn.T, 5))
        assert H.shape == (scn.n, scn.state_dim // scn.n)
        assert np.array_equal(H, reference_headings(scn, 0.0))
        if isinstance(scn, PedestrianScenario):
            assert H is scn.headings(0.0) and not H.flags.writeable


class TestValueEquality:
    def test_two_parses_of_one_file_compare_equal(self):
        for name in ("robot2.scn", "pedestrian2.scn", "pedestrian3.scn"):
            assert bundled_scenario(name) == bundled_scenario(name)
        assert not bundled_scenario("pedestrian2.scn") != bundled_scenario("pedestrian2.scn")

    def test_different_values_or_families_compare_unequal(self):
        text = bundled_scenario_path("pedestrian2.scn").read_text()
        other_R = parse_scenario_text(text.replace("R = 3", "R = 2.5"))
        assert other_R.R == 2.5
        assert bundled_scenario("pedestrian2.scn") != other_R
        assert bundled_scenario("pedestrian2.scn") != bundled_scenario("pedestrian3.scn")
        assert bundled_scenario("robot2.scn") != bundled_scenario("pedestrian2.scn")
        switched = (
            "model = robot\nn = 2\nR = 1\nT = 4\nx0 = 0 0 20 20\nspeeds = 1 1\nangles_deg = 0 0\n"
            "angles_deg_post = 90 90\nswitch_at = {}\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
        )
        assert parse_scenario_text(switched.format("2")) == parse_scenario_text(switched.format("2.0"))
        assert parse_scenario_text(switched.format("2")) != parse_scenario_text(switched.format("contact"))

    def test_control_sets(self):
        assert ControlSet.box([0, 0], [1, 1]) == ControlSet.box([0.0, 0.0], [1.0, 1.0])
        assert ControlSet.box([0, 0], [1, 1]) != ControlSet.box([0, 0], [1, 2])
        assert ControlSet.box([0, 0], [1, 1]) != ControlSet.box([0, 0, 0], [1, 1, 1])
        seg = ControlSet.segment([2.0, 1.0], (-3.37, 3.37), bound_on=1)
        assert seg == ControlSet.segment([2.0, 1.0], (-3.37, 3.37), bound_on=1)
        assert seg != ControlSet.box([-1, -1], [1, 1])


class TestScenarioFiles:
    def test_bundled_files_load(self):
        assert robot_example().n == 2
        assert pedestrian_two().speeds.tolist() == [8.0, 2.0]
        assert pedestrian_three().control_set.kind == "box"

    def test_missing_key_named(self):
        with pytest.raises(ScenarioFormatError, match="'speeds'"):
            parse_scenario_text("model = pedestrian\nn = 2\nR = 3\nT = 6\nx0 = -60 -48\n"
                                "control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n")

    def test_bad_number_named(self):
        with pytest.raises(ScenarioFormatError, match="'R'"):
            parse_scenario_text("model = pedestrian\nn = 2\nR = abc\nT = 6\nx0 = -60 -48\n"
                                "speeds = 8 2\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n")

    @pytest.mark.parametrize("key, value", [("x0", "nan -48"), ("x0", "-60 inf"), ("R", "")])
    def test_non_finite_or_empty_number_named(self, key, value):
        fields = {"R": "3", "x0": "-60 -48", key: value}
        with pytest.raises(ScenarioFormatError, match=f"'{key}'"):
            parse_scenario_text(f"model = pedestrian\nn = 2\nR = {fields['R']}\nT = 6\nx0 = {fields['x0']}\n"
                                "speeds = 8 2\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n")

    @pytest.mark.parametrize(
        "key, control",
        [
            ("control.bound_on", "segment\ncontrol.link = 1 1\ncontrol.bounds = -1 1\ncontrol.bound_on = x"),
            ("control.link", "segment\ncontrol.link = 0 1\ncontrol.bounds = -1 1\ncontrol.bound_on = 1"),
            ("control.link", "segment\ncontrol.link = 1e-320 1\ncontrol.bounds = -3.37 3.37\ncontrol.bound_on = 1"),
            ("control.hi", "box\ncontrol.lo = -1 -1\ncontrol.hi = 1 -2"),
            ("control.hi", "box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1 1"),
            ("switch_at", "box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\nangles_deg_post = 45 45\nswitch_at = nan"),
            ("switch_at", "box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\nangles_deg_post = 45 45\nswitch_at = inf"),
            ("switch_at", "box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\nangles_deg_post = 45 45\nswitch_at ="),
            ("switch_at", "box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\nangles_deg_post = 45 45\nswitch_at = abc"),
        ],
        ids=["bound-on-word", "zero-link", "subnormal-link", "hi-below-lo", "unequal-lengths",
             "switch-nan", "switch-inf", "switch-empty", "switch-word"],
    )
    def test_control_block_and_switch_errors_named(self, key, control):
        with pytest.raises(ScenarioFormatError, match=f"'{key}'"):
            parse_scenario_text("model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 5 5\nspeeds = 1 1\n"
                                f"angles_deg = 225 225\ncontrol.kind = {control}\n")

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioFormatError, match="'wobble'"):
            parse_scenario_text("model = pedestrian\nn = 2\nR = 3\nT = 6\nx0 = -60 -48\nspeeds = 8 2\n"
                                "wobble = 1\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n")

    def test_infeasible_start_rejected(self):
        with pytest.raises(ScenarioFormatError, match="gap"):
            parse_scenario_text("model = pedestrian\nn = 2\nR = 3\nT = 6\nx0 = -60 -59\nspeeds = 8 2\n"
                                "control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n")

    def test_robot_ordering_rejected(self):
        with pytest.raises(ScenarioFormatError, match="ordering"):
            parse_scenario_text("model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 -5 -5\nspeeds = 1 1\n"
                                "angles_deg = 225 225\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n")

    def test_direction_switch_parsed(self):
        scn = parse_scenario_text(
            "model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 5 5\nspeeds = 1 1\n"
            "angles_deg = 225 225\nangles_deg_post = 45 45\nswitch_at = contact\n"
            "control.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
        )
        assert scn.switch_at == "contact"
        assert np.allclose(scn.theta(0.0, contact_time=None), np.deg2rad([225, 225]))
        assert np.allclose(scn.theta(2.0, contact_time=1.0), np.deg2rad([45, 45]))
        assert np.allclose(scn.theta(0.5, contact_time=1.0), np.deg2rad([225, 225]))


ROBOT_TEXT = {
    "model": "robot", "n": "2", "R": "1", "T": "6", "x0": "0 0 5 5", "speeds": "1 1",
    "angles_deg": "225 225", "angles_deg_post": "45 45", "switch_at": "contact",
    "control.kind": "box", "control.lo": "-1 -1", "control.hi": "1 1",
}
PEDESTRIAN_TEXT = {
    "model": "pedestrian", "n": "2", "R": "3", "T": "6", "x0": "-60 -48", "speeds": "8 2",
    "control.kind": "box", "control.lo": "-1 -1", "control.hi": "1 1",
}


def scenario_text(base: dict, **changes) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**base, **changes}.items())


class TestScenarioKeysNamed:
    @pytest.mark.parametrize("key, value", [("R", "3 4"), ("T", "6 7"), ("switch_at", "1 2")])
    def test_single_number_key_rejects_several(self, key, value):
        with pytest.raises(ScenarioFormatError, match=f"'{key}'"):
            parse_scenario_text(scenario_text(ROBOT_TEXT, **{key: value}))

    @pytest.mark.parametrize(
        "key, base, changes",
        [
            ("angles_deg", ROBOT_TEXT, {"angles_deg": "225"}),
            ("angles_deg_post", ROBOT_TEXT, {"angles_deg_post": "45 45 45"}),
            ("control.lo", PEDESTRIAN_TEXT, {"control.lo": "-1 -1 -1", "control.hi": "1 1 1"}),
            ("R", PEDESTRIAN_TEXT, {"R": "-3"}),
            ("x0", PEDESTRIAN_TEXT, {"x0": "-60 -48 -30"}),
            ("speeds", PEDESTRIAN_TEXT, {"speeds": "8 -2"}),
            ("n", PEDESTRIAN_TEXT, {"n": "1", "x0": "-60", "speeds": "8", "control.lo": "-1", "control.hi": "1"}),
            ("x0", ROBOT_TEXT, {"x0": "0 0 1.9 0.2"}),
        ],
        ids=["angles", "angles-post", "control-dim", "negative-R", "x0-length", "negative-speed", "one-agent",
             "overlapping-disks"],
    )
    def test_constructor_error_names_file_key(self, key, base, changes):
        with pytest.raises(ScenarioFormatError, match=f"'{key}'"):
            parse_scenario_text(scenario_text(base, **changes))


# Replacement values for the parser fuzz: empty, non-finite, extreme and subnormal
# numbers, number lists and words.
FUZZ_NUMBERS = ["0", "1", "-1", "2", "3.37", "-60", "nan", "inf", "1e308", "-1e308", "1e-320"]
FUZZ_VALUES = st.sampled_from(["", "nan", "inf", "-inf", "1e308", "1e-320", "abc", "contact", "box", "segment"]) | (
    st.lists(st.sampled_from(FUZZ_NUMBERS), min_size=1, max_size=5).map(" ".join)
)


class TestParserFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_mutated_file_raises_format_error_or_parses_finite(self, data):
        name = data.draw(st.sampled_from(["robot2.scn", "pedestrian2.scn", "pedestrian3.scn"]))
        entries = dict(
            (part.strip() for part in line.split("=", 1))
            for line in bundled_scenario_path(name).read_text().splitlines()
            if "=" in line and not line.startswith("#")
        )
        for key in data.draw(st.lists(st.sampled_from(sorted(entries)), min_size=1, max_size=3, unique=True)):
            entries[key] = data.draw(FUZZ_VALUES)
        try:
            scn = parse_scenario_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        except ScenarioFormatError:
            return
        for value in (scn.x0, scn.speeds, scn.R, scn.T, scn.control_set.vertices()):
            assert np.all(np.isfinite(value))


class TestRejectionsNamed:
    """Each rejection of a malformed scenario file, agent pair or step raises naming its cause."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (scenario_text(PEDESTRIAN_TEXT) + "wobble\n", "line 10: expected 'key = value', got 'wobble'"),
            (scenario_text(PEDESTRIAN_TEXT) + "R = 4\n", "duplicate key 'R'"),
            (scenario_text(PEDESTRIAN_TEXT, angles_deg="45 45"), "key 'angles_deg' is robot-only"),
        ],
        ids=["no-equals-sign", "duplicate-key", "robot-only-key"],
    )
    def test_malformed_file(self, text, message):
        with pytest.raises(ScenarioFormatError, match=message):
            parse_scenario_text(text)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"control.hi": "1e308 1"}, "keys 'control.lo', 'control.hi': controls up to 1e\\+308, beyond 1e\\+100"),
            ({"speeds": "1e308 2"}, r"keys 'x0', 'R', 'T', 'speeds': \|x0\| \+ 2R n \+ T s \|u\| = inf, beyond 1e\+100"),
            ({"x0": "-1e101 -48"}, "keys 'x0', 'R', 'T', 'speeds'"),
            ({"T": "1e101", "speeds": "0 0"}, r"key 'T': need a horizon in \[7\.2e-99, 1e\+100\], got 1e\+101"),
            ({"T": "5e-324"}, r"key 'T': need a horizon in \[7\.2e-99, 1e\+100\], got 4\.94066e-324"),
            ({"control.kind": "segment", "control.link": "1e308 1", "control.bounds": "-1 1"},
             r"key 'control.link': segment link norm 1e\+308 outside \[1e-100, 1e\+100\]"),
        ],
        ids=["control-bound", "speed", "start", "long-horizon", "short-horizon", "link"],
    )
    def test_a_scenario_beyond_the_scale_names_its_keys(self, changes, message):
        # Squares of states, times and velocities must stay finite: magnitudes up to SCALE_MAX.
        with pytest.raises(ScenarioFormatError, match=message):
            parse_scenario_text(scenario_text(PEDESTRIAN_TEXT, **changes))

    def test_unknown_bundled_name(self):
        with pytest.raises(FileNotFoundError, match="no bundled scenario named 'nowhere.scn'"):
            bundled_scenario_path("nowhere.scn")

    def test_pedestrian_sweeping_set_of_one_agent(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            pedestrian_sweeping_set(1, 3.0)

    @pytest.mark.parametrize(
        "make, i, j, message",
        [(robot_example, 0, 0, "invalid agent pair"), (robot_example, 0, 2, "invalid agent pair"),
         (pedestrian_two, 1, 0, "pedestrian gap needs 0 <= i < j < n")],
        ids=["robot-same-agent", "robot-out-of-range", "pedestrian-reversed"],
    )
    def test_distance_gap_of_a_bad_pair(self, make, i, j, message):
        scn = make()
        with pytest.raises(ValueError, match=message):
            distance_gap(scn, scn.x0, i, j)

    @pytest.mark.parametrize("h", [0.0, -0.1])
    def test_admissible_velocities_need_a_positive_step(self, h):
        scn = robot_example()
        with pytest.raises(ValueError, match="h must be positive"):
            admissible_velocities_contains(scn, scn.x0, np.zeros(4), h)

    def test_pair_row_of_coincident_centers(self):
        with pytest.raises(ValueError, match="coincident centers 1, 2: gradient undefined"):
            robot_example().pair_row([1.0, 2.0, 1.0, 2.0])
