"""Necessary-condition residual checks against hand-built worked certificates."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepctrl import cli, optimality
from sweepctrl.models import bundled_scenario, bundled_scenario_path, parse_scenario_text
from sweepctrl.optimality import (
    DualCertificate,
    PiecewisePath,
    StepFunction,
    certificate_from_dict,
    certificate_to_dict,
    check_adjoint,
    check_complementarity,
    check_maximization,
    check_measure_link,
    check_nonatomicity,
    check_nontriviality,
    check_primal,
    check_transversality,
    load_certificate,
    verify_certificate,
    _union_grid,
)
from sweepctrl.optimizer import solve_reduced
from sweepctrl.polyhedra import Polyhedron
from sweepctrl.sweeping import (
    ControlSignal,
    EtaProfile,
    Mesh,
    Trajectory,
    contact_switch_time,
    read_trajectory_csv,
    simulate,
)

T1_PED2 = 5.0 / 9.0


def ped2():
    return bundled_scenario("pedestrian2.scn")


def ped3():
    return bundled_scenario("pedestrian3.scn")


def ped2_path():
    """Two-phase optimal path: free to the contact point, then locked at (9, 9)."""
    x_t1 = np.array([-60.0, -48.0]) + T1_PED2 * np.array([14.4, 3.6])
    return PiecewisePath(
        np.array([0.0, T1_PED2, 6.0]),
        np.array([[-60.0, -48.0], x_t1, [-3.0, 3.0]]),
    )


def ped2_certificate():
    """Hand-built dual data for the two-pedestrian optimum.

    Pre-contact q from the maximization convention psi = u; arc q on the
    constraint surface (q1 - q2 = -6) and neutral for the segment direction
    (8 q1 + 2 q2 = 0); p from transversality; atoms carry the q jumps.
    """
    q_pre = np.array([0.225, 0.9])
    q_arc = np.array([-1.2, 4.8])
    p = np.array([-2.4, 2.4])
    return DualCertificate(
        lam=1.0,
        eta=StepFunction(np.array([0.0, T1_PED2, 6.0]), np.array([[0.0], [5.4]])),
        eta_terminal=np.array([5.4]),
        p=StepFunction.constant(6.0, p),
        q=StepFunction(np.array([0.0, T1_PED2, 6.0]), np.array([q_pre, q_arc])),
        gamma_atoms=((T1_PED2, q_arc - q_pre), (6.0, p - q_arc)),
    )


def ped3_path():
    """Consistent three-pedestrian path: (16, 6, 6) then the locked train at 28/3."""
    x0 = np.array([-60.0, -48.0, -42.0])
    x_t1 = x0 + 0.6 * np.array([16.0, 6.0, 6.0])
    x_T = x_t1 + 5.4 * np.full(3, 28.0 / 3.0)
    return PiecewisePath(np.array([0.0, 0.6, 6.0]), np.array([x0, x_t1, x_T]))


def ped3_certificate():
    q = np.array([1.0, 7.0, 13.0])
    x_T = ped3_path().terminal
    eta_T = np.array([20.0 / 3.0, 16.0 / 3.0])
    rows = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    p = -(x_T + rows.T @ eta_T)
    return DualCertificate(
        lam=1.0,
        eta=StepFunction(
            np.array([0.0, 0.6, 6.0]), np.array([[0.0, 2.0], [20.0 / 3.0, 16.0 / 3.0]])
        ),
        eta_terminal=eta_T,
        p=StepFunction.constant(6.0, p),
        q=StepFunction.constant(6.0, q),
        gamma_atoms=((6.0, p - q),),
    )


class TestPrimal:
    def test_free_motion_zero(self):
        scn = ped2()
        path = PiecewisePath(
            np.array([0.0, 6.0]), np.array([[-60.0, -48.0], [-60.0 + 6 * 1.6, -48.0 + 6 * 0.4]])
        )
        cert = dataclasses.replace(
            ped2_certificate(),
            eta=StepFunction.constant(6.0, np.zeros(1)),
            eta_terminal=np.zeros(1),
        )
        r = check_primal(scn, path, np.array([0.2, 0.2]), cert)
        assert r < 1e-12

    def test_worked_two_pedestrian_certificate(self):
        r = check_primal(ped2(), ped2_path(), np.array([1.8, 1.8]), ped2_certificate())
        assert r < 1e-6

    def test_unit_eta_corruption_costs_sqrt2(self):
        cert = ped2_certificate()
        bad_vals = cert.eta.values.copy()
        bad_vals[0, 0] += 1.0
        bad = dataclasses.replace(cert, eta=StepFunction(cert.eta.times, bad_vals))
        r = check_primal(ped2(), ped2_path(), np.array([1.8, 1.8]), bad)
        assert r == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_control_piece_inside_one_path_segment_is_checked(self):
        # The path rests, so only the short burst of control on [2, 2.001) leaves a defect g.
        path = PiecewisePath(np.array([0.0, 6.0]), np.array([[-60.0, -48.0], [-60.0, -48.0]]))
        cert = dataclasses.replace(
            ped2_certificate(), eta=StepFunction.constant(6.0, np.zeros(1)), eta_terminal=np.zeros(1)
        )
        u = StepFunction(np.array([0.0, 2.0, 2.001, 6.0]), np.array([[0.0, 0.0], [1.8, 1.8], [0.0, 0.0]]))
        assert check_primal(ped2(), path, u, cert) == pytest.approx(np.hypot(14.4, 3.6), rel=1e-12)


class TestComplementarity:
    def test_worked_certificates_clean(self):
        r2, r3 = check_complementarity(ped2(), ped2_path(), ped2_certificate())
        assert r2 < 1e-9 and r3 < 1e-9
        r2, r3 = check_complementarity(ped3(), ped3_path(), ped3_certificate())
        assert r2 < 1e-9 and r3 < 1e-9

    def test_dual_surface_is_pinned_where_eta_positive(self):
        # q on the arc satisfies q1 - q2 = -6 = c; shifting it off the
        # surface shows up weighted by eta.
        cert = ped2_certificate()
        q_vals = cert.q.values.copy()
        q_vals[1] += np.array([1.0, 0.0])
        bad = dataclasses.replace(cert, q=StepFunction(cert.q.times, q_vals))
        _, r3 = check_complementarity(ped2(), ped2_path(), bad)
        assert r3 == pytest.approx(5.4 * 1.0, abs=1e-9)

    def test_eta_on_inactive_interval_flagged(self):
        cert = ped2_certificate()
        vals = cert.eta.values.copy()
        vals[0, 0] = 2.0  # strictly inside during the free phase
        bad = dataclasses.replace(cert, eta=StepFunction(cert.eta.times, vals))
        r2, _ = check_complementarity(ped2(), ped2_path(), bad)
        assert r2 > 1.0


class TestAdjointAndMeasure:
    def test_constant_p_zero_residual(self):
        assert check_adjoint(ped2(), ped2_certificate()) == 0.0

    def test_drifting_p_flagged(self):
        cert = ped2_certificate()
        p = StepFunction(
            np.array([0.0, 3.0, 6.0]), np.array([[-2.4, 2.4], [-2.0, 2.4]])
        )
        assert check_adjoint(ped2(), dataclasses.replace(cert, p=p)) == pytest.approx(0.4)

    def test_measure_link_exact_on_worked_certificates(self):
        assert check_measure_link(ped2_certificate()) < 1e-12
        assert check_measure_link(ped3_certificate()) < 1e-12

    def test_single_atom_against_paper_rounding(self):
        # Certificate variant with the whole tail mass in one contact-time
        # atom rounded to a single decimal: the link still closes within 0.03.
        q_pre = np.array([0.225, 0.9])
        p = np.array([-2.4, 2.4])
        cert = DualCertificate(
            lam=1.0,
            eta=StepFunction(np.array([0.0, T1_PED2, 6.0]), np.array([[0.0], [5.4]])),
            eta_terminal=np.array([5.4]),
            p=StepFunction.constant(6.0, p),
            q=StepFunction(np.array([0.0, T1_PED2, 6.0]), np.array([q_pre, p])),
            gamma_atoms=((T1_PED2, np.array([-2.6, 1.5])),),
        )
        assert check_measure_link(cert) < 0.03

    def test_dropping_the_atom_leaves_the_gap(self):
        cert = ped2_certificate()
        # Dropping the terminal atom leaves the defect ||p - q_arc|| on the
        # whole contact arc; dropping everything leaves ||p - q_pre|| at 0.
        bad_tail = dataclasses.replace(cert, gamma_atoms=cert.gamma_atoms[:1])
        expect_arc = np.linalg.norm(np.array([-2.4, 2.4]) - np.array([-1.2, 4.8]))
        assert check_measure_link(bad_tail) == pytest.approx(expect_arc)
        bad_all = dataclasses.replace(cert, gamma_atoms=())
        expect0 = np.linalg.norm(np.array([-2.4, 2.4]) - np.array([0.225, 0.9]))
        assert check_measure_link(bad_all) == pytest.approx(expect0)


class TestMaximization:
    def test_zero_psi_any_control(self):
        cert = dataclasses.replace(
            ped2_certificate(), q=StepFunction.constant(6.0, np.zeros(2))
        )
        r = check_maximization(ped2(), cert, np.array([-1.0, -1.0]), ped2_path())
        assert r == 0.0

    def test_worked_segment_maximizer(self):
        r = check_maximization(ped2(), ped2_certificate(), np.array([1.8, 1.8]), ped2_path())
        assert r < 1e-12

    def test_worked_box_maximizer(self):
        r = check_maximization(ped3(), ped3_certificate(), np.array([2.0, 2.0, 2.0]), ped3_path())
        assert r < 1e-12

    def test_vertex_enumeration_matches_dense_grid(self):
        rng = np.random.default_rng(23)
        scn = ped3()
        U = scn.control_set
        grid_axes = [np.linspace(lo, hi, 21) for lo, hi in zip(U.lo, U.hi)]
        mesh = np.meshgrid(*grid_axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        for _ in range(50):
            psi = rng.standard_normal(3) * 5.0
            best, _ = U.maximize_linear(psi)
            dense = float(np.max(pts @ psi))
            assert best >= dense - 1e-9
            assert best - dense < 1e-6 + 0.0  # vertex max equals grid max at the corners


class TestTransversality:
    def test_trivial_configuration(self):
        scn = ped2()
        path = PiecewisePath(np.array([0.0, 6.0]), np.array([[-60.0, -48.0], [0.0, 0.0]]))
        cert = dataclasses.replace(
            ped2_certificate(),
            p=StepFunction.constant(6.0, np.zeros(2)),
            eta_terminal=np.zeros(1),
        )
        r7, r8 = check_transversality(scn, path, cert)
        assert r7 == 0.0 and r8 == 0.0

    def test_worked_two_pedestrian_endpoint(self):
        r7, r8 = check_transversality(ped2(), ped2_path(), ped2_certificate())
        assert r7 < 1e-12 and r8 < 1e-12

    def test_three_pedestrian_published_p(self):
        # The published endpoint data: printed trajectory with the carried
        # standing multiplier, p(T) = (-20/3, 92/15, -262/15).
        x0 = np.array([-60.0, -48.0, -42.0])
        x_t1 = x0 + 0.6 * np.array([16.0, 6.0, 6.0])
        slopes = np.array([28.0 / 3.0, 22.0 / 3.0, 34.0 / 3.0])
        printed = PiecewisePath(
            np.array([0.0, 0.6, 6.0]), np.array([x0, x_t1, x_t1 + 5.4 * slopes])
        )
        cert = dataclasses.replace(
            ped3_certificate(),
            p=StepFunction.constant(6.0, np.array([-20.0 / 3.0, 92.0 / 15.0, -262.0 / 15.0])),
        )
        r7, _ = check_transversality(ped3(), printed, cert)
        assert r7 < 1e-9


class TestNontrivialityAndAtoms:
    def test_nontriviality(self):
        assert check_nontriviality(ped2_certificate())
        zero = DualCertificate(
            lam=0.0,
            eta=StepFunction.constant(6.0, np.zeros(1)),
            eta_terminal=np.zeros(1),
            p=StepFunction.constant(6.0, np.zeros(2)),
            q=StepFunction.constant(6.0, np.zeros(2)),
            gamma_atoms=(),
        )
        assert not check_nontriviality(zero)
        lam0 = dataclasses.replace(ped2_certificate(), lam=0.0)
        assert check_nontriviality(lam0)  # q(0) = (0.225, 0.9) keeps it nontrivial

    def test_atom_at_contact_time_allowed(self):
        assert check_nonatomicity(ped2_certificate(), ped2_path(), ped2()) == 0

    def test_interior_atom_flagged(self):
        cert = ped2_certificate()
        bad = dataclasses.replace(
            cert, gamma_atoms=cert.gamma_atoms + ((0.25, np.array([0.1, 0.0])),)
        )
        assert check_nonatomicity(bad, ped2_path(), ped2()) == 1

    def test_no_atoms_fine(self):
        cert = dataclasses.replace(ped2_certificate(), gamma_atoms=())
        assert check_nonatomicity(cert, ped2_path(), ped2()) == 0


class TestVerifyCertificate:
    def test_worked_certificates_pass(self):
        rep2 = verify_certificate(ped2(), ped2_path(), np.array([1.8, 1.8]), ped2_certificate())
        assert rep2.passed
        rep3 = verify_certificate(
            ped3(), ped3_path(), np.array([2.0, 2.0, 2.0]), ped3_certificate(), tol=1e-6
        )
        assert rep3.passed

    def test_zeroed_certificate_fails_nontriviality(self):
        zero = DualCertificate(
            lam=0.0,
            eta=StepFunction.constant(6.0, np.zeros(1)),
            eta_terminal=np.zeros(1),
            p=StepFunction.constant(6.0, np.zeros(2)),
            q=StepFunction.constant(6.0, np.zeros(2)),
            gamma_atoms=(),
        )
        rep = verify_certificate(ped2(), ped2_path(), np.array([0.0, 0.0]), zero)
        assert not rep.passed
        assert not rep.entry("9-nontriviality").passed

    def test_perturbation_sensitivity(self):
        # A 0.1 bump in any single certificate component moves some residual
        # by an amount on the order of the bump.
        base = ped2_certificate()
        path = ped2_path()
        u = np.array([1.8, 1.8])
        scn = ped2()

        def worst(cert):
            rep = verify_certificate(scn, path, u, cert)
            return max(
                e.residual for e in rep.entries if e.condition not in ("9-nontriviality",)
            )

        assert worst(base) < 1e-9
        variants = []
        variants.append(dataclasses.replace(base, lam=base.lam + 0.1))
        ev = base.eta.values.copy(); ev[1, 0] += 0.1
        variants.append(dataclasses.replace(base, eta=StepFunction(base.eta.times, ev)))
        variants.append(dataclasses.replace(base, eta_terminal=base.eta_terminal + 0.1))
        pv = base.p.values + np.array([0.1, 0.0])
        variants.append(dataclasses.replace(base, p=StepFunction(base.p.times, pv)))
        qv = base.q.values.copy(); qv[0] += np.array([0.1, 0.0])
        variants.append(dataclasses.replace(base, q=StepFunction(base.q.times, qv)))
        t0, v0 = base.gamma_atoms[0]
        variants.append(
            dataclasses.replace(base, gamma_atoms=((t0, v0 + np.array([0.1, 0.0])), base.gamma_atoms[1]))
        )
        variants.append(
            dataclasses.replace(base, gamma_atoms=((t0 + 0.1, v0), base.gamma_atoms[1]))
        )
        for cert in variants:
            assert worst(cert) > 0.01

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf"), -float("inf")])
    def test_a_tolerance_that_is_not_a_finite_number_at_least_0_is_named(self, tol):
        # NaN or a negative tol would fail every entry silently, and inf would pass every one.
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
            verify_certificate(ped2(), ped2_path(), np.array([1.8, 1.8]), ped2_certificate(), tol=tol)
        assert verify_certificate(ped2(), ped2_path(), np.array([1.8, 1.8]), ped2_certificate(), tol=0.0).entries

    def test_report_text_format(self):
        rep = verify_certificate(ped2(), ped2_path(), np.array([1.8, 1.8]), ped2_certificate())
        text = rep.to_text()
        assert "1-primal" in text and "overall: PASS" in text
        assert text.count("PASS") >= 10


class TestSerialization:
    def test_round_trip(self):
        cert = ped2_certificate()
        back = certificate_from_dict(certificate_to_dict(cert))
        assert back.lam == cert.lam
        assert np.allclose(back.q.values, cert.q.values)
        assert np.allclose(back.eta.times, cert.eta.times)
        assert len(back.gamma_atoms) == 2
        rep = verify_certificate(ped2(), ped2_path(), np.array([1.8, 1.8]), back)
        assert rep.passed

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_json_round_trip_compares_equal(self, data):
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        dim = data.draw(st.integers(1, 3))

        def step():
            k = data.draw(st.integers(1, 3))
            gaps = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=k, max_size=k))
            values = data.draw(st.lists(finite, min_size=k * dim, max_size=k * dim))
            return StepFunction(np.concatenate([[0.0], np.cumsum(gaps)]), np.reshape(values, (k, dim)))

        p = step()
        T = float(p.times[-1])
        atoms = data.draw(st.lists(st.tuples(st.floats(0.0, T), st.lists(finite, min_size=dim, max_size=dim)), max_size=3))
        cert = DualCertificate(
            lam=data.draw(st.floats(0.0, 10.0)),
            eta=StepFunction(p.times, np.abs(p.values)),
            eta_terminal=np.abs(data.draw(st.lists(finite, min_size=dim, max_size=dim))),
            p=p,
            q=step(),
            gamma_atoms=tuple((t, np.array(v)) for t, v in atoms),
        )
        back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert back == cert


def _builds():
    """(build, changed build) pairs: equal builds compare equal, a changed field unequal."""
    mesh = Mesh(6.0, 3)
    times = np.array([0.0, 1.0, 6.0])
    states = np.array([[0.0, 4.0], [1.0, 5.0], [2.0, 9.0]])
    cert = ped2_certificate
    return {
        "Polyhedron": (lambda: Polyhedron(np.eye(2), np.ones(2)), lambda: Polyhedron(np.eye(2), np.array([1.0, 2.0]))),
        "ControlSignal": (
            lambda: ControlSignal.constant(mesh, [1.0, 1.0]),
            lambda: ControlSignal.constant(mesh, [1.0, 0.5]),
        ),
        "Trajectory": (
            lambda: Trajectory(mesh, np.zeros((9, 2))),
            lambda: Trajectory(Mesh(6.0, 3), np.ones((9, 2))),
        ),
        "PiecewisePath": (lambda: PiecewisePath(times, states), lambda: PiecewisePath(times, states + 1.0)),
        "StepFunction": (
            lambda: StepFunction(times, states[:2]),
            lambda: StepFunction(np.array([0.0, 2.0, 6.0]), states[:2]),
        ),
        "EtaProfile": (
            lambda: EtaProfile(times, states[:2], states[1], np.zeros(2)),
            lambda: EtaProfile(times, states[:2], states[1], np.array([0.0, 1e-3])),
        ),
        "DualCertificate": (
            cert,
            lambda: dataclasses.replace(
                cert(), gamma_atoms=(cert().gamma_atoms[0], (6.0, cert().gamma_atoms[1][1] + 1.0))
            ),
        ),
    }


@pytest.mark.parametrize("kind", sorted(_builds()))
def test_value_equality(kind):
    build, changed = _builds()[kind]
    assert build() == build()
    assert not build() != build()
    assert build() != changed()
    assert build() != object()


def loop_residuals(scn, path, u, cert, tol=1e-9):
    """Checks 1, 2/3, 5, 6, 8 and nonatomicity as per-interval loops: the reference
    for the array-valued checks (one time per call, vertex enumeration for the max)."""
    C = scn.sweeping_set()
    contact = contact_switch_time(scn, path.times, path.states)
    r1 = r2 = r3 = r5 = r6 = r8 = 0.0
    grid = _union_grid(path, cert, u.times)
    for a, b in zip(grid[:-1], grid[1:]):
        tm = 0.5 * (a + b)
        g = scn.drive(u.value(tm), tm, contact)
        r1 = max(r1, float(np.linalg.norm(path.velocity(tm) + C.normals.T @ cert.eta.value(tm) - g)))
        psi = scn.drive_adjoint(cert.q.value(tm), tm, contact)
        r6 = max(r6, float(np.max(scn.control_set.vertices() @ psi)) - float(psi @ u.value(tm)))
    grid = _union_grid(path, cert)
    for a, b in zip(grid[:-1], grid[1:]):
        eta = cert.eta.value(0.5 * (a + b))
        for t in (a, 0.5 * (a + b), b):
            r2 = max(r2, float(np.max(eta * np.maximum(0.0, scn.pair_gaps(path.value(t)) - tol))))
        r3 = max(r3, float(np.max(eta * np.abs(C.normals @ cert.q.value(0.5 * (a + b)) - C.offsets))))
    r2 = max(r2, float(np.max(cert.eta_terminal * np.maximum(0.0, scn.pair_gaps(path.terminal) - tol))))
    r3 = max(r3, float(np.max(cert.eta_terminal * np.abs(C.normals @ cert.q_at_T() - C.offsets))))
    for t in np.unique(np.concatenate([cert.q.times, cert.p.times])):
        if not any(abs(t - s) <= 1e-12 for s, _ in cert.gamma_atoms):
            tail = sum((v for s, v in cert.gamma_atoms if s >= t - 1e-12), np.zeros(cert.p.dim))
            r5 = max(r5, float(np.linalg.norm(cert.q.value(t) - cert.p.value(t) + tail)))
    active = scn.contact_rows(path.terminal)
    for j, e in enumerate(cert.eta_terminal):
        r8 = max(r8, -e, 0.0 if j in active else e)
    bad = sum(1 for s, _ in cert.gamma_atoms if s < path.horizon - 1e-12 and not scn.contact_rows(path.value(s)).size)
    return {"1-primal": r1, "2-complementarity": r2, "3-dual-surface": r3, "5-measure-link": r5,
            "6-maximization": r6, "8-terminal-cone": r8, "nonatomicity": float(bad)}


def random_certificate(rng, T, dim, rows):
    """Dual data with random breakpoints, values and atoms: every residual is nonzero."""
    def step(d, scale=1.0):
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, T, 3)), [T]])
        return StepFunction(times, scale * rng.standard_normal((4, d)))

    eta = step(rows)
    atoms = tuple((float(t), rng.standard_normal(dim)) for t in (*rng.uniform(0.0, T, 2), T))
    return DualCertificate(lam=1.0, eta=StepFunction(eta.times, np.abs(eta.values)),
                           eta_terminal=np.abs(rng.standard_normal(rows)), p=step(dim), q=step(dim),
                           gamma_atoms=atoms)


SWITCHING_ROBOTS = (
    "model = robot\nn = 2\nR = 1\nT = 6\nx0 = 0 0 5 5\nspeeds = 1 1\nangles_deg = 45 45\n"
    "angles_deg_post = 90 90\nswitch_at = {}\ncontrol.kind = box\ncontrol.lo = -1 -1\ncontrol.hi = 1 1\n"
)


@pytest.mark.parametrize(
    "text,control",
    [(bundled_scenario_path(f).read_text(), None) for f in ("robot2.scn", "pedestrian2.scn", "pedestrian3.scn")]
    + [(SWITCHING_ROBOTS.format(s), [1.0, -0.5]) for s in ("contact", "2.5")],  # in contact from t = 3.4
)
def test_array_checks_match_the_interval_loops(text, control):
    scn = parse_scenario_text(text)
    rng = np.random.default_rng(5)
    U = scn.control_set
    mesh = Mesh(scn.horizon, 6)
    if control is not None:
        values = np.tile(control, (8, 1))
    elif U.kind == "box":
        values = U.lo + (U.hi - U.lo) * rng.random((8, U.dim))
    else:
        values = (U.rlo + (U.rhi - U.rlo) * rng.random(8))[:, None] * U.link
    u = ControlSignal(mesh, np.repeat(values, mesh.intervals // 8, axis=0))
    path = PiecewisePath.from_trajectory(simulate(scn, u))
    # Control breakpoints off the mesh, so the union grid has intervals of its own.
    series = StepFunction(np.r_[0.0, np.sort(rng.uniform(0.0, scn.horizon, 4)), scn.horizon], values[:5])
    for _ in range(3):
        cert = random_certificate(rng, scn.horizon, scn.state_dim, scn.sweeping_set().nrows)
        report = verify_certificate(scn, path, series, cert)
        for name, want in loop_residuals(scn, path, series, cert).items():
            assert report.entry(name).residual == pytest.approx(want, rel=1e-13, abs=1e-13), name
        times = np.r_[cert.atom_times, cert.q.times]  # atom times included: gamma([t, T]) holds the atom at t
        tails = [sum((v for s, v in cert.gamma_atoms if s >= t - 1e-12), np.zeros(cert.p.dim)) for t in times]
        assert np.allclose(cert.gamma_tail(times), tails, rtol=1e-13, atol=1e-13)


# The ten residuals of each bundled scenario's reduced certificate, as `float.hex`, for three
# verifications: `sol.verification`, `verify` on the CSV and certificate `solve-reduced` writes
# (m = 8), and the same with lambda and q raised by 0.1.
PINNED_RESIDUALS = {
    "robot2.scn": {
        "solution": ("0x1.07e0f66afed07p-49", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                     "0x1.0000000000000p-48", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        "csv": ("0x1.a35e6e552abd3p-42", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                "0x1.0000000000000p-48", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        "corrupted": ("0x1.a35e6e552abd3p-42", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.9999999999980p-3",
                      "0x1.6e89a31b7a800p-10", "0x1.b27247aff1498p-1", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    },
    "pedestrian2.scn": {
        "solution": ("0x1.07e0f66afed07p-49", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        "csv": ("0x1.5500060180529p-41", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        "corrupted": ("0x1.5500060180529p-41", "0x0.0p+0", "0x1.599999999999ap-48", "0x0.0p+0", "0x1.21a1851ff630fp-3",
                      "0x0.0p+0", "0x1.b27247aff14a1p-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    },
    "pedestrian3.scn": {
        "solution": ("0x1.99ccc999fff00p-48", "0x0.0p+0", "0x1.aaaaaaaaaaaaap-48", "0x0.0p+0", "0x0.0p+0",
                     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        "csv": ("0x1.db0990e169ad1p-41", "0x0.0p+0", "0x1.aaaaaaaaaaaaap-48", "0x0.0p+0", "0x0.0p+0",
                "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        "corrupted": ("0x1.db0990e169ad1p-41", "0x0.0p+0", "0x1.aaaaaaaaaaaaap-48", "0x0.0p+0", "0x1.62b9586ad09c2p-3",
                      "0x0.0p+0", "0x1.5775c544ff26ap+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    },
}


def solve_reduced_artifacts(name, tmp_path):
    """The solution of a bundled scenario, and the path, control and certificate `verify` reads
    back from what `solve-reduced --mesh-exp=8` wrote."""
    assert cli.main(["solve-reduced", str(bundled_scenario_path(name)), "--mesh-exp=8", f"--out={tmp_path}"]) == 0
    data = read_trajectory_csv((tmp_path / "trajectory.csv").read_text())
    u = StepFunction(data["times"], data["controls"][:-1])
    sol = solve_reduced(bundled_scenario(name))
    return sol, PiecewisePath(data["times"], data["states"]), u, load_certificate(tmp_path / "certificate.json")


@pytest.mark.parametrize("name", sorted(PINNED_RESIDUALS))
def test_bundled_residuals_are_pinned_bit_for_bit(name, tmp_path):
    sol, path, u, cert = solve_reduced_artifacts(name, tmp_path)
    corrupted = dataclasses.replace(cert, lam=cert.lam + 0.1, q=StepFunction(cert.q.times, cert.q.values + 0.1))
    reports = {
        "solution": sol.verification,
        "csv": verify_certificate(sol.scenario, path, u, cert),
        "corrupted": verify_certificate(sol.scenario, path, u, corrupted),
    }
    for kind, report in reports.items():
        assert tuple(e.residual.hex() for e in report.entries) == PINNED_RESIDUALS[name][kind], kind


@pytest.fixture
def grid_builds(monkeypatch):
    """The `extra` time arrays of every `_union_grid` call."""
    calls = []
    real = optimality._union_grid

    def spy(path, cert, *extra):
        calls.append(extra)
        return real(path, cert, *extra)

    monkeypatch.setattr(optimality, "_union_grid", spy)
    return calls


@pytest.mark.parametrize("name", ["robot2.scn", "pedestrian3.scn"])
def test_verify_builds_one_grid_when_the_control_breakpoints_are_on_it(name, tmp_path, grid_builds):
    sol, path, u, cert = solve_reduced_artifacts(name, tmp_path)
    grid_builds.clear()
    csv_report = verify_certificate(sol.scenario, path, u, cert)  # a CSV's controls: the path's breakpoints
    assert grid_builds == [()]
    grid_builds.clear()
    verify_certificate(sol.scenario, sol.path, sol.control, sol.certificate)  # a constant control
    assert grid_builds == [()]
    # Control breakpoints off the grid: primal and maximization get a second grid holding them,
    # and complementarity keeps the first, so its residual does not move.
    off = np.r_[0.0, 0.5 * (path.times[1:3] + path.times[2:4]), path.horizon]
    grid_builds.clear()
    report = verify_certificate(sol.scenario, path, StepFunction(off, u.value(off[:-1])), cert)
    assert len(grid_builds) == 2 and grid_builds[0] == () and np.array_equal(*grid_builds[1], off)
    for condition in ("2-complementarity", "3-dual-surface"):
        assert report.entry(condition).residual == csv_report.entry(condition).residual


@pytest.mark.parametrize("name", ["robot2.scn", "pedestrian2.scn", "pedestrian3.scn"])
def test_a_trajectory_and_its_signal_verify_as_their_path_and_step_function(name):
    # `as_path` and `as_step_series` turn a simulated `Trajectory` and its `ControlSignal` into
    # the `PiecewisePath` and `StepFunction` they stand for: the entries are the same.
    sol = solve_reduced(bundled_scenario(name))
    u = ControlSignal.constant(Mesh(sol.scenario.horizon, 8), sol.control)
    traj = simulate(sol.scenario, u)
    got = verify_certificate(sol.scenario, traj, u, sol.certificate)
    want = verify_certificate(sol.scenario, PiecewisePath.from_trajectory(traj), StepFunction(u.mesh.nodes, u.values),
                              sol.certificate)
    assert got.entries == want.entries
    assert [e.residual.hex() for e in got.entries] == [e.residual.hex() for e in want.entries]


class TestRejectionsNamed:
    """Malformed dual data and paths raise where they are built, naming what is wrong."""

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]], ids=["repeated", "decreasing"])
    def test_step_function_breakpoints_must_increase(self, times):
        with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
            StepFunction(np.array(times), np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]], ids=["repeated", "decreasing"])
    def test_path_breakpoints_must_increase(self, times):
        with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
            PiecewisePath(np.array(times), np.zeros((3, 2)))

    @pytest.mark.parametrize("states", [2, 4], ids=["one-short", "one-over"])
    def test_path_needs_one_state_per_breakpoint(self, states):
        with pytest.raises(ValueError, match="one state per breakpoint"):
            PiecewisePath(np.array([0.0, 1.0, 2.0]), np.zeros((states, 2)))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lam": -1.0}, "lambda must be nonnegative"),
            ({"eta": StepFunction(np.array([0.0, T1_PED2, 6.0]), np.array([[0.0], [-5.4]]))},
             "eta must be nonnegative"),
            ({"eta_terminal": np.array([-5.4])}, "eta must be nonnegative"),
            ({"gamma_atoms": ((7.0, np.zeros(2)),)}, "atom time outside the horizon"),
        ],
        ids=["negative-lambda", "negative-eta", "negative-terminal-eta", "atom-after-T"],
    )
    def test_certificate_rejects(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ped2_certificate(), **change)

    def test_report_entry_of_an_unknown_condition(self):
        report = verify_certificate(ped2(), ped2_path(), StepFunction.constant(6.0, [1.8, 1.8]), ped2_certificate())
        assert report.entry("1-primal").condition == "1-primal"
        with pytest.raises(KeyError, match="no-such-condition"):
            report.entry("no-such-condition")


class TestOneInputContract:
    """The public grid checks meet `verify_certificate`'s contract: a path that does not fit the
    scenario or a control outside U raises before any residual."""

    def test_maximization_rejects_a_control_outside_U(self):
        sol = solve_reduced(ped2())
        with pytest.raises(ValueError, match="control value on interval 0 outside the admissible set"):
            check_maximization(sol.scenario, sol.certificate, 10.0 * sol.control, sol.path)

    @pytest.mark.parametrize("check", ["primal", "complementarity", "maximization"])
    def test_a_path_on_another_horizon_is_rejected(self, check):
        sol = solve_reduced(ped2())
        scn, cert, u = sol.scenario, sol.certificate, sol.control
        halved = PiecewisePath(0.5 * sol.path.times, sol.path.states)
        call = {"primal": lambda: check_primal(scn, halved, u, cert),
                "complementarity": lambda: check_complementarity(scn, halved, cert),
                "maximization": lambda: check_maximization(scn, cert, u, halved)}[check]
        with pytest.raises(ValueError, match="trajectory horizon 3 != scenario horizon 6"):
            call()

    @pytest.mark.parametrize("check", ["transversality", "nonatomicity"])
    def test_the_endpoint_checks_reject_a_path_on_another_horizon(self, check):
        sol = solve_reduced(ped2())
        scn, cert = sol.scenario, sol.certificate
        halved = PiecewisePath(0.5 * sol.path.times, sol.path.states)
        call = {"transversality": lambda: check_transversality(scn, halved, cert),
                "nonatomicity": lambda: check_nonatomicity(cert, halved, scn)}[check]
        with pytest.raises(ValueError, match="trajectory horizon 3 != scenario horizon 6"):
            call()

    @pytest.mark.parametrize("check", ["transversality", "nonatomicity"])
    def test_the_endpoint_checks_reject_a_path_of_another_width(self, check):
        sol = solve_reduced(ped2())
        scn, cert = sol.scenario, sol.certificate
        wide = PiecewisePath(sol.path.times, np.hstack([sol.path.states, np.zeros((len(sol.path.times), 1))]))
        call = {"transversality": lambda: check_transversality(scn, wide, cert),
                "nonatomicity": lambda: check_nonatomicity(cert, wide, scn)}[check]
        with pytest.raises(ValueError, match="trajectory state has width 3, the scenario needs 2"):
            call()

    # Each public check called with its arguments in another check's order names the parameter
    # that got the wrong kind of object.
    SWAPPED = {
        "primal in maximization's order": (lambda scn, path, u, cert: check_primal(scn, cert, u, path),
                                            "'traj' needs a Trajectory or a PiecewisePath, got DualCertificate"),
        "maximization in primal's order": (lambda scn, path, u, cert: check_maximization(scn, path, u, cert),
                                           "'traj' needs a Trajectory or a PiecewisePath, got DualCertificate"),
        "complementarity in nonatomicity's order": (lambda scn, path, u, cert: check_complementarity(cert, path, scn),
                                                    "'cert' needs a DualCertificate, got PedestrianScenario"),
        "transversality in nonatomicity's order": (lambda scn, path, u, cert: check_transversality(cert, path, scn),
                                                   "'cert' needs a DualCertificate, got PedestrianScenario"),
        "nonatomicity in transversality's order": (lambda scn, path, u, cert: check_nonatomicity(scn, path, cert),
                                                   "'cert' needs a DualCertificate, got PedestrianScenario"),
    }

    @pytest.mark.parametrize("case", SWAPPED.keys())
    def test_arguments_in_another_checks_order_are_named(self, case):
        call, message = self.SWAPPED[case]
        sol = solve_reduced(ped2())
        with pytest.raises(TypeError, match=f"^parameter {message}$"):
            call(sol.scenario, sol.path, sol.control, sol.certificate)

    def test_a_scenario_of_another_type_is_named(self):
        # A scenario's name where the scenario belongs: the path and the certificate pass their
        # checks, and the door names 'scn'.
        sol = solve_reduced(ped2())
        with pytest.raises(TypeError, match="^parameter 'scn' needs a Scenario, got str$"):
            verify_certificate("pedestrian2", sol.path, sol.control, sol.certificate)

    def test_a_simulated_trajectory_goes_through_the_door(self):
        scn = ped2()
        mesh = Mesh(scn.T, 6)
        traj = simulate(scn, ControlSignal.constant(mesh, [1.8, 1.8]))
        cert = solve_reduced(scn).certificate
        assert check_transversality(scn, traj, cert) == check_transversality(scn, PiecewisePath.from_trajectory(traj), cert)
        with pytest.raises(TypeError, match="^parameter 'traj' needs a Trajectory or a PiecewisePath, got ndarray$"):
            check_transversality(scn, traj.nodes, cert)
