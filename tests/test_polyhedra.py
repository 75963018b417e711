"""Geometry engine tests: membership, active sets, projection, cone decomposition."""

import math
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sweepctrl import polyhedra
from sweepctrl.polyhedra import (
    ConeDecomposition,
    Polyhedron,
    ProjectionError,
    active_set,
    check_licq,
    contains,
    decompose_normal,
    decompose_on_rows,
    project,
    project_raw,
    project_with_working_set,
    row_multipliers,
)


def halfspace_projection_oracle(a, c, y):
    """KKT oracle for a single halfspace {x : <a,x> <= c}: x = y - max(0, <a,y>-c)/||a||^2 * a."""
    a = np.asarray(a, float)
    y = np.asarray(y, float)
    viol = a @ y - c
    if viol <= 0.0:
        return y
    return y - (viol / (a @ a)) * a


def pedestrian_set(n=2, R=3.0):
    """Order-gap halfspaces x^j - x^{j+1} <= -2R."""
    rows = np.zeros((n - 1, n))
    for j in range(n - 1):
        rows[j, j] = 1.0
        rows[j, j + 1] = -1.0
    return Polyhedron(rows, np.full(n - 1, -2.0 * R))


def robot_set(n=2, R=6.0):
    """Paired-sum halfspaces in R^{2n}: (+1,+1) on agent j, (-1,-1) on agent j+1."""
    rows = np.zeros((n - 1, 2 * n))
    for j in range(n - 1):
        rows[j, 2 * j : 2 * j + 2] = 1.0
        rows[j, 2 * j + 2 : 2 * j + 4] = -1.0
    return Polyhedron(rows, np.full(n - 1, -2.0 * R))


class TestContains:
    def test_two_agent_start_point(self):
        C = pedestrian_set()
        assert contains(C, np.array([-60.0, -48.0]), 1e-9)

    def test_origin_violates_gap(self):
        C = pedestrian_set()
        assert not contains(C, np.array([0.0, 0.0]), 1e-9)

    def test_boundary_point_counts_as_inside(self):
        C = pedestrian_set()
        # <(1,-1), (-3,3)> = -6 exactly.
        assert contains(C, np.array([-3.0, 3.0]), 1e-9)

    def test_dimension_mismatch(self):
        C = pedestrian_set()
        with pytest.raises(ValueError):
            contains(C, np.array([1.0, 2.0, 3.0]))


class TestActiveSet:
    def test_single_active_row(self):
        C = pedestrian_set()
        assert active_set(C, np.array([-3.0, 3.0]), 1e-9).tolist() == [0]

    def test_interior_empty(self):
        C = pedestrian_set()
        assert active_set(C, np.array([-60.0, -48.0]), 1e-9).size == 0

    def test_both_rows_active_three_agents(self):
        # Both paired sums exactly -12: gaps of 6 per coordinate.
        C = robot_set(n=3, R=6.0)
        x = np.array([0.0, 0.0, 6.0, 6.0, 12.0, 12.0])
        assert active_set(C, x, 1e-9).tolist() == [0, 1]

    def test_outside_point_rejected(self):
        C = pedestrian_set()
        with pytest.raises(ValueError, match="outside"):
            active_set(C, np.array([0.0, 0.0]), 1e-9)


class TestProject:
    def test_interior_fixed_point(self):
        C = pedestrian_set()
        y = np.array([-60.0, -48.0])
        assert np.allclose(project(C, y), y)

    def test_scalar_halfspace_clamp(self):
        P = Polyhedron(np.array([[1.0]]), np.array([1.0]))
        assert project(P, np.array([3.0])) == pytest.approx(1.0)

    def test_single_row_matches_kkt_oracle(self):
        C = pedestrian_set()
        y = np.array([-10.0, -10.0])
        expected = halfspace_projection_oracle([1.0, -1.0], -6.0, y)
        assert np.allclose(expected, [-13.0, -7.0])
        assert np.allclose(project(C, y), expected, atol=1e-12)

    @pytest.mark.parametrize("start", [np.zeros(3), np.zeros((2, 1)), 0.0], ids=["long", "column", "scalar"])
    def test_wrong_shaped_feasible_start_raises(self, start):
        # The start is checked for shape only; a right-shaped one changes nothing.
        C, y = pedestrian_set(), np.array([-10.0, -10.0])
        with pytest.raises(ValueError, match=r"start has shape"):
            project(C, y, feasible_start=start)
        assert project(C, y, feasible_start=np.zeros(2)).tobytes() == project(C, y).tobytes()

    def test_nearly_parallel_rows(self):
        # Five nearly parallel rows around the origin (criterion-6 generator,
        # seed 308, task 27, instance 134): nonempty, so it must not raise.
        A = np.array([
            [1.0753353226331999, -0.1139554043906128],
            [-0.7545290347227608, 0.33257049651600673],
            [2.0978087488639034, -0.22256898411234813],
            [0.6107588156643422, -0.29772343698668335],
            [0.5503409840538777, -0.17627661558369176],
        ])
        c = np.array([0.822837267880234, 1.4654760198918044, 2.7823667233558242,
                      1.1647507335837952, 1.415544912992996])
        y = np.array([6.288272027156568, 3.5235704363614975])
        x = project(Polyhedron(A, c), y, 1e-9)
        assert np.max(A @ x - c) <= 1e-9
        rng = np.random.default_rng(308)
        for _ in range(200):
            d = rng.standard_normal(2)
            Ad = A @ d
            pos = Ad > 0.0
            z = rng.uniform(0.0, 1.0) * np.min(c[pos] / Ad[pos]) * d if np.any(pos) else d
            assert (y - x) @ (z - x) <= 1e-9 * max(1.0, np.linalg.norm(z - x))

    def test_empty_set_raises(self):
        with pytest.raises(ProjectionError):
            project(Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])), np.array([0.0]))

    @pytest.mark.parametrize(
        "A, y",
        [([[1.0, -1.0]], [np.nan, 0.0]), ([[np.nan, -1.0]], [0.0, 0.0]), ([[0.0, 1.0]], [np.inf, 0.0]),
         ([[1.0, 0.0]], [-np.inf, -1.0])],
        ids=["nan-y", "nan-A", "inf-y-on-a-zero-coefficient", "minus-inf-y-violating-nothing"],
    )
    def test_one_row_non_finite_input_raises_value_error(self, A, y):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            project_raw(np.array(A), np.array([-6.0]), np.array(y))

    def test_one_zero_row_below_zero_is_empty(self):
        with pytest.raises(ProjectionError, match="empty"):
            project_raw(np.zeros((1, 2)), np.array([-1.0]), np.zeros(2))

    def test_one_row_whose_norm_overflows_raises_value_error(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            project_raw(np.array([[1e200, 0.0]]), np.array([0.0]), np.array([1.0, 0.0]))

    def test_one_row_support_is_a_fresh_array(self):
        A, c = np.array([[1.0, -1.0]]), np.array([-6.0])
        _, W = project_raw(A, c, np.zeros(2))
        W[0] = 5
        assert project_raw(A, c, np.zeros(2))[1].tolist() == [0]


SPECIAL = st.sampled_from([0.0, 1.0, -2.5, 1e-200, 1e-160, 1e200, np.inf, -np.inf, np.nan])


@st.composite
def rows_with_special_values(draw):
    """Up to 4 rows in R^1..R^3 whose entries and offsets are zeros, tiny, huge or non-finite."""
    s, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return draw(hnp.arrays(float, (s, n), elements=SPECIAL)), draw(hnp.arrays(float, s, elements=SPECIAL))


def construction_rule(normals, offsets):
    """Polyhedron's row rules stated one at a time on np.linalg.norm: the message of the first
    rule that some row breaks, naming its first such row, or None."""
    norms = np.linalg.norm(normals, axis=1)
    for what, bad in (
        ("non-finite normal", ~np.isfinite(normals).all(axis=1)),
        ("non-finite offset", ~np.isfinite(offsets)),
        ("normal norm overflows", ~np.isfinite(norms)),
        ("zero normal vector", norms == 0.0),
    ):
        if bad.any():
            return f"{what} in row {int(np.argmax(bad))}"
    return None


class TestPolyhedronGuards:
    @pytest.mark.parametrize(
        "normals, offsets, message",
        [([[np.nan, 1.0]], [0.0], "normal in row 0"), ([[1.0, 0.0], [np.inf, 1.0]], [0.0, 0.0], "normal in row 1"),
         ([[1.0, 0.0], [0.0, 1.0]], [0.0, np.nan], "offset in row 1"),
         ([[1.0, 0.0], [0.0, 0.0]], [0.0, np.inf], "^non-finite offset in row 1$"),  # before the zero row
         ([[np.inf, 0.0], [1.0, 1.0]], [np.inf, 0.0], "^non-finite normal in row 0$")],
        ids=["nan-normal", "infinite-normal", "nan-offset", "inf-offset-on-a-zero-row", "inf-normal-and-offset"],
    )
    def test_non_finite_rows_rejected_naming_the_row(self, normals, offsets, message):
        with pytest.raises(ValueError, match=message):
            Polyhedron(np.array(normals), np.array(offsets))

    @pytest.mark.parametrize("row", [0, 1])
    def test_row_whose_norm_overflows_rejected_naming_the_row(self, row):
        # Every entry is finite, but |a|^2 is not: projecting onto such a row returned a point
        # that violates it, (1, 0) for y = (1, 0) with row 0 = (1e200, 0), offset 0.
        normals = np.eye(2)
        normals[row] = [1e200, 0.0]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"norm overflows in row {row}"):
            Polyhedron(normals, np.zeros(2))

    @pytest.mark.parametrize(
        "normals, offsets, message",
        [([[1e200, 0.0], [np.nan, 1.0]], [0.0, 0.0], "non-finite normal in row 1"),
         ([[1.0, 1.0], [1e200, 0.0]], [-np.inf, 0.0], "non-finite offset in row 0")],
        ids=["nan-after-an-overflowing-row", "inf-offset-before-an-overflowing-row"],
    )
    def test_non_finite_rows_are_named_before_an_overflowing_one(self, normals, offsets, message):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{message}$"):
            Polyhedron(np.array(normals), np.array(offsets))

    @pytest.mark.parametrize("tiny", [0.0, 1e-200], ids=["zero", "square-underflows-to-zero"])
    def test_zero_row_rejected_naming_the_row(self, tiny):
        with pytest.raises(ValueError, match="^zero normal vector in row 1$"):
            Polyhedron(np.array([[1.0, 0.0], [tiny, 0.0]]), np.zeros(2))

    def test_a_tiny_row_whose_square_is_subnormal_is_accepted(self):
        P = Polyhedron(np.array([[1e-160, 1e-160]]), np.array([0.0]))
        assert P.normals.tolist() == [[1e-160, 1e-160]]

    def test_a_1d_normal_with_a_scalar_offset_is_one_row(self):
        P = Polyhedron(np.array([1.0, -1.0]), 2.0)
        assert P.normals.tolist() == [[1.0, -1.0]] and P.offsets.tolist() == [2.0]
        assert contains(P, np.array([1.0, 0.0])) and not contains(P, np.array([3.0, 0.0]))

    @pytest.mark.parametrize(
        "normals, offsets, message",
        [(np.ones((1, 2, 2)), np.ones(1), "normals must be a 2-D array"),
         (np.eye(2), np.ones(1), "offsets must have one entry per normal"),
         (np.eye(2), np.ones((2, 1)), "offsets must have one entry per normal"),
         (np.empty((0, 2)), np.empty(0), "a polyhedron needs at least one row")],
        ids=["3-d-normals", "too-few-offsets", "2-d-offsets", "zero-rows"],
    )
    def test_shapes_rejected(self, normals, offsets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Polyhedron(normals, offsets)

    @pytest.mark.parametrize("rows", [1, 2], ids=["one-row", "two-rows"])
    def test_project_raw_rejects_a_start_of_another_shape(self, rows):
        A = np.eye(2)[:rows]
        with pytest.raises(ValueError, match=r"start has shape \(3,\), expected \(2,\)"):
            project_raw(A, np.zeros(rows), np.ones(2), start=np.zeros(3))

    def test_one_row_project_raw_rejects_a_point_of_another_shape(self):
        with pytest.raises(ValueError, match=r"y has shape \(3,\), expected \(2,\)"):
            project_raw(np.array([[1.0, 0.0]]), np.zeros(1), np.ones(3))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(rows_with_special_values())
    def test_rules_match_their_row_by_row_statement(self, rows):
        normals, offsets = rows
        with np.errstate(over="ignore"):
            expected = construction_rule(normals, offsets)
            if expected is None:
                Polyhedron(normals, offsets)
            else:
                with pytest.raises(ValueError, match=f"^{expected}$"):
                    Polyhedron(normals, offsets)


class TestDecomposeNormal:
    def test_zero_vector(self):
        C = pedestrian_set()
        dec = decompose_normal(C, np.array([-3.0, 3.0]), np.zeros(2))
        assert dec.residual == pytest.approx(0.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for v in dec.coefficients.values())

    def test_recovers_contact_multiplier(self):
        C = pedestrian_set()
        v = 5.4 * np.array([1.0, -1.0])
        dec = decompose_normal(C, np.array([-3.0, 3.0]), v)
        assert dec.coefficients[0] == pytest.approx(5.4, abs=1e-12)
        assert dec.residual == pytest.approx(0.0, abs=1e-12)

    def test_coefficients_map_int_rows_to_float_values(self):
        dec = decompose_normal(pedestrian_set(n=3), np.array([-12.0, -6.0, 0.0]), np.array([1.0, 1.0, -2.0]))
        assert list(dec.coefficients) == [0, 1]
        assert all(type(j) is int and type(eta) is float for j, eta in dec.coefficients.items())
        assert type(dec.residual) is float

    def test_interior_reports_full_residual(self):
        C = pedestrian_set()
        v = np.array([2.0, 1.0])
        dec = decompose_normal(C, np.array([-60.0, -48.0]), v)
        assert dec.coefficients == {}
        assert dec.residual == pytest.approx(np.linalg.norm(v))


class TestLicq:
    def test_empty_active_set(self):
        C = pedestrian_set()
        assert check_licq(C, np.array([-60.0, -48.0]))

    def test_independent_rows(self):
        C = pedestrian_set(n=3)
        x = np.array([-12.0, -6.0, 0.0])  # both gaps exactly 6
        assert check_licq(C, x)

    def test_duplicated_normal_fails(self):
        P = Polyhedron(np.array([[1.0, -1.0], [1.0, -1.0]]), np.array([-6.0, -6.0]))
        assert not check_licq(P, np.array([-3.0, 3.0]))

    def test_more_active_rows_than_the_dimension_fail(self):
        # Three lines through the origin in R^2: the SVD of the 3 x 2 block has only 2 singular
        # values, both large, so a rank test alone would call these rows independent.
        P = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3))
        assert active_set(P, np.zeros(2)).tolist() == [0, 1, 2]
        assert not check_licq(P, np.zeros(2))

    def test_one_active_row_needs_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        C = pedestrian_set(n=3)
        assert check_licq(C, np.array([-12.0, -6.0, 10.0]))  # only the first gap is 6
        assert calls == []
        assert check_licq(C, np.array([-12.0, -6.0, 0.0]))  # both gaps are 6
        assert calls == [1]


def random_instance(rng, max_dim=8, max_rows=7):
    """Random nonempty polyhedron with 0 strictly inside, plus a sampler for interior points."""
    n = int(rng.integers(2, max_dim + 1))
    s = int(rng.integers(1, max_rows + 1))
    A = rng.standard_normal((s, n))
    c = np.abs(rng.standard_normal(s)) + 0.1
    poly = Polyhedron(A, c)

    def sample_inside():
        d = rng.standard_normal(n)
        Ad = A @ d
        pos = Ad > 1e-12
        tmax = np.min(c[pos] / Ad[pos]) if np.any(pos) else 10.0
        return float(rng.uniform(0.0, 0.99)) * min(tmax, 10.0) * d

    return poly, sample_inside


class TestProjectionProperties:
    TOL = 1e-9

    def test_idempotence_feasibility_and_vi(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            poly, sample_inside = random_instance(rng)
            y = rng.standard_normal(poly.dim) * 5.0
            x = project(poly, y, self.TOL)
            assert contains(poly, x, 10 * self.TOL)
            x2 = project(poly, x, self.TOL)
            assert np.linalg.norm(x2 - x) <= 10 * self.TOL
            # Variational inequality against interior samples.
            for _ in range(20):
                z = sample_inside()
                assert (y - x) @ (z - x) <= self.TOL * max(1.0, np.linalg.norm(z - x))

    def test_nonexpansiveness(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            poly, _ = random_instance(rng)
            y1 = rng.standard_normal(poly.dim) * 5.0
            y2 = rng.standard_normal(poly.dim) * 5.0
            d = np.linalg.norm(project(poly, y1) - project(poly, y2))
            assert d <= np.linalg.norm(y1 - y2) + 10 * self.TOL

    def test_decomposition_recovers_random_cone_vectors(self):
        rng = np.random.default_rng(13)
        hits = 0
        while hits < 100:
            poly, _ = random_instance(rng)
            # Put a point on the face of row 0 and check LICQ there.
            a0 = poly.normals[0]
            x = poly.offsets[0] * a0 / (a0 @ a0)
            if not contains(poly, x, 1e-9):
                continue
            act = active_set(poly, x, 1e-9)
            if not check_licq(poly, x):
                continue
            eta = rng.uniform(0.0, 3.0, size=act.size)
            v = poly.normals[act].T @ eta
            dec = decompose_normal(poly, x, v)
            got = np.array([dec.coefficients.get(int(j), 0.0) for j in act])
            assert np.linalg.norm(got - eta) < 1e-8
            assert dec.residual < 1e-8
            hits += 1


COORD = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def polyhedron_and_points(draw):
    """A polyhedron {A x <= c} with n <= 6, s <= 7 and c > 0 (the origin inside), two points
    to project, and a feasible point on the ray from the origin along a drawn direction."""
    n, s = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    A = draw(hnp.arrays(float, (s, n), elements=COORD))
    assume(np.all(np.linalg.norm(A, axis=1) > 0.1))
    c = draw(hnp.arrays(float, s, elements=st.floats(0.1, 3.0)))
    y1, y2 = (5.0 * draw(hnp.arrays(float, n, elements=COORD)) for _ in range(2))
    d = draw(hnp.arrays(float, n, elements=COORD))
    Ad = A @ d
    reach = np.min(c[Ad > 0.0] / Ad[Ad > 0.0], initial=10.0)
    z = draw(st.floats(0.0, 1.0)) * min(reach, 10.0) * d
    return Polyhedron(A, c), y1, y2, z


@st.composite
def one_row_and_point(draw):
    """A row a (|a| > 0.1), a point y, and an offset c that y violates by 0.01 to 10."""
    n = draw(st.integers(1, 6))
    a = draw(hnp.arrays(float, n, elements=COORD))
    assume(np.linalg.norm(a) > 0.1)
    y = 5.0 * draw(hnp.arrays(float, n, elements=COORD))
    return a, float(a @ y) - draw(st.floats(0.01, 10.0)), y


class TestProjectionHypothesis:
    """The projection's defining properties over random small polyhedra, each to
    1e-9 max(1, |y|)."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(polyhedron_and_points())
    def test_projection_properties(self, inst):
        poly, y, y2, z = inst
        tol = 1e-9 * max(1.0, float(np.linalg.norm(y)))
        x = project(poly, y)
        assert np.max(poly.normals @ x - poly.offsets) <= tol  # feasible
        assert np.linalg.norm(project(poly, x) - x) <= tol  # idempotent
        gap = np.linalg.norm(y - y2)
        assert np.linalg.norm(x - project(poly, y2)) <= gap + tol * max(1.0, gap)  # nonexpansive
        assert (y - x) @ (z - x) <= tol * max(1.0, float(np.linalg.norm(z - x)))  # variational inequality
        assert decompose_normal(poly, x, y - x).residual <= tol  # y - P(y) in the normal cone at P(y)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(one_row_and_point())
    def test_one_row_closed_form_agrees_with_nnls(self, inst):
        a, c, y = inst
        x1, W1 = project_raw(a[None], np.array([c]), y)
        # The far row {-a x <= 10 - c} holds with slack 10 at the projection, but makes
        # the problem two rows, so the NNLS path solves it.
        x2, W2 = project_raw(np.stack([a, -a]), np.array([c, 10.0 - c]), y)
        assert np.linalg.norm(x1 - x2) <= 1e-12 * max(1.0, float(np.linalg.norm(y)))
        assert W1.tolist() == W2.tolist() == [0]


def left_to_right_one_row(a, c, y, tol):
    """`_project_one_row` for a finite y that projects, with each sum added one term at a time,
    left to right from 0: the order of Python 3.11's builtin `sum`, not of 3.12's compensated one."""
    top = 0.0
    for ai, yi in zip(a, y):
        top = top + ai * yi
    top = top - c
    if top <= tol:
        return None
    aa = 0.0
    for ai in a:
        aa = aa + ai * ai
    lam = top / aa
    return [yi - lam * ai for ai, yi in zip(a, y)]


@st.composite
def cancelling_row_and_point(draw):
    """A row and a point whose products cancel: a big term, small ones and the big one negated,
    so that a sum that compensates its rounding (`math.fsum`) differs from the left-to-right one."""
    big = draw(st.floats(1e15, 1e17))
    small = st.floats(0.1, 3.0)
    y = [big, draw(small), -big, draw(small)]
    a = [1.0, 1.0, 1.0, 1.0]
    if draw(st.booleans()):  # |a|^2 cancels too: 1e16 + 1 + 1 rounds back to 1e16 twice
        a, y = [1e8, 1.0, 1.0, 0.0], [1.0 + draw(small), draw(small), draw(small), 0.0]
    return a, -draw(small), y


class TestOneRowSumsLeftToRight:
    """From Python 3.12 the builtin `sum` of floats compensates its rounding; the one-row projection
    must add left to right from 0 on every interpreter, so that its bits do not change with it."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(cancelling_row_and_point())
    def test_projection_adds_left_to_right(self, inst):
        a, c, y = inst
        want = left_to_right_one_row(a, c, y, 1e-12)
        got = polyhedra._project_one_row(a, c, y, 1e-12)
        assert want is not None and np.array(got).tobytes() == np.array(want).tobytes()
        x, W = project_raw(np.array([a]), np.array([c]), np.array(y), tol=1e-12)
        assert x.tobytes() == np.array(want).tobytes() and W.tolist() == [0]

    @pytest.mark.parametrize(
        "a, c, y",
        [([1.0, 1.0, 1.0, 1.0], 0.0, [1e16, 1.0, -1e16, 0.5]), ([1e8, 1.0, 1.0, 0.0], 0.0, [1.0, 1.0, 1.0, 0.0])],
        ids=["products", "row-norm"],
    )
    def test_inputs_where_compensated_sums_round_differently(self, a, c, y):
        top = math.fsum(ai * yi for ai, yi in zip(a, y)) - c
        aa = math.fsum(ai * ai for ai in a)
        compensated = [yi - top / aa * ai for ai, yi in zip(a, y)]
        got = polyhedra._project_one_row(a, c, y, 1e-12)
        assert got == left_to_right_one_row(a, c, y, 1e-12) != compensated


@st.composite
def full_row_rank_and_point(draw):
    """A (s, n) with s <= n rows whose least singular value is at least 0.1, c > 0 and a point y."""
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, n))
    A = draw(hnp.arrays(float, (s, n), elements=COORD))
    assume(np.linalg.svd(A, compute_uv=False)[-1] >= 0.1)
    c = draw(hnp.arrays(float, s, elements=st.floats(0.1, 3.0)))
    return A, c, 5.0 * draw(hnp.arrays(float, n, elements=COORD))


class TestRowMultipliers:
    """The velocity-matching kernel against the projection it inverts: y - P(y) lies in the
    normal cone at P(y), on the support rows W of the projection."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(full_row_rank_and_point())
    def test_explains_the_projection_step_on_its_support(self, inst):
        A, c, y = inst
        tol = 1e-9 * max(1.0, float(np.linalg.norm(y)))
        x, W = project_raw(A, c, y)
        v = y - x
        eta = row_multipliers(A[W][None], np.ones((1, W.size), dtype=bool), v[None])[0]
        assert np.linalg.norm(v - A[W].T @ eta) <= tol
        assert np.all(eta >= -tol)
        dec = decompose_on_rows(Polyhedron(A, c), W, v)
        assert np.abs(eta - [dec.coefficients[int(j)] for j in W]).max(initial=0.0) <= 1e-9

    def test_inactive_rows_get_zero_and_do_not_enter(self):
        B = np.array([[[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]] * 2)
        active = np.array([[True, True], [False, True]])
        v = np.array([[3.0, 1.0, 2.0], [3.0, 1.0, 2.0]])
        eta = row_multipliers(B, active, v)
        assert eta[0] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert eta[1].tolist() == [0.0, -0.5]


class TestToleranceArgument:
    """Every public entry point takes a finite tol >= 0: an infinite one would call any point
    inside, a NaN one would make every comparison false."""

    P = Polyhedron(np.eye(2), [1.0, 1.0])
    CALLS = {
        "contains": lambda P, tol: contains(P, np.array([5.0, 5.0]), tol=tol),
        "active_set": lambda P, tol: active_set(P, np.array([1.0, 0.5]), tol=tol),
        "project": lambda P, tol: project(P, np.array([5.0, 5.0]), tol=tol),
        "project_with_working_set": lambda P, tol: project_with_working_set(P, np.array([5.0, 5.0]), tol=tol),
        "decompose_normal": lambda P, tol: decompose_normal(P, np.array([1.0, 0.5]), np.ones(2), tol=tol),
        "check_licq": lambda P, tol: check_licq(P, np.array([1.0, 0.5]), tol=tol),
    }

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0], ids=["inf", "nan", "negative"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_bad_tol_raises_naming_it(self, name, tol):
        with pytest.raises(ValueError, match="tol"):
            self.CALLS[name](self.P, tol)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_zero_tol_is_accepted(self, name):
        self.CALLS[name](self.P, 0.0)


class TestNonFiniteInputOnTheNnlsPath:
    """Two rows take the NNLS path, whose kernel does not check its input: the callers do."""

    @pytest.mark.parametrize(
        "A, c, y",
        [
            ([[1.0, -1.0], [-1.0, 0.0]], [-6.0, 1.0], [np.nan, 0.0]),
            ([[np.nan, -1.0], [0.0, 1.0]], [-6.0, 1.0], [0.0, 0.0]),
            ([[0.0, 1.0], [1.0, -1.0]], [-6.0, 1.0], [np.inf, 0.0]),
            ([[0.0, 1.0], [1.0, 0.0]], [0.0, np.inf], [0.0, 1.0]),
            ([[1.0, 1.0], [1.0, 2.0]], [0.0, 0.0], [-np.inf, -1.0]),
        ],
        ids=["nan-y", "nan-A", "inf-y-on-a-zero-coefficient", "minus-inf-violation-on-a-lower-row",
             "minus-inf-y-violating-nothing"],
    )
    def test_raises_value_error(self, A, c, y):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            project_raw(np.array(A), np.array(c), np.array(y))

    @pytest.mark.parametrize(
        "A, c, y",
        [
            ([[np.inf, 1.0], [1.0, 1.0]], [0.0, 0.0], [0.0, 5.0]),
            ([[1e200, 0.0], [0.0, 1.0]], [0.0, 0.0], [1e200, 1.0]),
        ],
        ids=["inf-A-facing-a-zero-coordinate", "overflowing-violation"],
    )
    def test_raises_value_error_whatever_the_violations_read(self, A, c, y):
        # The violations may come out finite or not (an inf times 0, an overflowing product):
        # either way the input is refused, never projected.
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            project_raw(np.array(A), np.array(c), np.array(y))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "minus-inf", "nan"])
    def test_a_non_finite_y_raises_before_numpy_warns(self, bad):
        # K(x) of three robots has zeros facing every robot outside a pair, so A.dot(y) would
        # form inf * 0.  No errstate: under warnings-as-errors a numpy warning fails the test.
        from sweepctrl.models import linearized_noncollision

        A, c = linearized_noncollision(np.array([0.0, 0.0, 3.0, 3.0, 6.0, 7.0]), 1.0)
        y = np.array([0.0, 0.0, bad, 3.0, 6.0, 7.0])
        for call in (lambda: project_raw(A, c, y), lambda: project(Polyhedron(A, c), y)):
            with pytest.raises(ValueError, match="^projection input must not contain infs or NaNs$"):
                call()

    def test_decompose_on_rows_rejects_a_nan_vector(self):
        with pytest.raises(ValueError):
            decompose_on_rows(pedestrian_set(3), np.array([0, 1]), np.array([np.nan, 0.0, 0.0]))


class TestNonFinitePointsAndVectors:
    """A NaN or inf point is not an interior point, and a vector to decompose is checked even
    when no row is active: each raises ValueError naming the argument."""

    C = pedestrian_set(n=2)

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, np.inf]], ids=["nan", "inf", "both-infs"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda C, x: active_set(C, x),
            lambda C, x: check_licq(C, x),
            lambda C, x: decompose_normal(C, x, np.ones(2)),
            lambda C, x: contains(C, x),
            lambda C, x: C.slack(x),
        ],
        ids=["active_set", "check_licq", "decompose_normal", "contains", "slack"],
    )
    def test_non_finite_point_raises_naming_x(self, call, x):
        with pytest.raises(ValueError, match="^x must not contain infs or NaNs$"):
            call(self.C, np.array(x))

    @pytest.mark.parametrize("v", [[np.nan, 0.0], [0.0, -np.inf]], ids=["nan", "minus-inf"])
    def test_non_finite_vector_at_an_interior_point_raises_naming_v(self, v):
        with pytest.raises(ValueError, match="^v .*must not contain infs or NaNs$"):
            decompose_normal(self.C, np.array([-60.0, -48.0]), np.array(v))
        with pytest.raises(ValueError, match="^v .*must not contain infs or NaNs$"):
            decompose_on_rows(self.C, np.array([], dtype=int), np.array(v))

    def test_vector_of_the_wrong_width_at_an_interior_point_raises_naming_v(self):
        with pytest.raises(ValueError, match=r"^v has shape \(3,\), expected \(2,\)$"):
            decompose_normal(self.C, np.array([-60.0, -48.0]), np.ones(3))

    def test_far_inside_point_whose_violation_overflows_is_returned(self):
        # Finite input whose violation overflows to -inf: deep inside, so the point comes back.
        y = np.array([-1e160, -1.0])
        x, W = project_raw(np.array([[1e154, 0.0]]), np.zeros(1), y)
        assert x.tolist() == y.tolist() and W.size == 0
        with np.errstate(over="ignore"):
            x, W = project_raw(np.array([[1e154, 0.0], [0.0, 1.0]]), np.zeros(2), y)
        assert x.tolist() == y.tolist() and W.size == 0

    @pytest.mark.parametrize("y", [[-1e300, 1e-10], [-1e200, 1e-120], [-1e300, 1e-300], [-1.7e308, 1e-320]])
    def test_a_row_satisfied_far_beyond_the_worst_violation_is_projected(self, y):
        # v_0 / top overflows (-1e310, -1e320, -1e600, ...): E's last row takes another divisor,
        # not refused as non-finite input.  The divisor keeps the violated row's entry normal, so
        # x_1 is 0 exactly, on the boundary at tol 0.  No errstate: a warning fails the test.
        P = Polyhedron(np.eye(2), np.zeros(2))
        x, W = project_with_working_set(P, np.array(y), tol=0.0)
        assert x.tolist() == [y[0], 0.0]
        assert W.tolist() == [1]
        assert project(P, np.array(y), tol=0.0).tolist() == [y[0], 0.0]


class TestNnlsLoader:
    """`_nnls()` calls scipy's compiled kernel directly, and falls back to the public `nnls`."""

    @staticmethod
    def load():
        return polyhedra._nnls.__wrapped__()  # the loader itself, past its cache

    def test_falls_back_when_the_kernel_is_missing(self, monkeypatch):
        import scipy.optimize

        monkeypatch.setitem(sys.modules, "scipy.optimize._slsqplib", None)
        assert self.load() is scipy.optimize.nnls

    def test_falls_back_when_scipy_has_no_package_directory(self, monkeypatch):
        import scipy.optimize

        monkeypatch.delitem(sys.modules, "scipy.optimize._slsqplib", raising=False)
        monkeypatch.setattr(polyhedra.importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="no scipy package directory"):
            polyhedra._kernel_module()
        assert self.load() is scipy.optimize.nnls

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda A, b: (np.zeros(A.shape[1]), 0.0, 1),
            lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0),
            lambda A, b, maxiter: (np.ones(A.shape[1]), 0.0, 1),
        ],
        ids=["two-arguments", "two-results", "wrong-solution"],
    )
    def test_falls_back_when_the_probe_fails(self, monkeypatch, kernel):
        import scipy.optimize

        slsqplib = pytest.importorskip("scipy.optimize._slsqplib")
        monkeypatch.setattr(slsqplib, "nnls", kernel, raising=False)
        assert self.load() is scipy.optimize.nnls

    @pytest.mark.parametrize("unlock", [False, True], ids=["writes-read-only-f", "unlocks-and-writes-f"])
    def test_falls_back_when_the_kernel_writes_into_its_right_hand_side(self, monkeypatch, unlock):
        # `project_raw` shares one read-only right-hand side per size between calls: a kernel
        # that writes into f, whether it is refused or gets through, is not used.
        import scipy.optimize

        slsqplib = pytest.importorskip("scipy.optimize._slsqplib")
        real = slsqplib.nnls

        def scribbling(E, f, maxiter):
            result = real(E, f, maxiter)
            if unlock:
                f.flags.writeable = True
            f[0] = 7.0
            return result

        monkeypatch.setattr(slsqplib, "nnls", scribbling)
        solver = self.load()
        assert solver is scipy.optimize.nnls
        monkeypatch.setattr(polyhedra, "_nnls", lambda: solver)
        x, W = project_raw(np.array([[1.0, -1.0], [-1.0, 0.0]]), np.array([-6.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(x, [-1.0, 5.0], rtol=0, atol=1e-12)
        assert W.tolist() == [0, 1]

    def test_both_loaders_give_identical_results(self, monkeypatch):
        import scipy.optimize

        kernel = self.load()
        if kernel is scipy.optimize.nnls:
            pytest.skip("this scipy has no compatible NNLS kernel")
        results = []
        for solver in (kernel, scipy.optimize.nnls):
            monkeypatch.setattr(polyhedra, "_nnls", lambda solver=solver: solver)
            rng = np.random.default_rng(2024)
            out = []
            for _ in range(200):
                n, s = int(rng.integers(2, 9)), int(rng.integers(1, 8))
                poly = Polyhedron(rng.standard_normal((s, n)), np.abs(rng.standard_normal(s)) + 0.1)
                y = rng.standard_normal(n) * 5.0
                x, W = project_raw(poly.normals, poly.offsets, y)
                out.append((x, W, decompose_on_rows(poly, W, y - x).residual))
            results.append(out)
        for (x1, W1, r1), (x2, W2, r2) in zip(*results):
            assert np.array_equal(x1, x2) and np.array_equal(W1, W2) and r1 == r2

    def test_iteration_cap_raises_projection_error(self, monkeypatch):
        slsqplib = pytest.importorskip("scipy.optimize._slsqplib")
        real, probed = slsqplib.nnls, []

        def capped(E, f, maxiter):  # answers the probe, then hits the cap
            if not probed:
                probed.append(1)
                return real(E, f, maxiter)
            return np.zeros(E.shape[1]), 0.0, 3

        monkeypatch.setattr(slsqplib, "nnls", capped)
        solver = self.load()
        monkeypatch.setattr(polyhedra, "_nnls", lambda: solver)
        with pytest.raises(ProjectionError, match="projection failed"):
            project_raw(np.array([[1.0, -1.0], [-1.0, 0.0]]), np.array([-6.0, 1.0]), np.zeros(2))


def _run_fresh(script: str) -> list[str]:
    """The words `script` prints, run in a new interpreter that imports sweepctrl from this tree."""
    src = str(Path(polyhedra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout.split()


class TestNnlsLoaderFreshProcess:
    """The loader's lookup past `sys.modules`, which the pytest process (where `scipy.optimize` is
    already imported) does not reach: the kernel's extension file loaded alone, and its absence."""

    @staticmethod
    def skip_without_kernel_file():
        import scipy

        optimize = Path(scipy.__path__[0], "optimize")
        if not any((optimize / f"_slsqplib{suffix}").is_file() for suffix in EXTENSION_SUFFIXES):
            pytest.skip("this scipy has no optimize/_slsqplib extension file")

    @pytest.mark.parametrize("first", ["", "import scipy"], ids=["scipy-found", "scipy-imported"])
    def test_kernel_file_alone_then_identical_to_the_public_nnls(self, first):
        self.skip_without_kernel_file()
        script = f"""
import sys
import numpy as np
{first}
from sweepctrl import polyhedra
from sweepctrl.polyhedra import Polyhedron, decompose_on_rows, project_raw

kernel = polyhedra._nnls()
x, W = project_raw(np.array([[1.0, -1.0], [-1.0, 0.0]]), np.array([-6.0, 1.0]), np.zeros(2))
print(kernel.__qualname__, np.allclose(x, [-1.0, 5.0], rtol=0, atol=1e-12), W.tolist() == [0, 1])
print("scipy.optimize" in sys.modules, "scipy.optimize._slsqplib" in sys.modules)

import scipy.optimize

def results(solver):
    polyhedra._nnls = lambda: solver
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(200):
        n, s = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        poly = Polyhedron(rng.standard_normal((s, n)), np.abs(rng.standard_normal(s)) + 0.1)
        y = rng.standard_normal(n) * 5.0
        x, W = project_raw(poly.normals, poly.offsets, y)
        out.append((x, W, decompose_on_rows(poly, W, y - x).residual))
    return out

pairs = list(zip(results(kernel), results(scipy.optimize.nnls)))
print(len(pairs), all(np.array_equal(x1, x2) and np.array_equal(W1, W2) and r1 == r2 for (x1, W1, r1), (x2, W2, r2) in pairs))
print(kernel is not scipy.optimize.nnls, hasattr(scipy.optimize, "_slsqplib"))
"""
        assert _run_fresh(script) == ["_nnls.<locals>.solve", "True", "True", "False", "False", "200", "True", "True", "True"]

    def test_falls_back_when_scipy_directory_has_no_kernel_file(self, tmp_path):
        # The lookup reads scipy's first package directory only; an empty one ahead of scipy's own
        # hides the kernel, while `import scipy.optimize` still finds the package behind it.
        script = f"""
import scipy
scipy.__path__.insert(0, {str(tmp_path)!r})
from sweepctrl import polyhedra
solver = polyhedra._nnls()
import scipy.optimize
print(solver is scipy.optimize.nnls)
"""
        assert _run_fresh(script) == ["True"]
