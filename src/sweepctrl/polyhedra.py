"""Convex polyhedral sets: membership, active sets, Euclidean projection, normal cones.

A polyhedron is stored in halfspace form {x : <a_j, x> <= c_j, j = 1..s}.
The sweeping dynamics and the optimality checks reduce to the six
operations in this module.
Projection is a least-distance program.  Onto one halfspace (a two-agent
K(x)) it is the closed form x = y - (<a, y> - c)/|a|^2 a; otherwise a
single NNLS call (Lawson & Hanson) solves it, exact on the small dense
problems met here.  scipy is imported on the first NNLS call, so a run
that never needs one (parsing, `verify`, a two-agent simulation and its
multipliers) never loads `scipy.optimize`.  The public entry points take a
finite `tol >= 0`; `project_raw`, the catch-up loop's kernel, trusts its
caller's.

The arrays met here hold 1 to 8 entries, so numpy's fixed cost per call,
not arithmetic, is most of each operation's time.  So every call makes one
pass: one ufunc reduction (for finiteness, one sum on Python floats) per
test, never an ndarray-method or `np.any` wrapper, and an entrywise test
only where that sum is not finite.
A non-finite point, vector to decompose or projection input raises
ValueError where it enters, naming it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from operator import mul

import numpy as np

from .tolerances import EMPTY_RTOL, LICQ_RTOL, MEMBERSHIP_TOL


@functools.cache
def _nnls():
    """An NNLS solver `(E, f) -> (u, ||E u - f||)`, built on the first call, so that importing the
    package does not load scipy.optimize (the largest part of the package's import time).

    It is scipy's compiled Lawson & Hanson kernel `_slsqplib.nnls(E, f, maxiter)` with the public
    `nnls`'s iteration cap (3 times the columns) and its RuntimeError on the cap (info == 3), but
    without that wrapper's argument checks, which take about three quarters of a public call on
    the problems met here.  So the callers pass C-contiguous float64 arrays and reject non-finite
    input themselves.  The kernel is private: when it is missing, or fails a probe solve (its
    signature or its result changed), this is the public `nnls`.
    """
    from scipy.optimize import nnls

    try:
        from scipy.optimize._slsqplib import nnls as kernel
    except ImportError:
        return nnls
    try:
        u, rnorm, info = kernel(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0, 1.0]), 6)
    except Exception:  # another signature: whatever a changed private kernel raises, the public one stands in
        return nnls
    if info == 3 or not (np.allclose(u, [1.5, 1.0]) and math.isclose(rnorm, math.sqrt(0.5))):
        return nnls

    def solve(E, f):
        u, rnorm, info = kernel(E, f, 3 * E.shape[1])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return u, rnorm

    return solve


def _check_finite(v: np.ndarray, name: str) -> None:
    """Raise naming `name` unless the 1-D array v is finite.  The sum of its entries, taken on
    Python floats (which overflow and form inf - inf without a numpy warning), is not finite when
    v holds a NaN or an inf, and otherwise only when it overflows, which the entrywise test then
    clears."""
    if not math.isfinite(sum(v.tolist())) and not np.isfinite(v).all():
        raise ValueError(f"{name} must not contain infs or NaNs")


def _check_tol(tol) -> None:
    """The membership tolerance of the public entry points: a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


class ProjectionError(RuntimeError):
    """Projection failed: the polyhedron is empty, or NNLS hit its iteration cap."""


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return bool(np.array_equal(a, b))


def _same_fields(a, b):
    """Value equality of two dataclass instances of one type: arrays by np.array_equal,
    tuples item by item, nested value objects by their own `==`."""
    if type(a) is not type(b):
        return NotImplemented
    return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """The set {x in R^dim : normals @ x <= offsets} with s >= 1 rows."""

    normals: np.ndarray  # (s, dim)
    offsets: np.ndarray  # (s,)

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        if normals.ndim < 2:  # as np.atleast_2d, without its per-call cost
            normals = normals.reshape(1, -1)
        offsets = np.asarray(self.offsets, dtype=float)
        if offsets.ndim == 0:
            offsets = offsets.reshape(1)
        if normals.ndim != 2:
            raise ValueError("normals must be a 2-D array")
        if offsets.shape != (normals.shape[0],):
            raise ValueError("offsets must have one entry per normal")
        if normals.shape[0] < 1:
            raise ValueError("a polyhedron needs at least one row")
        # |a_j|^2 as np.linalg.norm forms it, so that a row is zero (also when its square underflows)
        # or its norm overflows exactly when np.linalg.norm says so.
        sq = np.add.reduce(normals * normals, axis=1)
        # The total is finite unless a row holds a NaN or an inf, or some |a_j|^2 overflows (no
        # projection onto that row can be formed): only then are the rows examined, rule by rule.
        if not math.isfinite(np.add.reduce(np.hypot(sq, offsets))):
            for what, bad in (
                ("non-finite normal", ~np.isfinite(normals).all(axis=1)),
                ("non-finite offset", ~np.isfinite(offsets)),
                ("normal norm overflows", ~np.isfinite(sq)),
            ):
                if bad.any():
                    raise ValueError("%s in row %d" % (what, int(np.argmax(bad))))
        if np.minimum.reduce(sq) == 0.0:
            raise ValueError("zero normal vector in row %d" % int(sq.argmin()))
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    __eq__ = _same_fields

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def nrows(self) -> int:
        return self.normals.shape[0]

    def slack(self, x: np.ndarray) -> np.ndarray:
        """offsets - normals @ x; nonnegative componentwise iff x is inside.  x must be finite."""
        x = self._check_point(x)
        _check_finite(x, "x")
        return self.offsets - self.normals @ x

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has dimension {x.shape}, expected ({self.dim},)")
        return x


@dataclass(frozen=True)
class ConeDecomposition:
    """Nonnegative coefficients of v on the active normals, plus the unexplained part."""

    coefficients: dict  # row index (0-based) -> eta_j >= 0
    residual: float


def contains(poly: Polyhedron, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff <a_j, x> <= c_j + tol for every row j."""
    _check_tol(tol)
    return bool(np.minimum.reduce(poly.slack(x)) >= -tol)  # a NaN slack (overflowing products) is outside


def active_set(poly: Polyhedron, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Sorted row indices where the constraint holds with equality (within tol).

    The point must be finite and lie in the polyhedron (within tol); being
    outside beyond tol is an error, not an active constraint.
    """
    _check_tol(tol)
    slack = poly.slack(x)
    # The least slack decides; a NaN row (an overflowing product) falls through to the row test.
    if not np.minimum.reduce(slack) >= -tol and (slack < -tol).any():
        worst = int(np.argmin(slack))
        raise ValueError(f"point outside the polyhedron: row {worst} violated by {-slack[worst]:.3e}")
    return (slack <= tol).nonzero()[0]  # |slack| <= tol, since no slack is below -tol


def project(
    poly: Polyhedron,
    y: np.ndarray,
    tol: float = MEMBERSHIP_TOL,
    feasible_start: np.ndarray | None = None,
) -> np.ndarray:
    """Euclidean projection of y onto the polyhedron."""
    x, _ = project_with_working_set(poly, y, tol, feasible_start)
    return x


def project_with_working_set(
    poly: Polyhedron,
    y: np.ndarray,
    tol: float = MEMBERSHIP_TOL,
    feasible_start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Projection plus the rows that carry a positive multiplier.

    `feasible_start` is checked for shape but not needed: the
    least-distance solve starts from nothing.
    """
    _check_tol(tol)
    y = poly._check_point(y)
    return project_raw(poly.normals, poly.offsets, y, feasible_start, tol)


def project_raw(
    A: np.ndarray,
    c: np.ndarray,
    y: np.ndarray,
    start: np.ndarray | None = None,
    tol: float = MEMBERSHIP_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Projection of y onto {x : A x <= c} on raw arrays, plus its support rows.

    With z = x - y this is the least-distance program
        min ||z||  s.t.  -A z >= A y - c,
    which Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23)
    reduce to one NNLS problem: min ||E u - e_{n+1}|| over u >= 0 with
    E = [-A^T; (A y - c)^T].  With d = 1 - (A y - c) . u the multipliers are
    lam = u / d and x = y - A^T lam; d = 0 exactly when the set is empty.
    Here the last row of E is divided by the largest violation `top` (so
    lam = top * u / d), which leaves x unchanged but keeps d from shrinking
    with the squared distance to the set.  A y violating no row by more
    than `tol` is returned as is.  `start` (a feasible point, if the caller
    has one) is checked for shape only.

    With one row, u = 1/(1 + |a|^2) and d = |a|^2/(1 + |a|^2), so
    lam = top/|a|^2 in closed form, under the same emptiness rule; that
    branch runs on Python floats, since numpy's per-call overhead is most
    of the cost of a 1 x 4 row.  A non-finite input raises ValueError on
    both paths, also when no row is violated (the NNLS kernel no longer
    checks it), and so does a single row whose |a|^2 overflows.  A finite
    y so far inside that a violation overflows to -inf is returned as is.
    """
    if start is not None and np.shape(start) != y.shape:
        raise ValueError(f"start has shape {np.shape(start)}, expected {y.shape}")
    if A.shape[0] == 1:
        if y.shape != (A.shape[1],):
            raise ValueError(f"y has shape {y.shape}, expected ({A.shape[1]},)")
        x = _project_one_row(A[0].tolist(), c.item(), y.tolist(), tol)
        if x is None:
            return y.copy(), np.empty(0, dtype=int)
        return np.array(x), np.zeros(1, dtype=int)
    viol = A @ y - c
    top = float(np.maximum.reduce(viol))  # NaN when any violation is
    if top <= tol:
        # No violation is NaN or +inf here; a -inf one is tested as on one row.
        if np.minimum.reduce(viol) == -math.inf:
            _check_finite(np.concatenate((A.ravel(), c, y)), "projection input")
        return y.copy(), np.empty(0, dtype=int)
    n = y.shape[0]
    E = np.empty((n + 1, A.shape[0]))
    E[:n] = -A.T
    E[n] = h = viol / top
    _check_finite(E.ravel(), "projection input")  # the NNLS kernel does not check it
    f = np.zeros(n + 1)
    f[n] = 1.0
    try:
        u, _ = _nnls()(E, f)
    except RuntimeError as exc:  # iteration cap of the NNLS solver
        raise ProjectionError(f"projection failed: {exc}") from exc
    hu = h * u
    d = 1.0 - float(np.add.reduce(hu))
    # d is a difference of order-one terms: demand a margin over their rounding.
    if not d > EMPTY_RTOL * (1.0 + float(np.add.reduce(np.abs(hu)))):
        raise ProjectionError("the polyhedron is empty")
    return y - A.T @ ((top / d) * u), u.nonzero()[0]


def _project_one_row(a: list, c: float, y: list, tol: float) -> list | None:
    """`project_raw` onto the one halfspace <a, x> <= c on Python floats: the projection of y,
    or None when y violates the row by at most tol (y is its own projection).

    `simulate` steps a robot pair's contact arc on this helper directly, so both take one step
    in one sequence of float operations.
    """
    top = sum(map(mul, a, y)) - c
    if top <= tol:
        # -inf: a non-finite input, or a finite point so far inside that the sum overflowed.
        if top == -math.inf and not all(map(math.isfinite, [*a, c, *y])):
            raise ValueError("projection input must not contain infs or NaNs")
        return None
    if not math.isfinite(top):
        raise ValueError("projection input must not contain infs or NaNs")
    aa = sum(map(mul, a, a))
    if not aa > EMPTY_RTOL * (2.0 + aa):  # the NNLS rule of `project_raw`, d > EMPTY_RTOL (1 + u)
        if not math.isfinite(aa):
            raise ValueError("projection row norm overflows")
        raise ProjectionError("the polyhedron is empty")
    lam = top / aa
    return [yi - lam * ai for ai, yi in zip(a, y)]


def decompose_normal(
    poly: Polyhedron, x: np.ndarray, v: np.ndarray, tol: float = MEMBERSHIP_TOL
) -> ConeDecomposition:
    """Nonnegative least-squares fit v ~ sum_j eta_j a_j over the active rows at x.

    The residual norm reports how much of v lies outside the normal cone;
    the caller decides what residual is acceptable.  Under LICQ the
    coefficients are unique.
    """
    return decompose_on_rows(poly, active_set(poly, x, tol), v)


def decompose_on_rows(poly: Polyhedron, rows: np.ndarray, v: np.ndarray) -> ConeDecomposition:
    """Nonnegative fit of v on an explicit row subset (no activity check).

    v must be a finite vector of the polyhedron's dimension, even when no row is given; the
    coefficients map each row (an int) to its eta_j (a float)."""
    v = np.asarray(v, dtype=float, order="C")  # the NNLS kernel takes C-contiguous arrays
    if v.shape != (poly.dim,):
        raise ValueError(f"v has shape {v.shape}, expected ({poly.dim},)")
    _check_finite(v, "v (the vector to decompose)")  # the rows are finite: Polyhedron checks them
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        return ConeDecomposition(coefficients={}, residual=math.sqrt(v.dot(v)))  # as np.linalg.norm(v)
    coef, rnorm = _nnls()(poly.normals.take(rows, 0).T.copy(), v)  # basis (dim, k), C-contiguous
    return ConeDecomposition(coefficients=dict(zip(rows.tolist(), coef.tolist())), residual=float(rnorm))


def row_multipliers(B: np.ndarray, active: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multipliers eta of v on the active rows of each stacked row set, (N, s).

    For each k, eta solves B_W B_W^T eta = B_W v on the active rows B_W of
    B[k] (B is (N, s, dim), `active` (N, s) boolean, v (N, dim)), with the
    identity on an inactive row's diagonal, so that its eta is 0.  Under a
    fixed active set this is velocity matching: v - B_W^T eta is orthogonal
    to B_W.  eta is not clipped; the active rows must be independent.
    """
    B = B * active[..., None]
    G = np.einsum("kid,kjd->kij", B, B)
    np.einsum("kii->ki", G)[...] += ~active  # through a writeable view of each diagonal
    return np.linalg.solve(G, np.einsum("kid,kd->ki", B, v)[..., None])[..., 0]


def check_licq(poly: Polyhedron, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
    """Linear independence of the active normals at x (rank test with tolerance).

    No active row, or one (a nonzero normal), is independent without a rank test; more active
    rows than the dimension never are.
    """
    act = active_set(poly, x, tol)
    if act.size <= 1:
        return True
    if act.size > poly.dim:
        return False
    sv = np.linalg.svd(poly.normals.take(act, 0), compute_uv=False)
    return bool(sv[-1] > LICQ_RTOL * sv[0])
