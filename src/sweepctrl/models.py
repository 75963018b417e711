"""The two concrete scenario families: planar robots with obstacles, pedestrian doorway flow.

Both models share the controlled dynamics x' in -N(x; C) + g(x, u) over a
convex polyhedron C built from pairwise separation constraints with offsets
-2R.  The robot model lives in R^{2n} (two coordinates per agent) and uses
the component-sum norm |a|+|b| as the separation device that makes C, the
admissible-configuration set, and the linearized constraint sets coincide
under the ordering hypotheses; the actual collision geometry of the disks
(start check, admissible velocities, per-step constraint linearization) is
Euclidean.  The pedestrian model lives in R^n where the two notions agree
exactly.  A robot chain's per-step K(x) is written with one fancy store of
its pair floats, through flat indices cached per n, together with the
block -A^T of the NNLS matrix that the catch-up step hands to `polyhedra`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .polyhedra import Polyhedron, _same_fields
from .tolerances import CONTACT_TOL, CONTROL_TOL, SCALE_MAX


class ScenarioFormatError(ValueError):
    """Scenario file problem; the message names the offending key."""


# ---------------------------------------------------------------------------
# Control sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ControlSet:
    """Compact convex control set: a box of parameters p in [lo, hi] mapped by u = p @ basis.

    The rows of `basis` (q, d) are orthogonal.  A coordinate box has basis = I,
    so p = u.  A linked segment has one row, the link: u = link * r with r in
    [rlo, rhi] (e.g. u1 = 2*u2 with a bound quoted on u1).  Every operation is
    one formula in p; `kind` only picks the wording of a violation message.
    Vertices are the images of the 2^q corners of the parameter box.
    """

    kind: str  # "box" | "segment"
    basis: np.ndarray  # (q, d)
    lo: np.ndarray  # (q,) parameter bounds
    hi: np.ndarray

    @staticmethod
    def box(lo, hi) -> "ControlSet":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be two equal-length vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):  # corner @ basis would meet inf * 0
            raise ValueError("box bounds must be finite numbers")
        if np.any(hi < lo):
            raise ValueError("box upper bound below lower bound")
        return ControlSet(kind="box", basis=np.eye(lo.size), lo=lo, hi=hi)

    @staticmethod
    def segment(link, bounds, bound_on: int = 0) -> "ControlSet":
        """Segment u = link * r where `bounds` constrains component `bound_on`."""
        link = np.asarray(link, dtype=float)
        blo, bhi = float(bounds[0]), float(bounds[1])
        k = float(link[bound_on])
        if k == 0.0:
            raise ValueError("bound_on component has zero link coefficient")
        norm = math.hypot(*link.tolist())
        if not 1.0 / SCALE_MAX <= norm <= SCALE_MAX:  # |link|^2 divides every parameter fit
            raise ValueError(f"segment link norm {norm:g} outside [{1.0 / SCALE_MAX:g}, {SCALE_MAX:g}]")
        rlo, rhi = sorted((blo / k, bhi / k))  # Python floats: an overflow gives inf, no warning
        if not all(math.isfinite(r * c) for r in (rlo, rhi) for c in link.tolist()):
            raise ValueError(f"segment end points {rlo:g} * link, {rhi:g} * link are not finite")
        return ControlSet(kind="segment", basis=link[None, :], lo=np.array([rlo]), hi=np.array([rhi]))

    __eq__ = _same_fields

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def link(self) -> np.ndarray:
        """A segment's direction: u = link * r with r in [rlo, rhi]."""
        return self.basis[0]

    @property
    def rlo(self) -> float:
        return float(self.lo[0])

    @property
    def rhi(self) -> float:
        return float(self.hi[0])

    @functools.cached_property
    def _basis_sq(self) -> np.ndarray:
        return np.einsum("qd,qd->q", self.basis, self.basis)

    @functools.cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo - CONTROL_TOL, self.hi + CONTROL_TOL

    @functools.cached_property
    def _bound_lists(self) -> tuple[list, list]:
        """`_bounds` as Python floats, for a test of one parameter row without array calls."""
        lo, hi = self._bounds
        return lo.tolist(), hi.tolist()

    def parameters(self, u) -> np.ndarray:
        """Least-squares parameters p of u (of each row of an (N, d) array); exact on the set.
        `einsum`, not a BLAS product, so that a row gets the same p in a batch of any size."""
        return np.einsum("...d,qd->...q", np.asarray(u, dtype=float), self.basis) / self._basis_sq

    def in_box(self, P) -> np.ndarray:
        """Entrywise lo - CONTROL_TOL <= p <= hi + CONTROL_TOL for parameter rows P (a NaN
        parameter is outside): the one parameter rule of the set."""
        lo, hi = self._bounds
        return (lo <= P) & (P <= hi)

    def _first_violation(self, values, tol: float) -> tuple[int, str] | None:
        """(row, message) for the first control row of the wrong width, off the span of the basis
        by more than tol * max(1, |p|) (so any non-finite row) or with p outside [lo - tol, hi + tol].

        All rows in is the usual answer, so it is decided first, with the fewest array calls (a
        count of the true entries, not an ndarray reduction, which costs more): a box's p is u
        (exactly, where u is finite, and a NaN or an inf u is outside its bounds), so it takes
        neither `parameters` nor the span test."""
        U = np.atleast_2d(np.asarray(values, dtype=float))
        if U.shape[1] != self.dim:
            return 0, f"u has width {U.shape[1]}, the control set width {self.dim}"
        if self.kind == "box":
            within = self.in_box(U)
            if np.count_nonzero(within) == within.size:
                return None
            k = int(within.all(1).argmin())
            i = int(within[k].argmin())
            return k, f"u{i + 1} = {U[k, i]:g} outside [{self.lo[i]:g}, {self.hi[i]:g}]"
        finite = np.isfinite(U)
        all_finite = np.count_nonzero(finite) == finite.size
        P = self.parameters(U if all_finite else np.where(finite, U, 0.0))  # finite: no inf - inf below
        off = np.abs(U - P @ self.basis)
        within = self.in_box(P)
        if np.count_nonzero(off <= tol) == off.size and np.count_nonzero(within) == within.size:
            return None
        on = off.max(1) <= tol * np.maximum(1.0, np.abs(P).max(1))
        good = on & within.all(1)
        if good.all():
            return None
        k = int(good.argmin())
        u, p = U[k], P[k]
        if not finite[k].all():
            i = int(np.argmin(finite[k]))
            return k, f"u{i + 1} = {u[i]:g} is not a finite number"
        if not on[k]:
            return k, f"u = {u.tolist()} is not proportional to the link {self.link.tolist()}"
        return k, f"link parameter {p[0]:g} outside [{self.rlo:g}, {self.rhi:g}]"

    def contains(self, u) -> bool:
        return self._first_violation(u, CONTROL_TOL) is None

    def violation_message(self, u) -> str | None:
        """Human-readable description of the first violated bound, or None."""
        hit = self._first_violation(u, CONTROL_TOL)
        return None if hit is None else hit[1]

    def check_rows(self, values) -> np.ndarray:
        """Raise naming the first interval whose control row lies outside the set, checking
        each run of equal rows once, at its start; returns those starts."""
        values = np.atleast_2d(values)
        starts = run_starts(values)
        hit = self._first_violation(values[starts], CONTROL_TOL)
        if hit is not None:
            raise ValueError(f"control value on interval {starts[hit[0]]} outside the admissible set: {hit[1]}")
        return starts

    def at_parameter(self, p) -> np.ndarray:
        return np.atleast_1d(np.asarray(p, dtype=float)) @ self.basis

    def vertices(self) -> np.ndarray:
        return self.at_parameter(list(itertools.product(*zip(self.lo, self.hi))))

    def clamp(self, u) -> np.ndarray:
        """Euclidean projection onto the set: the clipped parameters."""
        return self.at_parameter(np.clip(self.parameters(u), self.lo, self.hi))

    def maximize_linear(self, psi):
        """Max of <psi, u> over the set and a maximizer, in closed form: each parameter at
        the bound the sign of its gradient psi @ basis^T picks (the upper one on a tie).
        `psi` is one vector, or one per row of an (N, n) array."""
        psi = np.asarray(psi, dtype=float)
        u = self.at_parameter(np.where(psi @ self.basis.T >= 0.0, self.hi, self.lo))
        best = np.sum(psi * u, axis=-1)
        return (float(best), u) if psi.ndim == 1 else (best, u)


def run_starts(values: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array that start a run of equal rows: 0 and each row unlike the one before."""
    head = np.ones(len(values), dtype=bool)
    (values[1:] != values[:-1]).any(1, out=head[1:])
    return head.nonzero()[0]


def in_contact(gaps) -> np.ndarray:
    """The package's one contact rule, entrywise: a pair is in contact when its gap is within
    CONTACT_TOL of 0 on either side, so a pair that overlaps by more is not in contact."""
    return np.abs(gaps) <= CONTACT_TOL


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


class Scenario:
    """The drive, checks and contact test both families share, over five model hooks:

    headings(t, contact_time)     unit drive direction per agent: one (n, coords) table, which
                                  broadcasts over N times when no heading switches, else
                                  (N, n, coords) at N times
    constraint_rows(x)            the step set K(x) = {y : A y <= c} as (A, c)
    pair_gaps(x)                  separation margin of each adjacent pair (row-wise), 0 at contact
    free_run(x, d, support, cap)  how many further catch-up steps from x keep the increment d,
                                  decided on Python floats, bit for bit the array formulas (a
                                  robot chain's loop over its pairs is O(n^2); a pedestrian
                                  chain's also takes x and d as lists)
    step_rows(X, Y)               the adjacent-pair rows of K(x) at each node of X, in the sweeping
                                  set's units, and their linearized gaps at the matching nodes of Y

    and, for two robots, whose K(x) is one row that turns with x, `pair_row(xs)`: that row and
    its offset at a state given as a list, the formula `simulate` writes out for every step of
    a pair.  A robot chain's K(x), which turns with x, also comes from `catchup_rows(x)`:
    (A, c, E) with E the NNLS block of `polyhedra._project_rows` formed in the same pass, or
    None to let `project_raw` form it.  The pedestrians' set is fixed, and `simulate` steps it
    by pool-adjacent-violators on Python floats, with no block.

    Agent i moves at s_i u^i along its heading: `drive` (g, linear in u and
    independent of x) and `drive_adjoint` are that one formula and its
    transpose.  Pedestrians, whose heading is 1, write the drive in closed form
    as s * u, with the same bits; the adjoint stays this generic one for both
    families, since its sum over a length-1 axis turns -0.0 into 0.0.  Only a
    robot whose heading switches at the first contact reads `contact_time`
    (`switches_at_contact`); a robot whose heading switches at a given time
    reports it as `switch_time`.
    """

    switches_at_contact = False
    switch_time: float | None = None
    __eq__ = _same_fields

    def _validate(self, make_sweeping_set, coords: int) -> None:
        """Shared input checks (`coords` state coordinates per agent); errors name the file key."""
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "speeds", np.asarray(self.speeds, dtype=float))
        if self.n < 2:
            raise ValueError(f"key 'n': need n >= 2 agents, got {self.n}")
        if not 0.0 <= self.R < math.inf:
            raise ValueError(f"key 'R': need a finite R >= 0, got {self.R}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"key 'T': need a finite T > 0, got {self.T}")
        if self.x0.shape != (coords * self.n,) or not np.all(np.isfinite(self.x0)):
            raise ValueError(f"key 'x0': need {coords * self.n} finite numbers")
        if self.speeds.shape != (self.n,) or not np.all((self.speeds >= 0.0) & (self.speeds < math.inf)):
            raise ValueError(f"key 'speeds': need {self.n} finite nonnegative numbers")
        if self.control_set.dim != self.n:
            key = "control.lo" if self.control_set.kind == "box" else "control.link"
            raise ValueError(f"key '{key}': control set dimension {self.control_set.dim} != n = {self.n}")
        # How far the agents may get, on Python floats (an overflow is inf): with controls and reach
        # up to SCALE_MAX, and a horizon from reach / SCALE_MAX to SCALE_MAX, the squares of states,
        # times and velocities (a step's rounding over h included) stay finite.
        U = self.control_set
        umax = (np.abs(U.basis).T @ np.maximum(np.abs(U.lo), np.abs(U.hi))).tolist()  # |u_i| over U
        if not max(umax) <= SCALE_MAX:
            keys = "keys 'control.lo', 'control.hi'" if U.kind == "box" else "key 'control.bounds'"
            raise ValueError(f"{keys}: controls up to {max(umax):g}, beyond {SCALE_MAX:g}")
        vmax = max(s * u for s, u in zip(self.speeds.tolist(), umax))
        reach = max(map(abs, self.x0.tolist())) + 2.0 * self.R * self.n + self.T * vmax
        if not reach <= SCALE_MAX:
            raise ValueError(f"keys 'x0', 'R', 'T', 'speeds': |x0| + 2R n + T s |u| = {reach:g}, beyond {SCALE_MAX:g}")
        if not reach / SCALE_MAX <= self.T <= SCALE_MAX:
            raise ValueError(f"key 'T': need a horizon in [{reach / SCALE_MAX:g}, {SCALE_MAX:g}], got {self.T:g}")
        object.__setattr__(self, "_sweeping_set", make_sweeping_set(self.n, self.R))

    @property
    def state_dim(self) -> int:
        return self.x0.size

    @property
    def horizon(self) -> float:
        return self.T

    def sweeping_set(self) -> Polyhedron:
        return self._sweeping_set

    def drive(self, u, t=0.0, contact_time: float | None = None) -> np.ndarray:
        """g(x, u) = (s_i u^i times agent i's heading) for a u known to lie in U: (state_dim,),
        or (N, state_dim) for N control rows, at one time or at N times.  The products are
        elementwise, so a row's drive has the same bits whether the headings broadcast or not."""
        # (s u) h, not s (u h) or a precomputed s h: a pushed robot train amplifies rounding.
        g = (self.speeds * u)[..., None] * self.headings(t, contact_time)
        return g.reshape(*g.shape[:-2], -1)

    def drive_adjoint(self, q, t=0.0, contact_time: float | None = None) -> np.ndarray:
        """(dg/du)^T q, row by row for an (N, state_dim) q."""
        H = self.headings(t, contact_time)
        return self.speeds * np.sum(H * np.reshape(q, (*np.shape(q)[:-1], self.n, H.shape[-1])), axis=-1)

    def g(self, x, u, t: float = 0.0, contact_time: float | None = None) -> np.ndarray:
        """Drive velocity g(x, u); raises naming the bound a control outside U breaks."""
        u = np.asarray(u, dtype=float)
        msg = self.control_set.violation_message(u)
        if msg is not None:
            raise ValueError(f"control outside the admissible set: {msg}")
        return self.drive(u, t, contact_time)

    def contact_rows(self, x) -> np.ndarray:
        """Adjacent-pair indices j with the agents j, j+1 in contact (`in_contact`)."""
        return np.flatnonzero(in_contact(self.pair_gaps(x)))


@dataclass(frozen=True, eq=False)
class RobotScenario(Scenario):
    """n planar robots of safety radius R steered toward the origin.

    The per-agent drive is s_i * u^i along the fixed heading angle theta_i;
    an optional second heading takes over at `switch_at` (a time, or the
    string "contact" meaning the first collision of any pair).
    """

    n: int
    R: float
    T: float
    x0: np.ndarray  # (2n,)
    speeds: np.ndarray  # (n,)
    angles: np.ndarray  # (n,) radians
    control_set: ControlSet
    angles_post: np.ndarray | None = None
    switch_at: float | str | None = None

    def __post_init__(self):
        self._validate(robot_sweeping_set, coords=2)
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))
        if self.angles_post is not None:
            object.__setattr__(self, "angles_post", np.asarray(self.angles_post, dtype=float))
        for key, angles in (("angles_deg", self.angles), ("angles_deg_post", self.angles_post)):
            if angles is not None and angles.shape != (self.n,):
                raise ValueError(f"key '{key}': need {self.n} headings")
        # Ordering hypothesis: both coordinates strictly increase with the index.
        for j in range(self.n - 1):
            if not (self.x0[2 * j + 2] > self.x0[2 * j] and self.x0[2 * j + 3] > self.x0[2 * j + 1]):
                raise ValueError(f"key 'x0': initial ordering violated between agents {j + 1} and {j + 2}")
        gaps = self.pair_gaps(self.x0)
        if np.min(gaps) < -CONTROL_TOL:
            j = int(np.argmin(gaps))
            raise ValueError(f"key 'x0': disks {j + 1} and {j + 2} overlap by {-gaps[j]:.3g} (not projected)")
        # Unit headings (cos th_i, sin th_i) before and after the switch, (2, n, 2).
        post = self.angles if self.angles_post is None else self.angles_post
        angles = np.array([self.angles, post])
        object.__setattr__(self, "_headings", np.stack([np.cos(angles), np.sin(angles)], axis=-1))
        offsets = np.full(self.n * (self.n - 1) // 2, -2.0 * self.R)  # K(x)'s offsets, one per pair
        offsets.flags.writeable = False  # shared by every `constraint_rows` call
        object.__setattr__(self, "_offsets", offsets)

    @property
    def switches_at_contact(self) -> bool:
        return self.angles_post is not None and self.switch_at == "contact"

    @property
    def switch_time(self) -> float | None:
        return None if self.angles_post is None or self.switch_at == "contact" else self.switch_at

    def _switch(self, contact_time: float | None) -> float | None:
        """The time the post-switch headings take over (given the first contact time if known),
        or None while no switch is known."""
        if self.angles_post is None:
            return None
        return contact_time if self.switch_at == "contact" else self.switch_at

    def theta(self, t: float, contact_time: float | None = None) -> np.ndarray:
        """Heading angles effective at time t, given the first contact time if known."""
        switch = self._switch(contact_time)
        return self.angles_post if switch is not None and t >= switch else self.angles

    def headings(self, t, contact_time: float | None = None) -> np.ndarray:
        """(cos th_i, sin th_i) per agent along the headings effective at t: one (n, 2) table
        while no switch is known, which broadcasts over any times, else one table per time."""
        switch = self._switch(contact_time)
        if switch is None:
            return self._headings[0]
        return self._headings[(np.asarray(t) >= switch).astype(int)]

    def constraint_rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        """`linearized_noncollision(x, R)`, with its offsets one read-only array for every x."""
        return _noncollision_system(x)[0], self._offsets

    def catchup_rows(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """`constraint_rows(x)` and, for three robots or more, the NNLS block of K(x) formed with
        it (`_noncollision_system`); two robots' one row needs none (`project_raw`'s closed form)."""
        A, E = _noncollision_system(x)
        return A, self._offsets, E if self.n > 2 else None

    def pair_gaps(self, x) -> np.ndarray:
        P = np.reshape(x, (*np.shape(x)[:-1], self.n, 2))
        D = P[..., 1:, :] - P[..., :-1, :]
        return np.hypot(D[..., 0], D[..., 1]) - 2.0 * self.R

    def step_rows(self, X, Y) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(2) times the adjacent-pair rows of `linearized_noncollision` at each node of X,
        (N, n-1, 2n), and each row's linearized gap <n_j, y^j - y^{j+1}> - 2R at the node of Y,
        (N, n-1).  The factor makes a row equal the sweeping set's sum-norm row on the diagonal,
        so multipliers on these rows keep the published units (robot2's eta = 125/42)."""
        N, n = len(X), self.n
        P, Q = np.reshape(X, (N, n, 2)), np.reshape(Y, (N, n, 2))
        D = P[:, :-1] - P[:, 1:]
        dist = np.hypot(D[..., 0], D[..., 1])
        if not dist.all():
            k, j = np.argwhere(dist == 0.0)[0]
            raise ValueError(f"coincident centers {j + 1}, {j + 2} at node {k}: gradient undefined")
        unit = D / dist[..., None]  # n_j, from x^{j+1} to x^j
        gaps = np.sum(unit * (Q[:, :-1] - Q[:, 1:]), axis=-1) - 2.0 * self.R
        B = np.zeros((N, n - 1, n, 2))
        j = np.arange(n - 1)
        B[:, j, j + 1] = math.sqrt(2.0) * unit
        B[:, j, j] = -B[:, j, j + 1]
        return B.reshape(N, n - 1, 2 * n), gaps

    def free_run(self, x, d, support, cap: int) -> int:
        """Free flight only: while each pair keeps ||x^i - x^j|| >= 2R + ||d^i - d^j|| + CONTACT_TOL,
        x + d lies in the linearized K(x) and out of contact (a quadratic in the step count).
        One pass over every pair i < j on Python floats, O(n^2), in the float operations of the
        array formula over all pairs at once, so the run length is that formula's bit for bit;
        at a few robots numpy's per-call cost, not the arithmetic, is most of such a formula's time."""
        xs, ds = x.tolist(), d.tolist()
        two_r, least = 2.0 * self.R, math.inf
        for i in range(0, len(xs), 2):
            xi, yi, ui, vi = xs[i], xs[i + 1], ds[i], ds[i + 1]
            for j in range(i + 2, len(xs), 2):
                Dx, Dy, ex, ey = xi - xs[j], yi - xs[j + 1], ui - ds[j], vi - ds[j + 1]
                a, b = ex * ex + ey * ey, Dx * ex + Dy * ey
                r = two_r + math.sqrt(a) + CONTACT_TOL
                c = (Dx * Dx + Dy * Dy) - r * r  # a l^2 + 2 b l + c >= 0
                if c < 0.0:
                    return 0
                disc = b * b - a * c
                if b < 0.0 and disc >= 0.0:  # the first root, in its stable form
                    least = min(least, c / (math.sqrt(disc) - b))
        # The least root's floor drops one step that may still hold.
        return int(min(cap, least))

    def pair_row(self, xs: list) -> tuple[list, float]:
        """K(x) of two robots on Python floats: its one row (a, c) at the state xs, a list, as
        `constraint_rows` forms it (hypot, then two divisions)."""
        dx, dy = xs[0] - xs[2], xs[1] - xs[3]
        dist = math.hypot(dx, dy)
        if dist == 0.0:
            raise ValueError("coincident centers 1, 2: gradient undefined")
        nx, ny = dx / dist, dy / dist
        return [-nx, -ny, nx, ny], -2.0 * self.R

    def pair_gap_euclid(self, x, i: int, j: int) -> float:
        """Euclidean disk separation ||x^i - x^j|| - 2R (the collision geometry)."""
        return math.hypot(x[2 * i] - x[2 * j], x[2 * i + 1] - x[2 * j + 1]) - 2.0 * self.R


@dataclass(frozen=True, eq=False)
class PedestrianScenario(Scenario):
    """n pedestrians on a line moving right toward a doorway at the origin."""

    n: int
    R: float
    T: float
    x0: np.ndarray  # (n,)
    speeds: np.ndarray  # (n,)
    control_set: ControlSet

    def __post_init__(self):
        self._validate(pedestrian_sweeping_set, coords=1)
        gaps = self.pair_gaps(self.x0)
        if np.min(gaps) < -CONTROL_TOL:
            j = int(np.argmin(gaps))
            raise ValueError(f"key 'x0': gap {j + 1}->{j + 2} below 2R (not projected)")
        headings = np.ones((self.n, 1))
        headings.flags.writeable = False  # shared by every `drive` call
        object.__setattr__(self, "_headings", headings)

    def headings(self, t, contact_time: float | None = None) -> np.ndarray:
        """Every pedestrian walks along the line: the drive is (s_1 u^1, ..., s_n u^n).  One
        read-only (n, 1) table of ones, built with the scenario."""
        return self._headings

    def drive(self, u, t=0.0, contact_time: float | None = None) -> np.ndarray:
        """g(x, u) = (s_1 u^1, ..., s_n u^n), the base formula in closed form: its product with
        a heading of 1.0 and its reshape of a length-1 axis change no bit, -0.0 included."""
        return self.speeds * u

    def constraint_rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self._sweeping_set.normals, self._sweeping_set.offsets

    def free_run(self, x, d, support, cap: int) -> int:
        """Steps until a row outside the support would bind: the least slack over rate.  The
        rows are e_j - e_{j+1}, so rate and slack are one subtraction each on Python floats, bit
        for bit the matrix products `A @ d` and `c - A @ x`.  x and d are arrays or lists."""
        xs, ds = (x, d) if isinstance(x, list) else (x.tolist(), d.tolist())
        c, least = -2.0 * self.R, math.inf
        for j in range(self.n - 1):
            rate = ds[j] - ds[j + 1]
            if rate > 0.0 and j not in support:  # the support's rows move at rounding-level rates
                least = min(least, (c - (xs[j] - xs[j + 1])) / rate)
        return int(min(cap, max(0.0, least)))

    def pair_gaps(self, x) -> np.ndarray:
        return np.diff(np.asarray(x, dtype=float)) - 2.0 * self.R

    def step_rows(self, X, Y) -> tuple[np.ndarray, np.ndarray]:
        """The fixed sweeping-set rows for each node of X (a broadcast view, (N, n-1, n)) and
        their gaps at the nodes of Y, (N, n-1)."""
        A = self._sweeping_set.normals
        return np.broadcast_to(A, (len(X), *A.shape)), self.pair_gaps(Y)


# ---------------------------------------------------------------------------
# Sweeping sets and perturbation maps
# ---------------------------------------------------------------------------


def robot_sweeping_set(n: int, R: float) -> Polyhedron:
    """Rows e_{j,1}+e_{j,2}-e_{j+1,1}-e_{j+1,2} with offsets -2R, j = 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = np.zeros((n - 1, 2 * n))
    for j in range(n - 1):
        rows[j, 2 * j : 2 * j + 2] = 1.0
        rows[j, 2 * j + 2 : 2 * j + 4] = -1.0
    return Polyhedron(rows, np.full(n - 1, -2.0 * R))


def pedestrian_sweeping_set(n: int, R: float) -> Polyhedron:
    """Rows e_j - e_{j+1} with offsets -2R, j = 1..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = np.zeros((n - 1, n))
    for j in range(n - 1):
        rows[j, j] = 1.0
        rows[j, j + 1] = -1.0
    return Polyhedron(rows, np.full(n - 1, -2.0 * R))


def robot_g(
    scn: RobotScenario, x, u, t: float = 0.0, contact_time: float | None = None
) -> np.ndarray:
    """Drive velocity (s_1 u^1 cos th_1, s_1 u^1 sin th_1, ...); independent of x."""
    return scn.g(x, u, t, contact_time)


def pedestrian_g(scn: PedestrianScenario, u) -> np.ndarray:
    """Drive velocity (s_1 u^1, ..., s_n u^n)."""
    return scn.g(None, u)


def distance_gap(scn: Scenario, x, i: int, j: int) -> float:
    """Separation margin D_ij(x); nonnegative iff no overlap.

    Robot variant uses the component-sum norm |a| + |b| (the device under
    which the sweeping set equals the admissible-configuration set);
    pedestrian variant is the order gap x^j - x^i - 2R for i < j.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(scn, RobotScenario):
        if not (0 <= i < scn.n and 0 <= j < scn.n and i != j):
            raise ValueError("invalid agent pair")
        a = x[2 * i : 2 * i + 2] - x[2 * j : 2 * j + 2]
        return float(abs(a[0]) + abs(a[1]) - 2.0 * scn.R)
    if not (0 <= i < j < scn.n):
        raise ValueError("pedestrian gap needs 0 <= i < j < n")
    return float(x[j] - x[i] - 2.0 * scn.R)


def admissible_velocities_contains(
    scn: RobotScenario, x, v, h: float, tol: float = CONTROL_TOL
) -> bool:
    """First-order noncollision test: D_ij(x) + h <grad D_ij(x), v> >= -tol for all i < j.

    Euclidean disk distances; coincident centers make the gradient
    undefined and raise.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    A, c = linearized_noncollision(x, scn.R)
    return bool(np.max(A @ (x + h * v) - c) <= tol)


def linearized_noncollision(x, R: float) -> tuple[np.ndarray, np.ndarray]:
    """K(x) as {y : A y <= c}: the disk-separation constraints linearized at x.

    One row per pair i < j: D_ij(x) + <grad D_ij(x), y - x> >= 0 with the
    Euclidean gap D_ij(x) = ||x^i - x^j|| - 2R.  As <grad D_ij(x), x> =
    ||x^i - x^j||, the row is <n_ij, y^i - y^j> >= 2R for the unit vector
    n_ij from x^j to x^i, so every offset is -2R.  Coincident centers
    make the gradient undefined and raise.
    """
    A = _noncollision_system(x)[0]
    return A, np.full(len(A), -2.0 * R)


def _noncollision_system(x) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows A of `linearized_noncollision` at x, one per pair i < j, as a new array, and in
    the same buffer the NNLS matrix E that `polyhedra._project_rows` takes: (2n + 1, s), -A^T
    in its first 2n rows and its last row left for the step to write; E is None when a row is
    not finite (`project_raw` then forms and checks E itself).

    Each pair's floats come from the float operations of `RobotScenario.pair_row` (hypot, two
    divisions), inlined, since a call per pair costs more than the arithmetic.  They go into a copy of the
    layout's template in one fancy store, so A and E have the bits of `np.array` of the pair
    rows and of -A^T.
    """
    xs = np.asarray(x, dtype=float).tolist()
    index, pairs, template = _system_layout(len(xs) // 2)
    vals = []
    finite = True
    for i, j in pairs:
        dx, dy = xs[i] - xs[j], xs[i + 1] - xs[j + 1]
        dist = math.hypot(dx, dy)
        if not 0.0 < dist < math.inf:
            if dist == 0.0:
                raise ValueError(f"coincident centers {i // 2 + 1}, {j // 2 + 1}: gradient undefined")
            finite = False  # a NaN, or an inf that a row may not survive: let project_raw decide
        nx, ny = dx / dist, dy / dist
        vals += (-nx, -ny, nx, ny, nx, ny, -nx, -ny)
    buf = template.copy()
    buf[index] = vals
    s, d = len(pairs), 2 * (len(xs) // 2)
    return buf[: s * d].reshape(s, d), buf[s * d :].reshape(d + 1, s) if finite else None


@functools.cache
def _system_layout(n: int) -> tuple[np.ndarray, list, np.ndarray]:
    """Where `_noncollision_system` writes the floats of n robots: one buffer holds A, (s, 2n),
    then E, (2n + 1, s).  Pair i < j (state offsets 2i, 2j, in row order) writes -n, n into its
    row of A and n, -n into its column of E.  The template is 0.0 over A and -0.0 over E, the
    zeros of -A^T, so every entry has the bits of the array formulas."""
    pairs = [(2 * i, 2 * j) for i in range(n) for j in range(i + 1, n)]
    s, d = len(pairs), 2 * n
    index = []
    for r, (i, j) in enumerate(pairs):
        cols = (i, i + 1, j, j + 1)
        index += [r * d + k for k in cols]
        index += [s * d + k * s + r for k in cols]
    template = np.zeros(s * d + (d + 1) * s)
    template[s * d :] = -0.0
    template.flags.writeable = False
    return np.array(index, dtype=np.intp), pairs, template


def ordering_holds(n: int, x) -> bool:
    """The ordering hypothesis: each coordinate strictly increases with the agent index, in x or each row of x."""
    return bool(np.all(np.diff(np.reshape(x, (*np.shape(x)[:-1], n, -1)), axis=-2) > 0.0))


@dataclass(frozen=True)
class SetAgreementReport:
    samples: int
    disagreements: int
    flagged_out_of_region: int


def verify_set_representation(
    scn: RobotScenario, samples: int, seed: int, x_ref: np.ndarray | None = None
) -> SetAgreementReport:
    """Sample ordered configurations and compare membership in the three set descriptions.

    The three sets: the fixed polyhedron C, the admissible-configuration
    set (all-pairs sum-norm separation), and the linearization K(x_ref) of
    the sum-norm separation constraints at an ordered reference point.
    Under the ordering hypotheses they coincide, so the expected
    disagreement count is zero.  Sampled points that violate the ordering
    hypothesis are flagged and excluded rather than tested.  An x_ref that
    is not 2n finite numbers in the ordered region raises ValueError.
    """
    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        if x_ref.shape != scn.x0.shape or not np.isfinite(x_ref).all():
            raise ValueError(f"x_ref must be {scn.x0.size} finite numbers, got {x_ref.tolist()}")
        if not ordering_holds(scn.n, x_ref):
            raise ValueError(f"x_ref = {x_ref.tolist()} breaks the ordering hypothesis")
    rng = np.random.default_rng(seed)
    C = scn.sweeping_set()

    # K(x_ref) rows: sum-norm D_ij is affine on the ordered region, so the
    # linearization at an ordered x_ref is the all-pairs sum constraint.
    def in_K(x):
        for i in range(scn.n):
            for j in range(i + 1, scn.n):
                s = (x[2 * j] - x[2 * i]) + (x[2 * j + 1] - x[2 * i + 1])
                if s < 2.0 * scn.R:
                    return False
        return True

    def in_Q0(x):
        for i in range(scn.n):
            for j in range(i + 1, scn.n):
                if distance_gap(scn, x, i, j) < 0.0:
                    return False
        return True

    disagreements = 0
    flagged = 0
    scale = max(1.0, float(np.max(np.abs(scn.x0))))
    for _ in range(samples):
        x = np.empty(2 * scn.n)
        x[0:2] = rng.uniform(-scale, scale, size=2)
        for j in range(1, scn.n):
            # Increments straddle the contact threshold so both inside and
            # outside points occur; slightly negative ones violate ordering.
            incr = rng.uniform(-0.5 * scn.R, 3.0 * scn.R, size=2)
            x[2 * j : 2 * j + 2] = x[2 * j - 2 : 2 * j] + incr
        if not ordering_holds(scn.n, x):
            flagged += 1
            continue
        members = {
            bool(np.all(C.slack(x) >= 0.0)),
            in_Q0(x),
            in_K(x),
        }
        if len(members) != 1:
            disagreements += 1
    return SetAgreementReport(samples=samples, disagreements=disagreements, flagged_out_of_region=flagged)


# ---------------------------------------------------------------------------
# Scenario files: plain `key = value` text
# ---------------------------------------------------------------------------


def _parse_floats(key: str, raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ScenarioFormatError(f"key '{key}': expected numbers, got '{raw}'") from exc
    if not values or not all(math.isfinite(v) for v in values):
        raise ScenarioFormatError(f"key '{key}': expected finite numbers, got '{raw}'")
    return values


def _parse_float(key: str, raw: str) -> float:
    values = _parse_floats(key, raw)
    if len(values) != 1:
        raise ScenarioFormatError(f"key '{key}': expected one number, got '{raw}'")
    return values[0]


def _take(entries: dict, key: str):
    if key not in entries:
        raise ScenarioFormatError(f"missing required key '{key}'")
    return entries.pop(key)


def parse_scenario_text(text: str) -> Scenario:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioFormatError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise ScenarioFormatError(f"duplicate key '{key}'")
        entries[key] = value.strip()

    model = _take(entries, "model").lower()
    if model not in ("robot", "pedestrian"):
        raise ScenarioFormatError(f"key 'model': expected robot|pedestrian, got '{model}'")
    try:
        n = int(_take(entries, "n"))
    except ValueError as exc:
        raise ScenarioFormatError("key 'n': expected an integer") from exc
    R = _parse_float("R", _take(entries, "R"))
    T = _parse_float("T", _take(entries, "T"))
    x0 = _parse_floats("x0", _take(entries, "x0"))
    speeds = _parse_floats("speeds", _take(entries, "speeds"))

    kind = _take(entries, "control.kind").lower()
    if kind == "box":
        lo = _parse_floats("control.lo", _take(entries, "control.lo"))
        hi = _parse_floats("control.hi", _take(entries, "control.hi"))
        try:
            control = ControlSet.box(lo, hi)
        except ValueError as exc:
            raise ScenarioFormatError(f"keys 'control.lo', 'control.hi': {exc}") from exc
    elif kind == "segment":
        link = _parse_floats("control.link", _take(entries, "control.link"))
        bounds = _parse_floats("control.bounds", _take(entries, "control.bounds"))
        if len(bounds) != 2:
            raise ScenarioFormatError("key 'control.bounds': expected two numbers")
        try:
            bound_on = int(entries.pop("control.bound_on", "1")) - 1
        except ValueError as exc:
            raise ScenarioFormatError("key 'control.bound_on': expected an integer") from exc
        if not 0 <= bound_on < len(link):
            raise ScenarioFormatError("key 'control.bound_on': component out of range")
        try:
            control = ControlSet.segment(link, bounds, bound_on)
        except ValueError as exc:
            raise ScenarioFormatError(f"key 'control.link': {exc}") from exc
    else:
        raise ScenarioFormatError(f"key 'control.kind': expected box|segment, got '{kind}'")

    try:
        if model == "pedestrian":
            for key in ("angles_deg", "angles_deg_post", "switch_at"):
                if key in entries:
                    raise ScenarioFormatError(f"key '{key}' is robot-only")
            scn: Scenario = PedestrianScenario(
                n=n, R=R, T=T, x0=np.array(x0), speeds=np.array(speeds), control_set=control
            )
        else:
            angles = np.deg2rad(_parse_floats("angles_deg", _take(entries, "angles_deg")))
            angles_post = None
            switch_at: float | str | None = None
            if "angles_deg_post" in entries:
                angles_post = np.deg2rad(_parse_floats("angles_deg_post", entries.pop("angles_deg_post")))
                raw = entries.pop("switch_at", "contact")
                switch_at = "contact" if raw.lower() == "contact" else _parse_float("switch_at", raw)
            scn = RobotScenario(
                n=n,
                R=R,
                T=T,
                x0=np.array(x0),
                speeds=np.array(speeds),
                angles=np.array(angles),
                control_set=control,
                angles_post=angles_post,
                switch_at=switch_at,
            )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc

    if entries:
        raise ScenarioFormatError(f"unknown key '{sorted(entries)[0]}'")
    return scn


def load_scenario(path) -> Scenario:
    return parse_scenario_text(Path(path).read_text())


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'robot2.scn')."""
    p = Path(__file__).parent / "data" / name
    if not p.exists():
        raise FileNotFoundError(f"no bundled scenario named '{name}'")
    return p


def bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
