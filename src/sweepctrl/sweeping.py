"""Catch-up discretization of the controlled sweeping dynamics.

One explicit step is x_{k+1} = proj(x_k + h * g(x_k, u_k); K(x_k)) where
K(x_k) is the scenario's constraint set: the fixed polyhedron for the
pedestrian model (whose separation constraints are already linear) and the
per-step linearized noncollision set for the planar robot model.  States
are piecewise linear between mesh nodes, controls piecewise constant.

`drive` gives g for the first interval of every run of equal controls at
once (a robot's from the `headings` hook, the pedestrians' in closed form,
and a one-run control's on its one row), and `free_run` says how far a
repeating step may be filled.  A pedestrian chain is stepped in one loop on
Python floats (`_chain_steps`): its set is the chain x_{j+1} - x_j >= 2R, so
each step is `_chain_step`, the projection by pool-adjacent-violators, with
no NNLS call and no array per step.  Two robots, whose K(x) is one row that
turns with x, are stepped on Python floats too (`_pair_arc`): it forms the
row as `RobotScenario.pair_row` does and projects onto it as
`polyhedra._project_one_row`, the one-row branch of `project_raw`, does, so
the nodes are those of the array step bit for bit at a fraction of numpy's
per-call cost.  A robot chain's loop takes K(x) from the `catchup_rows` hook,
with the NNLS block -A^T that comes with it, and projects through
`polyhedra._project_rows`, `project_raw`'s own branch, so each step writes
only the block's last row; `pair_gaps` finds the robots' contacts.
`recover_eta` expresses the
normal-cone multiplier eta_k of interval k on the rows of the step's own
set: the adjacent-pair rows of K(x_k) (`step_rows`), which are the fixed
sweeping-set rows for pedestrians and sqrt(2) times the tangent rows of
K(x_k) for robots (the sum-norm rows on the diagonal), fitted for every
interval in one batched solve.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from array import array
from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .models import ControlSet, PedestrianScenario, Scenario, in_contact, run_starts
from .polyhedra import (
    Polyhedron,
    _check_tol,
    _project_one_row,
    _project_rows,
    _same_fields,
    project_raw,
    row_multipliers,
)
from .tolerances import EMPTY_RTOL, STEP_TOL, TIME_TOL

MESH_EXP_MAX = 24  # step underflow guard
ETA_BLOCK = 4096  # intervals per batched multiplier solve in `recover_eta`

_ONE_RUN = np.zeros(1, dtype=np.intp)  # the run starts of a constant control, shared read-only
_ONE_RUN.flags.writeable = False


@dataclass(frozen=True)
class Mesh:
    """Dyadic mesh on [0, T] with 2^m equal intervals."""

    T: float
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, numbers.Integral) and 1 <= self.m <= MESH_EXP_MAX):
            raise ValueError(f"mesh exponent must be an integer in [1, {MESH_EXP_MAX}], got {self.m!r}")
        if not 0.0 < self.T < math.inf:  # NaN fails too
            raise ValueError(f"horizon must be a finite positive number, got {self.T!r}")
        if self.h == 0.0:
            raise ValueError(f"horizon {self.T!r} leaves a zero step on {self.intervals} intervals")

    @property
    def intervals(self) -> int:
        return 1 << self.m

    @property
    def h(self) -> float:
        return self.T / self.intervals

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The 2^m + 1 node times, computed once per mesh and read-only, as every caller shares them."""
        nodes = np.linspace(0.0, self.T, self.intervals + 1)
        nodes.flags.writeable = False
        return nodes

    def spans(self, T: float) -> bool:
        """Whether the mesh covers the horizon T, up to TIME_TOL * max(1, T)."""
        return abs(self.T - T) <= TIME_TOL * max(1.0, T)


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """One control value per mesh interval.

    Where a control is checked against the control set U: `from_parameters`
    checks its parameter rows against U's box when it builds the signal, and
    records U and the starts of the runs of equal rows on it.  `simulate` and
    `recover_eta` take those starts without a second check when the
    scenario's control set is that same U object; every other signal (built
    from values, or in another set) has its rows checked by
    `ControlSet.check_rows` on each call.  A constant control, one parameter
    row, is checked on Python floats and shares one read-only `[0]` as its run
    starts, so a search candidate costs a few microseconds before `simulate`.
    """

    mesh: Mesh
    values: np.ndarray  # (2^m, d)

    # Set only by `from_parameters`: the control set the values were built in, and their run starts.
    _built_in = None
    _starts = None

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape[0] != self.mesh.intervals:
            raise ValueError(
                f"control needs {self.mesh.intervals} interval values, got {values.shape[0]}"
            )
        object.__setattr__(self, "values", values)

    __eq__ = _same_fields

    @staticmethod
    def constant(mesh: Mesh, u) -> "ControlSignal":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return ControlSignal(mesh, np.tile(u, (mesh.intervals, 1)))

    @staticmethod
    def from_parameters(mesh: Mesh, U: ControlSet, P) -> "ControlSignal":
        """The control P @ U.basis from parameter rows P of U, (rows, q): one row is a constant
        control, and each of r rows holds for 2^m / r intervals.

        Raises naming the first parameter outside [lo - CONTROL_TOL, hi + CONTROL_TOL] (NaN
        included), the rule of `ControlSet.in_box`: one row on Python floats, several rows as an
        array.  The values are the signal's own and read-only.
        """
        P = np.asarray(P, dtype=float)
        if P.ndim < 2:
            P = P.reshape(1, -1)
        if P.ndim != 2 or P.shape[1] != len(U.lo) or not len(P) or mesh.intervals % len(P):
            raise ValueError(
                f"parameter rows of shape {P.shape} do not fit {len(U.lo)} parameters on {mesh.intervals} intervals"
            )
        if len(P) == 1:
            lo, hi = U._bound_lists
            for i, (a, p, b) in enumerate(zip(lo, P[0].tolist(), hi)):
                if not a <= p <= b:  # a NaN parameter is outside
                    raise ValueError(f"parameter row 0: p{i + 1} = {p:g} outside [{U.lo[i]:g}, {U.hi[i]:g}]")
        else:
            inside = U.in_box(P)
            if not inside.all():
                k, i = np.argwhere(~inside)[0]
                raise ValueError(
                    f"parameter row {k}: p{i + 1} = {P[k, i]:g} outside [{U.lo[i]:g}, {U.hi[i]:g}]"
                )
        values = (P @ U.basis).repeat(mesh.intervals // len(P), axis=0)
        values.flags.writeable = False
        if len(P) == 1:
            starts = _ONE_RUN
        else:
            starts = run_starts(values)
            starts.flags.writeable = False
        # The shape is the one `__post_init__` checks: set the fields without running it again.
        signal = object.__new__(ControlSignal)
        signal.__dict__.update(mesh=mesh, values=values, _built_in=U, _starts=starts)
        return signal

    def checked_starts(self, U: ControlSet) -> np.ndarray:
        """The intervals that start a run of equal control rows; unless the signal was built in U
        itself, `U.check_rows` computes them and raises naming an interval outside U."""
        return self._starts if self._built_in is U else U.check_rows(self.values)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Piecewise-linear state path through the mesh nodes."""

    mesh: Mesh
    nodes: np.ndarray  # (2^m + 1, state_dim)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.shape[0] != self.mesh.intervals + 1:
            raise ValueError("node count must be 2^m + 1")
        object.__setattr__(self, "nodes", nodes)

    __eq__ = _same_fields

    @property
    def times(self) -> np.ndarray:
        return self.mesh.nodes

    @property
    def terminal(self) -> np.ndarray:
        return self.nodes[-1]

    def velocities(self) -> np.ndarray:
        """(2^m, dim) interval velocities (x_{k+1} - x_k)/h."""
        return np.diff(self.nodes, axis=0) / self.mesh.h


@dataclass(frozen=True, eq=False)
class EtaProfile:
    """Per-interval normal-cone coefficients recovered from a trajectory.

    `values[k, j]` multiplies the row of adjacent pair j in the step's set
    on interval k: row j of the sweeping set for pedestrians, sqrt(2) times
    the pair's tangent row of K(x_k) for robots (equal to the sum-norm row
    of the sweeping set on the diagonal, so the published values keep
    their units); `terminal` is the value carried at t = T (taken from the
    last interval); `residuals[k]` is the part of g - x' not explained by
    the active rows on interval k.
    """

    times: np.ndarray  # (K+1,) interval breakpoints
    values: np.ndarray  # (K, s)
    terminal: np.ndarray  # (s,)
    residuals: np.ndarray  # (K,)

    def __post_init__(self):
        if np.any(self.values < 0) or np.any(self.terminal < 0):
            raise ValueError("coefficients must be nonnegative")

    __eq__ = _same_fields

    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def catchup_step(P: Polyhedron, g_val: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """One explicit catch-up step: project x + h*g onto P (x must lie in P) at STEP_TOL, the step
    `simulate` takes, up to rounding, through its own kernels; the module's one `project_raw` call."""
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    g_val = np.asarray(g_val, dtype=float)
    out, _ = project_raw(P.normals, P.offsets, P._check_point(x + h * g_val), tol=STEP_TOL)
    return out


def simulate(scn: Scenario, u: ControlSignal) -> Trajectory:
    """Run the catch-up scheme from scn.x0 under the piecewise-constant control.

    A control built by `ControlSignal.from_parameters` in `scn.control_set`
    itself was checked when it was built, and its recorded run starts are
    used; any other control has its rows checked by `ControlSet.check_rows`
    here, which raises naming the first interval outside the set.  The free
    increment h*g is taken once per run of equal drives, at the run's first
    interval, for all runs in one `drive` call (a timed heading switch starts
    a run), and holds over the run; a control of one run drives its one row,
    with no gather.  A pedestrian chain goes to `_chain_steps`, one loop on
    Python floats over `_chain_step`, the pool-adjacent-violators step, with
    its own run fill; the loop below serves robots.  A robot whose heading
    switches at the first contact starts a run at its contact node and takes
    the increments from there on again.  A free step (one that projects
    nothing) starts a fill while the drive holds: the node keeps the
    increment for as many steps as `scn.free_run` allows, filled by one
    cumulative sum (the free steps' own additions).  Two robots take every
    step in `_pair_arc`, a loop on four Python floats in the operations of
    `project_raw(*constraint_rows(x), x + h g)`: one step while a contact
    switch is pending, else the rest of the run, up to and including the
    first step that projects nothing; an arc that reaches the run's end goes
    on in the next run's call.  A robot chain's step comes with its NNLS
    block from `scn.catchup_rows` and projects through `project_raw`'s
    branch on it, which refuses a block that is not finite.
    """
    mesh = u.mesh
    if not mesh.spans(scn.horizon):
        raise ValueError(f"control mesh horizon {mesh.T} != scenario horizon {scn.horizon}")
    values = u.values
    starts = u.checked_starts(scn.control_set)  # an array: indexing by a list costs far more
    h = mesh.h
    times = mesh.nodes
    K = mesh.intervals
    if scn.switch_time is not None:  # the drive also changes at the first node past the switch, if any
        starts = np.array(sorted({*starts.tolist(), int(times[:-1].searchsorted(scn.switch_time))} - {K}))
    # The runs of equal drives, in order: where each ends, and its increment h*g, taken at its first
    # interval (`drive` is elementwise, so every interval of the run has those bits).  One run
    # drives its one row, without a gather.
    ends = starts[1:].tolist() + [K]
    if len(ends) == 1:
        drives = [h * scn.drive(values[0], times[0])]
    else:
        drives = h * scn.drive(values.take(starts, 0), times[starts])
    if isinstance(scn, PedestrianScenario):  # the fixed chain: one loop on Python floats
        return _trajectory(mesh, _chain_steps(scn, zip(ends, drives), K))
    runs = zip(ends, drives)
    end = 0  # where interval k's run ends; `step` is its increment
    track = scn.switches_at_contact
    contact: float | None = None
    nodes = np.empty((K + 1, scn.state_dim))
    x = nodes[0] = scn.x0
    flat = nodes.reshape(-1)  # a view of the C-ordered rows
    pair, offset = scn.n == 2, -2.0 * scn.R
    catchup_rows = scn.catchup_rows  # bound once: a step takes microseconds
    k = 0
    while k < K:
        if track and contact is None and scn.contact_rows(x).size:
            # The drive changes at node k: k starts a run, and the runs from it take the new headings.
            contact = times[k]
            starts = np.append(k, starts[starts > k])
            ends = starts[1:].tolist() + [K]
            drives = h * scn.drive(values.take(starts, 0), times[starts], contact)
            runs, end = zip(ends, drives), k
        if k == end:
            end, step = next(runs)
        if pair:  # one step while a contact switch is pending, else up to the run's end
            count = 1 if track and contact is None else end - k
            arc, projected = _pair_arc(x.tolist(), step.tolist(), count, offset)
            flat[4 * (k + 1) : 4 * (k + 1) + len(arc)] = arc
            k += len(arc) // 4
        else:
            A, c, E = catchup_rows(x)
            k += 1
            nodes[k], W = _project_rows(A, c, x + step, STEP_TOL, E)
            projected = W.size > 0
        if k < end and not projected:  # a free step: the steps repeat while the drive holds
            k += _fill(nodes, k, step, scn.free_run(nodes[k], step, [], end - k))
        x = nodes[k]
    return _trajectory(mesh, nodes)


def _trajectory(mesh: Mesh, nodes: np.ndarray) -> Trajectory:
    """The trajectory through `simulate`'s nodes, whose shape is the one `Trajectory.__post_init__`
    checks: the fields are set without running it."""
    traj = object.__new__(Trajectory)
    traj.__dict__.update(mesh=mesh, nodes=nodes)
    return traj


def _fill(nodes: np.ndarray, k: int, d, run: int) -> int:
    """Nodes k + 1 .. k + run as node k plus 1 .. run times the increment d, by one cumulative sum
    (the additions of the per-step loop); returns run."""
    fill = nodes[k : k + run + 1]
    fill[1:] = d
    fill.cumsum(axis=0, out=fill)  # the method: `np.cumsum` is a Python wrapper around it
    return run


def _chain_steps(scn: PedestrianScenario, runs, K: int) -> np.ndarray:
    """The K + 1 nodes of a pedestrian chain from scn.x0, one `_chain_step` per interval, each
    run of equal drives given as (end, increment), with the state a list of floats.

    A free step (no row pooled), or two steps in a row that pool the same rows, fix the step map
    while the drive holds: the nodes keep the last displacement for as many steps as
    `scn.free_run` allows, filled by one cumulative sum.  The stepped nodes since the last fill go
    into the array in one slice, from a C array of doubles: a list would hold a float object per
    coordinate and step, whose memory the process keeps.  An increment becomes a list when its
    run starts, for the same reason.
    """
    n, gap = scn.n, 2.0 * scn.R
    nodes = np.empty((K + 1, n))
    nodes[0] = scn.x0
    flat = nodes.reshape(-1)  # a view of the C-ordered rows
    x, stepped, done = nodes[0].tolist(), array("d"), 0  # the nodes after node `done`, not yet written
    k, prev = 0, None  # the support of the step before, when it may start a run
    for end, g in runs:
        g = g.tolist()
        while k < end:
            xn, W = _chain_step(x, g, gap)
            k += 1
            stepped.extend(xn)
            if k < end and (not W or W == prev):
                d = list(map(sub, xn, x)) if W else g
                run = scn.free_run(xn, d, W, end - k)
                if run:
                    flat[n * (done + 1) : n * (k + 1)] = stepped
                    k += _fill(nodes, k, d, run)
                    xn, stepped, done = nodes[k].tolist(), array("d"), k
                W = None  # a pooled fill needs two fresh steps
            prev, x = W, xn
    flat[n * (done + 1) :] = stepped
    return nodes


def _chain_step(x: list, g: list, gap: float) -> tuple[list, list]:
    """One catch-up step of a pedestrian chain on Python floats: y = x + g projected onto the
    chain {x : x_j - x_{j+1} <= -gap}, and the support, the rows j whose agents j, j + 1 pooled.

    y violating no row by more than STEP_TOL is kept, the rule of `project_raw`.  Otherwise, with
    z_j = y_j - gap j, the projection is the nondecreasing least-squares fit of z, shifted back,
    which pool-adjacent-violators computes in one pass (Best & Chakravarti, 1990): a block whose
    mean of z exceeds the next one's pools with it, at the mean of both.  A block is kept as the
    position of its first agent, so an agent left alone keeps its y_j.  A non-finite y raises,
    and so does a finite one whose violation overflows to +inf, or to -inf while another exceeds
    STEP_TOL: the outcomes of `project_raw`.
    """
    y = list(map(add, x, g))
    diffs = list(map(sub, y, y[1:]))
    if not all(map(math.isfinite, diffs)):  # so also where y is not finite
        if not all(map(math.isfinite, y)) or max(diffs) + gap > STEP_TOL:
            raise ValueError("projection input must not contain infs or NaNs")
        return y, []
    if max(diffs) + gap <= STEP_TOL:  # the largest violation: rounding is monotone
        return y, []
    blocks = []  # the (first position, size) of each block left of the last
    last, size = y[0], 1
    for b in y[1:]:
        if last + gap * size > b:  # b sits left of where the block would put it: pool
            c = size + 1
            b = last + (b - gap * size - last) / c
            while blocks and blocks[-1][0] + gap * blocks[-1][1] > b:
                first, size = blocks.pop()
                b = first + (b - gap * size - first) * c / (size + c)
                c += size
            last, size = b, c
        else:
            blocks.append((last, size))
            last, size = b, 1
    blocks.append((last, size))
    support, j = [], 0
    for b, c in blocks:
        if c > 1:
            support += range(j, j + c - 1)
            for i in range(j, j + c):
                y[i] = b
                b += gap
        j += c
    return y, support


def _pair_arc(x: list, g: list, count: int, c: float) -> tuple[list, bool]:
    """Up to `count` catch-up steps of two robots from the node x (four floats) under the one
    increment g: their nodes one after the other in one flat list, up to and including the first
    step that projects nothing, and whether the last step projected.

    A step is `project_raw(*scn.constraint_rows(x), x + g, tol=STEP_TOL)` in its float
    operations, in their order: the pair's row (-n, n) with offset c as
    `constraint_rows` forms it (hypot, then two divisions), y = x + g, and the one-row
    projection of `polyhedra._project_one_row` with its sums written out.  `a * -b` is
    `-(a * b)` and `a + -b` is `a - b` exactly, so the signs fold into the operators.  A step
    that projects nothing, or whose input is not finite, or whose row fails the emptiness
    rule, goes to `_project_one_row` itself, which keeps y as the node or raises its error.
    """
    hypot, inf, tol = math.hypot, math.inf, STEP_TOL
    x0, x1, x2, x3 = x
    g0, g1, g2, g3 = g
    arc = []
    for _ in range(count):
        dx, dy = x0 - x2, x1 - x3
        dist = hypot(dx, dy)
        if dist == 0.0:
            raise ValueError("coincident centers 1, 2: gradient undefined")
        nx, ny = dx / dist, dy / dist
        y0, y1, y2, y3 = x0 + g0, x1 + g1, x2 + g2, x3 + g3
        top = 0.0 - nx * y0 - ny * y1 + nx * y2 + ny * y3 - c
        aa = 0.0 + nx * nx + ny * ny + nx * nx + ny * ny
        if not (tol < top < inf and aa > EMPTY_RTOL * (2.0 + aa)):
            _project_one_row([-nx, -ny, nx, ny], c, [y0, y1, y2, y3], tol)  # None: y is kept
            arc += y0, y1, y2, y3
            return arc, False
        lam = top / aa
        px, py = lam * nx, lam * ny
        x0, x1, x2, x3 = y0 + px, y1 + py, y2 - px, y3 - py
        arc += x0, x1, x2, x3
    return arc, True


def cost(traj) -> float:
    """Terminal cost J = 0.5 * ||x(T)||^2 of a `Trajectory` or an `optimality.PiecewisePath`:
    the package's one spelling of J."""
    xT = traj.terminal
    return 0.5 * float(xT @ xT)


def contact_times(traj: Trajectory, P: Polyhedron, tol: float) -> list[tuple[float, int]]:
    """First activation time per constraint row, sorted by time.

    A row first active at node k is attributed to the interval that
    produced that node, so the reported time is the left node t_{k-1}
    (t_0 for rows active from the start).
    """
    _check_tol(tol)
    out = []
    times = traj.times
    slacks = P.offsets[None, :] - traj.nodes @ P.normals.T  # (K+1, s)
    for j in range(P.nrows):
        hits = np.flatnonzero(np.abs(slacks[:, j]) <= tol)
        if hits.size:
            k = int(hits[0])
            out.append((float(times[max(k - 1, 0)]), j))
    out.sort()
    return out


def contact_switch_time(scn: Scenario, times, states) -> float | None:
    """Time of the first node in contact, for a scenario whose drive switches there; else None."""
    if scn.switches_at_contact:
        hits = np.flatnonzero(np.any(in_contact(scn.pair_gaps(states)), axis=1))
        if hits.size:
            return float(times[hits[0]])
    return None


def recover_eta(scn: Scenario, traj: Trajectory, u: ControlSignal) -> EtaProfile:
    """Fit g(x, u) - x' on each step's active rows, for every interval at once.

    Interval k uses the adjacent-pair rows of the step's own set K(x_k)
    (`scn.step_rows`: the sweeping-set rows for pedestrians, sqrt(2) times
    the tangent rows for robots); a row is active when its linearized gap
    at the node the step produced, x_{k+1}, is in contact (`models.in_contact`;
    a deeper overlap is not active, and its push stays in the residual).  The
    coefficients solve B B^T eta = B v on the active rows B (0 on the
    others) in one batched `polyhedra.row_multipliers` call, clipped at 0;
    adjacent-pair rows form a path, so they are linearly independent.
    The residual reports whatever those rows cannot explain, a push
    between non-adjacent robots included.  Intervals go in blocks of
    ETA_BLOCK, so the (block, s, dim) temporaries stay small.  The control
    is checked against U, and its mesh against the horizon, as in `simulate`;
    a non-finite node raises, naming the node and its coordinate.
    """
    if traj.mesh.intervals != u.mesh.intervals or not traj.mesh.spans(u.mesh.T):
        raise ValueError("trajectory and control live on different meshes")
    if not u.mesh.spans(scn.horizon):
        raise ValueError(f"control mesh horizon {u.mesh.T} != scenario horizon {scn.horizon}")
    X = traj.nodes
    if X.shape[1:] != (scn.state_dim,):
        width = X.shape[1] if X.ndim == 2 else X.shape[1:]
        raise ValueError(f"trajectory state width {width} != scenario state width {scn.state_dim}")
    finite = np.isfinite(X)
    if not finite.all():
        k, i = np.argwhere(~finite)[0]
        raise ValueError(f"trajectory node {k}, coordinate x{i + 1}: {X[k, i]:g} is not a finite number")
    u.checked_starts(scn.control_set)  # checks a signal not built in the scenario's set
    times = traj.times
    K = traj.mesh.intervals
    s = scn.sweeping_set().nrows
    values = np.empty((K, s))
    residuals = np.empty(K)
    contact = contact_switch_time(scn, times, X)
    defects = scn.drive(u.values, times[:-1], contact) - traj.velocities()
    for lo in range(0, K, ETA_BLOCK):
        hi = min(lo + ETA_BLOCK, K)
        B, gaps = scn.step_rows(X[lo:hi], X[lo + 1 : hi + 1])
        v = defects[lo:hi]
        eta = row_multipliers(B, in_contact(gaps), v)
        eta = values[lo:hi] = np.where(eta > 0.0, eta, 0.0)
        residuals[lo:hi] = np.linalg.norm(v - np.einsum("ki,kid->kd", eta, B), axis=1)
    return EtaProfile(times=times, values=values, terminal=values[-1].copy(), residuals=residuals)


# ---------------------------------------------------------------------------
# Trajectory CSV (deterministic, shortest digits that read back exactly)
# ---------------------------------------------------------------------------


def trajectory_csv(
    times: np.ndarray,
    states: np.ndarray,
    controls: np.ndarray | None = None,
    etas: np.ndarray | None = None,
    eta_terminal: np.ndarray | None = None,
) -> str:
    """Rows of t, x1.., u1.., eta1..; controls and etas come from the interval
    to the right of each node, with the final row repeating the terminal values.
    Each number is the shortest text that reads back as the same float, as `repr` writes it.

    The table is formatted in one `orjson.dumps` call (Ryū shortest digits, the digits `repr`
    gives). orjson writes the positional form where `repr` switches to exponent form, and `null`
    for a non-finite value, so a row holding such a value is written with `repr` cell by cell.
    orjson is imported on the first call, so importing the package does not load it."""
    import orjson

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
    table = np.ascontiguousarray(np.hstack(blocks))  # orjson takes only C-ordered arrays
    lines = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[") if rows else []
    mag = np.abs(table)
    # 0.0001 and 1e16 bound where repr writes positional digits; they are not tolerances.
    for k in np.flatnonzero(((mag < 0.0001) & (mag != 0.0) | ~(mag < 1e16)).any(axis=1)).tolist():
        lines[k] = ",".join(map(repr, table[k].tolist()))
    return "\n".join([",".join(cols)] + lines) + "\n"


# The column groups that may start after each group of a trajectory CSV header.
_LATER_COLUMNS = {"t": ("x",), "x": ("u", "eta"), "u": ("eta",), "eta": ()}


def _parse_cells(body: list[str], header: list[str]) -> np.ndarray:
    """The data rows parsed cell by cell with float(); raises naming the first ragged row or the
    first cell that is not a finite number, with its column, data row and text."""
    data = np.empty((len(body), len(header)))
    for k, ln in enumerate(body):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"trajectory CSV data row {k + 1} has {len(cells)} cells, the header {len(header)}")
        for j, tok in enumerate(cells):
            try:
                data[k, j] = value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"trajectory CSV column '{header[j]}', data row {k + 1}: {tok.strip()!r} is not a finite number"
                )
    return data


def read_trajectory_csv(text: str) -> dict[str, np.ndarray]:
    """Inverse of trajectory_csv; returns times/states/controls/etas arrays.

    The header must be in the order trajectory_csv writes: t, then x1..xn (n >= 1), then
    u1..uk, then eta1..ej, each group numbered from 1 without gaps.  Raises naming a header
    column other than t, x<i>, u<i> or eta<i>, the first column out of that order, the first
    data row whose cell count differs from the header's, or the first cell that is not a
    finite number."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("trajectory CSV needs a header line and at least one data row")
    header = lines[0].split(",")
    groups: dict[str, list[int]] = {"t": [], "x": [], "u": [], "eta": []}
    allowed = {"t"}  # the names the next column may have
    for idx, name in enumerate(header):
        column = re.fullmatch(r"t|(x|u|eta)\d+", name)
        if column is None:
            raise ValueError(f"trajectory CSV header column '{name}' is not t, x<i>, u<i> or eta<i>")
        if name not in allowed:
            raise ValueError(
                f"trajectory CSV header column {idx + 1} '{name}' is out of place: the columns run "
                "t, x1..xn, u1..uk, eta1..ej, each numbered from 1"
            )
        group = column[1] or "t"
        groups[group].append(idx)
        allowed = {f"{later}1" for later in _LATER_COLUMNS[group]}
        if group != "t":
            allowed.add(f"{group}{len(groups[group]) + 1}")
    if not groups["x"]:
        raise ValueError("trajectory CSV header needs 'x' columns after 't'")
    body = lines[1:]
    # One C-level parse: np.loadtxt accepts a subset of what float() does, with the same bits.
    # Text it refuses, a wrong shape and a non-finite value go cell by cell, to name the cause.
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), len(header)) or not np.isfinite(data).all():
        data = _parse_cells(body, header)
    out = {"times": data[:, groups["t"][0]], "states": data[:, groups["x"]]}
    if groups["u"]:
        out["controls"] = data[:, groups["u"]]
    if groups["eta"]:
        out["etas"] = data[:, groups["eta"]]
    return out
