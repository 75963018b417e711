"""Catch-up discretization of the controlled sweeping dynamics.

One explicit step is x_{k+1} = proj(x_k + h * g(x_k, u_k); K(x_k)) where
K(x_k) is the scenario's constraint set: the fixed polyhedron for the
pedestrian model (whose separation constraints are already linear) and the
per-step linearized noncollision set for the planar robot model.  States
are piecewise linear between mesh nodes, controls piecewise constant.

One loop serves both models through the `models.Scenario` interface:
`drive` gives g for every interval at once (from the `headings` hook),
`constraint_rows` gives K(x), `pair_gaps` finds contacts and `free_run`
says how far a repeating step may be filled.  Where K(x) is the one row
of two robots, which turns with x, a contact arc is stepped on Python
floats: `pair_row` forms that row and `polyhedra._project_one_row`, the
one-row branch of `project_raw`, projects onto it, so the nodes are those
of the array step bit for bit at a fraction of numpy's per-call cost.
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
from dataclasses import dataclass
from operator import add

import numpy as np

from .models import ControlSet, Scenario, run_starts
from .polyhedra import Polyhedron, _project_one_row, _same_fields, project_raw, row_multipliers
from .tolerances import CONTACT_TOL, STEP_TOL, TIME_TOL

MESH_EXP_MAX = 24  # step underflow guard
ETA_BLOCK = 4096  # intervals per batched multiplier solve in `recover_eta`


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
    `ControlSet.check_rows` on each call.
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
        included), the rule of `ControlSet.in_box`.  The values are the signal's own and read-only.
        """
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if P.ndim != 2 or P.shape[1] != len(U.lo) or not len(P) or mesh.intervals % len(P):
            raise ValueError(
                f"parameter rows of shape {P.shape} do not fit {len(U.lo)} parameters on {mesh.intervals} intervals"
            )
        inside = U.in_box(P)
        if not inside.all():
            k, i = np.argwhere(~inside)[0]
            raise ValueError(
                f"parameter row {k}: p{i + 1} = {P[k, i]:g} outside [{U.lo[i]:g}, {U.hi[i]:g}]"
            )
        values = np.repeat(P @ U.basis, mesh.intervals // len(P), axis=0)
        values.flags.writeable = False
        starts = np.zeros(1, dtype=np.intp) if len(P) == 1 else run_starts(values)
        starts.flags.writeable = False
        signal = ControlSignal(mesh, values)
        object.__setattr__(signal, "_built_in", U)
        object.__setattr__(signal, "_starts", starts)
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
    """One explicit catch-up step: project x + h*g onto P (x must lie in P).

    This is the step `simulate` takes, at its tolerance STEP_TOL.
    """
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
    increments h*g of all intervals come from one `drive` call; a
    robot whose heading switches at the first contact recomputes them from
    its contact node on.  Two steps in a row with one support W fix the step
    map while the drive stays: the node keeps the last increment for as many
    steps as `scn.free_run` allows, filled by one cumulative sum (the loop's
    additions).  After a projected step of two robots with no contact
    switch pending, the contact arc goes on as a list: each interval forms
    the pair's row (`scn.pair_row`) and its one-row projection, the float
    operations of `project_raw(*constraint_rows(x), x + h g)`, until a step
    projects nothing (its node is kept) or the horizon; the arc's nodes go
    into the array in one slice.
    """
    mesh = u.mesh
    if not mesh.spans(scn.horizon):
        raise ValueError(f"control mesh horizon {mesh.T} != scenario horizon {scn.horizon}")
    values = u.values
    starts = u.checked_starts(scn.control_set)
    h = mesh.h
    times = mesh.nodes
    K = mesh.intervals
    steps = h * scn.drive(values, times[:-1])
    if scn.switch_time is not None:  # the drive also changes at the first node past the switch
        starts = np.union1d(starts, np.searchsorted(times[:-1], scn.switch_time))
    # The intervals where the runs of equal drives end, in order; `end` is that of interval k's run.
    run_ends = iter(starts[1:].tolist() + [K])
    end = 0
    track = scn.switches_at_contact
    contact: float | None = None
    nodes = np.empty((K + 1, scn.state_dim))
    x = nodes[0] = scn.x0
    constraint_rows = scn.constraint_rows  # bound once: a step takes microseconds
    prev = None  # support of the step before, when it may start a run
    one_moving_row = not scn.fixed_constraints and scn.n == 2  # K(x) is one row that turns with x
    drive, first = None, 0  # steps[first:] as lists, once a contact arc needs them
    k = 0
    while k < K:
        if track and contact is None and scn.contact_rows(x).size:
            contact = times[k]
            steps[k:] = h * scn.drive(values[k:], times[k:-1], contact)
        step = steps[k]
        xn, W = project_raw(*constraint_rows(x), x + step, tol=STEP_TOL)
        if k == end:
            end = next(run_ends)
        k += 1
        nodes[k], W = xn, W.tolist()
        if W and one_moving_row and k < K and (not track or contact is not None):
            # A contact arc: the steps, no longer changed by a switch, go on as one-row
            # projections on Python floats, in the float operations `project_raw` makes,
            # up to the first no-op step (kept) or the horizon.
            if drive is None:
                drive, first = steps[k:].tolist(), k
            xs, arc, pair_row = xn.tolist(), [], scn.pair_row
            for g in drive[k - first :]:
                if k == end:
                    end = next(run_ends)
                k += 1
                a, c = pair_row(xs)
                y = list(map(add, xs, g))
                xs = _project_one_row(a, c, y, STEP_TOL)
                if xs is None:
                    arc.append(y)
                    break
                arc.append(xs)
            nodes[k + 1 - len(arc) : k + 1] = arc
            prev, x = [], nodes[k]  # the no-op step's support: the next one may start a run
            continue
        if k < end and W == prev and (not W or scn.fixed_constraints):
            d = xn - x if W else step
            run = scn.free_run(xn, d, W, end - k)
            fill = nodes[k : k + run + 1]
            fill[1:] = d
            np.cumsum(fill, axis=0, out=fill)
            k += run
            W = None  # the next fill needs two fresh steps
        prev, x = W, nodes[k]
    return Trajectory(mesh=mesh, nodes=nodes)


def cost(traj: Trajectory) -> float:
    """Terminal cost 0.5 * ||x(T)||^2."""
    xT = traj.terminal
    return 0.5 * float(xT @ xT)


def contact_times(traj: Trajectory, P: Polyhedron, tol: float) -> list[tuple[float, int]]:
    """First activation time per constraint row, sorted by time.

    A row first active at node k is attributed to the interval that
    produced that node, so the reported time is the left node t_{k-1}
    (t_0 for rows active from the start).
    """
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
        hits = np.flatnonzero(np.any(np.abs(scn.pair_gaps(states)) <= CONTACT_TOL, axis=1))
        if hits.size:
            return float(times[hits[0]])
    return None


def recover_eta(scn: Scenario, traj: Trajectory, u: ControlSignal) -> EtaProfile:
    """Fit g(x, u) - x' on each step's active rows, for every interval at once.

    Interval k uses the adjacent-pair rows of the step's own set K(x_k)
    (`scn.step_rows`: the sweeping-set rows for pedestrians, sqrt(2) times
    the tangent rows for robots); a row is active when its linearized gap
    at the node the step produced, x_{k+1}, is at most CONTACT_TOL.  The
    coefficients solve B B^T eta = B v on the active rows B (0 on the
    others) in one batched `polyhedra.row_multipliers` call, clipped at 0;
    adjacent-pair rows form a path, so they are linearly independent.
    The residual reports whatever those rows cannot explain, a push
    between non-adjacent robots included.  Intervals go in blocks of
    ETA_BLOCK, so the (block, s, dim) temporaries stay small.  The control
    is checked against U as in `simulate`.
    """
    if traj.mesh.intervals != u.mesh.intervals or not traj.mesh.spans(u.mesh.T):
        raise ValueError("trajectory and control live on different meshes")
    X = traj.nodes
    if X.shape[1:] != (scn.state_dim,):
        width = X.shape[1] if X.ndim == 2 else X.shape[1:]
        raise ValueError(f"trajectory state width {width} != scenario state width {scn.state_dim}")
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
        eta = row_multipliers(B, gaps <= CONTACT_TOL, v)
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
    Each number is the shortest text that reads back as the same float."""
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


# The column groups that may start after each group of a trajectory CSV header.
_LATER_COLUMNS = {"t": ("x",), "x": ("u", "eta"), "u": ("eta",), "eta": ()}


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
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    try:
        data = np.array(rows)
    except ValueError:  # ragged rows: numpy rejects them, and only then is the bad row looked for
        data = None
    if data is None or data.shape[1] != len(header):
        k = next(k for k, row in enumerate(rows) if len(row) != len(header))
        raise ValueError(f"trajectory CSV data row {k + 1} has {len(rows[k])} cells, the header {len(header)}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"trajectory CSV column '{header[col]}', data row {row + 1}: not a finite number")
    out = {"times": data[:, groups["t"][0]], "states": data[:, groups["x"]]}
    if groups["u"]:
        out["controls"] = data[:, groups["u"]]
    if groups["eta"]:
        out["etas"] = data[:, groups["eta"]]
    return out
