"""Dual certificates and residual checks for the sweeping necessary optimality conditions.

A certificate bundles the multiplier lambda, the normal-cone coefficients
eta (with a separate value carried at t = T), the adjoint arcs p and q
(piecewise constant, right continuous, q jumping where the measure has
atoms), and the vector measure gamma represented by finitely many atoms.
All checks are evaluated on the union grid of the trajectory and
certificate breakpoints, so piecewise-affine reference solutions verify
exactly rather than through mesh-straddling artifacts.  `verify_certificate`
builds that grid once and evaluates the path, its velocity, eta, q and the
control at its midpoints once; checks 1, 2/3 and 6 are array expressions
over every interval of that one evaluation (`_Evaluation`), and the small
checks decide on Python floats.

Conditions checked, by report id: (1) primal velocity representation,
(2)/(3) complementarity, (4) constant adjoint arc (the state gradient of
the drive vanishes in both models), (5) the q = p - gamma([t, T]) link,
(6) control maximization, (7) endpoint transversality, (8) terminal
normal-cone membership, (9) nontriviality, plus measure nonatomicity.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import Scenario, in_contact
from .polyhedra import _check_tol, _same_fields
from .sweeping import ControlSignal, Trajectory, contact_switch_time
from .tolerances import (
    ETA_SIGN_TOL,
    GRID_MERGE_RTOL,
    MEMBERSHIP_TOL,
    NONTRIVIAL_TOL,
    TIME_TOL,
    VERIFY_TOL,
)


def _interval(times: np.ndarray, t, count: int):
    """Index of the breakpoint interval holding t (per entry for an array), clamped to [0, count)
    by two ufuncs: `np.clip`'s Python-level wrapper costs more than the search."""
    return np.minimum(np.maximum(np.searchsorted(times, t, side="right") - 1, 0), count - 1)


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous piecewise-constant vector path on [0, T]."""

    times: np.ndarray  # (K+1,) strictly increasing, first 0, last T
    values: np.ndarray  # (K, d)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if times.ndim != 1 or times.size != values.shape[0] + 1:
            raise ValueError("need one more breakpoint than segment values")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    __eq__ = _same_fields

    @staticmethod
    def constant(T: float, value) -> "StepFunction":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return StepFunction(np.array([0.0, T]), value[None, :])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value(self, t) -> np.ndarray:
        """The value at t, or one row per time for an array of times."""
        return self.values[_interval(self.times, t, self.values.shape[0])]


@dataclass(frozen=True, eq=False)
class PiecewisePath:
    """Continuous piecewise-linear state path (possibly nonuniform breakpoints)."""

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, n)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if times.size != states.shape[0]:
            raise ValueError("one state per breakpoint")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    __eq__ = _same_fields

    @staticmethod
    def from_trajectory(traj: Trajectory) -> "PiecewisePath":
        return PiecewisePath(traj.times, traj.nodes)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def value(self, t) -> np.ndarray:
        """The state at t, or one row per time for an array of times."""
        return self._value(_interval(self.times, t, len(self.states) - 1), t)

    def velocity(self, t) -> np.ndarray:
        """The slope of the segment holding t, or one row per time for an array of times."""
        return self._slope(_interval(self.times, t, len(self.states) - 1))

    def _value(self, k, t) -> np.ndarray:
        """The state at t on segment k (per entry for arrays)."""
        w = ((t - self.times[k]) / (self.times[k + 1] - self.times[k]))[..., None]
        return (1.0 - w) * self.states[k] + w * self.states[k + 1]

    def _slope(self, k) -> np.ndarray:
        return (self.states[k + 1] - self.states[k]) / (self.times[k + 1] - self.times[k])[..., None]


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Complete dual data: (lambda, eta, p, q, gamma atoms).

    The atoms are also kept as arrays: `atom_times` (A,) and `atom_values` (A, dim).
    """

    lam: float
    eta: StepFunction
    eta_terminal: np.ndarray
    p: StepFunction
    q: StepFunction
    gamma_atoms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "eta_terminal", np.asarray(self.eta_terminal, dtype=float))
        atoms = tuple((float(t), np.asarray(v, dtype=float)) for t, v in self.gamma_atoms)
        object.__setattr__(self, "gamma_atoms", atoms)
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if np.any(self.eta.values < -ETA_SIGN_TOL) or np.any(self.eta_terminal < -ETA_SIGN_TOL):
            raise ValueError("eta must be nonnegative")
        for t, v in atoms:
            if v.shape != (self.p.dim,):
                raise ValueError(f"gamma atom at t={t:g} has shape {v.shape}, p has width {self.p.dim}")
        times = np.array([t for t, _ in atoms])
        object.__setattr__(self, "atom_times", times)
        object.__setattr__(self, "atom_values", np.array([v for _, v in atoms]).reshape(times.size, self.p.dim))
        if not np.all((times >= 0.0) & (times <= self.horizon + TIME_TOL)):
            raise ValueError("atom time outside the horizon")

    __eq__ = _same_fields  # gamma_atoms atom by atom

    @property
    def horizon(self) -> float:
        return float(self.p.times[-1])

    def gamma_tail(self, t) -> np.ndarray:
        """gamma([t, T]): sum of atoms at times >= t; one row per time for an array of times."""
        return (self.atom_times >= np.asarray(t)[..., None] - TIME_TOL) @ self.atom_values

    def q_at_T(self) -> np.ndarray:
        """q(T) = p(T) - gamma({T})."""
        return self.p.values[-1] - (np.abs(self.atom_times - self.horizon) <= TIME_TOL) @ self.atom_values


@dataclass(frozen=True)
class ResidualEntry:
    condition: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    entries: tuple[ResidualEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, condition: str) -> ResidualEntry:
        for e in self.entries:
            if e.condition == condition:
                return e
        raise KeyError(condition)

    def to_text(self) -> str:
        lines = [
            f"{e.condition:<18} {e.residual:.6e}  tol={e.tolerance:.3e}  "
            f"{'PASS' if e.passed else 'FAIL'}"
            for e in self.entries
        ]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------


def as_step_series(u, T: float) -> StepFunction:
    """Normalize a control argument: constant vector, ControlSignal, or StepFunction."""
    if isinstance(u, StepFunction):
        return u
    if isinstance(u, ControlSignal):
        return StepFunction(u.mesh.nodes, u.values)
    return StepFunction.constant(T, u)


def as_path(traj) -> PiecewisePath:
    """`traj` as a `PiecewisePath`: a path as it is, a `Trajectory` through its nodes.  Anything
    else raises a TypeError naming the parameter and the type it got, so a check called with
    its arguments in another check's order says which one is out of place."""
    if isinstance(traj, PiecewisePath):
        return traj
    if isinstance(traj, Trajectory):
        return PiecewisePath.from_trajectory(traj)
    raise _wrong_type("traj", "a Trajectory or a PiecewisePath", traj)


def _wrong_type(name: str, want: str, got) -> TypeError:
    return TypeError(f"parameter '{name}' needs {want}, got {type(got).__name__}")


def _union_grid(path: PiecewisePath, cert: DualCertificate, *extra: np.ndarray) -> np.ndarray:
    """Sorted breakpoints of the path, the certificate and any `extra` time arrays in [0, T].  A
    time within GRID_MERGE_RTOL * max(1, T) of the one before it is dropped (a repeat too), so a
    time rounded by hand next to its exact value leaves no sliver segment straddling a jump."""
    grid = np.sort(np.concatenate([path.times, cert.eta.times, cert.q.times, cert.p.times, *extra, cert.atom_times]))
    grid = grid[(grid >= 0.0) & (grid <= path.horizon + TIME_TOL)]
    return grid[np.diff(grid, prepend=-np.inf) > GRID_MERGE_RTOL * max(1.0, path.horizon)]


class _Evaluation:
    """Checks 1, 2/3 and 6 as array expressions over every grid interval at once, with the path,
    eta, q and the control each evaluated once, and checks 7/8 and nonatomicity on the terminal
    state and the atoms.  It is the one door into every check that reads the path, with one
    input contract: a path, certificate or scenario of another type raises a TypeError naming
    the parameter, and a path or a certificate that does not fit the scenario (`_check_fit`) or
    a control outside U a ValueError, here, before any residual; the checks that read no control
    pass None.  Complementarity samples the union grid of the path's and the certificate's
    breakpoints, primal and maximization that of the control's too: one grid when the control's
    are grid points already (a trajectory CSV's controls, a constant control), else a second one,
    so each check samples the times it would alone."""

    def __init__(self, scn: Scenario, traj, cert: DualCertificate, u):
        path = as_path(traj)
        if not isinstance(cert, DualCertificate):
            raise _wrong_type("cert", "a DualCertificate", cert)
        if not isinstance(scn, Scenario):
            raise _wrong_type("scn", "a Scenario", scn)
        _check_fit(scn, path, cert)
        self.scn, self.path, self.cert, self.C = scn, path, cert, scn.sweeping_set()
        if u is not None:
            useries = as_step_series(u, path.horizon)
            scn.control_set.check_rows(useries.values)
            grid = self.grid
            at = np.minimum(np.searchsorted(grid, useries.times), grid.size - 1)
            on_grid = (grid[at] == useries.times).all()
            self.with_u = self.on_grid if on_grid else self._sample(_union_grid(path, cert, useries.times))
            self.u = useries.value(self.with_u[0])
            self.contact = contact_switch_time(scn, path.times, path.states)

    # The union grid and its sample are taken on first use: the endpoint checks read neither.
    @functools.cached_property
    def grid(self) -> np.ndarray:
        return _union_grid(self.path, self.cert)

    @functools.cached_property
    def on_grid(self) -> tuple[np.ndarray, ...]:
        return self._sample(self.grid)

    def _sample(self, grid: np.ndarray) -> tuple[np.ndarray, ...]:
        """(tm, x, x', eta, q): x at the grid points and midpoints interleaved (t_0, m_0, t_1,
        ..., t_N), the rest at the midpoints tm; the path's intervals are searched once."""
        tm = 0.5 * (grid[:-1] + grid[1:])
        points = np.empty(2 * grid.size - 1)
        points[0::2], points[1::2] = grid, tm
        path = self.path
        k = _interval(path.times, points, len(path.states) - 1)
        return tm, path._value(k, points), path._slope(k[1::2]), self.cert.eta.value(tm), self.cert.q.value(tm)

    def primal(self) -> float:
        tm, _, velocity, eta, _ = self.with_u
        r = velocity + eta @ self.C.normals - self.scn.drive(self.u, tm, self.contact)
        return float(np.max(np.linalg.norm(r, axis=1), initial=0.0))

    def complementarity(self) -> tuple[float, float]:
        (_, x, _, eta, q), C, cert = self.on_grid, self.C, self.cert
        # Interval k sees the gaps at rows 2k, 2k + 1 and 2k + 2 of x.
        apart = np.maximum(0.0, self.scn.pair_gaps(x) - MEMBERSHIP_TOL)
        apart = np.maximum(np.maximum(apart[:-2:2], apart[1::2]), apart[2::2])
        apart_T = np.maximum(0.0, self.scn.pair_gaps(self.path.terminal) - MEMBERSHIP_TOL)
        r_slack = max(np.max(eta * apart, initial=0.0), np.max(cert.eta_terminal * apart_T))
        off_surface = np.abs(q @ C.normals.T - C.offsets)
        off_surface_T = np.abs(C.normals @ cert.q_at_T() - C.offsets)
        r_dual = max(np.max(eta * off_surface, initial=0.0), np.max(cert.eta_terminal * off_surface_T))
        return float(r_slack), float(r_dual)

    def maximization(self) -> float:
        tm, _, _, _, q = self.with_u
        psi = self.scn.drive_adjoint(q, tm, self.contact)
        best, _ = self.scn.control_set.maximize_linear(psi)
        return float(np.max(best - np.sum(psi * self.u, axis=1), initial=0.0))

    def transversality(self) -> tuple[float, float]:
        C, cert = self.C, self.cert
        xT, eta_T = self.path.terminal, cert.eta_terminal
        r7 = float(np.linalg.norm(cert.p.values[-1] + cert.lam * xT + C.normals.T @ eta_T))
        contact, etas = in_contact(self.scn.pair_gaps(xT)).tolist(), eta_T.tolist()
        return r7, max(0.0, *(e for e, c in zip(etas, contact) if not c), *(-e for e in etas))

    def nonatomicity(self) -> int:
        path = self.path
        t = [s for s in self.cert.atom_times.tolist() if s < path.horizon - TIME_TOL]
        if not t:
            return 0
        return list(map(any, in_contact(self.scn.pair_gaps(path.value(np.array(t)))).tolist())).count(False)


def check_primal(scn: Scenario, traj, u, cert: DualCertificate) -> float:
    """Sup over intervals of the defect in -x' = sum_j eta_j a_j - g(x, u),
    i.e. ||x' + sum_j eta_j a_j - g(x, u)||.  Inputs `verify_certificate` refuses raise here too."""
    return _Evaluation(scn, traj, cert, u).primal()


def check_complementarity(scn: Scenario, traj, cert: DualCertificate) -> tuple[float, float]:
    """Residuals of the two complementarity conditions.

    First: eta_j weighted by the positive part of the pair gap `scn.pair_gaps` (the model's own
    contact geometry: Euclidean disk distance for the robots, order gap for the pedestrians)
    less MEMBERSHIP_TOL at both ends and the midpoint of each interval, so eta must vanish where
    the pair is strictly apart.  Second: eta_j weighted by |<a_j, q> - c_j| (positive eta pins
    q to the constraint surface).  Both include t = T through the terminal eta.  A path or a
    certificate that `verify_certificate` refuses raises here too.
    """
    return _Evaluation(scn, traj, cert, None).complementarity()


def check_adjoint(scn: Scenario, cert: DualCertificate) -> float:
    """Both models have a state-independent drive, so p must be constant."""
    pT = cert.p.values[-1]
    return float(np.max(np.linalg.norm(cert.p.values - pT, axis=1)))


def check_measure_link(cert: DualCertificate) -> float:
    """Max over breakpoints (atom times excluded) of ||q(t) - p(t) + gamma([t, T])||."""
    atoms = cert.atom_times.tolist()
    breaks = sorted({*cert.q.times.tolist(), *cert.p.times.tolist()})
    times = np.array([t for t in breaks if all(abs(t - s) > TIME_TOL for s in atoms)])
    r = cert.q.value(times) - cert.p.value(times) + cert.gamma_tail(times)
    return float(np.max(np.linalg.norm(r, axis=1), initial=0.0))


def check_maximization(scn: Scenario, cert: DualCertificate, u, traj) -> float:
    """Sup over intervals of max_U <psi, u> - <psi, u(t)>, where psi = (dg/du)^T q
    is the scenario's `drive_adjoint`.  Inputs `verify_certificate` refuses raise here too."""
    return _Evaluation(scn, traj, cert, u).maximization()


def check_transversality(scn: Scenario, traj, cert: DualCertificate) -> tuple[float, float]:
    """Endpoint conditions: -p(T) = lam * x(T) + sum_{active} eta_T a_j, and the
    terminal cone membership (nonnegative coefficients supported on contact rows).
    Inputs `verify_certificate` refuses raise here too."""
    return _Evaluation(scn, traj, cert, None).transversality()


def check_nontriviality(cert: DualCertificate) -> bool:
    q0 = cert.q.values[0]
    pT = cert.p.values[-1]
    return bool(cert.lam + np.linalg.norm(q0) + np.linalg.norm(pT) > NONTRIVIAL_TOL)


def check_nonatomicity(cert: DualCertificate, traj, scn: Scenario) -> int:
    """Number of atoms at times t < T where no constraint is in contact.  Inputs
    `verify_certificate` refuses raise here too."""
    return _Evaluation(scn, traj, cert, None).nonatomicity()


def _check_fit(scn: Scenario, path: PiecewisePath, cert: DualCertificate) -> None:
    """Raise naming the field where the path or the certificate does not fit the scenario.
    Widths first, naming both: states, p and q have state_dim columns (the gamma atoms have p's
    width, which `DualCertificate` checks), eta and eta_terminal one per sweeping row.  Then the
    path and the certificate's eta, p and q must start at t = 0 (naming the start) and end at
    the scenario's T (naming both horizons, and a step function's end), each within
    TIME_TOL * max(1, T), the rule of `Mesh.spans`."""
    d, s = scn.state_dim, scn.sweeping_set().nrows
    for name, array, want in (
        ("trajectory state", path.states, d),
        ("certificate field 'eta_values'", cert.eta.values, s),
        ("certificate field 'eta_terminal'", cert.eta_terminal[None], s),
        ("certificate field 'p_values'", cert.p.values, d),
        ("certificate field 'q_values'", cert.q.values, d),
    ):
        got = array.shape[1:]
        if got != (want,):
            raise ValueError(f"{name} has width {got[0] if len(got) == 1 else got}, the scenario needs {want}")
    T = scn.horizon
    slack = TIME_TOL * max(1.0, T)
    fields = (
        ("certificate field 'eta_times'", cert.eta.times),
        ("certificate field 'p_times'", cert.p.times),
        ("certificate field 'q_times'", cert.q.times),
    )
    for name, times in (("trajectory", path.times), *fields):
        if not abs(times[0]) <= slack:  # NaN fails too
            raise ValueError(f"{name} starts at t = {times[0]:g}, not at 0")
    if not abs(path.horizon - T) <= slack:
        raise ValueError(f"trajectory horizon {path.horizon:g} != scenario horizon {T:g}")
    for name, times in fields:
        if not abs(times[-1] - T) <= slack:
            end = times[-1]
            raise ValueError(f"{name} ends at t = {end:g}: certificate horizon {end:g} != scenario horizon {T:g}")


# The conditions with a residual at `tol`, in report order.
_CONDITIONS = ("1-primal", "2-complementarity", "3-dual-surface", "4-adjoint", "5-measure-link",
               "6-maximization", "7-transversality", "8-terminal-cone")


def verify_certificate(scn: Scenario, traj, u, cert: DualCertificate, tol: float = VERIFY_TOL) -> ResidualReport:
    """Run all conditions; the report passes iff every entry passes at `tol`, a finite number
    >= 0.  Inputs that `_Evaluation` refuses, and any other tol, raise a ValueError before any
    residual."""
    _check_tol(tol)
    checks = _Evaluation(scn, traj, cert, u)
    residuals = (checks.primal(), *checks.complementarity(), check_adjoint(scn, cert), check_measure_link(cert),
                 checks.maximization(), *checks.transversality())
    entries = [ResidualEntry(name, r, tol, r <= tol) for name, r in zip(_CONDITIONS, residuals)]
    nontrivial = check_nontriviality(cert)
    atoms_bad = checks.nonatomicity()
    entries.append(ResidualEntry("9-nontriviality", 0.0 if nontrivial else 1.0, 0.5, nontrivial))
    entries.append(ResidualEntry("nonatomicity", float(atoms_bad), 0.5, atoms_bad == 0))
    return ResidualReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Certificate serialization (JSON)
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: DualCertificate) -> dict:
    return {
        "lambda": cert.lam,
        "eta_times": cert.eta.times.tolist(),
        "eta_values": cert.eta.values.tolist(),
        "eta_terminal": cert.eta_terminal.tolist(),
        "p_times": cert.p.times.tolist(),
        "p_values": cert.p.values.tolist(),
        "q_times": cert.q.times.tolist(),
        "q_values": cert.q.values.tolist(),
        "gamma_atoms": [[t, v.tolist()] for t, v in cert.gamma_atoms],
    }


def _check_numbers(name: str, value) -> None:
    """Raise naming the certificate field when `value`, a number or lists of them, holds anything
    but an int or a float (a JSON true, "0.5" or null is not read as a number), and then, in the
    same walk, when it holds anything but a finite float: NaN, an infinity or an int beyond
    the largest float.  A non-number anywhere is named before a non-finite number."""
    todo, finite = [value], True
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo.extend(reversed(v))
        elif isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)):
            finite = finite and abs(v) <= sys.float_info.max  # exact for an int; NaN fails too
        else:
            raise ValueError(f"certificate field '{name}': {json.dumps(v, default=repr)} is not a number")
    if not finite:
        raise ValueError(f"certificate field '{name}': not all finite numbers")


def certificate_from_dict(d: dict) -> DualCertificate:
    """The certificate of a `certificate_to_dict` mapping; raises ValueError naming the
    missing, malformed, non-numeric or non-finite field."""
    if not isinstance(d, dict):
        raise ValueError(f"certificate must be a JSON object, got {type(d).__name__}")

    def field(name: str, convert=lambda v: np.array(v, dtype=float)):
        if name not in d:
            raise ValueError(f"certificate is missing the field '{name}'")
        _check_numbers(name, d[name])
        try:
            value = convert(d[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"certificate field '{name}': {exc}") from exc
        return value

    def step(name: str) -> StepFunction:
        times, values = field(f"{name}_times"), field(f"{name}_values")
        try:
            return StepFunction(times, values)
        except ValueError as exc:
            raise ValueError(f"certificate fields '{name}_times', '{name}_values': {exc}") from exc

    lam = field("lambda", float)
    eta, eta_terminal, p, q = step("eta"), field("eta_terminal"), step("p"), step("q")
    atoms = field("gamma_atoms", lambda v: tuple((float(t), np.array(a, dtype=float)) for t, a in v))
    return DualCertificate(lam=lam, eta=eta, eta_terminal=eta_terminal, p=p, q=q, gamma_atoms=atoms)


def save_certificate(cert: DualCertificate, path) -> None:
    Path(path).write_text(json.dumps(certificate_to_dict(cert), indent=2) + "\n")


def load_certificate(path) -> DualCertificate:
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError as exc:  # json's decoder recurses once per nested array or object
        raise ValueError(f"certificate {path}: JSON nested too deeply to parse") from exc
    except json.JSONDecodeError as exc:  # its message gives the line and column, not the file
        raise ValueError(f"certificate {path}: not valid JSON: {exc}") from exc
    return certificate_from_dict(data)
