"""Dual certificates and residual checks for the sweeping necessary optimality conditions.

A certificate bundles the multiplier lambda, the normal-cone coefficients
eta (with a separate value carried at t = T), the adjoint arcs p and q
(piecewise constant, right continuous, q jumping where the measure has
atoms), and the vector measure gamma represented by finitely many atoms.
All checks are evaluated on the union grid of the trajectory and
certificate breakpoints, so piecewise-affine reference solutions verify
exactly rather than through mesh-straddling artifacts; each check takes
every grid interval at once, through the array-valued paths below and the
scenario's array-valued drive.

Conditions checked, by report id: (1) primal velocity representation,
(2)/(3) complementarity, (4) constant adjoint arc (the state gradient of
the drive vanishes in both models), (5) the q = p - gamma([t, T]) link,
(6) control maximization, (7) endpoint transversality, (8) terminal
normal-cone membership, (9) nontriviality, plus measure nonatomicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .models import Scenario
from .polyhedra import _same_fields
from .sweeping import ControlSignal, Trajectory, contact_switch_time
from .tolerances import (
    CONTACT_TOL,
    ETA_SIGN_TOL,
    GRID_MERGE_RTOL,
    MEMBERSHIP_TOL,
    NONTRIVIAL_TOL,
    TIME_TOL,
    VERIFY_TOL,
)


def _interval(times: np.ndarray, t, count: int):
    """Index of the breakpoint interval holding t (per entry for an array), clipped to [0, count)."""
    return np.clip(np.searchsorted(times, t, side="right") - 1, 0, count - 1)


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
        k = _interval(self.times, t, self.states.shape[0] - 1)
        w = ((t - self.times[k]) / (self.times[k + 1] - self.times[k]))[..., None]
        return (1.0 - w) * self.states[k] + w * self.states[k + 1]

    def velocity(self, t) -> np.ndarray:
        """The slope of the segment holding t, or one row per time for an array of times."""
        k = _interval(self.times, t, self.states.shape[0] - 1)
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
        atoms = tuple(
            (float(t), np.asarray(v, dtype=float)) for t, v in self.gamma_atoms
        )
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

    def is_atom_time(self, t):
        """Whether t is an atom time; per entry for an array of times."""
        return np.any(np.abs(np.asarray(t)[..., None] - self.atom_times) <= TIME_TOL, axis=-1)

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
# Helpers
# ---------------------------------------------------------------------------


def as_step_series(u, T: float) -> StepFunction:
    """Normalize a control argument: constant vector, ControlSignal, or StepFunction."""
    if isinstance(u, StepFunction):
        return u
    if isinstance(u, ControlSignal):
        return StepFunction(u.mesh.nodes, u.values)
    return StepFunction.constant(T, u)


def as_path(traj) -> PiecewisePath:
    if isinstance(traj, PiecewisePath):
        return traj
    return PiecewisePath.from_trajectory(traj)


def _union_grid(path: PiecewisePath, cert: DualCertificate, *extra: np.ndarray) -> np.ndarray:
    """Sorted breakpoints of the path, the certificate and any `extra` time arrays in [0, T]."""
    pieces = [path.times, cert.eta.times, cert.q.times, cert.p.times, *extra, cert.atom_times]
    grid = np.unique(np.concatenate(pieces))
    grid = grid[(grid >= 0.0) & (grid <= path.horizon + TIME_TOL)]
    # Merge near-duplicate breakpoints (e.g. a rounded time written by hand
    # next to its exact value) so no sliver segments straddle a jump.
    merge_tol = GRID_MERGE_RTOL * max(1.0, path.horizon)
    keep = np.concatenate([[True], np.diff(grid) > merge_tol])
    return grid[keep]


def _midpoints(grid: np.ndarray) -> np.ndarray:
    return 0.5 * (grid[:-1] + grid[1:])


# ---------------------------------------------------------------------------
# Individual condition checks
# ---------------------------------------------------------------------------


def check_primal(scn: Scenario, traj, u, cert: DualCertificate) -> float:
    """Sup over intervals of the defect in -x' = sum_j eta_j a_j - g(x, u),
    i.e. ||x' + sum_j eta_j a_j - g(x, u)||."""
    path = as_path(traj)
    useries = as_step_series(u, path.horizon)
    scn.control_set.check_rows(useries.values)
    C = scn.sweeping_set()
    contact = contact_switch_time(scn, path.times, path.states)
    tm = _midpoints(_union_grid(path, cert, useries.times))
    r = path.velocity(tm) + cert.eta.value(tm) @ C.normals - scn.drive(useries.value(tm), tm, contact)
    return float(np.max(np.linalg.norm(r, axis=1), initial=0.0))


def check_complementarity(scn: Scenario, traj, cert: DualCertificate) -> tuple[float, float]:
    """Residuals of the two complementarity conditions.

    First: eta_j weighted by the positive part of the pair gap
    `scn.pair_gaps` (the model's own contact geometry: Euclidean disk
    distance for the robots, order gap for the pedestrians) less
    MEMBERSHIP_TOL at both ends
    and the midpoint of each interval, so eta must vanish where the pair is
    strictly apart.  Second: eta_j weighted by |<a_j, q> - c_j| (positive
    eta pins q to the constraint surface).  Both include t = T through the
    terminal eta.
    """
    path = as_path(traj)
    C = scn.sweeping_set()
    grid = _union_grid(path, cert)
    tm = _midpoints(grid)
    eta = cert.eta.value(tm)
    # Gaps at t_0, m_0, t_1, m_1, ..., t_N: interval k sees rows 2k, 2k + 1 and 2k + 2.
    points = np.empty(2 * grid.size - 1)
    points[0::2], points[1::2] = grid, tm
    apart = np.maximum(0.0, scn.pair_gaps(path.value(points)) - MEMBERSHIP_TOL)
    apart = np.maximum(np.maximum(apart[:-2:2], apart[1::2]), apart[2::2])
    apart_T = np.maximum(0.0, scn.pair_gaps(path.terminal) - MEMBERSHIP_TOL)
    r_slack = max(np.max(eta * apart, initial=0.0), np.max(cert.eta_terminal * apart_T))
    off_surface = np.abs(cert.q.value(tm) @ C.normals.T - C.offsets)
    off_surface_T = np.abs(C.normals @ cert.q_at_T() - C.offsets)
    r_dual = max(np.max(eta * off_surface, initial=0.0), np.max(cert.eta_terminal * off_surface_T))
    return float(r_slack), float(r_dual)


def check_adjoint(scn: Scenario, cert: DualCertificate) -> float:
    """Both models have a state-independent drive, so p must be constant."""
    pT = cert.p.values[-1]
    return float(np.max(np.linalg.norm(cert.p.values - pT, axis=1)))


def check_measure_link(cert: DualCertificate) -> float:
    """Max over breakpoints (atom times excluded) of ||q(t) - p(t) + gamma([t, T])||."""
    times = np.unique(np.concatenate([cert.q.times, cert.p.times]))
    times = times[~cert.is_atom_time(times)]
    r = cert.q.value(times) - cert.p.value(times) + cert.gamma_tail(times)
    return float(np.max(np.linalg.norm(r, axis=1), initial=0.0))


def check_maximization(scn: Scenario, cert: DualCertificate, u, traj) -> float:
    """Sup over intervals of max_U <psi, u> - <psi, u(t)>, where psi = (dg/du)^T q
    is the scenario's `drive_adjoint`."""
    path = as_path(traj)
    useries = as_step_series(u, path.horizon)
    contact = contact_switch_time(scn, path.times, path.states)
    tm = _midpoints(_union_grid(path, cert, useries.times))
    psi = scn.drive_adjoint(cert.q.value(tm), tm, contact)
    best, _ = scn.control_set.maximize_linear(psi)
    return float(np.max(best - np.sum(psi * useries.value(tm), axis=1), initial=0.0))


def check_transversality(scn: Scenario, traj, cert: DualCertificate) -> tuple[float, float]:
    """Endpoint conditions: -p(T) = lam * x(T) + sum_{active} eta_T a_j, and the
    terminal cone membership (nonnegative coefficients supported on contact rows)."""
    path = as_path(traj)
    C = scn.sweeping_set()
    xT, eta_T = path.terminal, cert.eta_terminal
    r7 = float(np.linalg.norm(cert.p.values[-1] + cert.lam * xT + C.normals.T @ eta_T))
    inactive = np.abs(scn.pair_gaps(xT)) > CONTACT_TOL
    r8 = max(np.max(eta_T[inactive], initial=0.0), np.max(-eta_T, initial=0.0))
    return r7, float(r8)


def check_nontriviality(cert: DualCertificate) -> bool:
    q0 = cert.q.values[0]
    pT = cert.p.values[-1]
    return bool(cert.lam + np.linalg.norm(q0) + np.linalg.norm(pT) > NONTRIVIAL_TOL)


def check_nonatomicity(cert: DualCertificate, traj, scn: Scenario) -> int:
    """Number of atoms at times t < T where no constraint is in contact."""
    path = as_path(traj)
    t = cert.atom_times[cert.atom_times < path.horizon - TIME_TOL]
    return int(np.sum(np.all(np.abs(scn.pair_gaps(path.value(t))) > CONTACT_TOL, axis=1)))


def _check_widths(scn: Scenario, path: PiecewisePath, cert: DualCertificate) -> None:
    """Raise naming the field and both widths where the path or the certificate does not fit
    the scenario: states, p and q have state_dim columns (the gamma atoms have p's width, which
    `DualCertificate` checks), eta and eta_terminal one per sweeping row."""
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


def _check_horizons(scn: Scenario, path: PiecewisePath, cert: DualCertificate) -> None:
    """Raise naming both horizons where the path or the certificate ends off the scenario's
    horizon T by more than TIME_TOL * max(1, T), the rule of `Mesh.spans`."""
    T = scn.horizon
    for name, end in (("trajectory", path.horizon), ("certificate", cert.horizon)):
        if not abs(end - T) <= TIME_TOL * max(1.0, T):  # NaN fails too
            raise ValueError(f"{name} horizon {end:g} != scenario horizon {T:g}")


def verify_certificate(
    scn: Scenario, traj, u, cert: DualCertificate, tol: float = VERIFY_TOL
) -> ResidualReport:
    """Run all conditions; the report passes iff every entry passes at `tol`.  Widths that do
    not fit the scenario raise a ValueError naming the field, and a path or certificate on
    another horizon one naming both horizons, before any residual."""
    path = as_path(traj)
    _check_widths(scn, path, cert)
    _check_horizons(scn, path, cert)
    r1 = check_primal(scn, path, u, cert)
    r2, r3 = check_complementarity(scn, path, cert)
    r4 = check_adjoint(scn, cert)
    r5 = check_measure_link(cert)
    r6 = check_maximization(scn, cert, u, path)
    r7, r8 = check_transversality(scn, path, cert)
    nontrivial = check_nontriviality(cert)
    atoms_bad = check_nonatomicity(cert, path, scn)

    entries = [
        ResidualEntry("1-primal", r1, tol, r1 <= tol),
        ResidualEntry("2-complementarity", r2, tol, r2 <= tol),
        ResidualEntry("3-dual-surface", r3, tol, r3 <= tol),
        ResidualEntry("4-adjoint", r4, tol, r4 <= tol),
        ResidualEntry("5-measure-link", r5, tol, r5 <= tol),
        ResidualEntry("6-maximization", r6, tol, r6 <= tol),
        ResidualEntry("7-transversality", r7, tol, r7 <= tol),
        ResidualEntry("8-terminal-cone", r8, tol, r8 <= tol),
        ResidualEntry("9-nontriviality", 0.0 if nontrivial else 1.0, 0.5, nontrivial),
        ResidualEntry("nonatomicity", float(atoms_bad), 0.5, atoms_bad == 0),
    ]
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


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return bool(np.all(np.isfinite(value)))


def certificate_from_dict(d: dict) -> DualCertificate:
    """The certificate of a `certificate_to_dict` mapping; raises ValueError naming the
    missing, malformed or non-finite field."""
    if not isinstance(d, dict):
        raise ValueError(f"certificate must be a JSON object, got {type(d).__name__}")

    def field(name: str, convert=lambda v: np.array(v, dtype=float)):
        if name not in d:
            raise ValueError(f"certificate is missing the field '{name}'")
        try:
            value = convert(d[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"certificate field '{name}': {exc}") from exc
        if not _finite(value):
            raise ValueError(f"certificate field '{name}': not all finite numbers")
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
    from pathlib import Path

    Path(path).write_text(json.dumps(certificate_to_dict(cert), indent=2) + "\n")


def load_certificate(path) -> DualCertificate:
    from pathlib import Path

    return certificate_from_dict(json.loads(Path(path).read_text()))
