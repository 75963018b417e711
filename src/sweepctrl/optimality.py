"""Dual certificates and residual checks for the sweeping necessary optimality conditions.

A certificate bundles the multiplier lambda, the normal-cone coefficients
eta (with a separate value carried at t = T), the adjoint arcs p and q
(piecewise constant, right continuous, q jumping where the measure has
atoms), and the vector measure gamma represented by finitely many atoms.
All checks are evaluated on the union grid of the trajectory and
certificate breakpoints, so piecewise-affine reference solutions verify
exactly rather than through mesh-straddling artifacts.

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

from .models import CONTACT_TOL, Scenario
from .sweeping import ControlSignal, Trajectory, contact_switch_time

ATOM_TIME_TOL = 1e-12


@dataclass(frozen=True)
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

    @staticmethod
    def constant(T: float, value) -> "StepFunction":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return StepFunction(np.array([0.0, T]), value[None, :])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def segment_of(self, t: float) -> int:
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        return min(max(k, 0), self.values.shape[0] - 1)

    def value(self, t: float) -> np.ndarray:
        return self.values[self.segment_of(t)]


@dataclass(frozen=True)
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

    @staticmethod
    def from_trajectory(traj: Trajectory) -> "PiecewisePath":
        return PiecewisePath(traj.times, traj.nodes)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def segment_of(self, t: float) -> int:
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        return min(max(k, 0), self.states.shape[0] - 2)

    def value(self, t: float) -> np.ndarray:
        k = self.segment_of(t)
        w = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        return (1.0 - w) * self.states[k] + w * self.states[k + 1]

    def velocity(self, t: float) -> np.ndarray:
        k = self.segment_of(t)
        return (self.states[k + 1] - self.states[k]) / (self.times[k + 1] - self.times[k])


@dataclass(frozen=True)
class DualCertificate:
    """Complete dual data: (lambda, eta, p, q, gamma atoms)."""

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
        if np.any(self.eta.values < -1e-15) or np.any(self.eta_terminal < -1e-15):
            raise ValueError("eta must be nonnegative")
        T = self.p.times[-1]
        for t, _ in atoms:
            if not (0.0 <= t <= T + 1e-12):
                raise ValueError("atom time outside the horizon")

    @property
    def horizon(self) -> float:
        return float(self.p.times[-1])

    def gamma_tail(self, t: float) -> np.ndarray:
        """gamma([t, T]): sum of atoms at times >= t."""
        out = np.zeros(self.p.dim)
        for s, v in self.gamma_atoms:
            if s >= t - ATOM_TIME_TOL:
                out += v
        return out

    def is_atom_time(self, t: float) -> bool:
        return any(abs(t - s) <= ATOM_TIME_TOL for s, _ in self.gamma_atoms)

    def q_at_T(self) -> np.ndarray:
        """q(T) = p(T) - gamma({T})."""
        atom_T = np.zeros(self.p.dim)
        for s, v in self.gamma_atoms:
            if abs(s - self.horizon) <= ATOM_TIME_TOL:
                atom_T += v
        return self.p.values[-1] - atom_T

    def gamma_from(self, t: float) -> np.ndarray:
        """Reported headline value gamma([t, T])."""
        return self.gamma_tail(t)


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


def _union_grid(path: PiecewisePath, cert: DualCertificate, u: StepFunction) -> np.ndarray:
    pieces = [path.times, cert.eta.times, cert.q.times, cert.p.times, u.times]
    pieces.append(np.array([t for t, _ in cert.gamma_atoms]))
    grid = np.unique(np.concatenate(pieces))
    grid = grid[(grid >= 0.0) & (grid <= path.horizon + 1e-12)]
    # Merge near-duplicate breakpoints (e.g. a 12-digit serialized time next
    # to its exact value) so no sliver segments straddle a jump.
    merge_tol = 1e-11 * max(1.0, path.horizon)
    keep = np.concatenate([[True], np.diff(grid) > merge_tol])
    return grid[keep]


# ---------------------------------------------------------------------------
# Individual condition checks
# ---------------------------------------------------------------------------


def check_primal(scn: Scenario, traj, u, cert: DualCertificate) -> float:
    """Sup over intervals of the defect in -x' = sum_j eta_j a_j - g(x, u),
    i.e. ||x' + sum_j eta_j a_j - g(x, u)||."""
    path = as_path(traj)
    useries = as_step_series(u, path.horizon)
    C = scn.sweeping_set()
    contact = contact_switch_time(scn, path.times, path.states)
    worst = 0.0
    grid = _union_grid(path, cert, useries)
    for a, b in zip(grid[:-1], grid[1:]):
        tm = 0.5 * (a + b)
        v = path.velocity(tm)
        g = scn.g(path.value(tm), useries.value(tm), tm, contact)
        eta = cert.eta.value(tm)
        r = float(np.linalg.norm(v + C.normals.T @ eta - g))
        worst = max(worst, r)
    return worst


def check_complementarity(scn: Scenario, traj, cert: DualCertificate, tol: float = 1e-9) -> tuple[float, float]:
    """Residuals of the two complementarity conditions.

    First: eta_j weighted by the positive part of the pair gap
    `scn.pair_gaps` (the model's own contact geometry: Euclidean disk
    distance for the robots, order gap for the pedestrians), so eta must
    vanish where the pair is strictly apart.  Second: eta_j
    weighted by |<a_j, q> - c_j| (positive eta pins q to the constraint
    surface).  Both include t = T through the terminal eta.
    """
    path = as_path(traj)
    C = scn.sweeping_set()
    useries = StepFunction.constant(path.horizon, np.zeros(1))
    grid = _union_grid(path, cert, useries)
    r_slack = 0.0
    r_dual = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        tm = 0.5 * (a + b)
        eta = cert.eta.value(tm)
        q = cert.q.value(tm)
        for t_eval in (a, tm, b):
            slack = scn.pair_gaps(path.value(t_eval))
            r_slack = max(r_slack, float(np.max(eta * np.maximum(0.0, slack - tol))))
        r_dual = max(r_dual, float(np.max(eta * np.abs(C.normals @ q - C.offsets))))
    slack_T = scn.pair_gaps(path.terminal)
    r_slack = max(r_slack, float(np.max(cert.eta_terminal * np.maximum(0.0, slack_T - tol))))
    r_dual = max(
        r_dual, float(np.max(cert.eta_terminal * np.abs(C.normals @ cert.q_at_T() - C.offsets)))
    )
    return r_slack, r_dual


def check_adjoint(scn: Scenario, cert: DualCertificate) -> float:
    """Both models have a state-independent drive, so p must be constant."""
    pT = cert.p.values[-1]
    return float(np.max(np.linalg.norm(cert.p.values - pT, axis=1)))


def check_measure_link(cert: DualCertificate) -> float:
    """Max over breakpoints (atom times excluded) of ||q(t) - p(t) + gamma([t, T])||."""
    times = np.unique(np.concatenate([cert.q.times, cert.p.times]))
    worst = 0.0
    for t in times:
        if cert.is_atom_time(t):
            continue
        r = cert.q.value(t) - cert.p.value(t) + cert.gamma_tail(t)
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def check_maximization(scn: Scenario, cert: DualCertificate, u, traj) -> float:
    """Sup over intervals of max_U <psi, u> - <psi, u(t)> with vertex enumeration,
    where psi = (dg/du)^T q is the scenario's `drive_adjoint`."""
    path = as_path(traj)
    useries = as_step_series(u, path.horizon)
    contact = contact_switch_time(scn, path.times, path.states)
    grid = _union_grid(path, cert, useries)
    worst = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        tm = 0.5 * (a + b)
        psi = scn.drive_adjoint(cert.q.value(tm), tm, contact)
        best, _ = scn.control_set.maximize_linear(psi)
        gap = best - float(psi @ useries.value(tm))
        worst = max(worst, max(gap, 0.0))
    return worst


def check_transversality(scn: Scenario, traj, cert: DualCertificate) -> tuple[float, float]:
    """Endpoint conditions: -p(T) = lam * x(T) + sum_{active} eta_T a_j, and the
    terminal cone membership (nonnegative coefficients supported on contact rows)."""
    path = as_path(traj)
    C = scn.sweeping_set()
    xT = path.terminal
    active = scn.contact_rows(xT, CONTACT_TOL)
    combo = C.normals.T @ cert.eta_terminal
    r7 = float(np.linalg.norm(cert.p.values[-1] + cert.lam * xT + combo))
    inactive = np.setdiff1d(np.arange(C.nrows), active)
    r8 = 0.0
    if inactive.size:
        r8 = max(r8, float(np.max(cert.eta_terminal[inactive])))
    r8 = max(r8, float(np.max(np.maximum(-cert.eta_terminal, 0.0), initial=0.0)))
    return r7, r8


def check_nontriviality(cert: DualCertificate, tol: float = 1e-12) -> bool:
    q0 = cert.q.values[0]
    pT = cert.p.values[-1]
    return bool(cert.lam + np.linalg.norm(q0) + np.linalg.norm(pT) > tol)


def check_nonatomicity(cert: DualCertificate, traj, scn: Scenario) -> int:
    """Number of atoms at times t < T where no constraint is in contact."""
    path = as_path(traj)
    bad = 0
    for t, _ in cert.gamma_atoms:
        if t >= path.horizon - ATOM_TIME_TOL:
            continue
        if scn.contact_rows(path.value(t), CONTACT_TOL).size == 0:
            bad += 1
    return bad


def verify_certificate(
    scn: Scenario, traj, u, cert: DualCertificate, tol: float = 1e-6
) -> ResidualReport:
    """Run all conditions; the report passes iff every entry passes at `tol`."""
    path = as_path(traj)
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


def certificate_from_dict(d: dict) -> DualCertificate:
    try:
        return DualCertificate(
            lam=float(d["lambda"]),
            eta=StepFunction(np.array(d["eta_times"]), np.array(d["eta_values"])),
            eta_terminal=np.array(d["eta_terminal"]),
            p=StepFunction(np.array(d["p_times"]), np.array(d["p_values"])),
            q=StepFunction(np.array(d["q_times"]), np.array(d["q_values"])),
            gamma_atoms=tuple((float(t), np.array(v)) for t, v in d["gamma_atoms"]),
        )
    except KeyError as exc:
        raise ValueError(f"certificate is missing the field {exc}") from exc


def save_certificate(cert: DualCertificate, path) -> None:
    from pathlib import Path

    Path(path).write_text(json.dumps(certificate_to_dict(cert), indent=2) + "\n")


def load_certificate(path) -> DualCertificate:
    from pathlib import Path

    return certificate_from_dict(json.loads(Path(path).read_text()))
