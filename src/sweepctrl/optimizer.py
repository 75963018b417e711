"""Analytic (reduced) and direct (discrete) solvers for the two control models.

The reduced path turns the two-phase structure of the worked scenarios into
closed forms: contact times and normal-cone multipliers from the phase
algebra, the terminal cost as an explicit quadratic in the free control
parameter, and a complete dual certificate assembled from the maximization
condition (before contact), the dual surface condition (on the contact
arc), and endpoint transversality: a template chooses only eta, eta_T and
q, and `_certificate` derives p and gamma from them, for every template
alike.  The discrete path searches constant or
piecewise-constant controls with the catch-up simulator as the dynamics
oracle.

Every two-agent scenario with a linked-segment control set goes through one
pair template, written with the scenario's drive and sweeping row; the model
family only supplies its contact roots y = t1 * eta1 (the robot's y
quadratic, the pedestrians' half gap) and the robot's heading checks.  A
touching start (`models.in_contact` at x0) has y = 0 and contact time exactly
0.  Each feasible root is one algebraic branch in `ReducedSolution.cases`.
Where the published robot analysis produces two branches with equal cost,
both are kept: the presented branch (larger root, the one whose dual data
the source analysis reports) carries the certificate, while the
order-preserving branch is the one the simulator reproduces and is exposed
for convergence comparisons.  Every template's certificate passes the nine
necessary conditions at VERIFY_TOL; that does not make its control the
minimizer (pedestrian3's certified (2, 2, 2), at cost 90, is not: the
discrete search reaches 36.0, the global minimum).  Each solution report
carries the published values
verbatim beside the certified ones: the pair's free-phase q in the source's
convention psi = u, and, for the three-pedestrian scenario, the published
arc trajectories, which carry the standing pre-contact multiplier alongside
the refreshed one where the certified trajectory uses the internally
consistent locked-train arc.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .models import ControlSet, PedestrianScenario, RobotScenario, Scenario, in_contact, ordering_holds
from .optimality import (
    DualCertificate,
    PiecewisePath,
    ResidualReport,
    StepFunction,
    verify_certificate,
)
from .polyhedra import row_multipliers
from .sweeping import ControlSignal, Mesh, Trajectory, cost as terminal_cost, simulate
from .tolerances import (
    ANGLE_TOL,
    BOUND_RTOL,
    DRIVE_TOL,
    PIECEWISE_MIN_STEP,
    SCALE_MAX,
    SEARCH_IMPROVE_TOL,
    SEARCH_MIN_SPAN,
    SEARCH_MIN_STEP,
    TIE_TOL,
    TIME_TOL,
    VERIFY_TOL,
)


class UnsupportedScenarioError(ValueError):
    """Scenario outside the analytic template families; use solve_discrete."""


# ---------------------------------------------------------------------------
# Formula-level operations
# ---------------------------------------------------------------------------


def robot_eta_formula(scn: RobotScenario, u) -> float:
    """Contact multiplier for the two-robot model under a diagonal heading.

    eta = (s1 u1 - s2 u2) cos(th) / 2 when the pushed speeds differ and
    cos(th) = sin(th) at the contact heading; zero otherwise.
    """
    if scn.n != 2:
        raise UnsupportedScenarioError("eta formula applies to the two-robot model")
    u = np.asarray(u, dtype=float)
    th = _contact_heading(scn)
    if abs(math.cos(th) - math.sin(th)) > ANGLE_TOL:
        return 0.0
    pushed = scn.speeds * u
    if abs(pushed[0] - pushed[1]) <= DRIVE_TOL:
        return 0.0
    return 0.5 * (pushed[0] - pushed[1]) * math.cos(th)


def robot_contact_quadratic(scn: RobotScenario, u) -> list[float]:
    """Contact times: roots in [0, T] of the quadratic linking t1 to the data
    (a touching start shows up as a zero root).

    [(s2 u2 - s1 u1)^2] t^2
      + 2 (s2 u2 - s1 u1) [(x0^21 - x0^11) cos th + (x0^22 - x0^12) sin th] t
      + (x0^21 - x0^11)^2 + (x0^22 - x0^12)^2 - 4 R^2 = 0.
    """
    if scn.n != 2:
        raise UnsupportedScenarioError("contact quadratic applies to the two-robot model")
    u = np.asarray(u, dtype=float)
    th = float(scn.angles[0])
    d = scn.speeds[1] * u[1] - scn.speeds[0] * u[0]
    dx1 = scn.x0[2] - scn.x0[0]
    dx2 = scn.x0[3] - scn.x0[1]
    a = d * d
    b = 2.0 * d * (dx1 * math.cos(th) + dx2 * math.sin(th))
    c = dx1 * dx1 + dx2 * dx2 - 4.0 * scn.R * scn.R
    if a == 0.0:
        roots = [-c / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return []
        roots = [(-b - math.sqrt(disc)) / (2 * a), (-b + math.sqrt(disc)) / (2 * a)]
    return sorted(max(t, 0.0) for t in roots if -TIME_TOL <= t <= scn.T + TIME_TOL)


def robot_y_quadratic(scn: RobotScenario) -> list[float]:
    """Roots y of 8 y^2 + 4 (x0^11 + x0^12 - x0^21 - x0^22) y = 4R^2 - dist^2."""
    if scn.n != 2:
        raise UnsupportedScenarioError("y quadratic applies to the two-robot model")
    ssum = scn.x0[0] + scn.x0[1] - scn.x0[2] - scn.x0[3]
    dx1 = scn.x0[0] - scn.x0[2]
    dx2 = scn.x0[1] - scn.x0[3]
    rhs = 4.0 * scn.R * scn.R - (dx1 * dx1 + dx2 * dx2)
    disc = (4.0 * ssum) ** 2 + 32.0 * rhs
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return sorted(((-4.0 * ssum - sq) / 16.0, (-4.0 * ssum + sq) / 16.0))


def _pair_rows(scn: Scenario, rows) -> list[int]:
    """The adjacent-pair indices `rows`, sorted; raises naming one that is not an integer in
    0..n-2, or one given twice."""
    for r in rows:
        if not (isinstance(r, numbers.Integral) and 0 <= r <= scn.n - 2):
            raise ValueError(f"pair row {r} is not an integer in 0..{scn.n - 2}")
    out = sorted(int(r) for r in rows)
    for r, after in zip(out, out[1:]):
        if r == after:
            raise ValueError(f"pair row {r} given twice")
    return out


def pedestrian_contact_time(scn: PedestrianScenario, u, row: int = 0, neighbor_eta: float = 0.0) -> float | None:
    """First contact time of the adjacent pair `row` under constant controls.

    With the neighboring multiplier constant at `neighbor_eta` from t = 0:

      t = gap0 / (neighbor_eta - s_{row+1} u^{row+1} + s_row u^row),

    where gap0 = x0^{row+1} - x0^row - 2R.  A start in contact (`models.in_contact`)
    gives t = 0; a nonpositive denominator with a positive numerator means no
    contact in the horizon (None).  A row that is not an integer in 0..n-2 raises
    a ValueError.
    """
    (row,) = _pair_rows(scn, [row])
    u = np.asarray(u, dtype=float)
    gap0 = scn.pair_gaps(scn.x0)[row]
    if in_contact(gap0):
        return 0.0
    denom = neighbor_eta - scn.speeds[row + 1] * u[row + 1] + scn.speeds[row] * u[row]
    if denom <= 0.0:
        return None
    t = gap0 / denom
    return t if 0.0 < t <= scn.T + TIME_TOL else None


def pedestrian_velocity_match(scn: PedestrianScenario, u, row: int) -> float:
    """Multiplier at the contact of pair `row` alone from velocity matching:
    2 eta = s_row u^row - s_{row+1} u^{row+1}, the locked train of one pair."""
    return locked_train_multipliers(scn, u, [row])[0]


def locked_train_multipliers(scn: PedestrianScenario, u, rows) -> np.ndarray:
    """Multipliers of a set of simultaneously locked pairs.

    Velocity matching across every locked pair is the normal-equation system
    of the sweeping set's rows for those pairs under the drive g(u)
    (`polyhedra.row_multipliers`); its Gram matrix is 2I - adjacency.  A row
    that is not an integer in 0..n-2, or one given twice, raises a ValueError naming it.
    """
    B = scn.sweeping_set().normals[_pair_rows(scn, rows)][None]
    v = scn.drive(np.asarray(u, dtype=float))[None]
    return row_multipliers(B, np.ones(B.shape[:2], dtype=bool), v)[0]


# ---------------------------------------------------------------------------
# Reduced solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobotCase:
    """One algebraic branch of the two-robot contact analysis."""

    y: float  # t1 * eta1 root
    t1: float
    eta1: float
    path: PiecewisePath
    ordering_preserved: bool

    @property
    def cost(self) -> float:
        return terminal_cost(self.path)


@dataclass(frozen=True)
class ReducedSolution:
    """A template's closed-form optimum and its dual certificate.

    The multipliers eta and eta_T are the certificate's; `cost` is the
    terminal cost of `path`.  `verification`, the nine-condition report of
    `certificate` on `path` under `control`, is computed by
    `verify_certificate` when it is first read and kept; a caller that never
    reads it never pays for it.
    """

    recommended_tol = VERIFY_TOL  # the tolerance every template certificate passes at

    scenario: Scenario
    control: np.ndarray
    contact_schedule: tuple[tuple[float, int], ...]
    path: PiecewisePath  # certified path (the presented solution)
    simulation_path: PiecewisePath  # dynamics-consistent branch
    certificate: DualCertificate
    report: dict
    reduced_cost: tuple[float, float, float] | None = None  # J(r) = a r^2 + b r + c
    cases: tuple[RobotCase, ...] = ()
    rejected_cases: tuple[str, ...] = ()

    @property
    def cost(self) -> float:
        return terminal_cost(self.path)

    @functools.cached_property
    def verification(self) -> ResidualReport:
        return verify_certificate(self.scenario, self.path, self.control, self.certificate)


def solve_reduced(scn: Scenario) -> ReducedSolution:
    """Closed-form solution of a template scenario with its dual certificate."""
    if scn.n == 2:
        return _solve_pair(scn)
    if isinstance(scn, PedestrianScenario) and scn.n == 3:
        return _solve_ped_triple(scn)
    raise UnsupportedScenarioError("no analytic template for this scenario; use solve_discrete")


def _contact_heading(scn: RobotScenario) -> float:
    if scn.angles_post is not None:
        return float(scn.angles_post[0])
    return float(scn.angles[0])


def _quad_min_on_interval(a: float, b: float, lo: float, hi: float) -> float:
    """Arg min of a r^2 + b r on [lo, hi] (a >= 0)."""
    cands = [lo, hi]
    if a > 0:
        r = -b / (2.0 * a)
        if lo <= r <= hi:
            cands.append(r)
    vals = [a * r * r + b * r for r in cands]
    return cands[int(np.argmin(vals))]


def _pair_family(scn: Scenario) -> tuple[list[float], str]:
    """What the pair template takes from the model family: the contact roots y = t1 * eta1
    in increasing order and the report key of eta1."""
    if isinstance(scn, RobotScenario):
        _check_robot_headings(scn)
        return robot_y_quadratic(scn), "eta1"
    return [0.5 * float(scn.pair_gaps(scn.x0)[0])], "eta_t1"


def _check_robot_headings(scn: RobotScenario) -> None:
    """The robot contact quadratic identifies the pre-contact drift with the multiplier
    through one diagonal direction, so both robots need it in both phases."""
    post = scn.angles if scn.angles_post is None else scn.angles_post
    if abs(scn.angles[0] - scn.angles[1]) > ANGLE_TOL or abs(post[0] - post[1]) > ANGLE_TOL:
        raise UnsupportedScenarioError("analytic robot template needs a common heading")
    th_pre = float(scn.angles[0])
    th_c = _contact_heading(scn)
    if abs(math.cos(th_c) - math.sin(th_c)) > ANGLE_TOL:
        raise UnsupportedScenarioError(
            "contact heading must satisfy cos = sin (diagonal push direction)"
        )
    if abs(math.cos(th_pre) - math.cos(th_c)) > ANGLE_TOL or abs(math.sin(th_pre) - math.sin(th_c)) > ANGLE_TOL:
        raise UnsupportedScenarioError(
            "analytic robot template needs the same diagonal heading before and after contact"
        )


def _solve_pair(scn: Scenario) -> ReducedSolution:
    """Two agents, one sweeping row a and a linked segment u = r * link.

    The pair moves freely at r * v_pre until it touches at t1, then together at
    r * v_arc - eta1 * a, where eta1 = e * r with e = <a, v_arc> / |a|^2 stops the row
    from closing further.  Each contact root y = t1 * eta1 of the family pins
    Z = y / e = t1 * r, so x(T; r) = A + B r with A = x0 + y a + Z (v_pre - v_arc) and
    B = T (v_arc - e a), and the cost is a quadratic in r, minimized over the r with
    eta1 > 0 and t1 <= T.  On (near) cost ties the larger root is kept: the branch whose
    dual data the source analysis presents.
    """
    U = scn.control_set
    if U.kind != "segment":
        raise UnsupportedScenarioError("analytic pair template needs a linked-segment control set")
    if not np.all(scn.speeds >= 1.0 / SCALE_MAX):  # the certificate's psi is divided by each speed
        raise UnsupportedScenarioError(f"analytic pair template needs every speed at least {1.0 / SCALE_MAX:g}")
    ys, eta_key = _pair_family(scn)
    T, x0 = scn.T, scn.x0
    if ys and in_contact(scn.pair_gaps(x0)[0]):
        ys[0] = 0.0  # a touching start: contact from t = 0, whatever the rounding of its root
    ys = [y for y in ys if y >= 0.0]
    a = scn.sweeping_set().normals[0]
    v_pre = scn.drive(U.link)
    v_arc = scn.drive(U.link, T, 0.0)
    e = float(a @ v_arc) / float(a @ a)
    if e == 0.0:
        raise UnsupportedScenarioError("equal pushed speeds: no contact interaction to resolve")

    B = T * (v_arc - e * a)
    branches = []
    for y in ys:
        Z = y / e
        A = x0 + y * a + Z * (v_pre - v_arc)
        coeffs = (0.5 * float(B @ B), float(A @ B), 0.5 * float(A @ A))
        lo, hi = (max(Z / T, U.rlo), U.rhi) if e > 0.0 else (U.rlo, min(Z / T, U.rhi))
        if lo > hi:
            continue
        r = _quad_min_on_interval(coeffs[0], coeffs[1], lo, hi)
        if e * r <= 0.0:  # the pair does not press
            continue
        t1 = Z / r
        x_T = A + B * r
        if TIME_TOL < t1 < T - TIME_TOL:
            path = PiecewisePath(np.array([0.0, t1, T]), np.array([x0, x0 + Z * v_pre, x_T]))
        else:
            path = PiecewisePath(np.array([0.0, T]), np.array([x0, x_T]))
        case = RobotCase(y, t1, e * r, path, ordering_holds(scn.n, path.states))
        branches.append((case, r, coeffs))
    if not branches:
        raise UnsupportedScenarioError("no feasible contact branch for this scenario")
    best = min(case.cost for case, _, _ in branches)
    tie = TIE_TOL * max(1.0, best)

    # Guard: if a contact-free control beats every contact branch, the template does not
    # describe the optimum.  Contact needs a push, e * r > 0, even from a touching start.
    r_first = ys[0] / e / T  # first contact exactly at T
    lo, hi = (U.rlo, min(r_first, U.rhi)) if e > 0.0 else (max(r_first, U.rlo), U.rhi)
    if lo <= hi:
        B_free = T * v_pre
        r_free = _quad_min_on_interval(0.5 * float(B_free @ B_free), float(x0 @ B_free), lo, hi)
        x_free = x0 + r_free * B_free
        if 0.5 * float(x_free @ x_free) < best - tie:
            raise UnsupportedScenarioError(
                "optimal control avoids contact; the reduced template targets contact scenarios"
            )

    case, r, coeffs = max((b for b in branches if b[0].cost <= best + tie), key=lambda b: b[0].y)
    cases = tuple(sorted((b[0] for b in branches), key=lambda cs: -cs.y))
    u_opt = U.at_parameter(r)

    # Free phase: psi from the maximization condition, and the published psi = u.  Arc: q on
    # the constraint surface and neutral for the segment, sum_i link_i psi_i = 0.  All sit on
    # each agent's last coordinate, whose heading component is nonzero in both families.
    last = np.arange(1, scn.n + 1) * (scn.state_dim // scn.n) - 1
    scale = scn.speeds * scn.headings(0.0)[:, -1]
    q_pre, q_published, q_arc = np.zeros((3, scn.state_dim))
    q_pre[last] = _pre_contact_psi(U, u_opt) / scale
    q_published[last] = u_opt / scale
    neutral = np.array([v_arc[last[1]], -v_arc[last[0]]])
    q_arc[last] = scn.sweeping_set().offsets[0] * neutral / (a[last] @ neutral)
    # q and eta change where the path does: at t1 when contact starts inside (0, T).  Contact
    # from t = 0, or only at T, leaves one arc segment, with eta1 on it only in the first case.
    times = case.path.times
    if times.size == 3:
        q, eta = [q_pre, q_arc], [[0.0], [case.eta1]]
    else:
        q, eta = [q_arc], [[case.eta1 if case.t1 <= TIME_TOL else 0.0]]
        q_published = q_arc
    cert = _certificate(scn, case.path.terminal, StepFunction(times, eta), [case.eta1], StepFunction(times, q))
    q_head, pT = q[0], cert.p.values[-1]
    report = {
        "u": u_opt.tolist(),
        "t1": case.t1,
        eta_key: case.eta1,
        "cost": case.cost,
        "reduced_cost_coefficients": list(coeffs),
        "q": q_published.tolist(),
        "p_T": pT.tolist(),
        "gamma_from_contact": (pT - q_published).tolist(),
        "certified_q": q_head.tolist(),
        "certified_gamma_from_contact": (pT - q_head).tolist(),
        "terminal_state": case.path.terminal.tolist(),
    }
    return ReducedSolution(
        scenario=scn,
        control=u_opt,
        contact_schedule=((case.t1, 0),),
        path=case.path,
        simulation_path=next((cs for cs in cases if cs.ordering_preserved), case).path,
        certificate=cert,
        report=report,
        reduced_cost=coeffs,
        cases=cases,
    )


def _pre_contact_psi(U: ControlSet, u_opt: np.ndarray) -> np.ndarray:
    """Control-gradient vector for the free phase of a generated certificate.

    The source convention psi = u maximizes at the optimal control exactly
    when each parameter p of u (a box coordinate, the link parameter r of a
    segment) sits at the bound its sign points to, within
    BOUND_RTOL * max(1, |p|).  Those parameters keep psi = u.  Elsewhere the
    optimum is interior and the maximization condition forces psi to be
    neutral: its component along that basis row is removed.
    """
    p = U.parameters(u_opt)
    tol = BOUND_RTOL * np.maximum(1.0, np.abs(p))
    at_bound = ((p > 0.0) & (p >= U.hi - tol)) | ((p < 0.0) & (p <= U.lo + tol))
    return u_opt - U.at_parameter(np.where(at_bound, 0.0, p))


def _certificate(scn: Scenario, x_T: np.ndarray, eta: StepFunction, eta_terminal, q: StepFunction) -> DualCertificate:
    """The template certificate that eta, eta_T and q fix: lambda = 1, p constant at
    p(T) = -(x(T) + A^T eta_T) (transversality, A the sweeping set's normals), and gamma with
    an atom at each inner breakpoint of q equal to q's jump there and a last atom
    (T, p(T) - q(T-)), so that q = p - gamma([t, T]) (the measure link)."""
    pT = -(x_T + scn.sweeping_set().normals.T @ eta_terminal)
    jumps = zip(q.times[1:-1], np.diff(q.values, axis=0))
    return DualCertificate(
        lam=1.0,
        eta=eta,
        eta_terminal=eta_terminal,
        p=StepFunction.constant(scn.T, pT),
        q=q,
        gamma_atoms=(*jumps, (scn.T, pT - q.values[-1])),
    )


def _solve_ped_triple(scn: PedestrianScenario) -> ReducedSolution:
    if scn.control_set.kind != "box":
        raise UnsupportedScenarioError("analytic three-pedestrian template needs a box control set")
    s, T, R = scn.speeds, scn.T, scn.R
    front, rear = in_contact(scn.pair_gaps(scn.x0))
    if front or not rear:
        raise UnsupportedScenarioError(
            "analytic three-pedestrian template needs the rear pair in initial contact"
        )

    # Positive multipliers require q on both constraint surfaces; the one
    # remaining dual degree of freedom is normalized like lambda, q1 = 1.
    q = np.array([1.0, 1.0 + 2.0 * R, 1.0 + 4.0 * R])
    psi = s * q
    _, u_opt = scn.control_set.maximize_linear(psi)

    rejected = []
    # Branch with the initial pair exerting no force: it pins the drive
    # ratio of the rear pair, which the maximization then contradicts.
    if abs(s[1] * u_opt[1] - s[2] * u_opt[2]) > DRIVE_TOL:
        rejected.append(
            "eta2(0) = 0 requires s2*u2 = s3*u3, but the maximization gives "
            f"u = {np.round(u_opt, 12).tolist()} with s2*u2 = {s[1] * u_opt[1]:g} "
            f"!= s3*u3 = {s[2] * u_opt[2]:g}; branch rejected"
        )

    eta2_0 = pedestrian_velocity_match(scn, u_opt, 1)  # rear pair locks at t = 0
    if eta2_0 <= 0.0:
        raise UnsupportedScenarioError("initial contact does not push: outside the template")
    t1 = pedestrian_contact_time(scn, u_opt, 0, neighbor_eta=eta2_0)
    if t1 is None:
        raise UnsupportedScenarioError("front pair never locks under the extremal control")
    eta_arc = locked_train_multipliers(scn, u_opt, [0, 1])
    if np.any(eta_arc <= 0.0):
        raise UnsupportedScenarioError("locked train multipliers not positive")

    drive = s * u_opt
    v_pre = np.array([drive[0], drive[1] - eta2_0, drive[2] + eta2_0])
    vbar = float(np.sum(drive)) / 3.0
    x_t1 = scn.x0 + t1 * v_pre
    x_T = x_t1 + (T - t1) * vbar
    path = PiecewisePath(np.array([0.0, t1, T]), np.array([scn.x0, x_t1, x_T]))

    C = scn.sweeping_set()
    eta = StepFunction(path.times, [[0.0, eta2_0], eta_arc])
    cert = _certificate(scn, x_T, eta, eta_arc, StepFunction.constant(T, q))
    pT = cert.p.values[-1]
    # Published-procedure values: the printed arc formulas keep the standing
    # pre-contact multiplier term alongside the refreshed pair multipliers,
    # so the printed slopes, terminal state, p(T) and gamma tail all differ
    # from the certified locked-train arc.  Reproduce them verbatim.
    printed_slopes = np.array(
        [
            drive[0] - eta_arc[0],
            drive[1] + eta_arc[0] - eta_arc[1] - eta2_0,
            drive[2] + eta_arc[1] + eta2_0,
        ]
    )
    x_T_printed = x_t1 + (T - t1) * printed_slopes
    pT_printed = -(x_T_printed + C.normals.T @ eta_arc)
    report = {
        "u": u_opt.tolist(),
        "t1": t1,
        "t2": 0.0,
        "eta2_0": eta2_0,
        "eta_t1": eta_arc.tolist(),
        "cost": terminal_cost(path),
        "q": q.tolist(),
        "post_contact_slopes": printed_slopes.tolist(),
        "p_T": pT_printed.tolist(),
        "gamma": (pT_printed - q).tolist(),
        "certified_p_T": pT.tolist(),
        "certified_gamma": (pT - q).tolist(),
        "consistency_note": (
            "published arc formulas carry the standing pre-contact multiplier in "
            "addition to the refreshed pair multipliers; the certified trajectory "
            "uses the locked-train arc (common slope)"
        ),
    }
    return ReducedSolution(
        scenario=scn,
        control=u_opt,
        contact_schedule=((0.0, 1), (t1, 0)),
        path=path,
        simulation_path=path,
        certificate=cert,
        report=report,
        rejected_cases=tuple(rejected),
    )


# ---------------------------------------------------------------------------
# Discrete (direct) solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSolution:
    mesh: Mesh
    control: ControlSignal
    trajectory: Trajectory
    cost: float
    evaluations: int
    simulations: int
    converged: bool
    localization: dict | None = None


def solve_discrete(
    scn: Scenario,
    m: int,
    budget: int = 2000,
    piecewise: bool = False,
    reference: tuple[PiecewisePath, np.ndarray] | None = None,
    localization_radius: float | None = None,
    seed: int = 0,
    extra_starts: int = 0,
) -> DiscreteSolution:
    """Projected coordinate (compass) search over control parameters with the
    simulator as the dynamics oracle.

    Constant-in-time parametrization by default (one parameter for a
    linked segment, n for a box); `piecewise` then refines the best constant
    solution with one parameter row per mesh interval.  Multistarts run from
    the control-set vertices and center, plus `extra_starts` uniform draws
    seeded by `seed`.  `budget` is a hard cap on the cost evaluations the
    search makes.  Each distinct control is simulated once: a repeat is
    looked up, not simulated, but still counts against the budget, so the
    search takes the same path either way.  Every control is built by
    `ControlSignal.from_parameters` from parameters clipped into the box,
    which checks it against U once; `simulate` does not check it again.  A
    compass step is decided on Python floats, in the float operations of the
    parameter arrays, and copies the parameter rows only when it moves, so an
    evaluation pays for its simulation and little else.  A step is taken
    only when it lowers the cost by more than SEARCH_IMPROVE_TOL, an absolute
    amount in the cost's units (squared lengths), so a scenario at a small
    length scale stops sooner: robot2 with every length 100000 times
    shorter stops at m = 4 at 36.000024 (in units of 10^-10), where at unit
    scale it reaches 36.000014.  A rule relative to the cost is not used:
    it would move the search paths that the tests pin to the bit
    (pedestrian3's piecewise search among them).
    `simulations` counts the `simulate` calls.  The lowest-cost trajectory
    simulated so far is kept and returned when it belongs to the best
    control; otherwise the best control is simulated once more, outside the
    budget.  `converged` is
    False exactly when the search stopped because it needed one more
    evaluation than the budget allows.  When a reference pair is supplied
    the tracking penalty terms (mesh approximations of the squared velocity
    and control deviations) are reported alongside the cost;
    `localization_radius` additionally restricts the search to a sup-norm
    ball around the reference control.  A reference control outside U
    raises ValueError naming the coordinate, so the ball's centre always
    lies in U and the localized box is never empty.
    """
    import hashlib  # only here, so that importing the package does not pay for it

    if not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ValueError(f"budget must be an integer of at least 1, got {budget!r}")
    if not (isinstance(extra_starts, numbers.Integral) and extra_starts >= 0):
        raise ValueError(f"extra_starts must be a nonnegative integer, got {extra_starts!r}")
    if localization_radius is not None and not 0.0 <= localization_radius < math.inf:
        raise ValueError(
            f"localization_radius must be a finite nonnegative number, got {localization_radius!r}"
        )
    mesh = Mesh(scn.horizon, m)
    U = scn.control_set
    if reference is not None:
        bad = U.violation_message(reference[1])
        if bad is not None:
            raise ValueError(f"reference control outside the control set: {bad}")
    rng = np.random.default_rng(seed)
    evals = sims = 0

    # Parameter rows P of shape (rows, q) give the controls P @ U.basis; the search starts at the
    # corners of the parameter box, then at its center.
    lo, hi = U.lo, U.hi
    starts = [*itertools.product(*zip(lo, hi)), 0.5 * (lo + hi)]
    starts += [lo + (hi - lo) * rng.random(lo.size) for _ in range(extra_starts)]

    if reference is not None and localization_radius is not None:
        # Inside the box, so the localized box around it is never empty (the reference may sit
        # outside by CONTROL_TOL).
        center = np.clip(U.parameters(reference[1]), lo, hi)
        lo = np.maximum(lo, center - localization_radius)
        hi = np.minimum(hi, center + localization_radius)
    span = np.maximum(hi - lo, SEARCH_MIN_SPAN)

    def key(P: np.ndarray) -> bytes:
        """The control P as a cache key: the bytes of its row when P is one row or rows all equal
        (the constant control P[:1], as when refining starts), else a digest of its 2^m * q
        entries behind a prefix, so that its length, 17 bytes, is no row's (a multiple of 8)."""
        raw = P.tobytes()
        row = raw[: len(raw) // len(P)]
        if raw == row * len(P):
            return row
        return b"#" + hashlib.blake2b(raw, digest_size=16).digest()

    # simulate is deterministic, so a stored cost is the one a new simulation would give.
    costs: dict[bytes, float] = {}
    low_key, low_traj = None, None  # the lowest-cost control simulated so far

    def evaluate(P: np.ndarray) -> float | None:
        """Cost of the control P, or None when the budget is spent."""
        nonlocal evals, sims, low_key, low_traj
        if evals >= budget:
            return None
        evals += 1
        k = key(P)
        val = costs.get(k)
        if val is None:
            traj = simulate(scn, ControlSignal.from_parameters(mesh, U, P))
            sims += 1
            val = costs[k] = terminal_cost(traj)
            if low_key is None or val < costs[low_key]:
                low_key, low_traj = k, traj
        return val

    lo_l, hi_l, span_l = lo.tolist(), hi.tolist(), span.tolist()

    def search(P: np.ndarray, val: float, min_step: float) -> tuple[np.ndarray, float, bool]:
        """Compass search from P (cost val); False when the budget stopped it.  Each candidate is
        decided on Python floats, in the float operations of the array entries, and copied only
        when it moves off P."""
        rel = 0.25
        while rel > min_step:
            improved = False
            for idx in itertools.product(range(P.shape[0]), range(P.shape[1])):
                i = idx[1]
                p = P.item(idx)  # an improving candidate ends the sign loop: p holds for both signs
                for sgn in (1.0, -1.0):
                    x = min(max(p + sgn * rel * span_l[i], lo_l[i]), hi_l[i])
                    if x == p:
                        continue
                    cand = P.copy()
                    cand[idx] = x
                    v = evaluate(cand)
                    if v is None:
                        return P, val, False
                    if v < val - SEARCH_IMPROVE_TOL:
                        P, val, improved = cand, v, True
                        break
            if not improved:
                rel *= 0.5
        return P, val, True

    best_P, best_val, converged = None, np.inf, True
    for start in starts:
        P = np.clip(start, lo, hi)[None, :]
        val = evaluate(P)
        if val is None:
            converged = False
            break
        P, val, converged = search(P, val, SEARCH_MIN_STEP)
        if val < best_val:
            best_P, best_val = P, val
        if not converged:
            break
    if piecewise and converged:
        best_P, best_val, converged = search(
            np.repeat(best_P, mesh.intervals, axis=0), best_val, PIECEWISE_MIN_STEP
        )

    u_best = ControlSignal.from_parameters(mesh, U, best_P)
    if key(best_P) == low_key:
        traj = low_traj
    else:
        traj = simulate(scn, u_best)
        sims += 1
    localization = None
    if reference is not None:
        localization = _tracking_penalty(reference, mesh, traj, u_best)
    return DiscreteSolution(
        mesh=mesh,
        control=u_best,
        trajectory=traj,
        cost=best_val,
        evaluations=evals,
        simulations=sims,
        converged=converged,
        localization=localization,
    )


def _tracking_penalty(reference, mesh: Mesh, traj: Trajectory, u: ControlSignal) -> dict:
    """Mesh approximation of the squared deviations from a reference pair."""
    ref_path, ref_u = reference
    h = mesh.h
    dv = (traj.velocities() - ref_path.velocity(mesh.nodes[:-1] + 0.5 * h)).ravel()
    du = (u.values - np.asarray(ref_u, dtype=float)).ravel()
    v_pen = 0.5 * h * float(dv @ dv)
    u_pen = 0.5 * h * float(du @ du)
    return {"velocity_term": v_pen, "control_term": u_pen, "total": v_pen + u_pen}


# ---------------------------------------------------------------------------
# Path sampling (closed form -> mesh arrays for CSV/simulation comparison)
# ---------------------------------------------------------------------------


def sample_path(path: PiecewisePath, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Path values on the union of mesh nodes and path breakpoints."""
    times = np.unique(np.concatenate([mesh.nodes, path.times]))
    return times, path.value(times)
