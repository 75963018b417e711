"""Seeded inputs, tasks and output checks of the four benchmark workloads.

Every workload is a closed loop: one client in one thread runs task after
task, and the next task starts only when the previous one has returned.
The tasks call the library only through module attributes
(`sweeping.simulate`, not a name imported once), so the tracing wrappers
that `spans.install` puts at those attributes see every call.

Inputs are a deterministic function of (workload, seed, stream, task index): the
same seed always yields the same task sequence, and the program receives only
the generated scenario texts, control arrays and matrices, never the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sweepctrl import cli, models, optimizer, polyhedra, sweeping
from sweepctrl.models import CONTACT_TOL

WORKLOADS = ("search", "jostle", "certify", "project")

# Task sizes.  search: about 150 short constant-control simulations per
# task, every search ending on its budget so that all tasks do the same
# amount of work; jostle: four long simulations whose control changes every
# interval; certify: CLI round trips over a union grid of 2^m breakpoints.
SEARCH_MESH_EXP = 6
SEARCH_BUDGET = 50
JOSTLE_MESH_EXP = 9
CERTIFY_MESH_EXP = 8
# certify draws its scenario values on a 1/8 grid, as exact as the bundled
# files.  With arbitrary reals, about 1 in 100 round trips fails `verify` at
# the recommended tolerance: a mesh node a hair away from a contact time
# leaves a sliver interval on which the 12-digit CSV rounding shows up as a
# velocity error above 1e-6.  That is a defect of the CSV round trip, not of
# the workload, and is left to the robustness work.
CERTIFY_GRID = 0.125
PROJECT_INSTANCES = 512  # criterion-6 instances per task

RESIDUAL_TOL = 1e-6  # recover_eta residual bound, as in criterion 6
PROJ_TOL = 1e-9  # projection tolerance of criterion 6
FAMILIES = ("robot2", "pedestrian2", "pedestrian3")
GAP_FAMILIES = ("robot2", "pedestrian2")  # reduced control minimizes the cost (criterion 5)
# Certificate fields corrupted in turn by certify; each makes `verify` FAIL.
CORRUPTIONS = ("lambda", "q", "p")


def _rng(workload: str, seed: int, stream: int, task: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, stream, task])


def _num(v) -> str:
    return repr(float(v))


def _nums(vs) -> str:
    return " ".join(_num(v) for v in vs)


# ---------------------------------------------------------------------------
# Scenario-text generators
# ---------------------------------------------------------------------------


def _draw(rng: np.random.Generator, lo: float, hi: float, size=None, grid: float | None = None):
    """Uniform on [lo, hi]; rounded to a multiple of `grid` when one is given."""
    x = rng.uniform(lo, hi, size)
    return x if grid is None else np.round(x / grid) * grid


def robot2_text(rng: np.random.Generator, grid: float | None = None) -> str:
    """A variant of the bundled two-robot scenario that the reduced template accepts."""
    R = _draw(rng, 5.7, 6.3, grid=grid)
    front = _draw(rng, -21.0, -19.0, grid=grid)
    rear = front + _draw(rng, -11.0, -9.0, grid=grid)
    speeds = _draw(rng, 0.9, 1.1, 2, grid) * np.array([3.0, 1.0])
    bound = _draw(rng, 3.2, 3.54, grid=grid)
    return (
        "model = robot\nn = 2\n"
        f"R = {_num(R)}\nT = 6\n"
        f"x0 = {_nums([rear, rear, front, front])}\n"
        f"speeds = {_nums(speeds)}\n"
        "angles_deg = 225 225\n"
        "control.kind = segment\ncontrol.link = 2 1\n"
        f"control.bounds = {_nums([-bound, bound])}\ncontrol.bound_on = 1\n"
    )


def pedestrian2_text(rng: np.random.Generator, grid: float | None = None) -> str:
    """A variant of the bundled two-pedestrian scenario that the reduced template accepts.

    Only the radius and a backward shift of the pair vary: both keep the
    optimal control at the bound of the segment.  Where the optimum is
    interior, the template's certificate fails the maximization condition,
    so such variants are not template inputs.
    """
    R = _draw(rng, 2.85, 3.15, grid=grid)
    x0 = np.array([-60.0, -48.0]) - _draw(rng, 0.0, 2.0, grid=grid)
    return (
        "model = pedestrian\nn = 2\n"
        f"R = {_num(R)}\nT = 6\n"
        f"x0 = {_nums(x0)}\nspeeds = 8 2\n"
        "control.kind = segment\ncontrol.link = 1 1\n"
        "control.bounds = -1.8 1.8\ncontrol.bound_on = 1\n"
    )


def pedestrian3_text(rng: np.random.Generator, grid: float | None = None) -> str:
    """A variant of the bundled three-pedestrian scenario, rear pair in contact."""
    R = _draw(rng, 2.85, 3.15, grid=grid)
    x1 = _draw(rng, -49.0, -47.0, grid=grid)
    x0 = np.array([_draw(rng, -61.0, -59.0, grid=grid), x1, x1 + 2.0 * R])
    speeds = _draw(rng, 0.95, 1.05, 3, grid) * np.array([8.0, 4.0, 2.0])
    hi = _draw(rng, 1.9, 2.1, grid=grid)
    return (
        "model = pedestrian\nn = 3\n"
        f"R = {_num(R)}\nT = 6\n"
        f"x0 = {_nums(x0)}\nspeeds = {_nums(speeds)}\n"
        "control.kind = box\n"
        f"control.lo = {_nums([-hi] * 3)}\ncontrol.hi = {_nums([hi] * 3)}\n"
    )


FAMILY_TEXT = {
    "robot2": robot2_text,
    "pedestrian2": pedestrian2_text,
    "pedestrian3": pedestrian3_text,
}


def _walk(rng: np.random.Generator, steps: int, target: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Bounded mean-reverting random walk around `target`, one row per interval."""
    n = target.size
    out = np.empty((steps, n))
    u = target.copy()
    noise = rng.normal(0.0, 0.15 * (hi - lo), (steps, n))
    for k in range(steps):
        u = np.clip(u + 0.05 * (target - u) + noise[k], lo, hi)
        out[k] = u
    return out


def pedestrian_chain(rng: np.random.Generator, n: int, m: int) -> tuple[str, np.ndarray]:
    """n pedestrians with small gaps; the rear ones are driven harder."""
    R = rng.uniform(0.5, 1.5)
    gaps = 2.0 * R + rng.uniform(0.0, 1.0, n - 1) * R * (rng.random(n - 1) < 0.6)
    x0 = -40.0 + np.concatenate([[0.0], np.cumsum(gaps)])
    speeds = rng.uniform(1.5, 2.5, n)
    lo, hi = -1.0, 2.0
    target = hi - 0.8 * (hi - lo) * np.arange(n) / (n - 1)
    text = (
        f"model = pedestrian\nn = {n}\nR = {_num(R)}\nT = 6\n"
        f"x0 = {_nums(x0)}\nspeeds = {_nums(speeds)}\n"
        f"control.kind = box\ncontrol.lo = {_nums([lo] * n)}\ncontrol.hi = {_nums([hi] * n)}\n"
    )
    return text, _walk(rng, 1 << m, target, lo, hi)


def robot_chain(rng: np.random.Generator, n: int, m: int) -> tuple[str, np.ndarray]:
    """n robots on the diagonal, ordered, heading 225 degrees.

    A negative control moves a robot along (+1, +1); the rear robots get
    the more negative targets so that the gaps close.  On the diagonal the
    sweeping-set rows and the Euclidean contact normals agree, so the
    multipliers recover exactly.
    """
    R = rng.uniform(1.0, 2.0)
    steps = math.sqrt(2.0) * R * (1.0 + rng.uniform(0.0, 0.6, n - 1))
    a = -30.0 + np.concatenate([[0.0], np.cumsum(steps)])
    speeds = rng.uniform(1.0, 2.0, n)
    lo, hi = -3.0, 1.0
    target = lo + 0.8 * (hi - lo) * np.arange(n) / (n - 1)
    text = (
        f"model = robot\nn = {n}\nR = {_num(R)}\nT = 6\n"
        f"x0 = {_nums(np.repeat(a, 2))}\nspeeds = {_nums(speeds)}\n"
        f"angles_deg = {' '.join(['225'] * n)}\n"
        f"control.kind = box\ncontrol.lo = {_nums([lo] * n)}\ncontrol.hi = {_nums([hi] * n)}\n"
    )
    return text, _walk(rng, 1 << m, target, lo, hi)


JOSTLE_CHAINS = ((pedestrian_chain, 5), (pedestrian_chain, 8), (robot_chain, 3), (robot_chain, 4))


def bundled_texts() -> list[str]:
    return [models.bundled_scenario_path(f + ".scn").read_text() for f in FAMILIES]


# ---------------------------------------------------------------------------
# Input streams
# ---------------------------------------------------------------------------


def task_inputs(workload: str, seed: int, stream: int = 0):
    """Endless deterministic sequence of task inputs (dicts of plain data).

    Every task has the same composition (one scenario of each family, one
    chain of each size, a fixed number of instances), so that task times
    differ only through the seeded values, not through the mix.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    for task in itertools.count():
        rng = _rng(workload, seed, stream, task)
        if workload == "search":
            yield {"texts": [FAMILY_TEXT[f](rng) for f in FAMILIES]}
        elif workload == "jostle":
            yield {"chains": [make(rng, n, JOSTLE_MESH_EXP) for make, n in JOSTLE_CHAINS]}
        elif workload == "certify":
            # The first task uses the bundled files as shipped.
            texts = bundled_texts() if task == 0 and stream == 0 else [
                FAMILY_TEXT[f](rng, CERTIFY_GRID) for f in FAMILIES
            ]
            corrupt = [CORRUPTIONS[(task + j) % len(CORRUPTIONS)] for j in range(len(FAMILIES))]
            yield {"texts": texts, "corrupt": corrupt}
        else:
            instances = []
            for _ in range(PROJECT_INSTANCES):
                n = int(rng.integers(2, 9))
                s = int(rng.integers(1, 8))
                instances.append({
                    "A": rng.standard_normal((s, n)),
                    "c": np.abs(rng.standard_normal(s)) + 0.1,
                    "y": rng.standard_normal(n) * 5.0,
                    "y2": rng.standard_normal(n) * 5.0,
                    "vi_seed": int(rng.integers(2**31)),
                })
            yield {"instances": instances}


def setup_payload(workload: str, seed: int) -> dict:
    """The inputs of the first task, which a fresh process parses during set-up."""
    first = next(task_inputs(workload, seed))
    if workload == "project":
        return {"texts": [], "polyhedra": [[i["A"].tolist(), i["c"].tolist()] for i in first["instances"]]}
    if workload == "jostle":
        return {"texts": [text for text, _ in first["chains"]], "polyhedra": []}
    return {"texts": first["texts"], "polyhedra": []}


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass
class TaskResult:
    output: list  # one entry per scenario, chain or instance of the task
    digest: bytes  # compared between untraced and traced runs
    steps: int = 0  # catch-up steps of the simulate calls, counted from outside


def _hash(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.digest()


def run_search(inp: dict, workdir: Path) -> TaskResult:
    out, parts, steps = [], [], 0
    for text in inp["texts"]:
        scn = models.parse_scenario_text(text)
        red = optimizer.solve_reduced(scn)
        sol = optimizer.solve_discrete(
            scn, SEARCH_MESH_EXP, budget=SEARCH_BUDGET, reference=(red.path, red.control)
        )
        out.append({"scn": scn, "J_star": red.cost, "sol": sol})
        parts += [sol.cost, sol.evaluations, sol.trajectory.nodes]
        steps += (sol.evaluations + 1) * (1 << SEARCH_MESH_EXP)  # the search, then the best control again
    return TaskResult(out, _hash(*parts), steps)


def run_jostle(inp: dict, workdir: Path) -> TaskResult:
    out, parts, steps = [], [], 0
    for text, controls in inp["chains"]:
        scn = models.parse_scenario_text(text)
        mesh = sweeping.Mesh(scn.horizon, JOSTLE_MESH_EXP)
        u = sweeping.ControlSignal(mesh, controls)
        traj = sweeping.simulate(scn, u)
        prof = sweeping.recover_eta(scn, traj, u)
        csv = sweeping.trajectory_csv(traj.times, traj.nodes, u.values, prof.values, prof.terminal)
        out.append({"scn": scn, "traj": traj, "prof": prof, "csv_lines": csv.count("\n")})
        parts += [traj.nodes, prof.values, csv]
        steps += mesh.intervals
    return TaskResult(out, _hash(*parts), steps)


def _corrupt(data: dict, field: str) -> dict:
    if field == "lambda":
        data["lambda"] += 0.1
    elif field == "q":
        data["q_values"][0][0] += 0.1
    else:
        for row in data["p_values"]:
            row[0] += 0.1
    return data


def _dirs(workdir: Path, j: int) -> tuple[Path, Path, Path]:
    return tuple(workdir / f"{j}-{name}" for name in ("red", "ok", "bad"))


def prepare_certify(inp: dict, workdir: Path) -> None:
    """Client-side set-up before the task: scenario files and empty output directories."""
    for j, text in enumerate(inp["texts"]):
        for d in _dirs(workdir, j):
            d.mkdir(parents=True, exist_ok=True)
            for f in d.iterdir():
                f.unlink()
        (workdir / f"{j}.scn").write_text(text)


def run_certify(inp: dict, workdir: Path) -> TaskResult:
    """solve-reduced, verify its artifacts, verify a corrupted certificate; per family."""
    out, parts = [], []
    sink = io.StringIO()
    for j, corrupt in enumerate(inp["corrupt"]):
        scn = str(workdir / f"{j}.scn")
        red, ok, bad = _dirs(workdir, j)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.main(["solve-reduced", scn, f"--mesh-exp={CERTIFY_MESH_EXP}", f"--out={red}"])]
            if codes[0] == 0:
                tol = json.loads((red / "solution.json").read_text())["recommended_tol"]
                common = [f"--trajectory={red / 'trajectory.csv'}", f"--tol={tol!r}"]
                cert = red / "certificate.json"
                codes.append(cli.main(["verify", scn, f"--certificate={cert}", *common, f"--out={ok}"]))
                bad_cert = bad / "certificate.json"
                bad_cert.write_text(json.dumps(_corrupt(json.loads(cert.read_text()), corrupt)))
                codes.append(cli.main(["verify", scn, f"--certificate={bad_cert}", *common, f"--out={bad}"]))
        written = sum(f.stat().st_size for d in (red, ok, bad) for f in d.iterdir() if f.name != "certificate.json" or d != bad)
        out.append({"family": FAMILIES[j], "corrupt": corrupt, "codes": codes, "bytes": written})
        parts += [codes] + [f.read_bytes() for f in sorted(red.iterdir())]
    return TaskResult(out, _hash(*parts))


def run_project(inp: dict, workdir: Path) -> TaskResult:
    out, parts = [], []
    for inst in inp["instances"]:
        poly = polyhedra.Polyhedron(inst["A"], inst["c"])
        x = polyhedra.project(poly, inst["y"], PROJ_TOL)
        xw = polyhedra.project(poly, inst["y2"], PROJ_TOL, feasible_start=x)
        dec = polyhedra.decompose_normal(poly, x, inst["y"] - x, PROJ_TOL)
        licq = polyhedra.check_licq(poly, x, PROJ_TOL)
        out.append({"poly": poly, "x": x, "xw": xw, "dec": dec, "licq": licq})
        parts += [x, xw, dec.residual, licq]
    return TaskResult(out, _hash(*parts))


RUNNERS = {"search": run_search, "jostle": run_jostle, "certify": run_certify, "project": run_project}
PREPARE = {"certify": prepare_certify}


# ---------------------------------------------------------------------------
# Output checks (each returns a list of failure messages)
# ---------------------------------------------------------------------------


def node_violation(scn, nodes: np.ndarray) -> float:
    """Largest amount by which a node breaks the separation 2R (0 when all feasible)."""
    twoR = 2.0 * scn.R
    if isinstance(scn, models.PedestrianScenario):
        gaps = np.diff(nodes, axis=1)
    else:
        P = nodes.reshape(nodes.shape[0], scn.n, 2)
        i, j = np.triu_indices(scn.n, 1)
        gaps = np.linalg.norm(P[:, i] - P[:, j], axis=2)
    return float(max(0.0, np.max(twoR - gaps)))


def _feasible(scn, nodes: np.ndarray, label: str) -> list[str]:
    v = node_violation(scn, nodes)
    return [] if v <= CONTACT_TOL else [f"{label}: a node breaks the 2R separation by {v:.3e}"]


def check_search(inp, res: TaskResult) -> list[str]:
    fails = []
    for family, out in zip(FAMILIES, res.output):
        sol = out["sol"]
        fails += _feasible(out["scn"], sol.trajectory.nodes, f"search {family}")
        xT = sol.trajectory.terminal
        if not (np.isfinite(sol.cost) and abs(sol.cost - 0.5 * float(xT @ xT)) <= 1e-9 * max(1.0, sol.cost)):
            fails.append(f"search {family}: reported cost {sol.cost!r} is not 0.5*|x(T)|^2 of its path")
    return fails


def cost_gaps(res: TaskResult) -> list[float]:
    """(J_found - J*) / J* on the families whose reduced control minimizes the cost."""
    return [
        (out["sol"].cost - out["J_star"]) / out["J_star"]
        for family, out in zip(FAMILIES, res.output)
        if family in GAP_FAMILIES
    ]


def check_jostle(inp, res: TaskResult) -> list[str]:
    fails = []
    for out in res.output:
        label = f"jostle {type(out['scn']).__name__} n={out['scn'].n}"
        fails += _feasible(out["scn"], out["traj"].nodes, label)
        r = out["prof"].max_residual()
        if not r < RESIDUAL_TOL:
            fails.append(f"{label}: recover_eta residual {r:.3e} >= {RESIDUAL_TOL:g}")
        if out["csv_lines"] != out["traj"].nodes.shape[0] + 1:
            fails.append(f"{label}: CSV row count differs from node count + header")
    return fails


def check_certify(inp, res: TaskResult) -> list[str]:
    return [
        f"certify {out['family']} (corrupt {out['corrupt']}): exit codes {out['codes']}, expected [0, 0, 1]"
        for out in res.output
        if out["codes"] != [0, 0, 1]
    ]


def _vi_violation(A, c, x, y, seed: int) -> float:
    """Max of <z - x, y - x> over 100 random points z of the polyhedron (criterion 6)."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((100, A.shape[1]))
    AD = D @ A.T
    with np.errstate(divide="ignore"):
        steps = np.where(AD > 1e-12, c[None, :] / AD, np.inf)
    tmax = np.minimum(np.min(steps, axis=1), 10.0)
    Z = D * (rng.uniform(0.0, 0.99, size=100) * tmax)[:, None]
    return float(np.max((Z - x) @ (y - x)))


def check_project(inp, res: TaskResult) -> list[str]:
    fails = []
    for inst, out in zip(inp["instances"], res.output):
        A, c = inst["A"], inst["c"]
        for label, x, y in (("cold", out["x"], inst["y"]), ("warm", out["xw"], inst["y2"])):
            if np.max(A @ x - c) > 10 * PROJ_TOL:
                fails.append(f"project {label}: result outside the polyhedron")
            if _vi_violation(A, c, x, y, inst["vi_seed"]) > PROJ_TOL:
                fails.append(f"project {label}: variational inequality violated")
        if np.linalg.norm(polyhedra.project(out["poly"], out["x"], PROJ_TOL) - out["x"]) > 10 * PROJ_TOL:
            fails.append("project: not idempotent")
        scale = max(1.0, float(np.linalg.norm(inst["y"])))
        if out["dec"].residual > 1e-6 * scale:
            fails.append(f"project: y - P(y) not in the normal cone (residual {out['dec'].residual:.3e})")
    return fails


CHECKS = {"search": check_search, "jostle": check_jostle, "certify": check_certify, "project": check_project}
