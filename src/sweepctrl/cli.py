"""Command-line front end: simulate, solve-reduced, solve-discrete, verify, convergence."""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import load_scenario
from .optimality import (
    PiecewisePath,
    StepFunction,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from .optimizer import (
    ReducedSolution,
    UnsupportedScenarioError,
    sample_path,
    solve_discrete,
    solve_reduced,
)
from .polyhedra import ProjectionError
from .sweeping import (
    ControlSignal,
    Mesh,
    cost,
    read_trajectory_csv,
    recover_eta,
    simulate,
    trajectory_csv,
)
from .tolerances import VERIFY_TOL

MESH_EXP_RANGE = (3, 16)


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    scenario: Path
    mesh_exp: int = 12
    control: np.ndarray | None = None
    control_file: Path | None = None
    certificate: Path | None = None
    trajectory: Path | None = None
    out: Path = Path(".")
    tol: float = VERIFY_TOL
    m_range: tuple[int, ...] = (6, 8, 10, 12, 14)
    budget: int = 2000
    piecewise: bool = False

    def __post_init__(self):
        if not self.scenario.exists():
            raise UsageError(f"scenario file not found: {self.scenario}")
        if not MESH_EXP_RANGE[0] <= self.mesh_exp <= MESH_EXP_RANGE[1]:
            raise UsageError(f"--mesh-exp must be in [{MESH_EXP_RANGE[0]}, {MESH_EXP_RANGE[1]}]")
        if not 0.0 < self.tol < math.inf:
            raise UsageError(f"--tol must be a finite positive number, got {self.tol}")
        for p in (self.control_file, self.certificate, self.trajectory):
            if p is not None and not p.exists():
                raise UsageError(f"file not found: {p}")
        if not self.m_range:
            raise UsageError("--m-range is empty: give at least one mesh exponent")
        for m in self.m_range:
            if not MESH_EXP_RANGE[0] <= m <= MESH_EXP_RANGE[1]:
                raise UsageError(f"--m-range entries must be in [{MESH_EXP_RANGE[0]}, {MESH_EXP_RANGE[1]}]")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise UsageError(f"--control: expected numbers, got '{text}'") from exc


def _parse_m_range(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            lo, hi = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 2
            return tuple(range(lo, hi + 1, step))
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"--m-range: expected 'lo:hi[:step]' or a list, got '{text}'") from exc


def _load_control(cfg: RunConfig, scn, mesh: Mesh) -> ControlSignal:
    if cfg.control is not None:
        return ControlSignal.constant(mesh, cfg.control)
    if cfg.control_file is not None:
        rows = []
        for lineno, line in enumerate(cfg.control_file.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                rows.append([float(tok) for tok in stripped.replace(",", " ").split()])
            except ValueError as exc:
                raise UsageError(f"{cfg.control_file}: line {lineno}: expected numbers") from exc
            if len(rows[-1]) != scn.control_set.dim:
                width = f"row of width {len(rows[-1])}, the control set width {scn.control_set.dim}"
                raise UsageError(f"{cfg.control_file}: line {lineno}: {width}")
        return ControlSignal(mesh, np.array(rows))
    raise UsageError("this command needs --control or --control-file")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    mesh = Mesh(scn.horizon, cfg.mesh_exp)
    u = _load_control(cfg, scn, mesh)
    traj = simulate(scn, u)
    prof = recover_eta(scn, traj, u)
    csv_text = trajectory_csv(traj.times, traj.nodes, u.values, prof.values, prof.terminal)
    _write(cfg.out / "trajectory.csv", csv_text)
    print(f"cost = {cost(traj):.12g}")
    print(f"trajectory written to {cfg.out / 'trajectory.csv'}")
    return 0


def _solution_text(sol: ReducedSolution) -> str:
    lines = ["reduced solution", "================"]
    lines.append(f"control           = {np.round(sol.control, 12).tolist()}")
    lines.append(
        "contact schedule  = "
        + ", ".join(f"(t={t:.6g}, row={j + 1})" for t, j in sol.contact_schedule)
    )
    for k in range(sol.eta.values.shape[0]):
        a, b = sol.eta.times[k], sol.eta.times[k + 1]
        lines.append(f"eta on [{a:.6g}, {b:.6g})  = {np.round(sol.eta.values[k], 12).tolist()}")
    lines.append(f"eta at T          = {np.round(sol.eta_terminal, 12).tolist()}")
    lines.append(f"cost              = {sol.cost:.12g}")
    if sol.reduced_cost is not None:
        a, b, c = sol.reduced_cost
        lines.append(f"reduced cost J(r) = {a:.10g} r^2 + {b:.10g} r + {c:.10g}")
    lines.append("")
    lines.append("certificate")
    lines.append("-----------")
    lines.append(f"lambda = {sol.certificate.lam:g}")
    lines.append(f"q(0)   = {np.round(sol.certificate.q.values[0], 12).tolist()}")
    lines.append(f"p(T)   = {np.round(sol.certificate.p.values[-1], 12).tolist()}")
    for t, v in sol.certificate.gamma_atoms:
        lines.append(f"gamma atom at t={t:.6g}: {np.round(v, 12).tolist()}")
    if sol.contact_schedule:
        t_first = sol.contact_schedule[-1][0]
        lines.append(
            f"gamma([t1, T])    = {np.round(sol.certificate.gamma_tail(t_first), 12).tolist()}"
        )
    for key in ("post_contact_slopes", "p_T", "gamma", "consistency_note"):
        if key in sol.report:
            lines.append(f"published {key} = {sol.report[key]}")
    for case in sol.cases:
        lines.append(
            f"branch y={case.y:.6g}: t1={case.t1:.6g}, eta1={case.eta1:.6g}, "
            f"cost={case.cost:.6g}, ordering={'kept' if case.ordering_preserved else 'crossed'}"
        )
    for msg in sol.rejected_cases:
        lines.append(f"rejected branch: {msg}")
    lines.append("")
    lines.append("verification")
    lines.append("------------")
    lines.append(sol.verification.to_text())
    return "\n".join(lines) + "\n"


def _solution_csv(sol: ReducedSolution, mesh: Mesh) -> str:
    times, states = sample_path(sol.path, mesh)
    controls = np.tile(sol.control, (len(times) - 1, 1))
    etas = sol.eta.value(0.5 * (times[:-1] + times[1:]))
    return trajectory_csv(times, states, controls, etas, sol.eta_terminal)


def _cmd_solve_reduced(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    sol = solve_reduced(scn)
    mesh = Mesh(scn.horizon, cfg.mesh_exp)
    _write(cfg.out / "solution.txt", _solution_text(sol))
    _write(cfg.out / "trajectory.csv", _solution_csv(sol, mesh))
    save_certificate(sol.certificate, cfg.out / "certificate.json")
    payload = {
        "control": sol.control.tolist(),
        "contact_schedule": [[t, j] for t, j in sol.contact_schedule],
        "cost": sol.cost,
        "report": sol.report,
        "recommended_tol": sol.recommended_tol,
        "verification_passed": sol.verification.passed,
    }
    _write(cfg.out / "solution.json", json.dumps(payload, indent=2) + "\n")
    print(f"control = {np.round(sol.control, 6).tolist()}")
    for t, j in sol.contact_schedule:
        print(f"t{j + 1} = {t:.6g} (row {j + 1})")
    print(f"cost = {sol.cost:.12g}")
    print(f"verification: {'PASS' if sol.verification.passed else 'FAIL'}")
    print(f"artifacts written to {cfg.out}")
    return 0 if sol.verification.passed else 1


def _cmd_solve_discrete(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    reference = None
    try:
        red = solve_reduced(scn)
        reference = (red.path, red.control)
    except UnsupportedScenarioError:
        red = None
    sol = solve_discrete(
        scn,
        cfg.mesh_exp,
        budget=cfg.budget,
        piecewise=cfg.piecewise,
        reference=reference,
    )
    prof = recover_eta(scn, sol.trajectory, sol.control)
    csv_text = trajectory_csv(
        sol.trajectory.times, sol.trajectory.nodes, sol.control.values, prof.values, prof.terminal
    )
    _write(cfg.out / "trajectory.csv", csv_text)
    lines = [
        "discrete solution",
        "=================",
        f"mesh exponent = {cfg.mesh_exp} (h = {sol.mesh.h:.6g})",
        f"cost J_m      = {sol.cost:.12g}",
        f"evaluations   = {sol.evaluations}",
        f"simulations   = {sol.simulations}",
        f"converged     = {sol.converged}",
        f"control(t=0)  = {np.round(sol.control.values[0], 12).tolist()}",
    ]
    if sol.localization is not None:
        lines.append(
            "localization penalty terms vs reduced reference: "
            f"velocity {sol.localization['velocity_term']:.6g}, "
            f"control {sol.localization['control_term']:.6g}"
        )
    if red is not None:
        lines.append(f"reduced optimum for comparison = {red.cost:.12g}")
    _write(cfg.out / "solution.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    if not sol.converged:
        print("warning: search budget exhausted before convergence", file=sys.stderr)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    if cfg.certificate is None:
        raise UsageError("verify needs --certificate")
    if cfg.trajectory is None:
        raise UsageError("verify needs --trajectory (CSV written by simulate/solve-reduced)")
    cert = load_certificate(cfg.certificate)
    data = read_trajectory_csv(cfg.trajectory.read_text())
    path = PiecewisePath(data["times"], data["states"])
    if "controls" in data:
        u = StepFunction(data["times"], data["controls"][:-1])
    elif cfg.control is not None:
        u = StepFunction.constant(path.horizon, cfg.control)
    else:
        raise UsageError("verify needs control columns in the CSV or --control")
    report = verify_certificate(scn, path, u, cert, tol=cfg.tol)
    text = report.to_text()
    _write(cfg.out / "report.txt", text + "\n")
    print(text)
    return 0 if report.passed else 1


def _cmd_convergence(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    if cfg.control is not None:
        u_const = cfg.control
        ref_terminal = None
        red = None
    else:
        red = solve_reduced(scn)
        u_const = red.control
        ref_terminal = red.simulation_path.terminal
    if ref_terminal is None:
        fine = simulate(scn, ControlSignal.constant(Mesh(scn.horizon, max(cfg.m_range) + 2), u_const))
        ref_terminal = fine.terminal
    header = f"{'m':>3} {'J_m':>18} {'endpoint_error':>18}"
    rows = [header]
    csv_lines = ["m,J_m,endpoint_error"]
    for m in cfg.m_range:
        traj = simulate(scn, ControlSignal.constant(Mesh(scn.horizon, m), u_const))
        jm, err = cost(traj), float(np.linalg.norm(traj.terminal - ref_terminal))
        rows.append(f"{m:>3} {jm:>18.12g} {err:>18.12g}")
        csv_lines.append(f"{m},{jm:.12g},{err:.12g}")
    text = "\n".join(rows)
    _write(cfg.out / "convergence.csv", "\n".join(csv_lines) + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="sweepctrl",
        description="Controlled sweeping processes: simulate, solve, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, control=False):
        p.add_argument("scenario", type=Path, help="scenario file (key = value text)")
        p.add_argument("--mesh-exp", type=int, default=12, help="dyadic mesh exponent m (3..16)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if control:
            p.add_argument("--control", type=str, default=None, help="inline constant control, e.g. '1.8,1.8'")
            p.add_argument("--control-file", type=Path, default=None, help="per-interval control rows")

    p_sim = sub.add_parser("simulate", help="catch-up simulation under a given control")
    common(p_sim, control=True)

    p_red = sub.add_parser("solve-reduced", help="closed-form template solution with certificate")
    common(p_red)

    p_dis = sub.add_parser("solve-discrete", help="direct search on the discrete problem")
    common(p_dis)
    p_dis.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="hard cap on the search's cost evaluations; a repeated control is looked up, not simulated",
    )
    p_dis.add_argument("--piecewise", action="store_true", help="refine the constant optimum per interval")

    p_ver = sub.add_parser("verify", help="check a certificate against a trajectory")
    common(p_ver, control=True)
    p_ver.add_argument("--certificate", type=Path, required=True)
    p_ver.add_argument("--trajectory", type=Path, required=True)
    p_ver.add_argument("--tol", type=float, default=VERIFY_TOL, help="verification tolerance")

    p_con = sub.add_parser("convergence", help="mesh-refinement table at a fixed control")
    common(p_con, control=True)
    p_con.add_argument("--m-range", type=str, default="6:14:2", help="'lo:hi[:step]' or list")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        scenario=args.scenario,
        mesh_exp=args.mesh_exp,
        control=_parse_vector(args.control) if getattr(args, "control", None) else None,
        control_file=getattr(args, "control_file", None),
        certificate=getattr(args, "certificate", None),
        trajectory=getattr(args, "trajectory", None),
        out=args.out,
        tol=getattr(args, "tol", VERIFY_TOL),
        m_range=_parse_m_range(args.m_range) if getattr(args, "m_range", None) else (6, 8, 10, 12, 14),
        budget=getattr(args, "budget", 2000),
        piecewise=getattr(args, "piecewise", False),
    )


def run(cfg: RunConfig) -> int:
    handlers = {
        "simulate": _cmd_simulate,
        "solve-reduced": _cmd_solve_reduced,
        "solve-discrete": _cmd_solve_discrete,
        "verify": _cmd_verify,
        "convergence": _cmd_convergence,
    }
    return handlers[cfg.command](cfg)


def _attach_negative_controls(argv: list[str]) -> list[str]:
    """Spell `--control -3.37,-1.685` as `--control=-3.37,-1.685`: argparse takes a
    value like that (not one plain negative number) for an option, and stops."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--control" and re.match(r"-[\d.]", tok):
            out[-1] = f"--control={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_attach_negative_controls(argv))
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    try:
        return run(config_from_args(args))
    except (ProjectionError, np.linalg.LinAlgError) as exc:  # before ValueError: LinAlgError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # usage, scenario-file and input errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
