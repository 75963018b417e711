"""Command-line front end: simulate, solve-reduced, solve-discrete, verify, convergence."""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .models import Scenario, load_scenario
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
    Trajectory,
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


def _mesh_exp(text: str | int) -> int:
    """A dyadic mesh exponent, an integer in MESH_EXP_RANGE."""
    lo, hi = MESH_EXP_RANGE
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
    if not lo <= m <= hi:
        raise argparse.ArgumentTypeError(f"mesh exponents must be in [{lo}, {hi}], got {m}")
    return m


def _m_range(text: str) -> tuple[int, ...]:
    """'lo:hi[:step]' (step 2 by default) or a list of mesh exponents; at least one."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) > 3:
                raise argparse.ArgumentTypeError(f"expected at most three fields 'lo:hi:step', got '{text}'")
            lo, hi = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 2
            ms = range(lo, hi + 1, step)
        else:
            ms = [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi[:step]' or a list, got '{text}'") from None
    if not ms:
        raise argparse.ArgumentTypeError(f"'{text}' is empty: give at least one mesh exponent")
    return tuple(_mesh_exp(m) for m in ms)


def _tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got '{text}'") from None
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {tol}")
    return tol


def _control(text: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected numbers, got '{text}'")
    return np.array(values)


def _load_control(args: argparse.Namespace, scn, mesh: Mesh) -> ControlSignal:
    if args.control is not None:
        return ControlSignal.constant(mesh, args.control)
    if args.control_file is not None:
        rows = []
        for lineno, line in enumerate(args.control_file.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                rows.append([float(tok) for tok in stripped.replace(",", " ").split()])
            except ValueError as exc:
                raise UsageError(f"{args.control_file}: line {lineno}: expected numbers") from exc
            if len(rows[-1]) != scn.control_set.dim:
                width = f"row of width {len(rows[-1])}, the control set width {scn.control_set.dim}"
                raise UsageError(f"{args.control_file}: line {lineno}: {width}")
        if not rows:
            raise UsageError(f"{args.control_file}: holds no control rows")
        if len(rows) != mesh.intervals:
            raise UsageError(f"{args.control_file}: control row count {len(rows)}, the mesh at m = {mesh.m} "
                             f"has {mesh.intervals} intervals")
        return ControlSignal(mesh, np.array(rows))
    raise UsageError("this command needs --control or --control-file")


def _check_out(out: Path) -> None:
    """Reject, before any work, an --out at or below an existing file; `_write` makes the directory."""
    existing = out if out.exists() else next((path for path in out.parents if path.exists()), None)
    if existing is not None and not existing.is_dir():
        raise UsageError(f"--out {out}: {existing} exists and is not a directory")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_trajectory(out: Path, scn: Scenario, traj: Trajectory, u: ControlSignal) -> None:
    """out/trajectory.csv: the nodes of `traj`, the control u and the multipliers recovered from both."""
    prof = recover_eta(scn, traj, u)
    _write(out / "trajectory.csv", trajectory_csv(traj.times, traj.nodes, u.values, prof.values, prof.terminal))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace, scn: Scenario) -> int:
    u = _load_control(args, scn, Mesh(scn.horizon, args.mesh_exp))
    traj = simulate(scn, u)
    _write_trajectory(args.out, scn, traj, u)
    print(f"cost = {cost(traj):.12g}")
    print(f"trajectory written to {args.out / 'trajectory.csv'}")
    return 0


def _solution_text(sol: ReducedSolution) -> str:
    lines = ["reduced solution", "================"]
    lines.append(f"control           = {np.round(sol.control, 12).tolist()}")
    lines.append(
        "contact schedule  = "
        + ", ".join(f"(t={t:.6g}, row={j + 1})" for t, j in sol.contact_schedule)
    )
    cert = sol.certificate
    for k in range(cert.eta.values.shape[0]):
        a, b = cert.eta.times[k], cert.eta.times[k + 1]
        lines.append(f"eta on [{a:.6g}, {b:.6g})  = {np.round(cert.eta.values[k], 12).tolist()}")
    lines.append(f"eta at T          = {np.round(cert.eta_terminal, 12).tolist()}")
    lines.append(f"cost              = {sol.cost:.12g}")
    if sol.reduced_cost is not None:
        a, b, c = sol.reduced_cost
        lines.append(f"reduced cost J(r) = {a:.10g} r^2 + {b:.10g} r + {c:.10g}")
    lines.append("")
    lines.append("certificate")
    lines.append("-----------")
    lines.append(f"lambda = {cert.lam:g}")
    lines.append(f"q(0)   = {np.round(cert.q.values[0], 12).tolist()}")
    lines.append(f"p(T)   = {np.round(cert.p.values[-1], 12).tolist()}")
    for t, v in cert.gamma_atoms:
        lines.append(f"gamma atom at t={t:.6g}: {np.round(v, 12).tolist()}")
    if sol.contact_schedule:
        t_first = sol.contact_schedule[-1][0]
        lines.append(
            f"gamma([t1, T])    = {np.round(cert.gamma_tail(t_first), 12).tolist()}"
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
    etas = sol.certificate.eta.value(0.5 * (times[:-1] + times[1:]))
    return trajectory_csv(times, states, controls, etas, sol.certificate.eta_terminal)


def _cmd_solve_reduced(args: argparse.Namespace, scn: Scenario) -> int:
    sol = solve_reduced(scn)
    mesh = Mesh(scn.horizon, args.mesh_exp)
    _write(args.out / "solution.txt", _solution_text(sol))
    _write(args.out / "trajectory.csv", _solution_csv(sol, mesh))
    save_certificate(sol.certificate, args.out / "certificate.json")
    payload = {
        "control": sol.control.tolist(),
        "contact_schedule": [[t, j] for t, j in sol.contact_schedule],
        "cost": sol.cost,
        "report": sol.report,
        "recommended_tol": sol.recommended_tol,
        "verification_passed": sol.verification.passed,
    }
    _write(args.out / "solution.json", json.dumps(payload, indent=2) + "\n")
    print(f"control = {np.round(sol.control, 6).tolist()}")
    for t, j in sol.contact_schedule:
        print(f"t{j + 1} = {t:.6g} (row {j + 1})")
    print(f"cost = {sol.cost:.12g}")
    print(f"verification: {'PASS' if sol.verification.passed else 'FAIL'}")
    print(f"artifacts written to {args.out}")
    return 0 if sol.verification.passed else 1


def _cmd_solve_discrete(args: argparse.Namespace, scn: Scenario) -> int:
    reference = None
    try:
        red = solve_reduced(scn)
        reference = (red.path, red.control)
    except UnsupportedScenarioError:
        red = None
    sol = solve_discrete(
        scn,
        args.mesh_exp,
        budget=args.budget,
        piecewise=args.piecewise,
        reference=reference,
    )
    _write_trajectory(args.out, scn, sol.trajectory, sol.control)
    lines = [
        "discrete solution",
        "=================",
        f"mesh exponent = {args.mesh_exp} (h = {sol.mesh.h:.6g})",
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
    _write(args.out / "solution.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    if not sol.converged:
        print("warning: search budget exhausted before convergence", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace, scn: Scenario) -> int:
    cert = load_certificate(args.certificate)
    data = read_trajectory_csv(args.trajectory.read_text())
    path = PiecewisePath(data["times"], data["states"])
    if "controls" in data:
        if args.control is not None:
            raise UsageError(f"--control: the trajectory CSV {args.trajectory} already has control columns")
        u = StepFunction(data["times"], data["controls"][:-1])
    elif args.control is not None:
        u = StepFunction.constant(path.horizon, args.control)
    else:
        raise UsageError("verify needs control columns in the CSV or --control")
    report = verify_certificate(scn, path, u, cert, tol=args.tol)
    text = report.to_text()
    _write(args.out / "report.txt", text + "\n")
    print(text)
    return 0 if report.passed else 1


def _cmd_convergence(args: argparse.Namespace, scn: Scenario) -> int:
    if args.control is not None:  # the reference endpoint: two mesh levels past the finest
        u_const = args.control
        fine = simulate(scn, ControlSignal.constant(Mesh(scn.horizon, max(args.m_range) + 2), u_const))
        ref_terminal = fine.terminal
    else:
        red = solve_reduced(scn)
        u_const, ref_terminal = red.control, red.simulation_path.terminal
    header = f"{'m':>3} {'J_m':>18} {'endpoint_error':>18}"
    rows = [header]
    csv_lines = ["m,J_m,endpoint_error"]
    for m in args.m_range:
        traj = simulate(scn, ControlSignal.constant(Mesh(scn.horizon, m), u_const))
        jm, err = cost(traj), float(np.linalg.norm(traj.terminal - ref_terminal))
        rows.append(f"{m:>3} {jm:>18.12g} {err:>18.12g}")
        csv_lines.append(f"{m},{jm:.12g},{err:.12g}")
    text = "\n".join(rows)
    _write(args.out / "convergence.csv", "\n".join(csv_lines) + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call; parsing leaves it unchanged.

    It is the only description of the command line: each subcommand declares
    exactly the options its handler reads, with each default stated once, and
    the `type=` converters reject a bad value (exit 2, naming the option).
    """
    ap = argparse.ArgumentParser(
        prog="sweepctrl",
        description="Controlled sweeping processes: simulate, solve, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("scenario", type=Path, help="scenario file (key = value text)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        return p

    def mesh_exp(p):
        lo, hi = MESH_EXP_RANGE
        p.add_argument("--mesh-exp", type=_mesh_exp, default=12, help=f"dyadic mesh exponent m ({lo}..{hi})")

    def control(p):
        p.add_argument("--control", type=_control, help="inline constant control, e.g. '1.8,1.8'")

    p_sim = command("simulate", _cmd_simulate, "catch-up simulation under a given control")
    mesh_exp(p_sim)
    given = p_sim.add_mutually_exclusive_group()
    control(given)
    given.add_argument("--control-file", type=Path, help="per-interval control rows")

    mesh_exp(command("solve-reduced", _cmd_solve_reduced, "closed-form template solution with certificate"))

    p_dis = command("solve-discrete", _cmd_solve_discrete, "direct search on the discrete problem")
    mesh_exp(p_dis)
    p_dis.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="hard cap on the search's cost evaluations; a repeated control is looked up, not simulated",
    )
    p_dis.add_argument("--piecewise", action="store_true", help="refine the constant optimum per interval")

    p_ver = command("verify", _cmd_verify, "check a certificate against a trajectory")
    control(p_ver)
    p_ver.add_argument("--certificate", type=Path, required=True)
    p_ver.add_argument("--trajectory", type=Path, required=True)
    p_ver.add_argument("--tol", type=_tol, default=VERIFY_TOL, help="verification tolerance")

    p_con = command("convergence", _cmd_convergence, "mesh-refinement table at a fixed control")
    control(p_con)
    p_con.add_argument("--m-range", type=_m_range, default="6:14:2", help="'lo:hi[:step]' or list")
    return ap


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
        _check_out(args.out)
        return args.handler(args, load_scenario(args.scenario))
    except (ProjectionError, np.linalg.LinAlgError) as exc:  # before ValueError: LinAlgError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # usage and input errors subclass ValueError; OSError is a bad path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
