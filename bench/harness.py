"""Closed-loop runner, metric derivation and environment record of the benchmark.

An untraced run gives the end-to-end metrics.  A traced run runs every task
twice, untraced and with the span wrappers installed; it checks that both
produce the same outputs, derives the per-layer metrics from the spans of
the traced runs, and reports their extra loop time as the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scipy
import sweepctrl
from sweepctrl import optimality
from sweepctrl.models import CONTACT_TOL, PedestrianScenario

import spans
import workloads

SETUP_LAUNCHES = 5

# End-to-end metrics: (name, unit).  The result line carries set-up time,
# memory, and task latency and throughput in reference-kernel units ("ref",
# see `reference_seconds`), which stay steady while the box's CPU speed
# changes.  The table adds the same figures in seconds, which is what a user
# waits, the kernel time itself, and three figures that apply to some
# workloads only or are 0 on a correct run.
E2E = (
    ("setup_s", "s"),
    ("task_p50_ref", "ref"),
    ("task_tail_ref", "ref"),
    ("tasks_per_kref", "1/kref"),
    ("peak_rss_mb", "MB"),
)
E2E_TABLE_ONLY = (
    ("tasks_per_s", "1/s"),
    ("task_ms_p50", "ms"),
    ("task_ms_tail", "ms"),
    ("steps_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("cost_gap_rel", "ratio"),
    ("ref_ms", "ms"),
)

LAYERS = ("polyhedra", "models", "sweeping", "optimality", "optimizer", "cli")

# Per-layer metrics in the result line: counts and shares, defined on every
# workload (0 where the workload does not enter the layer).
PER_LAYER = (
    ("polyhedra.calls", "1/task"),
    ("polyhedra.errors", "count"),
    ("polyhedra.noop_frac", "ratio"),
    ("polyhedra.active_rows_mean", "rows"),
    ("models.contact_rows_calls", "1/task"),
    ("sweeping.simulate_calls", "1/task"),
    ("sweeping.steps", "1/task"),
    ("sweeping.const_run_frac", "ratio"),
    ("sweeping.contact_step_frac", "ratio"),
    ("optimality.verify_calls", "1/task"),
    ("optimality.grid_intervals", "1/call"),
    ("optimizer.evals_per_task", "1/task"),
    ("optimizer.improving_frac", "ratio"),
    ("cli.bytes_written", "B/task"),
    *((f"{layer}.self_frac", "ratio") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
)
# Per-layer times, printed in the traced table and kept in the result file.
# They are not in the result line: a layer a workload never enters has no
# time there, and a time that reads 0 on every run is not a measurement.
PER_LAYER_TIMES = (
    ("polyhedra.project_cold_us", "us"),
    ("polyhedra.project_warm_us", "us"),
    ("polyhedra.decompose_us", "us"),
    ("models.parse_us", "us"),
    ("sweeping.us_per_step", "us"),
    ("sweeping.recover_eta_us_per_step", "us"),
    ("sweeping.csv_s", "s/task"),
    ("optimality.us_per_interval", "us"),
    ("optimality.certificate_io_s", "s/task"),
    ("optimizer.solve_reduced_ms", "ms"),
    *((f"{layer}.self_s", "s/task") for layer in LAYERS),
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'none' when it is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "sweepctrl").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sweepctrl": sweepctrl.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


# ---------------------------------------------------------------------------
# Set-up time: fresh processes that import the package and parse the inputs
# ---------------------------------------------------------------------------


def measure_setup(root: Path, workload: str, seed: int, launches: int) -> list[float]:
    payload = json.dumps(workloads.setup_payload(workload, seed)).encode()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py"))]
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run(probe, input=payload, env=env, cwd=root, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up launch failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return times


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


_REF_A = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
_REF_C = np.array([-1.0, -1.0, -1.0])
_REF_G = np.array([3.0, 2.0, 1.0, 0.5])


def reference_seconds() -> float:
    """Time of a fixed piece of work shaped like the library's own.

    A catch-up loop on a small chain (matrix products, a violated-row
    solve), CSV formatting and a dictionary pass, all in this file so that
    no change to the package can change it.  The benchmark runs it after
    every task.  The CPU speed of a shared box changes from second to
    second and reaches this kernel and the task before it alike, so their
    ratio compares across runs made at other times.
    """
    t0 = time.perf_counter()
    x = np.array([0.0, 2.0, 4.0, 6.0])
    rows = []
    for _ in range(300):
        y = x + 0.01 * _REF_G
        viol = _REF_A @ y - _REF_C
        V = np.flatnonzero(viol > 1e-12)
        if V.size:
            AV = _REF_A[V]
            y = y - AV.T @ np.linalg.solve(AV @ AV.T, viol[V])
        x = y
        rows.append(",".join(f"{v:.12g}" for v in x))
    index = {line: k for k, line in enumerate("\n".join(rows).splitlines())}
    if len(index) != len(rows):
        raise RuntimeError("reference kernel produced repeated rows")
    return time.perf_counter() - t0


@dataclass
class Pass:
    """Tasks of one timed pass, in order."""

    latencies: list = field(default_factory=list)  # seconds, program calls only
    refs: list = field(default_factory=list)  # reference kernel seconds, one right after each task
    digests: list = field(default_factory=list)
    steps: int = 0
    busy: float = 0.0  # wall time of the pass without input generation, kernel and checks
    failures: list = field(default_factory=list)
    failed_tasks: int = 0
    cost_gaps: list = field(default_factory=list)
    bytes_written: int = 0


def _one(workload: str, inp: dict, workdir: Path, p: Pass, tracer=None) -> None:
    """Run one task and time the reference kernel after it, then check the outputs."""
    prepare = workloads.PREPARE.get(workload)
    t_prep = time.perf_counter()
    if prepare:
        prepare(inp, workdir)
    t0 = time.perf_counter()
    res = err = None
    try:
        if tracer is None:
            res = workloads.RUNNERS[workload](inp, workdir)
        else:
            with tracer.span("bench.task"):
                res = workloads.RUNNERS[workload](inp, workdir)
    except Exception as exc:  # a task that raises counts as failed; the loop goes on
        err = f"{workload}: task raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    p.latencies.append(t1 - t0)
    p.refs.append(reference_seconds())
    if err is None:
        if tracer is None:
            fails = workloads.CHECKS[workload](inp, res)
        else:
            with tracer.paused():
                fails = workloads.CHECKS[workload](inp, res)
        p.digests.append(res.digest)
        p.steps += res.steps
        if workload == "search":
            p.cost_gaps += workloads.cost_gaps(res)
        if workload == "certify":
            p.bytes_written += sum(out["bytes"] for out in res.output)
    else:
        fails = [err]
        p.digests.append(None)
    if fails:
        p.failed_tasks += 1
        p.failures.extend(fails)
    p.busy -= (t0 - t_prep) + (time.perf_counter() - t1)


def run_pass(workload: str, inputs, workdir: Path, seconds: float | None, tracer=None,
             on_task=None, p: Pass | None = None) -> Pass:
    """Tasks back to back until `seconds` of wall time have passed (or `inputs` run out).

    `busy` leaves out input generation, file preparation and output checks.
    Passing `p` extends an earlier pass.
    """
    p = Pass() if p is None else p
    it = iter(inputs)
    start = time.perf_counter()
    while seconds is None or time.perf_counter() - start < seconds:
        t_gen = time.perf_counter()
        inp = next(it, None)
        if inp is None:
            break
        p.busy -= time.perf_counter() - t_gen
        _one(workload, inp, workdir, p, tracer)
        if on_task is not None:
            t_drain = time.perf_counter()
            on_task()
            p.busy -= time.perf_counter() - t_drain
    p.busy += time.perf_counter() - start
    return p


def run_paired(workload: str, seed: int, workdir: Path, seconds: float):
    """Each task run untraced and traced, in alternating order.

    Running the same input side by side keeps drift of the machine out of
    the tracing overhead; alternating which side runs first cancels any
    benefit the second run of an input draws from the first.
    """
    untraced, traced = Pass(), Pass()
    tracer = spans.Tracer()
    props = Properties()
    start = time.perf_counter()
    for k, inp in enumerate(workloads.task_inputs(workload, seed)):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with spans.tracing(tracer):
                    run_pass(workload, [inp], workdir, None, tracer, lambda: props.drain(tracer), traced)
            else:
                run_pass(workload, [inp], workdir, None, p=untraced)
        if time.perf_counter() - start >= seconds:
            break
    return untraced, traced, tracer, props


def warm_up(workload: str, seed: int, workdir: Path) -> None:
    """One untimed task from a separate input stream: lazy imports and first-call costs."""
    inp = next(workloads.task_inputs(workload, seed, stream=1))
    _one(workload, inp, workdir, Pass())


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten tasks above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def e2e_metrics(p: Pass, setup: list[float]) -> tuple[dict, dict]:
    n = len(p.latencies)
    pct, tail_s = tail(p.latencies)
    # Each task over the kernel time right after it: the machine's speed of
    # that moment cancels, which the ratio of two run-wide medians misses.
    rel = [lat / ref for lat, ref in zip(p.latencies, p.refs)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "setup_s": statistics.median(setup),
        "task_p50_ref": statistics.median(rel),
        "task_tail_ref": tail(rel)[1],
        "tasks_per_kref": 1e3 * n / sum(rel),
        "peak_rss_mb": rss_kb / 1024.0,
        "tasks_per_s": n / p.busy,
        "task_ms_p50": 1e3 * statistics.median(p.latencies),
        "task_ms_tail": 1e3 * tail_s,
        "steps_per_s": p.steps / p.busy if p.steps else None,
        "failed_frac": p.failed_tasks / n,
        "cost_gap_rel": max(p.cost_gaps) if p.cost_gaps else None,
        "ref_ms": 1e3 * statistics.median(p.refs),
    }
    info = {"tasks": n, "tail_percentile": round(pct, 2), "setup_launches": [round(t, 6) for t in setup]}
    return m, info


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced replay
# ---------------------------------------------------------------------------


class Properties:
    """Input properties counted from the inputs and outputs the wrappers saw."""

    def __init__(self):
        self.steps = 0
        self.const_steps = 0
        self.contact_steps = 0
        self.projections = 0
        self.noop = 0
        self.active_rows = 0
        self.evals = 0
        self.improving = 0
        self.discrete_evals = 0
        self.verify_grid = 0
        self.recover_intervals = 0
        self.project_kinds: list[tuple[int, bool]] = []  # (span id, warm start given)

    def add_simulation(self, scn, u, traj) -> None:
        """Catch-up steps: which moved the free step (a projection), active rows, constant runs."""
        nodes = traj.nodes
        h = u.mesh.h
        if isinstance(scn, PedestrianScenario):
            drive = u.values * scn.speeds
            gaps = np.diff(nodes, axis=1) - 2.0 * scn.R
        else:
            if scn.angles_post is not None:
                raise ValueError("heading switches are outside the benchmark's scenarios")
            su = u.values * scn.speeds
            drive = np.empty((su.shape[0], 2 * scn.n))
            drive[:, 0::2] = su * np.cos(scn.angles)
            drive[:, 1::2] = su * np.sin(scn.angles)
            P = nodes.reshape(nodes.shape[0], scn.n, 2)
            i, j = np.triu_indices(scn.n, 1)
            gaps = np.linalg.norm(P[:, i] - P[:, j], axis=2) - 2.0 * scn.R
        free = nodes[:-1] + h * drive
        scale = np.maximum(1.0, np.max(np.abs(nodes[1:]), axis=1))
        moved = np.max(np.abs(nodes[1:] - free), axis=1) > 1e-12 * scale
        active = np.abs(gaps) <= CONTACT_TOL  # (K+1, rows)
        K = u.values.shape[0]
        same_u = np.all(u.values[1:] == u.values[:-1], axis=1)
        same_set = np.all(active[2:] == active[1:-1], axis=1)
        self.steps += K
        self.const_steps += int(np.sum(same_u & same_set))
        self.contact_steps += int(np.sum(np.any(active[1:], axis=1)))
        self.projections += K
        self.noop += int(np.sum(~moved))
        self.active_rows += int(np.sum(active[1:][moved]))

    def add_projection(self, poly, y, x, tol) -> None:
        self.projections += 1
        if np.max(poly.normals @ y - poly.offsets) <= tol:
            self.noop += 1
        else:
            self.active_rows += int(np.sum(np.abs(poly.offsets - poly.normals @ x) <= tol))

    def add_search(self, costs: list[float], evaluations: int) -> None:
        # solve_discrete simulates the best control once more after the search.
        if len(costs) == evaluations + 1:
            costs = costs[:-1]
        best = np.inf
        for c in costs:
            if c < best:
                best = c
                self.improving += 1
        self.discrete_evals += len(costs)
        self.evals += evaluations

    def drain(self, tracer: spans.Tracer) -> None:
        """Fold the payloads of the task that just ended into the counts, then drop them."""
        with tracer.paused():
            self._fold(tracer)
        tracer.payloads.clear()

    def _fold(self, tracer: spans.Tracer) -> None:
        by_parent: dict[int, list[float]] = {}
        for sid, name, args, kwargs, result in tracer.payloads:
            if name == "sweeping.simulate":
                scn, u = args
                self.add_simulation(scn, u, result)
                xT = result.terminal
                by_parent.setdefault(tracer.parent[sid], []).append(0.5 * float(xT @ xT))
            elif name == "sweeping.recover_eta":
                self.recover_intervals += args[2].values.shape[0]
            elif name == "polyhedra.project":
                poly, y = args[0], args[1]
                tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-9)
                start = args[3] if len(args) > 3 else kwargs.get("feasible_start")
                self.project_kinds.append((sid, start is not None))
                self.add_projection(poly, np.asarray(y, dtype=float), result, tol)
            elif name == "optimality.verify_certificate":
                self.verify_grid += grid_intervals(*args[:4])
            elif name == "optimizer.solve_discrete":
                self.add_search(by_parent.pop(sid, []), result.evaluations)


def grid_intervals(scn, traj, u, cert) -> int:
    """Intervals of the union of all breakpoints that the optimality checks visit."""
    path = optimality.as_path(traj)
    steps = optimality.as_step_series(u, path.horizon)
    pieces = [path.times, cert.eta.times, cert.q.times, cert.p.times, steps.times,
              np.array([t for t, _ in cert.gamma_atoms])]
    grid = np.unique(np.concatenate(pieces))
    return int(np.sum((grid >= 0.0) & (grid <= path.horizon + 1e-12))) - 1


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: spans.Tracer, props: Properties, untraced: Pass, traced: Pass) -> dict:
    arr = tracer.arrays()
    names = tracer.names
    nid, parent = arr["name_id"], arr["parent"]
    dur = arr["end"] - arr["start"]
    self_ns = spans.self_times(arr["start"], arr["end"], parent)
    layer = np.array([spans.layer_of(n) for n in names])[nid] if names else np.array([])
    name = np.array(names)[nid] if names else np.array([])
    entry = spans.layer_entries(names, nid, parent)
    is_task = name == "bench.task"
    tasks = int(np.sum(is_task))
    task_ns = float(np.sum(dur[is_task]))

    def per_task(x):
        return _ratio(float(x), tasks)

    def named(*ns):
        return np.isin(name, ns)

    def median_us(mask):
        return float(np.median(dur[mask])) / 1e3 if np.any(mask) else 0.0

    m = {}
    for lay in LAYERS:
        lay_self = float(np.sum(self_ns[layer == lay]))
        m[f"{lay}.self_frac"] = _ratio(lay_self, task_ns)
        m[f"{lay}.self_s"] = per_task(lay_self / 1e9)
    cold = np.zeros(len(nid), dtype=bool)
    warm = np.zeros(len(nid), dtype=bool)
    for sid, flag in props.project_kinds:
        (warm if flag else cold)[sid] = True
    m.update({
        "polyhedra.calls": per_task(np.sum(entry & (layer == "polyhedra"))),
        "polyhedra.errors": float(sum(v for k, v in tracer.errors.items() if k.startswith("polyhedra."))),
        "polyhedra.noop_frac": _ratio(props.noop, props.projections),
        "polyhedra.active_rows_mean": _ratio(props.active_rows, props.projections - props.noop),
        "polyhedra.project_cold_us": median_us(cold),
        "polyhedra.project_warm_us": median_us(warm),
        "polyhedra.decompose_us": median_us(
            entry & named("polyhedra.decompose_normal", "polyhedra.decompose_on_rows")
        ),
        "models.parse_us": median_us(named("models.parse_scenario_text")),
        "models.contact_rows_calls": per_task(
            np.sum(named("models.RobotScenario.contact_rows", "models.PedestrianScenario.contact_rows"))
        ),
        "sweeping.simulate_calls": per_task(np.sum(named("sweeping.simulate"))),
        "sweeping.steps": per_task(props.steps),
        "sweeping.us_per_step": _ratio(float(np.sum(dur[named("sweeping.simulate")])) / 1e3, props.steps),
        "sweeping.recover_eta_us_per_step": _ratio(
            float(np.sum(dur[named("sweeping.recover_eta")])) / 1e3, props.recover_intervals
        ),
        "sweeping.csv_s": per_task(
            float(np.sum(dur[named("sweeping.trajectory_csv", "sweeping.read_trajectory_csv")])) / 1e9
        ),
        "sweeping.const_run_frac": _ratio(props.const_steps, props.steps),
        "sweeping.contact_step_frac": _ratio(props.contact_steps, props.steps),
        "optimality.verify_calls": per_task(np.sum(named("optimality.verify_certificate"))),
        "optimality.grid_intervals": _ratio(props.verify_grid, np.sum(named("optimality.verify_certificate"))),
        "optimality.us_per_interval": _ratio(
            float(np.sum(dur[named("optimality.verify_certificate")])) / 1e3, props.verify_grid
        ),
        "optimality.certificate_io_s": per_task(
            float(np.sum(dur[named("optimality.save_certificate", "optimality.load_certificate")])) / 1e9
        ),
        "optimizer.evals_per_task": per_task(props.evals),
        "optimizer.improving_frac": _ratio(props.improving, props.discrete_evals),
        "optimizer.solve_reduced_ms": median_us(named("optimizer.solve_reduced")) / 1e3,
        "cli.bytes_written": per_task(traced.bytes_written),
        "trace.overhead_frac": (traced.busy - untraced.busy) / untraced.busy,
    })
    return m


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(root: Path, out: Path, workload: str, seed: int, seconds: float, trace: bool,
        launches: int = SETUP_LAUNCHES) -> dict:
    """One benchmark run of the checkout at `root`, writing files under `out`.

    Returns the result line's fields plus the full record.
    """
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, out, workload, seed, seconds, trace, launches, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(root, out, workload, seed, seconds, trace, launches, workdir) -> dict:
    env = environment(root, workload, seed, seconds, trace)
    record = {"env": env}
    if not trace:
        setup = measure_setup(root, workload, seed, launches)
        warm_up(workload, seed, workdir)
        p = run_pass(workload, workloads.task_inputs(workload, seed), workdir, seconds)
        values, info = e2e_metrics(p, setup)
        units = dict(E2E + E2E_TABLE_ONLY)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E}
        record["table"] = {k: {"value": values[k], "unit": units[k]} for k in units}
        failures, attempted, failed = p.failures, len(p.latencies), p.failed_tasks
    else:
        warm_up(workload, seed, workdir)
        untraced, traced, tracer, props = run_paired(workload, seed, workdir, seconds)
        mismatched = sum(a != b for a, b in zip(untraced.digests, traced.digests))
        failures = untraced.failures + traced.failures
        if mismatched:
            failures.append(f"{workload}: {mismatched} traced task outputs differ from the untraced ones")
        values = layer_metrics(tracer, props, untraced, traced)
        units = dict(PER_LAYER + PER_LAYER_TIMES)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}
        record["table"] = {k: {"value": values[k], "unit": units[k]} for k in units}
        info = {"tasks": len(traced.latencies), "spans": len(tracer.start), "errors": tracer.errors}
        attempted = len(untraced.latencies) + len(traced.latencies)
        failed = untraced.failed_tasks + traced.failed_tasks + mismatched
        tracer.save(out / f"spans-{workload}.npz")  # the latest traced run of the workload
    env.update(info)
    record.update(
        {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics,
         "failures": failures[:20]}
    )
    return record
