"""In-memory spans recorded by the benchmark's own wrappers around the library.

A span has a name, a start, an end and a parent.  `install` replaces each
traced function at every name that binds it: the defining module, the
modules that imported it with `from ... import` (optimizer's `simulate`,
cli's `verify_certificate`, the package namespace) and, for methods, the
class.  `uninstall` puts the originals back.  Nothing inside the library
changes, so an untraced run measures the library exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

import sweepctrl
from sweepctrl import cli, models, optimality, optimizer, polyhedra, sweeping

MODULES = (sweepctrl, polyhedra, models, sweeping, optimality, optimizer, cli)

# (owner, attribute) of every traced callable; the layer is the module that defines it.
TRACED = (
    (polyhedra, "contains"),
    (polyhedra, "active_set"),
    (polyhedra, "project"),
    (polyhedra, "project_with_working_set"),
    (polyhedra, "project_raw"),
    (polyhedra, "decompose_normal"),
    (polyhedra, "decompose_on_rows"),
    (polyhedra, "check_licq"),
    (models, "parse_scenario_text"),
    (models, "load_scenario"),
    (models.RobotScenario, "contact_rows"),
    (models.PedestrianScenario, "contact_rows"),
    (models.RobotScenario, "g"),
    (models.PedestrianScenario, "g"),
    (models.ControlSet, "violation_message"),
    (sweeping, "simulate"),
    (sweeping, "recover_eta"),
    (sweeping, "trajectory_csv"),
    (sweeping, "read_trajectory_csv"),
    (sweeping, "cost"),
    (sweeping, "catchup_step"),
    (sweeping, "contact_times"),
    (optimality, "verify_certificate"),
    (optimality, "save_certificate"),
    (optimality, "load_certificate"),
    (optimizer, "solve_reduced"),
    (optimizer, "solve_discrete"),
    (optimizer, "sample_path"),
    (cli, "main"),
)

# Spans of these functions keep their arguments and result, from which the
# benchmark derives input properties after the traced task has ended.
KEEP_PAYLOAD = {
    "sweeping.simulate",
    "sweeping.recover_eta",
    "polyhedra.project",
    "optimality.verify_certificate",
    "optimizer.solve_discrete",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span store: parallel typed arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[str, int] = {}
        self.payloads: list[tuple[int, str, tuple, dict, object]] = []
        self._stack: list[int] = []
        self.active = True

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.intern(name))
        try:
            yield sid
        finally:
            self.close(sid)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) record no spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        keep = name in KEEP_PAYLOAD
        layer = layer_of(name)
        errors = self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, where it leaves the layer it was raised in.
                pid = self.parent[sid]
                if pid < 0 or layer_of(self.names[self.name_id[pid]]) != layer:
                    key = f"{name}:{type(exc).__name__}"
                    errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                self.close(sid)
            if keep:
                self.payloads.append((sid, name, args, kwargs, result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _qualname(owner, attr: str) -> str:
    module = owner if isinstance(owner, type(sys)) else sys.modules[owner.__module__]
    base = module.__name__.rsplit(".", 1)[-1]
    return f"{base}.{attr}" if module is owner else f"{base}.{owner.__name__}.{attr}"


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every TRACED callable at all the names that bind it; returns the undo list."""
    undo = []
    for owner, attr in TRACED:
        original = getattr(owner, attr)
        traced = tracer.wrap(original, _qualname(owner, attr))
        setattr(owner, attr, traced)
        undo.append((owner, attr, original))
        if isinstance(owner, type):
            continue
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    undo.append((module, key, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def tracing(tracer: Tracer):
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the part of its interval that its children cover."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent)
    out = (end - start).astype(np.int64)
    children: dict[int, list[int]] = {}
    for sid in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[sid]), []).append(int(sid))
    for pid, kids in children.items():
        lo, hi = int(start[pid]), int(end[pid])
        covered = 0
        cur_a = cur_b = None
        for a, b in sorted((max(int(start[k]), lo), min(int(end[k]), hi)) for k in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[pid] -= covered
    return out


def layer_entries(names: list[str], name_id: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Mask of spans that enter a layer from outside it (parent in another layer or none)."""
    layers = np.array([layer_of(n) for n in names])
    span_layer = layers[name_id]
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], "")
    return span_layer != parent_layer
