"""Outside-in span trace of halfscat's layers.

``Recorder.install`` wraps the layer functions named in ``TARGETS`` in every
``halfscat`` module namespace that bound them, so calls made through
``from .solver import solve_scattered`` are seen as well.  Spans stay in
memory and are written once, when the operation ends.  ``layer_metrics``
turns one operation's spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np


def _panels(args, kwargs, result):
    return {"panels": args[0].n_panels}


def _result_panels(args, kwargs, result):
    return {"panels": result.n_panels}


def _pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _kernel_evals(args, kwargs, result):
    # direct and image phase for every (direction, panel) pair
    shape = np.broadcast_shapes(np.shape(args[1])[:-1], np.shape(args[2])[:-1])
    return {"evals": 2 * int(np.prod(shape))}


def _points(args, kwargs, result):
    return {"points": int(np.asarray(args[3]).size // 3)}


def _iterations(args, kwargs, result):
    return {"iterations": int(result[1].iterations)}


# (span name, module, attribute, attributes taken from the call)
TARGETS = [
    ("scene.load", "halfscat.scene", "load_config", None),
    ("scene.load", "halfscat.scene", "build_scene", None),
    ("geometry.mesh", "halfscat.geometry", "mesh_perturbation", _result_panels),
    ("solver.get_factorization", "halfscat.solver", "get_factorization", None),
    ("solver.assemble", "halfscat.solver", "_assemble_matrix", _panels),
    ("solver.adjacency", "halfscat.solver", "_vertex_adjacency", _pairs),
    ("solver.near_quad", "halfscat.solver", "_closest_points_on_triangles", None),
    ("solver.near_quad", "halfscat.solver", "_graded_leaves", None),
    ("solver.lu", "scipy.linalg", "lu_factor", None),
    ("solver.gecon", "halfscat.solver", "_condition_estimate", None),
    ("solver.solve", "halfscat.solver", "solve_scattered", None),
    ("solver.lu_solve", "scipy.linalg", "lu_solve", None),
    ("incident.rhs", "halfscat.solver", "_right_hand_side", None),
    ("solver.farfield", "halfscat.solver", "eval_farfield", None),
    ("kernels.farfield", "halfscat.kernels", "farfield_kernel", _kernel_evals),
    ("kernels.farfield", "halfscat.kernels", "farfield_kernel_grad_y", _kernel_evals),
    ("solver.scattered", "halfscat.solver", "eval_scattered", _points),
    ("identities.mixed_reciprocity", "halfscat.identities", "check_mixed_reciprocity", None),
    ("identities.point_symmetry", "halfscat.identities", "check_point_symmetry", None),
    ("identities.reflected_farfield", "halfscat.identities", "check_reflected_farfield", None),
    ("inverse.forward_map", "halfscat.inverse", "forward_map", None),
    ("inverse.invert_profile", "halfscat.inverse", "invert_profile", _iterations),
    ("util.parallel_map", "halfscat.util", "parallel_map", None),
    ("cli.export", "halfscat.geometry", "export_mesh_csv", None),
    ("cli.export", "halfscat.solver", "export_farfield_csv", None),
    ("cli.export", "halfscat.solver", "export_density_csv", None),
    ("cli.export", "halfscat.inverse", "export_indicator_csv", None),
    ("cli.export", "halfscat.inverse", "export_inversion_trace_csv", None),
    ("cli.export", "halfscat.cli", "_write_jsonl", None),
]


class Recorder:
    """Span recorder: one stack of open spans per thread."""

    def __init__(self):
        self.spans = []  # [name, parent, t0, t1, attrs]
        self.unwrapped = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, stack[-1] if stack else None, time.perf_counter(), None, None])
        stack.append(sid)
        return sid

    def _close(self, sid: int, attrs) -> None:
        self._stack().pop()
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[4] = attrs

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a finished top-level span measured by the caller."""
        with self._lock:
            self.spans.append([name, None, t0, t1, None])

    def wrap(self, name: str, fn, attrs=None):
        adopt = name == "util.parallel_map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            info = None
            try:
                if adopt and len(args) >= 2:
                    items = list(args[1])
                    info = {"items": len(items)}
                    args = (self._adopted(args[0], sid), items) + args[2:]
                result = fn(*args, **kwargs)
                if attrs is not None:
                    info = self._attrs(name, attrs, args, kwargs, result)
                return result
            finally:
                self._close(sid, info)

        return wrapper

    def _attrs(self, name: str, attrs, args, kwargs, result):
        """Span attributes; a call shape the attribute function does not know
        is reported as unwrapped instead of failing the traced program."""
        try:
            return attrs(args, kwargs, result)
        except (IndexError, TypeError, AttributeError):
            if f"{name} attributes" not in self.unwrapped:
                self.unwrapped.append(f"{name} attributes")
            return None

    def _adopted(self, fn, parent: int):
        """fn, run with ``parent`` as the open span of whichever worker thread
        calls it."""

        def run(item):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()

        return run

    def install(self) -> None:
        """Wrap every target in each module namespace that holds it."""
        for name, module, attr, attrs in TARGETS:
            mod = sys.modules.get(module)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.unwrapped.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(name, orig, attrs)
            for mod_name, m in list(sys.modules.items()):
                if m is None or not (mod_name == module or mod_name.startswith("halfscat")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "unwrapped": self.unwrapped}, fh)


# ---------------------------------------------------------------------------
# aggregation (benchmark side)

def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for i, s in enumerate(spans):
            if s[1] is not None:
                self.children.setdefault(s[1], []).append(i)

    def named(self, *names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def dur(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i: int) -> float:
        """Duration minus the part of it that child spans cover."""
        t0, t1 = self.spans[i][2:4]
        kids = [(max(self.spans[c][2], t0), min(self.spans[c][3], t1))
                for c in self.children.get(i, [])]
        return self.dur(i) - _union_length(kids)

    def ancestors(self, i: int):
        p = self.spans[i][1]
        while p is not None:
            yield p
            p = self.spans[p][1]

    def inclusive(self, *names) -> float:
        """Busy time of the named spans; a span nested in another of the same
        names is not counted twice."""
        return sum(self.dur(i) for i in self.named(*names)
                   if not any(self.spans[a][0] in names for a in self.ancestors(i)))

    def descendants(self, i: int, name: str) -> list[int]:
        found, todo = [], list(self.children.get(i, []))
        while todo:
            c = todo.pop()
            if self.spans[c][0] == name:
                found.append(c)
            todo.extend(self.children.get(c, []))
        return found

    def attr(self, i: int, key: str):
        return (self.spans[i][4] or {}).get(key, 0)

    def attr_sum(self, name: str, key: str) -> int:
        return sum(self.attr(i, key) for i in self.named(name))


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metric values of one traced operation (without the
    benchmark-level ones such as trace.overhead_s)."""
    t = SpanTree(trace["spans"])
    factor_calls = t.named("solver.get_factorization")
    builds = sum(1 for i in factor_calls if t.descendants(i, "solver.assemble"))
    kernel_evals = 0
    for i in t.named("solver.assemble"):
        pairs = sum(t.attr(c, "pairs") for c in t.descendants(i, "solver.adjacency"))
        kernel_evals += 2 * (t.attr(i, "panels") ** 2 + 21 * pairs)
    assemble_s = sum(t.self_time(i) for i in t.named("solver.assemble"))
    n_max = max((t.attr(i, "panels") for i in t.named("solver.assemble")), default=0)
    top = [i for i, s in enumerate(t.spans) if s[1] is None]
    return {
        "cli.import_s": t.inclusive("cli.import"),
        "scene.load_s": t.inclusive("scene.load"),
        "geometry.mesh_s": t.inclusive("geometry.mesh"),
        "geometry.mesh_calls": len(t.named("geometry.mesh")),
        "solver.factor_builds": builds,
        "solver.factor_hits": len(factor_calls) - builds,
        "solver.factor_hit_ratio": (len(factor_calls) - builds) / max(len(factor_calls), 1),
        "solver.assemble_s": assemble_s,
        "solver.adjacency_s": t.inclusive("solver.adjacency"),
        "solver.near_quad_s": t.inclusive("solver.near_quad"),
        "solver.kernel_evals": kernel_evals,
        "solver.assemble_evals_per_s": kernel_evals / assemble_s if assemble_s > 0 else 0.0,
        "solver.lu_s": t.inclusive("solver.lu"),
        "solver.gecon_s": t.inclusive("solver.gecon"),
        "solver.factor_mb": 32 * n_max**2 / 2**20,
        "solver.panels_max": n_max,
        "solver.solve_calls": len(t.named("solver.solve")),
        "solver.solve_self_s": sum(t.self_time(i) for i in t.named("solver.solve")),
        "solver.lu_solve_s": t.inclusive("solver.lu_solve"),
        "incident.rhs_s": t.inclusive("incident.rhs"),
        "solver.farfield_s": t.inclusive("solver.farfield"),
        "solver.farfield_calls": len(t.named("solver.farfield")),
        "kernels.farfield_s": t.inclusive("kernels.farfield"),
        "kernels.farfield_evals": t.attr_sum("kernels.farfield", "evals"),
        "solver.scattered_s": t.inclusive("solver.scattered"),
        "solver.scattered_points": t.attr_sum("solver.scattered", "points"),
        "identities.mixed_reciprocity_s": t.inclusive("identities.mixed_reciprocity"),
        "identities.point_symmetry_s": t.inclusive("identities.point_symmetry"),
        "identities.reflected_farfield_s": t.inclusive("identities.reflected_farfield"),
        "inverse.forward_map_s": t.inclusive("inverse.forward_map"),
        "inverse.forward_map_calls": len(t.named("inverse.forward_map")),
        "inverse.gn_iterations": t.attr_sum("inverse.invert_profile", "iterations"),
        "util.parallel_map_s": t.inclusive("util.parallel_map"),
        "util.parallel_map_items": t.attr_sum("util.parallel_map", "items"),
        "cli.export_s": t.inclusive("cli.export"),
        "trace.top_share": sum(t.dur(i) for i in top) / wall_s,
        "trace.assembly_lu_share": (t.inclusive("solver.assemble") + t.inclusive("solver.lu"))
        / wall_s,
        "trace.farfield_share": t.inclusive("solver.farfield") / wall_s,
        "trace.spans": len(t.spans),
        "trace.unwrapped": len(trace["unwrapped"]),
    }
