"""Traced run: wrap fvbound's module-level functions and model methods where
their callers look them up, record one span per call, and reduce the spans to
per-layer metrics.

Spans are kept in memory as parallel lists (name id, start, end, parent, op
id, work count) and written out once at the end.  A `<layer>.self_s` metric
is the layer's exclusive time; a `<name>_s` metric is the inclusive time of
that function summed over its calls, so nested calls (entropy inside
entropy_flux, check_domain inside flux) count in both.  A wrap target that no
longer exists is reported as missing rather than failing the run, so a
refactor of fvbound does not break the traced run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

LAYERS = ("grid", "models", "riemann", "solver", "residual", "partition", "estimator", "cli")


def _cells(args, result) -> int:
    return len(args[0])


def _history_bytes(args, sol) -> int:
    return sol.states.nbytes + sum(f.nbytes for f in getattr(sol, "flux_cache", None) or [])


def _levels(args, res) -> int:
    return args[0].n_steps


def _surges(args, result) -> int:
    return len(result[0])


def _with_cone(args, result) -> int:
    # detect_jumps(sol, n, x_interval, sigma0): a cone interval marks a candidate
    return int(args[2] is not None)


# (object path, span name, work counter).  The span name's first part is the
# layer the time belongs to; several targets may share a span name.
_MODEL_METHODS = {
    "Burgers": ("flux", "wave_speeds", "max_wave_speed", "entropy", "entropy_flux",
                "in_domain", "check_domain"),
}
_MODEL_METHODS["PSystem"] = _MODEL_METHODS["Burgers"] + ("pressure", "sound_speed")
TARGETS = [
    ("fvbound.cli.main", "cli.main", None),
    ("fvbound.cli.converge", "cli.converge", None),
    ("fvbound.cli.run_case", "cli.run_case", None),
    ("fvbound.cli.streamed_fine_reference", "cli.fine_reference", None),
    ("fvbound.cli.linf_l1_error", "cli.linf_l1_error", None),
    ("fvbound.cli.write_slab_csv", "cli.write_slab_csv", None),
    ("fvbound.cli.render_decomposition_svg", "cli.render_svg", None),
    ("fvbound.cli.build_grid", "grid.build_grid", None),
    ("fvbound.solver.cfl_timestep", "grid.cfl_timestep", None),
    ("fvbound.cli.run", "solver.run", _history_bytes),
    ("fvbound.cli.march", "solver.march", None),
    ("fvbound.solver.step", "solver.step", _cells),
    ("fvbound.cli.save_solution", "solver.save", None),
    ("fvbound.solver.load_solution", "solver.load", None),
    ("fvbound.cli.error_estimator", "estimator.error_estimator", None),
    ("fvbound.estimator.epsilon", "residual.epsilon", _levels),
    ("fvbound.residual.total_variation", "residual.total_variation", None),
    ("fvbound.residual.level_residual_bounds", "residual.level_residual_bounds", None),
    ("fvbound.residual.level_entropy_triplets", "residual.level_entropy_triplets", None),
    ("fvbound.residual.ResidualReport.write_cells_csv", "residual.write_cells_csv", None),
    ("fvbound.estimator.partition_meso_slab", "partition.partition", None),
    ("fvbound.estimator.oscillation", "partition.oscillation", None),
    ("fvbound.partition.detect_surges", "partition.detect_surges", _surges),
    ("fvbound.partition.detect_jumps", "partition.detect_jumps", _with_cone),
    ("fvbound.partition.build_surge_trapezoid", "partition.build_surge_trapezoid", None),
    ("fvbound.solver.numerical_flux", "models.numerical_flux", None),
    ("fvbound.residual.numerical_entropy_flux", "models.numerical_entropy_flux", None),
    ("fvbound.cli.solve_riemann", "riemann.solve_riemann", None),
    ("fvbound.cli.cell_average_exact", "riemann.cell_average_exact", None),
] + [
    (f"fvbound.models.{cls}.{method}", f"models.{method}", None)
    for cls, methods in _MODEL_METHODS.items()
    for method in methods
]
GENERATORS = {"fvbound.cli.march"}


class Tracer:
    """Span store for one traced run; single-threaded, so one parent stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.work: list[int] = []
        self._stack = [-1]
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int32),
            "work": np.asarray(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _wrap_call(fn, tracer: Tracer, nid: int, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            tracer.work[i] = count(args, result)
        return result

    return traced


def _wrap_generator(fn, tracer: Tracer, nid: int):
    """One span per resume of the generator fn returns."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            i = tracer.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(i)
            yield item

    return traced


def _resolve(path: str):
    """(owner, attribute) for a dotted path, importing the module part."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(path)


class Instrumentation:
    """Installs the wrappers on enter and restores every original on exit."""

    def __init__(self, tracer: Tracer, targets=TARGETS, generators=GENERATORS):
        self.tracer = tracer
        self.targets = targets
        self.generators = generators
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for path, span, count in self.targets:
            try:
                owner, attr = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            own = attr in vars(owner)
            nid = self.tracer.name_id(span)
            if path in self.generators:
                wrapped = _wrap_generator(original, self.tracer, nid)
            else:
                wrapped = _wrap_call(original, self.tracer, nid, count)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
        return False


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.
    Spans of one thread nest, so children never overlap each other."""
    duration = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent],
                        minlength=len(duration))
    return duration - child


def _under(name, parent, target_id: int) -> np.ndarray:
    """Whether each span is, or descends from, a span named target_id."""
    flag = name == target_id
    has_parent = parent >= 0
    up = np.maximum(parent, 0)
    while True:
        grown = flag | (has_parent & flag[up])
        if np.array_equal(grown, flag):
            return flag
        flag = grown


def layer_metrics(tracer: Tracer, op_walls: dict[int, float], untraced_walls: list[float],
                  missing: list[str], output_bytes: dict[int, int]) -> dict:
    """Per-op means of the per-layer metrics over the traced ops.

    op_walls maps the id of every op the tracer recorded to its wall time;
    untraced_walls are the wall times of the untraced ops of the same run.
    """
    a = tracer.arrays()
    ops = sorted(op_walls)
    n_ops = len(ops)
    name, start, end, parent, work = (a[k] for k in ("name", "start", "end", "parent", "work"))
    duration = end - start
    own = self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(span):
        return name == ids.get(span, -1)

    def total(span):
        return float(duration[sel(span)].sum()) / n_ops

    def calls(span):
        return int(sel(span).sum()) / n_ops

    def worked(span):
        return int(work[sel(span)].sum()) / n_ops

    def ratio(a_, b_):
        return a_ / b_ if b_ else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        prefix = layer + "."
        in_layer = np.array([n.startswith(prefix) for n in tracer.names], dtype=bool)
        mask = in_layer[name] if len(name) else np.zeros(0, dtype=bool)
        m[f"{layer}.self_s"] = (float(own[mask].sum()) / n_ops, "s")

    m["grid.cfl_timestep_s"] = (total("grid.cfl_timestep"), "s")
    m["grid.cfl_timestep_calls"] = (calls("grid.cfl_timestep"), "count")
    step_s = total("solver.step")
    cell_updates = worked("solver.step")
    m["solver.step_s"] = (step_s, "s")
    m["solver.steps"] = (calls("solver.step"), "count")
    m["solver.cell_updates"] = (cell_updates, "count")
    m["solver.cell_updates_per_s"] = (ratio(cell_updates, step_s), "1/s")
    m["solver.run_self_s"] = (float(own[sel("solver.run")].sum()) / n_ops, "s")
    runs = sel("solver.run")
    per_op_history = [float(work[runs & (a["op"] == op)].max(initial=0)) for op in ops]
    m["solver.history_mb"] = (statistics.fmean(per_op_history) / 2**20, "MB")
    m["solver.save_s"] = (total("solver.save"), "s")
    m["solver.load_s"] = (total("solver.load"), "s")
    m["models.numerical_flux_s"] = (total("models.numerical_flux"), "s")
    for method in ("entropy", "entropy_flux", "flux", "wave_speeds", "check_domain"):
        m[f"models.{method}_s"] = (total(f"models.{method}"), "s")
    m["models.check_domain_calls"] = (calls("models.check_domain"), "count")

    fine_id = ids.get("cli.fine_reference", -1)
    fine_steps = sel("solver.step") & _under(name, parent, fine_id)
    m["cli.fine_reference_s"] = (total("cli.fine_reference"), "s")
    m["cli.fine_reference_cell_updates"] = (float(work[fine_steps].sum()) / n_ops, "count")
    m["cli.render_svg_s"] = (total("cli.render_svg"), "s")
    m["cli.write_slab_csv_s"] = (total("cli.write_slab_csv"), "s")
    m["cli.output_mb"] = (statistics.fmean(output_bytes[op] for op in ops) / 2**20, "MB")

    eps_s = total("residual.epsilon")
    levels = worked("residual.epsilon")
    m["residual.epsilon_s"] = (eps_s, "s")
    m["residual.epsilon_self_s"] = (float(own[sel("residual.epsilon")].sum()) / n_ops, "s")
    m["residual.levels"] = (levels, "count")
    m["residual.levels_per_s"] = (ratio(levels, eps_s), "1/s")
    m["residual.write_cells_csv_s"] = (total("residual.write_cells_csv"), "s")

    m["riemann.cell_average_exact_s"] = (total("riemann.cell_average_exact"), "s")
    m["riemann.cell_average_exact_calls"] = (calls("riemann.cell_average_exact"), "count")
    m["riemann.solve_riemann_s"] = (total("riemann.solve_riemann"), "s")

    surges = worked("partition.detect_surges")
    candidates = worked("partition.detect_jumps")
    m["partition.partition_s"] = (total("partition.partition"), "s")
    m["partition.oscillation_s"] = (total("partition.oscillation"), "s")
    m["partition.slabs"] = (calls("partition.partition"), "count")
    m["partition.candidates"] = (candidates, "count")
    m["partition.surges"] = (surges, "count")
    m["partition.surge_accept_ratio"] = (ratio(surges, candidates), "ratio")
    m["partition.strip_iterations"] = (calls("partition.build_surge_trapezoid") - surges, "count")

    traced_wall = sum(op_walls.values())
    roots = parent < 0
    m["trace.overhead_s"] = (statistics.median(op_walls.values()) - statistics.median(untraced_walls), "s")
    m["trace.unattributed_share"] = (ratio(traced_wall - float(duration[roots].sum()), traced_wall), "ratio")
    m["trace.spans_per_op"] = (len(name) / n_ops, "count")
    m["trace.missing_targets"] = (len(missing), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
