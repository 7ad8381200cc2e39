"""Span recorder for the traced benchmark run.

The traced run wraps public entry points of the calderon layers from outside
the library.  Each call records a span (name, start, end, parent) where the
parent is the innermost enclosing wrapped call, so a layer's self time is its
duration minus the time its child spans cover.  Spans stay in memory and are
written out when the run ends.

Module functions are wrapped at every attribute of every ``calderon`` module
that binds them, because modules import each other's functions by name
(``calderon.bridge.assemble_local`` is the same object as
``calderon.local_elliptic.assemble_local``).  Methods are wrapped on their
class.  An entry point that no longer exists is reported as absent and the
metrics built on it read 0; it never stops the run.  Untraced runs never
construct a Tracer, so they install no wrappers.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


def maxrss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _factor_attrs(args, kwargs, result):
    return {"unknowns": int(args[0].n), "rss_mb": maxrss_mb()}


def _solver_attrs(args, kwargs, result):
    return {"free": int(args[0].free.sum())}


def _experiment_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"experiment": cfg.experiment}


# (module, attribute path, probe): the span is named "<module>.<path>" and the
# module's name is the layer.  A probe reads public attributes after the call.
ENTRY_POINTS = (
    ("mesh", "build_tangential_grid", None),
    ("mesh", "build_vertical_mesh", None),
    ("mesh", "build_extension_mesh", None),
    ("coefficients", "coefficient_from_spec", None),
    ("local_elliptic", "assemble_local", None),
    ("local_elliptic", "local_dtn_matrix", None),
    ("local_elliptic", "boundary_flux", None),
    ("linsolve", "Factorized.__init__", _factor_attrs),
    ("linsolve", "Factorized.solve", None),
    ("fractional_core", "spectral_power", None),
    ("fractional_core", "SpectralPower.matrix", None),
    ("fractional_core", "solve_fractional_dirichlet", None),
    ("fractional_core", "nonlocal_dtn_matrix", None),
    ("extension", "ExtensionSolver.__init__", _solver_attrs),
    ("extension", "ExtensionSolver.solve", None),
    ("extension", "neumann_trace", None),
    ("extension", "solve_weighted_neumann", None),
    ("extension", "calibrate_cs", None),
    ("extension", "decay_diagnostic", None),
    ("bridge", "BridgePipeline.__init__", None),
    ("bridge", "BridgePipeline.cauchy_pair", None),
    ("bridge", "vertical_integral", None),
    ("bridge", "verify_local_equation", None),
    ("bridge", "density_diagnostic", None),
    ("tikhonov", "build_data_operator", None),
    ("tikhonov", "minimize", None),
    ("tikhonov", "reconstruct_cauchy_from_data", None),
    ("experiments", "run_config", _experiment_attrs),
    ("experiments", "write_csv", None),
    ("experiments", "write_curve", None),
)

LAYERS = ("mesh", "coefficients", "local_elliptic", "linsolve", "fractional_core",
          "extension", "bridge", "tikhonov", "experiments")

# The seven experiments of the battery, each timed as experiments.<name>_s.
EXPERIMENTS = ("oracle-crosscheck", "duality", "bridge-residual", "decay-slopes",
               "density", "tikhonov-sweep", "distinguishability")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    round: int
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.round = 0
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str, layer: str, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, layer, time.perf_counter(),
                        stack[-1] if stack else None, tracer.round)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    span.attrs = probe(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the attribute is gone; metrics built on it read absent
            return result

        return wrapper

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "calderon" or n.startswith("calderon."))]
        for module_name, path, probe in ENTRY_POINTS:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"calderon.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                orig = vars(owner).get(attr) if isinstance(owner, type) else None
                if orig is None:
                    self.absent.append(name)
                    continue
                self._patch(owner, attr, self._wrap(orig, name, module_name, probe))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(orig, name, module_name, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "round": s.round, "failed": s.failed, "attrs": s.attrs}
                for s in self.spans
            ],
        }


class Absent(Exception):
    """A metric needs an entry point or attribute the program no longer has."""


class RoundView:
    """The spans of one traced round, with self times resolved."""

    def __init__(self, spans: list[Span], index: list[int], absent: list[str]):
        self.absent = set(absent)
        self.spans = [spans[i] for i in index]
        covered = {i: 0.0 for i in index}
        for i in index:
            p = spans[i].parent
            if p in covered:
                covered[p] += spans[i].duration
        self.self_time = {id(spans[i]): spans[i].duration - covered[i] for i in index}

    def _of(self, names) -> list[Span]:
        missing = self.absent.intersection(names)
        if missing:
            raise Absent(", ".join(sorted(missing)))
        return [s for s in self.spans if s.name in names]

    def total(self, *names) -> float:
        return sum(s.duration for s in self._of(names))

    def count(self, *names) -> int:
        return len(self._of(names))

    def self_total(self, name) -> float:
        return sum(self.self_time[id(s)] for s in self._of((name,)))

    def total_where(self, name, key, value) -> float:
        """Total duration of the spans whose probed ``key`` equals ``value``."""
        return sum(s.duration for s, v in zip(self._of((name,)), self.attr(name, key))
                   if v == value)

    def attr(self, name, key) -> list:
        spans = self._of((name,))
        if any(key not in s.attrs for s in spans):
            raise Absent(f"{name}:{key}")
        return [s.attrs[key] for s in spans]

    def failed(self, layer) -> int:
        names = [f"{m}.{p}" for m, p, _ in ENTRY_POINTS if m == layer]
        if self.absent.issuperset(names):
            raise Absent(layer)
        return sum(s.failed for s in self.spans if s.layer == layer)


def _rss_after_largest_factor(v: RoundView) -> float:
    n = v.attr("linsolve.Factorized.__init__", "unknowns")
    rss = v.attr("linsolve.Factorized.__init__", "rss_mb")
    return rss[n.index(max(n))] if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, value of one traced round)
PER_LAYER = {
    "mesh.build_s": ("s", lambda v: v.total(
        "mesh.build_tangential_grid", "mesh.build_vertical_mesh", "mesh.build_extension_mesh")),
    "coefficients.build_s": ("s", lambda v: v.total("coefficients.coefficient_from_spec")),
    "local_elliptic.assemble_s": ("s", lambda v: v.total("local_elliptic.assemble_local")),
    "local_elliptic.assemble_calls": ("count", lambda v: v.count("local_elliptic.assemble_local")),
    "local_elliptic.dtn_matrix_s": ("s", lambda v: v.total("local_elliptic.local_dtn_matrix")),
    "local_elliptic.boundary_flux_s": ("s", lambda v: v.total("local_elliptic.boundary_flux")),
    "local_elliptic.boundary_flux_calls": ("count", lambda v: v.count("local_elliptic.boundary_flux")),
    "linsolve.factor_s": ("s", lambda v: v.total("linsolve.Factorized.__init__")),
    "linsolve.factorizations": ("count", lambda v: v.count("linsolve.Factorized.__init__")),
    "linsolve.unknowns": ("count", lambda v: sum(v.attr("linsolve.Factorized.__init__", "unknowns"))),
    "linsolve.rss_after_factor_mb": ("MB", _rss_after_largest_factor),
    "linsolve.solve_s": ("s", lambda v: v.total("linsolve.Factorized.solve")),
    "linsolve.solves": ("count", lambda v: v.count("linsolve.Factorized.solve")),
    "fractional_core.eig_s": ("s", lambda v: v.total("fractional_core.spectral_power")),
    "fractional_core.eig_calls": ("count", lambda v: v.count("fractional_core.spectral_power")),
    "fractional_core.matrix_builds": ("count", lambda v: v.count("fractional_core.SpectralPower.matrix")),
    "fractional_core.matrix_builds_per_power": ("ratio", lambda v: _ratio(
        v.count("fractional_core.SpectralPower.matrix"),
        v.count("fractional_core.spectral_power"))),
    "fractional_core.dirichlet_s": ("s", lambda v: v.total("fractional_core.solve_fractional_dirichlet")),
    "fractional_core.dirichlet_calls": ("count", lambda v: v.count("fractional_core.solve_fractional_dirichlet")),
    "fractional_core.dtn_matrix_s": ("s", lambda v: v.total("fractional_core.nonlocal_dtn_matrix")),
    "extension.solver_build_s": ("s", lambda v: v.self_total("extension.ExtensionSolver.__init__")),
    "extension.free_unknowns": ("count", lambda v: sum(v.attr("extension.ExtensionSolver.__init__", "free"))),
    "extension.solve_s": ("s", lambda v: v.self_total("extension.ExtensionSolver.solve")),
    "extension.solves": ("count", lambda v: v.count("extension.ExtensionSolver.solve")),
    "extension.neumann_trace_s": ("s", lambda v: v.total("extension.neumann_trace")),
    "extension.neumann_traces": ("count", lambda v: v.count("extension.neumann_trace")),
    "extension.neumann_solve_s": ("s", lambda v: v.total("extension.solve_weighted_neumann")),
    "extension.calibrate_s": ("s", lambda v: v.total("extension.calibrate_cs")),
    "extension.decay_s": ("s", lambda v: v.total("extension.decay_diagnostic")),
    "bridge.pipeline_s": ("s", lambda v: v.total("bridge.BridgePipeline.__init__")),
    "bridge.pipelines": ("count", lambda v: v.count("bridge.BridgePipeline.__init__")),
    "bridge.cauchy_pair_s": ("s", lambda v: v.total("bridge.BridgePipeline.cauchy_pair")),
    "bridge.cauchy_pairs": ("count", lambda v: v.count("bridge.BridgePipeline.cauchy_pair")),
    "bridge.vertical_integral_s": ("s", lambda v: v.total("bridge.vertical_integral")),
    "bridge.verify_s": ("s", lambda v: v.total("bridge.verify_local_equation")),
    "bridge.density_s": ("s", lambda v: v.total("bridge.density_diagnostic")),
    "tikhonov.data_operator_s": ("s", lambda v: v.self_total("tikhonov.build_data_operator")),
    "tikhonov.minimize_s": ("s", lambda v: v.total("tikhonov.minimize")),
    "tikhonov.minimizes": ("count", lambda v: v.count("tikhonov.minimize")),
    "tikhonov.reconstruct_s": ("s", lambda v: v.total("tikhonov.reconstruct_cauchy_from_data")),
    **{
        f"experiments.{name}_s": ("s", lambda v, name=name: v.total_where(
            "experiments.run_config", "experiment", name))
        for name in EXPERIMENTS
    },
    "experiments.emit_s": ("s", lambda v: v.total("experiments.write_csv",
                                                   "experiments.write_curve")),
    **{f"{layer}.failed": ("count", lambda v, layer=layer: v.failed(layer))
       for layer in LAYERS},
}


def layer_metrics(tracer: Tracer, rounds: list[int]) -> tuple[dict, list[str]]:
    """Median over the given traced rounds of every per-layer metric.

    Returns ``(metrics, absent)``: metrics map name -> {value, unit}; an
    absent metric reads 0 and its name is listed in ``absent``.
    """
    by_round = {r: [] for r in rounds}
    for i, s in enumerate(tracer.spans):
        if s.round in by_round:
            by_round[s.round].append(i)
    views = [RoundView(tracer.spans, by_round[r], tracer.absent) for r in rounds]
    metrics, absent = {}, []
    for name, (unit, fn) in PER_LAYER.items():
        try:
            value = statistics.median(fn(v) for v in views)
        except Absent:
            value = 0
            absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
