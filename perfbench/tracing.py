"""Spans and counters around weakstar's public entry points, installed from outside.

``Tracer.install`` rebinds each traced function, by name, in every loaded
``weakstar`` module that holds it, so calls made through ``from .x import f``
bindings are caught as well.  ``uninstall`` restores the originals.  No file
of the program changes; tracing exists only inside a traced run.

A span records its name, layer (the module), parent span, start and end.
Arguments and return values are kept only where a counter needs them and are
measured after the pass, so counting adds nothing to span times.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

LAYERS = ("numerics", "geometry", "hypermetrics", "faces", "poulsen", "limits", "cli")
COMMANDS = ("poulsen", "expose", "hull", "vertices", "distance", "limits")
LOADERS = ("load_document", "load_set", "load_body", "load_vector")

# (module, function, keep arguments and result for the counters)
ENTRY_POINTS = (
    ("numerics", "solve_bounded", True),
    ("geometry", "closed_convex_hull", True),
    ("geometry", "irredundant_vertices", False),
    ("geometry", "membership", False),
    ("geometry", "recession_rays", False),
    ("hypermetrics", "hausdorff_full", False),
    ("hypermetrics", "point_body_distance", False),
    ("hypermetrics", "pseudometric_dH", False),
    ("hypermetrics", "separating_direction", False),
    ("hypermetrics", "immeasurable_witness", False),
    ("faces", "exposure_certificate", False),
    ("faces", "exposed_all", False),
    ("poulsen", "construct", False),
    ("poulsen", "verify_trace", False),
    ("limits", "li_ls_diagnostic", False),
    ("limits", "monotone_limit", False),
    ("cli", "main", False),
    *(("cli", f"cmd_{command}", False) for command in COMMANDS),
    *(("cli", loader, False) for loader in LOADERS),
    ("cli", "_emit", False),
    ("cli", "render_document", True),
)


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float
    end: float = 0.0
    call: tuple | None = None
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn, name: str, layer: str, keep: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep:
                span.call = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "weakstar" or n.startswith("weakstar.")]
        for layer, name, keep in ENTRY_POINTS:
            original = getattr(sys.modules[f"weakstar.{layer}"], name)
            wrapper = self._wrap(original, name, layer, keep)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def finish(self) -> None:
        """Charge every span's time to its parent, once all spans have ended."""
        for span in self.spans:
            if span.parent >= 0:
                self.spans[span.parent].children_s += span.seconds


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    return 0


def _lp_bits(args, kwargs, result) -> int:
    variables, objective, rows = args
    values = list(objective.values())
    for coeffs, _, rhs in rows:
        values.extend(coeffs.values())
        values.append(rhs)
    for bounds in (kwargs.get("lower"), kwargs.get("upper")):
        values.extend((bounds or {}).values())
    for part in vars(result).values():
        values.extend(part.values() if isinstance(part, dict) else part if isinstance(part, list) else [part])
    return max((_bits(v) for v in values), default=0)


def layer_metrics(tracer: Tracer, wall_s: float, work: str) -> dict[str, float]:
    """Per-layer counts, busy and self times, and each layer's share of the pass.

    ``work`` is the run's temporary directory; artifact sizes are counted with
    it replaced by a fixed token, so they do not depend on where the run was.
    """
    spans = tracer.spans
    named: dict[str, list[Span]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def of(*names: str) -> list[Span]:
        return [s for n in names for s in named.get(n, [])]

    def busy(*names: str) -> float:
        return sum(s.seconds for s in of(*names))

    def self_s(*names: str) -> float:
        return sum(s.self_s for s in of(*names))

    lps = of("solve_bounded")
    lp_parent = [spans[s.parent] if s.parent >= 0 else None for s in lps]

    def lps_under(*names: str) -> int:
        return sum(1 for p in lp_parent if p is not None and p.name in names)

    outcomes = [type(s.call[2]).__name__ for s in lps]
    shapes = [(len(s.call[0][2]), len(s.call[0][0])) for s in lps]
    m: dict[str, float] = {}

    n = len(lps)
    m["numerics.lp_calls"] = n
    m["numerics.lp_busy_s"] = busy("solve_bounded")
    m["numerics.lp_mean_ms"] = 1000 * m["numerics.lp_busy_s"] / n if n else 0.0
    m["numerics.lp_optimal"] = outcomes.count("BoundedOptimal")
    m["numerics.lp_infeasible"] = outcomes.count("BoundedInfeasible")
    m["numerics.lp_unbounded"] = outcomes.count("BoundedUnbounded")
    m["numerics.lp_rows_mean"] = sum(r for r, _ in shapes) / n if n else 0.0
    m["numerics.lp_cols_mean"] = sum(c for _, c in shapes) / n if n else 0.0
    m["numerics.lp_cells_max"] = max((r * c for r, c in shapes), default=0)
    m["numerics.value_bits_max"] = max((_lp_bits(*s.call) for s in lps), default=0)

    # Pruning work: generators handed to a hull that was not already irredundant.
    pruned = [s for s in of("closed_convex_hull") if not getattr(s.call[0][0], "irredundant", False)]
    given = sum(_generator_count(s.call[0][0]) for s in pruned)
    kept = sum(_generator_count(s.call[2]) for s in pruned)
    m["geometry.hull_calls"] = len(of("closed_convex_hull"))
    m["geometry.hull_busy_s"] = busy("closed_convex_hull")
    m["geometry.hull_self_s"] = self_s("closed_convex_hull")
    m["geometry.membership_calls"] = len(of("membership"))
    m["geometry.membership_busy_s"] = busy("membership")
    m["geometry.lp_per_generator"] = lps_under("closed_convex_hull") / given if given else 0.0
    m["geometry.kept_ratio"] = kept / given if given else 0.0

    pbd = len(of("point_body_distance"))
    m["hypermetrics.hausdorff_calls"] = len(of("hausdorff_full"))
    m["hypermetrics.hausdorff_busy_s"] = busy("hausdorff_full")
    m["hypermetrics.pbd_calls"] = pbd
    m["hypermetrics.pbd_busy_s"] = busy("point_body_distance")
    m["hypermetrics.pbd_self_s"] = self_s("point_body_distance")
    m["hypermetrics.pbd_lp_ratio"] = lps_under("point_body_distance") / pbd if pbd else 0.0

    m["faces.exposure_calls"] = len(of("exposure_certificate", "exposed_all"))
    m["faces.exposure_busy_s"] = busy("exposure_certificate", "exposed_all")
    m["faces.exposure_self_s"] = self_s("exposure_certificate", "exposed_all")

    m["poulsen.construct_busy_s"] = busy("construct")
    m["poulsen.verify_busy_s"] = busy("verify_trace")
    m["poulsen.verify_self_s"] = self_s("verify_trace")

    m["limits.diagnostic_calls"] = len(of("li_ls_diagnostic"))
    m["limits.diagnostic_busy_s"] = busy("li_ls_diagnostic")

    for command in COMMANDS:
        m[f"cli.{command}_calls"] = len(of(f"cmd_{command}"))
        m[f"cli.{command}_busy_s"] = busy(f"cmd_{command}")
    m["cli.load_busy_s"] = sum(
        s.seconds for s in of(*LOADERS) if s.parent < 0 or spans[s.parent].name not in LOADERS
    )
    m["cli.render_busy_s"] = busy("_emit")
    m["cli.artifact_bytes"] = sum(
        len(s.call[2].replace(work, "<work>").encode()) for s in of("render_document")
    )
    m["cli.self_s"] = sum(s.self_s for s in spans if s.layer == "cli")

    # Wall share: a layer's self time plus the LPs it asked for directly, so
    # the non-numerics shares partition the pass; numerics is all LP time.
    lp_by_layer: dict[str, float] = {}
    for lp, parent in zip(lps, lp_parent):
        if parent is not None:
            lp_by_layer[parent.layer] = lp_by_layer.get(parent.layer, 0.0) + lp.seconds
    for layer in LAYERS:
        if layer == "numerics":
            share = m["numerics.lp_busy_s"]
        else:
            share = sum(s.self_s for s in spans if s.layer == layer) + lp_by_layer.get(layer, 0.0)
        m[f"{layer}.wall_share"] = share / wall_s
    return m


def _generator_count(body) -> int:
    if hasattr(body, "points"):
        return len(body.points)
    return len(body.vertices) + len(body.rays)


# Counters repeat exactly for a seed; every other per-layer metric is a time.
COUNTERS = (
    "numerics.lp_calls", "numerics.lp_optimal", "numerics.lp_infeasible", "numerics.lp_unbounded",
    "numerics.lp_rows_mean", "numerics.lp_cols_mean", "numerics.lp_cells_max", "numerics.value_bits_max",
    "geometry.hull_calls", "geometry.membership_calls", "geometry.lp_per_generator", "geometry.kept_ratio",
    "hypermetrics.hausdorff_calls", "hypermetrics.pbd_calls", "hypermetrics.pbd_lp_ratio",
    "faces.exposure_calls", "limits.diagnostic_calls", "cli.artifact_bytes",
    *(f"cli.{command}_calls" for command in COMMANDS),
)


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith(("_share", "_ratio", "_per_generator")):
        return "ratio"
    return "count"


def dominance(metrics: dict[str, float]) -> tuple[str, list[str]]:
    """The layer with the largest wall share, and the layers that did nothing."""
    shares = {layer: metrics[f"{layer}.wall_share"] for layer in LAYERS if layer != "numerics"}
    idle = [layer for layer in LAYERS if metrics[f"{layer}.wall_share"] == 0]
    return max(shares, key=shares.get), idle
