"""Command-line front end: exact-rational set files in, certified artifacts out.

All commands share one JSON serialization format.  Rationals are canonical
``"num/den"`` strings, sparse vectors are sorted ``[index, rational]`` pair
lists, and set files carry a ``kind`` of ``"points"``, ``"polyhedron"``, or
``"vector"``.  Every artifact embeds the run manifest (command, input paths,
configuration, output directory) so a report is reproducible from its own
contents, and every emission uses sorted keys and a fixed layout so reruns are
byte-identical.

Exit codes are uniform across subcommands: 0 on success, 1 when a verification
report contains a failed check, 2 on unreadable or malformed input, 3 when a
precondition of the requested operation is violated (the message names it).
Printed numbers are exact; ``--approx`` adds a decimal rendering that is
labeled non-authoritative and never feeds back into any computation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
from dataclasses import fields, is_dataclass
from decimal import Context
from fractions import Fraction
from functools import cache
from math import inf
from pathlib import Path
from typing import Optional, Union

from .errors import BadParameter, CertificateError, ParseError, PreconditionError
from .faces import exposed_all, fan_directions, inscribed_polygon
from .geometry import (
    PointSet,
    Polyhedron,
    PolarSpec,
    closed_convex_hull,
    irredundant_vertices,
)
from .hypermetrics import (
    MetricConfig,
    hausdorff_full,
    immeasurable_witness,
    pseudometric_dH,
)
from .limits import SequencePrefix, counterexample_demo, li_ls_diagnostic, monotone_limit
from .numerics import SparseVec, as_rational, rational_to_str
from .poulsen import Variant, construct, jordan_decompose, verify_trace

__all__ = [
    "load_set",
    "load_vector",
    "parse_functional",
    "set_to_json",
    "vector_to_json",
    "render_document",
    "main",
]


# ---------------------------------------------------------------------------
# Shared serialization format.
# ---------------------------------------------------------------------------


def vec_to_json(v: SparseVec) -> list[list[object]]:
    """A sorted ``[index, "num/den"]`` pair list; the empty list is zero."""
    return [[index, rational_to_str(value)] for index, value in v.items()]


# Largest coordinate index an input may name.  The metric weights the n-th
# coordinate by 2^-(n+1), so a weight stays within about 300 digits.
INDEX_MAX = 1000


def _bounded_index(index: int) -> int:
    if index > INDEX_MAX:
        raise ParseError(f"coordinate index exceeds the limit of {INDEX_MAX}")
    return index


def vec_from_json(obj: object) -> SparseVec:
    if not isinstance(obj, list):
        raise ParseError(f"a sparse vector must be a list of [index, rational] pairs, got {obj!r}")
    entries: dict[int, Fraction] = {}
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"bad sparse-vector entry {item!r}")
        index, literal = item
        if isinstance(index, bool) or not isinstance(index, int):
            raise ParseError(f"coordinate index must be an integer, got {index!r}")
        if not isinstance(literal, str):
            raise ParseError(f"coordinate value must be a rational string, got {literal!r}")
        _bounded_index(index)
        if index in entries:
            raise ParseError(f"duplicate coordinate index {index}")
        entries[index] = as_rational(literal)
    try:
        return SparseVec(entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def set_to_json(body: Union[PointSet, Polyhedron]) -> dict:
    if isinstance(body, PointSet):
        return {"kind": "points", "points": [vec_to_json(p) for p in body.points]}
    return {
        "kind": "polyhedron",
        "vertices": [vec_to_json(v) for v in body.vertices],
        "rays": [vec_to_json(r) for r in body.rays],
    }


def vector_to_json(v: SparseVec) -> dict:
    return {"kind": "vector", "entries": vec_to_json(v)}


def _fields_to_json(value):
    """A dataclass as a dict keyed by its field names, nested fields converted alike.

    A ``Fraction`` becomes ``"num/den"`` and a ``SparseVec`` a pair list; any
    other value is written as it is.
    """
    if isinstance(value, Fraction):
        return rational_to_str(value)
    if isinstance(value, SparseVec):
        return vec_to_json(value)
    if is_dataclass(value):
        return {f.name: _fields_to_json(getattr(value, f.name)) for f in fields(value)}
    return value


# Most bytes a document file may hold.  A file of 1,000 generators with 1,000
# entries each fits when its entries average about 60 bytes.
DOCUMENT_BYTES_MAX = 64 * 2**20

_FILE_TYPES = (
    (stat.S_ISDIR, "directory"),
    (stat.S_ISFIFO, "FIFO"),
    (stat.S_ISCHR, "character device"),
    (stat.S_ISBLK, "block device"),
    (stat.S_ISSOCK, "socket"),
)


def load_document(path: str) -> dict:
    """Read a JSON document with a string ``kind`` from a regular file of at most ``DOCUMENT_BYTES_MAX`` bytes.

    The path is checked with ``os.stat`` before it is opened, so a FIFO or a
    device is refused without a read that could block or never end.  The
    read is sized by ``stat``, since a read of ``n`` bytes allocates ``n``
    at once; a file that has grown since is read on, to one byte past the cap.
    """
    try:
        info = os.stat(path)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not stat.S_ISREG(info.st_mode):
        kind = next((name for test, name in _FILE_TYPES if test(info.st_mode)), "special file")
        raise ParseError(f"cannot read {path}: it is a {kind}, not a regular file")
    too_long = f"{path} exceeds the limit of {DOCUMENT_BYTES_MAX} bytes"
    if info.st_size > DOCUMENT_BYTES_MAX:
        raise ParseError(too_long)
    try:
        with open(path, "rb") as handle:
            data = handle.read(info.st_size + 1)
            if len(data) > info.st_size:
                data += handle.read(DOCUMENT_BYTES_MAX + 1 - len(data))
        if len(data) > DOCUMENT_BYTES_MAX:
            raise ParseError(too_long)
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number with more digits than int() converts
        raise ParseError(f"{path} holds a number too long to read") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to parse") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise ParseError(f"{path} must be a JSON object with a string 'kind' field")
    return doc


# Most generators a ``points``, ``vertices`` or ``rays`` list, or entries a ``sets`` list, may hold.
GENERATORS_MAX = 1000


def _vec_list(doc: dict, key: str, path: str) -> list[SparseVec]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{path}: field {key!r} must be a list")
    if len(raw) > GENERATORS_MAX:
        raise ParseError(f"{path}: field {key!r} exceeds the limit of {GENERATORS_MAX} generators")
    return [vec_from_json(item) for item in raw]


def load_set(path: str) -> Union[PointSet, Polyhedron]:
    """Read a set file; the constructors re-validate everything they are fed."""
    doc = load_document(path)
    kind = doc["kind"]
    try:
        if kind == "points":
            return PointSet(_vec_list(doc, "points", path))
        if kind == "polyhedron":
            return Polyhedron(_vec_list(doc, "vertices", path), _vec_list(doc, "rays", path))
    except PreconditionError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: expected kind 'points' or 'polyhedron', got {kind!r}")


def load_body(path: str) -> Polyhedron:
    return as_body(load_set(path))


def as_body(obj: Union[PointSet, Polyhedron]) -> Polyhedron:
    if isinstance(obj, PointSet):
        return Polyhedron(obj.points)
    return obj


def load_vector(path: str) -> SparseVec:
    doc = load_document(path)
    if doc["kind"] != "vector":
        raise ParseError(f"{path}: expected kind 'vector', got {doc['kind']!r}")
    return vec_from_json(doc.get("entries", []))


def render_document(payload: dict) -> str:
    """The canonical byte rendering used for every artifact and report."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Run manifests.
# ---------------------------------------------------------------------------


def _manifest(args: argparse.Namespace, inputs: list[str], config: dict) -> dict:
    """What was run, on which files, under which configuration.

    Built only after every referenced input file has been read and parsed, and
    echoed into every artifact the run emits.
    """
    if args.approx:
        config = {**config, "approx": True}
    return {"command": args.command, "inputs": list(inputs), "config": config, "output_dir": args.out}


def _emit(args: argparse.Namespace, manifest: dict, name: str, payload: dict) -> None:
    if args.out is None:
        return
    directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    document = {"manifest": manifest, **payload}
    (directory / name).write_text(render_document(document))


# ---------------------------------------------------------------------------
# Argument helpers and human-readable formatting.
# ---------------------------------------------------------------------------


_BASIS_DIRECTION = re.compile(r"e(0|[1-9][0-9]*)")
_DIRECTION_ENTRY = re.compile(r"(0|[1-9][0-9]*):([^,]+)")


def parse_functional(given: str) -> SparseVec:
    """A direction given as a file path, ``eN`` shorthand, or ``index:value`` pairs.

    Indices are naturals in plain ASCII digits without leading zeros, values
    are rational literals, and no whitespace is allowed anywhere.
    """
    try:
        is_file = Path(given).is_file()
    except OSError:  # a name the file system cannot hold, such as one too long
        is_file = False
    if is_file:
        return load_vector(given)
    basis = _BASIS_DIRECTION.fullmatch(given)
    if basis:
        return SparseVec.basis(_coordinate_index(basis[1]))
    entries: dict[int, Fraction] = {}
    for chunk in given.split(","):
        entry = _DIRECTION_ENTRY.fullmatch(chunk)
        if entry is None:
            raise ParseError(f"direction entry {chunk!r} needs an 'index:value' form with a natural index")
        index = _coordinate_index(entry[1])
        if index in entries:
            raise ParseError(f"duplicate coordinate index {index} in direction {given!r}")
        entries[index] = as_rational(entry[2])
    return SparseVec(entries)


def _coordinate_index(digits: str) -> int:
    if len(digits) > len(str(INDEX_MAX)):  # also keeps int() within its digit limit
        raise ParseError(f"coordinate index exceeds the limit of {INDEX_MAX}")
    return _bounded_index(int(digits))


def format_vec(v: SparseVec) -> str:
    if not v:
        return "0"
    return ",".join(f"{index}:{rational_to_str(value)}" for index, value in v.items())


def format_distance(value: Union[Fraction, float]) -> str:
    return "inf" if value == inf else rational_to_str(value)


def approx_text(value: Union[Fraction, float]) -> str:
    if value == inf:
        return "inf"
    if not value or sys.float_info.min <= abs(value) <= sys.float_info.max:
        return f"{float(value):.10g}"
    # float() overflows past its range and silently gives 0 below it; dividing
    # in 10-digit decimal arithmetic does neither.
    return f"{Context(prec=10).divide(value.numerator, value.denominator).normalize():.10g}"


def _print_approx(args: argparse.Namespace, label: str, value: Union[Fraction, float]) -> None:
    if args.approx:
        print(f"approx {label} (non-authoritative): {approx_text(value)}")


def _metric_config(args: argparse.Namespace) -> tuple[MetricConfig, dict, list[str]]:
    """The metric configuration plus its manifest entry and extra input paths."""
    normalizing = getattr(args, "normalizing_set", None)
    if normalizing is not None:
        body = load_body(normalizing)
        return MetricConfig(normalizing_set=body), {"normalizing_set": normalizing}, [normalizing]
    radius = as_rational(args.radius)
    cfg = MetricConfig(normalizing_set=PolarSpec(radius))
    return cfg, {"radius": rational_to_str(radius)}, []


# ---------------------------------------------------------------------------
# Subcommands.  Each wraps exactly one library operation.
# ---------------------------------------------------------------------------


def cmd_distance(args: argparse.Namespace) -> int:
    first = load_set(args.first)
    second = load_set(args.second)
    inputs = [args.first, args.second]
    if args.direction is not None:
        functional = parse_functional(args.direction)
        value = pseudometric_dH(first, second, functional)
        config: dict = {"direction": format_vec(functional)}
        mode = "directional"
    else:
        cfg, config, extra = _metric_config(args)
        inputs += extra
        value = hausdorff_full(as_body(first), as_body(second), cfg)
        mode = "full"
    manifest = _manifest(args, inputs, {"mode": mode, **config})
    text = format_distance(value)
    print(text)
    _print_approx(args, "distance", value)
    payload = {"kind": "report", "mode": mode, "distance": text}
    if args.approx:
        payload["approx_non_authoritative"] = approx_text(value)
    _emit(args, manifest, "distance.json", payload)
    return 0


# Largest counts the commands accept.  On 2 CPUs, `poulsen --steps 64` on a
# 5-vertex target takes about 0.4 s, and `demo` at these limits about 8 s, most
# of it in the 1,000 directions; the time for steps grows faster than linearly.
STEPS_MAX = 64
SPIKES_MAX = 64
DIRECTIONS_MAX = 1000


def _at_most(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise BadParameter(f"{what} {value} exceeds the limit of {limit}")


def cmd_poulsen(args: argparse.Namespace) -> int:
    _at_most("--steps", args.steps, STEPS_MAX)
    target = load_body(args.target)
    # Each step spikes along the next fresh coordinate, which result.json must name.
    used = max((k for v in target.vertices for k in v.support), default=-1)
    _at_most("the last fresh coordinate index", used + args.steps, INDEX_MAX)
    epsilon = as_rational(args.epsilon)
    polar = PolarSpec(as_rational(args.radius))
    variant = Variant(args.variant)
    config = {
        "epsilon": rational_to_str(epsilon),
        "steps": args.steps,
        "variant": variant.value,
        "seed": args.seed,
        "radius": rational_to_str(polar.radius),
    }
    manifest = _manifest(args, [args.target], config)
    result, trace = construct(target, polar, epsilon, args.steps, variant, args.seed)
    report = verify_trace(target, polar, result, trace)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    passed = sum(1 for check in report.checks if check.passed)
    print(f"verification: {passed}/{len(report.checks)} checks passed")
    _emit(args, manifest, "result.json", set_to_json(result))
    _emit(args, manifest, "trace.json", _trace_to_json(trace))
    _emit(args, manifest, "report.json", _report_to_json(report))
    return 0 if report.passed else 1


def _trace_to_json(trace) -> dict:
    return {
        "kind": "trace",
        "epsilon": rational_to_str(trace.epsilon),
        "radius": rational_to_str(trace.radius),
        "variant": trace.variant.value,
        "seed": trace.seed,
        "steps": [_fields_to_json(step) for step in trace.steps],
        "schedule_queue": [vec_to_json(v) for v in trace.schedule_queue],
        "schedule_cursor": dict(zip(("block", "stage", "position"), trace.schedule_cursor)),
    }


def _report_to_json(report) -> dict:
    return {"kind": "report", "passed": report.passed, "checks": [_fields_to_json(c) for c in report.checks]}


def cmd_expose(args: argparse.Namespace) -> int:
    body = load_body(args.body)
    manifest = _manifest(args, [args.body], {})
    certificates = exposed_all(body)
    for cert in certificates:
        print(
            f"vertex {format_vec(cert.vertex)} exposed by {format_vec(cert.functional)}"
            f" with margin {rational_to_str(cert.margin)}"
        )
        _print_approx(args, "margin", cert.margin)
    payload = {"kind": "report", "certificates": [_fields_to_json(cert) for cert in certificates]}
    _emit(args, manifest, "exposure.json", payload)
    return 0


def cmd_hull(args: argparse.Namespace) -> int:
    body = load_set(args.body)
    manifest = _manifest(args, [args.body], {})
    hull = closed_convex_hull(body)
    print(f"vertices: {len(hull.vertices)}")
    print(f"rays: {len(hull.rays)}")
    _emit(args, manifest, "hull.json", set_to_json(hull))
    return 0


def cmd_vertices(args: argparse.Namespace) -> int:
    body = load_set(args.body)
    manifest = _manifest(args, [args.body], {})
    extreme = irredundant_vertices(body)
    for point in extreme.points:
        print(format_vec(point))
    _emit(args, manifest, "vertices.json", set_to_json(extreme))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    sigma = load_vector(args.point)
    manifest = _manifest(args, [args.point], {})
    positive, negative = jordan_decompose(sigma)
    print(f"positive {format_vec(positive)}")
    print(f"negative {format_vec(negative)}")
    _emit(args, manifest, "positive.json", vector_to_json(positive))
    _emit(args, manifest, "negative.json", vector_to_json(negative))
    return 0


def cmd_limits(args: argparse.Namespace) -> int:
    doc = load_document(args.manifest)
    if doc["kind"] != "limit-query":
        raise ParseError(f"{args.manifest}: expected kind 'limit-query', got {doc['kind']!r}")
    base = Path(args.manifest).parent
    raw_sets = doc.get("sets")
    if not isinstance(raw_sets, list) or not raw_sets or not all(isinstance(p, str) for p in raw_sets):
        raise ParseError(f"{args.manifest}: 'sets' must be a nonempty list of file paths")
    if len(raw_sets) > GENERATORS_MAX:
        raise ParseError(f"{args.manifest}: 'sets' exceeds the limit of {GENERATORS_MAX} entries")
    set_paths = [str(base / p) for p in raw_sets]
    bodies = [load_body(p) for p in set_paths]
    if not isinstance(doc.get("tolerance", "0"), str):
        raise ParseError(f"{args.manifest}: 'tolerance' must be a rational string")
    tolerance = as_rational(doc.get("tolerance", "0"))
    stabilization = doc.get("stabilization_index", 0)
    if not isinstance(stabilization, int) or isinstance(stabilization, bool):
        raise ParseError(f"{args.manifest}: 'stabilization_index' must be an integer")
    monotone = doc.get("monotone", False)
    if not isinstance(monotone, bool):
        raise ParseError(f"{args.manifest}: 'monotone' must be a boolean")
    cfg, config, extra = _metric_config(args)
    inputs = [args.manifest, *set_paths, *extra]
    sequence = SequencePrefix(bodies, tolerance, stabilization)

    if monotone:
        manifest = _manifest(args, inputs, {"mode": "monotone", **config})
        limit, table = monotone_limit(sequence, cfg)
        print("distance-to-limit table: " + " ".join(rational_to_str(d) for d in table))
        print(f"limit vertices: {len(limit.vertices)}")
        payload = {
            "kind": "report",
            "mode": "monotone",
            "table": [rational_to_str(d) for d in table],
        }
        _emit(args, manifest, "limits.json", payload)
        _emit(args, manifest, "limit_set.json", set_to_json(limit))
        return 0

    candidates_path = doc.get("candidates")
    if not isinstance(candidates_path, str):
        raise ParseError(f"{args.manifest}: 'candidates' must name a points file")
    candidates_file = str(base / candidates_path)
    candidates = load_set(candidates_file)
    if not isinstance(candidates, PointSet):
        raise ParseError(f"{candidates_file}: candidates must be a 'points' file")
    inputs.append(candidates_file)
    manifest = _manifest(
        args,
        inputs,
        {"mode": "li-ls", "tolerance": rational_to_str(tolerance), "stabilization_index": stabilization, **config},
    )
    report = li_ls_diagnostic(sequence, candidates, cfg)
    for verdict in report.verdicts:
        li = "yes" if verdict.in_li_approx else "no"
        ls = "yes" if verdict.in_ls_approx else "no"
        distances = " ".join(rational_to_str(d) for d in verdict.distances)
        print(f"candidate {format_vec(verdict.point)}: lower-limit {li}, upper-limit {ls}, distances {distances}")
    payload = {
        "kind": "report",
        "mode": "li-ls",
        "tolerance": rational_to_str(report.tolerance),
        "stabilization_index": report.stabilization_index,
        "upper_limit_rule": report.ls_rule,
        "verdicts": [
            {
                "point": vec_to_json(verdict.point),
                "distances": [rational_to_str(d) for d in verdict.distances],
                "in_lower_limit": verdict.in_li_approx,
                "in_upper_limit": verdict.in_ls_approx,
            }
            for verdict in report.verdicts
        ],
    }
    _emit(args, manifest, "limits.json", payload)
    return 0


def cmd_immeasurable(args: argparse.Namespace) -> int:
    first = load_body(args.first)
    second = load_body(args.second)
    manifest = _manifest(args, [args.first, args.second], {})
    witness = immeasurable_witness(first, second)
    if witness is None:
        print("none")
        payload: dict = {"kind": "report", "witness": None}
    else:
        print(format_vec(witness))
        payload = {"kind": "report", "witness": vec_to_json(witness)}
    _emit(args, manifest, "witness.json", payload)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    _at_most("--spikes", args.spikes, SPIKES_MAX)
    _at_most("--directions", args.directions, DIRECTIONS_MAX)
    config = {"spikes": args.spikes, "directions": args.directions, "seed": args.seed}
    manifest = _manifest(args, [], config)

    # Both inputs validate their parameters; build them before printing anything.
    report = counterexample_demo(args.spikes)
    directions = fan_directions(args.directions, args.seed)
    print("escaping-spike family: pointwise-null sequence at constant metric scale")
    spike_rows = []
    for m, (spike, distance) in enumerate(zip(report.spikes, report.distances), start=1):
        print(f"  m={m} spike {format_vec(spike)} distance-to-zero {rational_to_str(distance)}")
        _print_approx(args, f"distance m={m}", distance)
        spike_rows.append({"spike": vec_to_json(spike), "distance": rational_to_str(distance)})
    print(f"  largest l1 norm over the hull: {rational_to_str(report.max_l1)}")

    print("polygon degeneracy sweep: hull vs vertex set on nested boundary grids")
    worst: list[Fraction] = []
    sweep_rows = []
    for k in range(3, 7):
        polygon = inscribed_polygon(k)
        net = PointSet(polygon.vertices)
        gap = max(pseudometric_dH(polygon, net, direction) for direction in directions)
        if not isinstance(gap, Fraction):
            raise CertificateError(f"bounded polygons gave an infinite directional gap at k={k}")
        worst.append(gap)
        print(f"  k={k} generators {len(polygon.vertices)} worst directional gap {rational_to_str(gap)}")
        _print_approx(args, f"gap k={k}", gap)
        sweep_rows.append({"k": k, "generators": len(polygon.vertices), "worst_gap": rational_to_str(gap)})
    ratios = [format_distance(coarse / fine) for coarse, fine in zip(worst, worst[1:])]
    print("  refinement ratios: " + " ".join(ratios))

    payload = {
        "kind": "report",
        "spike_family": {
            "rows": spike_rows,
            "max_l1": rational_to_str(report.max_l1),
        },
        "polygon_sweep": {"rows": sweep_rows, "ratios": ratios},
    }
    _emit(args, manifest, "demo.json", payload)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring and entry point.
# ---------------------------------------------------------------------------


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--radius", default="1", help="l1-ball radius of the normalizing set (rational)")
    parser.add_argument(
        "--normalizing-set",
        default=None,
        metavar="FILE",
        help="bounded set file to normalize against instead of an l1 ball",
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="DIR", help="directory for emitted artifacts")
    parser.add_argument(
        "--approx",
        action="store_true",
        help="also print decimal renderings (display only, non-authoritative)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakstar",
        description="Exact Hausdorff-type distances, exposure certificates, and certified dense-boundary constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance between two set files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--direction",
        default=None,
        metavar="FUNC",
        help="single test functional (file, eN, or index:value list); default is the full metric",
    )
    _add_metric_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("poulsen", help="append certified exposed vertices toward a dense boundary")
    p.add_argument("target")
    p.add_argument("--epsilon", required=True, help="distance budget (rational)")
    p.add_argument("--steps", required=True, type=int, help=f"number of vertices to append, at most {STEPS_MAX}")
    p.add_argument("--variant", default="plain", choices=[v.value for v in Variant])
    p.add_argument("--seed", default=0, type=int)
    p.add_argument("--radius", default="1", help="l1-ball radius containing the construction")
    _add_common_flags(p)

    p = sub.add_parser("expose", help="exposure certificates for every vertex of a polytope")
    p.add_argument("body")
    _add_common_flags(p)

    p = sub.add_parser("hull", help="irredundant closed convex hull of a set file")
    p.add_argument("body")
    _add_common_flags(p)

    p = sub.add_parser("vertices", help="extreme points of the hull of a set file")
    p.add_argument("body")
    _add_common_flags(p)

    p = sub.add_parser("decompose", help="split a vector into its positive and negative parts")
    p.add_argument("point", help="vector file")
    _add_common_flags(p)

    p = sub.add_parser("limits", help="limit diagnostics over an ordered list of set files")
    p.add_argument("manifest", help="limit-query file listing the set files in order")
    _add_metric_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("immeasurable", help="direction with infinite gap between two set files, if any")
    p.add_argument("first")
    p.add_argument("second")
    _add_common_flags(p)

    p = sub.add_parser("demo", help="escaping-spike family and the polygon degeneracy sweep")
    p.add_argument("--spikes", default=5, type=int, help=f"number of spikes in the escaping family, at most {SPIKES_MAX}")
    p.add_argument("--directions", default=20, type=int, help=f"sample size for the sweep directions, at most {DIRECTIONS_MAX}")
    p.add_argument("--seed", default=2026, type=int)
    _add_common_flags(p)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the process."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Look the command up at call time, so a rebound ``cmd_<name>`` is the one run.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
