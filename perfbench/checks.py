"""Output checks for benchmark operations, run outside the timed region.

Each check reads back the artifacts an operation wrote and re-derives what it
can from the inputs with the library's own exact predicates.  A check returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def _read(out: str, name: str) -> dict:
    return json.loads((Path(out) / name).read_text())


def _vecs(cli, items) -> list:
    return [cli.vec_from_json(item) for item in items]


def _generators(cli, path: str) -> tuple[list, list]:
    body = cli.load_set(path)
    if hasattr(body, "points"):
        return list(body.points), []
    return list(body.vertices), list(body.rays)


def check_poulsen(ws, op, results) -> str | None:
    report = _read(op.out, "report.json")
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        return f"report.json has passed={report.get('passed')!r}, failing {failed}"
    return None


def check_expose(ws, op, results) -> str | None:
    body = ws.cli.load_body(op.inputs[0])
    hull = ws.geometry.closed_convex_hull(body)
    certificates = _read(op.out, "exposure.json")["certificates"]
    seen = set()
    for item in certificates:
        vertex = ws.cli.vec_from_json(item["vertex"])
        try:
            cert = ws.faces.ExposureCertificate(
                vertex, ws.cli.vec_from_json(item["functional"]), Fraction(item["margin"])
            )
        except ws.errors.WeakstarError as exc:
            return f"certificate for {vertex!r} is malformed: {exc}"
        if not ws.faces.certificate_is_valid(cert, body):
            return f"certificate for {vertex!r} does not pass certificate_is_valid"
        seen.add(vertex)
    if seen != set(hull.vertices):
        return f"{len(seen)} certified vertices, the body has {len(hull.vertices)} extreme points"
    return None


def _hull_problem(ws, vertices, rays, in_vertices, in_rays) -> str | None:
    if not set(vertices) <= set(in_vertices):
        return "an output vertex is not an input vertex"
    if not set(rays) <= set(in_rays):
        return "an output ray is not an input ray"
    hull = ws.geometry.Polyhedron(vertices, rays)
    for v in in_vertices:
        if not ws.geometry.membership(v, hull):
            return f"input vertex {v!r} is outside the output hull"
    cone = ws.geometry.Polyhedron([ws.numerics.SparseVec.zero()], rays)
    for r in in_rays:
        if not ws.geometry.membership(r, cone):
            return f"input ray {r!r} is outside the output recession cone"
    return None


def check_hull(ws, op, results) -> str | None:
    doc = _read(op.out, "hull.json")
    in_vertices, in_rays = _generators(ws.cli, op.inputs[0])
    return _hull_problem(ws, _vecs(ws.cli, doc["vertices"]), _vecs(ws.cli, doc["rays"]), in_vertices, in_rays)


def check_vertices(ws, op, results) -> str | None:
    doc = _read(op.out, "vertices.json")
    in_vertices, in_rays = _generators(ws.cli, op.inputs[0])
    # The extreme points plus the input rays must regenerate every input vertex.
    return _hull_problem(ws, _vecs(ws.cli, doc["points"]), in_rays, in_vertices, in_rays)


def check_distance(ws, op, results) -> str | None:
    text = _read(op.out, "distance.json")["distance"]
    if Fraction(text) < 0:
        return f"negative distance {text}"
    mirror = results.get(op.mirror)
    if mirror is None:
        return None
    other = _read(mirror.out, "distance.json")["distance"]
    if other != text:
        return f"distance is not symmetric: {text} one way, {other} the other way"
    return None


def check_limits(ws, op, results) -> str | None:
    query = json.loads(Path(op.inputs[0]).read_text())
    base = Path(op.inputs[0]).parent
    bodies = [ws.cli.load_body(str(base / name)) for name in query["sets"]]
    tolerance = Fraction(query["tolerance"])
    start = query["stabilization_index"]
    report = _read(op.out, "limits.json")
    candidates = ws.cli.load_set(str(base / query["candidates"])).points
    if len(report["verdicts"]) != len(candidates):
        return f"{len(report['verdicts'])} verdicts for {len(candidates)} candidates"
    for verdict in report["verdicts"]:
        point = ws.cli.vec_from_json(verdict["point"])
        distances = [Fraction(d) for d in verdict["distances"]]
        if len(distances) != len(bodies) or any(d < 0 for d in distances):
            return f"bad distance list for {point!r}"
        for d, body in zip(distances, bodies):
            if point in body.vertices and d != 0:
                return f"vertex {point!r} of a set has distance {d} to it"
        in_li = all(d <= tolerance for d in distances[start:])
        close = sum(1 for d in distances if d <= tolerance)
        in_ls = in_li or 2 * close >= len(distances)
        if (verdict["in_lower_limit"], verdict["in_upper_limit"]) != (in_li, in_ls):
            return f"limit flags of {point!r} do not follow from its distances"
    return None


CHECKS = {
    "poulsen": check_poulsen,
    "expose": check_expose,
    "hull": check_hull,
    "vertices": check_vertices,
    "distance": check_distance,
    "limits": check_limits,
}
