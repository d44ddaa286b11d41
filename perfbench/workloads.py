"""Seeded inputs and operation lists for the benchmark workloads.

Every input comes from ``random.Random(seed)`` and is written as a set file;
the program under test sees only those files.  The *shape* of each workload
(step counts, vertex counts, point counts, the order of operations) follows a
fixed pattern, and the seed picks coordinates and values.  That keeps the
amount of work per run nearly the same from seed to seed, so a change of seed
moves the witnesses but not the throughput.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("construct", "hull", "metric")


@dataclass(frozen=True)
class Op:
    """One ``weakstar`` command: its argv, its output directory and what to check.

    ``inputs`` names the set files the output check reads back; ``mirror`` is
    the name of the op whose result must equal this one (``distance B A`` for
    ``distance A B``).
    """

    name: str
    command: str
    argv: tuple[str, ...]
    out: str
    inputs: tuple[str, ...] = ()
    mirror: str | None = None


def _q(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _vec(entries: dict[int, Fraction]) -> list[list[object]]:
    return [[k, _q(v)] for k, v in sorted(entries.items()) if v]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return str(path)


def _points(vectors: list[dict[int, Fraction]]) -> dict:
    return {"kind": "points", "points": [_vec(v) for v in vectors]}


def _sparse_point(rng: random.Random, dim: int, nonzeros: int, sign: bool, scale: Fraction) -> dict[int, Fraction]:
    """A point with ``nonzeros`` entries among ``dim`` coordinates and l1 norm ``scale``."""
    coords = rng.sample(range(dim), nonzeros)
    weights = [rng.randint(1, 6) for _ in coords]
    total = sum(weights)
    return {
        k: Fraction(w, total) * scale * (rng.choice((-1, 1)) if sign else 1)
        for k, w in zip(coords, weights)
    }


def _distinct(make, count: int) -> list[dict[int, Fraction]]:
    out: list[dict[int, Fraction]] = []
    while len(out) < count:
        point = make()
        if point not in out:
            out.append(point)
    return out


# ---------------------------------------------------------------------------
# construct: `poulsen` on seeded targets, `expose` on stadium polygons.
# ---------------------------------------------------------------------------

# Each workload has a core of equal-shape operations that holds its median
# latency, with about as many cheaper operations below it as costlier ones
# above it.  A run makes two cycles, so the tail, with ten samples beyond it,
# lies in the sixth costliest operation.  In construct and hull the costliest
# shape has eight operations, so the tail lies inside that group rather than
# in the gap below it; in metric the pairs' costs spread without gaps.  A
# median or tail that fell between two shapes would jump with the seed.
#
# construct: (steps, target vertices) of the poulsen runs in one cycle; eight
# of 14 steps, ten of 12 and nine of 8 to 10.
CONSTRUCT_SHAPES = (
    (14, 5), (12, 5), (8, 6), (12, 5), (14, 6), (10, 7), (12, 5), (14, 5), (8, 4),
    (12, 5), (14, 6), (12, 5), (10, 5), (14, 5), (12, 5), (9, 6), (14, 6), (12, 5),
    (8, 5), (14, 5), (12, 5), (10, 4), (12, 5), (14, 6), (9, 5), (12, 5), (8, 6),
)
VARIANTS = ("plain", "positive", "state")
EPSILONS = ("1/2", "1/4")
STADIUM_COUNTS = (16, 24)
TARGET_DIM = 8


def _target(rng: random.Random, count: int, variant: str) -> dict:
    def make():
        nonzeros = rng.randint(1, 3)
        if variant == "state":
            return _sparse_point(rng, TARGET_DIM, nonzeros, False, Fraction(1))
        scale = Fraction(rng.randint(1, 4), 4)
        return _sparse_point(rng, TARGET_DIM, nonzeros, variant == "plain", scale)

    return _points(_distinct(make, count))


def stadium_points(count: int) -> list[dict[int, Fraction]]:
    """The rational stadium polygon: ``count`` points on two unit half-circles.

    The same family as ``weakstar.faces.stadium_family``, rebuilt here so the
    benchmark inputs do not depend on the code under test.
    """
    half = count // 2
    right = []
    for j in range(half):
        t = Fraction(-1) + Fraction(2 * j, half - 1)
        denom = 1 + t * t
        x, y = (1 - t * t) / denom, 2 * t / denom
        right.append({0: 1 + x, 1: y})
    return right + [{0: -p[0], 1: p[1]} for p in right]


def _construct(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    made: dict[int, int] = {}
    for i, (steps, count) in enumerate(CONSTRUCT_SHAPES):
        # Variant and epsilon cycle within each step count, so every group has all of them.
        k = made[steps] = made.get(steps, -1) + 1
        variant = VARIANTS[k % len(VARIANTS)]
        epsilon = EPSILONS[k % len(EPSILONS)]
        path = _write(work / f"target{i:02d}.json", _target(rng, count, variant))
        name = f"poulsen{i:02d}"
        out = str(work / "out" / name)
        argv = ("poulsen", path, "--epsilon", epsilon, "--steps", str(steps), "--variant", variant, "--out", out)
        ops.append(Op(name, "poulsen", argv, out, (path,)))
        if i % 5 == 4:
            count = STADIUM_COUNTS[(i // 5) % len(STADIUM_COUNTS)]
            points = stadium_points(count)
            rng.shuffle(points)
            path = _write(work / f"stadium{i:02d}.json", _points(points))
            name = f"expose{i:02d}"
            out = str(work / "out" / name)
            ops.append(Op(name, "expose", ("expose", path, "--out", out), out, (path,)))
    return ops


# ---------------------------------------------------------------------------
# hull: `hull` and `vertices` on redundant clouds and on polyhedra with rays.
# ---------------------------------------------------------------------------

# hull: (points, coordinates) of the clouds in one cycle; the four of 48
# points give eight commands, the costliest group.
CLOUD_SIZES = ((24, 3), (36, 4), (48, 3), (36, 4), (40, 4), (24, 3), (48, 3), (40, 5), (36, 4)) * 2
RAY_DIMS = (3, 4, 5)


def _small(rng: random.Random, dim: int) -> dict[int, Fraction]:
    return {k: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for k in range(dim)}


def _combination(rng: random.Random, generators: list[dict[int, Fraction]], affine: bool) -> dict[int, Fraction]:
    chosen = rng.sample(generators, min(3, len(generators)))
    weights = [rng.randint(1, 4) for _ in chosen]
    total = sum(weights) if affine else rng.randint(1, 3)
    out: dict[int, Fraction] = {}
    for w, g in zip(weights, chosen):
        for k, v in g.items():
            out[k] = out.get(k, Fraction(0)) + Fraction(w, total) * v
    return {k: v for k, v in out.items() if v}


def _sphere_point(rng: random.Random, dim: int) -> dict[int, Fraction]:
    """A rational point on the unit sphere, by inverse stereographic projection."""
    t = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(dim - 1)]
    norm = sum(x * x for x in t)
    coords = [2 * x / (norm + 1) for x in t] + [(norm - 1) / (norm + 1)]
    return {k: v for k, v in enumerate(coords) if v}


def _cloud(rng: random.Random, size: int, dim: int) -> dict:
    """``size`` points: a third on the unit sphere, so extreme, the rest inside their hull.

    The extreme points come first in every run of three.  Pruning cost depends on where the
    redundant points sit, so that order is fixed rather than drawn.
    """
    extreme = _distinct(lambda: _sphere_point(rng, dim), size // 3)
    inner: list[dict[int, Fraction]] = []
    while len(inner) < size - len(extreme):
        point = _combination(rng, extreme, affine=True)
        if point not in inner and point not in extreme:
            inner.append(point)
    points = []
    for k, e in enumerate(extreme):
        points += [e, *inner[2 * k : 2 * k + 2]]
    points += inner[2 * len(extreme) :]
    return _points(points)


def _ray_body(rng: random.Random, dim: int) -> dict:
    """A polyhedron whose rays include positive multiples and cone combinations."""
    base = _distinct(lambda: _small(rng, dim), dim)
    rays = list(base)
    for ray in rng.sample(base, 2):
        rays.append({k: v * rng.randint(2, 5) for k, v in ray.items()})
    for _ in range(2):
        rays.append(_combination(rng, base, affine=False))
    rng.shuffle(rays)
    vertices = _distinct(lambda: _small(rng, dim), 4 + dim)
    vertices += [_combination(rng, vertices, affine=True) for _ in range(4)]
    return {"kind": "polyhedron", "vertices": [_vec(v) for v in vertices], "rays": [_vec(r) for r in rays if r]}


def _hull(rng: random.Random, work: Path) -> list[Op]:
    bodies = []
    for i, (size, dim) in enumerate(CLOUD_SIZES):
        bodies.append(_write(work / f"cloud{i:02d}.json", _cloud(rng, size, dim)))
        if i % 3 == 1:
            dim = RAY_DIMS[i // 3 % len(RAY_DIMS)]
            bodies.append(_write(work / f"rays{i:02d}.json", _ray_body(rng, dim)))
    ops = []
    for i, path in enumerate(bodies):
        for command in ("hull", "vertices"):
            name = f"{command}{i:02d}"
            out = str(work / "out" / name)
            ops.append(Op(name, command, (command, path, "--out", out), out, (path,)))
    return ops


# ---------------------------------------------------------------------------
# metric: full `distance` both ways on polytope pairs, `limits` li-ls queries.
# ---------------------------------------------------------------------------

# metric: vertex counts of the polytope pairs; (sets, vertices, candidates) of the limit queries.
PAIR_SIZES = ((10, 10),) * 2 + ((10, 16),) + ((10, 10),) * 15
LIMIT_SHAPES = ((5, 10, 6), (4, 12, 6), (6, 8, 5), (4, 10, 8), (5, 10, 6))
METRIC_DIM = 8


def _polytope(rng: random.Random, count: int) -> list[dict[int, Fraction]]:
    """Points with 3 nonzero coordinates of the form ±w/16, inside the unit l1-ball."""

    def make():
        coords = rng.sample(range(METRIC_DIM), 3)
        return {k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), 16) for k in coords}

    return _distinct(make, count)


def _metric(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for i, (first, second) in enumerate(PAIR_SIZES):
        a = _write(work / f"pair{i:02d}a.json", _points(_polytope(rng, first)))
        b = _write(work / f"pair{i:02d}b.json", _points(_polytope(rng, second)))
        names = (f"distance{i:02d}ab", f"distance{i:02d}ba")
        for name, (x, y), mirror in zip(names, ((a, b), (b, a)), reversed(names)):
            out = str(work / "out" / name)
            ops.append(Op(name, "distance", ("distance", x, y, "--out", out), out, (x, y), mirror))
        if i < len(LIMIT_SHAPES):
            ops.append(_limits_op(rng, work, i, *LIMIT_SHAPES[i]))
    return ops


def _limits_op(rng: random.Random, work: Path, i: int, sets: int, size: int, candidates: int) -> Op:
    directory = work / f"limits{i:02d}"
    directory.mkdir()
    names = []
    bodies = []
    for j in range(sets):
        body = _polytope(rng, size)
        bodies.append(body)
        names.append(Path(_write(directory / f"set{j}.json", _points(body))).name)
    # Half the candidates are vertices of the late sets, so some flags are set.
    picks = [rng.choice(rng.choice(bodies[1:])) for _ in range(candidates // 2)]
    picks += _polytope(rng, candidates - len(picks))
    unique = [p for i, p in enumerate(picks) if p not in picks[:i]]
    _write(directory / "candidates.json", _points(unique))
    query = {
        "kind": "limit-query",
        "sets": names,
        "tolerance": "1/16",
        "stabilization_index": 1,
        "candidates": "candidates.json",
    }
    path = _write(directory / "query.json", query)
    name = f"limits{i:02d}"
    out = str(work / "out" / name)
    return Op(name, "limits", ("limits", path, "--out", out), out, (path,))


_BUILDERS = {"construct": _construct, "hull": _hull, "metric": _metric}


def generate(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the seeded inputs of one workload under ``work``; return one cycle of ops."""
    work.mkdir(parents=True, exist_ok=True)
    ops = _BUILDERS[workload](random.Random(seed), work)
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"{workload}: operation names must be unique")
    return ops
