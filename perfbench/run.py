"""The weakstar benchmark: one closed-loop client calling ``weakstar.cli.main``.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the workload's operations run in a
loop for ``--seconds`` (and at least two full cycles), one after another in
this process, and the end-to-end metrics are printed.  Their times are in
nominal seconds: each step is scaled by the host speed measured beside it
(see ``calibrate.py``).  With ``--trace 1`` the
cycle runs once untraced and once with spans around every public entry
point, and the per-layer metrics are printed.  Every output is checked
outside the timed region.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10
MODULES = ("cli", "errors", "faces", "geometry", "numerics")


class SourceMissing(Exception):
    """The checkout has no ``src/weakstar`` to benchmark."""


def import_weakstar() -> SimpleNamespace:
    """Import weakstar afresh from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "weakstar" / "__init__.py").is_file():
        raise SourceMissing(f"no weakstar package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "weakstar" or n.startswith("weakstar.")]:
        del sys.modules[name]
    package = importlib.import_module("weakstar")
    if Path(package.__file__).resolve().parent != SRC / "weakstar":
        raise SourceMissing(f"weakstar was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"weakstar.{name}") for name in MODULES})


def setup(workload: str, seed: int, work: Path, repeats: int) -> tuple[SimpleNamespace, list, float, float]:
    """Import the program and write the inputs, ``repeats`` times.

    Returns the median set-up time in nominal seconds and in measured seconds.
    """
    nominal, measured = [], []
    before = calibrate.sample()
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        ws = import_weakstar()
        ops = workloads.generate(workload, seed, work)
        elapsed = time.perf_counter() - start
        after = calibrate.sample()
        measured.append(elapsed)
        nominal.append(elapsed * calibrate.scale(before, after))
        before = after
    return ws, ops, statistics.median(nominal), statistics.median(measured)


def artifact_digest(op, work: Path) -> str:
    """sha256 over the op's artifacts, with the temporary directory path normalized."""
    h = hashlib.sha256()
    for path in sorted(Path(op.out).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes().replace(str(work).encode(), b"<work>") + b"\0")
    return h.hexdigest()


def run_op(ws, op) -> tuple[float, str | None]:
    """Run one command in-process; its latency and what went wrong, if anything."""
    shutil.rmtree(op.out, ignore_errors=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ws.cli.main(list(op.argv))
    except Exception:  # an escaped exception is a failed operation, not a crash
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit code {code}: {sink.getvalue()[-300:]}"


class Ledger:
    """Per-op outcomes: first digest, check result and every execution's status.

    ``runs`` holds (op name, measured latency, nominal latency, ok) per execution.
    """

    def __init__(self, work: Path):
        self.work = work
        self.digest: dict[str, str] = {}
        self.problem: dict[str, str] = {}
        self.runs: list[tuple[str, float, float, bool]] = []

    def record(self, op, latency: float, error: str | None, scale: float = 1.0) -> None:
        ok = error is None
        if ok:
            digest = artifact_digest(op, self.work)
            first = self.digest.setdefault(op.name, digest)
            if digest != first:
                ok = False
                self.problem.setdefault(op.name, "artifacts differ between repetitions")
        else:
            self.problem.setdefault(op.name, error)
        self.runs.append((op.name, latency, latency * scale, ok))

    def check(self, ws, ops) -> None:
        """Run each distinct op's output check once; a failure fails all its runs."""
        by_name = {op.name: op for op in ops}
        for name in self.digest:
            if name in self.problem:
                continue
            op = by_name[name]
            try:
                problem = checks.CHECKS[op.command](ws, op, by_name)
            except Exception:
                problem = "output check raised: " + traceback.format_exc(limit=3)
            if problem is not None:
                self.problem[name] = problem

    @property
    def failed(self) -> int:
        return sum(1 for name, _, _, ok in self.runs if not ok or name in self.problem)

    def workload_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.digest):
            h.update(f"{name} {self.digest[name]}\n".encode())
        return h.hexdigest()


def timed_loop(ws, ops, ledger: Ledger, seconds: float) -> None:
    """Closed loop, one client: whole cycles of the ops, as many as fill ``seconds``.

    Whole cycles keep every op equally represented, so the latency mix does
    not depend on where the clock ran out.  At least two cycles run, so each
    op is repeated and its artifacts can be compared.  The reference is timed
    between consecutive ops; each op is scaled by the samples on both sides.
    ``seconds`` counts nominal seconds of command time, so how many cycles
    run depends on the program's speed, not on the host's.
    """
    run_op(ws, ops[0])  # warm-up, not recorded
    before = calibrate.sample()
    cycles = 0
    elapsed = 0.0
    while True:
        for op in ops:
            latency, error = run_op(ws, op)
            after = calibrate.sample()
            scale = calibrate.scale(before, after)
            ledger.record(op, latency, error, scale)
            elapsed += latency * scale
            before = after
        cycles += 1
        if cycles >= 2 and elapsed + elapsed / cycles / 2 >= seconds:
            return


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``.

    It weights every order statistic by a Beta((n+1)p, (n+1)(1-p)) density
    over its share of [0, 1], instead of picking one of them.  Where the
    samples near the quantile are sparse, a single order statistic jumps from
    one sample to the next with the noise; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    steps = 64  # midpoint rule on each order statistic's interval
    logs = []
    for i in range(n * steps):
        x = (i + 0.5) / (n * steps)
        logs.append(a * math.log(x) + b * math.log1p(-x))
    peak = max(logs)
    weights = [0.0] * n
    for i, value in enumerate(logs):
        weights[i // steps] += math.exp(value - peak)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with TAIL_BEYOND samples above it, and its percentile.

    The percentile is the highest one with TAIL_BEYOND samples beyond it; the
    latency there is the Harrell-Davis estimate.
    """
    rank = max(len(latencies) - TAIL_BEYOND, 1)
    return quantile(latencies, rank / len(latencies)), 100.0 * rank / len(latencies)


def latency_summary(runs: list, column: int) -> tuple[float, float, float, float]:
    """ops_per_s, op_p50_s, op_tail_s and the tail's percentile from one latency column.

    Each op counts at its median latency over its repetitions, so a burst of
    load from outside the process slows a few repetitions, not the estimate.
    The p50 is the Harrell-Davis median of those per-op medians.
    """
    by_op: dict[str, list[float]] = {}
    for run in runs:
        by_op.setdefault(run[0], []).append(run[column])
    medians = [statistics.median(samples) for samples in by_op.values()]
    tail_s, tail_pct = tail([run[column] for run in runs])
    return len(medians) / sum(medians), quantile(medians, 0.5), tail_s, tail_pct


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> dict:
    ws, ops, setup_s, setup_measured_s = setup(workload, seed, work, SETUP_REPEATS)
    ledger = Ledger(work)
    timed_loop(ws, ops, ledger, seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger.check(ws, ops)

    ops_per_s, op_p50_s, op_tail_s, tail_pct = latency_summary(ledger.runs, 2)
    raw_ops_per_s, raw_p50_s, raw_tail_s, _ = latency_summary(ledger.runs, 1)
    attempted, failed = len(ledger.runs), ledger.failed
    busy = sum(run[1] for run in ledger.runs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_s": (op_p50_s, "s"),
        "op_tail_s": (op_tail_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    host = statistics.median(run[1] / run[2] for run in ledger.runs) * calibrate.NOMINAL_S
    print(f"workload {workload} seed {seed}: {attempted} ops over {len(ops)} distinct, {busy:.3f} s busy")
    print(f"times in nominal seconds; the reference took {1000 * host:.3f} ms (nominal {1000 * calibrate.NOMINAL_S:g} ms)")
    print(f"measured: setup_s {setup_measured_s:.6g}, ops_per_s {raw_ops_per_s:.6g}, op_p50_s {raw_p50_s:.6g}, op_tail_s {raw_tail_s:.6g}")
    print(f"op_tail_s is p{tail_pct:.1f} of N={attempted} ({TAIL_BEYOND} samples beyond it)")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    return report(ledger, attempted, failed, metrics)


def traced(workload: str, seed: int, work: Path) -> dict:
    ws, ops, _, _ = setup(workload, seed, work, 1)
    plain = Ledger(work)
    start = time.perf_counter()
    for op in ops:
        plain.record(op, *run_op(ws, op))
    plain_wall = time.perf_counter() - start
    plain.check(ws, ops)

    tracer = tracing.Tracer()
    tracer.install()
    ledger = Ledger(work)
    ledger.digest = dict(plain.digest)  # a traced repetition must reproduce the untraced bytes
    ledger.problem = dict(plain.problem)
    try:
        start = time.perf_counter()
        for op in ops:
            ledger.record(op, *run_op(ws, op))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.finish()

    metrics = tracing.layer_metrics(tracer, wall, str(work))
    metrics["trace.overhead_ratio"] = wall / plain_wall
    dominant, idle = tracing.dominance(metrics)
    print(f"workload {workload} seed {seed}: traced {wall:.3f} s, untraced {plain_wall:.3f} s")
    for layer in tracing.LAYERS:
        print(f"  {layer:<13} wall share {metrics[f'{layer}.wall_share']:.3f}")
    print(f"dominant layer: {dominant}; idle layers: {', '.join(idle) or 'none'}")
    attempted = len(plain.runs) + len(ledger.runs)
    failed = plain.failed + ledger.failed
    return report(ledger, attempted, failed, {k: (v, tracing.unit(k)) for k, v in metrics.items()})


def report(ledger: Ledger, attempted: int, failed: int, metrics: dict) -> dict:
    print(f"artifact digest {ledger.workload_digest()}")
    for name, problem in sorted(ledger.problem.items()):
        print(f"FAILED {name}: {problem.strip()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, work)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
