"""The package surface.

The root re-exports exactly each module's ``__all__``, in module order;
deleted names stay deleted; and every entry point the benchmark tracer wraps
still exists under its name.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import weakstar
from weakstar import errors, faces, geometry, hypermetrics, limits, numerics, poulsen

MODULES = (errors, numerics, geometry, hypermetrics, faces, poulsen, limits)

# Names no command, acceptance criterion or claim of the paper needs; they
# stay module-level for the tests that use them, except ``Rational``.
UNEXPORTED = {
    "sup_norm",
    "support_value",
    "path_combine",
    "compositions",
    "fresh_combinations",
    "rational_from_str",
    "ClopenExpr",
    "extreme_deviation",
    "DeviationEstimate",
    "stadium_family",
    "Rational",
}


def test_root_all_is_every_module_all_in_order():
    assert weakstar.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]


def test_every_root_name_is_unique_and_resolves_to_its_module():
    assert len(set(weakstar.__all__)) == len(weakstar.__all__)
    assert isinstance(weakstar.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(weakstar, name) is getattr(module, name)


def test_certificate_error_is_exported():
    assert "CertificateError" in weakstar.__all__
    assert weakstar.CertificateError is errors.CertificateError


def test_unneeded_names_are_not_exported():
    assert not UNEXPORTED & set(weakstar.__all__)
    for name in UNEXPORTED - {"Rational"}:
        assert any(hasattr(module, name) for module in MODULES), name
    assert not hasattr(numerics, "Rational")


def test_unbounded_outcome_is_gone():
    # Every program the package builds has a bounded objective, so the engine
    # has no ray outcome; an unbounded program raises ``ValueError``.
    assert "BoundedUnbounded" not in weakstar.__all__
    assert not hasattr(numerics, "BoundedUnbounded")


def test_solve_bounded_only_maximizes():
    # Every program the package builds is a maximization (the Farkas test's
    # objective is empty), so there is no ``sense`` to choose.
    params = list(inspect.signature(numerics.solve_bounded).parameters)
    assert params == ["variables", "objective", "rows", "lower", "upper"]


def test_metric_config_holds_only_the_normalizing_set():
    # The metric always sums over the coordinate functionals e_{n-1}.
    assert [f.name for f in dataclasses.fields(hypermetrics.MetricConfig)] == ["normalizing_set"]


def test_no_assert_in_the_package():
    # The certificate checks must hold under ``python -O``, which strips asserts.
    sources = sorted(Path(weakstar.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} uses assert on lines {lines}"


def test_no_generator_argument_to_lcm_or_gcd():
    # A generator-fed argument tuple is grown by resizing, and once freed it
    # stays in the interpreter's tuple free lists until a full collection.
    sources = sorted(Path(weakstar.__file__).parent.glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in {"lcm", "gcd"}
            and any(isinstance(getattr(arg, "value", arg), ast.GeneratorExp) for arg in node.args)
        ]
        assert not lines, f"{path.name} passes a generator to lcm or gcd on lines {lines}"


def test_polyhedron_holds_only_its_generators():
    # ``closed_convex_hull`` alone decides irredundancy; a body carries no flag.
    assert [f.name for f in dataclasses.fields(geometry.Polyhedron)] == ["vertices", "rays"]
    with pytest.raises(TypeError):
        geometry.Polyhedron([numerics.SparseVec.zero()], irredundant=True)


def test_simplex_has_one_multiplier_rule_and_no_dead_state():
    assert not hasattr(numerics._Simplex, "_extract_infeasible")
    assert list(inspect.signature(numerics._Simplex._pivot).parameters) == ["self", "r", "e"]
    rows = [({"x": 1}, "=", 1), ({"x": 1}, "=", 1)]  # the duplicate row is dropped
    solver = numerics._Simplex(["x"], {"x": 1}, rows, {}, {})
    assert solver.run().value == 1
    assert not hasattr(solver, "dropped_rows")


def _self_attributes(method) -> set[str]:
    """The ``self.<name>`` attributes a method's source reads or calls."""
    tree = ast.parse(inspect.cleandoc("\n" + inspect.getsource(method)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def test_certificate_checks_never_read_the_tableau():
    # The checks certify the tableau's answer against the caller's program,
    # encoded once in ``__init__``; reading the tableau would certify it
    # against itself.
    tableau = {"T", "b", "den", "d", "dden", "basis", "nb", "slot", "ub", "scale"}
    encoding = {"rows", "low", "upp", "bden", "cost_nums", "cost_den", "varkeys", "_combine"}
    for name in ("_check_feasible_point", "_combine", "_check_optimal_bound", "_check_infeasibility"):
        read = _self_attributes(getattr(numerics._Simplex, name))
        assert not read & tableau, (name, read & tableau)
        assert read <= encoding, (name, read - encoding)
    assert not hasattr(numerics, "_dot")


def test_one_convex_combination_walk():
    # ``faces.fresh_combinations`` serves both the scheduler and the deviation
    # sampler; the scheduler keeps no per-stage vertex copies.
    for name in ("SchedulerState", "scheduler_start", "scheduler_next", "scheduler_register", "_next_fresh"):
        assert not hasattr(poulsen, name), name
    for name in ("convex_combinations", "_sample_points"):
        assert not hasattr(faces, name), name
    assert "schedule_state" not in [f.name for f in dataclasses.fields(poulsen.PoulsenTrace)]


def _tracing_module(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(monkeypatch):
    # The tracer rebinds each name by attribute lookup, so a renamed or deleted
    # function would crash every traced benchmark run.
    tracing = _tracing_module(monkeypatch)
    missing = [
        f"{layer}.{name}"
        for layer, name, _ in tracing.ENTRY_POINTS
        if not callable(getattr(importlib.import_module(f"weakstar.{layer}"), name, None))
    ]
    assert not missing


def test_command_dispatch_reads_the_module_attributes(monkeypatch, capsys):
    # The tracer rebinds ``cmd_*`` after ``main`` has built and kept its
    # parser, so ``main`` must look the command up at call time.
    from weakstar import cli

    tracing = _tracing_module(monkeypatch)
    assert cli.main([]) == 2  # no command: the parser is built and says so
    argv = {"poulsen": ["t", "--epsilon", "1", "--steps", "1"], "distance": ["a", "b"]}
    for command in tracing.COMMANDS:
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args, seen=seen: seen.append(args.command) or 7)
        assert cli.main([command, *argv.get(command, ["x"])]) == 7
        assert seen == [command]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from weakstar import cli

    assert cli.main([]) == 2

    def refuse(*args, **kwargs):
        raise RuntimeError("main built a second parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    monkeypatch.setattr(cli, "cmd_hull", lambda args: 0)
    assert cli.main(["hull", "x"]) == 0
