"""End-to-end tests of the command-line front end and its file format."""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakstar import cli
from weakstar.errors import ParseError
from weakstar.geometry import PointSet, Polyhedron, closed_convex_hull
from weakstar.numerics import SparseVec, as_rational


def write_doc(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def vj(entries):
    return [[index, text] for index, text in sorted(entries.items())]


def points_doc(*vecs):
    return {"kind": "points", "points": [vj(v) for v in vecs]}


def poly_doc(vertices, rays=()):
    return {"kind": "polyhedron", "vertices": [vj(v) for v in vertices], "rays": [vj(r) for r in rays]}


class Reached(Exception):
    """Raised by a stand-in for the work a command starts once its checks pass."""


def reached(*args, **kwargs):
    raise Reached


@pytest.fixture
def files(tmp_path):
    return {
        "origin": write_doc(tmp_path / "origin.json", points_doc({})),
        "e0": write_doc(tmp_path / "e0.json", points_doc({0: "1"})),
        "square": write_doc(
            tmp_path / "square.json",
            poly_doc([{0: "1/4", 1: "1/4"}, {0: "-1/4", 1: "1/4"}, {0: "1/4", 1: "-1/4"}, {0: "-1/4", 1: "-1/4"}]),
        ),
        "spike5": write_doc(tmp_path / "spike5.json", points_doc({5: "32"})),
        "vec": write_doc(tmp_path / "vec.json", {"kind": "vector", "entries": vj({0: "3", 1: "-2"})}),
        "ray": write_doc(tmp_path / "ray.json", poly_doc([{}], rays=[{1: "1"}])),
        "dir": tmp_path,
    }


class TestSerialization:
    def test_vector_round_trip(self):
        v = SparseVec({0: "1/3", 7: -2})
        assert cli.vec_from_json(cli.vec_to_json(v)) == v

    def test_zero_vector_is_empty_list(self):
        assert cli.vec_to_json(SparseVec.zero()) == []
        assert cli.vec_from_json([]) == SparseVec.zero()

    def test_set_round_trip_points(self, tmp_path):
        original = PointSet([SparseVec({0: 1}), SparseVec({1: "1/2"})])
        path = tmp_path / "s.json"
        path.write_text(cli.render_document(cli.set_to_json(original)))
        assert cli.load_set(str(path)) == original

    def test_set_round_trip_polyhedron(self, tmp_path):
        original = Polyhedron([SparseVec({0: 1})], rays=[SparseVec({2: "5/3"})])
        path = tmp_path / "p.json"
        path.write_text(cli.render_document(cli.set_to_json(original)))
        loaded = cli.load_set(str(path))
        assert loaded.vertices == original.vertices
        assert loaded.rays == original.rays

    def test_render_is_deterministic(self):
        doc = cli.set_to_json(Polyhedron([SparseVec({1: "2/4"})]))
        assert cli.render_document(doc) == cli.render_document(doc)
        assert cli.render_document(doc).endswith("\n")

    def test_rationals_emitted_canonically(self):
        doc = cli.set_to_json(PointSet([SparseVec({0: "2/4"})]))
        assert doc["points"] == [[[0, "1/2"]]]

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"no_kind": true}',
            '{"kind": "mystery"}',
            '{"kind": "points", "points": [[["x", "1/2"]]]}',
            '{"kind": "points", "points": [[[0, 5]]]}',
            '{"kind": "points", "points": [[[0, "1/0"]]]}',
            '{"kind": "points", "points": [[[0, "1"], [0, "2"]]]}',
            '{"kind": "points", "points": [[[-1, "1"]]]}',
            '{"kind": "points", "points": []}',
            '{"kind": "polyhedron", "vertices": [], "rays": []}',
            '{"kind": "vector", "entries": [[true, "1"]]}',
        ],
    )
    def test_malformed_documents_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            if "vector" in text:
                cli.load_vector(str(path))
            else:
                cli.load_set(str(path))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            cli.load_set(str(tmp_path / "nothing.json"))


class TestParseFunctional:
    def test_basis_shorthand(self):
        assert cli.parse_functional("e5") == SparseVec.basis(5)

    def test_pair_list(self):
        assert cli.parse_functional("0:1,3:-2/5") == SparseVec({0: 1, 3: "-2/5"})

    def test_file_path(self, tmp_path):
        path = write_doc(tmp_path / "f.json", {"kind": "vector", "entries": vj({2: "7"})})
        assert cli.parse_functional(path) == SparseVec.basis(2, 7)

    @pytest.mark.parametrize(
        "spec",
        ["0:1,0:2", "x:1", "3", "1:", "e\u0663", "1_0:1", "+1:1", " 2 :1/2", "e01", "01:1"]
        + [pytest.param("e" + "9" * 5000, id="long-index"), pytest.param("x" * 300, id="long-name")]
        + [pytest.param(f"e{cli.INDEX_MAX + 1}", id="index-past-limit"), f"{cli.INDEX_MAX + 1}:1"],
    )
    def test_bad_directions_rejected(self, spec):
        with pytest.raises(ParseError):
            cli.parse_functional(spec)


class TestDistance:
    def test_self_distance_is_zero(self, files, capsys):
        assert cli.main(["distance", files["origin"], files["origin"]]) == 0
        assert as_rational(capsys.readouterr().out.strip()) == 0

    def test_two_singletons(self, files, capsys):
        assert cli.main(["distance", files["origin"], files["e0"]]) == 0
        assert capsys.readouterr().out.strip() == "1/4"

    def test_directional_mode_reads_one_coordinate(self, files, capsys):
        assert cli.main(["distance", files["spike5"], files["origin"], "--direction", "e5"]) == 0
        assert as_rational(capsys.readouterr().out.strip()) == 32
        assert cli.main(["distance", files["spike5"], files["origin"], "--direction", "e0"]) == 0
        assert as_rational(capsys.readouterr().out.strip()) == 0

    def test_directional_mode_prints_inf(self, files, capsys):
        assert cli.main(["distance", files["ray"], files["origin"], "--direction", "e1"]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_full_metric_rejects_unbounded_input(self, files, capsys):
        assert cli.main(["distance", files["ray"], files["origin"]]) == 3
        assert "precondition violated" in capsys.readouterr().err

    def test_approx_column_is_labeled(self, files, capsys):
        assert cli.main(["distance", files["origin"], files["e0"], "--approx"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1/4"
        assert "non-authoritative" in lines[1] and "0.25" in lines[1]

    def test_approx_renders_a_value_past_the_float_range(self, tmp_path, capsys):
        huge = write_doc(tmp_path / "huge.json", points_doc({0: "1" + "0" * 400}))
        origin = write_doc(tmp_path / "origin.json", points_doc({}))
        out = tmp_path / "report"
        assert cli.main(["distance", huge, origin, "--direction", "e0", "--approx", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "approx distance (non-authoritative): 1e+400"
        doc = json.loads((out / "distance.json").read_text())
        assert doc["approx_non_authoritative"] == "1e+400"
        assert cli.approx_text(-Fraction(10**400, 3)) == "-3.333333333e+399"

    def test_approx_renders_a_nonzero_value_below_the_float_range(self, tmp_path, capsys):
        # float() gives 0 (or -0) for these; a nonzero distance must not read as 0.
        tiny = write_doc(tmp_path / "tiny.json", points_doc({0: "1/1" + "0" * 400}))
        origin = write_doc(tmp_path / "origin.json", points_doc({}))
        assert cli.main(["distance", tiny, origin, "--direction", "e0", "--approx"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "approx distance (non-authoritative): 1e-400"
        assert cli.approx_text(Fraction(-3, 10**330)) == "-3e-330"
        assert cli.approx_text(Fraction(0)) == "0"
        assert cli.approx_text(Fraction(sys.float_info.min)) == f"{sys.float_info.min:.10g}"

    def test_report_embeds_manifest(self, files, tmp_path, capsys):
        out = tmp_path / "report"
        assert cli.main(["distance", files["origin"], files["e0"], "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "distance.json").read_text())
        assert doc["distance"] == "1/4"
        manifest = doc["manifest"]
        assert manifest["command"] == "distance"
        assert manifest["inputs"] == [files["origin"], files["e0"]]
        assert manifest["config"]["radius"] == "1/1"
        assert manifest["output_dir"] == str(out)

    def test_reruns_are_byte_identical(self, files, tmp_path, capsys):
        out = tmp_path / "rep"
        argv = ["distance", files["square"], files["e0"], "--out", str(out)]
        assert cli.main(argv) == 0
        first_out = capsys.readouterr().out
        first_bytes = (out / "distance.json").read_bytes()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first_out
        assert (out / "distance.json").read_bytes() == first_bytes

    def test_custom_normalizing_set(self, files, capsys):
        argv = ["distance", files["origin"], files["e0"], "--normalizing-set", files["square"]]
        assert cli.main(argv) == 3  # the singleton e0 lies outside the small square
        capsys.readouterr()


class TestPoulsen:
    def test_run_passes_and_emits_artifacts(self, files, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["poulsen", files["origin"], "--epsilon", "1/2", "--steps", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert "FAIL" not in stdout
        assert "11/11 checks passed" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
        for name in ("result.json", "trace.json", "report.json"):
            doc = json.loads((out / name).read_text())
            assert doc["manifest"]["command"] == "poulsen"
            assert doc["manifest"]["config"]["epsilon"] == "1/2"

    def test_emitted_result_reparses_and_reverifies(self, files, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["poulsen", files["square"], "--epsilon", "1/4", "--steps", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        result = cli.load_set(str(out / "result.json"))
        assert isinstance(result, Polyhedron)
        hull = closed_convex_hull(result)
        assert set(hull.vertices) == set(result.vertices)
        trace = json.loads((out / "trace.json").read_text())
        assert [step["blend"] for step in trace["steps"]] == ["1/16", "1/32"]

    def test_rerun_byte_identical(self, files, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["poulsen", files["origin"], "--epsilon", "1/2", "--steps", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        snapshots = {name: (out / name).read_bytes() for name in ("result.json", "trace.json", "report.json")}
        assert cli.main(argv) == 0
        capsys.readouterr()
        for name, data in snapshots.items():
            assert (out / name).read_bytes() == data

    def test_state_variant_needs_simplex_target(self, files, capsys):
        argv = ["poulsen", files["origin"], "--epsilon", "1/2", "--steps", "1", "--variant", "state"]
        assert cli.main(argv) == 3
        assert "precondition violated" in capsys.readouterr().err

    def test_positive_variant_runs_clean(self, files, capsys):
        argv = ["poulsen", files["origin"], "--epsilon", "1/2", "--steps", "2", "--variant", "positive"]
        assert cli.main(argv) == 0
        capsys.readouterr()

    def test_step_limit(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "construct", reached)
        argv = ["poulsen", files["origin"], "--epsilon", "1/2", "--steps"]
        with pytest.raises(Reached):
            cli.main([*argv, str(cli.STEPS_MAX)])
        assert cli.main([*argv, str(cli.STEPS_MAX + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--steps {cli.STEPS_MAX + 1} exceeds the limit of {cli.STEPS_MAX}" in captured.err

    def test_fresh_coordinates_stay_within_the_index_limit(self, tmp_path, capsys):
        # Every step names the next fresh coordinate in result.json, which
        # must load again: index 999 leaves room for one step, not two.
        target = write_doc(tmp_path / "far.json", points_doc({cli.INDEX_MAX - 1: "1/2"}))
        out = tmp_path / "run"
        argv = ["poulsen", target, "--epsilon", "1/2", "--out", str(out), "--steps"]
        assert cli.main([*argv, "1"]) == 0
        assert cli.main(["hull", str(out / "result.json")]) == 0
        capsys.readouterr()
        for steps in ("2", "3"):
            assert cli.main([*argv, steps]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"exceeds the limit of {cli.INDEX_MAX}" in captured.err


class TestExpose:
    def test_square_vertices_all_exposed(self, files, tmp_path, capsys):
        out = tmp_path / "exp"
        assert cli.main(["expose", files["square"], "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all("margin" in line for line in lines)
        doc = json.loads((out / "exposure.json").read_text())
        assert len(doc["certificates"]) == 4
        assert all(as_rational(cert["margin"]) > 0 for cert in doc["certificates"])

    def test_unbounded_body_is_a_precondition_violation(self, files, capsys):
        assert cli.main(["expose", files["ray"]]) == 3
        capsys.readouterr()


class TestHullAndVertices:
    def test_hull_prunes_redundant_generators(self, files, tmp_path, capsys):
        redundant = write_doc(
            tmp_path / "red.json",
            points_doc({0: "1/4", 1: "1/4"}, {0: "-1/4", 1: "1/4"}, {0: "1/4", 1: "-1/4"}, {0: "-1/4", 1: "-1/4"}, {}),
        )
        out = tmp_path / "h"
        assert cli.main(["hull", redundant, "--out", str(out)]) == 0
        assert "vertices: 4" in capsys.readouterr().out
        emitted = cli.load_set(str(out / "hull.json"))
        assert isinstance(emitted, Polyhedron)
        assert len(emitted.vertices) == 4
        assert closed_convex_hull(emitted).vertices == emitted.vertices

    def test_vertices_emits_points_file(self, files, tmp_path, capsys):
        out = tmp_path / "v"
        assert cli.main(["vertices", files["square"], "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        emitted = cli.load_set(str(out / "vertices.json"))
        assert isinstance(emitted, PointSet)
        assert len(emitted.points) == 4


class TestDecompose:
    def test_two_files_with_disjoint_parts(self, files, tmp_path, capsys):
        out = tmp_path / "parts"
        assert cli.main(["decompose", files["vec"], "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["positive 0:3/1", "negative 1:2/1"]
        positive = cli.load_vector(str(out / "positive.json"))
        negative = cli.load_vector(str(out / "negative.json"))
        assert positive == SparseVec({0: 3})
        assert negative == SparseVec({1: 2})
        assert positive - negative == SparseVec({0: 3, 1: -2})


class TestLimits:
    def nested_query(self, tmp_path, extra):
        for n in (1, 2, 3):
            top = 1 - as_rational(f"1/{2 ** n}")
            write_doc(tmp_path / f"seg{n}.json", poly_doc([{}, {0: str(top)}]))
        doc = {"kind": "limit-query", "sets": ["seg1.json", "seg2.json", "seg3.json"], **extra}
        return write_doc(tmp_path / "query.json", doc)

    def test_monotone_table_and_limit_set(self, tmp_path, capsys):
        query = self.nested_query(tmp_path, {"monotone": True})
        out = tmp_path / "lim"
        assert cli.main(["limits", query, "--out", str(out)]) == 0
        assert "3/32 1/32 0/1" in capsys.readouterr().out
        report = json.loads((out / "limits.json").read_text())
        assert report["table"] == ["3/32", "1/32", "0/1"]
        limit = cli.load_set(str(out / "limit_set.json"))
        assert isinstance(limit, Polyhedron)
        assert len(limit.vertices) == 2

    def test_li_ls_verdicts(self, tmp_path, capsys):
        candidates = write_doc(tmp_path / "cands.json", points_doc({}, {0: "7/8"}))
        query = self.nested_query(
            tmp_path, {"tolerance": "1/16", "stabilization_index": 0, "candidates": "cands.json"}
        )
        out = tmp_path / "lim"
        assert cli.main(["limits", query, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "candidate 0: lower-limit yes, upper-limit yes" in lines[0]
        assert "candidate 0:7/8: lower-limit no, upper-limit yes" in lines[1]
        report = json.loads((out / "limits.json").read_text())
        assert report["verdicts"][1]["distances"] == ["3/32", "1/32", "0/1"]
        assert report["verdicts"][1]["in_lower_limit"] is False
        assert report["verdicts"][1]["in_upper_limit"] is True

    @pytest.mark.parametrize("tolerance", [True, 0.5, 1])
    def test_non_string_tolerance_is_a_parse_error(self, tmp_path, capsys, tolerance):
        candidates = write_doc(tmp_path / "cands.json", points_doc({}))
        query = self.nested_query(tmp_path, {"tolerance": tolerance, "candidates": "cands.json"})
        assert cli.main(["limits", query]) == 2
        assert "'tolerance'" in capsys.readouterr().err

    def test_non_nested_monotone_query_violates_precondition(self, tmp_path, capsys):
        write_doc(tmp_path / "seg1.json", poly_doc([{}, {0: "1/2"}]))
        write_doc(tmp_path / "seg2.json", poly_doc([{}, {0: "1/4"}]))
        query = write_doc(
            tmp_path / "query.json",
            {"kind": "limit-query", "sets": ["seg1.json", "seg2.json"], "monotone": True},
        )
        assert cli.main(["limits", query]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "limit-query", "sets": []},
            {"kind": "limit-query", "sets": "seg1.json"},
            {"kind": "limit-query", "sets": ["seg1.json"], "monotone": "yes"},
            {"kind": "limit-query", "sets": ["seg1.json"]},
            {"kind": "wrong", "sets": ["seg1.json"]},
        ],
    )
    def test_malformed_queries_are_parse_errors(self, tmp_path, capsys, doc):
        write_doc(tmp_path / "seg1.json", poly_doc([{}]))
        query = write_doc(tmp_path / "query.json", doc)
        assert cli.main(["limits", query]) == 2
        capsys.readouterr()

    def test_sets_past_the_limit_are_a_parse_error(self, tmp_path, capsys, monkeypatch):
        def no_reading(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "load_body", no_reading)
        doc = {"kind": "limit-query", "sets": ["seg1.json"] * (cli.GENERATORS_MAX + 1)}
        query = write_doc(tmp_path / "query.json", doc)
        assert cli.main(["limits", query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'sets' exceeds the limit of {cli.GENERATORS_MAX} entries" in captured.err


class TestImmeasurable:
    def test_bounded_pair_has_no_witness(self, files, tmp_path, capsys):
        out = tmp_path / "w"
        assert cli.main(["immeasurable", files["square"], files["origin"], "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "none"
        assert json.loads((out / "witness.json").read_text())["witness"] is None

    def test_ray_pair_yields_witness(self, files, tmp_path, capsys):
        out = tmp_path / "w"
        assert cli.main(["immeasurable", files["square"], files["ray"], "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "1:1/1"
        doc = json.loads((out / "witness.json").read_text())
        assert cli.vec_from_json(doc["witness"]) == SparseVec.basis(1)


class TestDemo:
    def test_runs_both_demonstrations(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert cli.main(["demo", "--spikes", "5", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "distance-to-zero 1/6" in stdout
        assert "distance-to-zero 1/66" in stdout
        assert "largest l1 norm over the hull: 32/1" in stdout
        assert "refinement ratios: 2/1 2/1 2/1" in stdout
        report = json.loads((out / "demo.json").read_text())
        assert report["spike_family"]["max_l1"] == "32/1"
        assert report["polygon_sweep"]["ratios"] == ["2/1", "2/1", "2/1"]
        assert [row["generators"] for row in report["polygon_sweep"]["rows"]] == [8, 16, 32, 64]

    @pytest.mark.parametrize("flag", ["--directions", "--spikes"])
    def test_bad_parameter_rejected_before_any_output(self, capsys, flag):
        assert cli.main(["demo", flag, "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "BadParameter" in captured.err

    @pytest.mark.parametrize("flag, limit", [("--spikes", cli.SPIKES_MAX), ("--directions", cli.DIRECTIONS_MAX)])
    def test_count_limits(self, capsys, monkeypatch, flag, limit):
        monkeypatch.setattr(cli, "counterexample_demo", reached)
        with pytest.raises(Reached):
            cli.main(["demo", flag, str(limit)])
        assert cli.main(["demo", flag, str(limit + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} {limit + 1} exceeds the limit of {limit}" in captured.err

    def test_demo_output_is_deterministic(self, capsys):
        assert cli.main(["demo", "--spikes", "2"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["demo", "--spikes", "2"]) == 0
        assert capsys.readouterr().out == first


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        assert cli.main(["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_vector_file_is_not_a_set(self, files, capsys):
        assert cli.main(["distance", files["vec"], files["origin"]]) == 2
        capsys.readouterr()

    def test_bad_rational_flag(self, files, capsys):
        assert cli.main(["poulsen", files["origin"], "--epsilon", "zero", "--steps", "1"]) == 2
        capsys.readouterr()

    def test_literal_outside_grammar_in_a_set_file(self, tmp_path, capsys):
        path = write_doc(tmp_path / "big.json", points_doc({0: "1e200000"}))
        assert cli.main(["hull", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad rational literal '1e200000'" in captured.err

    def test_oversized_literal_is_a_parse_error(self, tmp_path, capsys):
        # Both literals fit the grammar; their difference would have a
        # denominator of 8,000 digits, more than int() will print.
        first = write_doc(tmp_path / "a.json", points_doc({0: "1/" + "7" * 4000}))
        second = write_doc(tmp_path / "b.json", points_doc({0: "1/1" + "0" * 3999 + "1"}))
        assert cli.main(["distance", first, second, "--direction", "e0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds 1000 digits" in captured.err

    @pytest.mark.parametrize("epsilon", ["1e-3", "1.5", "1_000", " 3/4 ", "+1"])
    def test_flag_outside_grammar(self, files, capsys, epsilon):
        assert cli.main(["poulsen", files["origin"], "--epsilon", epsilon, "--steps", "1"]) == 2
        assert f"bad rational literal {epsilon!r}" in capsys.readouterr().err

    def test_index_too_long_to_convert_is_a_parse_error(self, tmp_path, capsys):
        # json.loads itself refuses an integer of more than 4,300 digits.
        path = tmp_path / "long.json"
        path.write_text('{"kind": "points", "points": [[[' + "1" * 5001 + ', "1"]]]}')
        assert cli.main(["hull", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "number too long to read" in captured.err

    @pytest.mark.parametrize("index", [cli.INDEX_MAX + 1, 10**4000])
    def test_index_past_the_limit_is_a_parse_error(self, tmp_path, capsys, index):
        path = write_doc(tmp_path / "far.json", {"kind": "points", "points": [[[index, "1"]]]})
        assert cli.main(["hull", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"coordinate index exceeds the limit of {cli.INDEX_MAX}" in captured.err

    def test_index_at_the_limit_is_read(self, tmp_path, capsys):
        path = write_doc(tmp_path / "edge.json", points_doc({cli.INDEX_MAX: "1/2"}))
        assert cli.main(["distance", path, path]) == 0
        assert cli.main(["distance", path, path, "--direction", f"e{cli.INDEX_MAX}"]) == 0
        assert capsys.readouterr().out.split() == ["0/1", "0/1"]

    @pytest.mark.parametrize("key", ["points", "vertices", "rays"])
    def test_generators_past_the_limit_are_a_parse_error(self, tmp_path, capsys, key):
        many = [vj({0: str(k + 1)}) for k in range(cli.GENERATORS_MAX + 1)]
        doc = {"kind": "points", "points": many} if key == "points" else poly_doc([{}])
        if key != "points":
            doc[key] = many
        path = write_doc(tmp_path / "many.json", doc)
        assert cli.main(["hull", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"field {key!r} exceeds the limit of 1000 generators" in captured.err

    def test_generators_at_the_limit_are_read(self, files, capsys):
        path = write_doc(files["dir"] / "many.json", points_doc(*({0: str(k)} for k in range(cli.GENERATORS_MAX))))
        assert cli.main(["distance", path, files["origin"], "--direction", "e0"]) == 0
        assert capsys.readouterr().out == "999/1\n"

    def test_result_too_long_to_write_is_a_precondition_error(self, tmp_path, capsys):
        # Every literal is within the digit limit, but the exact distance has
        # a denominator of about 12,000 digits, more than int() will print.
        rng = random.Random(0)
        first, second = (
            write_doc(tmp_path / name, points_doc({k: f"1/{rng.randrange(10**999, 10**1000)}" for k in range(6)}))
            for name in ("a.json", "b.json")
        )
        assert cli.main(["distance", first, second]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert cli.main(["hull", str(path)]) == 2
        assert "nests too deeply" in capsys.readouterr().err

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["hull", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_refused_without_being_opened(self, tmp_path, monkeypatch, capsys):
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        monkeypatch.setattr(cli, "open", reached, raising=False)  # opening a FIFO with no writer would block
        assert cli.main(["vertices", str(fifo)]) == 2
        assert "it is a FIFO, not a regular file" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_character_device_is_refused_without_being_opened(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "open", reached, raising=False)
        assert cli.main(["hull", "/dev/null"]) == 2
        assert "it is a character device, not a regular file" in capsys.readouterr().err

    def test_directory_is_refused(self, tmp_path, capsys):
        assert cli.main(["hull", str(tmp_path)]) == 2
        assert "it is a directory, not a regular file" in capsys.readouterr().err

    def test_file_over_the_byte_cap_is_refused(self, tmp_path, monkeypatch, capsys):
        text = json.dumps(points_doc({0: "1/2"}))
        monkeypatch.setattr(cli, "DOCUMENT_BYTES_MAX", len(text) + 1)
        at_cap = tmp_path / "at_cap.json"
        at_cap.write_text(text + "\n")
        assert cli.main(["vertices", str(at_cap)]) == 0
        over = tmp_path / "over.json"
        over.write_text(text + "\n\n")
        assert cli.main(["vertices", str(over)]) == 2
        assert f"exceeds the limit of {len(text) + 1} bytes" in capsys.readouterr().err
        # A file that has grown since stat read its size is read on to the cap.
        real_stat = os.stat

        def stale(path, *args, **kwargs):
            info = real_stat(path, *args, **kwargs)
            return os.stat_result((*info[:6], 0, *info[7:])) if str(path) in (str(at_cap), str(over)) else info

        monkeypatch.setattr(os, "stat", stale)
        assert cli.main(["vertices", str(at_cap)]) == 0
        assert cli.main(["vertices", str(over)]) == 2
        assert f"exceeds the limit of {len(text) + 1} bytes" in capsys.readouterr().err

    def test_precondition_messages_name_the_violation(self, files, capsys):
        assert cli.main(["poulsen", files["spike5"], "--epsilon", "1/2", "--steps", "1"]) == 3
        err = capsys.readouterr().err
        assert "TargetOutsidePolar" in err

    def test_unbounded_normalizing_set(self, files, capsys):
        argv = ["distance", files["origin"], files["e0"], "--normalizing-set", files["ray"]]
        assert cli.main(argv) == 3
        capsys.readouterr()

    def test_usage_errors_exit_two(self, capsys):
        assert cli.main(["no-such-command"]) == 2
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "distance" in capsys.readouterr().out


# Small documents, valid and not: at most 4 points on coordinates 0-3, some
# well formed, some with indices and literals drawn from arbitrary values or
# at and past the index limit, beside arbitrary JSON and arbitrary bytes,
# single-entry files whose index has up to 6,000 digits, and generator lists
# past the length limit.
valid_vectors = st.dictionaries(st.integers(0, 3), st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2/4"]), max_size=4).map(vj)
huge_indices = st.sampled_from([cli.INDEX_MAX, cli.INDEX_MAX + 1]) | st.integers(cli.INDEX_MAX, 10**4000)
any_vectors = st.lists(
    st.tuples(st.integers(-1, 3) | huge_indices | st.text(max_size=2), st.text(max_size=5) | st.integers(0, 3)).map(list),
    max_size=4,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def set_documents(vectors):
    return st.fixed_dictionaries({"kind": st.just("points"), "points": st.lists(vectors, max_size=4)}) | (
        st.fixed_dictionaries(
            {"kind": st.just("polyhedron"), "vertices": st.lists(vectors, max_size=4), "rays": st.lists(vectors, max_size=2)}
        )
    )


documents = set_documents(valid_vectors) | set_documents(any_vectors) | json_values
long_index_files = st.integers(1, 6000).map(lambda digits: b'{"kind": "points", "points": [[[' + b"9" * digits + b', "1"]]]}')
oversized_lists = st.builds(
    lambda key, count: json.dumps(
        {"kind": "points" if key == "points" else "polyhedron", "vertices": [[]], key: [[[0, "1"]]] * count}
    ).encode(),
    st.sampled_from(["points", "vertices", "rays"]),
    st.integers(cli.GENERATORS_MAX + 1, 3 * cli.GENERATORS_MAX),
)
set_files = (
    st.binary(max_size=48) | documents.map(lambda doc: json.dumps(doc).encode()) | long_index_files | oversized_lists
)


@given(content=set_files)
@settings(max_examples=80, deadline=None)
def test_fuzzed_set_files_end_in_a_documented_exit_code(content):
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "set.json")
        Path(path).write_bytes(content)
        for argv in (["hull", path], ["distance", path, path]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 2, 3)
