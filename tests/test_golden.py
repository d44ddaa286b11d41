"""Golden corpus: every CLI command's artifacts and output, byte for byte.

Each case runs ``weakstar.cli.main`` in a temporary copy of
``tests/golden/inputs`` with relative input and ``--out`` paths, so the run
manifests embedded in the artifacts do not depend on where the suite runs.
The expected exit code, standard output and every emitted file live under
``tests/golden/expected/<case>/``.  Unlike the rerun tests in ``test_cli.py``,
which compare two runs of one version, these bytes were written once and pin
the artifacts across versions of the library.

A change that alters artifacts on purpose regenerates the corpus with
``PYTHONPATH=src python tests/test_golden.py`` and says so.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from weakstar import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

CASES: dict[str, list[str]] = {
    "poulsen_plain": ["poulsen", "inputs/square.json", "--epsilon", "1/2", "--steps", "12"],
    "poulsen_positive": [
        "poulsen", "inputs/corner.json", "--epsilon", "1/4", "--steps", "6", "--variant", "positive", "--seed", "3",
    ],
    "poulsen_state": [
        "poulsen", "inputs/simplex.json", "--epsilon", "1/2", "--steps", "6", "--variant", "state", "--seed", "7",
    ],
    "expose_square": ["expose", "inputs/square.json"],
    "expose_triangle": ["expose", "inputs/triangle.json", "--approx"],
    "hull_cloud": ["hull", "inputs/cloud.json"],
    "hull_rays": ["hull", "inputs/rays.json"],
    "hull_line": ["hull", "inputs/line.json"],
    "vertices_cloud": ["vertices", "inputs/cloud.json"],
    "vertices_rays": ["vertices", "inputs/wedge.json"],
    "distance_full": ["distance", "inputs/square.json", "inputs/triangle.json"],
    "distance_radius": ["distance", "inputs/triangle.json", "inputs/square.json", "--radius", "2", "--approx"],
    "distance_direction": ["distance", "inputs/square.json", "inputs/cloud.json", "--direction", "0:1,1:-1/2"],
    "distance_normalizing": [
        "distance", "inputs/triangle.json", "inputs/corner.json", "--normalizing-set", "inputs/ball.json",
    ],
    "decompose": ["decompose", "inputs/vector.json"],
    "limits_monotone": ["limits", "inputs/monotone.json"],
    "limits_lils": ["limits", "inputs/lils.json"],
    "immeasurable_ray": ["immeasurable", "inputs/square.json", "inputs/halfline.json"],
    "immeasurable_none": ["immeasurable", "inputs/square.json", "inputs/triangle.json"],
    "demo": ["demo", "--spikes", "4", "--directions", "8", "--seed", "5"],
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case inside ``workdir``; return every produced file by name."""
    shutil.copytree(INPUTS, workdir / "inputs")
    argv = CASES[name] + ["--out", "out"]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return collect(workdir, code, stdout.getvalue().encode())


def collect(workdir: Path, code: int, stdout: bytes) -> dict[str, bytes]:
    """The exit code, standard output and every file under ``workdir/out``, by name."""
    produced = {"exit_code.txt": f"{code}\n".encode(), "stdout.txt": stdout}
    for path in sorted((workdir / "out").iterdir()):
        produced[path.name] = path.read_bytes()
    return produced


def expected_files(name: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted((EXPECTED / name).iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_bytes(name, tmp_path):
    produced = run_case(name, tmp_path)
    expected = expected_files(name)
    assert sorted(produced) == sorted(expected)
    for filename, data in expected.items():
        assert produced[filename] == data, f"{name}/{filename} differs from the golden bytes"


def test_process_entry_point_matches_golden_bytes(tmp_path):
    # ``python -m weakstar.cli`` in a new process, at this process's -O level.
    name = "distance_full"
    shutil.copytree(INPUTS, tmp_path / "inputs")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "weakstar.cli", *CASES[name], "--out", "out"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert done.stderr == b""
    assert collect(tmp_path, done.returncode, done.stdout) == expected_files(name)


def test_every_command_is_covered():
    commands = {argv[0] for argv in CASES.values()}
    assert commands == set(cli.build_parser()._subparsers._group_actions[0].choices)


def regenerate() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            produced = run_case(name, Path(tmp))
        target = EXPECTED / name
        target.mkdir(parents=True)
        for filename, data in produced.items():
            (target / filename).write_bytes(data)
        print(f"{name}: {len(produced)} files", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
