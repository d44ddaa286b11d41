"""Frozen copy of the always-LP exposure check, kept as a test oracle.

This is the ``designated_exposed`` loop of ``weakstar.poulsen.verify_trace`` as
it shipped before the stored functionals were checked first, copied verbatim:
every appended vertex gets a fresh exposure program on the final vertex set.
``test_poulsen.py::TestExposureDifferential`` requires the current check to
give the same ``(passed, detail)`` on clean and tampered runs.
"""

from __future__ import annotations

from weakstar.faces import exposure_certificate
from weakstar.geometry import Polyhedron
from weakstar.poulsen import PoulsenTrace


def designated_exposed(result: Polyhedron, trace: PoulsenTrace) -> tuple[bool, str]:
    steps = trace.steps
    exposure_bad = []
    for step in steps:
        try:
            cert = exposure_certificate(result, step.new_vertex)
        except Exception as exc:
            exposure_bad.append(f"step {step.index}: {exc}")
            continue
        if cert.margin <= 0:
            exposure_bad.append(f"step {step.index}: nonpositive margin")
    return not exposure_bad, "; ".join(exposure_bad) or f"fresh exposure programs passed for all {len(steps)} vertices"
