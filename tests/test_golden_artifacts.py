"""Golden artifacts: the full registered suite against committed results.

``tests/golden/suite_smoke.json`` holds, for each of the sixteen registered
experiments, the bound parameters it ran with and its
``ExperimentResult.to_dict()``.  The scale is the pipeline-suite smoke
scale (a 384-ray lego trace for the locality experiments, two cache sizes,
two occupancy resolutions, a two-table embedding front end, a tiny
training run), with the DRAM timing model switched on for fig12, fig13 and
fig15 so the hierarchy-to-DRAM path runs too.

The file was written once, from the code before the duplicate pre-IR
context accessors and ndarray shims were removed, and pins that behaviour:
a refactor of any layer on the memory path must reproduce it.  Do not
regenerate it to make a change pass; a deliberate change of results needs
its own justification.

Keys, ints, bools and strings must match exactly; floats to a relative
tolerance of 1e-9 (a guard against last-ulp differences between BLAS
builds, far below any modelled effect).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.pipeline import SimulationContext, all_experiments, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden" / "suite_smoke.json"


def _assert_matches(actual: Any, expected: Any, path: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert type(actual) is float, f"{path}: {actual!r} is not a float"
        both_nan = math.isnan(actual) and math.isnan(expected)
        assert both_nan or math.isclose(actual, expected, rel_tol=1e-9), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != {expected!r}"
        )


def test_suite_reproduces_the_golden_artifacts():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(spec.name for spec in all_experiments())
    params = {name: entry["params"] for name, entry in golden.items()}
    suite = run_suite(context=SimulationContext(), overrides=params)
    for name, entry in golden.items():
        actual = json.loads(json.dumps(suite[name].to_dict()))
        _assert_matches(actual, entry["result"], name)
