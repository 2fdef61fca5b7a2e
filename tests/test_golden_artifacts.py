"""Golden artifacts: ``repro report --fast`` against committed results.

``tests/golden/suite_smoke.json`` holds, for each of the sixteen registered
experiments, the bound parameters it ran with and its
``ExperimentResult.to_dict()``.  Those parameters are each spec's smoke
scale, ``ExperimentSpec.smoke`` (a 384-ray lego trace for the locality
experiments, two cache sizes, two occupancy resolutions, a two-table
embedding front end, a tiny training run, with the DRAM timing model on for
fig12, fig13 and fig15), so the test runs ``repro report --fast`` through
the CLI and compares every JSON artifact it writes with the golden result.

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

from repro.pipeline import all_experiments
from repro.pipeline.cli import main

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


def test_suite_reproduces_the_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    specs = all_experiments()
    assert sorted(golden) == sorted(spec.name for spec in specs)
    for spec in specs:
        assert spec.bind(spec.smoke) == golden[spec.name]["params"], spec.name
    argv = ["report", "--fast", "--quiet", "--formats", "json", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, entry in golden.items():
        actual = json.loads((tmp_path / f"{name}.json").read_text())
        _assert_matches(actual, entry["result"], name)
