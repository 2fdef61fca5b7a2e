"""Shared helpers for the benchmark harness.

Every figure/table benchmark regenerates one of the paper's tables or
figures, prints the reproduced rows/series, and asserts the expected *shape*
(who wins, rough factors) rather than absolute numbers.

The seven timed suites (``repro.pipeline.bench.SUITES``) measure through the
``bench`` fixture: ``bench.time`` times a callable, ``bench.time_pair`` times
two callables alternately (for a bound on their ratio) and ``bench.record``
records a section of metrics with its bounds.  A plain pytest run — tier-1
and CI alike — calls each timed callable once, checks no bound and writes
nothing; the suites' oracle, equality and modeled-count asserts are what it
tests.  ``python -m repro bench run`` arms the fixture by loading
:mod:`repro.pipeline.bench` into the pytest run, which registers a
recorder: best-of loops repeat, a missed bound fails its test, and the
suite's entry is appended to its ``BENCH_*.json`` trajectory at session
end.  A suite's ``BENCH_ENTRY`` dict holds the entry's top-level parameters.

``PERF_SMOKE=1`` (``bench run --smoke``) selects the smoke scale: suites
size their inputs from :data:`SMOKE`, and only bounds recorded with
``at_smoke=True`` apply.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping
from time import perf_counter
from typing import Any, TypeVar

import pytest

from repro.experiments.runner import ExperimentResult
from repro.pipeline.bench import RECORDER

T = TypeVar("T")
U = TypeVar("U")

#: Smoke scale: small inputs, and only the ``at_smoke`` bounds apply.
SMOKE = os.environ.get("PERF_SMOKE", "") == "1"


def report(result: ExperimentResult) -> ExperimentResult:
    """Print an experiment result under the benchmark output and return it."""
    print()
    print(result.to_text())
    return result


class Bench:
    """Times callables and records sections; armed only under ``bench run``."""

    def __init__(self, request: pytest.FixtureRequest) -> None:
        self._request = request
        self._recorder = request.config.pluginmanager.get_plugin(RECORDER)

    def time(
        self, fn: Callable[[], T], repeats: int = 1, clock: Callable[[], float] = perf_counter
    ) -> tuple[float, T]:
        """Best-of-``repeats`` time of ``fn()`` and its last result.

        Unarmed, ``fn`` runs once.
        """
        best = float("inf")
        for _ in range(repeats if self._recorder else 1):
            start = clock()
            result = fn()
            best = min(best, clock() - start)
        return best, result

    def time_pair(
        self,
        first: Callable[[], T],
        second: Callable[[], U],
        repeats: int = 1,
        clock: Callable[[], float] = perf_counter,
    ) -> tuple[tuple[float, T], tuple[float, U]]:
        """Best-of-``repeats`` times of ``first()`` and ``second()``, alternated.

        Each repetition times ``first`` and then ``second``, so host drift
        during the loop lands on both sides instead of on one.  Returns
        ``(first_s, first_result), (second_s, second_result)``, the results
        of the last repetition.  Unarmed, each runs once.
        """
        first_best = second_best = float("inf")
        for _ in range(repeats if self._recorder else 1):
            first_s, first_result = self.time(first, clock=clock)
            second_s, second_result = self.time(second, clock=clock)
            first_best, second_best = min(first_best, first_s), min(second_best, second_s)
        return (first_best, first_result), (second_best, second_result)

    def record(
        self,
        section: str,
        metrics: Mapping[str, Any],
        bounds: Mapping[str, tuple[str, float]] | None = None,
        *,
        at_smoke: bool = False,
    ) -> None:
        """Record ``metrics`` as ``section`` of this suite's BENCH entry.

        ``bounds`` maps a metric to ``(op, limit)``, e.g. ``{"speedup":
        (">=", 5.0)}``.  Armed, they apply at full scale, and at smoke scale
        too when ``at_smoke``.
        """
        shown = (
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in metrics.items()
        )
        print(f"\n{section}: " + ", ".join(shown))
        if self._recorder is None:
            return
        header = {"smoke": SMOKE, **getattr(self._request.module, "BENCH_ENTRY", {})}
        applied = bounds if bounds and (at_smoke or not SMOKE) else {}
        self._recorder.record(self._request.path, section, metrics, applied, header)

    def record_speedup(
        self, section: str, reference_s: float, vectorized_s: float, floor: float
    ) -> None:
        """Record an engine timed against its oracle; ``speedup`` must reach ``floor``."""
        speedup = reference_s / vectorized_s if vectorized_s > 0 else float("inf")
        self.record(
            section,
            {"reference_s": reference_s, "vectorized_s": vectorized_s, "speedup": speedup},
            {"speedup": (">=", floor)},
        )


@pytest.fixture
def bench(request: pytest.FixtureRequest) -> Bench:
    """The timing and recording harness of the benchmark suites."""
    return Bench(request)
