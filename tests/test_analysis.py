"""Tests for ``repro.analysis`` — the determinism-invariant linter.

Every RPR rule gets a minimal firing fixture *and* a minimal silent one, the
waiver grammar is exercised (reason required, multi-rule, standalone-line
coverage), and a self-clean test asserts the repo's own ``src/`` +
``benchmarks/`` lint clean — the enforcement the CI gate relies on.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import collect_waivers, lint_sources, parse_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(code: str, rel: str = "src/repro/example.py", extra: dict[str, str] | None = None):
    """Lint one in-memory snippet (plus optional sibling files)."""
    files = []
    sources = {rel: code, **(extra or {})}
    for path, source in sources.items():
        parsed = parse_source(source, path)
        assert parsed is not None, f"fixture snippet for {path} has a syntax error"
        files.append(parsed)
    return lint_sources(files)


def rule_ids(result) -> list[str]:
    return [f.rule for f in result.findings]


# ----------------------------------------------------------------- RPR001


def test_rpr001_fires_on_global_rng_draw():
    result = lint_snippet(
        "import numpy as np\n"
        "def f(seed):\n"
        "    np.random.seed(seed)\n"
        "    return np.random.rand(3)\n"
    )
    assert rule_ids(result) == ["RPR001", "RPR001"]
    assert "default_rng" in result.findings[0].message


def test_rpr001_fires_on_stdlib_random():
    result = lint_snippet("import random\nx = random.random()\n")
    assert rule_ids(result) == ["RPR001"]


def test_rpr001_fires_on_from_import_of_draws():
    result = lint_snippet("from random import shuffle\nfrom numpy.random import rand\n")
    assert rule_ids(result) == ["RPR001", "RPR001"]


def test_rpr001_silent_on_seeded_generator():
    result = lint_snippet(
        "import numpy as np\n"
        "def f(seed: int) -> np.ndarray:\n"
        "    rng = np.random.default_rng(seed)\n"
        "    gen = np.random.Generator(np.random.PCG64(seed))\n"
        "    return rng.normal(size=3) + gen.normal(size=3)\n"
    )
    assert result.ok


# ----------------------------------------------------------------- RPR002


def test_rpr002_fires_on_raw_write_modes():
    result = lint_snippet(
        "from pathlib import Path\n"
        "import os\n"
        "def f(fd):\n"
        "    Path('x.json').write_text('{}')\n"
        "    Path('y.bin').write_bytes(b'')\n"
        "    open('z.txt', 'w').close()\n"
        "    os.fdopen(fd, 'wb').close()\n"
    )
    assert rule_ids(result) == ["RPR002"] * 4


def test_rpr002_silent_on_reads_and_in_ioutil():
    read_only = "def f():\n    return open('z.txt').read()\n"
    assert lint_snippet(read_only).ok
    raw_write = "def g(fd):\n    import os\n    return os.fdopen(fd, 'wb')\n"
    assert lint_snippet(raw_write, rel="src/repro/core/ioutil.py").ok


# ----------------------------------------------------------------- RPR003


UNFROZEN_KEYED = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class MyConfig:\n"
    "    depth: int = 3\n"
    "def cache_key(cfg: MyConfig):\n"
    "    return config_key(cfg)\n"
)


def test_rpr003_fires_on_unfrozen_key_dataclass():
    result = lint_snippet(UNFROZEN_KEYED)
    assert rule_ids(result) == ["RPR003"]
    assert "MyConfig" in result.findings[0].message


def test_rpr003_fires_transitively_and_on_mutable_defaults():
    result = lint_snippet(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Inner:\n"
        "    sizes: list = field(default_factory=list)\n"
        "@dataclass(frozen=True)\n"
        "class Outer:\n"
        "    inner: Inner | None = None\n"
        "def cache_key(cfg: Outer):\n"
        "    return config_key(cfg)\n"
    )
    assert rule_ids(result) == ["RPR003"]
    assert "Inner.sizes" in result.findings[0].message


def test_rpr003_silent_on_frozen_and_unreachable():
    frozen = UNFROZEN_KEYED.replace("@dataclass\n", "@dataclass(frozen=True)\n")
    assert lint_snippet(frozen).ok
    # An unfrozen dataclass nobody hashes into a canonical key is fine.
    unreachable = (
        "from dataclasses import dataclass\n@dataclass\nclass Scratch:\n    n: int = 0\n"
    )
    assert lint_snippet(unreachable).ok


def test_rpr003_callable_annotations_do_not_leak_reachability():
    # A Callable[..., X] field types a function, not key material: X must
    # not become key-reachable through it (ExperimentSpec.runner pattern).
    result = lint_snippet(
        "from dataclasses import dataclass\n"
        "from typing import Callable\n"
        "@dataclass\n"
        "class Result:\n"
        "    rows: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    runner: Callable[..., Result] | None = None\n"
        "def cache_key(spec: Spec):\n"
        "    return config_key(spec)\n"
    )
    assert result.ok


# ----------------------------------------------------------------- RPR004


def test_rpr004_fires_on_wall_clock_and_stray_timer():
    result = lint_snippet(
        "import time\n"
        "from datetime import datetime\n"
        "def f():\n"
        "    return time.time(), datetime.now(), time.perf_counter()\n"
    )
    assert rule_ids(result) == ["RPR004"] * 3


def test_rpr004_silent_in_timing_allowlist():
    timed = "import time\ndef f():\n    return time.perf_counter()\n"
    assert lint_snippet(timed, rel="src/repro/obs/clock.py").ok
    assert lint_snippet(timed, rel="benchmarks/test_perf_example.py").ok
    # Everything else — including the CLI, which used to be allowlisted —
    # must route timing through repro.obs.clock.
    assert rule_ids(lint_snippet(timed, rel="src/repro/pipeline/cli.py")) == ["RPR004"]
    # Formatting an explicit timestamp is not a wall-clock read.
    stamped = "import time\ndef f(mtime: float) -> str:\n    return time.ctime(mtime)\n"
    assert lint_snippet(stamped).ok


# ----------------------------------------------------------------- RPR005


def test_rpr005_fires_on_set_iteration():
    result = lint_snippet(
        "def f(items):\n"
        "    out = [x for x in set(items)]\n"
        "    for v in {1, 2, 3}:\n"
        "        out.append(v)\n"
        "    return list({'a', 'b'}), out\n"
    )
    assert rule_ids(result) == ["RPR005"] * 3


def test_rpr005_silent_on_sorted_sets():
    result = lint_snippet(
        "def f(items, other):\n"
        "    joined = ', '.join(sorted(set(items) | set(other)))\n"
        "    total = sum({1, 2, 3})\n"
        "    return [x for x in sorted(set(items))], joined, total\n"
    )
    assert result.ok


# ----------------------------------------------------------------- RPR006


EXPERIMENT_TEMPLATE = (
    "from repro.pipeline.registry import register_experiment\n"
    "from repro.workloads.traces import TraceConfig, generate_batch_points\n"
    "@register_experiment('fake', paper_ref='Fig. 0', title='fake')\n"
    "def run_fake(context):\n"
    "    {body}\n"
)


def test_rpr006_fires_on_inline_recompute_in_experiment_module():
    code = EXPERIMENT_TEMPLATE.format(body="return generate_batch_points(TraceConfig())")
    result = lint_snippet(code, rel="src/repro/experiments/fake.py")
    assert rule_ids(result) == ["RPR006"]
    assert "context.batch_points" in result.findings[0].message


def test_rpr006_silent_via_context_and_outside_experiments():
    good = EXPERIMENT_TEMPLATE.format(body="return context.batch_points(TraceConfig())")
    assert lint_snippet(good, rel="src/repro/experiments/fake.py").ok
    # The producer itself (no register_experiment reference) may call it.
    plain = (
        "from repro.workloads.traces import TraceConfig, generate_batch_points\n"
        "def helper():\n"
        "    return generate_batch_points(TraceConfig())\n"
    )
    assert lint_snippet(plain, rel="src/repro/workloads/batch.py").ok


# ----------------------------------------------------------------- RPR008


def test_rpr008_fires_on_adhoc_print_and_logging():
    result = lint_snippet(
        "import logging\n"
        "def f(x):\n"
        "    print('loss', x)\n"
        "    logging.info('loss %s', x)\n"
        "    return x\n",
        rel="src/repro/dram/system.py",
    )
    assert rule_ids(result) == ["RPR008"] * 2


def test_rpr008_silent_in_frontends_obs_and_outside_src():
    noisy = "def f(x):\n    print(x)\n    return x\n"
    assert lint_snippet(noisy, rel="src/repro/pipeline/cli.py").ok
    assert lint_snippet(noisy, rel="src/repro/pipeline/bench.py").ok
    assert lint_snippet(noisy, rel="src/repro/analysis/cli.py").ok
    assert lint_snippet(noisy, rel="src/repro/obs/__init__.py").ok
    assert lint_snippet(noisy, rel="benchmarks/test_perf_example.py").ok
    assert lint_snippet(noisy, rel="tests/test_example.py").ok


# ----------------------------------------------------------------- RPR009


def test_rpr009_fires_on_inline_address_arrays_at_the_boundary():
    result = lint_snippet(
        "import numpy as np\n"
        "def f(hierarchy, dram, indices):\n"
        "    hierarchy.filter_stream(indices * 4)\n"
        "    dram.service_batch(np.arange(32) * 64)\n"
        "    dram.service_batch(np.concatenate([indices, indices]))\n",
        rel="src/repro/pipeline/example.py",
    )
    assert rule_ids(result) == ["RPR009"] * 3
    assert "RequestStream" in result.findings[0].message


def test_rpr009_silent_on_streams_and_plumbed_values():
    code = (
        "def f(ctx, hierarchy, dram, grid, trace, hash_fn, order, level, addresses):\n"
        "    hierarchy.filter_stream(ctx.request_stream(grid, trace, hash_fn, order, level))\n"
        "    dram.service_batch(hierarchy.filter_stream(addresses).dram_stream())\n"
        "    dram.service_batch(addresses)\n"
    )
    assert lint_snippet(code, rel="src/repro/pipeline/example.py").ok
    # the IR package and the memory-system backends are exempt by design
    raw = "def f(dram):\n    dram.service_batch([1, 2, 3])\n"
    assert lint_snippet(raw, rel="src/repro/mem/hierarchy.py").ok
    assert lint_snippet(raw, rel="src/repro/dram/system.py").ok
    assert lint_snippet(raw, rel="src/repro/streams/ir.py").ok


# ----------------------------------------------------------------- RPR010


def test_rpr010_fires_on_load_time_imports_outside_numpy_and_stdlib():
    result = lint_snippet(
        "import numpy as np\n"
        "from scipy.ndimage import uniform_filter\n"
        "import json, pandas as pd\n"
        "try:\n"
        "    import numba\n"
        "except ImportError:\n"
        "    numba = None\n"
        "class Plot:\n"
        "    import matplotlib.pyplot as plt\n"
    )
    assert rule_ids(result) == ["RPR010"] * 4
    assert "scipy.ndimage" in result.findings[0].message
    assert "install_requires" in result.findings[0].message


def test_rpr010_silent_on_stdlib_numpy_repro_lazy_and_type_checking_imports():
    code = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "from numpy.lib import stride_tricks\n"
        "from repro.core import hashing\n"
        "from . import sibling\n"
        "if TYPE_CHECKING:\n"
        "    import pandas\n"
        "def smooth(x):\n"
        "    from scipy.ndimage import uniform_filter\n"
        "    return uniform_filter(x, 7)\n"
    )
    assert lint_snippet(code).ok
    # Only the installed package is held to install_requires.
    assert lint_snippet("import pytest\n", rel="benchmarks/conftest.py").ok
    assert lint_snippet("import hypothesis\n", rel="tests/test_example.py").ok


# ----------------------------------------------------------------- waivers


def test_waiver_with_reason_suppresses_finding():
    code = (
        "import time\n"
        "t = time.time()  # repro: allow[RPR004] -- fixture: timestamp is display-only\n"
    )
    assert lint_snippet(code).ok


def test_waiver_without_reason_is_rpr000_and_does_not_suppress():
    code = "import time\nt = time.time()  # repro: allow[RPR004]\n"
    result = lint_snippet(code)
    assert sorted(rule_ids(result)) == ["RPR000", "RPR004"]


def test_waiver_covers_multiple_rules_and_next_line():
    code = (
        "import time, numpy as np\n"
        "# repro: allow[RPR001,RPR004] -- fixture: both violations are intentional\n"
        "t = (time.time(), np.random.rand())\n"
    )
    assert lint_snippet(code).ok


def test_waiver_parsing_extracts_rules_and_reason():
    waivers, broken, waived_lines = collect_waivers(
        "x = 1  # repro: allow[RPR001, RPR005] -- because the fixture says so\n"
        "# repro: allow[RPR002]\n"
    )
    assert len(waivers) == 1 and waivers[0].rules == ("RPR001", "RPR005")
    assert waivers[0].reason == "because the fixture says so"
    assert broken == [(2, 0)]
    assert waived_lines[1] == frozenset({"RPR001", "RPR005"})


def test_waivers_do_not_suppress_other_rules():
    code = "import time\nt = time.time()  # repro: allow[RPR001] -- fixture: wrong rule id\n"
    result = lint_snippet(code)
    assert rule_ids(result) == ["RPR004"]


# ------------------------------------------------------------- self-clean


def test_repo_lints_clean():
    """The enforcement test: the repo's own code passes its own linter."""
    result = lint_paths(["src", "benchmarks"], root=REPO_ROOT)
    formatted = "\n".join(f.format_text() for f in result.findings)
    assert result.ok, f"repro lint found violations:\n{formatted}"
    assert result.files_checked > 90


def test_every_rule_has_docs_and_both_fixtures_exist():
    ids = [rule.id for rule in RULES]
    assert ids == [
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR008",
        "RPR009",
        "RPR010",
    ]
    for rule in RULES:
        assert rule.summary and rule.rationale


def test_cli_exit_codes_and_github_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.rand()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(bad), "--root", str(tmp_path), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=bad.py,line=2" in out and "title=RPR001" in out
    assert lint_main([str(clean), "--root", str(tmp_path)]) == 0
    assert lint_main([str(bad), "--root", str(tmp_path), "--rules", "RPR999"]) == 2
    assert lint_main(["--list-rules"]) == 0
    assert "RPR010" in capsys.readouterr().out


def test_python_m_repro_lint_is_wired():
    """`python -m repro lint` runs the same engine and exits 0 on the repo."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stderr


# ------------------------------------------------------- typing ratchet


def test_mypy_ratchet_matches_config():
    """Packages are either strict in mypy.ini or listed in the ratchet file."""
    import configparser

    config = configparser.ConfigParser()
    config.read(REPO_ROOT / "mypy.ini")
    ratchet = {
        line.split("#")[0].strip()
        for line in (REPO_ROOT / "mypy-ratchet.txt").read_text().splitlines()
        if line.split("#")[0].strip()
    }
    src_packages = {
        f"repro.{p.name}"
        for p in (REPO_ROOT / "src" / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    strict = {
        pkg
        for pkg in src_packages
        if config.has_section(f"mypy-{pkg}.*")
        and config.getboolean(f"mypy-{pkg}.*", "disallow_untyped_defs", fallback=False)
    }
    assert {"repro.core", "repro.pipeline", "repro.mem", "repro.analysis"} <= strict
    assert strict.isdisjoint(ratchet)
    assert strict | ratchet == src_packages, (
        "every package must be either strict or explicitly on the ratchet"
    )
    # Ratchet packages are *explicitly* suppressed, never silently missing:
    # each one carries an `ignore_errors` section so the CI mypy run over the
    # whole tree only bites on the strict packages until they are ratcheted.
    for pkg in ratchet:
        section = f"mypy-{pkg}.*"
        assert config.has_section(section), f"{pkg} is on the ratchet but has no mypy.ini section"
        assert config.getboolean(section, "ignore_errors", fallback=False), (
            f"{pkg} must set ignore_errors until it is ratcheted to strict"
        )
