"""``python -m repro`` — the command-line front end of the experiment pipeline.

Subcommands
-----------
``list``
    Show every registered experiment with its paper reference and parameters.
``run``
    Run one experiment, e.g. ``python -m repro run fig07 --scene lego --dram
    ddr4``; prints the reproduced table and optionally writes JSON/CSV
    artifacts.
``sweep``
    Evaluate a parameter grid in parallel, e.g. ``python -m repro sweep fig07
    --grid scene=lego,chair --grid hash=morton,original --workers 4``.
``report``
    Run the full suite against one shared :class:`SimulationContext` and
    write all artifacts plus a summary index; ``--fast`` runs every spec at
    its declared smoke scale (``ExperimentSpec.smoke``).
``bench``
    Benchmark-suite orchestration: ``bench run`` (the only run that checks
    the suites' timing bounds and appends to their trajectories; ``--smoke``
    maps to ``PERF_SMOKE=1``), ``bench compare`` (the CI regression gate)
    and ``bench list`` — see :mod:`repro.pipeline.bench`.
``lint``
    Determinism-invariant static analysis (``repro-lint``): the RPR rule
    suite over ``src/`` + ``benchmarks/`` — see :mod:`repro.analysis`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .. import obs
from ..analysis.cli import add_lint_arguments, run_lint
from ..obs.clock import wall_time
from ..experiments.runner import (
    ExperimentResult,
    atomic_write_text,
    write_csv_artifact,
    write_json_artifact,
)
from .bench import BASELINE_DIR, SUITES, compare_suites, entry_count, run_suites
from .context import SimulationContext, config_key
from .registry import all_experiments, get_experiment, run_suite
from .store import STORE_MISS, ArtifactStore
from .sweep import sweep

__all__ = ["main", "build_parser"]


def _add_param_flags(parser: argparse.ArgumentParser, spec_name: str | None) -> None:
    """Dynamic per-experiment flags (``--scene``, ``--dram``, ...)."""
    if spec_name is None:
        return
    try:
        spec = get_experiment(spec_name)
    except KeyError:
        return  # the command handler reports the unknown name properly

    for param in spec.params:
        flag = "--" + param.name.replace("_", "-")
        help_text = param.help or f"{param.kind.__name__} (default: {param.default!r})"
        if param.choices is not None:
            help_text += f" [choices: {', '.join(map(str, param.choices))}]"
        parser.add_argument(flag, dest=f"param_{param.name}", default=None, help=help_text)


def _parse_assignments(raw_entries: list[str] | None) -> dict[str, str]:
    """Parse repeated ``--set KEY=VALUE`` flags."""
    assignments: dict[str, str] = {}
    for entry in raw_entries or []:
        if "=" not in entry:
            raise SystemExit(f"--set expects key=value, got {entry!r}")
        key, value = entry.split("=", 1)
        assignments[key.strip()] = value
    return assignments


def _collect_params(spec_name: str, namespace: argparse.Namespace) -> dict[str, Any]:
    spec = get_experiment(spec_name)
    overrides: dict[str, Any] = {}
    for param in spec.params:
        raw = getattr(namespace, f"param_{param.name}", None)
        if raw is not None:
            overrides[param.name] = raw
    overrides.update(_parse_assignments(getattr(namespace, "set", None)))
    return overrides


def _write_artifacts(
    result: ExperimentResult,
    name: str,
    out: str | None,
    formats: list[str],
    overwrite: bool = False,
) -> list[Path]:
    if out is None:
        return []
    out_dir = Path(out)
    written = []
    if "json" in formats:
        written.append(write_json_artifact(result, out_dir / f"{name}.json", overwrite=overwrite))
    if "csv" in formats:
        written.append(write_csv_artifact(result, out_dir / f"{name}.csv", overwrite=overwrite))
    if "text" in formats:
        written.append(
            atomic_write_text(out_dir / f"{name}.txt", result.to_text() + "\n", overwrite=overwrite)
        )
    return written


def _add_store_flags(parser: argparse.ArgumentParser, with_resume: bool = True) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent artifact-store directory (simulation artifacts and "
        "results are read through it and written back)",
    )
    if with_resume:
        parser.add_argument(
            "--resume",
            action="store_true",
            help="reuse results already present in --store instead of recomputing",
        )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite differing existing artifacts in --out",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a dual-clock trace and write Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing); artifacts stay byte-identical",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="record pipeline metrics and print a summary table at the end",
    )


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable tracing/metrics when the command asked for them."""
    if getattr(args, "trace", None) is None and not getattr(args, "metrics", False):
        return False
    obs.enable()
    return True


def _obs_end(args: argparse.Namespace, quiet: bool = False) -> None:
    """Export the trace / print the metrics table, then reset obs state."""
    if not obs.is_enabled():
        return
    trace = getattr(args, "trace", None)
    if trace is not None:
        path = obs.export_chrome_trace(trace)
        if not quiet:
            print(f"wrote trace {path}")
    if getattr(args, "metrics", False) and not quiet:
        print(obs.get_metrics().render_table())
    obs.disable()


def build_parser(run_spec: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.

    ``run_spec`` names the experiment whose typed flags the ``run``
    subcommand should expose; :func:`main` discovers it with a first
    tolerant parsing pass, then re-parses strictly against the full parser,
    so flag order relative to the experiment name does not matter.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Config-driven reproduction pipeline for the Instant-NeRF NMP paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.add_argument("--json", action="store_true", help="machine-readable listing")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="registered experiment name (see `repro list`)")
    p_run.add_argument("--out", default=None, help="artifact output directory")
    p_run.add_argument(
        "--formats", default="json,csv", help="comma list of artifact formats (json,csv,text)"
    )
    p_run.add_argument(
        "--format",
        dest="formats",
        choices=("json", "csv", "text"),
        default=argparse.SUPPRESS,
        help="write a single artifact format (alias of --formats)",
    )
    p_run.add_argument("--quiet", action="store_true", help="suppress the table printout")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any experiment parameter (repeatable)",
    )
    _add_store_flags(p_run)
    _add_obs_flags(p_run)
    _add_param_flags(p_run, run_spec)

    p_sweep = sub.add_parser("sweep", help="sweep an experiment over a parameter grid")
    p_sweep.add_argument("experiment", help="registered experiment name")
    p_sweep.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="one swept parameter with its values (repeatable)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="pool width for thread/process executors"
    )
    p_sweep.add_argument(
        "--executor",
        choices=("auto", "serial", "thread", "process"),
        default="auto",
        help="cell executor: auto (serial for 1 worker, threads otherwise), "
        "serial, thread, or process (GIL-free, shared-memory artifact export)",
    )
    p_sweep.add_argument("--base-seed", type=int, default=0, help="seed folded into every cell")
    p_sweep.add_argument("--out", default=None, help="artifact output directory")
    p_sweep.add_argument("--quiet", action="store_true", help="suppress per-cell printouts")
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="fixed override applied to every cell (repeatable)",
    )
    _add_store_flags(p_sweep)
    _add_obs_flags(p_sweep)

    p_report = sub.add_parser("report", help="run the full suite with a shared context")
    p_report.add_argument(
        "--experiments",
        default=None,
        help="comma list of experiment names (default: all registered)",
    )
    p_report.add_argument("--out", default=None, help="artifact output directory")
    p_report.add_argument(
        "--formats", default="json,csv", help="comma list of artifact formats (json,csv,text)"
    )
    p_report.add_argument(
        "--format",
        dest="formats",
        choices=("json", "csv", "text"),
        default=argparse.SUPPRESS,
        help="write a single artifact format (alias of --formats)",
    )
    p_report.add_argument("--quiet", action="store_true", help="suppress the table printouts")
    p_report.add_argument(
        "--fast",
        action="store_true",
        help="run every experiment at its spec's smoke scale, the scale "
        "`tests/golden/suite_smoke.json` pins",
    )
    _add_store_flags(p_report, with_resume=False)
    _add_obs_flags(p_report)

    p_bench = sub.add_parser("bench", help="run or gate the benchmark suites")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    suite_names = ", ".join(s.name for s in SUITES)

    b_run = bench_sub.add_parser("run", help="run benchmark suites (pytest)")
    b_run.add_argument("suites", nargs="*", help=f"suites to run (default: all of {suite_names})")
    b_run.add_argument(
        "--smoke",
        action="store_true",
        help="set PERF_SMOKE=1: shrink inputs; only the smoke-scale bounds apply",
    )
    b_run.add_argument("--root", default=".", help="repository root (default: cwd)")
    _add_obs_flags(b_run)

    b_cmp = bench_sub.add_parser("compare", help="gate fresh BENCH_*.json against baselines")
    b_cmp.add_argument("suites", nargs="*", help=f"suites to gate (default: all of {suite_names})")
    b_cmp.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="tolerated fractional drop of any gated metric (default: 0.25)",
    )
    b_cmp.add_argument(
        "--cap",
        type=float,
        default=50.0,
        help="clamp metrics to this value before comparing (default: 50)",
    )
    b_cmp.add_argument(
        "--baseline-dir",
        default=None,
        help=f"baseline directory (default: {BASELINE_DIR}/, stashed by `bench run`)",
    )
    b_cmp.add_argument("--root", default=".", help="repository root (default: cwd)")
    b_cmp.add_argument("--json", action="store_true", help="machine-readable report")

    b_list = bench_sub.add_parser("list", help="list benchmark suites")
    b_list.add_argument("--root", default=".", help="repository root (default: cwd)")

    p_lint = sub.add_parser("lint", help="determinism-invariant static analysis")
    add_lint_arguments(p_lint)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    # Sorted registry order (not insertion order): the listing is diffed by
    # the CI smoke job, so it must be stable across refactors that merely
    # reorder experiment-module imports.
    specs = sorted(all_experiments(), key=lambda spec: spec.name)
    if args.json:
        payload = [
            {
                "name": spec.name,
                "paper_ref": spec.paper_ref,
                "title": spec.title,
                "params": {p.name: p.default for p in spec.params},
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(spec.name) for spec in specs)
    ref_width = max(len(spec.paper_ref) for spec in specs)
    for spec in specs:
        print(f"{spec.name.ljust(width)}  {spec.paper_ref.ljust(ref_width)}  {spec.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    overrides = _collect_params(spec.name, args)
    if args.resume and args.store is None:
        raise SystemExit("--resume requires --store")
    store = ArtifactStore(args.store) if args.store else None
    context = SimulationContext(store=store)
    # The run-level store key is the fully bound parameter assignment, so a
    # resumed `run` only matches the identical effective configuration.
    run_key = ("run_result", spec.name, config_key(spec.bind(overrides)))
    _obs_begin(args)
    started = wall_time()
    result = None
    resumed = False
    if store is not None and args.resume:
        hit = store.get(run_key)
        if isinstance(hit, ExperimentResult):
            result, resumed = hit, True
    if result is None:
        result = spec.run(context, **overrides)
        if store is not None:
            store.put(run_key, result)
    elapsed = wall_time() - started
    if not args.quiet:
        print(result.to_text())
        source = "loaded from store" if resumed else "finished"
        print(f"[{spec.name} {source} in {elapsed:.2f} s]")
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    for path in _write_artifacts(result, spec.name, args.out, formats, overwrite=args.force):
        if not args.quiet:
            print(f"wrote {path}")
    _obs_end(args, args.quiet)
    return 0


def _parse_grid(raw_entries: list[str]) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for entry in raw_entries:
        if "=" not in entry:
            raise SystemExit(f"--grid expects key=v1,v2,..., got {entry!r}")
        key, values = entry.split("=", 1)
        grid[key.strip()] = [v.strip() for v in values.split(",") if v.strip()]
        if not grid[key.strip()]:
            raise SystemExit(f"--grid {entry!r} lists no values")
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    grid = _parse_grid(args.grid)
    extra = _parse_assignments(args.set)
    if args.resume and args.store is None:
        raise SystemExit("--resume requires --store")
    store = ArtifactStore(args.store) if args.store else None
    _obs_begin(args)
    started = wall_time()
    result = sweep(
        spec,
        grid,
        workers=args.workers,
        base_seed=args.base_seed,
        extra_params=extra or None,
        executor=args.executor,
        store=store,
        resume=args.resume,
    )
    elapsed = wall_time() - started
    if not args.quiet:
        for cell in result.cells:
            label = ", ".join(f"{k}={v}" for k, v in cell.params.items())
            if cell.error is not None:
                print(f"cell {cell.index} [{label}] FAILED:\n{cell.error}")
            else:
                print(f"-- cell {cell.index} [{label}] --")
                print(cell.result.to_text())
        print(
            f"[{spec.name} sweep: {len(result.cells)} cells, {len(result.failed)} failed, "
            f"{len(result.resumed)} resumed, {result.executor} executor, "
            f"{args.workers} workers, {elapsed:.2f} s]"
        )
    if args.out is not None:
        index_path = result.write(args.out, overwrite=args.force)
        if not args.quiet:
            print(f"wrote {index_path}")
    _obs_end(args, args.quiet)
    return 1 if result.failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    names = (
        [n.strip() for n in args.experiments.split(",") if n.strip()]
        if args.experiments
        else None
    )
    overrides = {spec.name: spec.smoke for spec in all_experiments()} if args.fast else {}
    store = ArtifactStore(args.store) if args.store else None
    context = SimulationContext(store=store)
    _obs_begin(args)
    started = wall_time()
    results = run_suite(names, context=context, overrides=overrides)
    elapsed = wall_time() - started
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    for name, result in results.items():
        if not args.quiet:
            print(result.to_text())
            print()
        _write_artifacts(result, name, args.out, formats, overwrite=args.force)
    summary = {
        "experiments": list(results),
        "elapsed_seconds": elapsed,
        "context": {
            "cached_artifacts": context.cached_artifacts(),
            "cache_hits": context.stats.hits,
            "cache_misses": context.stats.misses,
            "store_hits": context.stats.store_hits,
        },
    }
    if args.out is not None:
        # The summary embeds wall time, so it legitimately differs between
        # otherwise identical runs — always replaced, still atomically.
        atomic_write_text(
            Path(args.out) / "summary.json", json.dumps(summary, indent=2) + "\n", overwrite=True
        )
    if not args.quiet:
        print(
            f"[suite: {len(results)} experiments in {elapsed:.2f} s; "
            f"context reused {context.stats.hits} of {context.stats.total} artifact requests]"
        )
    _obs_end(args, args.quiet)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve()
    if args.bench_command == "list":
        for suite in SUITES:
            entries = entry_count(root / suite.bench_file)
            print(
                f"{suite.name:10s}  {suite.test_file:40s}  {suite.bench_file} ({entries} entries)"
            )
        return 0
    if args.bench_command == "run":
        _obs_begin(args)
        exit_code = run_suites(root, args.suites or None, smoke=args.smoke)
        _obs_end(args)
        return exit_code
    if args.bench_command == "compare":
        reports, exit_code = compare_suites(
            root,
            args.suites or None,
            baseline_dir=args.baseline_dir,
            max_regression=args.max_regression,
            cap=args.cap,
        )
        if args.json:
            payload = [
                {
                    "suite": r.suite,
                    "notes": r.notes,
                    "metrics": [
                        {
                            "section": m.section,
                            "metric": m.metric,
                            "baseline": m.baseline,
                            "current": m.current,
                            "regressed": m.regressed,
                        }
                        for m in r.metrics
                    ],
                }
                for r in reports
            ]
            print(json.dumps(payload, indent=2))
        else:
            from .bench import _mtime_stamp

            stash = root / (args.baseline_dir or BASELINE_DIR)
            if stash.exists():
                print(f"baselines: {stash} (stashed {_mtime_stamp(stash)})")
            else:
                print("baselines: no stash; trajectory history / committed entries")
            for report in reports:
                regressions = report.regressions
                status = f"{len(regressions)} regression(s)" if regressions else "ok"
                print(f"== {report.suite}: {len(report.metrics)} gated metric(s), {status} ==")
                for note in report.notes:
                    print(f"  note: {note}")
                for m in report.metrics:
                    marker = "REGRESSED" if m.regressed else "ok"
                    print(
                        f"  {m.section}.{m.metric}: baseline {m.baseline:.3f} -> "
                        f"current {m.current:.3f} ({m.ratio:.2f}x) {marker}"
                    )
            verdict = "FAILED" if exit_code else "passed"
            print(f"[bench compare {verdict}: max regression {args.max_regression:.0%}]")
        return exit_code
    raise AssertionError(f"unhandled bench command {args.bench_command!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also exposed as the ``repro`` console script)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # First pass tolerates the (not yet registered) per-experiment flags and
    # just discovers the subcommand + experiment name; the strict second
    # pass then knows which typed flags to accept, wherever they appear.
    args, unknown = build_parser().parse_known_args(argv)
    run_spec = args.experiment if args.command == "run" else None
    if run_spec is not None or unknown:
        parser = build_parser(run_spec)
        args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lint":
            return run_lint(args)
    except (KeyError, ValueError, FileExistsError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
