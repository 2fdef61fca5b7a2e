"""The RPR rule set: repo-specific determinism invariants, machine-checked.

Each rule has an id, a one-line rationale (shown in findings and by
``repro lint --list-rules``) and a visitor.  RPR003 is project-wide: it
indexes every dataclass definition, seeds the "canonical key" root set from
the annotated parameters of functions that call ``config_key``, closes over
field annotations, and requires everything reachable to be ``frozen=True``.

| id     | invariant                                                        |
|--------|------------------------------------------------------------------|
| RPR001 | no global-RNG draws/mutation; use ``np.random.default_rng(seed)``|
| RPR002 | artifact writes go through the atomic writers in ``core.ioutil`` |
| RPR003 | key-reachable dataclasses are frozen with immutable defaults     |
| RPR004 | no wall clock in artifact-producing modules; timers allowlisted  |
| RPR005 | no iteration over unordered sets feeding artifacts; ``sorted()`` |
| RPR006 | registered experiments reuse context artifacts, never recompute  |
| RPR008 | no ad-hoc print/logging in ``src/repro``; emit via ``repro.obs`` |
| RPR009 | memory-system consumers take ``RequestStream``s, not inline arrays|
| RPR010 | ``src/repro`` imports only stdlib, numpy and repro at module level  |
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from typing import Iterator

from .engine import FileSource, Finding, NameResolver

__all__ = ["Rule", "RULES", "ProjectIndex", "run_file_rules", "project_findings"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: id, summary and the rationale behind the invariant."""

    id: str
    summary: str
    rationale: str


RULES: tuple[Rule, ...] = (
    Rule(
        "RPR001",
        "no global-RNG mutation or draws",
        "global RNG state breaks byte-identical replay across executors and "
        "resumed runs; seed an explicit np.random.default_rng(seed) instead",
    ),
    Rule(
        "RPR002",
        "no raw artifact writes outside core/ioutil.py",
        "raw open(..., 'w')/write_text can leave truncated artifacts and "
        "silently clobber prior runs; use atomic_write_bytes/atomic_write_text",
    ),
    Rule(
        "RPR003",
        "canonical-key dataclasses must be frozen with immutable defaults",
        "configs hashed into SimulationContext/ArtifactStore keys must not "
        "mutate after keying, or memo/store lookups silently diverge",
    ),
    Rule(
        "RPR004",
        "no wall clock in artifact-producing modules",
        "wall-clock reads make artifacts differ between identical runs; "
        "perf_counter is allowed only in the allowlisted timing modules",
    ),
    Rule(
        "RPR005",
        "no iteration over unordered sets",
        "set iteration order is salted per process and can leak into hashes, "
        "JSON artifacts and stream ordering; wrap the set in sorted(...)",
    ),
    Rule(
        "RPR006",
        "registered experiments must reuse context-memoized artifacts",
        "recomputing traces/streams/datasets inline defeats the shared "
        "SimulationContext and risks drifting from the memoized oracle copy",
    ),
    Rule(
        "RPR008",
        "span/metric emission goes through repro.obs",
        "ad-hoc print/logging inside the simulation stack bypasses the "
        "observability layer (and can interleave nondeterministically under "
        "the sweep executors); emit through repro.obs spans/metrics/console, "
        "or from the allowlisted CLI front-ends",
    ),
    Rule(
        "RPR009",
        "no inline raw address arrays at the memory-system boundary",
        "an address ndarray built at a filter_stream/service_batch call site "
        "bypasses the typed request-stream IR (and its provenance, dtype and "
        "grouping); construct a RequestStream in a repro.streams front-end "
        "and pass that instead",
    ),
    Rule(
        "RPR010",
        "module-level imports are the standard library, numpy or repro",
        "setup.py's install_requires lists numpy alone, so a module-level import "
        "of any other package breaks `import repro` on a numpy-only install and "
        "lengthens every CLI, worker and pool process start; import an optional "
        "package inside the function that needs it",
    ),
)

#: The only module allowed to perform raw writes (it implements the primitive).
IOUTIL_MODULE = "src/repro/core/ioutil.py"

#: The one module allowed to call monotonic timers: the sanctioned accessor
#: everything else (CLI timing lines, trainer iteration timing, the tracer's
#: wall timeline) imports ``wall_time`` from.
TIMING_ALLOWLIST = ("src/repro/obs/clock.py",)
TIMING_ALLOWLIST_DIRS = ("benchmarks/",)

#: CLI front-ends allowed to ``print`` directly (human-facing tables/status);
#: everything else in ``src/repro`` emits through ``repro.obs``.
OBS_EMISSION_ALLOWLIST = (
    "src/repro/pipeline/cli.py",
    "src/repro/pipeline/bench.py",
    "src/repro/analysis/cli.py",
)
OBS_EMISSION_ALLOWLIST_DIRS = ("src/repro/obs/",)

#: numpy.random attributes that are deterministic constructors, not draws.
_NP_RANDOM_SAFE = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
        "RandomState",  # explicit legacy stream object, still seedable
    }
)

#: stdlib ``random`` module functions that draw from / mutate the global RNG.
_STDLIB_RANDOM_DRAWS = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "vonmisesvariate",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_TIMERS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.thread_time",
        "time.thread_time_ns",
    }
)

#: ``time`` functions that read the wall clock when called with no argument.
_IMPLICIT_NOW = frozenset({"time.localtime", "time.gmtime", "time.ctime"})

#: Inline artifact producers with a memoized ``SimulationContext`` equivalent.
_CONTEXT_EQUIVALENTS: dict[str, str] = {
    "generate_batch_points": "context.batch_points(trace)",
    "generate_scene_batch_points": "context.batch_points(trace)",
    "point_order": "context.stream_order(trace, order)",
    "level_lookup_indices": "context.level_indices(grid, trace, hash_fn, level)",
    "build_scene": "context.scene(name)",
    "SyntheticNeRFDataset": "context.dataset(scene_name, config)",
    "occupancy_grid_for_trace": "context.occupancy_grid(trace)",
    "occupancy_point_mask": "context.occupancy_mask(trace)",
}

#: The IR package and the memory-system backends it feeds are the only
#: layers allowed to handle raw address ndarrays at the stream boundary;
#: every other caller crosses it with a typed ``RequestStream``.
STREAM_BOUNDARY_EXEMPT_DIRS = (
    "src/repro/streams/",
    "src/repro/mem/",
    "src/repro/dram/",
)

#: Memory-system entry points that take a ``RequestStream``: an address
#: array assembled at their call site bypasses the IR.
_STREAM_CONSUMERS = frozenset({"filter_stream", "filter_stream_reference", "service_batch"})

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Top-level packages ``src/repro`` may import when a module loads: the
#: standard library, numpy (``install_requires``) and the package itself.
_MODULE_LEVEL_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}
_TYPE_CHECKING = frozenset({"TYPE_CHECKING", "typing.TYPE_CHECKING"})


# --------------------------------------------------------------------------
# project index (dataclasses, key roots, registered-experiment modules)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldInfo:
    """One dataclass field, as far as the AST can see it."""

    name: str
    line: int
    annotation_names: tuple[str, ...]
    mutable_default: bool


@dataclass(frozen=True)
class DataclassInfo:
    """One ``@dataclass`` definition found anywhere in the linted tree."""

    name: str
    path: str
    line: int
    col: int
    frozen: bool
    fields: tuple[FieldInfo, ...]


@dataclass
class ProjectIndex:
    """Cross-file facts the project-wide rules need."""

    dataclasses: dict[str, DataclassInfo] = field(default_factory=dict)
    #: Dataclass names annotated on parameters of functions calling config_key.
    key_roots: set[str] = field(default_factory=set)
    #: root-relative paths of modules that register experiments.
    experiment_modules: set[str] = field(default_factory=set)

    @classmethod
    def build(cls, files: list[FileSource]) -> "ProjectIndex":
        index = cls()
        for file in files:
            resolver = NameResolver(file.tree)
            index._index_dataclasses(file, resolver)
            index._index_key_roots(file)
            if _references(file.tree, "register_experiment"):
                index.experiment_modules.add(file.rel)
        return index

    # ---------------------------------------------------------- dataclasses
    def _index_dataclasses(self, file: FileSource, resolver: NameResolver) -> None:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            frozen = None
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                dotted = resolver.resolve(target)
                if dotted in ("dataclass", "dataclasses.dataclass"):
                    frozen = False
                    if isinstance(deco, ast.Call):
                        for kw in deco.keywords:
                            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                                frozen = bool(kw.value.value)
            if frozen is None:
                continue
            fields = tuple(
                _field_info(stmt, resolver)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            )
            self.dataclasses[node.name] = DataclassInfo(
                name=node.name,
                path=file.rel,
                line=node.lineno,
                col=node.col_offset,
                frozen=frozen,
                fields=fields,
            )

    # ------------------------------------------------------------ key roots
    def _index_key_roots(self, file: FileSource) -> None:
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _calls_config_key(node):
                continue
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    self.key_roots.update(_annotation_names(arg.annotation))

    def key_reachable(self) -> dict[str, str]:
        """Dataclass name -> root it is reachable from (closure over fields)."""
        reachable: dict[str, str] = {}
        frontier = [(name, name) for name in sorted(self.key_roots) if name in self.dataclasses]
        while frontier:
            name, root = frontier.pop()
            if name in reachable:
                continue
            reachable[name] = root
            for fld in self.dataclasses[name].fields:
                for ref in fld.annotation_names:
                    if ref in self.dataclasses and ref not in reachable:
                        frontier.append((ref, root))
        return reachable


def _field_info(stmt: ast.AnnAssign, resolver: NameResolver) -> FieldInfo:
    assert isinstance(stmt.target, ast.Name)
    mutable = isinstance(stmt.value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp))
    if isinstance(stmt.value, ast.Call):
        dotted = resolver.resolve(stmt.value.func)
        if dotted in ("field", "dataclasses.field"):
            for kw in stmt.value.keywords:
                if kw.arg == "default_factory":
                    factory = resolver.resolve(kw.value)
                    if factory in ("list", "dict", "set", "bytearray"):
                        mutable = True
    return FieldInfo(
        name=stmt.target.id,
        line=stmt.lineno,
        annotation_names=tuple(sorted(_annotation_names(stmt.annotation))),
        mutable_default=mutable,
    )


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Every plain identifier mentioned in an annotation (incl. quoted ones).

    ``Callable[...]`` signatures are skipped: a callable-typed field is never
    hashed by value into a canonical key, so its parameter/return types do
    not make a dataclass key-reachable.
    """
    names: set[str] = set()
    stack: list[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Subscript):
            base = node.value
            base_name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if base_name == "Callable":
                continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_IDENTIFIER_RE.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _calls_config_key(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Name) and target.id == "config_key":
                return True
            if isinstance(target, ast.Attribute) and target.attr == "config_key":
                return True
    return False


def _references(tree: ast.Module, name: str) -> bool:
    return any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(tree))


# --------------------------------------------------------------------------
# per-file rules
# --------------------------------------------------------------------------


def run_file_rules(file: FileSource, index: ProjectIndex) -> Iterator[Finding]:
    """Run every per-file rule over one parsed source file."""
    resolver = NameResolver(file.tree)
    yield from _rule_rpr001(file, resolver)
    yield from _rule_rpr002(file, resolver)
    yield from _rule_rpr004(file, resolver)
    yield from _rule_rpr005(file, resolver)
    yield from _rule_rpr006(file, resolver, index)
    yield from _rule_rpr008(file, resolver)
    yield from _rule_rpr009(file, resolver)
    yield from _rule_rpr010(file, resolver)


def _rule_rpr001(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """No global-RNG mutation or draws."""
    for node in ast.walk(file.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _NP_RANDOM_SAFE and alias.name != "*":
                        yield _finding(
                            file,
                            node,
                            "RPR001",
                            f"`from numpy.random import {alias.name}` pulls in the "
                            "global RNG; use np.random.default_rng(seed)",
                        )
            if node.module == "random":
                for alias in node.names:
                    if alias.name in _STDLIB_RANDOM_DRAWS:
                        yield _finding(
                            file,
                            node,
                            "RPR001",
                            f"`from random import {alias.name}` draws from the global "
                            "stdlib RNG; use np.random.default_rng(seed)",
                        )
        if not isinstance(node, ast.Call):
            continue
        dotted = resolver.resolve(node.func)
        if dotted is None:
            continue
        match = re.fullmatch(r"numpy\.random\.(\w+)", dotted)
        if match and match.group(1) not in _NP_RANDOM_SAFE:
            yield _finding(
                file,
                node,
                "RPR001",
                f"global-RNG call np.random.{match.group(1)}() is nondeterministic "
                "across runs/executors; draw from np.random.default_rng(seed)",
            )
        match = re.fullmatch(r"random\.(\w+)", dotted)
        if match and match.group(1) in _STDLIB_RANDOM_DRAWS:
            yield _finding(
                file,
                node,
                "RPR001",
                f"global stdlib-RNG call random.{match.group(1)}(); "
                "draw from np.random.default_rng(seed)",
            )


def _write_mode(node: ast.Call, mode_pos: int) -> str | None:
    """The file-mode string literal of an ``open``-style call, if present."""
    mode: ast.expr | None = None
    if len(node.args) > mode_pos:
        mode = node.args[mode_pos]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _rule_rpr002(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """No raw artifact writes outside the atomic-write primitive's module."""
    if file.rel == IOUTIL_MODULE:
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        dotted = resolver.resolve(func)
        if dotted == "open" or dotted == "io.open" or dotted == "os.fdopen":
            mode = _write_mode(node, 1)
            if mode is not None and any(c in mode for c in "wax"):
                yield _finding(
                    file,
                    node,
                    "RPR002",
                    f"raw open(..., {mode!r}) can leave truncated/clobbered artifacts; "
                    "write through core.ioutil.atomic_write_bytes or "
                    "experiments.runner.atomic_write_text",
                )
        elif isinstance(func, ast.Attribute):
            if func.attr in ("write_text", "write_bytes"):
                yield _finding(
                    file,
                    node,
                    "RPR002",
                    f"Path.{func.attr}() is a non-atomic write; use "
                    "core.ioutil.atomic_write_bytes or "
                    "experiments.runner.atomic_write_text",
                )
            elif func.attr == "open":
                mode = _write_mode(node, 0)
                if mode is not None and any(c in mode for c in "wax"):
                    yield _finding(
                        file,
                        node,
                        "RPR002",
                        f".open({mode!r}) is a non-atomic write; use the "
                        "atomic writers in core.ioutil",
                    )


def _rule_rpr004(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """No wall clock in artifact-producing modules; timers are allowlisted."""
    if file.rel in TIMING_ALLOWLIST:
        return
    if any(file.rel.startswith(prefix) for prefix in TIMING_ALLOWLIST_DIRS):
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolver.resolve(node.func)
        if dotted is None:
            continue
        if dotted in _WALL_CLOCK:
            yield _finding(
                file,
                node,
                "RPR004",
                f"wall-clock read {dotted}() makes artifacts differ between "
                "identical runs; derive timestamps from inputs or drop them",
            )
        elif dotted in _TIMERS:
            yield _finding(
                file,
                node,
                "RPR004",
                f"{dotted}() outside the timing allowlist "
                f"({', '.join(TIMING_ALLOWLIST)}, benchmarks/); timing belongs "
                "to the harness, not artifact producers",
            )
        elif dotted in _IMPLICIT_NOW and not node.args and not node.keywords:
            yield _finding(
                file,
                node,
                "RPR004",
                f"{dotted}() with no argument reads the wall clock; pass an "
                "explicit timestamp derived from inputs",
            )


def _is_set_expr(node: ast.expr, resolver: NameResolver) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = resolver.resolve(node.func)
        return dotted in ("set", "frozenset")
    return False


def _rule_rpr005(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """No iteration over unordered set expressions; require ``sorted(...)``."""
    sanctioned: set[int] = set()
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call):
            dotted = resolver.resolve(node.func)
            if dotted in ("sorted", "min", "max", "sum", "len", "any", "all"):
                # Order-insensitive consumers: sorted() restores determinism,
                # the reductions never observe iteration order.
                for arg in node.args:
                    sanctioned.add(id(arg))

    def check(iterable: ast.expr) -> Iterator[Finding]:
        if id(iterable) not in sanctioned and _is_set_expr(iterable, resolver):
            yield _finding(
                file,
                iterable,
                "RPR005",
                "iterating an unordered set leaks salted ordering into "
                "downstream artifacts/streams; wrap it in sorted(...)",
            )

    for node in ast.walk(file.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from check(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield from check(gen.iter)
        elif isinstance(node, ast.Call):
            dotted = resolver.resolve(node.func)
            consumes_order = dotted in ("list", "tuple", "enumerate", "iter") or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "join"
            )
            if consumes_order and node.args:
                yield from check(node.args[0])


def _rule_rpr006(
    file: FileSource, resolver: NameResolver, index: ProjectIndex
) -> Iterator[Finding]:
    """Registered experiments must go through context-memoized accessors."""
    if file.rel not in index.experiment_modules:
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            # `context.batch_points(...)` style accessors never collide with
            # the producer names; a dotted producer call (module.func) does.
            name = target.attr
        if name in _CONTEXT_EQUIVALENTS:
            yield _finding(
                file,
                node,
                "RPR006",
                f"registered experiment recomputes {name}() inline; reuse the "
                f"memoized artifact via {_CONTEXT_EQUIVALENTS[name]}",
            )


def _rule_rpr008(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """Span/metric emission goes through ``repro.obs``, not print/logging."""
    if not file.rel.startswith("src/repro/"):
        return
    if file.rel in OBS_EMISSION_ALLOWLIST:
        return
    if any(file.rel.startswith(prefix) for prefix in OBS_EMISSION_ALLOWLIST_DIRS):
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolver.resolve(node.func)
        if dotted is None:
            continue
        if dotted in ("print", "builtins.print"):
            yield _finding(
                file,
                node,
                "RPR008",
                "ad-hoc print() inside the simulation stack; report progress "
                "through repro.obs.console() and record measurements as "
                "repro.obs spans/metrics",
            )
        elif dotted.startswith("logging."):
            yield _finding(
                file,
                node,
                "RPR008",
                f"ad-hoc {dotted}() inside the simulation stack; record "
                "measurements through repro.obs spans/metrics instead of a "
                "logging side channel",
            )


def _raw_address_expr(node: ast.expr, resolver: NameResolver) -> str | None:
    """Why ``node`` is a raw address array assembled at the call site, if it is.

    Names, attribute reads and method calls on existing objects pass — the
    rule polices *construction* at the boundary, not plumbing of values
    produced by the IR or the front-ends.
    """
    if isinstance(node, ast.BinOp):
        return "an arithmetic address expression"
    if isinstance(node, (ast.List, ast.Tuple)):
        return "an inline array literal"
    if isinstance(node, ast.Call):
        dotted = resolver.resolve(node.func)
        if dotted is not None and dotted.startswith("numpy."):
            return f"a {dotted}() array constructed inline"
    return None


def _rule_rpr009(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """Stream consumers take ``RequestStream``s, not call-site address arrays."""
    if any(file.rel.startswith(prefix) for prefix in STREAM_BOUNDARY_EXEMPT_DIRS):
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr not in _STREAM_CONSUMERS:
            continue
        first: ast.expr | None = node.args[0] if node.args else None
        if first is None:
            for kw in node.keywords:
                if kw.arg == "stream":
                    first = kw.value
        if first is None:
            continue
        reason = _raw_address_expr(first, resolver)
        if reason is not None:
            yield _finding(
                file,
                node,
                "RPR009",
                f"{reason} passed straight to {node.func.attr}() bypasses the "
                "typed request-stream IR; build a repro.streams.RequestStream "
                "(front-end or FilteredStream producer) and pass that",
            )


def _load_time_imports(tree: ast.Module, resolver: NameResolver) -> Iterator[tuple[ast.stmt, str]]:
    """``(statement, module)`` of every absolute import run when the module loads.

    Function bodies run later and ``if TYPE_CHECKING:`` bodies never run, so
    both are skipped; class bodies and ``if``/``try``/``with`` blocks run.
    """
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node, node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If) and resolver.resolve(node.test) in _TYPE_CHECKING:
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _rule_rpr010(file: FileSource, resolver: NameResolver) -> Iterator[Finding]:
    """``src/repro`` loads only the standard library, numpy and itself."""
    if not file.rel.startswith("src/repro/"):
        return
    for node, module in _load_time_imports(file.tree, resolver):
        if module.split(".")[0] not in _MODULE_LEVEL_IMPORTS:
            yield _finding(
                file,
                node,
                "RPR010",
                f"module-level import of {module} needs a package setup.py does "
                "not install (install_requires is numpy alone); import it inside "
                "the function that uses it",
            )


def _finding(file: FileSource, node: ast.AST, rule: str, message: str) -> Finding:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return Finding(file.rel, line, col, rule, message)


# --------------------------------------------------------------------------
# project-wide rules
# --------------------------------------------------------------------------


def project_findings(index: ProjectIndex) -> Iterator[Finding]:
    """RPR003: key-reachable dataclasses frozen, with immutable defaults."""
    reachable = index.key_reachable()
    for name in sorted(reachable):
        info = index.dataclasses[name]
        root = reachable[name]
        via = "" if root == name else f" (reachable from canonical-key root {root})"
        if not info.frozen:
            yield Finding(
                info.path,
                info.line,
                info.col,
                "RPR003",
                f"dataclass {name} is hashed into context/store canonical "
                f"keys{via} but is not frozen=True; a post-keying mutation "
                "would silently desynchronize memo and store lookups",
            )
        for fld in info.fields:
            if fld.mutable_default:
                yield Finding(
                    info.path,
                    fld.line,
                    0,
                    "RPR003",
                    f"field {name}.{fld.name} defaults to a mutable container; "
                    "canonical-key dataclasses need immutable defaults "
                    "(tuple / frozen dataclass / None)",
                )
