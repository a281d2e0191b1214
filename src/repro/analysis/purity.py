"""Whole-program determinism analyzer: sources, sinks, and facades.

The repo's headline guarantees are *determinism contracts*: byte-identical
checkpoint resume, fixed-clock canonical :class:`~repro.obs.runlog.RunRecord`
serialization, seeded fault injection, and bench observations that stay
comparable PR-over-PR.  Each is enforced dynamically (kill-and-resume
tests, golden bytes), but they erode statically — one convenient
``time.time()`` or unordered ``set`` iteration at a time.  This module
proves the contracts structurally, over the call graph built by
:mod:`repro.analysis.callgraph`:

* a **nondeterminism source** is a call or construct whose value varies
  across runs with identical inputs — wall-clock reads (``time.time``,
  ``datetime.now``), global-RNG calls (``random.*`` outside a seeded
  ``random.Random`` instance), entropy (``os.urandom``, ``uuid.*``,
  ``secrets``), ``id()``, ``os.environ`` reads, iteration over
  set-typed values into an ordered consumer, and true division landing
  in a byte-count binding;
* a **determinism sink** is a function whose output must be
  byte-reproducible — the checkpoint journal, canonical run-record
  serialization, the trace/metrics exporters, rendered artifact
  writers, and the grid merge whose order defines result order;
* a **facade** is a reviewed laundering point where nondeterminism is
  by design converted into a pinned input — the injected-clock default
  in ``runlog._new_record`` and the seed-derived fault-decision hash.

Effects propagate by fixpoint over the call graph (a function is
tainted if it performs a source effect or calls a tainted function;
facade edges do not propagate).  A finding is reported at every
**minimal confluence**: the lowest function from which both a source
and a sink are reachable, with the full call chain to each — exactly
the evidence a reviewer needs to either fix the path or suppress it in
``purity-baseline.toml`` with a justification.  Baseline entries that
stop matching anything are themselves findings (``unused-suppression``),
so the suppression file can only shrink.

Backing for ``repro purity`` (text, JSON, and
SARIF 2.1.0 output) and the pytest repo-clean guard in
``tests/analysis/test_purity.py``.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    build_callgraph,
    default_root,
)
from repro.errors import UsageError

#: Analyzer identity carried into SARIF output.
TOOL_NAME = "repro-purity"
TOOL_VERSION = "1.0.0"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Default baseline file name, repo-root relative.
BASELINE_FILENAME = "purity-baseline.toml"

#: Finding rule ids.
RULE_PATH = "purity-path"
RULE_UNUSED = "unused-suppression"


# ---------------------------------------------------------------------------
# Source classification
# ---------------------------------------------------------------------------

#: Wall-clock reads: vary across runs, must route through the injected
#: clock facade instead.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: OS entropy and unique-id generators.
ENTROPY_CALLS = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5"}
)

#: Environment reads resolved as calls (subscript reads are a graph fact).
ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environb.get"})

#: Source kinds (finding vocabulary).
KIND_WALL_CLOCK = "wall-clock"
KIND_RANDOM = "global-random"
KIND_ENTROPY = "entropy"
KIND_OBJECT_ID = "object-id"
KIND_ENV = "env-read"
KIND_UNORDERED = "unordered-iteration"
KIND_FLOAT_BYTE = "float-accumulation"


def classify_source_call(qualname: str) -> Optional[Tuple[str, str]]:
    """``(kind, token)`` when a resolved callee is a nondeterminism
    source, else ``None``.

    Seeded ``random.Random`` instances are the sanctioned facade for
    randomness, so their methods are *not* sources; module-level
    ``random.*`` functions (the process-global RNG) and
    ``random.SystemRandom`` (OS entropy) are.
    """
    if qualname in WALL_CLOCK_CALLS:
        return (KIND_WALL_CLOCK, qualname)
    if qualname in ENTROPY_CALLS or qualname.startswith("secrets."):
        return (KIND_ENTROPY, qualname)
    if qualname in ENV_CALLS:
        return (KIND_ENV, qualname)
    if qualname == "builtins.id":
        return (KIND_OBJECT_ID, qualname)
    if qualname == "random.SystemRandom" or qualname.startswith(
        "random.SystemRandom."
    ):
        return (KIND_ENTROPY, qualname)
    if qualname.startswith("random."):
        rest = qualname[len("random."):]
        if rest == "Random" or rest.startswith("Random."):
            return None  # seeded-instance facade
        return (KIND_RANDOM, qualname)
    return None


# ---------------------------------------------------------------------------
# Configuration: sinks, facades, dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SinkSpec:
    """One function whose output must stay byte-reproducible."""

    qualname: str
    label: str
    description: str


@dataclass(frozen=True)
class FacadeSpec:
    """One reviewed laundering point effects may legitimately pass
    through; the justification names the dynamic test pinning it."""

    qualname: str
    justification: str


@dataclass(frozen=True)
class PurityConfig:
    """Everything the analyzer needs besides the tree itself."""

    sinks: Tuple[SinkSpec, ...]
    facades: Tuple[FacadeSpec, ...]
    #: Dispatcher qualname -> callee qualnames / ``@registered:<module>``.
    dispatch: Tuple[Tuple[str, Tuple[str, ...]], ...]
    package: str = "repro"

    def sink_labels(self) -> Dict[str, str]:
        return {sink.qualname: sink.label for sink in self.sinks}

    def facade_names(self) -> Set[str]:
        return {facade.qualname for facade in self.facades}

    def dispatch_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.dispatch)


#: The repo's determinism sinks: where bytes become artifacts.
DEFAULT_SINKS: Tuple[SinkSpec, ...] = (
    SinkSpec(
        "repro.runner.checkpoint.RunCheckpoint.record",
        "checkpoint-journal",
        "appends one finished cell to the resume journal; resumed runs "
        "must be byte-identical to uninterrupted ones",
    ),
    SinkSpec(
        "repro.runner.checkpoint.cell_digest",
        "checkpoint-identity",
        "content digest identifying a cell across runs and processes",
    ),
    SinkSpec(
        "repro.obs.runlog.RunRecord.to_json",
        "runlog-serialization",
        "canonical one-line run-record serialization (sorted keys, "
        "fixed separators); fixed clock + fixed inputs => fixed bytes",
    ),
    SinkSpec(
        "repro.obs.runlog.RunLedger.append",
        "runlog-ledger",
        "appends a canonical record line to the persistent ledger",
    ),
    SinkSpec(
        "repro.obs.export.chrome_trace_events",
        "trace-export",
        "flattens spans/exchanges into trace events; byte-stable across "
        "identical runs",
    ),
    SinkSpec(
        "repro.obs.export.write_chrome_trace",
        "trace-export",
        "writes the Chrome trace-event JSON artifact",
    ),
    SinkSpec(
        "repro.obs.export.write_prometheus_textfile",
        "metrics-export",
        "renders and atomically writes the Prometheus textfile",
    ),
    SinkSpec(
        "repro.reporting.render.write_tables",
        "report-artifact",
        "writes every rendered table artifact (txt and markdown) of "
        "run-all and the full report",
    ),
    SinkSpec(
        "repro.runner.runall.write_report",
        "runall-artifact",
        "writes every run-all artifact; CI diffs fresh vs resumed "
        "output directories byte for byte",
    ),
    SinkSpec(
        "repro.reporting.bench.BenchReport.write",
        "bench-artifact",
        "persists the schema-versioned benchmark observation",
    ),
    SinkSpec(
        "repro.runner.grid.ExperimentGrid.add",
        "grid-merge",
        "grid order defines result order, so two runs of one grid "
        "return equal outcomes",
    ),
)

#: The repo's reviewed facades; each justification names the dynamic
#: test that pins the laundered value.
DEFAULT_FACADES: Tuple[FacadeSpec, ...] = (
    FacadeSpec(
        "repro.obs.runlog._new_record",
        "injected clock: the wall-clock default is the declared "
        "timestamp facade; byte-identity under a fixed clock is pinned "
        "by tests/obs/test_runlog.py",
    ),
    FacadeSpec(
        "repro.faults.plan.FaultInjector._unit",
        "seed-derived SHA-256 decision stream: same seed => same "
        "faults, pinned by tests/faults/test_plan.py",
    ),
)


def default_dispatch() -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Registry dispatchers that need synthetic call edges: the grid
    executor runs the registered cell functions and every registered
    attack family's ``measure``, read off the registry so that a new
    family is dispatched without an edit here."""
    from repro.analysis.families import FAMILIES

    measures = tuple(
        f"{family.measure.__module__}.{family.measure.__qualname__}"
        for family in FAMILIES
    )
    return (
        (
            "repro.runner.experiments.execute_cell",
            ("@registered:repro.runner.experiments", *measures),
        ),
    )


def default_config() -> PurityConfig:
    """The repo's source/sink/facade tables (see DESIGN.md)."""
    return PurityConfig(
        sinks=DEFAULT_SINKS,
        facades=DEFAULT_FACADES,
        dispatch=default_dispatch(),
    )


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceOrigin:
    """One intrinsic source effect at a concrete location."""

    kind: str
    token: str
    function: str
    line: int


@dataclass(frozen=True)
class ChainStep:
    """One hop of a reported call chain."""

    qualname: str
    rel_path: str
    line: int


@dataclass(frozen=True)
class PurityFinding:
    """One source-to-sink path (or an unused baseline entry)."""

    rule: str
    message: str
    rel_path: str
    line: int
    source_kind: str = ""
    source_token: str = ""
    source_function: str = ""
    sink: str = ""
    sink_label: str = ""
    confluence: str = ""
    source_chain: Tuple[ChainStep, ...] = ()
    sink_chain: Tuple[ChainStep, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "message": self.message,
            "path": self.rel_path,
            "line": self.line,
        }
        if self.rule == RULE_PATH:
            payload.update(
                {
                    "source_kind": self.source_kind,
                    "source_token": self.source_token,
                    "source_function": self.source_function,
                    "sink": self.sink,
                    "sink_label": self.sink_label,
                    "confluence": self.confluence,
                    "source_chain": [
                        {"function": s.qualname, "path": s.rel_path, "line": s.line}
                        for s in self.source_chain
                    ],
                    "sink_chain": [
                        {"function": s.qualname, "path": s.rel_path, "line": s.line}
                        for s in self.sink_chain
                    ],
                }
            )
        return payload


@dataclass(frozen=True)
class BaselineEntry:
    """One reviewed suppression from ``purity-baseline.toml``."""

    rule: str
    source: str
    sink: str
    justification: str
    function: str = "*"

    def matches(self, finding: PurityFinding) -> bool:
        return (
            finding.rule == self.rule
            and fnmatch.fnmatchcase(finding.source_token, self.source)
            and fnmatch.fnmatchcase(finding.sink, self.sink)
            and fnmatch.fnmatchcase(finding.source_function, self.function)
        )


@dataclass(frozen=True)
class PurityReport:
    """The analyzer's complete verdict over one tree."""

    findings: Tuple[PurityFinding, ...]
    suppressed: Tuple[PurityFinding, ...]
    unused_suppressions: Tuple[BaselineEntry, ...]
    module_count: int
    function_count: int
    edge_count: int
    source_prefix: str = "src/repro"
    baseline_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        """No unsuppressed findings and no stale baseline entries."""
        return not self.findings and not self.unused_suppressions

    def display_path(self, rel_path: str) -> str:
        if not self.source_prefix:
            return rel_path
        return f"{self.source_prefix}/{rel_path}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "modules": self.module_count,
            "functions": self.function_count,
            "edges": self.edge_count,
            "baseline": self.baseline_path,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "unused_suppressions": [
                {
                    "rule": entry.rule,
                    "source": entry.source,
                    "sink": entry.sink,
                    "function": entry.function,
                    "justification": entry.justification,
                }
                for entry in self.unused_suppressions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Fixpoint propagation
# ---------------------------------------------------------------------------

def _own_effects(node: FunctionNode) -> List[SourceOrigin]:
    effects: List[SourceOrigin] = []
    for site in node.calls:
        classified = classify_source_call(site.callee)
        if classified is not None:
            kind, token = classified
            effects.append(
                SourceOrigin(
                    kind=kind, token=token, function=node.qualname, line=site.line
                )
            )
    for line in node.set_iterations:
        effects.append(
            SourceOrigin(
                kind=KIND_UNORDERED,
                token="set-iteration",
                function=node.qualname,
                line=line,
            )
        )
    for line in node.env_reads:
        effects.append(
            SourceOrigin(
                kind=KIND_ENV,
                token="os.environ[]",
                function=node.qualname,
                line=line,
            )
        )
    for line in node.float_byte_divisions:
        effects.append(
            SourceOrigin(
                kind=KIND_FLOAT_BYTE,
                token="float-byte-division",
                function=node.qualname,
                line=line,
            )
        )
    return effects


#: Parent pointer: the call site that contributed a propagated fact
#: (``None`` for the function's own effects / own sink membership).
_Parent = Optional[CallSite]


class _Propagation:
    """Taint and sink reachability to fixpoint over the graph."""

    def __init__(self, graph: CallGraph, config: PurityConfig) -> None:
        self.graph = graph
        self.facades = config.facade_names()
        self.sink_names = {sink.qualname for sink in config.sinks}
        #: function -> origin -> contributing call site (None = own).
        self.taint: Dict[str, Dict[SourceOrigin, _Parent]] = {}
        #: function -> sink qualname -> contributing call site.
        self.sink_reach: Dict[str, Dict[str, _Parent]] = {}
        self._run()

    def _run(self) -> None:
        callers: Dict[str, List[str]] = {}
        for qualname, node in self.graph.functions.items():
            self.taint[qualname] = {}
            self.sink_reach[qualname] = {}
            for site in node.calls:
                if site.callee in self.graph.functions:
                    callers.setdefault(site.callee, []).append(qualname)

        worklist: List[str] = []
        for qualname, node in self.graph.functions.items():
            if qualname not in self.facades:
                for origin in _own_effects(node):
                    self.taint[qualname][origin] = None
            if qualname in self.sink_names:
                self.sink_reach[qualname][qualname] = None
            if self.taint[qualname] or self.sink_reach[qualname]:
                worklist.append(qualname)

        while worklist:
            current = worklist.pop()
            if current in self.facades:
                continue  # facades do not propagate upward
            current_taint = self.taint[current]
            current_sinks = self.sink_reach[current]
            for caller in callers.get(current, ()):
                if caller in self.facades:
                    continue
                changed = False
                site = self._edge(caller, current)
                if site is None:
                    continue
                caller_taint = self.taint[caller]
                for origin in current_taint:
                    if origin not in caller_taint:
                        caller_taint[origin] = site
                        changed = True
                caller_sinks = self.sink_reach[caller]
                for sink in current_sinks:
                    if sink not in caller_sinks:
                        caller_sinks[sink] = site
                        changed = True
                if changed:
                    worklist.append(caller)

    def _edge(self, caller: str, callee: str) -> Optional[CallSite]:
        for site in self.graph.functions[caller].calls:
            if site.callee == callee:
                return site
        return None

    # -- chain reconstruction ------------------------------------------

    def source_chain(
        self, start: str, origin: SourceOrigin
    ) -> Tuple[ChainStep, ...]:
        steps: List[ChainStep] = []
        current = start
        guard = 0
        while guard < len(self.graph.functions) + 1:
            guard += 1
            node = self.graph.functions[current]
            parent = self.taint[current].get(origin)
            if parent is None:
                steps.append(
                    ChainStep(
                        qualname=current,
                        rel_path=node.rel_path,
                        line=origin.line if current == origin.function else node.line,
                    )
                )
                return tuple(steps)
            steps.append(
                ChainStep(qualname=current, rel_path=node.rel_path, line=parent.line)
            )
            current = parent.callee
        return tuple(steps)

    def sink_chain(self, start: str, sink: str) -> Tuple[ChainStep, ...]:
        steps: List[ChainStep] = []
        current = start
        guard = 0
        while guard < len(self.graph.functions) + 1:
            guard += 1
            node = self.graph.functions[current]
            parent = self.sink_reach[current].get(sink)
            if parent is None:
                steps.append(
                    ChainStep(
                        qualname=current, rel_path=node.rel_path, line=node.line
                    )
                )
                return tuple(steps)
            steps.append(
                ChainStep(qualname=current, rel_path=node.rel_path, line=parent.line)
            )
            current = parent.callee
        return tuple(steps)


def _minimal_confluences(
    graph: CallGraph, config: PurityConfig, prop: _Propagation
) -> List[PurityFinding]:
    """One finding per (origin, sink) pair at each lowest merge point."""
    labels = config.sink_labels()
    facades = config.facade_names()
    findings: List[PurityFinding] = []
    reported: Set[Tuple[SourceOrigin, str, str]] = set()
    for qualname in sorted(graph.functions):
        if qualname in facades:
            continue
        taint = prop.taint[qualname]
        sinks = prop.sink_reach[qualname]
        if not taint or not sinks:
            continue
        internal = [
            site.callee
            for site in graph.internal_callees(qualname)
            if site.callee not in facades
        ]
        for origin in taint:
            for sink in sinks:
                lower = any(
                    origin in prop.taint[callee] and sink in prop.sink_reach[callee]
                    for callee in internal
                )
                if lower:
                    continue
                key = (origin, sink, qualname)
                if key in reported:
                    continue
                reported.add(key)
                node = graph.functions[origin.function]
                findings.append(
                    PurityFinding(
                        rule=RULE_PATH,
                        message=(
                            f"{origin.kind} source {origin.token} in "
                            f"{origin.function} can reach "
                            f"{labels.get(sink, 'determinism')} sink {sink} "
                            f"(paths merge at {qualname})"
                        ),
                        rel_path=node.rel_path,
                        line=origin.line,
                        source_kind=origin.kind,
                        source_token=origin.token,
                        source_function=origin.function,
                        sink=sink,
                        sink_label=labels.get(sink, ""),
                        confluence=qualname,
                        source_chain=prop.source_chain(qualname, origin),
                        sink_chain=prop.sink_chain(qualname, sink),
                    )
                )
    findings.sort(
        key=lambda f: (f.rel_path, f.line, f.sink, f.confluence, f.source_token)
    )
    return findings


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def _parse_baseline_toml(text: str, path: str) -> List[BaselineEntry]:
    """Parse the baseline file.

    Uses :mod:`tomllib` where available (3.11+); otherwise falls back
    to a strict subset parser covering exactly the baseline's shape:
    full-line comments, ``[[suppression]]`` table headers, and
    ``key = "value"`` string pairs.
    """
    rows: List[Dict[str, str]]
    try:
        import tomllib
    except ImportError:
        rows = _parse_toml_subset(text, path)
    else:
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise UsageError(f"{path}: invalid TOML: {error}")
        raw = payload.get("suppression", [])
        if not isinstance(raw, list):
            raise UsageError(f"{path}: [[suppression]] must be an array of tables")
        rows = []
        for item in raw:
            if not isinstance(item, dict) or not all(
                isinstance(v, str) for v in item.values()
            ):
                raise UsageError(f"{path}: suppression values must be strings")
            rows.append({str(k): str(v) for k, v in item.items()})
    return [_entry_from_row(row, path) for row in rows]


def _parse_toml_subset(text: str, path: str) -> List[Dict[str, str]]:
    rows: List[Dict[str, str]] = []
    current: Optional[Dict[str, str]] = None
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[suppression]]":
            current = {}
            rows.append(current)
            continue
        if "=" in line and current is not None:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if (
                len(value) >= 2
                and value[0] == '"'
                and value[-1] == '"'
                and key.isidentifier()
            ):
                current[key] = value[1:-1]
                continue
        raise UsageError(
            f"{path}:{number}: unsupported baseline syntax {line!r} "
            "(expected [[suppression]] tables of key = \"value\" pairs)"
        )
    return rows


def _entry_from_row(row: Mapping[str, str], path: str) -> BaselineEntry:
    missing = [key for key in ("rule", "source", "sink", "justification") if key not in row]
    if missing:
        raise UsageError(
            f"{path}: suppression entry is missing {', '.join(missing)}"
        )
    if not row["justification"].strip():
        raise UsageError(f"{path}: suppression justification must not be empty")
    return BaselineEntry(
        rule=row["rule"],
        source=row["source"],
        sink=row["sink"],
        justification=row["justification"],
        function=row.get("function", "*"),
    )


def load_baseline(path: Union[str, Path]) -> List[BaselineEntry]:
    """Load and validate the suppression baseline."""
    baseline_path = Path(path)
    if not baseline_path.is_file():
        raise UsageError(f"baseline file {baseline_path} does not exist")
    return _parse_baseline_toml(
        baseline_path.read_text(encoding="utf-8"), str(baseline_path)
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_callgraph(
    graph: CallGraph,
    config: Optional[PurityConfig] = None,
    baseline: Sequence[BaselineEntry] = (),
    source_prefix: str = "src/repro",
    baseline_path: Optional[str] = None,
) -> PurityReport:
    """Run the purity analysis over an already-built call graph."""
    cfg = config if config is not None else default_config()
    prop = _Propagation(graph, cfg)
    all_findings = _minimal_confluences(graph, cfg, prop)
    used: Set[int] = set()
    open_findings: List[PurityFinding] = []
    suppressed: List[PurityFinding] = []
    for finding in all_findings:
        matched = False
        for index, entry in enumerate(baseline):
            if entry.matches(finding):
                used.add(index)
                matched = True
                break
        (suppressed if matched else open_findings).append(finding)
    unused = tuple(
        entry for index, entry in enumerate(baseline) if index not in used
    )
    return PurityReport(
        findings=tuple(open_findings),
        suppressed=tuple(suppressed),
        unused_suppressions=unused,
        module_count=graph.module_count,
        function_count=len(graph),
        edge_count=graph.edge_count,
        source_prefix=source_prefix,
        baseline_path=baseline_path,
    )


def analyze_tree(
    root: Optional[Union[str, Path]] = None,
    config: Optional[PurityConfig] = None,
    baseline: Sequence[BaselineEntry] = (),
    source_prefix: Optional[str] = None,
    baseline_path: Optional[str] = None,
) -> PurityReport:
    """Build the call graph under ``root`` and analyze it.

    ``root`` defaults to the installed ``repro`` package; the default
    ``source_prefix`` renders finding paths repo-relative.
    """
    cfg = config if config is not None else default_config()
    anchor = Path(root) if root is not None else default_root()
    graph = build_callgraph(
        root=anchor, package=cfg.package, dispatch=cfg.dispatch_map()
    )
    if source_prefix is None:
        source_prefix = "src/repro" if root is None else ""
    return analyze_callgraph(
        graph,
        config=cfg,
        baseline=baseline,
        source_prefix=source_prefix,
        baseline_path=baseline_path,
    )


def missing_sink_functions(
    graph: CallGraph, config: Optional[PurityConfig] = None
) -> List[str]:
    """Configured sinks/facades that no longer exist in the tree.

    A renamed sink silently un-gates its contract, so the repo-clean
    test fails if this is non-empty.
    """
    cfg = config if config is not None else default_config()
    names = [sink.qualname for sink in cfg.sinks]
    names.extend(facade.qualname for facade in cfg.facades)
    return [name for name in names if name not in graph.functions]


# ---------------------------------------------------------------------------
# Rendering: text / JSON / SARIF
# ---------------------------------------------------------------------------

def _render_chain(report: PurityReport, chain: Sequence[ChainStep]) -> str:
    return " -> ".join(
        f"{step.qualname} ({report.display_path(step.rel_path)}:{step.line})"
        for step in chain
    )


def render_text(report: PurityReport) -> str:
    """Human-readable findings block, one stanza per finding."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{report.display_path(finding.rel_path)}:{finding.line}: "
            f"[{finding.rule}] {finding.message}"
        )
        if finding.rule == RULE_PATH:
            lines.append(
                "    source chain: " + _render_chain(report, finding.source_chain)
            )
            lines.append(
                "    sink chain:   " + _render_chain(report, finding.sink_chain)
            )
    for entry in report.unused_suppressions:
        location = report.baseline_path or BASELINE_FILENAME
        lines.append(
            f"{location}:1: [{RULE_UNUSED}] baseline entry "
            f"(rule={entry.rule!r}, source={entry.source!r}, "
            f"sink={entry.sink!r}) no longer matches any finding; "
            "delete it"
        )
    summary = (
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.unused_suppressions)} unused suppression(s) "
        f"[{report.module_count} modules, {report.function_count} functions, "
        f"{report.edge_count} edges]"
    )
    lines.append(summary)
    return "\n".join(lines)


_RULE_DESCRIPTORS: Tuple[Dict[str, Any], ...] = (
    {
        "id": RULE_PATH,
        "name": "NondeterminismReachesSink",
        "shortDescription": {
            "text": "A nondeterminism source can reach a determinism sink "
            "without passing through a declared facade."
        },
        "defaultConfiguration": {"level": "error"},
    },
    {
        "id": RULE_UNUSED,
        "name": "UnusedSuppression",
        "shortDescription": {
            "text": "A purity-baseline.toml entry no longer matches any "
            "finding and must be deleted."
        },
        "defaultConfiguration": {"level": "warning"},
    },
)


def _sarif_location(
    report: PurityReport, rel_path: str, line: int, message: Optional[str] = None
) -> Dict[str, Any]:
    location: Dict[str, Any] = {
        "physicalLocation": {
            "artifactLocation": {"uri": report.display_path(rel_path)},
            "region": {"startLine": max(1, line)},
        }
    }
    if message is not None:
        location["message"] = {"text": message}
    return location


def _sarif_thread_flow(
    report: PurityReport, finding: PurityFinding
) -> Dict[str, Any]:
    """One thread flow: source effect up to the confluence, then down
    to the sink."""
    steps: List[Dict[str, Any]] = []
    for step in reversed(finding.source_chain):
        steps.append(
            {
                "location": _sarif_location(
                    report, step.rel_path, step.line, message=step.qualname
                )
            }
        )
    for step in finding.sink_chain[1:]:
        steps.append(
            {
                "location": _sarif_location(
                    report, step.rel_path, step.line, message=step.qualname
                )
            }
        )
    return {"threadFlows": [{"locations": steps}]}


def to_sarif(report: PurityReport) -> Dict[str, Any]:
    """The report as a SARIF 2.1.0 log (one run)."""
    results: List[Dict[str, Any]] = []
    for finding in report.findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                _sarif_location(report, finding.rel_path, finding.line)
            ],
        }
        if finding.rule == RULE_PATH:
            result["codeFlows"] = [_sarif_thread_flow(report, finding)]
            result["relatedLocations"] = [
                _sarif_location(
                    report,
                    finding.sink_chain[-1].rel_path,
                    finding.sink_chain[-1].line,
                    message=f"sink {finding.sink}",
                )
            ]
        results.append(result)
    for entry in report.unused_suppressions:
        results.append(
            {
                "ruleId": RULE_UNUSED,
                "level": "warning",
                "message": {
                    "text": (
                        f"baseline entry (rule={entry.rule!r}, "
                        f"source={entry.source!r}, sink={entry.sink!r}) "
                        "no longer matches any finding; delete it"
                    )
                },
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": report.baseline_path or BASELINE_FILENAME
                            },
                            "region": {"startLine": 1},
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri": "https://example.invalid/repro",
                        "rules": [dict(rule) for rule in _RULE_DESCRIPTORS],
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def to_sarif_json(report: PurityReport) -> str:
    return json.dumps(to_sarif(report), indent=2, sort_keys=True)
