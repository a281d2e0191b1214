"""Every module under ``src/repro`` is reached from something that runs,
the packages on the way load nothing of their own, the static analysis
loads no traffic simulator while every simulating entry point loads it
before it is timed, and every defaulted parameter, and every defaulted
field of a frozen dataclass or ``NamedTuple``, is one some caller sets.

The roots are the CLI (``repro.cli``, ``repro.__main__``) and every
benchmark and script file.  The walk follows ``import`` statements
(lazy ones inside functions too) read with :mod:`ast`; importing a
module also runs its parent packages, so they are reached with it.

A package ``__init__`` re-exports nothing: every name is imported from
the module that defines it, so importing one module loads only what that
module uses.  The one exception is the vendor registry in
``repro/cdn/vendors/__init__.py``.
"""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _modules() -> Dict[str, Path]:
    return {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _entry_scripts() -> List[Path]:
    return sorted(
        path
        for folder in ("benchmarks", "scripts")
        for path in (ROOT / folder).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    )


def _imports(path: Path, module: str) -> Iterator[str]:
    """Dotted names ``path`` imports: modules, and ``module.attr`` for
    ``from module import attr`` (which may name a submodule)."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def unreached() -> List[str]:
    modules = _modules()
    pending = list(ENTRY_MODULES)
    for script in _entry_scripts():
        pending.extend(_imports(script, ""))
    reached = set()
    while pending:
        for name in _with_parents(pending.pop()):
            if name in modules and name not in reached:
                reached.add(name)
                pending.extend(_imports(modules[name], name))
    return sorted(set(modules) - reached)


def test_every_module_is_reached():
    missing = unreached()
    assert not missing, f"modules nothing runs: {', '.join(missing)}"


#: Modules the audit (``analyze_vendor_matrix`` + ``recommend``) never
#: uses, which package re-exports used to load with it.
AUDIT_UNUSED = (
    "repro.core.connection_drop",
    "repro.core.economics",
    "repro.core.feasibility",
    "repro.core.practical",
    "repro.defense.ratelimit",
    "repro.faults.experiment",
    "repro.netsim.bandwidth",
    "repro.obs.export",
    "repro.obs.profile",
    "repro.obs.progress",
    "repro.obs.runlog",
)


def _package_body(path: Path) -> List[str]:
    """What a package ``__init__`` holds besides its docstring and the
    ``__future__`` import, one line per statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    return [
        ast.unparse(node)
        for node in body
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
    ]


def test_packages_reexport_nothing():
    vendors = SRC / "repro" / "cdn" / "vendors" / "__init__.py"
    found = {}
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        if path == vendors:
            continue
        top = path.parent == SRC / "repro"
        extra = [
            line
            for line in _package_body(path)
            if not (top and line.startswith("__version__ = "))
        ]
        if extra:
            found[str(path.relative_to(SRC))] = extra
    assert not found, f"package inits with more than a docstring: {found}"


def _run(code: str) -> str:
    """What ``code`` prints in a fresh interpreter (``sys`` imported)."""
    return subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _loaded_after(code: str) -> List[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    code += "\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    return _run(code).splitlines()[-1].split()


#: What the e2e audit workload imports before it is timed.
AUDIT_IMPORTS = "import repro.analysis.recommend, repro.analysis.report"


def test_audit_imports_load_only_what_the_audit_uses():
    loaded = _loaded_after(AUDIT_IMPORTS)
    assert "repro.analysis.recommend" in loaded
    assert not set(AUDIT_UNUSED) & set(loaded)
    assert not [m for m in loaded if m.startswith(("repro.runner", "repro.serve"))]


#: The traffic simulator: attacks, deployments, edge nodes, retries.
#: The static analysis answers without sending traffic, so it loads
#: none of them (nor stdlib ``logging``, which only the edge node uses).
WIRE_MODULES = (
    "repro.core.sbr",
    "repro.core.obr",
    "repro.core.ccfc",
    "repro.core.deployment",
    "repro.cdn.node",
    "repro.cdn.cache",
    "repro.handler",
    "repro.faults.retry",
)


def test_audit_loads_no_wire_module_before_or_during_the_op():
    # Sizes off the defaults, as the e2e audit runs them, so that every
    # size-keyed memo misses: the op must not import what set-up left out.
    code = (
        f"{AUDIT_IMPORTS}\n"
        "before = sorted(sys.modules)\n"
        "print(' '.join(before))\n"
        "from repro.analysis.recommend import recommend\n"
        "from repro.analysis.report import analyze_vendor_matrix\n"
        "sizes = dict(resource_size=3 << 20, obr_resource_size=2048,\n"
        "             ccfc_resource_size=5 << 20)\n"
        "recommend(report=analyze_vendor_matrix(**sizes), **sizes)\n"
        "print(' '.join(sorted(set(sys.modules) - set(before))))"
    )
    before, during = _run(code).splitlines()
    assert not set(WIRE_MODULES) & set(before.split())
    assert "logging" not in before.split()
    assert not [m for m in during.split() if m.startswith("repro")]


def test_cli_imports_no_wire_module():
    loaded = _loaded_after("import repro.cli")
    assert not set(WIRE_MODULES) & set(loaded)
    assert not [
        m for m in loaded if m.startswith(("repro.netsim", "repro.origin", "repro.faults"))
    ]


#: Modules only other commands run: ``repro serve`` must not load them.
SERVE_UNUSED = (
    "repro.core.economics",
    "repro.core.feasibility",
    "repro.core.practical",
    "repro.netsim.bandwidth",
    "repro.reporting.render",
)


def test_serve_imports_load_no_other_command():
    loaded = _loaded_after("import repro.cli, repro.serve.app, repro.serve.server")
    assert "repro.serve.server" in loaded
    assert not set(SERVE_UNUSED) & set(loaded)


#: What the e2e simulate workload imports before it is timed.
SIMULATE_MODULES = (
    "repro.core.sbr",
    "repro.core.obr",
    "repro.core.ccfc",
    "repro.analysis.bounds",
    "repro.runner.executor",
    "repro.runner.grid",
)


def test_simulate_imports_load_no_family_module():
    # The exact grid needs the attacks and the runner, not the analysis
    # layer: no family module, no report, no mitigation wrappers.
    loaded = _loaded_after(f"import {', '.join(SIMULATE_MODULES)}")
    assert set(SIMULATE_MODULES) <= set(loaded)
    assert not [
        m
        for m in loaded
        if m == "repro.analysis.families" or m.startswith("repro.families")
    ]
    assert "repro.analysis.report" not in loaded
    assert "repro.defense.mitigations" not in loaded


#: The traffic stack every simulating entry point loads before it is
#: timed (the attack modules import it at their top).
WIRE_STACK = ("repro.core.deployment", "repro.cdn.node", "repro.netsim.connection")


@pytest.mark.parametrize(
    "code",
    [
        "import repro.runner.runall",
        f"import {', '.join(SIMULATE_MODULES)}",
        # ``repro serve`` builds its service before it listens.
        "import repro.cli\n"
        "from repro.serve.app import AnalysisService, ServeConfig\n"
        "AnalysisService(ServeConfig())",
    ],
    ids=["runall", "simulate", "serve"],
)
def test_simulating_entry_points_load_the_wire_stack_up_front(code):
    assert set(WIRE_STACK) <= set(_loaded_after(code))


@pytest.mark.parametrize("module", ["repro.runner.runall", "repro.runner.executor"])
def test_grid_runner_loads_no_process_pool(module):
    # The grid runs serially in process: importing the runner loads
    # neither ``multiprocessing`` nor ``concurrent.futures``.
    code = f"import {module}\nprint(' '.join(sorted(sys.modules)))"
    loaded = _run(code).split()
    assert module in loaded
    assert not [
        m
        for m in loaded
        if m.partition(".")[0] == "multiprocessing" or m.startswith("concurrent")
    ]


def test_serve_answers_exact_items_without_the_runner():
    code = (
        "import json\n"
        "from repro.http.message import HttpRequest\n"
        "from repro.serve.app import AnalysisService\n"
        "items = [\n"
        "    {'vendor': 'cloudflare', 'size': 1024, 'exact': True},\n"
        "    {'vendor': 'cloudflare', 'attack': 'ccfc', 'size': 1024, 'exact': True},\n"
        "    {'fcdn': 'cdn77', 'bcdn': 'akamai', 'size': 1024, 'exact': True},\n"
        "]\n"
        "body = json.dumps({'items': items}).encode()\n"
        "request = HttpRequest(method='POST', target='/v1/analyze',\n"
        "    headers=[('Content-Length', str(len(body)))], body=body)\n"
        "service = AnalysisService()\n"
        "before = set(sys.modules)\n"
        "response = service.handle(request)\n"
        "print(response.body.materialize().decode())\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    answer, during, modules = (json.loads(line) for line in _run(code).splitlines())
    assert [item["exact_factor"] > 1 for item in answer["results"]] == [True] * 3
    # The service loaded the attacks when it was built, so the first
    # exact items, which run under a deadline, import nothing.
    assert not [m for m in during if m.startswith("repro")]
    loaded = set(modules)
    assert "repro.serve.app" in loaded
    assert not [m for m in loaded if m.startswith("repro.runner")]


def test_submodule_names_are_not_shadowed():
    # A package that re-exported ``recommend`` would bind the function
    # over its own ``recommend`` submodule.
    import repro.analysis.recommend as module

    assert isinstance(module, ModuleType)
    assert pkgutil.resolve_name("repro.analysis:recommend") is module
    function = pkgutil.resolve_name("repro.analysis.recommend:recommend")
    assert function is module.recommend


#: Defaulted parameters no call site sets, each kept for a reason a name
#: scan cannot see.
UNSET_DEFAULTS_ALLOWED = {
    "repro.analysis.lint:lint_repo(root)": "names the tree the linter reads",
    "repro.analysis.purity:analyze_tree(root)": "names the tree the analyzer reads",
    "repro.analysis.purity:analyze_tree(config)": "names the sources and sinks it reads",
    "repro.analysis.purity:analyze_tree(source_prefix)": "names the tree the analyzer reads",
    "repro.analysis.purity:missing_sink_functions(config)": "names the sinks it reads",
    "repro.obs.runlog:record_from_recommendations(clock)": (
        "the injected-clock facade its sibling record builders share"
    ),
    "repro.obs.metrics:Histogram.__init__(buckets)": (
        "set through MetricsRegistry._get_or_create's factory call"
    ),
    "repro.runner.fastpath:FastPathStats(calibration_runs)": (
        "the e2e benchmark's tracer reads it"
    ),
}

CALLER_FOLDERS = ("src", "tests", "benchmarks", "scripts", "examples")

#: (keywords passed, positional arguments passed, uses a splat)
_Call = Tuple[Set[str], int, bool]


def _name(expr: ast.expr) -> Optional[str]:
    """``f`` for ``f`` and ``x.f``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _literal_keys(value: Optional[ast.expr]) -> Optional[Set[str]]:
    """The keys of a ``{"k": ...}`` or ``dict(k=...)`` literal; ``None``
    for anything else (a comprehension, a splat inside, a computed key)."""
    if isinstance(value, ast.Dict):
        keys = [key.value if isinstance(key, ast.Constant) else None for key in value.keys]
        return set(keys) if all(isinstance(key, str) for key in keys) else None
    if (
        isinstance(value, ast.Call)
        and _name(value.func) == "dict"
        and not value.args
        and all(kw.arg is not None for kw in value.keywords)
    ):
        return {kw.arg for kw in value.keywords if kw.arg is not None}
    return None


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``scope``'s own body, not of the functions,
    lambdas and classes nested in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            yield from _scope_nodes(child)


def _scope_keys(scope: ast.AST, name: str) -> Tuple[bool, Optional[Set[str]]]:
    """Whether ``scope`` binds ``name`` and, if it does, the keys of the
    dict literals bound to it there (``None`` when ``name`` is also a
    parameter, bound another way, or stored into)."""
    keys: Set[str] = set()
    literal_targets: Set[int] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        arguments = scope.args
        params = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        params += [arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
        if any(param.arg == name for param in params):
            return True, None
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    literal = _literal_keys(node.value)
                    if literal is None:
                        return True, None
                    keys |= literal
                    literal_targets.add(id(target))
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Store)
            and id(node) not in literal_targets
        ):
            return True, None  # bound by a loop, ``with``, augmented assignment...
        if (
            isinstance(node, (ast.Subscript, ast.Attribute))
            and isinstance(node.value, ast.Name)
            and node.value.id == name
            and (isinstance(node.ctx, ast.Store) or isinstance(node, ast.Attribute))
        ):
            return True, None  # ``name[k] = v`` or ``name.update(...)``
    return bool(literal_targets), keys


def _splat_keys(scopes: Sequence[ast.AST], name: str) -> Optional[Set[str]]:
    """The keywords a ``**name`` splat sets, from the innermost of
    ``scopes`` (enclosing functions, then the module) that binds
    ``name``; ``None`` (it may set anything) when that binding is not a
    dict literal, or nothing binds it."""
    for scope in scopes:
        bound, keys = _scope_keys(scope, name)
        if bound:
            return keys
    return None


def _calls_by_name(tree: ast.AST) -> Dict[str, List[_Call]]:
    """Every call in ``tree`` under the name it calls.  ``cls(...)`` in a
    class body calls that class and ``super().__init__(...)`` its bases.
    A ``**name`` splat sets the keys of the dict literal bound to
    ``name`` in the same function (or module); any other splat may set
    every parameter."""
    calls: Dict[str, List[_Call]] = {}

    def visit(
        node: ast.AST, cls: Optional[ast.ClassDef], scopes: Tuple[ast.AST, ...]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                names = [_name(func)]
                if cls is not None and names == ["cls"]:
                    names = [cls.name]
                elif (
                    cls is not None
                    and isinstance(func, ast.Attribute)
                    and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and _name(func.value.func) == "super"
                ):
                    names = [_name(base) for base in cls.bases]
                keywords = {kw.arg for kw in child.keywords if kw.arg is not None}
                splat = any(isinstance(arg, ast.Starred) for arg in child.args)
                for kw in child.keywords:
                    if kw.arg is None:
                        splatted = (
                            _splat_keys(scopes, kw.value.id)
                            if isinstance(kw.value, ast.Name)
                            else None
                        )
                        if splatted is None:
                            splat = True
                        else:
                            keywords |= splatted
                call = (
                    keywords,
                    sum(not isinstance(arg, ast.Starred) for arg in child.args),
                    splat,
                )
                for name in names:
                    if name is not None:
                        calls.setdefault(name, []).append(call)
            function = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            visit(
                child,
                child if isinstance(child, ast.ClassDef) else cls,
                (child, *scopes) if isinstance(child, function) else scopes,
            )

    visit(tree, None, (tree,))
    return calls


def _defaulted(tree: ast.AST) -> Iterator[Tuple[str, str, Optional[int], str]]:
    """(qualified name, callee name, positional index or None, parameter)
    for every defaulted parameter defined in ``tree``."""

    def visit(node: ast.AST, cls: Optional[ast.ClassDef], prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                first = len(positional) - len(args.defaults)
                callee = cls.name if cls is not None and child.name == "__init__" else child.name
                qualified = prefix + child.name
                for index in range(first, len(positional)):
                    yield qualified, callee, index - bound, positional[index].arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualified, callee, None, arg.arg
                yield from visit(child, None, f"{qualified}.")
            else:
                yield from visit(child, cls, prefix)

    yield from visit(tree, None, "")


def _is_record(node: ast.ClassDef) -> bool:
    """A frozen dataclass or a ``NamedTuple``: a record built by keyword."""
    if any(_name(base) == "NamedTuple" for base in node.bases):
        return True
    return any(
        isinstance(d, ast.Call)
        and _name(d.func) == "dataclass"
        and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value
            for kw in d.keywords
        )
        for d in node.decorator_list
    )


def _defaulted_fields(tree: ast.AST) -> Iterator[Tuple[str, str, Optional[int], str]]:
    """(class name, class name, positional index or None, field) for every
    defaulted ``__init__`` field of a record class defined in ``tree``.
    The index is ``None`` when inherited fields would shift it."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_record(node)):
            continue
        ordered = not node.bases or [_name(b) for b in node.bases] == ["NamedTuple"]
        fields = [
            stmt
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)
        ]
        for index, stmt in enumerate(fields):
            value = stmt.value
            if value is None:
                continue
            if isinstance(value, ast.Call) and _name(value.func) == "field":
                options = {kw.arg: kw.value for kw in value.keywords}
                init = options.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                if not {"default", "default_factory"} & set(options):
                    continue
            name = node.name
            yield name, name, index if ordered else None, stmt.target.id


#: Calls that set a record's fields by keyword on a copy.
_FIELD_SETTERS = ("replace", "_replace")


def unset_defaults() -> List[str]:
    calls: Dict[str, List[_Call]] = {}
    for folder in CALLER_FOLDERS:
        for path in (ROOT / folder).rglob("*.py"):
            for name, found in _calls_by_name(ast.parse(path.read_text(encoding="utf-8"))).items():
                calls.setdefault(name, []).extend(found)
    copies = [call for name in _FIELD_SETTERS for call in calls.get(name, ())]
    unset = []
    for module, path in _modules().items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        entries = [(entry, []) for entry in _defaulted(tree)]
        entries += [(entry, copies) for entry in _defaulted_fields(tree)]
        for (qualified, callee, index, param), extra in entries:
            if not any(
                splat or param in keywords or (index is not None and passed > index)
                for keywords, passed, splat in calls.get(callee, []) + extra
            ):
                unset.append(f"{module}:{qualified}({param})")
    return sorted(unset)


def test_every_defaulted_parameter_has_a_setter():
    unset = set(unset_defaults())
    assert not unset - set(UNSET_DEFAULTS_ALLOWED), (
        "defaulted parameters no caller sets (make them constants): "
        + ", ".join(sorted(unset - set(UNSET_DEFAULTS_ALLOWED)))
    )
    assert not set(UNSET_DEFAULTS_ALLOWED) - unset, (
        "allowlisted parameters a caller now sets: "
        + ", ".join(sorted(set(UNSET_DEFAULTS_ALLOWED) - unset))
    )
