"""AST linter enforcing the repo's wire-accounting and typing invariants.

Every traffic number this library reports must flow through
:class:`~repro.netsim.tap.TrafficLedger` and the ``wire_size`` methods;
every byte count must stay an ``int``; every policy dispatch must be
exhaustive; every module must opt into postponed annotation evaluation.
These are easy invariants to erode one convenient shortcut at a time, so
``repro lint`` (and the pytest guard over it) checks them structurally:

* ``future-annotations`` — every module starts with
  ``from __future__ import annotations``.
* ``adhoc-wire-arith`` — in ``core``/``cdn``/``netsim``, wire sizes are
  never recomputed as ``len(x.serialize())`` or by mixing ``len(*.body)``
  into header-size arithmetic; that is ``wire_size()``'s job.
* ``untyped-def`` — every function annotates every parameter and its
  return type (the local stand-in for ``mypy --strict``'s
  ``disallow_untyped_defs``).
* ``enum-equality`` — policy/shape/behavior enum members are compared
  with ``is``, never ``==`` (identity is the invariant; ``==`` silently
  returns ``False`` against foreign types).
* ``nonexhaustive-dispatch`` — an ``if``/``elif`` chain testing two or
  more members of one policy enum must either cover every member or end
  in an ``else``.
* ``bare-status-literal`` — HTTP statuses are compared against
  :class:`~repro.http.status.StatusCode` members, not bare integers.
* ``float-byte-arith`` — true division never lands in a ``*_bytes`` /
  ``*_size`` / ``*_traffic`` binding; byte counts stay integral.
* ``broad-except`` — no ``except:`` / ``except Exception`` /
  ``except BaseException`` outside the declared fault boundaries
  (``BROAD_EXCEPT_BOUNDARIES``): the grid executor containing
  arbitrary per-cell failures, and the serve layer, which must survive
  arbitrary injected-runner failures (the circuit breaker's input) and
  arbitrary per-connection failures.  Everywhere else handlers name the
  specific errors they can recover from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardPolicy
from repro.cdn.vendors.base import SpecShape
from repro.http.grammar import RangeFormat

#: Enums whose members must be compared by identity and dispatched
#: exhaustively: name -> member names.
POLICY_ENUMS: Dict[str, Tuple[str, ...]] = {
    "ForwardPolicy": tuple(m.name for m in ForwardPolicy),
    "SpecShape": tuple(m.name for m in SpecShape),
    "MultiRangeReplyBehavior": tuple(m.name for m in MultiRangeReplyBehavior),
    "RangeFormat": tuple(m.name for m in RangeFormat),
}

#: Status codes that must be written as StatusCode members.
STATUS_LITERALS = frozenset(
    {200, 204, 206, 301, 302, 304, 400, 403, 404, 416, 431, 500, 502, 503}
)

#: Packages where ad-hoc wire-byte arithmetic is forbidden (the
#: accounting core; ``repro.http`` itself *defines* wire_size and is
#: exempt).
WIRE_SCOPED_PACKAGES = ("core", "cdn", "netsim")

#: Wire-size accessors whose results must not be hand-mixed with body
#: lengths.
_WIRE_SIZE_CALLS = frozenset(
    {"wire_size", "header_block_size", "request_line_size", "status_line_size"}
)

#: Binding-name suffixes that denote byte counts.
_BYTE_NAME_SUFFIXES = ("_bytes", "_size", "_traffic")

#: The only files allowed to catch ``Exception``: declared fault
#: boundaries that contain arbitrary third-party failures —
#: ``runner/executor.py`` (per-cell failures captured as
#: ``CellFailure``), ``serve/app.py`` (the injected exact runner whose
#: failures feed the circuit breaker), ``serve/server.py`` (per-connection
#: isolation: one bad request must never kill the listener).
BROAD_EXCEPT_BOUNDARIES = frozenset(
    {"runner/executor.py", "serve/app.py", "serve/server.py"}
)


@dataclass(frozen=True)
class LintFinding:
    """One invariant violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _module_rel_path(path: Path, root: Optional[Path]) -> str:
    if root is None:
        return path.name
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.name


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.findings: List[LintFinding] = []
        self.in_wire_scope = rel_path.split("/", 1)[0] in WIRE_SCOPED_PACKAGES
        self.check_status = rel_path != "http/status.py"
        self.check_broad_except = rel_path not in BROAD_EXCEPT_BOUNDARIES

    # -- helpers -------------------------------------------------------------

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(
                path=self.rel_path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- untyped-def ---------------------------------------------------------

    def _check_def(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = bool(positional) and positional[0].arg in ("self", "cls")
        to_check = positional[1:] if skip_first else positional
        to_check += list(args.kwonlyargs)
        if args.vararg is not None:
            to_check.append(args.vararg)
        if args.kwarg is not None:
            to_check.append(args.kwarg)
        missing = [a.arg for a in to_check if a.annotation is None]
        if missing:
            self._add(
                node,
                "untyped-def",
                f"function {node.name!r} has unannotated parameters: "
                + ", ".join(missing),
            )
        if node.returns is None and node.name != "__init__":
            self._add(
                node,
                "untyped-def",
                f"function {node.name!r} is missing its return annotation",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_def(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_def(node)
        self.generic_visit(node)

    # -- enum-equality / bare-status-literal ----------------------------------

    @staticmethod
    def _enum_member(node: ast.expr) -> Optional[str]:
        """``ForwardPolicy.DELETION`` -> ``"ForwardPolicy"``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in POLICY_ENUMS
            and node.attr in POLICY_ENUMS[node.value.id]
        ):
            return node.value.id
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        comparators = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, comparators, comparators[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for side in (left, right):
                    enum_name = self._enum_member(side)
                    if enum_name is not None:
                        self._add(
                            node,
                            "enum-equality",
                            f"compare {enum_name} members with 'is', not "
                            f"'{'==' if isinstance(op, ast.Eq) else '!='}'",
                        )
                        break
                else:
                    if self.check_status:
                        for side in (left, right):
                            if (
                                isinstance(side, ast.Constant)
                                and type(side.value) is int
                                and side.value in STATUS_LITERALS
                            ):
                                self._add(
                                    node,
                                    "bare-status-literal",
                                    f"compare against StatusCode, not the bare "
                                    f"literal {side.value}",
                                )
                                break
        self.generic_visit(node)

    # -- nonexhaustive-dispatch ----------------------------------------------

    @staticmethod
    def _is_test(test: ast.expr) -> Optional[Tuple[str, str, str]]:
        """``subject is Enum.MEMBER`` -> (subject dump, enum, member)."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Attribute)
            and isinstance(test.comparators[0].value, ast.Name)
        ):
            attr = test.comparators[0]
            assert isinstance(attr.value, ast.Name)
            if attr.value.id in POLICY_ENUMS and attr.attr in POLICY_ENUMS[attr.value.id]:
                return ast.dump(test.left), attr.value.id, attr.attr
        return None

    def visit_If(self, node: ast.If) -> None:
        # Only inspect chain heads: an If that is itself an elif branch is
        # covered by its head's walk.
        if not getattr(node, "_is_elif", False):
            self._check_chain(node)
        self.generic_visit(node)

    def _check_chain(self, head: ast.If) -> None:
        tests: List[Tuple[str, str, str]] = []
        current: ast.If = head
        has_else = False
        while True:
            parsed = self._is_test(current.test)
            if parsed is None:
                return  # not a pure enum-identity chain; out of scope
            tests.append(parsed)
            orelse = current.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                orelse[0]._is_elif = True  # type: ignore[attr-defined]
                current = orelse[0]
                continue
            has_else = bool(orelse)
            break
        if len(tests) < 2 or has_else:
            return
        subjects = {t[0] for t in tests}
        enums = {t[1] for t in tests}
        if len(subjects) != 1 or len(enums) != 1:
            return
        enum_name = next(iter(enums))
        covered = {t[2] for t in tests}
        missing = [m for m in POLICY_ENUMS[enum_name] if m not in covered]
        if missing:
            self._add(
                head,
                "nonexhaustive-dispatch",
                f"{enum_name} dispatch has no 'else' and misses: "
                + ", ".join(missing),
            )

    # -- adhoc-wire-arith ------------------------------------------------------

    @staticmethod
    def _is_len_of(node: ast.expr, attr: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == attr
        )

    @staticmethod
    def _is_wire_size_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WIRE_SIZE_CALLS
        )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.in_wire_scope
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute)
            and node.args[0].func.attr == "serialize"
        ):
            self._add(
                node,
                "adhoc-wire-arith",
                "wire size computed as len(x.serialize()); use x.wire_size()",
            )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.in_wire_scope and isinstance(node.op, (ast.Add, ast.Sub)):
            sides = (node.left, node.right)
            if any(self._is_len_of(s, "body") for s in sides) and any(
                self._is_wire_size_call(s) for s in sides
            ):
                self._add(
                    node,
                    "adhoc-wire-arith",
                    "len(*.body) mixed into header-size arithmetic; "
                    "use wire_size()",
                )
        self.generic_visit(node)

    # -- broad-except ----------------------------------------------------------

    @staticmethod
    def _broad_name(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in ("Exception", "BaseException"):
            return node.id
        return None

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.check_broad_except:
            if node.type is None:
                self._add(
                    node,
                    "broad-except",
                    "bare 'except:' swallows everything; name the errors "
                    "this handler can actually recover from",
                )
            else:
                types = (
                    list(node.type.elts)
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                for entry in types:
                    broad = self._broad_name(entry)
                    if broad is not None:
                        self._add(
                            node,
                            "broad-except",
                            f"'except {broad}' outside a declared fault "
                            "boundary; "
                            "name the errors this handler can actually "
                            "recover from",
                        )
                        break
        self.generic_visit(node)

    # -- float-byte-arith ------------------------------------------------------

    @staticmethod
    def _byte_named(target: ast.expr) -> Optional[str]:
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is not None and name.endswith(_BYTE_NAME_SUFFIXES):
            return name
        return None

    @staticmethod
    def _contains_true_div(node: ast.expr) -> bool:
        return any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
            for sub in ast.walk(node)
        )

    def _check_byte_assign(self, targets: Iterable[ast.expr], value: Optional[ast.expr], node: ast.AST) -> None:
        if value is None or not self._contains_true_div(value):
            return
        for target in targets:
            name = self._byte_named(target)
            if name is not None:
                self._add(
                    node,
                    "float-byte-arith",
                    f"true division assigned to byte count {name!r}; "
                    "byte counts stay integral (use //)",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_byte_assign(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_byte_assign([node.target], node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            name = self._byte_named(node.target)
            if name is not None:
                self._add(
                    node,
                    "float-byte-arith",
                    f"true division assigned to byte count {name!r}; "
                    "byte counts stay integral (use //)",
                )
        else:
            self._check_byte_assign([node.target], node.value, node)
        self.generic_visit(node)


def lint_source(
    source: str, rel_path: str = "<string>"
) -> List[LintFinding]:
    """Lint one module's source text (``rel_path`` is repo-relative,
    used for scoping and reporting)."""
    tree = ast.parse(source, filename=rel_path)
    findings: List[LintFinding] = []

    has_future = any(
        isinstance(stmt, ast.ImportFrom)
        and stmt.module == "__future__"
        and any(alias.name == "annotations" for alias in stmt.names)
        for stmt in tree.body
    )
    if not has_future:
        findings.append(
            LintFinding(
                path=rel_path,
                line=1,
                col=0,
                rule="future-annotations",
                message="module is missing 'from __future__ import annotations'",
            )
        )

    visitor = _Visitor(rel_path)
    visitor.visit(tree)
    findings.extend(visitor.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Union[str, Path], root: Optional[Union[str, Path]] = None) -> List[LintFinding]:
    """Lint one file; ``root`` anchors package-scoped rules."""
    file_path = Path(path)
    rel = _module_rel_path(file_path, Path(root) if root is not None else None)
    return lint_source(file_path.read_text(encoding="utf-8"), rel)


def default_root() -> Path:
    """The ``src/repro`` package directory this module ships in."""
    return Path(__file__).resolve().parent.parent


def lint_paths(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
) -> List[LintFinding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    anchor = Path(root) if root is not None else default_root()
    findings: List[LintFinding] = []
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            for file_path in sorted(entry_path.rglob("*.py")):
                findings.extend(lint_file(file_path, root=anchor))
        else:
            findings.extend(lint_file(entry_path, root=anchor))
    return findings


def lint_repo(root: Optional[Union[str, Path]] = None) -> List[LintFinding]:
    """Lint the whole ``repro`` package (the pytest guard's entry)."""
    anchor = Path(root) if root is not None else default_root()
    return lint_paths([anchor], root=anchor)
