"""Protocol drift rules (PT*).

The op table in ``remote/protocol.py`` (``OPS``, a dict literal of
``OpSpec(...)`` entries) is the single authority for the wire protocol.
Everything the server, hub and telemetry know about an op is read from
it at runtime, so most drift cannot happen; these rules cover what the
table cannot enforce by itself.

PT005  client call site sends an op not listed in ``OPS``.
PT006  handler for an op without ``mutates=True`` calls a mutating
       repository operation (would run under the shared lock side).
PT007  error class used in hub admission denials that is neither in
       ``TYPED_ERRORS`` nor special-cased by ``raise_remote_error``
       (the denial would reach clients untyped).
PT008  protocol module does not pin an integer ``PROTOCOL_VERSION``.

Discovery is structural, not path-based: the *protocol module* is
whichever analyzed module assigns ``OPS`` a dict literal with string
keys; a *handler class* is any class with ``_op_*`` methods. Absent a
protocol module, the pack is silent (the tree under analysis has no
protocol).
"""

from __future__ import annotations

import ast

from .callgraph import Program
from .model import Finding, SourceFile, enclosing_symbol

#: Repository mutations a read-side handler must never perform.
_MUTATING_ATTRS = frozenset(
    {
        "import_content",
        "import_commits",
        "import_specs",
        "import_record",
        "import_chunk",
        "set_head",
        "prune",
        "discard",
    }
)

_HANDLER_PREFIX = "_op_"


def _module_value(file: SourceFile, name: str) -> ast.expr | None:
    """The value a module-level (optionally annotated) assignment binds."""
    for node in file.tree.body:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    return None


def _mutates(spec: ast.expr) -> bool:
    """Whether an ``OpSpec(...)`` entry passes ``mutates=True``."""
    return isinstance(spec, ast.Call) and any(
        keyword.arg == "mutates"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in spec.keywords
    )


class _ProtocolFacts:
    """Everything extracted from the protocol module."""

    def __init__(self, file: SourceFile, table: ast.Dict):
        self.file = file
        self.ops_line = table.lineno
        #: op name -> does its entry declare ``mutates=True``
        self.ops: dict[str, bool] = {
            key.value: _mutates(spec)
            for key, spec in zip(table.keys, table.values)
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        self.typed_errors: set[str] = set()
        typed = _module_value(file, "TYPED_ERRORS")
        if typed is not None:
            for node in ast.walk(typed):
                if isinstance(node, ast.Name) and node.id[:1].isupper():
                    self.typed_errors.add(node.id)
        self.special_cased: set[str] = set()
        version = _module_value(file, "PROTOCOL_VERSION")
        self.has_version = isinstance(version, ast.Constant) and isinstance(
            version.value, int
        )
        for node in file.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "raise_remote_error":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Compare):
                        for comparator in sub.comparators:
                            if isinstance(comparator, ast.Constant) and isinstance(
                                comparator.value, str
                            ):
                                self.special_cased.add(comparator.value)


def _find_protocol(program: Program) -> _ProtocolFacts | None:
    for file in program.files:
        table = _module_value(file, "OPS")
        if isinstance(table, ast.Dict):
            return _ProtocolFacts(file, table)
    return None


def _handlers(program: Program) -> dict[str, list]:
    """op name -> the ``_op_<name>`` methods of every handler class."""
    handlers: dict[str, list] = {}
    for fn in program.functions.values():
        if fn.cls is not None and fn.name.startswith(_HANDLER_PREFIX):
            handlers.setdefault(fn.name[len(_HANDLER_PREFIX) :], []).append(fn)
    return handlers


def _client_op_literals(file: SourceFile) -> list[tuple[str, int]]:
    """Every ``{"op": "<x>"}`` literal and ``...["op"] = "<x>"`` assignment."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    out.append((value.value, value.lineno))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "op"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    out.append((node.value.value, node.lineno))
    return out


def check(program: Program) -> list[Finding]:
    facts = _find_protocol(program)
    if facts is None or not facts.ops:
        return []
    findings: list[Finding] = []

    # PT008 -----------------------------------------------------------------
    if not facts.has_version:
        findings.append(
            Finding(
                rule="PT008",
                path=facts.file.rel_path,
                line=facts.ops_line,
                symbol="<module>",
                message="protocol module does not pin an integer PROTOCOL_VERSION",
                hint="declare PROTOCOL_VERSION so peers can refuse mismatches loudly",
            )
        )

    # PT005 -----------------------------------------------------------------
    for file in program.files:
        if file is facts.file:
            continue
        for value, line in _client_op_literals(file):
            if value not in facts.ops:
                findings.append(
                    Finding(
                        rule="PT005",
                        path=file.rel_path,
                        line=line,
                        symbol=enclosing_symbol(file.tree, line),
                        message=f"request sends op {value!r} which is not in OPS",
                        hint="add the op to OPS and the server before using it",
                    )
                )

    # PT006 -----------------------------------------------------------------
    for op, fns in _handlers(program).items():
        if facts.ops.get(op, True):
            continue  # a mutating op, or no op at all
        for fn in fns:
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_ATTRS
                ):
                    findings.append(
                        Finding(
                            rule="PT006",
                            path=fn.file.rel_path,
                            line=node.lineno,
                            symbol=fn.symbol,
                            message=(
                                f"read-classified op {op!r} calls mutating "
                                f"{node.func.attr}() (runs under the shared "
                                "lock side)"
                            ),
                            hint="declare the op mutates=True in OPS or drop the mutation",
                        )
                    )

    # PT007 -----------------------------------------------------------------
    known = facts.typed_errors | facts.special_cased | {"RemoteError"}
    for file in program.files:
        denials = _module_value(file, "_DENIAL_REASONS")
        if denials is None:
            continue
        for sub in ast.walk(denials):
            if isinstance(sub, ast.Name) and sub.id[:1].isupper():
                if sub.id not in known:
                    findings.append(
                        Finding(
                            rule="PT007",
                            path=file.rel_path,
                            line=sub.lineno,
                            symbol="<module>",
                            message=(
                                f"denial error {sub.id} is not in TYPED_ERRORS "
                                "and not special-cased by raise_remote_error; "
                                "clients would see it untyped"
                            ),
                            hint="register the class in protocol.TYPED_ERRORS",
                        )
                    )
    return findings


__all__ = ["check"]
