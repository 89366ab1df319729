"""Cross-module contract rule: the worker wire protocol stays closed.

Sweep results cross the pool boundary as plain dictionaries: produced by
``runner._execute_payload`` (and the bad-payload dict of the
``_worker_execute_group`` pool entry point), consumed by
``SweepRunner._finish`` and the telemetry aggregation on ``SweepReport``;
session snapshots produced by ``Session.metrics_snapshot`` are consumed by
``telemetry.metrics.run_metrics_document``.  Nothing ties the two ends
together at runtime — a consumer reading a key the producer stopped emitting
just sees ``None`` (or raises deep inside a sweep).

**C1** re-derives both key sets from the AST and flags every key consumed
but never produced:

* top-level payload keys read in ``_finish`` vs. written in
  ``_execute_payload``/``_worker_execute_group``;
* error-block keys read off the payload's ``error`` value vs. the error
  dict literals produced;
* telemetry-delta keys read in ``SweepReport`` methods vs. the ``telemetry``
  dict built in ``_execute_payload``;
* snapshot keys read in ``run_metrics_document`` vs. the dict returned by
  ``Session.metrics_snapshot`` (metrics schema v1).

Each check only arms when both of its endpoints are present in the linted
module set, so linting a single unrelated file stays silent.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.engine import Finding, LintModule, Rule

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _find_function(
    modules: Sequence[LintModule], name: str
) -> Optional[Tuple[LintModule, _FunctionNode]]:
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == name:
                    return module, node
    return None


def _find_class(
    modules: Sequence[LintModule], name: str
) -> Optional[Tuple[LintModule, ast.ClassDef]]:
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return module, node
    return None


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _dict_keys(node: ast.Dict) -> Set[str]:
    keys: Set[str] = set()
    for key in node.keys:
        if key is not None:
            value = _const_str(key)
            if value is not None:
                keys.add(value)
    return keys


def _dict_value(node: ast.Dict, key: str) -> Optional[ast.expr]:
    for candidate, value in zip(node.keys, node.values):
        if candidate is not None and _const_str(candidate) == key:
            return value
    return None


def _top_level_dicts(expr: ast.AST) -> List[ast.Dict]:
    """Dict literals in ``expr`` that are not nested inside another dict."""
    collected: List[ast.Dict] = []

    def descend(node: ast.AST, inside: bool) -> None:
        nested = inside
        if isinstance(node, ast.Dict):
            if not inside:
                collected.append(node)
            nested = True
        for child in ast.iter_child_nodes(node):
            descend(child, nested)

    descend(expr, False)
    return collected


def _produced_keys(function: _FunctionNode, var: str) -> Tuple[Set[str], Set[str]]:
    """(top-level, error-block) keys written to dictionaries named ``var``.

    Covers dict literals assigned to ``var``, dict literals in ``return``
    statements, and ``var["key"] = ...`` subscript stores.
    """
    top: Set[str] = set()
    error: Set[str] = set()

    def absorb(dictionary: ast.Dict) -> None:
        top.update(_dict_keys(dictionary))
        error_value = _dict_value(dictionary, "error")
        if isinstance(error_value, ast.Dict):
            error.update(_dict_keys(error_value))

    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == var:
                    absorb(value)
        elif isinstance(node, ast.Return) and node.value is not None:
            for dictionary in _top_level_dicts(node.value):
                absorb(dictionary)
        elif isinstance(node, ast.Subscript):
            parent_store = isinstance(node.ctx, ast.Store)
            if (
                parent_store
                and isinstance(node.value, ast.Name)
                and node.value.id == var
            ):
                key = _const_str(node.slice)
                if key is not None:
                    top.add(key)
    return top, error


def _assigned_dict_keys(function: _FunctionNode, var: str) -> Set[str]:
    """Keys of dict literals assigned to the name ``var`` inside ``function``."""
    keys: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == var:
                    keys.update(_dict_keys(node.value))
    return keys


def _consumed_keys(root: ast.AST, var: str) -> List[Tuple[str, ast.AST]]:
    """``(key, node)`` pairs read from the name ``var`` via ``[...]``/``.get``."""
    consumed: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(root):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id == var:
                key = _const_str(node.slice)
                if key is not None:
                    consumed.append((key, node))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and isinstance(func.value, ast.Name)
                and func.value.id == var
                and node.args
            ):
                key = _const_str(node.args[0])
                if key is not None:
                    consumed.append((key, node))
    return consumed


def _attribute_consumed_keys(
    root: ast.AST, attribute: str
) -> List[Tuple[str, ast.AST]]:
    """Keys read from any ``<expr>.<attribute>`` via ``[...]``/``.get(...)``."""
    consumed: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(root):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if (
                isinstance(node.value, ast.Attribute)
                and node.value.attr == attribute
            ):
                key = _const_str(node.slice)
                if key is not None:
                    consumed.append((key, node))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == attribute
                and node.args
            ):
                key = _const_str(node.args[0])
                if key is not None:
                    consumed.append((key, node))
    return consumed


def _first_parameter(function: _FunctionNode) -> Optional[str]:
    for arg in function.args.posonlyargs + function.args.args:
        if arg.arg not in ("self", "cls"):
            return arg.arg
    return None


class WorkerPayloadContractRule(Rule):
    """C1: worker-payload/metrics keys consumed must be keys produced."""

    rule_id = "C1"
    name = "worker-payload-contract"
    summary = (
        "keys consumed from the sweep worker payload (SweepRunner._finish, "
        "SweepReport telemetry) and from metrics snapshots must be produced "
        "by _execute_payload/_worker_execute_group/Session.metrics_snapshot"
    )

    def check_project(self, modules: Sequence[LintModule]) -> Iterator[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_payload(modules))
        findings.extend(self._check_telemetry_delta(modules))
        findings.extend(self._check_snapshot(modules))
        return iter(findings)

    # ------------------------------------------------------------------ #
    def _check_payload(self, modules: Sequence[LintModule]) -> List[Finding]:
        producer = _find_function(modules, "_execute_payload")
        consumer = _find_function(modules, "_finish")
        if producer is None or consumer is None:
            return []
        produced_top, produced_error = _produced_keys(producer[1], "payload")
        pool_entry = _find_function(modules, "_worker_execute_group")
        if pool_entry is not None:
            pool_top, pool_error = _produced_keys(pool_entry[1], "payload")
            produced_top |= pool_top
            produced_error |= pool_error
        consumer_module, consumer_fn = consumer
        findings: List[Finding] = []
        for key, node in _consumed_keys(consumer_fn, "payload"):
            if key not in produced_top:
                findings.append(
                    self.finding(
                        consumer_module,
                        node,
                        f"_finish reads payload[{key!r}] but "
                        "_execute_payload/_worker_execute_group never produce "
                        "that key; the worker wire protocol is out of sync",
                    )
                )
        for key, node in _consumed_keys(consumer_fn, "error"):
            if produced_error and key not in produced_error:
                findings.append(
                    self.finding(
                        consumer_module,
                        node,
                        f"_finish reads error block key {key!r} but the "
                        "producer's error dict only carries "
                        f"{sorted(produced_error)}",
                    )
                )
        return findings

    # ------------------------------------------------------------------ #
    def _check_telemetry_delta(
        self, modules: Sequence[LintModule]
    ) -> List[Finding]:
        producer = _find_function(modules, "_execute_payload")
        report = _find_class(modules, "SweepReport")
        if producer is None or report is None:
            return []
        produced = _assigned_dict_keys(producer[1], "telemetry")
        if not produced:
            return []
        report_module, report_class = report
        findings: List[Finding] = []
        for key, node in _attribute_consumed_keys(report_class, "telemetry"):
            if key not in produced:
                findings.append(
                    self.finding(
                        report_module,
                        node,
                        f"SweepReport reads telemetry[{key!r}] but "
                        "_execute_payload's telemetry delta only carries "
                        f"{sorted(produced)}",
                    )
                )
        return findings

    # ------------------------------------------------------------------ #
    def _check_snapshot(self, modules: Sequence[LintModule]) -> List[Finding]:
        producer = _find_function(modules, "metrics_snapshot")
        consumer = _find_function(modules, "run_metrics_document")
        if producer is None or consumer is None:
            return []
        produced: Set[str] = set()
        for node in ast.walk(producer[1]):
            if isinstance(node, ast.Return) and node.value is not None:
                for dictionary in _top_level_dicts(node.value):
                    produced.update(_dict_keys(dictionary))
        if not produced:
            return []
        parameter = _first_parameter(consumer[1])
        if parameter is None:
            return []
        consumer_module, consumer_fn = consumer
        findings: List[Finding] = []
        for key, node in _consumed_keys(consumer_fn, parameter):
            if key not in produced:
                findings.append(
                    self.finding(
                        consumer_module,
                        node,
                        f"run_metrics_document reads snapshot[{key!r}] but "
                        "Session.metrics_snapshot never produces that key "
                        "(metrics schema v1 drift)",
                    )
                )
        return findings


__all__ = ["WorkerPayloadContractRule"]
