"""Logical query plans over the library's operators.

A minimal composable layer for the pipelines the paper motivates: scans,
projections, primary-key/foreign-key joins, and grouped aggregations,
assembled into a tree and executed on the simulated device.  The
executor applies two classical optimizations before running:

* **projection pushdown** — a ``Project`` directly above a ``Join``
  folds into the join's materialization (``JoinConfig.projection``);
* **join-aggregate fusion** — an ``Aggregate`` directly above a ``Join``
  runs through :class:`~repro.joins.fused.FusedJoinAggregate`, folding
  during materialization.

Plans are data; nodes are immutable and reusable.  ``Aggregate`` (if
present) must be the plan root — grouped outputs are column dicts, not
relations, so nothing can consume them further.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..aggregation.base import AggSpec
from ..errors import JoinConfigError
from ..relational.relation import Relation


@dataclass(frozen=True)
class Scan:
    """A base relation."""

    relation: Relation
    label: str = ""

    def describe(self) -> str:
        name = self.label or self.relation.name or "relation"
        return f"Scan({name})"


@dataclass(frozen=True)
class Project:
    """Keep only the named payload columns (the key always survives)."""

    child: "PlanNode"
    columns: Tuple[str, ...]

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass(frozen=True)
class Join:
    """Inner equi-join; the left input is the build (PK) side."""

    left: "PlanNode"
    right: "PlanNode"
    algorithm: str = "auto"

    def describe(self) -> str:
        return f"Join[{self.algorithm}]"


@dataclass(frozen=True)
class Aggregate:
    """Group the child's rows by one column and fold aggregates."""

    child: "PlanNode"
    group_column: str
    aggregates: Tuple[AggSpec, ...]
    algorithm: str = "auto"

    def describe(self) -> str:
        aggs = ", ".join(spec.output_name for spec in self.aggregates)
        return f"Aggregate[{self.algorithm}](by {self.group_column}: {aggs})"


PlanNode = Union[Scan, Project, Join, Aggregate]


@dataclass
class OperatorTrace:
    """One executed operator with its simulated cost.

    ``algorithm`` is the physical algorithm the planner resolved for
    this operator (e.g. ``"PHJ-OM"``; fused join-aggregates report
    ``"<join>+<group-by>"``), empty for operators with no algorithm
    choice.  The serving layer's plan cache pins plans from it.
    """

    description: str
    seconds: float
    rows: int
    extras: Dict[str, float] = field(default_factory=dict)
    algorithm: str = ""


def operator_trace(
    kind: str,
    algorithm: str,
    seconds: float,
    rows: int,
    extras: Dict[str, float],
    label: Optional[str] = None,
) -> OperatorTrace:
    """The one constructor of Join/Aggregate traces, for every backend:
    described as ``kind[label]``, the label defaulting to *algorithm*."""
    return OperatorTrace(
        f"{kind}[{algorithm if label is None else label}]", seconds, rows,
        extras=dict(extras), algorithm=algorithm,
    )

@dataclass
class QueryResult:
    """Output plus the per-operator execution trace."""

    #: the final Relation, or an OrderedDict for an Aggregate root
    output: object
    trace: List[OperatorTrace]
    #: the TraceSession that captured this run, when tracing was active
    session: Optional[object] = None

    @property
    def total_seconds(self) -> float:
        return sum(op.seconds for op in self.trace)

    def explain(self) -> str:
        lines = []
        for op in self.trace:
            lines.append(
                f"{op.description:50s} {op.seconds * 1e3:9.4f} ms  "
                f"{op.rows:>10d} rows"
            )
        lines.append(f"{'total':50s} {self.total_seconds * 1e3:9.4f} ms")
        return "\n".join(lines)


def validate_plan(node: PlanNode, is_root: bool = True) -> None:
    """Reject malformed plans with actionable errors."""
    if isinstance(node, Scan):
        return
    if isinstance(node, Project):
        if not node.columns:
            raise JoinConfigError("Project needs at least one column")
        validate_plan(node.child, is_root=False)
        return
    if isinstance(node, Join):
        validate_plan(node.left, is_root=False)
        validate_plan(node.right, is_root=False)
        return
    if isinstance(node, Aggregate):
        if not is_root:
            raise JoinConfigError("Aggregate must be the plan root")
        if not node.aggregates:
            raise JoinConfigError("Aggregate needs at least one AggSpec")
        validate_plan(node.child, is_root=False)
        return
    raise JoinConfigError(f"unknown plan node {type(node).__name__}")


def aggregate_input_columns(node: Aggregate) -> Tuple[str, ...]:
    """Columns an Aggregate reads from its child."""
    needed: List[str] = [node.group_column]
    for spec in node.aggregates:
        if spec.op != "count" and spec.column not in needed:
            needed.append(spec.column)
    return tuple(needed)


def plan_relations(node: PlanNode) -> List[Relation]:
    """Every relation the plan scans, in traversal order."""
    if isinstance(node, Scan):
        return [node.relation]
    if isinstance(node, Project):
        return plan_relations(node.child)
    if isinstance(node, Join):
        return plan_relations(node.left) + plan_relations(node.right)
    if isinstance(node, Aggregate):
        return plan_relations(node.child)
    raise TypeError(f"unknown plan node {type(node).__name__}")
