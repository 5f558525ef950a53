"""Equality saturation driver with the paper's blow-up safeguards.

QGL expressions for individual gates are small and sparse, so e-graphs
are not expected to grow large; nonetheless iteration and node-count
limits are applied (paper section III-C).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..symbolic.expr import Expr
from .cost import expression_cost
from .egraph import EGraph
from .extract import GreedyExtractor
from .pattern import MatchIndex, Rewrite
from .rules import default_rules

__all__ = ["RunnerLimits", "RunnerReport", "Runner", "simplify_all", "simplify"]


@dataclass(frozen=True)
class RunnerLimits:
    """Safeguards against saturation blow-up."""

    iterations: int = 8
    nodes: int = 8_000
    matches_per_rule: int = 2_000
    time_seconds: float = 5.0


@dataclass
class RunnerReport:
    """What happened during a saturation run."""

    iterations: int = 0
    stop_reason: str = "saturated"
    unions: int = 0
    final_nodes: int = 0
    final_classes: int = 0
    rule_hits: dict[str, int] = field(default_factory=dict)


class Runner:
    """Runs equality saturation on an e-graph with a rule set."""

    def __init__(
        self,
        rules: list[Rewrite] | None = None,
        limits: RunnerLimits | None = None,
    ):
        self.rules = default_rules() if rules is None else rules
        self.limits = limits or RunnerLimits()

    def run(self, egraph: EGraph) -> RunnerReport:
        report = RunnerReport()
        deadline = time.monotonic() + self.limits.time_seconds
        for iteration in range(self.limits.iterations):
            report.iterations = iteration + 1
            unions_before = egraph.num_unions

            # Search-then-apply: collect all matches against a frozen
            # graph, then apply, then rebuild once.  The graph does not
            # change while searching, so every rule shares one index.
            index = MatchIndex(egraph)
            all_matches = []
            for rule in self.rules:
                matches = rule.search(egraph, index=index)
                if len(matches) > self.limits.matches_per_rule:
                    matches = matches[: self.limits.matches_per_rule]
                if matches:
                    all_matches.append((rule, matches))
            for rule, matches in all_matches:
                hits = rule.apply(egraph, matches)
                if hits:
                    report.rule_hits[rule.name] = (
                        report.rule_hits.get(rule.name, 0) + hits
                    )
            egraph.rebuild()

            if egraph.num_unions == unions_before:
                report.stop_reason = "saturated"
                break
            if egraph.num_nodes > self.limits.nodes:
                report.stop_reason = "node-limit"
                break
            if time.monotonic() > deadline:
                report.stop_reason = "time-limit"
                break
        else:
            report.stop_reason = "iteration-limit"
        report.unions = egraph.num_unions
        report.final_nodes = egraph.num_nodes
        report.final_classes = egraph.num_classes
        return report


def simplify_all(
    exprs: list[Expr],
    rules: list[Rewrite] | None = None,
    limits: RunnerLimits | None = None,
) -> list[Expr]:
    """Jointly simplify a batch of expressions with shared CSE.

    This is the pass the JIT pipeline runs on the real and imaginary
    components of a gate's unitary *and* its gradient: one e-graph is
    populated with every root, equality saturation runs once, and the
    greedy extractor pulls the roots out in order, zeroing costs as it
    goes so later roots reuse earlier subexpressions.
    """
    if not exprs:
        return []
    egraph = EGraph()
    roots = [egraph.add_expr(e) for e in exprs]
    egraph.rebuild()
    Runner(rules, limits).run(egraph)
    extractor = GreedyExtractor(egraph)
    extracted = extractor.extract_many(roots)
    # The greedy extractor scores e-classes as trees, so on rare inputs
    # it can pick a form that is *worse* under the DAG-aware cost the
    # JIT actually pays (e.g. `2*sin(x)` over `sin(x)+sin(x)`, whose
    # shared sin is emitted once).  Never let simplification regress:
    # keep the originals unless extraction genuinely improved the
    # batch.
    if _batch_cost(extracted) <= _batch_cost(exprs):
        return extracted
    return list(exprs)


def _batch_cost(exprs: list[Expr]) -> float:
    """DAG-aware Table I cost of a batch: every distinct node counted
    once across all roots, via a ``seen`` set shared between calls."""
    seen: set[int] = set()
    return sum(expression_cost(root, seen) for root in exprs)


def simplify(
    expr: Expr,
    rules: list[Rewrite] | None = None,
    limits: RunnerLimits | None = None,
) -> Expr:
    """Simplify a single expression."""
    return simplify_all([expr], rules, limits)[0]
