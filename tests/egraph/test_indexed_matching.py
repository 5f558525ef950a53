"""Indexed e-matching returns exactly what a full scan returns.

The reference below is the unindexed matcher: every canonical class,
every e-node, filtered by operator.  At each iteration of a gate's
saturation, every default rule's indexed ``search`` must agree with it
on classes, order and substitutions.
"""

import pytest

from repro.circuit import gates
from repro.egraph import EGraph, Runner, RunnerLimits
from repro.egraph.pattern import MatchIndex, PatVar
from repro.egraph.rules import default_rules


def reference_match(eg, pattern, cid, subst, out, limit):
    if len(out) >= limit:
        return
    if isinstance(pattern, PatVar):
        bound = subst.get(pattern.name)
        if bound is None:
            out.append({**subst, pattern.name: cid})
        elif eg.find(bound) == cid:
            out.append(dict(subst))
        return
    for op, payload, children in list(eg.classes[cid].nodes):
        if op != pattern.op or len(children) != len(pattern.children):
            continue
        if op in ("const", "var") and payload != pattern.payload:
            continue
        partials = [dict(subst)]
        for pat_child, child in zip(pattern.children, children):
            grown = []
            for p in partials:
                reference_match(eg, pat_child, eg.find(child), p, grown, limit)
            partials = grown
        out.extend(partials)
        if len(out) >= limit:
            return


def reference_search(eg, rule, limit=32):
    found = []
    for cid in list(eg.classes):
        matches = []
        reference_match(eg, rule.lhs, cid, {}, matches, limit)
        found.extend((cid, m) for m in matches)
    return found


def gate_egraph(matrix):
    eg = EGraph()
    for mat in [matrix, *matrix.gradient()]:
        for _, elem in mat.elements():
            eg.add_expr(elem.re)
            eg.add_expr(elem.im)
    eg.rebuild()
    return eg


@pytest.mark.parametrize(
    "factory", [gates.u3, gates.u2, lambda: gates.embedded_u3(3, 0, 1)],
    ids=["U3", "U2", "EU3_3_01"],
)
def test_indexed_search_matches_full_scan(factory):
    rules = default_rules()
    eg = gate_egraph(factory().matrix)
    one_step = Runner(rules, RunnerLimits(iterations=1, time_seconds=1e9))
    compared = 0
    for _ in range(RunnerLimits().iterations):
        index = MatchIndex(eg)
        for rule in rules:
            assert rule.search(eg, index=index) == reference_search(eg, rule)
            compared += 1
        if one_step.run(eg).stop_reason == "saturated":
            break
    assert compared >= 2 * len(rules)
