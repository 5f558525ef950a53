"""Soundness tests for every rewrite rule in the default set.

Each rule's LHS and RHS are instantiated with fresh variables and
evaluated on random bindings: a rewrite is sound iff both sides agree
numerically wherever both are defined.
"""

import math
import zlib

import numpy as np
import pytest

from repro.egraph.pattern import Pattern, PatVar
from repro.egraph.rules import default_rules
from repro.symbolic import expr as E


def pattern_to_expr(p: Pattern) -> E.Expr:
    if isinstance(p, PatVar):
        return E.var(p.name)
    if p.op == "const":
        return E.const(p.payload)
    if p.op == "pi":
        return E.PI
    if p.op == "var":
        return E.var(p.payload)
    children = [pattern_to_expr(c) for c in p.children]
    # Bypass smart-constructor folding so the literal rule shape is kept.
    return E.Expr(p.op, tuple(children))


def pattern_vars(p: Pattern) -> set[str]:
    if isinstance(p, PatVar):
        return {p.name}
    out: set[str] = set()
    for c in p.children:
        out |= pattern_vars(c)
    return out


ALL_RULES = default_rules()


@pytest.mark.parametrize(
    "rule", ALL_RULES, ids=[r.name for r in ALL_RULES]
)
def test_rule_is_numerically_sound(rule):
    lhs = pattern_to_expr(rule.lhs)
    rhs = pattern_to_expr(rule.rhs)
    names = sorted(pattern_vars(rule.lhs) | pattern_vars(rule.rhs))
    rng = np.random.default_rng(zlib.crc32(rule.name.encode()))
    checked = 0
    for _ in range(40):
        env = {n: float(rng.uniform(0.1, 2.5)) for n in names}
        try:
            lv = E.evaluate(lhs, env)
            rv = E.evaluate(rhs, env)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue  # outside the common domain; rules are
            # sound-modulo-definedness
        checked += 1
        assert math.isclose(lv, rv, rel_tol=1e-9, abs_tol=1e-9), (
            f"rule {rule.name} unsound at {env}: {lv} != {rv}"
        )
    assert checked >= 10, f"rule {rule.name} was never evaluable"


def test_rule_names_unique():
    names = [r.name for r in ALL_RULES]
    assert len(names) == len(set(names))


def test_rule_count_is_substantial():
    # The curated set covers arithmetic, power, trig and exp families.
    assert len(ALL_RULES) >= 50
