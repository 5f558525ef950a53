"""Pattern language and e-matching for rewrite rules.

Patterns are written as s-expressions; ``?x`` is a pattern variable::

    (sin (~ ?x))            matches sin of a negated subterm
    (+ (* (sin ?x) (sin ?x)) (* (cos ?x) (cos ?x)))   the Pythagorean LHS

Matching is the standard backtracking e-matching procedure: a pattern
node matches an e-class if any e-node in the class has the same operator
and every child pattern matches the corresponding child class.  Like
egg's e-class operator index, the search runs over a :class:`MatchIndex`
snapshot of a frozen graph, so a rule visits only the classes that hold
its root operator and each pattern node scans only e-nodes of its own
operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .egraph import EGraph

__all__ = [
    "Pattern", "PatVar", "PatNode", "parse_pattern", "MatchIndex", "Rewrite",
]


@dataclass(frozen=True)
class PatVar:
    """A pattern variable, written ``?name``."""

    name: str


@dataclass(frozen=True)
class PatNode:
    """A concrete operator pattern with child patterns.

    Leaves use ``payload``: ``("const", 2.0)``, ``("var", "x")``, or
    ``("pi", None)``.
    """

    op: str
    payload: object = None
    children: tuple["Pattern", ...] = ()


Pattern = PatVar | PatNode


def parse_pattern(text: str) -> Pattern:
    """Parse an s-expression pattern string."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Pattern:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = tokens[pos]
            pos += 1
            children = []
            while tokens[pos] != ")":
                children.append(parse())
            pos += 1
            return PatNode(op=op, children=tuple(children))
        if tok == ")":
            raise ValueError("unexpected ')' in pattern")
        if tok.startswith("?"):
            return PatVar(tok[1:])
        if tok == "pi":
            return PatNode(op="pi")
        try:
            return PatNode(op="const", payload=float(tok))
        except ValueError:
            return PatNode(op="var", payload=tok)

    result = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in pattern")
    return result


class MatchIndex:
    """Operator index over a frozen e-graph, for one round of searches.

    ``classes[op]`` lists the canonical e-class ids holding an ``op``
    e-node and ``nodes[cid][op]`` that class's ``op`` e-nodes as
    ``(payload, canonical children)``, both in the graph's own iteration
    order, so indexed matching returns the same matches in the same
    order as scanning every node.  The index is stale once the graph
    changes; build a new one after ``rebuild``.
    """

    __slots__ = ("classes", "nodes")

    def __init__(self, egraph: EGraph):
        find = egraph.find
        self.classes: dict[str, list[int]] = {}
        self.nodes: dict[int, dict[str, list[tuple]]] = {}
        for cid, cls in egraph.classes.items():
            by_op: dict[str, list[tuple]] = {}
            for op, payload, children in cls.nodes:
                by_op.setdefault(op, []).append(
                    (payload, tuple(find(c) for c in children))
                )
            self.nodes[cid] = by_op
            for op in by_op:
                self.classes.setdefault(op, []).append(cid)


def match_in_class(
    egraph: EGraph, pattern: Pattern, cid: int,
    limit: int | None = None,
) -> list[dict[str, int]]:
    """All substitutions under which ``pattern`` matches e-class ``cid``."""
    results: list[dict[str, int]] = []
    _match(MatchIndex(egraph), pattern, egraph.find(cid), {}, results, limit)
    return results


def _match(
    index: MatchIndex,
    pattern: Pattern,
    cid: int,
    subst: dict[str, int],
    out: list[dict[str, int]],
    limit: int | None,
) -> None:
    # Substitutions are never mutated once built, so a match that binds
    # nothing new shares its dict with ``subst`` instead of copying it.
    if limit is not None and len(out) >= limit:
        return
    if isinstance(pattern, PatVar):
        bound = subst.get(pattern.name)
        if bound is None:
            out.append({**subst, pattern.name: cid})
        elif bound == cid:
            out.append(subst)
        return
    for payload, children in index.nodes[cid].get(pattern.op, ()):
        if pattern.op in ("const", "var") and payload != pattern.payload:
            continue
        if len(children) != len(pattern.children):
            continue
        partials = [subst]
        for pat_child, child_cid in zip(pattern.children, children):
            next_partials: list[dict[str, int]] = []
            for p in partials:
                _match(index, pat_child, child_cid, p, next_partials, limit)
            partials = next_partials
            if not partials:
                break
        out.extend(partials)
        if limit is not None and len(out) >= limit:
            return


def instantiate(
    egraph: EGraph, pattern: Pattern, subst: dict[str, int]
) -> int:
    """Build the pattern in the e-graph under a substitution."""
    if isinstance(pattern, PatVar):
        return egraph.find(subst[pattern.name])
    children = [
        instantiate(egraph, c, subst) for c in pattern.children
    ]
    return egraph.add(pattern.op, pattern.payload, children)


class Rewrite:
    """A directed rewrite rule ``lhs => rhs``."""

    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: str | Pattern, rhs: str | Pattern):
        self.name = name
        self.lhs = parse_pattern(lhs) if isinstance(lhs, str) else lhs
        self.rhs = parse_pattern(rhs) if isinstance(rhs, str) else rhs

    def search(
        self, egraph: EGraph, limit_per_class: int = 32,
        index: MatchIndex | None = None,
    ) -> list[tuple[int, dict[str, int]]]:
        """Find (matched class id, substitution) pairs across the graph.

        Pass the round's shared ``index`` when searching many rules
        against one frozen graph; without one, an index is built here.
        """
        if index is None:
            index = MatchIndex(egraph)
        if isinstance(self.lhs, PatVar):
            candidates = list(index.nodes)
        else:
            candidates = index.classes.get(self.lhs.op, [])
        found: list[tuple[int, dict[str, int]]] = []
        for cid in candidates:
            matches: list[dict[str, int]] = []
            _match(index, self.lhs, cid, {}, matches, limit_per_class)
            found.extend((cid, subst) for subst in matches)
        return found

    def apply(
        self, egraph: EGraph, matches: list[tuple[int, dict[str, int]]]
    ) -> int:
        """Union each matched class with the instantiated RHS."""
        changed = 0
        for cid, subst in matches:
            rhs_id = instantiate(egraph, self.rhs, subst)
            root = egraph.find(cid)
            if rhs_id != root:
                egraph.union(rhs_id, root)
                changed += 1
        return changed

    def __repr__(self) -> str:
        return f"Rewrite({self.name})"


def bidirectional(name: str, lhs: str, rhs: str) -> list[Rewrite]:
    """A pair of rewrites for ``lhs <=> rhs``."""
    return [Rewrite(name, lhs, rhs), Rewrite(f"{name}-rev", rhs, lhs)]
