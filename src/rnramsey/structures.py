"""Core ordered structures: posets with linear extensions and two-relation ordered graphs.

A structure lives on vertex ids 0..n-1.  `order` is a permutation of the ids giving the
linear order (order[k] is the k-th smallest vertex).  Relations are sets of ordered pairs
and every relation pair must point forward along the linear order, so relation digraphs
are acyclic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

Pair = tuple[int, int]


class StructureError(ValueError):
    """Structural validation failure: the message, then a witness shown only if short."""

    def __str__(self) -> str:
        shown = ", ".join(map(repr, self.args[1:]))
        return f"{self.args[0]}: {shown}" if 0 < len(shown) <= 80 else str(self.args[0])


class InvariantViolation(AssertionError):
    """An internal invariant failed: a bug, not bad input.  Raised, never asserted, so
    `python -O` keeps the check."""


def _check_ids(n: int, rel: frozenset[Pair], name: str) -> None:
    if type(n) is not int or n < 0:
        raise StructureError(f"vertex count must be a non-negative int, got {n!r}")
    for x, y in rel:
        if type(x) is not int or type(y) is not int:
            raise StructureError(f"{name} pair has a vertex id that is not an int", (x, y))
        if not (0 <= x < n and 0 <= y < n):
            raise StructureError(f"{name} pair out of range", (x, y))


def _check_order(n: int, order: tuple[int, ...]) -> None:
    # the length first: a huge n with a short order must not build range(n)
    bad = len(order) != n or any(type(v) is not int for v in order)
    if bad or sorted(order) != list(range(n)):
        raise StructureError(f"order is not a permutation of 0..{n - 1}", order)


class _Ordered:
    """Order and pair-status queries shared by OrderedPoset and RNGraph."""

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """rank[v] = position of vertex v in the linear order."""
        pos = [0] * self.n
        for k, v in enumerate(self.order):
            pos[v] = k
        return tuple(pos)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Rank-indexed int masks: bit q of rows[0][p] (rows[1][p]) is set when
        (order[p], order[q]) is in R (in N).  Relations point forward, so only bits
        above p are ever set; the absent row of p is the rest of the bits above p."""
        rank = self.rank
        out = []
        for rel in (self.R, self.N):
            row = [0] * self.n
            for x, y in rel:
                row[rank[x]] |= 1 << rank[y]
            out.append(tuple(row))
        return out[0], out[1]

    def before(self, x: int, y: int) -> bool:
        return self.rank[x] < self.rank[y]

    def forward_pairs(self):
        """All pairs (x, y) with x strictly before y, ascending in the order."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield self.order[i], self.order[j]

    def status(self, x: int, y: int) -> str:
        """Relation status of the ordered pair: 'R', 'N' or ''."""
        if (x, y) in self.R:
            return "R"
        if (x, y) in self.N:
            return "N"
        return ""


@dataclass(frozen=True)
class OrderedPoset(_Ordered):
    """Strict partial order `R` (stored transitively closed) with linear extension `order`."""

    n: int
    R: frozenset[Pair]
    order: tuple[int, ...]
    N: ClassVar[frozenset[Pair]] = frozenset()


@dataclass(frozen=True)
class RNGraph(_Ordered):
    """Linear order with two disjoint forward relations R and N."""

    n: int
    R: frozenset[Pair]
    N: frozenset[Pair]
    order: tuple[int, ...]


@dataclass(frozen=True)
class Homomorphism:
    """Vertex map between structures; map[v] is the image of source vertex v."""

    map: tuple[int, ...]
    source: object = field(compare=False)
    target: object = field(compare=False)


def make_ordered_poset(n: int, R, order=None) -> OrderedPoset:
    """Validate and build an OrderedPoset.

    The caller supplies R already transitively closed; a missing composite pair is an
    error, not something to repair.  `order` defaults to the identity.
    """
    R = frozenset(R)
    order = tuple(range(n)) if order is None else tuple(order)
    _check_ids(n, R, "R")
    _check_order(n, order)
    for x, y in R:
        if x == y:
            raise StructureError("reflexive pair", (x, x))
    succ: dict[int, list[int]] = {}
    for x, y in R:
        succ.setdefault(x, []).append(y)
    for x, y in R:
        for z in succ.get(y, ()):
            if (x, z) not in R:
                raise StructureError("missing composite pair", (x, z))
    poset = OrderedPoset(n, R, order)
    for x, y in R:
        if not poset.before(x, y):
            raise StructureError("relation pair runs against the order", (x, y))
    return poset


def make_rn_graph(n: int, R, N, order=None) -> RNGraph:
    """Validate and build an RNGraph: R and N disjoint, both forward along the order."""
    R, N = frozenset(R), frozenset(N)
    order = tuple(range(n)) if order is None else tuple(order)
    _check_ids(n, R, "R")
    _check_ids(n, N, "N")
    _check_order(n, order)
    common = R & N
    if common:
        raise StructureError("pair in both R and N", min(common))
    graph = RNGraph(n, R, N, order)
    for name, rel in (("R", R), ("N", N)):
        for x, y in rel:
            if not graph.before(x, y):
                raise StructureError(f"{name} pair runs against the order", (x, y))
    return graph


def poset_to_complete_rn(poset: OrderedPoset) -> RNGraph:
    """Complete the poset: N collects every forward pair not already related by R."""
    N = frozenset(p for p in poset.forward_pairs() if p not in poset.R)
    return RNGraph(poset.n, poset.R, N, poset.order)


def rn_to_poset(graph: RNGraph) -> OrderedPoset:
    """Recover the poset from a complete RN graph whose R is transitive."""
    if not is_complete(graph):
        raise StructureError("only complete RN graphs convert back to posets")
    return make_ordered_poset(graph.n, graph.R, graph.order)


def induced_substructure(target, image: tuple[int, ...]):
    """Induced substructure on an image set; local id i stands for image[i]."""
    idx = {v: i for i, v in enumerate(image)}
    keep = set(image)
    order = tuple(idx[v] for v in target.order if v in keep)
    R = frozenset((idx[x], idx[y]) for x, y in target.R if x in keep and y in keep)
    if isinstance(target, OrderedPoset):
        return OrderedPoset(len(image), R, order)
    N = frozenset((idx[x], idx[y]) for x, y in target.N if x in keep and y in keep)
    return RNGraph(len(image), R, N, order)


def is_complete(graph: RNGraph) -> bool:
    """True when every forward pair is related by exactly one of R, N."""
    return all(p in graph.R or p in graph.N for p in graph.forward_pairs())


def fuse(graph: RNGraph) -> RNGraph:
    """Collapse both relations into R; the result has empty N."""
    return RNGraph(graph.n, graph.R | graph.N, frozenset(), graph.order)


def chain(k: int) -> OrderedPoset:
    """Total order on k vertices (identity order, R = all forward pairs)."""
    if k < 1:
        raise StructureError(f"chain size must be positive, got {k}")
    R = frozenset((i, j) for i in range(k) for j in range(i + 1, k))
    return OrderedPoset(k, R, tuple(range(k)))


def antichain(k: int) -> OrderedPoset:
    """Empty order on k vertices (identity order, R empty)."""
    if k < 1:
        raise StructureError(f"antichain size must be positive, got {k}")
    return OrderedPoset(k, frozenset(), tuple(range(k)))
