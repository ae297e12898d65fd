"""Part-structured RN graphs over a good complete template, and the product step.

A graph is partite over a template A (one part per template vertex, parts consecutive
in the linear order and listed ascending) when every R-edge projects to an R-pair of
A and every N-edge to an N-pair.  Intra-part pairs are forced empty by irreflexivity,
cross edges ascend with the parts, and every copy of A meets each part exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .analysis import is_good
from .arrow import ArrowVerdict, BaseOracle, SearchLimits, _verdict, oracle_ramsey
from .embeddings import Copy, enumerate_copies, is_embedding, iter_copies
from .structures import Homomorphism, InvariantViolation, RNGraph, StructureError, fuse
from .structures import is_complete, make_rn_graph


class PartProjectionViolation(StructureError):
    pass


class PartOrderViolation(StructureError):
    pass


class IntraPartEdge(StructureError):
    pass


@dataclass(frozen=True)
class APartiteRNGraph:
    """RN graph with a part per template vertex; part t belongs to the t-th smallest."""

    A: RNGraph
    base: RNGraph
    parts: tuple[tuple[int, ...], ...]

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        return part_owner(self.parts, self.base.n)


def part_owner(parts, n: int) -> tuple[int, ...]:
    """owner[v] = index of the part holding vertex v (-1 when no part holds it)."""
    owner = [-1] * n
    for t, members in enumerate(parts):
        for v in members:
            owner[v] = t
    return tuple(owner)


def check_partition(base: RNGraph, parts, template: RNGraph) -> None:
    """Shared partite-condition checker: RN graphs only, part t lists the t-th block
    of the order ascending, the blocks cover the vertex set, edges project."""
    if not (isinstance(base, RNGraph) and isinstance(template, RNGraph)):
        raise StructureError("a partite graph and its template must be RN graphs")
    if len(parts) != template.n:
        raise StructureError(f"expected {template.n} parts, got {len(parts)}")
    rank = 0
    for t, members in enumerate(parts):
        for v in members:
            if not 0 <= v < base.n:
                raise StructureError("part vertex out of range", v)
            if base.rank[v] != rank:
                raise PartOrderViolation(
                    f"part {t} is not the next block of the order, ascending", v
                )
            rank += 1
    if rank != base.n:
        raise StructureError("parts do not cover the vertex set", base.order[rank])
    owner = part_owner(parts, base.n)
    for name, rel, template_rel in (("R", base.R, template.R), ("N", base.N, template.N)):
        for x, y in sorted(rel):
            s, t = owner[x], owner[y]
            if s == t:
                raise IntraPartEdge(f"{name} edge inside part {s}", (x, y))
            if (template.order[s], template.order[t]) not in template_rel:
                raise PartProjectionViolation(
                    f"{name} edge does not project into the template", (x, y)
                )


def make_apartite(A: RNGraph, base: RNGraph, parts) -> APartiteRNGraph:
    """Validate and build a partite graph over a good complete template."""
    if not is_complete(A):
        raise StructureError("template must be complete")
    if not is_good(A):
        raise StructureError("template must be good")
    parts = tuple(tuple(members) for members in parts)
    check_partition(base, parts, A)
    return APartiteRNGraph(A, base, parts)


def collapse(base: RNGraph, part_of, template: RNGraph) -> Homomorphism:
    """Each vertex onto the template vertex owning its part: the t-th smallest owns t."""
    return Homomorphism(tuple(template.order[t] for t in part_of), base, template)


def crossing_copies(graph: APartiteRNGraph) -> list[Copy]:
    """All copies of the template in the underlying graph; each must be crossing."""
    copies = enumerate_copies(graph.A, graph.base)
    for copy in copies:
        touched = sorted(graph.part_of[v] for v in copy.image)
        if touched != list(range(graph.A.n)):
            raise InvariantViolation("template copy is not crossing")
    return copies


def _keeps_parts(pattern: APartiteRNGraph, host: APartiteRNGraph, vmap) -> bool:
    return all(host.part_of[w] == pattern.part_of[v] for v, w in enumerate(vmap))


def partite_embeddings(pattern: APartiteRNGraph, host: APartiteRNGraph) -> list[Copy]:
    """Part-preserving copies of pattern in host (both over the same template)."""
    if pattern.A != host.A:
        raise StructureError("pattern and host are over different templates")
    return [
        copy
        for copy in iter_copies(pattern.base, host.base)
        if _keeps_parts(pattern, host, copy.map)
    ]


@dataclass(frozen=True)
class ProductResult:
    """Partite product of a template with a base witness, plus its lift bookkeeping.

    lifts[i] is the part-respecting copy of the pattern obtained from base E-copy i.
    The oracle certifies every witness it returns, so certified is always true.
    """

    apartite: APartiteRNGraph
    base_witness: RNGraph
    certified: bool
    lifts: tuple[Copy, ...]


def product_relations(A: RNGraph, witness: RNGraph):
    """The product's relation sets over vertex ids t * witness.n + rank(u).

    Both product relations consume the witness's R: an R-pair needs a template R-pair
    above an R-pair of the witness, and an N-pair needs a template N-pair above an
    R-pair of the witness.  The witness's N never enters the product.
    """
    wn = witness.n
    ids = {}
    for t in range(A.n):
        for k, u in enumerate(witness.order):
            ids[(t, u)] = t * wn + k
    R, N = set(), set()
    for rel, out in ((A.R, R), (A.N, N)):
        for a, a2 in rel:
            s, t = A.rank[a], A.rank[a2]
            for u, w in witness.R:
                out.add((ids[(s, u)], ids[(t, w)]))
    return frozenset(R), frozenset(N), ids


def product_construction(A: RNGraph, pattern: APartiteRNGraph, oracle: BaseOracle) -> ProductResult:
    """Partite product step: find a base witness, build the product, lift the copies.

    The base oracle is queried on the relation-fused template and pattern: a lifted
    pair lands in either product relation only through an R-pair of the witness, so
    the witness must arrow the fused pattern over fused-template cliques for the lifts
    to be genuine copies.
    """
    if pattern.A != A:
        raise StructureError("pattern is over a different template")
    fused_a = fuse(A)
    fused_e = fuse(pattern.base)
    witness = oracle_ramsey(oracle, fused_a, fused_e).graph
    wn = witness.n
    R, N, ids = product_relations(A, witness)
    n = A.n * wn
    base = make_rn_graph(n, R, N)
    parts = tuple(tuple(range(t * wn, (t + 1) * wn)) for t in range(A.n))
    apartite = make_apartite(A, base, parts)

    def lift(w_copy: Copy) -> Copy:
        """Pattern vertex v goes to its part, above w_copy's image of v."""
        part_of = pattern.part_of
        vmap = tuple(ids[(part_of[v], w_copy.map[v])] for v in range(pattern.base.n))
        if not is_embedding(vmap, pattern.base, base):
            raise InvariantViolation(f"lift of witness copy {w_copy.image} is not an embedding")
        if any(apartite.part_of[w] != part_of[v] for v, w in enumerate(vmap)):
            raise InvariantViolation(f"lift of witness copy {w_copy.image} moved a part")
        return Copy(tuple(sorted(vmap, key=lambda x: base.rank[x])), vmap)

    lifts = tuple(lift(c) for c in enumerate_copies(fused_e, witness))
    return ProductResult(apartite, witness, True, lifts)


def check_partite_arrow(
    host: APartiteRNGraph,
    pattern: APartiteRNGraph,
    r: int,
    family: tuple[Copy, ...] | None = None,
    limits: SearchLimits | None = None,
) -> ArrowVerdict:
    """Exact partite arrow: every r-coloring of the template copies in the host admits
    a monochromatic member of the copy family (default: all part-respecting copies)."""
    if pattern.A != host.A:
        raise StructureError("pattern and host are over different templates")
    a_copies = crossing_copies(host)
    if family is None:
        members = partite_embeddings(pattern, host)
    else:
        members = list(family)
        for copy in members:
            if not (is_embedding(copy.map, pattern.base, host.base)
                    and _keeps_parts(pattern, host, copy.map)):
                raise StructureError("family member is not a part-preserving copy", copy.map)
    a_in_pattern = enumerate_copies(host.A, pattern.base)
    return _verdict(r, a_copies, members, a_in_pattern, limits or SearchLimits())
