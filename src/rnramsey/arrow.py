"""Partition-arrow verification and the base witness oracle.

`check_arrow(target, Q, P, r)` decides whether every r-coloring of the copies of P in
the target admits a copy of Q all of whose P-copies share one color.  The verdict comes
from an exact backtracking search for a counterexample coloring (one with no
monochromatic Q-copy); exhaustion proves the arrow.  On over 16 slots and 2+ colors, a
seeded WalkSAT (_local_search) runs at the exact search's first pause, after 4,096
nodes; it can only find a counterexample, a FAILS with 0 nodes.  Both searches pause
every 4,096 nodes or flips, and _verdict, the loop that drives them, reads the clock at
each pause against the one deadline the query's entry point fixes.  An ArrowVerdict
holds only (holds, counterexample, nodes); colorings replay through find_monochromatic.

Every query takes one route.  The Q-copies come as image masks over the target's order
ORed from iter_copies' ranks (_e_copies), the copies of P in Q as those ranks (_ranked),
and the P-copies that some Q-copy carries are the slots, the Q-copies the edges of a
hypergraph, decoded once per query with one getter per copy of P in Q (_hypergraph)
unless a 2,001st slot refuses the query.  A P-copy in no Q-copy is in no edge, so its
color never matters (the slot lemma, see _enumerated_candidates): check_arrow gives it
color 0.  The search keeps its edge state in int masks: per color, the edges with a
member of that color, and the edges that carry two colors; the local search keeps, per
color, the edges one member short of it.

The oracle (oracle_ramsey) only searches, within the bounds of a BaseOracle, one of two
candidate families (_family): N-free graphs for product rounds, and naturally labelled
posets for stage 2, so that a stage-2 witness is itself a poset C -> (B)^A_2.  Complete
candidates lose no witness size there; asking R to be transitive can, in general.  Every
witness it returns is certified.  Its scan skips, uncertified, the candidates with a
vertex in no E-copy (the minimal-witness lemma), and grows no prefix whose candidates of
the size at hand would all be skipped (the prefix-coverage lemma, whose case at full
depth is the former).  Each size is one depth-first walk (_walk), in which a prefix
inherits its parent's child columns and the copies of E's first vertices that the lemma
reads below it.  A ruled-out prefix's subtree comes as one run for N-free graphs, and as
one run per last-level prefix for posets; the scan yields one item per run of skipped
candidates, each still counted against the budget, and the deadline is read once per
item.  A covered candidate comes as its columns and its E-copies' image masks, and is
certified from those (_is_witness): no copy is listed for it, and only the witness
becomes a graph.  Every certification, of a scanned candidate, a seed or a supplied
witness in certify_witness (with the E-copies enumerate_copies lists), first looks for
a counterexample by a depth-first backtrack over its edges (_extend) that examines at
most _CLOCK_EVERY of them and reads no clock.  A coloring it finds is a FAILS without
_verdict; a miss proves nothing, and _verdict decides on the same hypergraph.
check_arrow takes no look, which would move its pinned counterexamples.  A supplied
witness passes, is refuted (CertificationFailed), or runs past a budget
(ResourceExceeded), so an OracleWitness carries only its graph and its source.
"""

from __future__ import annotations

import itertools
import operator
import random
import time
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

from .analysis import is_good
from .embeddings import Copy, ResourceExceeded, enumerate_copies, iter_copies
from .structures import InvariantViolation, RNGraph, chain, induced_substructure
from .structures import is_complete, make_rn_graph, poset_to_complete_rn

_WALK_SEED = 0x5EED
_WALK_TRIES = 5
_WALK_FLIPS_PER_EDGE = 20  # flips per try, per edge
_WALK_NOISE = 0.1
_SLOT_CEILING = 2000  # slots (P-copies inside some Q-copy) the exact search takes on
_CLOCK_EVERY = 4096  # nodes or flips between clock reads; edges a look (_extend) examines


class NotFoundWithinBounds(ResourceExceeded):
    """The bounded witness search space is exhausted without a witness."""


class CertificationFailed(ValueError):
    """A supplied witness was refuted by the exact arrow search."""


def require_budgets(record, counts: tuple[str, ...], times: tuple[str, ...] = ()) -> None:
    """Count budgets are plain ints and time budgets ints or floats, never bools.  A
    negative or NaN budget is an input error, not a ceiling that runs out at once or
    never; inf is allowed as a time budget."""
    for name in counts + times:
        value = getattr(record, name)
        kind, what = (int, "an int") if name in counts else ((int, float), "a number")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for one exact arrow decision."""

    max_nodes: int = 2_000_000
    max_copies: int = 200_000
    time_budget: float = 120.0

    def __post_init__(self) -> None:
        require_budgets(self, ("max_nodes", "max_copies"), ("time_budget",))


@dataclass(frozen=True)
class Coloring:
    """Total assignment copy-image -> color index, stored sorted for determinism."""

    assignment: tuple[tuple[tuple[int, ...], int], ...]
    r: int

    @cached_property
    def _table(self) -> dict[tuple[int, ...], int]:
        return dict(self.assignment)

    def of(self, image) -> int:
        return self._table[tuple(image)]

    def __len__(self) -> int:
        return len(self.assignment)


def make_coloring(copies, colors, r: int) -> Coloring:
    pairs = sorted((c.image, colors[i]) for i, c in enumerate(copies))
    return Coloring(tuple(pairs), r)


@dataclass(frozen=True)
class ArrowVerdict:
    holds: bool
    counterexample: Coloring | None
    nodes_explored: int = field(compare=False, default=0)


def _hypergraph(q_copies: list[int], p_in_q) -> tuple[dict | int, list[int]]:
    """The hypergraph as (slots, edges), edges[e] masking the slot numbers of the slots
    in the e-th Q-copy.  q_copies[e] is that Q-copy's image mask, and each copy of P in
    Q itself comes as the tuple of its u (p_in_q); carried to the positions of the image
    by its getter, it is a slot.  slots maps each slot to its number, given when first
    met; with a one-vertex P it is the mask of the slot positions, slot (p,) being
    number p, so that each image is its own mask and a look that refutes lists no slot.
    The query is refused at the Q-copy that brings the slots past _SLOT_CEILING."""
    if p_in_q and len(p_in_q[0]) == 1:
        slots = reduce(operator.or_, q_copies, 0)
        if slots.bit_count() <= _SLOT_CEILING:
            return slots, q_copies
        met = map(int.bit_count, itertools.accumulate(q_copies, operator.or_))
        e = next(e for e, count in enumerate(met) if count > _SLOT_CEILING)
    else:  # itemgetter() refuses the empty copy of a 0-vertex P
        slots, edges = {}, []
        getters = [operator.itemgetter(*c) if c else lambda at: () for c in p_in_q]
        for e, image in enumerate(q_copies):
            at, mask = _positions(image), 0
            for get in getters:
                mask |= 1 << slots.setdefault(get(at), len(slots))
            if len(slots) > _SLOT_CEILING:
                break
            edges.append(mask)
        else:
            return slots, edges
    raise ResourceExceeded(
        f"more than {_SLOT_CEILING} P-copies, the exact search ceiling, "
        f"in the first {e + 1} of {len(q_copies)} Q-copies"
    )


def _proper_coloring_search(inc: list[int], n_edges: int, r: int, stop: int):
    """Yields (colors, nodes) when it ends: an assignment of slots 0..len(inc)-1 with
    no monochromatic edge, or None when none exists.  It pauses (yields None) instead
    of counting a node past stop, and resumes where it was once sent a higher stop.

    Backtracks over the slots in that fixed order; a slot's color is capped at one
    past the maximum color already in use, which loses no generality for existence.
    The edge state lives in int masks over the edges: has[c] marks the edges with an
    assigned member of color c, and spoiled those that carry two colors.  Slot i
    completes the edges of inc[i] that hold no later slot; the unspoiled ones (live,
    one AND per node) have one color at most, so color c is refused at i exactly when
    live & has[c], and every color when i completes an edge no earlier slot holds
    (lone: i alone).  Coloring i with c spoils the edges it shares with earlier slots
    (shared) that have no member of color c.  Branches die as soon as some edge is
    complete and single-colored; the search ends early as soon as every edge carries
    two colors.  Undo restores the slot's saved (has[c], spoiled, cap).

    The masks only store the state; a & ~b is taken as a ^ (a & b), which negates no
    big int.  The branch order (slots in index order, colors ascending under the cap)
    alone fixes the node count and the returned coloring, and tests pin both on chain
    instances.
    """
    m = len(inc)
    full = (1 << n_edges) - 1
    before = list(itertools.accumulate(inc, int.__or__, initial=0))  # edges of slots < i
    rows = [(0, 0, 0, 0)] * m  # per slot: completes, lone, shared, inc
    later = 0  # edges holding a slot after i
    for i in range(m - 1, -1, -1):
        completes = inc[i] & ~later
        rows[i] = (completes, completes & ~before[i], inc[i] & before[i], inc[i])
        later |= inc[i]
    has = [0] * r
    spoiled = 0
    saved = [(0, 0, 0)] * m
    colors = [-1] * m
    nodes = 0
    cap = 0  # min(r - 1, one past the largest color in use)
    i = 0
    while True:
        nodes += 1
        while nodes > stop:
            stop = yield None
        if i == m or spoiled == full:  # all colored, or the rest take 0: no edge needs them
            colors[i:] = [0] * (m - i)
            break
        completes, lone, shared, mask = rows[i]
        live = completes ^ (completes & spoiled)
        c = r if lone else colors[i] + 1
        while c <= cap and live & has[c]:
            c += 1
        if c <= cap:
            saved[i] = (has[c], spoiled, cap)
            spoiled |= shared ^ (shared & has[c])
            has[c] |= mask
            colors[i] = c
            if c == cap < r - 1:
                cap += 1
            i += 1
            continue
        colors[i] = -1
        if i == 0:
            colors = None
            break
        i -= 1
        has[colors[i]], spoiled, cap = saved[i]
    yield colors, nodes


def _local_search(inc: list[int], n_edges: int, r: int):
    """Yields an assignment of slots 0..len(inc)-1 with no monochromatic edge if it
    finds one, and ends when it gives up, which proves nothing; r >= 2.  WalkSAT with
    the Selman-Kautz-Cohen rule: take a random monochromatic edge; make a move of a
    member that breaks no other edge (makes it monochromatic) if there is one, else with
    probability _WALK_NOISE a random move, else one that breaks the fewest, ties at
    random.  Try t draws from Random(_WALK_SEED + t) and makes _WALK_FLIPS_PER_EDGE *
    n_edges flips in runs of _CLOCK_EVERY, pausing (yielding None) before each.
    count[c][e] counts the members of edge e with color c (held[e] & of[c] at a try's
    start); near[c] masks the edges with all members but one of color c, so recoloring
    slot i to c breaks the edges of inc[i] & near[c].  A flip scans the moves (the
    edge's members, then colors ascending), one tie-break draw each, and keeps the first
    with the least (breaks, draw); only a noise move lists them.
    """
    members: list[list[int]] = [[] for _ in range(n_edges)]
    for i, mask in enumerate(inc):
        for e in _positions(mask):
            members[e].append(i)
    if any(len(slots) < 2 for slots in members):
        return  # a one-member edge is monochromatic under every coloring
    need = [len(slots) - 1 for slots in members]
    held = [sum(1 << i for i in slots) for slots in members]  # per edge, its slots
    edges_of = [[(e, need[e] - 1, 1 << e) for e in _positions(mask)] for mask in inc]
    others = [[c for c in range(r) if c != a] for a in range(r)]
    for t in range(_WALK_TRIES):
        draw = random.Random(_WALK_SEED + t).random  # picks seq[int(draw() * len(seq))]
        colors = [int(draw() * r) for _ in inc]
        of = [sum(1 << i for i, a in enumerate(colors) if a == c) for c in range(r)]
        count = [[(slots & mask).bit_count() for slots in held] for mask in of]
        near = [sum(1 << e for e in range(n_edges) if row[e] == need[e]) for row in count]
        mono = [e for e in range(n_edges) if any(row[e] > need[e] for row in count)]
        where = [0] * n_edges  # position of each edge of mono in mono
        for j, e in enumerate(mono):
            where[e] = j
        for left in range(_WALK_FLIPS_PER_EDGE * n_edges, 0, -_CLOCK_EVERY):  # flips left
            if not mono:
                break
            yield None
            for _ in range(min(_CLOCK_EVERY, left)):
                if not mono:
                    break
                slots = members[mono[int(draw() * len(mono))]]
                least = n_edges + 1
                for j in slots:  # moves in order, each with its tie-break draw
                    mask = inc[j]
                    for k in others[colors[j]]:
                        breaks, tie = (mask & near[k]).bit_count(), draw()
                        if breaks < least or breaks == least and tie < first:
                            least, first = breaks, tie  # pairs: no tuple is built
                            i, c = j, k
                if least and draw() < _WALK_NOISE:
                    moves = [(j, k) for j in slots for k in others[colors[j]]]
                    i, c = moves[int(draw() * len(moves))]
                a = colors[i]
                old, new, near_a, near_c = count[a], count[c], near[a], near[c]
                for e, low, bit in edges_of[i]:  # low: two short of e's size
                    x, y = old[e], new[e]
                    if x > low:  # e leaves near[a], or was monochromatic in a and enters it
                        near_a ^= bit
                        if x > low + 1:  # swap the last of mono into e's place
                            last = mono.pop()
                            if last != e:
                                mono[where[e]], where[last] = last, where[e]
                    if y >= low:  # e enters or leaves near[c]; y is never past one short
                        near_c ^= bit
                        if y > low:  # e becomes monochromatic in c
                            where[e] = len(mono)
                            mono.append(e)
                    old[e], new[e] = x - 1, y + 1
                near[a], near[c] = near_a, near_c
                colors[i] = c
        if not mono:
            yield colors
            return


def check_arrow(target, Q, P, r: int, limits: SearchLimits | None = None) -> ArrowVerdict:
    """Exact decision of target -> (Q)^P_r.

    FAILS verdicts carry a counterexample coloring admitting no monochromatic Q-copy,
    replayable through find_monochromatic.  HOLDS verdicts are proofs by exhaustion of
    the counterexample search.  The slots are the hypergraph's (_hypergraph), each one
    of the listed P-copies (composed embeddings are embeddings, so a miss means a Q-copy
    that is not a copy), and a P-copy in no Q-copy takes color 0.
    """
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be an int of at least 1, got {r!r}")
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.time_budget
    p_copies = enumerate_copies(P, target, limit=limits.max_copies)
    index = {tuple(map(target.rank.__getitem__, c.image)): i for i, c in enumerate(p_copies)}
    hypergraph = _hypergraph(_e_copies(target, Q, limits.max_copies), _ranked(P, Q))
    slots, colors, nodes = _verdict(r, *hypergraph, limits.max_nodes, deadline)
    where = [index.get(slot) for slot in slots]
    if None in where:
        image = tuple(target.order[p] for p in slots[where.index(None)])
        raise InvariantViolation(f"a Q-copy maps a P-copy onto non-copy {image}")
    if colors is None:
        return ArrowVerdict(True, None, nodes)
    assignment = [0] * len(p_copies)
    for i, color in zip(where, colors):
        assignment[i] = color
    return ArrowVerdict(False, make_coloring(p_copies, assignment, r), nodes)


def _verdict(r: int, slots, edges: list[int], max_nodes: int, deadline: float):
    """Decide whether every r-coloring of the slots makes some edge monochromatic:
    (slots, colors, nodes), the slots by image ascending, with colors, one per slot,
    leaving no edge monochromatic, or None when no such coloring exists (the arrow
    holds).  The slots and edges come from _hypergraph, transposed here into each
    slot's mask of edges.  One exact search decides on max_nodes, sent stops
    _CLOCK_EVERY nodes apart; past the walk's gate, the walk runs at its first pause (a
    FAILS of 0 nodes).  Only this loop reads the clock, at each pause of either search,
    and a passed deadline ends the query there."""
    if not edges:
        return [], [], 0
    if not slots:  # every edge holds no slot, so every coloring leaves it monochromatic
        return [], None, 0
    if isinstance(slots, int):  # a one-vertex P's slots, numbered by position
        slots = {(p,): p for p in _positions(slots)}
    held = [0] * (max(slots.values()) + 1)  # per slot number, the edges that hold it
    for e, mask in enumerate(edges):
        bit = 1 << e
        for k in _positions(mask):
            held[k] |= bit
    order = sorted(slots)
    inc, n_edges = [held[slots[s]] for s in order], len(edges)
    r = min(r, len(order))  # the exact search's cap never passes the slot count
    walk = _local_search(inc, n_edges, r) if len(order) > 16 and r >= 2 else iter(())
    stop = min(_CLOCK_EVERY, max_nodes)
    search = _proper_coloring_search(inc, n_edges, r, stop)
    done = next(search)
    while done is None:  # the exact search paused at stop, and the walk maybe too
        if time.monotonic() > deadline:
            raise ResourceExceeded(f"arrow search time budget after {stop} nodes")
        colors = next(walk, False)  # None at a pause, False once it has given up
        if colors:
            return order, colors, 0
        if colors is False and stop == max_nodes:
            raise ResourceExceeded(f"arrow search node budget ({max_nodes})")
        if colors is False:
            stop = min(stop + _CLOCK_EVERY, max_nodes)
            done = search.send(stop)
    return order, *done


def find_monochromatic(target, coloring: Coloring, Q, P) -> Copy | None:
    """First Q-copy (enumeration order) whose P-copies all share a color, else None.

    P-copies are enumerated inside each Q-copy's induced substructure, once per distinct
    one (inside), and mapped back: a deliberately different route from the checker,
    which carries the P-copies of Q itself through each Q-copy's map.
    """
    p_in_q = len(enumerate_copies(P, Q))
    inside = cache(lambda sub: [c.image for c in enumerate_copies(P, sub)])
    for q in enumerate_copies(Q, target):
        local = inside(induced_substructure(target, q.image))
        images = [tuple([q.image[i] for i in c]) for c in local]
        if len(images) != p_in_q:
            raise InvariantViolation("copy composition mismatch")
        try:
            colors = {coloring.of(img) for img in images}
        except KeyError as miss:
            raise ValueError(f"coloring is not total: missing copy {miss}") from None
        if len(colors) <= 1:
            return q
    return None


# ---------------------------------------------------------------------------
# Base witness oracle


@dataclass(frozen=True)
class BaseOracle:
    """Bounds of the certified witness search for F with F -> (E)^A_2."""

    size_bound: int = 16
    time_bound: float = 60.0
    candidate_budget: int = 60_000

    def __post_init__(self) -> None:
        require_budgets(self, ("size_bound", "candidate_budget"), ("time_bound",))


@dataclass(frozen=True)
class OracleWitness:
    graph: RNGraph
    source: str


def _is_complete_chain(g: RNGraph) -> bool:
    return not g.N and g.R == frozenset(g.forward_pairs())


def _family(A: RNGraph, E: RNGraph) -> str:
    """The candidate family for (A, E), one per kind of query the construction asks;
    any other query is a ValueError.

    N-free lemma (product rounds: A a complete R-chain, E without N).  Let F* be F with
    its N pairs made absent.  A-copies use only R pairs, so F and F* have the same
    A-copies; an E-copy uses only R and absent pairs, so every E-copy of F is one of F*.
    F*'s hypergraph has the same vertices and more edges, so if F -> (E)^A_2, then
    F* -> (E)^A_2 on as many vertices: N-free candidates lose no witness size.

    Poset lemma (stage 2: A and E posets, complete and good).  No A-copy or E-copy holds
    an absent pair of F, so filling one keeps every copy with its members: complete
    candidates lose no witness size.  Asking R to be transitive too can, in general (it
    lost none on the 21 pairs with |A| <= 2, |B| <= 3), but a poset witness is itself a
    poset C -> (B)^A_2, over which every later stage of the tower stabilizes.
    """
    if _is_complete_chain(A) and not E.N:
        return "N-free"
    if all(is_complete(g) and is_good(g) for g in (A, E)):
        return "poset"
    raise ValueError(
        "the oracle searches N-free candidates (A a complete R-chain, E without N) or "
        "poset candidates (A and E complete with a transitive R); this query is neither"
    )


def _seed_candidates(A: RNGraph, E: RNGraph, size_bound: int):
    """Closed-form candidate families; every yield is still certified before use.

    Each seed is in the query's family (E, or an N-free edgeless graph or chain) and
    has every vertex in a copy of E (an edgeless graph at least as large as an edgeless
    E, a chain longer than a chain E), so the scan meets it and oracle_ramsey passes it.
    """
    yield E, "search:identity"
    n = 2 * (E.n - 1) + 1
    if A.n == 1 and not E.R and not E.N and n <= size_bound:
        yield make_rn_graph(n, (), ()), "search:pigeonhole"
    if _is_complete_chain(A) and _is_complete_chain(E):
        for n in range(E.n + 1, size_bound + 1):
            yield poset_to_complete_rn(chain(n)), "search:chain"


def _columns(offered: list[int], column: int, bit: int) -> list[int]:
    """The columns over a prefix grown by a vertex (mask bit) with this column, in
    column order, from the prefix's own (offered): each d of them gives d | bit, when d
    holds the column, then d.  Column 0 offers every mask, as the N-free scan takes;
    from a poset's own down-sets and column, the grown poset's down-sets."""
    return [m for d in offered for m in ((d | bit, d) if not column & ~d else (d,))]


def _walk(n: int, cols: list[int], offered: list[int], copies: dict, scan):
    """The scan's items for the size-n candidates below one prefix on q vertices, in
    batches, from its columns (cols, reused), child columns (offered) and copies: {image
    mask: wants} over the copies of E[:j] it keeps, j (the image's size) >= E.n - (n -
    q) (see _enumerated_candidates), wants[i] masking the image vertices E wants R pairs
    from to its vertex i.  scan is (to_r, columns, runs), to_r[j][i] being 1 when E
    wants an R pair from its vertex j to i.  A copy of E[:j] extends through the new
    vertex (mask bit) to one of E[:j + 1] when the column meets its image in wants[j],
    its other pairs then absent or N as E wants.  Each extension is made once per prefix
    and matched once per column; the matches decide the child's coverage and are a
    covered child's new copies.  A batch is the count of a prefix that is not grown, or
    a list of items, a last-level prefix's all in one, so that no item is passed up
    level by level."""
    to_r, columns, runs = scan
    q = len(cols)
    bit, whole = 1 << q, (2 << q) - 1
    low = len(to_r) - (n - q - 1)  # the child keeps only its copies of E[:j] with j >= low
    kept = {image: wants for image, wants in copies.items() if image.bit_count() >= low}
    cover = reduce(operator.or_, kept, 0)
    adds = [[bit * r for r in row] for row in to_r]  # to the wants of j's R-successors
    ends = []  # each copy below E: what it asks of a column, and its extension
    for image, wants in copies.items():
        j = image.bit_count()
        if j < len(to_r):
            ends.append((image, wants[j], image | bit, tuple(map(operator.or_, wants, adds[j]))))
    out, run = [], 0
    for column in offered:
        seen, new = cover, {}
        for image, want, grown, wants in ends:
            if column & image == want:
                seen |= grown
                new[grown] = wants
        if seen != whole and q + 1 == n:  # the minimal-witness lemma skips the candidate
            run += 1
            continue
        if run:
            out.append((n, run, None, None))
            run = 0
        if seen != whole:  # the prefix-coverage lemma skips every candidate below
            yield runs(columns(offered, column, bit), q + 1, n)
        elif q + 1 == n:
            out.append((n, 1, (*cols, column), [*kept, *new]))
        else:
            cols.append(column)
            yield from _walk(n, cols, columns(offered, column, bit), kept | new, scan)
            cols.pop()
    if run:
        out.append((n, run, None, None))
    yield out


def _graph(cols, posets: bool) -> RNGraph:
    """The candidate on the identity order with these columns: pair (i, j) is R when
    bit i of cols[j] is set, else N for posets and absent for N-free graphs."""
    n = len(cols)
    pairs = frozenset((i, j) for j in range(n) for i in range(j))
    R = frozenset((i, j) for i, j in pairs if cols[j] >> i & 1)
    return RNGraph(n, R, pairs - R if posets else frozenset(), tuple(range(n)))


def _enumerated_candidates(E: RNGraph, size_bound: int, family: str):
    """Every graph of the family on the identity order with E.n to size_bound vertices,
    by size and within a size in column order; E has a vertex.  Yields (n, 1, columns,
    e_copies) for a candidate that may be the first witness, with the image masks of
    its E-copies, and (n, run, None, None) for a run of `run` consecutive candidates that
    the prefix-coverage lemma skips.

    Column order.  A size-n candidate is a size-(n-1) candidate, its prefix, plus a
    column: the R mask of the pairs (i, n-1), earliest i most significant, R first; its
    other pairs are absent (N-free) or N (poset).  The prefixes run in their own order,
    each followed by all its columns.  On the identity order, distinct relation sets
    are distinct up to order-preserving isomorphism, so the scan is canonical.  R stays
    transitive exactly when each column is a down-set of the poset before it, so the
    poset scan offers only down-sets (_columns) and never grows a non-poset prefix.

    Minimal-witness lemma (exact).  Both families are closed under deleting a vertex,
    and sizes ascend from E.n, below which a graph holds no E-copy.  So when F has n
    vertices, F - v is no witness: it is smaller than E, or it was met at size n - 1 and
    certified and rejected, skipped by this lemma, or a seed that was.  If v lies in no
    E-copy of F, the E-copies of F are those of F - v, and the A-copies through v lie in
    no E-copy, so their colors never matter: F -> (E)^A_2 exactly when F - v ->
    (E)^A_2.  So F is skipped when the union of its E-copy images is not all n vertices.

    Prefix-coverage lemma (exact).  An E-copy of a size-n candidate meets its prefix on
    q vertices in a copy of E[:j], E's first j vertices, with j >= E.n - (n - q): at most
    n - q of its vertices lie past the prefix.  So if a vertex of the prefix is in no
    copy of E[:j] with j >= E.n - (n - q), every size-n candidate below it has a vertex
    in no E-copy and is skipped.  At q = n the prefix is the candidate and j = E.n: the
    minimal-witness lemma.

    Slot lemma (exact).  Likewise an A-copy of F in no E-copy is in no edge of the
    hypergraph: its color neither makes nor spoils a monochromatic E-copy.  Dropping
    it keeps HOLDS and FAILS (a counterexample on the rest extends by any color), and
    HOLDS is still proved by exhausting the search.  So the slots of a certification
    are the A-copies inside some E-copy, and F's own A-copies are never listed
    (_is_witness).

    Look (exact).  A coloring of the slots under which every E-copy holds A-copies of
    both colors is a counterexample, so a candidate that the look (_extend) so colors
    FAILS.  A miss proves nothing, and _verdict decides, so HOLDS is still proved by
    exhausting the search, and the first witness, the certified and skipped counts and
    the scan's items are those without the look.

    Walk.  Each size is one depth-first walk from the empty prefix (_walk), in which a
    prefix on q vertices keeps only its copies of E[:j] with j >= E.n - (n - q), the
    levels that the prefix-coverage lemma reads at it and below, and hands these and its
    child columns on; no prefix graph is built and no down-set is listed from scratch.
    The lemma is tested in one place, on each child before it is built.  A candidate
    that fails it joins a run of skipped ones, which ends at a covered candidate or its
    prefix's last column; a prefix that fails it is not grown, and its candidates are
    counted (runs): 1 << sum(range(q, n)) at once for N-free graphs, and for posets one
    run per last-level prefix by a walk over the columns alone, so that no count runs
    far ahead of the budget.  A covered candidate's E-copies come as masks.
    """
    if family == "poset":
        columns = _columns

        def runs(offered, p, n):  # one per last-level prefix, walking columns only
            if p + 1 == n:
                yield n, len(offered), None, None
                return
            for column in offered:
                yield from runs(_columns(offered, column, 1 << p), p + 1, n)
    else:
        every = cache(lambda t: [0] if t == 0 else _columns(every(t - 1), 0, 1 << t - 1))

        def columns(offered, column, bit):
            return every(bit.bit_length())  # every mask over the grown prefix

        def runs(offered, p, n):  # vertex t takes any of 2^t columns
            yield n, 1 << sum(range(p, n)), None, None

    scan = ([tuple(row >> i & 1 for i in range(E.n)) for row in E.rows[0]], columns, runs)
    for n in range(E.n, size_bound + 1):
        for items in _walk(n, [], [0], {0: (0,) * E.n}, scan):
            yield from items


def _positions(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _ranked(A: RNGraph, E: RNGraph) -> list[tuple[int, ...]]:
    """The copies of A in E, each as the ranks in E of its image."""
    return list(iter_copies(A, E))


def _e_copies(graph: RNGraph, E: RNGraph, limit: int) -> list[int]:
    """The image masks of E's copies in graph (bit p for graph's p-th vertex in its
    order), at most limit of them, ORed from iter_copies' ranks: no Copy is built."""
    out = []
    for ranks in iter_copies(E, graph):
        mask = 0
        for p in ranks:
            mask |= 1 << p
        out.append(mask)
        if len(out) > limit:
            raise ResourceExceeded(f"more than {limit} copies of a {E.n}-vertex pattern in a "
                                   f"{graph.n}-vertex target")
    return out


def _is_witness(e_copies, p_in_e, deadline: float) -> bool:
    """Whether a graph arrows (E)^A_2, given the image masks of its E-copies and the
    A-copies in E as ranks (_ranked), on _verdict's path within SearchLimits' default
    counts.  Its hypergraph (_hypergraph) is built once: the slots are the A-copies
    inside some E-copy (the slot lemma, see _enumerated_candidates).  A graph without
    an E-copy is no witness.  A coloring the look (_extend) finds over the edges is a
    FAILS; else _verdict decides on the same hypergraph."""
    limit = SearchLimits.max_copies
    if len(e_copies) > limit:
        raise ResourceExceeded(f"more than {limit} copies of the pattern in a candidate")
    slots, edges = _hypergraph(e_copies, p_in_e)
    if _extend(edges):
        return False
    return _verdict(2, slots, edges, SearchLimits.max_nodes, deadline)[1] is None


def _extend(edges):
    """The empty coloring extended over the slots of the edges (slot masks) so that
    every edge has a member of each color, as (red, blue), the masks of the slots of
    colors 0 and 1 (a slot in neither may take either), or None: no such coloring, or
    none found within _CLOCK_EVERY edges examined, so that it runs no longer unclocked
    than a search between two of _verdict's clock reads.  Depth first: a node takes the
    first edge that lacks a color, and branches on its first uncolored member, color 0
    first; an edge left with no uncolored member that lacks a color kills the branch."""
    stack, left = [(0, 0)], _CLOCK_EVERY
    while stack:
        red, blue = stack.pop()
        for m in itertools.islice(edges, left):
            left -= 1
            r, b = m & red, m & blue
            if not (r and b):
                free = m ^ r ^ b
                if free:
                    free &= -free
                    stack += ((red, blue | free), (red | free, blue))
                break
        else:  # every edge has both colors, unless the cap cut the scan short
            return (red, blue) if left else None
    return None


def certify_witness(graph: RNGraph, A: RNGraph, E: RNGraph) -> OracleWitness:
    """Certify a supplied witness for graph -> (E)^A_2 on the route of the search's
    candidates.  A refuted witness is a CertificationFailed; a certification that
    runs past its budgets raises ResourceExceeded, like every other ceiling."""
    deadline = time.monotonic() + SearchLimits.time_budget
    p_in_e = _ranked(A, E)
    if not _is_witness(_e_copies(graph, E, SearchLimits.max_copies), p_in_e, deadline):
        raise CertificationFailed(
            f"supplied {graph.n}-vertex witness is refuted by the exact arrow search: "
            f"it does not arrow the {E.n}-vertex pattern ({len(E.R)} R, {len(E.N)} N "
            f"pairs) over the {A.n}-vertex template"
        )
    return OracleWitness(graph, "file")


def oracle_ramsey(oracle: BaseOracle, A: RNGraph, E: RNGraph) -> OracleWitness:
    """Search for F with F -> (E)^A_2; every witness returned is certified by the
    exact verdict path of check_arrow.

    The seeds come first, then the scan of _family's candidates in column order (see
    _enumerated_candidates), which passes over a seed met again (the same columns) and
    skips, uncertified, a candidate with a vertex in no E-copy: its first witness is
    still the one returned.  Every candidate is certified on one route (_is_witness),
    from the scan's E-copies or, for a seed, those enumerate_copies lists, the look
    first.  Only the witness becomes a graph.  Every candidate met counts against
    candidate_budget, one at a time also inside a run of skipped ones; the deadline is
    read once per item, a seed, a candidate or a run.  A budget stop names the size of
    the first candidate past the budget and how many were certified and skipped.
    """
    family = _family(A, E)
    if E.n > oracle.size_bound:
        raise NotFoundWithinBounds(
            f"every witness contains a copy of the {E.n}-vertex pattern, "
            f"beyond the size bound {oracle.size_bound}"
        )
    posets = family == "poset"
    p_in_e = _ranked(A, E)
    deadline = time.monotonic() + oracle.time_bound  # certifications included
    met: set[tuple[int, ...]] = set()  # the columns of each seed the scan meets again

    def seeded():
        for graph, source in _seed_candidates(A, E, oracle.size_bound):
            cols = tuple(sum(1 << i for i, j in graph.R if j == t) for t in range(graph.n))
            if _graph(cols, posets) == graph:
                met.add(cols)
            yield graph.n, 1, graph, _e_copies(graph, E, SearchLimits.max_copies), source

    scan = (
        (n, run, cols, e_copies, "search:enumeration")
        for n, run, cols, e_copies in _enumerated_candidates(E, oracle.size_bound, family)
        if cols not in met  # a seed is never skipped as uncovered, so it is met here
    )
    certified = skipped = 0
    for n, run, made, e_copies, source in itertools.chain(seeded(), scan):
        room = oracle.candidate_budget - certified - skipped
        if run > room:  # the budget runs out before this item or inside its run
            raise ResourceExceeded(
                f"candidate budget ({oracle.candidate_budget}) exhausted at size {n}: "
                f"{certified} certified, {skipped + room} skipped by the minimal-witness lemma"
            )
        if time.monotonic() > deadline:
            raise ResourceExceeded(f"search time budget ({oracle.time_bound}s) exhausted")
        if made is None:
            skipped += run
            continue
        certified += 1
        if _is_witness(e_copies, p_in_e, deadline):
            graph = _graph(made, posets) if isinstance(made, tuple) else made
            return OracleWitness(graph, source)
    raise NotFoundWithinBounds(
        f"no witness among {family} candidates up to {oracle.size_bound} vertices"
    )
