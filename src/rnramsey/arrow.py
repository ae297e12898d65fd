"""Partition-arrow verification and the base witness oracle.

`check_arrow(target, Q, P, r)` decides whether every r-coloring of the copies of P in
the target admits a copy of Q all of whose P-copies share one color.  The verdict comes
from an exact backtracking search for a counterexample coloring (one with no
monochromatic Q-copy); exhaustion proves the arrow.  A seeded random pre-pass hunts for
counterexamples early on larger instances but never decides the positive side.  The
verdict record holds only the verdict (holds, counterexample, nodes); colorings replay
through find_monochromatic.

The P-copies are the slots and the Q-copies the edges of a hypergraph, built once as int
masks over the edges (_incidence) unless the slots are past the exact search's ceiling;
then only whether a Q-copy exists is asked.  The search and the pre-pass keep their
edge state in such masks: per color, the edges with a member of that color, and the
edges that carry two colors.

The oracle (oracle_ramsey) only searches, within the bounds of a BaseOracle: every
witness it returns is certified, and its scan skips, without certifying, the
candidates that the minimal-witness lemma rules out.  A witness the user supplies is
checked by certify_witness on the same route (_is_witness); it passes, is refuted
(CertificationFailed), or runs past a budget (ResourceExceeded), so an OracleWitness
carries only its graph and its source.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cached_property

from .embeddings import Copy, ResourceExceeded, enumerate_copies, iter_copies
from .structures import InvariantViolation, RNGraph, chain, induced_substructure
from .structures import make_rn_graph, poset_to_complete_rn

_PREPASS_SEED = 0x5EED
_PREPASS_SAMPLES = 64
_SLOT_CEILING = 2000  # P-copies the exact search takes on


class NotFoundWithinBounds(ResourceExceeded):
    """The bounded witness search space is exhausted without a witness."""


class CertificationFailed(RuntimeError):
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


def _incidence(p_copies, q_copies, p_in_q) -> list[int]:
    """inc[i] is the int mask of the edges (bit e for q_copies[e]) that hold slot i,
    the P-copy p_copies[i].

    Each copy of P in Q itself (p_in_q) is carried through the Q-copy's vertex map and
    looked up by image.  Composed embeddings are embeddings, so every lookup must
    succeed; a miss means a Q-copy that is not a copy.
    """
    index = {c.image: i for i, c in enumerate(p_copies)}
    inc = [0] * len(p_copies)
    for e_idx, q in enumerate(q_copies):
        bit = 1 << e_idx
        for c in p_in_q:
            image = tuple(q.map[u] for u in c.image)
            i = index.get(image)
            if i is None:
                raise InvariantViolation(f"Q-copy {q.image} maps a P-copy onto non-copy {image}")
            inc[i] |= bit
    return inc


def _proper_coloring_search(inc: list[int], n_edges: int, r: int, limits: SearchLimits):
    """Assignment of slots 0..len(inc)-1 with no monochromatic edge, or None when none
    exists.

    Backtracks over the slots in that fixed order; a slot's color is capped at one
    past the maximum color already in use, which loses no generality for existence.
    The edge state lives in int masks over the edges: has[c] marks the edges with an
    assigned member of color c, and spoiled those that carry two colors.  Slot i
    completes the edges of inc[i] that hold no later slot, so color c is refused at i
    exactly when one of those edges has no member of another color.  An edge with an
    assigned member (one of before[i]) has a member of another color exactly when it
    is spoiled or has no member of color c.  Branches die as soon as some edge is
    complete and single-colored; the search ends early as soon as every edge carries
    two colors.  Undo restores the slot's saved (has[c], spoiled, max_used).

    The masks only store the state.  The branch order (slots in index order, colors
    ascending under the cap) alone fixes the node count and the returned coloring,
    and tests pin both on chain instances.
    """
    m = len(inc)
    full = (1 << n_edges) - 1
    completes = [0] * m
    later = 0  # edges holding a slot after i
    for i in range(m - 1, -1, -1):
        completes[i] = inc[i] & ~later
        later |= inc[i]
    has = [0] * r
    spoiled = 0
    saved = [(0, 0, 0)] * m
    colors = [-1] * m
    before = list(itertools.accumulate(inc, int.__or__, initial=0))  # edges of slots < i
    nodes = 0
    deadline = time.monotonic() + limits.time_budget

    max_used = -1
    i = 0
    while True:
        nodes += 1
        if nodes > limits.max_nodes:
            raise ResourceExceeded(f"arrow search node budget ({limits.max_nodes})")
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            raise ResourceExceeded(f"arrow search time budget after {nodes} nodes")
        if i == m:
            return colors[:], nodes
        if spoiled == full:
            colors[i:] = [0] * (m - i)
            return colors[:], nodes
        cap = min(r - 1, max_used + 1)
        c = colors[i] + 1
        while c <= cap:
            other = spoiled | (before[i] & ~has[c])
            if not completes[i] & ~other:
                break
            c += 1
        if c <= cap:
            saved[i] = (has[c], spoiled, max_used)
            spoiled |= inc[i] & other
            has[c] |= inc[i]
            colors[i] = c
            if c > max_used:
                max_used = c
            i += 1
            continue
        colors[i] = -1
        if i == 0:
            return None, nodes
        i -= 1
        has[colors[i]], spoiled, max_used = saved[i]


def check_arrow(target, Q, P, r: int, limits: SearchLimits | None = None) -> ArrowVerdict:
    """Exact decision of target -> (Q)^P_r.

    FAILS verdicts carry a counterexample coloring admitting no monochromatic Q-copy,
    replayable through find_monochromatic.  HOLDS verdicts are proofs by exhaustion of
    the counterexample search.
    """
    limits = limits or SearchLimits()
    p_copies = enumerate_copies(P, target, limit=limits.max_copies)
    if len(p_copies) > _SLOT_CEILING:
        # past the ceiling _verdict decides only whether some Q-copy exists, or refuses
        q_copies = list(itertools.islice(iter_copies(Q, target), 1))
    else:
        q_copies = enumerate_copies(Q, target, limit=limits.max_copies)
    return _verdict(r, p_copies, q_copies, enumerate_copies(P, Q), limits)


def _verdict(r: int, p_copies, q_copies, p_in_q, limits: SearchLimits) -> ArrowVerdict:
    """Decide whether every r-coloring of p_copies makes some member of q_copies
    monochromatic; the copies (and the copies p_in_q of P in Q itself) are given,
    everything after enumeration happens here."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be an int of at least 1, got {r!r}")
    if not q_copies:
        return ArrowVerdict(False, make_coloring(p_copies, [0] * len(p_copies), r))
    if not p_in_q:
        # every Q-copy holds no P-copy, so every coloring leaves it monochromatic
        return ArrowVerdict(True, None)
    m = len(p_copies)
    if m > _SLOT_CEILING:
        raise ResourceExceeded(
            f"{m} P-copies is beyond the exact search ceiling of {_SLOT_CEILING} slots"
        )
    inc = _incidence(p_copies, q_copies, p_in_q)

    if m > 16 and r >= 2:
        full = (1 << len(q_copies)) - 1
        rng = random.Random(_PREPASS_SEED)
        for _ in range(_PREPASS_SAMPLES):
            sample = [rng.randrange(r) for _ in range(m)]
            has = [0] * r
            for i, c in enumerate(sample):
                has[c] |= inc[i]
            seen = spoiled = 0
            for mask in has:
                spoiled |= seen & mask
                seen |= mask
            if spoiled == full:
                return ArrowVerdict(False, make_coloring(p_copies, sample, r))

    assignment, nodes = _proper_coloring_search(inc, len(q_copies), r, limits)
    if assignment is None:
        return ArrowVerdict(True, None, nodes)
    return ArrowVerdict(False, make_coloring(p_copies, assignment, r), nodes)


def find_monochromatic(target, coloring: Coloring, Q, P) -> Copy | None:
    """First Q-copy (enumeration order) whose P-copies all share a color, else None.

    P-copies are enumerated inside each Q-copy's induced substructure and mapped back,
    a deliberately different route from the checker, which carries the P-copies of Q
    itself through each Q-copy's map.
    """
    p_in_q = len(enumerate_copies(P, Q))
    for q in enumerate_copies(Q, target):
        members = enumerate_copies(P, induced_substructure(target, q.image))
        images = [tuple(q.image[local] for local in c.image) for c in members]
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


def _family(A: RNGraph, E: RNGraph) -> tuple[str, tuple[str, ...]]:
    """The name of the candidate family the scan searches for (A, E), and the pair
    states its columns take.

    N-free lemma.  When A is a complete R-chain and E has no N (every fused product
    query), the scan leaves "N" out and loses no witness size by it.  Let F* be F with
    its N pairs made absent.  A-copies use only R pairs, so F and F* have the same
    A-copies.  An E-copy uses only R and absent pairs, which F* keeps, so every E-copy
    of F is an E-copy of F*.  So F*'s hypergraph has the same vertices and more edges:
    a coloring that leaves every E-copy of F* non-monochromatic does the same for F.
    If F -> (E)^A_2, then F* -> (E)^A_2, and F* has as many vertices as F.
    """
    if _is_complete_chain(A) and not E.N:
        return "N-free", ("R", "")
    return "all", ("R", "N", "")


def _seed_candidates(A: RNGraph, E: RNGraph, size_bound: int):
    """Closed-form candidate families; every yield is still certified before use.

    Each seed has every vertex in a copy of E (E itself, an edgeless graph at least
    as large as an edgeless E, a chain longer than a chain E), so the scan never
    skips one as uncovered, and oracle_ramsey passes over a scanned seed uncounted.
    """
    yield E, "search:identity"
    if A.n == 1 and not E.R and not E.N:
        n = 2 * (E.n - 1) + 1
        if n <= size_bound:
            yield make_rn_graph(n, (), ()), "search:pigeonhole"
    if _is_complete_chain(A) and _is_complete_chain(E):
        for n in range(E.n + 1, size_bound + 1):
            yield poset_to_complete_rn(chain(n)), "search:chain"


def _columns(j: int, states: tuple[str, ...]) -> list[tuple[int, int]]:
    """Every state assignment to the pairs (i, j), i < j, as the masks (R bits, N bits)
    over i; earliest i most significant, states in the order given."""
    out = []
    for assignment in itertools.product(states, repeat=j):
        r = n = 0
        for i, s in enumerate(assignment):
            if s == "R":
                r |= 1 << i
            elif s == "N":
                n |= 1 << i
        out.append((r, n))
    return out


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _enumerated_candidates(E: RNGraph, size_bound: int, states: tuple[str, ...]):
    """Every graph on the identity order, by size and within a size in column order;
    yields (n, graph) for a candidate that may be the first witness and (n, None) for
    one the minimal-witness lemma skips.

    Column order.  A size-n candidate is a size-(n-1) candidate, its prefix, plus a
    column: the states of the pairs (i, n-1), earliest i most significant, states in
    the order given, "R", "N" and "" (absent).  The prefixes run in their own order,
    each followed by all its columns.  With the order fixed to the identity, distinct
    relation sets are distinct up to order-preserving isomorphism, so the scan is
    canonical; leaving "N" out keeps the N-free graphs in the same order.

    Minimal-witness lemma (exact).  Both families of _family, all and N-free graphs,
    are closed under deleting a vertex, and sizes ascend, so when F has n vertices,
    F - v was met at size n - 1 and is no witness: it was certified and rejected,
    skipped by this lemma, or a seed that was.  If v lies in no E-copy of F, the
    E-copies of F are those of F - v, and the A-copies through v lie in no E-copy, so
    their colors never matter: F -> (E)^A_2 exactly when F - v -> (E)^A_2.  So F is
    skipped when the union of its E-copy images is not all n vertices.  At n = 1 this
    is "no E-copy, no witness"; E has at least one vertex here, since with none the
    identity seed answers first.

    One-vertex extension.  For each prefix, its E-copies and its copies of E minus
    its last vertex are listed once (_extension).  An E-copy through the new vertex
    n-1 maps E's last vertex there, so it extends a copy of E minus its last vertex,
    with image I, whose pairs to n-1 have the states E wants: colR & I == wantR and
    colN & I == wantN (_coverage).  No graph is built for a candidate the lemma skips.
    """
    e_minus = induced_substructure(E, E.order[:-1])
    columns = [[(0, 0)]]
    for n in range(1, size_bound + 1):
        top = n - 1
        if top:
            columns.append(_columns(top, states))
        new, full = 1 << top, (1 << n) - 1
        for prefix in itertools.product(*columns[:top]):
            R = [(i, j) for j, (r, _) in enumerate(prefix) for i in range(j) if r >> i & 1]
            N = [(i, j) for j, (_, m) in enumerate(prefix) for i in range(j) if m >> i & 1]
            cover, extensions = _extension(
                E, e_minus, RNGraph(top, frozenset(R), frozenset(N), tuple(range(top)))
            )
            for column in columns[top]:
                if _coverage(cover, extensions, column, new) != full:
                    yield n, None
                    continue
                col_r, col_n = column
                yield n, RNGraph(
                    n,
                    frozenset(R + [(i, top) for i in range(top) if col_r >> i & 1]),
                    frozenset(N + [(i, top) for i in range(top) if col_n >> i & 1]),
                    tuple(range(n)),
                )


def _extension(E: RNGraph, e_minus: RNGraph, prefix: RNGraph):
    """(cover, extensions) of a prefix: cover is the union of its E-copy images as a
    vertex mask, and extensions lists each copy of e_minus (E without its last vertex)
    as (image mask, wantR, wantN), the R and N bits that a column must have on the
    image for the copy to extend to an E-copy through the new vertex."""
    last = E.n - 1
    cover = 0
    for c in enumerate_copies(E, prefix):
        cover |= _mask(c.image)
    to_r, to_n = ([row[i] >> last & 1 for i in range(last)] for row in E.rows)
    extensions = []
    for c in enumerate_copies(e_minus, prefix):
        want_r = _mask(c.map[i] for i in range(last) if to_r[i])
        want_n = _mask(c.map[i] for i in range(last) if to_n[i])
        extensions.append((_mask(c.image), want_r, want_n))
    return cover, extensions


def _coverage(cover: int, extensions, column: tuple[int, int], new: int) -> int:
    """The union of the E-copy images of prefix + column, as a vertex mask; `new` is
    the bit of the new vertex."""
    col_r, col_n = column
    for image, want_r, want_n in extensions:
        if col_r & image == want_r and col_n & image == want_n:
            cover |= image | new
    return cover


def _is_witness(graph: RNGraph, A: RNGraph, E: RNGraph, p_in_q, limits: SearchLimits) -> bool:
    """graph -> (E)^A_2 on the verdict path of check_arrow, with the E-copies listed
    first: a graph without one is no witness, so its A-copies are never listed."""
    q_copies = enumerate_copies(E, graph, limit=limits.max_copies)
    if not q_copies:
        return False
    p_copies = enumerate_copies(A, graph, limit=limits.max_copies)
    return _verdict(2, p_copies, q_copies, p_in_q, limits).holds


def certify_witness(graph: RNGraph, A: RNGraph, E: RNGraph) -> OracleWitness:
    """Certify a supplied witness for graph -> (E)^A_2 on the route of the search's
    candidates.  A refuted witness is a CertificationFailed; a certification that
    runs past its budgets raises ResourceExceeded, like every other ceiling."""
    if not _is_witness(graph, A, E, enumerate_copies(A, E), SearchLimits()):
        raise CertificationFailed(
            f"supplied {graph.n}-vertex witness is refuted by the exact arrow search: "
            f"it does not arrow the {E.n}-vertex pattern ({len(E.R)} R, {len(E.N)} N "
            f"pairs) over the {A.n}-vertex template"
        )
    return OracleWitness(graph, "file")


def oracle_ramsey(oracle: BaseOracle, A: RNGraph, E: RNGraph) -> OracleWitness:
    """Search for F with F -> (E)^A_2; every witness returned is certified by the
    exact verdict path of check_arrow.

    The seeds come first, then the scan of _family's graphs on the identity order by
    size, in column order (see _enumerated_candidates); a seed met again is passed
    over.  A candidate with a vertex in no E-copy is skipped uncertified by the
    minimal-witness lemma, so the first witness of the scan is still the one
    returned.  Every candidate met, certified or skipped, counts against
    candidate_budget and checks the deadline; a budget stop names the size reached
    and how many candidates were certified and skipped.
    """
    if E.n > oracle.size_bound:
        raise NotFoundWithinBounds(
            f"every witness contains a copy of the {E.n}-vertex pattern, "
            f"beyond the size bound {oracle.size_bound}"
        )
    family, states = _family(A, E)
    p_in_q = enumerate_copies(A, E)
    limits = SearchLimits(time_budget=oracle.time_bound)  # caps each certification
    deadline = time.monotonic() + oracle.time_bound
    seeds: dict[RNGraph, str] = {}  # each seed met, with its source
    seeded = (
        (graph.n, graph, seeds.setdefault(graph, source))
        for graph, source in _seed_candidates(A, E, oracle.size_bound)
        if graph not in seeds
    )
    scan = (
        (n, graph, "search:enumeration")
        for n, graph in _enumerated_candidates(E, oracle.size_bound, states)
        if graph not in seeds  # a seed is never skipped as uncovered, so it is met here
    )
    certified = skipped = 0
    for n, graph, source in itertools.chain(seeded, scan):
        if certified + skipped == oracle.candidate_budget:
            raise ResourceExceeded(
                f"candidate budget ({oracle.candidate_budget}) exhausted at size {n}: "
                f"{certified} certified, {skipped} skipped by the minimal-witness lemma"
            )
        if time.monotonic() > deadline:
            raise ResourceExceeded(f"search time budget ({oracle.time_bound}s) exhausted")
        if graph is None:
            skipped += 1
            continue
        certified += 1
        if _is_witness(graph, A, E, p_in_q, limits):
            return OracleWitness(graph, source)
    raise NotFoundWithinBounds(
        f"no witness among {family} candidates up to {oracle.size_bound} vertices"
    )
