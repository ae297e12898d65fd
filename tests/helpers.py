"""Seeded generators and independent brute-force oracles shared by the suites.

The oracles here deliberately reimplement library questions by the dumbest correct
route (full DFS, full coloring enumeration, Floyd-Warshall) so agreement between the
two is evidence, not circularity.
"""

from __future__ import annotations

import itertools
import random

from rnramsey import (
    APartiteRNGraph,
    Coloring,
    OrderedPoset,
    RNGraph,
    enumerate_copies,
    make_apartite,
    make_coloring,
    make_ordered_poset,
    make_rn_graph,
)
from rnramsey.arrow import (
    _CLOCK_EVERY,
    _WALK_FLIPS_PER_EDGE,
    _WALK_NOISE,
    _WALK_SEED,
    _WALK_TRIES,
    _positions,
)


def random_order(rng: random.Random, n: int) -> tuple[int, ...]:
    if rng.random() < 0.5:
        return tuple(range(n))
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


def random_rn(rng: random.Random, n_max: int = 10) -> RNGraph:
    """Arbitrary RN graph: disjoint forward relations over a random linear order."""
    n = rng.randint(1, n_max)
    order = random_order(rng, n)
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    R, N = set(), set()
    for x in range(n):
        for y in range(n):
            if rank[x] >= rank[y]:
                continue
            roll = rng.random()
            if roll < 0.25:
                R.add((x, y))
            elif roll < 0.45:
                N.add((x, y))
    return make_rn_graph(n, R, N, order)


def random_poset(rng: random.Random, n_max: int = 6) -> OrderedPoset:
    """Random poset: closure of random forward edges over a random linear order."""
    n = rng.randint(1, n_max)
    order = random_order(rng, n)
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    edges = {
        (x, y)
        for x in range(n)
        for y in range(n)
        if rank[x] < rank[y] and rng.random() < 0.4
    }
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return make_ordered_poset(n, closed, order)


def random_good_complete(rng: random.Random, n_max: int = 4) -> RNGraph:
    from rnramsey import poset_to_complete_rn

    return poset_to_complete_rn(random_poset(rng, n_max))


def random_apartite(
    rng: random.Random, p_max: int = 4, part_max: int = 3, A: RNGraph | None = None
) -> APartiteRNGraph:
    """Valid partite instance built directly from the definition; over a random good
    complete template unless `A` is given."""
    if A is None:
        A = random_good_complete(rng, p_max)
    sizes = [rng.randint(0, part_max) for _ in range(A.n)]
    if sum(sizes) == 0:
        sizes[rng.randrange(A.n)] = 1
    n = sum(sizes)
    parts = []
    start = 0
    for size in sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    R, N = set(), set()
    for s in range(A.n):
        for t in range(s + 1, A.n):
            status = A.status(A.order[s], A.order[t])
            for x in parts[s]:
                for y in parts[t]:
                    if rng.random() < 0.5:
                        continue
                    if status == "R":
                        R.add((x, y))
                    elif status == "N":
                        N.add((x, y))
    base = make_rn_graph(n, R, N)
    return make_apartite(A, base, parts)


def brute_bad_quasicycle_exists(graph: RNGraph) -> bool:
    """DFS over every R-path; bad when some path's endpoints are an N-pair."""
    succ = {x: [] for x in range(graph.n)}
    for x, y in graph.R:
        succ[x].append(y)

    def dfs(start: int, at: int) -> bool:
        if (start, at) in graph.N:
            return True
        return any(dfs(start, nxt) for nxt in succ[at])

    return any(dfs(x, x) for x in range(graph.n))


def brute_shortest_bad_length(graph: RNGraph) -> int | None:
    """Minimum vertex count of a bad quasicycle, by exhaustive path extension."""
    succ = {x: [] for x in range(graph.n)}
    for x, y in graph.R:
        succ[x].append(y)
    best = None

    def dfs(start: int, at: int, length: int) -> None:
        nonlocal best
        if best is not None and length >= best:
            return
        if length >= 2 and (start, at) in graph.N:
            best = length
            return
        for nxt in succ[at]:
            dfs(start, nxt, length + 1)

    for x in range(graph.n):
        dfs(x, x, 1)
    return best


def brute_closure(rel, n: int) -> frozenset:
    """Floyd-Warshall reachability."""
    reach = [[False] * n for _ in range(n)]
    for x, y in rel:
        reach[x][y] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return frozenset((i, j) for i in range(n) for j in range(n) if reach[i][j])


def brute_is_poset(graph: RNGraph) -> bool:
    """Every forward pair in R or N, and R equal to its Floyd-Warshall closure."""
    pairs = {(graph.order[i], graph.order[j]) for j in range(graph.n) for i in range(j)}
    complete = pairs == set(graph.R) | set(graph.N)
    return complete and brute_closure(graph.R, graph.n) == graph.R


def brute_arrow(target, Q, P, r: int) -> bool:
    """Exhaust every r-coloring of the P-copies; feasible only for tiny instances."""
    from rnramsey import find_monochromatic

    p_copies = enumerate_copies(P, target)
    if not enumerate_copies(Q, target):
        return False
    for colors in itertools.product(range(r), repeat=len(p_copies)):
        coloring = make_coloring(p_copies, list(colors), r)
        if find_monochromatic(target, coloring, Q, P) is None:
            return False
    return True


def brute_monochromatic(target, coloring: Coloring, q_images, P):
    """The first of q_images (each ascending in target order) whose P-copies, the
    copies of P in target with every vertex inside it, all share a color, else None.
    The P-copies inside an image are read off the target's own, by a subset test."""
    p_images = brute_copies(P, target)
    for image in q_images:
        if len({coloring.of(a) for a in p_images if set(a) <= set(image)}) <= 1:
            return image
    return None


def random_coloring(target, P, r: int, rng: random.Random) -> Coloring:
    """Uniform seeded coloring of the copies of P in target."""
    copies = enumerate_copies(P, target)
    return make_coloring(copies, [rng.randrange(r) for _ in copies], r)


def incidence_masks(m: int, edges) -> list[int]:
    """Per slot 0..m-1, the int mask of the edges (bit e for edges[e]) that hold it."""
    return [sum(1 << e for e, members in enumerate(edges) if i in members) for i in range(m)]


def brute_proper_coloring_exists(m: int, edges, r: int) -> bool:
    """Try every r-coloring of m slots for one that leaves no edge single-colored."""
    return any(
        all(len({colors[i] for i in e}) > 1 for e in edges)
        for colors in itertools.product(range(r), repeat=m)
    )


def brute_copies(pattern, target) -> list[tuple[int, ...]]:
    """All images of order/status-faithful injections, by trying every combination.

    Pair status is read straight off R and N here, not through the library's own
    status method, so the oracle stays independent of the code it checks.
    """

    def status(structure, x: int, y: int) -> str:
        if (x, y) in structure.R:
            return "R"
        return "N" if (x, y) in getattr(structure, "N", ()) else ""

    out = []
    src = pattern.order
    for combo in itertools.combinations(target.order, pattern.n):
        ok = True
        for i in range(pattern.n):
            for j in range(pattern.n):
                if i == j:
                    continue
                if status(pattern, src[i], src[j]) != status(target, combo[i], combo[j]):
                    ok = False
        if ok:
            out.append(tuple(combo))  # already ascending in target order
    return out


def brute_partite_copies(pattern: APartiteRNGraph, host: APartiteRNGraph) -> list[tuple[int, ...]]:
    """The images of the copies of pattern in host that keep each vertex in its part."""
    src = pattern.base.order
    return [
        image
        for image in brute_copies(pattern.base, host.base)
        if all(host.part_of[w] == pattern.part_of[v] for v, w in zip(src, image))
    ]


def brute_partite_arrow(
    host: APartiteRNGraph, pattern: APartiteRNGraph, r: int, family=None
) -> bool:
    """Whether every r-coloring of the template copies in host leaves some member of
    the family (default: every part-keeping copy of pattern) with all the template
    copies inside its image one color.  A member is given as a Copy and must be a
    part-keeping copy; the template copies inside it are those whose vertex set lies
    within its image, read off the host alone."""
    copies = brute_partite_copies(pattern, host)
    members = copies if family is None else [c.image for c in family]
    strays = set(members) - set(copies)
    if strays:
        raise ValueError(f"family members {sorted(strays)} are no part-keeping copies")
    a_copies = brute_copies(host.A, host.base)
    inside = [[i for i, a in enumerate(a_copies) if set(a) <= set(m)] for m in members]
    return all(
        any(len({colors[i] for i in held}) <= 1 for held in inside)
        for colors in itertools.product(range(r), repeat=len(a_copies))
    )


def reference_local_search(inc: list[int], n_edges: int, r: int):
    """The walk (arrow._local_search) as it stood before its flips were made cheaper,
    kept verbatim as a frozen reference for its whole yielded sequence.

    Yields an assignment of slots 0..len(inc)-1 with no monochromatic edge if it finds
    one, and ends when it gives up, which proves nothing; r >= 2.  WalkSAT with the
    Selman-Kautz-Cohen rule: take a random monochromatic edge; make a move of a member
    that breaks no other edge (makes it monochromatic) if there is one, else with
    probability _WALK_NOISE a random move, else one that breaks the fewest, ties at
    random.  Try t draws from Random(_WALK_SEED + t) and makes _WALK_FLIPS_PER_EDGE *
    n_edges flips, pausing (yielding None) before flips 0, _CLOCK_EVERY, ...  count[c][e]
    counts the members of edge e with color c; near[c] masks the edges with all members
    but one of color c, so recoloring slot i to c breaks the edges of inc[i] & near[c].
    A flip scans the moves (the edge's members, then colors ascending), one tie-break
    draw each, and keeps the first with the least (breaks, draw); only a noise move
    lists them.
    """
    members: list[list[int]] = [[] for _ in range(n_edges)]
    for i, mask in enumerate(inc):
        for e in _positions(mask):
            members[e].append(i)
    if any(len(slots) < 2 for slots in members):
        return  # a one-member edge is monochromatic under every coloring
    need = [len(slots) - 1 for slots in members]
    edges_of = [[(e, need[e], 1 << e) for e in _positions(mask)] for mask in inc]
    others = [[c for c in range(r) if c != a] for a in range(r)]
    for t in range(_WALK_TRIES):
        draw = random.Random(_WALK_SEED + t).random  # picks seq[int(draw() * len(seq))]
        colors = [int(draw() * r) for _ in inc]
        count = [[sum(colors[i] == c for i in slots) for slots in members] for c in range(r)]
        near = [sum(1 << e for e in range(n_edges) if row[e] == need[e]) for row in count]
        mono = [e for e in range(n_edges) if any(row[e] > need[e] for row in count)]
        where = [0] * n_edges  # position of each edge of mono in mono
        for j, e in enumerate(mono):
            where[e] = j
        for flip in range(_WALK_FLIPS_PER_EDGE * n_edges):
            if not mono:
                break
            if flip % _CLOCK_EVERY == 0:
                yield None
            slots = members[mono[int(draw() * len(mono))]]
            least = n_edges + 1
            for j in slots:  # moves in order, each with its tie-break draw
                mask = inc[j]
                for k in others[colors[j]]:
                    breaks, tie = (mask & near[k]).bit_count(), draw()
                    if breaks < least or breaks == least and tie < first:
                        least, first, i, c = breaks, tie, j, k
            if least and draw() < _WALK_NOISE:
                moves = [(j, k) for j in slots for k in others[colors[j]]]
                i, c = moves[int(draw() * len(moves))]
            a = colors[i]
            old, new, near_a, near_c = count[a], count[c], near[a], near[c]
            for e, top, bit in edges_of[i]:
                x, y = old[e], new[e]
                if x >= top:  # e leaves near[a], or was monochromatic in a and enters it
                    near_a ^= bit
                    if x > top:  # swap the last of mono into e's place
                        last = mono.pop()
                        if last != e:
                            mono[where[e]], where[last] = last, where[e]
                if y >= top - 1:  # e enters or leaves near[c]; y never exceeds top
                    near_c ^= bit
                    if y == top:  # e becomes monochromatic in c
                        where[e] = len(mono)
                        mono.append(e)
                old[e], new[e] = x - 1, y + 1
            near[a], near[c] = near_a, near_c
            colors[i] = c
        if not mono:
            yield colors
            return
