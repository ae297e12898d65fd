"""Relational analysis: quasicycle search, closure, path length, homomorphism checks.

A bad quasicycle of length j >= 2 in an RN graph is an R-path x_1, ..., x_j together with
(x_1, x_j) in N.  Disjointness rules out j = 2, so every valid graph is clean up to
length 2.  A graph with no bad quasicycle of any length is called good; equivalently the
transitive closure of R misses N entirely.
"""

from __future__ import annotations

from collections import deque

from .structures import Homomorphism, Pair, RNGraph


class CycleDetected(ValueError):
    pass


def find_bad_quasicycle(graph: RNGraph, max_len: int | None = None) -> tuple[int, ...] | None:
    """Vertex sequence x_1, ..., x_j of a shortest bad quasicycle (consecutive pairs in
    R, (x_1, x_j) in N) of length j <= max_len, or None.

    Ties between equal-length witnesses break to the lexicographically least vertex
    sequence, so the result is deterministic.
    """
    if max_len is not None and max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len}")
    adj: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    radj: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for x, y in graph.R:
        adj[x].append(y)
        radj[y].append(x)

    best: tuple[int, tuple[int, ...]] | None = None
    for s, t in sorted(graph.N):
        # shortest R-path s -> t: BFS from t over reversed edges gives exact distances,
        # then a greedy smallest-vertex walk from s reconstructs the least witness
        dist = {t: 0}
        queue = deque([t])
        while queue:
            v = queue.popleft()
            for u in radj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if s not in dist:
            continue
        length = dist[s] + 1
        if max_len is not None and length > max_len:
            continue
        path = [s]
        cur = s
        while cur != t:
            cur = min(u for u in adj[cur] if dist.get(u) == dist[cur] - 1)
            path.append(cur)
        candidate = (length, tuple(path))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        return None
    return best[1]


def is_ell_rn(graph: RNGraph, ell: int) -> bool:
    """No bad quasicycle of length 2..ell.  ell = 2 always holds."""
    if ell < 2:
        raise ValueError(f"ell must be at least 2, got {ell}")
    return find_bad_quasicycle(graph, max_len=ell) is None


def is_good(graph: RNGraph) -> bool:
    """No bad quasicycle of any length: transitive_closure(R) does not meet N."""
    closure = transitive_closure(graph.R, graph.n)
    return not (closure & graph.N)


def transitive_closure(rel: frozenset[Pair], n: int) -> frozenset[Pair]:
    """Reachability closure of an acyclic relation; raises CycleDetected otherwise."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in rel:
        succ[x].append(y)
        indeg[y] += 1
    topo = [v for v in range(n) if indeg[v] == 0]
    head = 0
    while head < len(topo):
        v = topo[head]
        head += 1
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                topo.append(u)
    if len(topo) < n:
        stuck = min(v for v in range(n) if indeg[v] > 0)
        raise CycleDetected("relation contains a cycle through vertex", stuck)
    # reach[v] as a bitmask, filled in reverse topological order
    reach = [0] * n
    for v in reversed(topo):
        mask = 0
        for u in succ[v]:
            mask |= reach[u] | (1 << u)
        reach[v] = mask
    closed = set()
    for v in range(n):
        mask = reach[v]
        while mask:
            low = mask & -mask
            closed.add((v, low.bit_length() - 1))
            mask ^= low
    return frozenset(closed)


def longest_r_path_vertices(graph: RNGraph) -> int:
    """Number of vertices on a longest R-path (a single vertex counts as 1)."""
    if graph.n == 0:
        return 0
    succ: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for x, y in graph.R:
        succ[x].append(y)
    best = [1] * graph.n
    # R points forward along the order, so scanning positions right to left is topological
    for v in reversed(graph.order):
        for u in succ[v]:
            if best[u] + 1 > best[v]:
                best[v] = best[u] + 1
    return max(best)


def check_homomorphism(h: Homomorphism) -> bool:
    """Forward preservation: R pairs land in R, N pairs land in N.

    Nothing is required of non-pairs or of the linear orders.  The collapse maps are
    weakly monotone by construction: check_partition makes each part the next rank block.
    """
    src, tgt = h.source, h.target
    if len(h.map) != src.n:
        return False
    if any(not (0 <= v < tgt.n) for v in h.map):
        return False
    for x, y in src.R:
        if (h.map[x], h.map[y]) not in tgt.R:
            return False
    for x, y in src.N:
        if (h.map[x], h.map[y]) not in tgt.N:
            return False
    return True


def identity_homomorphism(graph) -> Homomorphism:
    return Homomorphism(tuple(range(graph.n)), graph, graph)


def compose_homomorphisms(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """outer after inner; inner's target must be outer's source."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("homomorphisms do not compose: target/source mismatch")
    return Homomorphism(tuple(outer.map[v] for v in inner.map), inner.source, outer.target)
