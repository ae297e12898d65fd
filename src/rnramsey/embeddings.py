"""Order-respecting embeddings and copy enumeration.

An embedding preserves and reflects every relation and the linear order, so a copy is
identified with its image set: the increasing image sequence determines the map.
Enumeration is deterministic, ascending in the lexicographic order of image position
tuples.  One enumerator (iter_copies) yields each copy as those positions, its image's
target ranks; enumerate_copies lists the same copies as Copy objects, and callers that
need only image masks read the ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structures import OrderedPoset, RNGraph


class ResourceExceeded(RuntimeError):
    """A configured node, copy, size or time budget ran out; the verdict is unknown."""


@dataclass(frozen=True)
class Copy:
    """Embedded copy of a pattern in a target; image is listed in target order."""

    image: tuple[int, ...]
    map: tuple[int, ...]


def _compatible_kinds(pattern, target) -> None:
    both_rn = isinstance(pattern, RNGraph) and isinstance(target, RNGraph)
    both_poset = isinstance(pattern, OrderedPoset) and isinstance(target, OrderedPoset)
    if not (both_rn or both_poset):
        raise TypeError("pattern and target must both be posets or both be RN graphs")


def is_embedding(vertex_map, pattern, target) -> bool:
    """Injective, order-biconditional, and relation-biconditional on every pair."""
    _compatible_kinds(pattern, target)
    m = tuple(vertex_map)
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not (0 <= v < target.n) for v in m):
        return False
    # Both orders are total, so the order biconditional is: target ranks increase
    # along the pattern order.
    rank = target.rank
    ranks = [rank[m[v]] for v in pattern.order]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        return False
    # Relation biconditional: each mapped row, cut to the image, is the pattern row
    # pushed through the map.
    image = 0
    for t in ranks:
        image |= 1 << t
    for p_rows, t_rows in zip(pattern.rows, target.rows):
        for p, row in enumerate(p_rows):
            pushed = 0
            while row:
                low = row & -row
                pushed |= 1 << ranks[low.bit_length() - 1]
                row ^= low
            if t_rows[ranks[p]] & image != pushed:
                return False
    return True


def iter_copies(pattern, target):
    """Yield each copy of pattern in target as the ascending target ranks of its
    image, lexicographically.

    The candidates for pattern position d are the AND of the chosen positions' rows of
    the kind each pair (i, d) has in the pattern, cut to the positions that leave room
    for the rest; they are walked lowest bit first.
    """
    _compatible_kinds(pattern, target)
    k, n = pattern.n, target.n
    if k == 0:
        yield ()
        return
    if k > n:
        return
    # For each pattern position d: the earlier positions that must reach it by an R,
    # an N, or by neither (an absent pair).
    p_R, p_N = pattern.rows
    needs = []
    for d in range(k):
        bit = 1 << d
        kinds = ([], [], [])
        for i in range(d):
            kinds[0 if p_R[i] & bit else 1 if p_N[i] & bit else 2].append(i)
        needs.append(kinds)
    if k > 1:  # one vertex needs no rows, and the rows cost more than its scan
        t_R, t_N = target.rows
    chosen: list[int] = []  # target positions, strictly increasing
    stack = [(1 << (n - k + 1)) - 1]  # candidates for the next pattern position
    while stack:
        cand = stack[-1]
        if not cand:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = cand & -cand
        stack[-1] = cand ^ low
        chosen.append(low.bit_length() - 1)
        d = len(chosen)
        if d == k:
            yield tuple(chosen)
            chosen.pop()
            continue
        # above the last chosen position, and at most n - (k - d)
        cand = ((1 << (n - k + d + 1)) - 1) & -(2 << chosen[-1])
        in_R, in_N, absent = needs[d]
        for i in in_R:
            cand &= t_R[chosen[i]]
        for i in in_N:
            cand &= t_N[chosen[i]]
        for i in absent:
            cand &= ~(t_R[chosen[i]] | t_N[chosen[i]])
        stack.append(cand)


def enumerate_copies(pattern, target, limit: int | None = None) -> list[Copy]:
    """All copies of pattern in target, in iter_copies' order, as Copy objects.

    `limit` caps the count; exceeding it raises ResourceExceeded.
    """
    tgt, rank = target.order, pattern.rank  # map[u] is image[rank[u]]
    out: list[Copy] = []
    for ranks in iter_copies(pattern, target):
        image = tuple([tgt[p] for p in ranks])
        out.append(Copy(image, tuple([image[i] for i in rank])))
        if limit is not None and len(out) > limit:
            raise ResourceExceeded(
                f"more than {limit} copies of a {pattern.n}-vertex pattern in a "
                f"{target.n}-vertex target"
            )
    return out
