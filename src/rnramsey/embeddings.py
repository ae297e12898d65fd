"""Order-respecting embeddings and copy enumeration.

An embedding preserves and reflects every relation and the linear order, so a copy is
identified with its image set: the increasing image sequence determines the map.
Enumeration is deterministic, ascending in the lexicographic order of image position
tuples.
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
    for i in range(pattern.n):
        for j in range(pattern.n):
            if i == j:
                continue
            # pairwise status must match exactly, both relation and order
            if pattern.status(i, j) != target.status(m[i], m[j]):
                return False
            if pattern.before(i, j) != target.before(m[i], m[j]):
                return False
    return True


def iter_copies(pattern, target):
    """Yield copies of pattern in target, lexicographically by image position tuple."""
    _compatible_kinds(pattern, target)
    k, n = pattern.n, target.n
    if k == 0:
        yield Copy((), ())
        return
    if k > n:
        return
    src = pattern.order  # source vertices, ascending in pattern order
    tgt = target.order
    chosen: list[int] = []  # target positions, strictly increasing

    def fits(pos: int) -> bool:
        v = tgt[pos]
        for i, p in enumerate(chosen):
            u = tgt[p]
            if pattern.status(src[i], src[len(chosen)]) != target.status(u, v):
                return False
        return True

    def emit() -> Copy:
        image = tuple(tgt[p] for p in chosen)
        vmap = [0] * k
        for i, v in enumerate(image):
            vmap[src[i]] = v
        return Copy(image, tuple(vmap))

    stack = [0]
    while stack:
        pos = stack[-1]
        limit = n - (k - len(chosen) - 1)
        if pos >= limit:
            stack.pop()
            if chosen:
                stack[-1] = chosen.pop() + 1
            continue
        if fits(pos):
            chosen.append(pos)
            if len(chosen) == k:
                yield emit()
                stack[-1] = chosen.pop() + 1
            else:
                stack.append(pos + 1)
        else:
            stack[-1] = pos + 1


def enumerate_copies(pattern, target, limit: int | None = None) -> list[Copy]:
    """All copies of pattern in target, in deterministic enumeration order.

    `limit` caps the count; exceeding it raises ResourceExceeded.
    """
    out: list[Copy] = []
    for copy in iter_copies(pattern, target):
        out.append(copy)
        if limit is not None and len(out) > limit:
            raise ResourceExceeded(
                f"more than {limit} copies of a {pattern.n}-vertex pattern in a "
                f"{target.n}-vertex target"
            )
    return out
