import collections
import dataclasses
import hashlib
import inspect
import itertools
import random
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest

from rnramsey import (
    BaseOracle,
    BuildLimits,
    CertificationFailed,
    NotFoundWithinBounds,
    OracleWitness,
    ResourceExceeded,
    SearchLimits,
    antichain,
    build_tower,
    certify_witness,
    chain,
    check_arrow,
    enumerate_copies,
    find_monochromatic,
    fuse,
    load_structure,
    make_coloring,
    make_ordered_poset,
    make_rn_graph,
    oracle_ramsey,
    poset_to_complete_rn,
    save_structure,
)
from rnramsey import arrow, embeddings
from rnramsey.structures import induced_substructure
from helpers import (
    brute_arrow,
    brute_closure,
    brute_copies,
    brute_is_poset,
    brute_proper_coloring_exists,
    incidence_masks,
    random_coloring,
    random_good_complete,
    random_rn,
)

C2 = poset_to_complete_rn(chain(2))
C3 = poset_to_complete_rn(chain(3))
POINT = poset_to_complete_rn(chain(1))
A2 = poset_to_complete_rn(antichain(2))
V = poset_to_complete_rn(make_ordered_poset(3, {(0, 2), (1, 2)}))
# the private verdict takes an absolute deadline, which its searches never read
NEVER = float("inf")
MAX_COPIES = SearchLimits.max_copies


def _digest(assignment) -> str:
    return hashlib.sha256(repr(assignment).encode()).hexdigest()[:16]


def _rn_chain(k: int):
    return poset_to_complete_rn(chain(k))


def test_ordered_ramsey_three_three():
    assert check_arrow(poset_to_complete_rn(chain(6)), C3, C2, 2).holds
    verdict = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    assert not verdict.holds
    assert len(verdict.counterexample) == 10
    target = poset_to_complete_rn(chain(5))
    assert find_monochromatic(target, verdict.counterexample, C3, C2) is None


def test_agreement_with_full_enumeration():
    # exhaustive coloring oracle on every chain target up to 5 vertices
    for n in range(1, 6):
        target = poset_to_complete_rn(chain(n))
        expected = brute_arrow(target, C3, C2, 2)
        assert check_arrow(target, C3, C2, 2).holds == expected


def test_agreement_on_random_targets():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        target = random_rn(rng, 5)
        q = random_rn(rng, 3)
        p = random_rn(rng, 2)
        if len(enumerate_copies(p, target)) > 10:
            continue
        expected = brute_arrow(target, q, p, 2)
        assert check_arrow(target, q, p, 2).holds == expected
        checked += 1
    assert checked >= 40


def test_three_colors_against_enumeration():
    rng = random.Random(32)
    checked = 0
    for _ in range(40):
        target = random_rn(rng, 4)
        q = random_rn(rng, 3)
        p = random_rn(rng, 2)
        if len(enumerate_copies(p, target)) > 6:
            continue
        expected = brute_arrow(target, q, p, 3)
        assert check_arrow(target, q, p, 3).holds == expected
        checked += 1
    assert checked >= 25


def test_single_color_means_existence():
    target = poset_to_complete_rn(chain(3))
    assert check_arrow(target, C3, C2, 1).holds
    assert not check_arrow(poset_to_complete_rn(chain(2)), C3, C2, 1).holds
    with pytest.raises(ValueError):
        check_arrow(target, C3, C2, 0)


def test_no_target_copies_fails_with_zero_coloring():
    verdict = check_arrow(poset_to_complete_rn(chain(2)), C3, C2, 2)
    assert not verdict.holds
    assert all(color == 0 for _, color in verdict.counterexample.assignment)


def test_vacuous_holds_when_pattern_absent_from_copies():
    npair = make_rn_graph(2, set(), {(0, 1)})
    # chain(3) contains no N pair, so every copy of chain(2) holds vacuously
    verdict = check_arrow(C3, C2, npair, 2)
    assert verdict.holds


def test_holding_verdict_replays_under_every_coloring():
    target = poset_to_complete_rn(chain(6))
    assert check_arrow(target, C3, C2, 2).holds
    rng = random.Random(33)
    for _ in range(20):
        coloring = random_coloring(target, C2, 2, rng)
        copy = find_monochromatic(target, coloring, C3, C2)
        assert copy is not None
        inner = enumerate_copies(C2, target)
        colors = {coloring.of(c.image) for c in inner if set(c.image) <= set(copy.image)}
        assert len(colors) == 1


def test_resource_limits():
    target = poset_to_complete_rn(chain(6))
    with pytest.raises(ResourceExceeded):
        check_arrow(target, C3, C2, 2, SearchLimits(max_nodes=5))
    with pytest.raises(ResourceExceeded):
        check_arrow(target, C3, C2, 2, SearchLimits(max_copies=3))


def test_node_budget_fires_at_budget_plus_one():
    target = poset_to_complete_rn(chain(6))
    verdict = check_arrow(target, C3, C2, 2, SearchLimits(max_nodes=987))
    assert verdict.holds and verdict.nodes_explored == 987
    with pytest.raises(ResourceExceeded, match=r"node budget \(986\)"):
        check_arrow(target, C3, C2, 2, SearchLimits(max_nodes=986))


@pytest.mark.parametrize("r", [0, -1, True, 2.0, "2"])
def test_r_is_a_plain_int_of_at_least_one(r):
    # r=True once ran as r = 1 and r=2.0 died inside the search
    with pytest.raises(ValueError, match=f"r must be an int of at least 1, got {r!r}"):
        check_arrow(_rn_chain(6), C3, C2, r)


def test_memory_grows_with_the_slots_not_with_r():
    # chain(3) -> (C2)^C1 has 3 slots, so both searches take at most 3 colors, and a
    # huge r allocates nothing per color (a mask per color took 8 MB at r = 10**6); the
    # verdict, its nodes and its coloring are those at r = 3, and the coloring keeps r
    target, r = _rn_chain(3), 10**6
    small = check_arrow(target, C2, POINT, 3)
    tracemalloc.start()
    try:
        verdict = check_arrow(target, C2, POINT, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (verdict.holds, verdict.nodes_explored) == (small.holds, small.nodes_explored)
    assert verdict.counterexample.assignment == small.counterexample.assignment
    assert verdict.counterexample.r == r and small.counterexample.r == 3


def test_slot_ceiling_fires_before_any_search(monkeypatch):
    # chain(24) has 2,024 copies of C3, each inside one of its 10,626 copies of C4:
    # the 2,001st slot is met in the 1,748th, and the query is refused there, before
    # either search runs; chain(30) -> (C5)^C3 meets it in the first 1,217 of 142,506
    def no_search(*args):
        raise AssertionError("a search ran past the ceiling")

    monkeypatch.setattr(arrow, "_proper_coloring_search", no_search)
    monkeypatch.setattr(arrow, "_local_search", no_search)
    for n, q, seen, listed in ((24, 4, 1_748, 10_626), (30, 5, 1_217, 142_506)):
        ceiling = f"more than 2000 P-copies, the exact search ceiling, in the first {seen} "
        with pytest.raises(ResourceExceeded, match=f"^{ceiling}of {listed} Q-copies$"):
            check_arrow(_rn_chain(n), _rn_chain(q), C3, 2)
    # with no Q-copy at all the verdict still FAILS, with the all-zero coloring
    a2 = poset_to_complete_rn(antichain(2))
    verdict = check_arrow(_rn_chain(24), a2, C3, 2)
    assert not verdict.holds and len(verdict.counterexample) == 2024
    assert {color for _, color in verdict.counterexample.assignment} == {0}
    # and a Q-copy that holds no P-copy still HOLDS vacuously
    assert check_arrow(_rn_chain(24), C2, C3, 2).holds


def test_a_p_copy_in_no_q_copy_is_no_slot():
    # k isolated vertices ordered before a 3-chain: only the chain's 3 points lie in a
    # C2-copy, and those 3 slots HOLD in 5 nodes however many points come first; as
    # slots, each point in no edge would double the search once per color (20 of them
    # reach the 2,000,000-node budget), and 2,001 would pass the slot ceiling
    for k in (0, 20, 2_001):
        target = make_rn_graph(k + 3, {(k, k + 1), (k + 1, k + 2), (k, k + 2)}, ())
        verdict = check_arrow(target, C2, POINT, 2)
        assert verdict.holds and verdict.nodes_explored == 5
    # with one R pair it FAILS: the pair's points differ, and every other point takes 0
    target = make_rn_graph(2_003, {(2_001, 2_002)}, ())
    verdict = check_arrow(target, C2, POINT, 2)
    assert not verdict.holds and len(verdict.counterexample) == 2_003
    assert [color for _, color in verdict.counterexample.assignment] == [0] * 2_002 + [1]
    assert find_monochromatic(target, verdict.counterexample, C2, POINT) is None


def test_time_budget_fires():
    # the search reads the clock every 4,096 nodes; this instance needs millions
    with pytest.raises(ResourceExceeded, match="time budget after 4096 nodes"):
        check_arrow(_rn_chain(12), _rn_chain(4), C3, 2, SearchLimits(time_budget=0))


def _spy(monkeypatch, walk: bool) -> list:
    """The searches a query runs, by name in the order first stepped, and each stop the
    exact search is sent when it resumes; the walk gives up at once unless walk."""
    calls = []
    exact, local = arrow._proper_coloring_search, arrow._local_search

    def resumed(*args):
        calls.append("_proper_coloring_search")
        search = exact(*args)
        stop = yield next(search)
        while True:
            calls.append(stop)
            stop = yield search.send(stop)

    def walked(*args):
        calls.append("_local_search")
        if walk:
            yield from local(*args)

    monkeypatch.setattr(arrow, "_proper_coloring_search", resumed)
    monkeypatch.setattr(arrow, "_local_search", walked)
    return calls


@pytest.fixture
def searches(monkeypatch):
    return _spy(monkeypatch, walk=False)


def test_a_look_stopped_on_the_deadline_ends_the_query(searches):
    # the look stops on the deadline at its first pause: no walk, no more search
    with pytest.raises(ResourceExceeded, match="time budget after 4096 nodes"):
        check_arrow(_rn_chain(12), _rn_chain(4), C3, 2, SearchLimits(time_budget=0))
    assert searches == ["_proper_coloring_search"]
    # under 4,096 nodes the look pauses on the node budget, and reads the clock there
    searches.clear()
    limits = SearchLimits(max_nodes=1_000, time_budget=0)
    with pytest.raises(ResourceExceeded, match="^arrow search time budget after 1000 nodes$"):
        check_arrow(_rn_chain(12), _rn_chain(4), C3, 2, limits)
    assert searches == ["_proper_coloring_search"]
    # a look on the whole node budget still gets the walk, and then stops at once:
    # v[v[v]] -> (v)^point_3 HOLDS only after 1,041,559 nodes
    searches.clear()
    v = make_ordered_poset(3, {(0, 2), (1, 2)})
    target = poset_to_complete_rn(_lex(v, _lex(v, v)))
    with pytest.raises(ResourceExceeded, match=r"node budget \(4096\)"):
        check_arrow(target, V, POINT, 3, SearchLimits(max_nodes=4_096))
    assert searches == ["_proper_coloring_search", "_local_search"]
    # past the look's nodes the same search resumes, up to the whole budget
    searches.clear()
    with pytest.raises(ResourceExceeded, match=r"node budget \(5000\)"):
        check_arrow(target, V, POINT, 3, SearchLimits(max_nodes=5_000))
    assert searches == ["_proper_coloring_search", "_local_search", 5_000]


def test_the_search_resumes_after_the_walk(searches):
    # chain(8) -> (C3)^C2_2 has 28 slots, past the walk's gate, and HOLDS in 12,015
    # nodes: the look's 4,096 are the first of them, counted once, in one search that
    # resumes 4,096 nodes at a time
    verdict = check_arrow(_rn_chain(8), C3, C2, 2)
    assert verdict.holds and verdict.nodes_explored == 12_015
    assert searches == ["_proper_coloring_search", "_local_search", 8_192, 12_288]


def test_a_deadline_met_in_the_walk_ends_the_query(monkeypatch):
    # the walk finds chain(12) -> (C4)^C3_2 only in its 4th try, and pauses every
    # 4,096 flips before that; a clock that passes the deadline at its second pause
    # ends the query there, and the exact search, paused at 4,096 nodes, is not resumed
    searches = _spy(monkeypatch, walk=True)
    ticks = itertools.count()  # the query's start, then one tick per clock read
    monkeypatch.setattr(arrow, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(ResourceExceeded, match="^arrow search time budget after 4096 nodes$"):
        check_arrow(_rn_chain(12), _rn_chain(4), C3, 2, SearchLimits(time_budget=2))
    assert searches == ["_proper_coloring_search", "_local_search"]
    assert next(ticks) == 4  # the look's pause, then the walk's first two
    # alone, the walk pauses at flips 0, 4,096 and 8,192 of each 9,900-flip try, and
    # finds its coloring after the 11th pause, in its 4th try
    _, q_copies, inc = _hypergraph(_rn_chain(12), _rn_chain(4), C3)
    walk = arrow._local_search(inc, len(q_copies), 2)
    assert sum(1 for _ in itertools.takewhile(lambda colors: colors is None, walk)) == 11


def _searched(slots, edges) -> tuple[list, list]:
    """_verdict's view of a hypergraph (_hypergraph's slots and edges): the slots
    ascending, and per slot the mask of the edges that hold it, as _verdict hands them
    to the exact search."""
    seen = []

    def search(inc, n_edges, r, stop):
        seen.append(inc)
        yield [0] * len(inc), 0

    with mock.patch.object(arrow, "_proper_coloring_search", search):
        order, _, _ = arrow._verdict(1, slots, edges, 0, NEVER)
    return order, seen[0] if seen else []


def _hypergraph(target, Q, P):
    """The P-copies and Q-copies of target, with check_arrow's masks of the edges that
    hold each P-copy: on the chains here every P-copy is a slot, in enumeration order."""
    p_copies = enumerate_copies(P, target)
    q_copies = arrow._e_copies(target, Q, MAX_COPIES)
    slots, inc = _searched(*arrow._hypergraph(q_copies, arrow._ranked(P, Q)))
    assert slots == [c.image for c in p_copies]
    return p_copies, q_copies, inc


def _run(search):
    """A search run to its end as _verdict runs it, with no clock and no node budget:
    each pause is sent a stop _CLOCK_EVERY nodes past the last, which the walk ignores.
    The exact search's (colors or None, nodes), the walk's coloring, or None when the
    walk gives up."""
    stop = 0
    try:
        answer = next(search)
        while answer is None:
            stop += arrow._CLOCK_EVERY
            answer = search.send(stop)
    except StopIteration:  # only the walk ends without an answer
        return None
    return answer


def _exact(inc, n_edges: int, r: int):
    """The exact search alone, run to its end from a pause before its first node."""
    return _run(arrow._proper_coloring_search(inc, n_edges, r, 0))


def _walk(inc, n_edges: int, r: int):
    """The walk alone, run to its end: its coloring, or None when it gives up."""
    return _run(arrow._local_search(inc, n_edges, r))


def _search(n: int, q: int, p: int, r: int):
    """The exact search alone on chain(n) -> (chain(q))^chain(p)_r, with no local search."""
    p_copies, q_copies, inc = _hypergraph(*(_rn_chain(k) for k in (n, q, p)))
    assignment, nodes = _exact(inc, len(q_copies), r)
    coloring = None if assignment is None else make_coloring(p_copies, assignment, r)
    return coloring, nodes


@pytest.mark.parametrize(
    "n, q, p, r, holds, nodes, digest",
    [
        (13, 5, 1, 3, True, 36_755, None),
        (6, 3, 2, 2, True, 987, None),
        (5, 3, 2, 2, False, 67, "b3ef70c8cf145198"),
        # past 16 slots the exact search looks first: it settles this one itself
        (7, 3, 2, 3, False, 1_353, "a2b076e11fd77138"),
        # its 4,096-node look leaves these open and the walk finds them, with 0 nodes
        # behind the verdict; alone, the exact search takes 12,458 nodes on the first
        # and stops at its node budget on the last two (R^(3)(4,4) = 13, R(4,4) = 18)
        (9, 4, 2, 2, False, 0, "6ea96ac5be05f671"),
        (12, 4, 3, 2, False, 0, "0ef0b66c9e42ebf7"),
        (17, 4, 2, 2, False, 0, "1898b1eba0939dbc"),
    ],
)
def test_search_tree_is_pinned(n, q, p, r, holds, nodes, digest):
    """Node counts and counterexample bytes are part of the contract: a change to the
    search's state that keeps its branch order keeps every one of these, and a change
    to the local search's moves or seeds moves only the digests with 0 nodes."""
    target, Q, P = _rn_chain(n), _rn_chain(q), _rn_chain(p)
    verdict = check_arrow(target, Q, P, r)
    assert (verdict.holds, verdict.nodes_explored) == (holds, nodes)
    if digest is not None:
        assert _digest(verdict.counterexample.assignment) == digest
        assert find_monochromatic(target, verdict.counterexample, Q, P) is None


def _lex(X, Y):
    """The lexicographic product X[Y] of two posets on the identity order: vertex
    (x, y) is x * Y.n + y, and lies below (x', y') when x < x', or x = x' and y < y'."""
    k = Y.n
    R = {(x * k + a, y * k + b) for x, y in X.R for a in range(k) for b in range(k)}
    R |= {(x * k + a, x * k + b) for x in range(X.n) for a, b in Y.R}
    return make_ordered_poset(X.n * k, R)


def test_exact_search_looks_before_the_walk(monkeypatch):
    # v[v[v]] -> (v)^point_2 has 27 slots, past the walk's gate, and HOLDS in 85 nodes:
    # the exact search's first look settles it, and the walk never runs
    searches = _spy(monkeypatch, walk=False)
    v = make_ordered_poset(3, {(0, 2), (1, 2)})
    target = poset_to_complete_rn(_lex(v, _lex(v, v)))
    verdict = check_arrow(target, V, POINT, 2)
    assert verdict.holds and verdict.nodes_explored == 85
    assert searches == ["_proper_coloring_search"]
    monkeypatch.undo()
    # a FAILS the walk finds is found under any node budget, the look's included
    for max_nodes in (0, 1, 4_096, 12_457, 10**6):
        verdict = check_arrow(_rn_chain(9), _rn_chain(4), C2, 2, SearchLimits(max_nodes))
        assert (verdict.holds, verdict.nodes_explored) == (False, 0)
        assert _digest(verdict.counterexample.assignment) == "6ea96ac5be05f671"
    # and the look never outruns the node budget: the exact search alone settles
    # chain(7) -> (C3)^C2_3 in 1,353 nodes, so under 1,000 the walk's coloring answers
    verdict = check_arrow(_rn_chain(7), C3, C2, 3, SearchLimits(max_nodes=1_000))
    assert (verdict.holds, verdict.nodes_explored) == (False, 0)
    assert _digest(verdict.counterexample.assignment) == "60671a6a66e902c5"


def test_search_alone_is_pinned():
    coloring, nodes = _search(9, 4, 2, 2)
    assert nodes == 12_458 and _digest(coloring.assignment) == "0358cf21313df96b"
    coloring, nodes = _search(7, 3, 2, 3)
    assert nodes == 1_353 and _digest(coloring.assignment) == "a2b076e11fd77138"


def test_search_agrees_with_brute_force():
    rng = random.Random(2024)
    outcomes = set()
    searched = []
    for _ in range(300):
        m = rng.randint(1, 10)
        r = rng.choice((1, 2, 3))
        edges = [
            frozenset(rng.sample(range(m), rng.randint(1, min(4, m))))
            for _ in range(rng.randint(0, 12))
        ]
        inc = incidence_masks(m, edges)
        assignment, nodes = _exact(inc, len(edges), r)
        searched.append((nodes, assignment))
        expected = brute_proper_coloring_exists(m, edges, r)
        assert (assignment is not None) == expected
        if assignment is not None:
            assert len(assignment) == m and all(0 <= c < r for c in assignment)
            assert all(len({assignment[i] for i in e}) > 1 for e in edges)
        outcomes.add((r, expected))
    assert outcomes == {(1, True), (1, False), (2, True), (2, False), (3, True), (3, False)}
    # the search tree beyond the chain instances: node counts and colorings, pinned
    assert sum(nodes for nodes, _ in searched) == 8294
    assert _digest(searched) == "c9160118e5c4f008"


def test_local_search_agrees_with_brute_force():
    # the walk may only find colorings: None wherever none exists, a coloring with no
    # monochromatic edge whenever it returns one, and the same one on every call
    rng = random.Random(2025)
    solvable = found = 0
    walked = []
    for _ in range(300):
        m = rng.randint(1, 9)
        r = rng.choice((2, 3))
        # one-member edges only when m = 1, so most instances have a coloring
        edges = [
            frozenset(rng.sample(range(m), min(m, rng.randint(2, 4))))
            for _ in range(rng.randint(0, 14))
        ]
        inc = incidence_masks(m, edges)
        colors = _walk(inc, len(edges), r)
        assert colors == _walk(inc, len(edges), r)
        walked.append(colors)
        exists = brute_proper_coloring_exists(m, edges, r)
        solvable += exists
        if colors is None:
            continue
        assert exists and len(colors) == m and all(0 <= c < r for c in colors)
        assert all(len({colors[i] for i in e}) > 1 for e in edges)
        found += 1
    # and on instances this small it misses none: 43 of the 300 have no coloring
    assert (solvable, found) == (257, 257)
    # the walk's flips on edges of mixed sizes and at r = 3: every coloring, pinned
    assert _digest(walked) == "695c10482e20e89b"


def test_local_search_is_pinned_on_longer_walks():
    # 10 to 24 slots and up to 60 edges: walks long enough for the noise move to count,
    # where the small instances above are solved before it does; every coloring, pinned
    rng = random.Random(7)
    walked = []
    for _ in range(100):
        m = rng.randint(10, 24)
        r = rng.choice((2, 3))
        edges = [
            frozenset(rng.sample(range(m), rng.randint(2, 4)))
            for _ in range(rng.randint(0, 60))
        ]
        colors = _walk(incidence_masks(m, edges), len(edges), r)
        walked.append(colors)
        if colors is not None:
            assert all(len({colors[i] for i in e}) > 1 for e in edges)
    assert sum(colors is not None for colors in walked) == 73
    assert _digest(walked) == "58d8566d679eda9a"


def test_check_arrow_refuses_a_forged_q_copy(monkeypatch):
    # 0<1<2 with the pair (0, 2) absent holds no C3, so a forged C3-copy on all three
    # points carries C3's copy (0, 2) of C2 onto a non-copy: refused on either verdict
    target = make_rn_graph(3, {(0, 1), (1, 2)}, ())
    monkeypatch.setattr(arrow, "_e_copies", lambda graph, E, limit: [0b111])
    for r in (1, 2):  # one color HOLDS, two FAIL
        with pytest.raises(AssertionError, match=r"maps a P-copy onto non-copy \(0, 2\)$"):
            check_arrow(target, C3, C2, r)


def test_verdict_deterministic():
    a = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    b = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    assert a.counterexample == b.counterexample


def test_coloring_helpers():
    target = poset_to_complete_rn(chain(4))
    copies = enumerate_copies(C2, target)
    coloring = make_coloring(copies, list(range(len(copies))), len(copies))
    assert [coloring.of(copy.image) for copy in copies] == list(range(len(copies)))
    assert coloring.of(list(copies[2].image)) == 2
    rng1 = random_coloring(target, C2, 2, random.Random(5))
    rng2 = random_coloring(target, C2, 2, random.Random(5))
    assert rng1 == rng2 and len(rng1) == len(copies)


def test_find_monochromatic_requires_total_coloring():
    target = poset_to_complete_rn(chain(4))
    copies = enumerate_copies(C2, target)
    # drop the pair (0,1): the very first chain(3) copy must consult it
    partial = make_coloring(copies[1:], [0] * (len(copies) - 1), 2)
    with pytest.raises(ValueError):
        find_monochromatic(target, partial, C3, C2)


def test_find_monochromatic_on_posets():
    # posets take the poset branch of induced_substructure, with the same answer
    coloring = make_coloring(enumerate_copies(chain(1), chain(3)), [0, 1, 0], 2)
    assert find_monochromatic(chain(3), coloring, chain(2), chain(1)).image == (0, 2)
    rn_coloring = make_coloring(enumerate_copies(POINT, C3), [0, 1, 0], 2)
    assert find_monochromatic(C3, rn_coloring, C2, POINT).image == (0, 2)


def test_oracle_seed_families():
    oracle = BaseOracle()
    w = oracle_ramsey(oracle, POINT, C2)
    assert w == OracleWitness(poset_to_complete_rn(chain(3)), "search:chain")
    assert oracle_ramsey(oracle, POINT, POINT).graph.n == 1
    w2 = oracle_ramsey(oracle, C2, C3)
    assert w2.graph == poset_to_complete_rn(chain(6))
    edgeless = make_rn_graph(3, set(), set())
    w3 = oracle_ramsey(oracle, POINT, edgeless)
    assert w3.source == "search:pigeonhole" and w3.graph.n == 5
    # every seed has each vertex in a copy of E, so the scan never skips one as
    # uncovered and can pass over it uncounted
    for A, E in ((POINT, C2), (C2, C3), (POINT, edgeless), (POINT, POINT)):
        for F, _ in arrow._seed_candidates(A, E, 8):
            assert _covered(E, F) == set(range(F.n))


def test_every_seed_is_met_again_by_the_scan():
    # a seed is a member of its query's family, so the scan meets it (covered, as
    # above) and passes over it uncounted
    queries = [
        (POINT, C2, lambda F: not F.N),
        (C2, C3, lambda F: not F.N),
        (POINT, make_rn_graph(3, set(), set()), lambda F: not F.N),
        (POINT, POINT, lambda F: not F.N),
        (POINT, make_rn_graph(3, {(0, 2), (1, 2)}, ()), lambda F: not F.N),
        (POINT, A2, brute_is_poset),
        (C2, V, brute_is_poset),
        (A2, make_rn_graph(3, {(0, 1)}, {(0, 2), (1, 2)}), brute_is_poset),
    ]
    seeds = 0
    for A, E, member in queries:
        family = arrow._family(A, E)
        scanned = {F for _, F in _scan(E, 5, family)}
        for F, _ in arrow._seed_candidates(A, E, 5):
            assert member(F) and F in scanned
            seeds += 1
    assert seeds == 19


@pytest.mark.parametrize(
    "A, E",
    [
        (A2, make_rn_graph(2, set(), set())),  # A no chain, E not complete
        (POINT, make_rn_graph(3, {(0, 1)}, {(1, 2)})),  # E has N and an absent pair
        (POINT, make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)})),  # E complete, R not transitive
        (make_rn_graph(2, set(), set()), A2),  # A not complete
    ],
)
def test_oracle_refuses_a_query_outside_both_families(A, E):
    with pytest.raises(ValueError, match="N-free candidates .* poset candidates"):
        oracle_ramsey(BaseOracle(), A, E)


def test_oracle_enumeration_fallback():
    a2 = poset_to_complete_rn(antichain(2))
    w = oracle_ramsey(BaseOracle(), POINT, a2)
    assert w.source == "search:enumeration"
    assert w.graph.n == 3 and not w.graph.R and len(w.graph.N) == 3


def _certifications(monkeypatch) -> list:
    """Record every certification: its E-copy image masks, sorted, and its deadline."""
    calls = []
    is_witness = arrow._is_witness

    def recording(e_copies, p_in_e, deadline):
        calls.append((sorted(e_copies), deadline))
        return is_witness(e_copies, p_in_e, deadline)

    monkeypatch.setattr(arrow, "_is_witness", recording)
    return calls


def _verdicts(monkeypatch) -> list:
    """Record every run of _verdict by its number of edges (Q-copies)."""
    runs = []
    verdict = arrow._verdict

    def recording(r, slots, edges, max_nodes, deadline):
        runs.append(len(edges))
        return verdict(r, slots, edges, max_nodes, deadline)

    monkeypatch.setattr(arrow, "_verdict", recording)
    return runs


def _covered(E, F) -> set:
    """The vertices of F that lie in some copy of E, by brute force."""
    return {v for image in brute_copies(E, F) for v in image}


def _masks(E, F) -> list:
    """The image masks of the copies of E in F (bit p for F's p-th vertex), by brute
    force, sorted."""
    return sorted(sum(1 << F.rank[v] for v in image) for image in brute_copies(E, F))


def _certified(A, E, size_bound: int, calls: list) -> list:
    """The candidates of the reference loop (_met) that reach certification, as many
    as there were calls, each checked against its call: the call got the candidate's
    E-copies, those brute force lists."""
    met = (F for _, F, _ in _met(A, E, size_bound) if F is not None)
    certified = list(itertools.islice(met, len(calls)))
    assert [masks for masks, _ in calls] == [_masks(E, F) for F in certified]
    return certified


def test_oracle_tries_each_candidate_once(monkeypatch):
    # the identity seed (the antichain itself) comes round again in the enumeration;
    # each certification is handed one candidate's E-copies
    calls = _certifications(monkeypatch)
    w = oracle_ramsey(BaseOracle(), POINT, A2)
    assert w.source == "search:enumeration" and w.graph.n == 3
    certified = _certified(POINT, A2, w.graph.n, calls)
    assert certified[0] == A2 and certified[-1] == w.graph
    assert len(certified) == len(set(certified)) == len(calls) == 5
    # only posets with every vertex in a copy of E reach certification
    for F in certified:
        assert brute_is_poset(F) and _covered(A2, F) == set(range(F.n))
    # the budget counts every candidate met, certified or skipped, but not the seed
    # met again: the seed, the other poset of size 2 and the 7 of size 3, the last of
    # which, the antichain, is the witness; the scan starts at |E| = 2 vertices
    assert oracle_ramsey(BaseOracle(candidate_budget=9), POINT, A2) == w
    with pytest.raises(ResourceExceeded):
        oracle_ramsey(BaseOracle(candidate_budget=8), POINT, A2)


def test_oracle_time_bound_caps_each_certification(monkeypatch):
    # one deadline per query, fixed before the scan at the oracle's time bound: every
    # certification stops on it, so none can outrun --oracle-time-bound
    calls = _certifications(monkeypatch)
    monkeypatch.setattr(arrow, "time", SimpleNamespace(monotonic=lambda: 100.0))
    oracle_ramsey(BaseOracle(time_bound=7.5), POINT, poset_to_complete_rn(antichain(2)))
    assert [deadline for _, deadline in calls] == [107.5] * 5


def test_oracle_certifies_a_pinned_number_of_candidates(monkeypatch):
    # the tower point v query: a deterministic count of the filter's work, which a
    # timing could hide; the witness is a 6-vertex poset, and 324 prefixes are grown
    calls = _certifications(monkeypatch)
    runs = _verdicts(monkeypatch)
    grown = _grown(monkeypatch)
    w = oracle_ramsey(BaseOracle(), POINT, V)
    assert w.source == "search:enumeration" and w.graph.n == 6 and brute_is_poset(w.graph)
    assert sum(1 for _, cols, _, _ in grown if cols) == 324
    assert sorted(w.graph.R) == [
        (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)
    ]
    certified = _certified(POINT, V, w.graph.n, calls)
    assert len(certified) == len(calls) == 775
    # the look refutes each of the 774 rejected candidates, so _verdict runs on the
    # witness alone (775 runs with no look)
    assert len(runs) == 1
    assert certified[0] == V and certified[-1] == w.graph
    # 3,765 candidates are met up to the witness, none below |V| = 3 vertices; the
    # budget stop names how far the scan got
    assert oracle_ramsey(BaseOracle(candidate_budget=3765), POINT, V) == w
    with pytest.raises(
        ResourceExceeded,
        match=r"^candidate budget \(3764\) exhausted at size 6: 774 certified, "
        r"2990 skipped by the minimal-witness lemma$",
    ):
        oracle_ramsey(BaseOracle(candidate_budget=3764), POINT, V)


def _looks(monkeypatch) -> list:
    """Record every certification as (its E-copy image masks, sorted, its route): the
    E-copies in the order given, what the look returned (False when it did not run),
    the _verdict runs and the last one's result, and whether it holds."""
    calls = []
    is_witness, extend, verdict = arrow._is_witness, arrow._extend, arrow._verdict

    def certifying(e_copies, p_in_e, deadline):
        route = SimpleNamespace(e_copies=list(e_copies), looked=False, verdicts=0)
        calls.append((sorted(e_copies), route))
        route.holds = is_witness(e_copies, p_in_e, deadline)
        return route.holds

    def looking(edges):
        calls[-1][1].looked = found = extend(edges)
        return found

    def deciding(*args):
        route = calls[-1][1]
        route.verdicts += 1
        route.verdict = verdict(*args)
        return route.verdict

    monkeypatch.setattr(arrow, "_is_witness", certifying)
    monkeypatch.setattr(arrow, "_extend", looking)
    monkeypatch.setattr(arrow, "_verdict", deciding)
    return calls


def _look_colors(A, E, F, e_copies, found) -> dict:
    """The color, per A-copy of F (brute force's image), that the look's coloring found
    = (red, blue) gives, 0 where it leaves a slot free, checked by brute force: every
    E-copy of F holds A-copies of both colors.  A slot is numbered as the look numbers
    it: by its position for a one-vertex A, else in the order first met over e_copies."""
    red, blue = found
    assert not red & blue
    numbers = {}
    for image in e_copies:
        at = arrow._positions(image)
        for c in arrow._ranked(A, E):
            numbers.setdefault(frozenset(at[u] for u in c), len(numbers))
    colors = {}
    for c in brute_copies(A, F):
        ranks = frozenset(F.rank[v] for v in c)
        number = min(ranks) if A.n == 1 else numbers.get(ranks)
        colors[c] = 0 if number is None else blue >> number & 1
    for q in brute_copies(E, F):
        assert {colors[c] for c in colors if set(c) <= set(q)} == {0, 1}
    return colors


def test_extend_agrees_with_brute_force():
    # the look against every coloring of the slots, on random slot masks: it finds a
    # coloring that gives every edge both colors exactly when one exists, and what it
    # finds is one
    rng = random.Random(41)
    found = {True: 0, False: 0}
    for _ in range(600):
        k = rng.randint(1, 8)
        edges = [rng.randint(1, (1 << k) - 1) for _ in range(rng.randint(1, 8))]
        exists = any(all(m & ~blue and m & blue for m in edges) for blue in range(1 << k))
        grown = arrow._extend(edges)
        assert (grown is not None) == exists
        found[exists] += 1
        if grown:
            red, blue = grown
            assert not red & blue and all(m & red and m & blue for m in edges)
    assert min(found.values()) >= 150
    # past _CLOCK_EVERY edges examined it gives up, though this one has a coloring: an
    # edge {24, 25} that colors slot 24 red first, 12 pairs of slots, each a 2-slot edge,
    # then an edge from each even slot to slot 24, which the depth-first order colors
    # red first; the same edges in another order are colored at once
    pairs = [0b11 << 2 * i for i in range(12)]
    evens = [1 << 2 * i | 1 << 24 for i in range(12)]
    assert arrow._extend([0b11 << 24] + pairs + evens) is None
    red, blue = arrow._extend(evens + pairs + [0b11 << 24])
    assert all(m & red and m & blue for m in pairs + evens + [0b11 << 24])


class _Handed:
    """A sequence that counts the items it hands out, by iteration or by index."""

    def __init__(self, items: list):
        self.items, self.handed = items, 0

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        self.handed += 1
        return self.items[i]

    def __iter__(self):
        for item in self.items:
            self.handed += 1
            yield item


def test_a_look_examines_at_most_clock_every_edges(monkeypatch):
    # 20,000 edges with no coloring that gives each both colors, the last having one
    # member: 14 pairs of slots, then copies of the first pair.  Each node past the
    # pairs would scan them all, but the look hands over _CLOCK_EVERY edges in all and
    # gives up, and it reads no clock
    monkeypatch.setattr(arrow, "time", None)
    pairs = [0b11 << 2 * i for i in range(14)]
    edges = _Handed(pairs + [0b11] * (20_000 - 15) + [1 << 28])
    assert len(edges) == 20_000
    assert arrow._extend(edges) is None
    assert edges.handed == arrow._CLOCK_EVERY


def test_extensions_are_counterexamples(monkeypatch):
    # on random small queries of both families, with |A| 1 and 2, every candidate the
    # look refutes has, by brute force, no E-copy whose A-copies share one color under
    # its coloring; a look that finds nothing goes on to _verdict
    calls = _looks(monkeypatch)
    rng = random.Random(42)
    refuted = collections.Counter()
    for family in ("N-free", "poset") * 20:
        E = None
        while E is None or E.n < 3:
            E = fuse(random_rn(rng, 3)) if family == "N-free" else random_good_complete(rng, 3)
        A = rng.choice((POINT, C2) if family == "N-free" else (POINT, C2, A2))
        calls.clear()
        try:
            oracle_ramsey(BaseOracle(size_bound=6, candidate_budget=400), A, E)
        except ValueError:
            continue  # a query in neither family
        except ResourceExceeded:
            pass
        for F, (_, route) in zip(_certified(A, E, 6, calls), calls):
            assert route.verdicts == (not route.looked)
            if route.looked:
                assert not route.holds
                _look_colors(A, E, F, route.e_copies, route.looked)
            refuted[family, A.n, bool(route.looked)] += 1
    looked = {key[:2]: count for key, count in refuted.items() if key[2]}
    assert len(looked) == 4 and min(looked.values()) >= 50


def test_a_failed_extension_falls_back_to_the_verdict(monkeypatch):
    # 2-chain over the 4-chain: the 8-vertex chain seed, 28 slots in 70 edges, has a
    # counterexample (it takes 18 vertices for every 2-coloring of the pairs to make a
    # 4-set in one color) that the look does not find within its cap; _verdict finds
    # one, which leaves no E-copy in one color by brute force
    C4, F = poset_to_complete_rn(chain(4)), poset_to_complete_rn(chain(8))
    e_copies, p_in_e = arrow._e_copies(F, C4, MAX_COPIES), arrow._ranked(C2, C4)
    calls = _looks(monkeypatch)
    assert not arrow._is_witness(e_copies, p_in_e, NEVER)
    (_, route), = calls
    assert route.looked is None and route.verdicts == 1 and not route.holds
    slots, colors, _ = route.verdict
    color = dict(zip(slots, colors))
    for q in brute_copies(C4, F):
        assert {color[pair] for pair in itertools.combinations(q, 2)} == {0, 1}
    # the miss is the cap's: with room for 100,000 edges the look finds a coloring
    monkeypatch.setattr(arrow, "_CLOCK_EVERY", 100_000)
    assert not arrow._is_witness(e_copies, p_in_e, NEVER)
    _look_colors(C2, C4, F, e_copies, calls[-1][1].looked)
    assert calls[-1][1].verdicts == 0


@pytest.mark.parametrize(
    "A, E",
    [
        (POINT, A2),  # posets
        (C2, make_rn_graph(3, {(0, 1), (0, 2)}, ())),  # N-free graphs
    ],
)
def test_a_holding_sibling_follows_rejected_ones(monkeypatch, A, E):
    # the witness is certified right after a sibling (the same columns but the last)
    # that the look refuted; its own look finds nothing, and HOLDS comes from
    # _verdict's exhaustion
    calls = _looks(monkeypatch)
    w = oracle_ramsey(BaseOracle(), A, E)
    certified = _certified(A, E, w.graph.n, calls)
    (_, before), (_, last) = calls[-2:]
    assert certified[-1] == w.graph and brute_arrow(w.graph, E, A, 2)
    assert before.looked and not before.holds and before.verdicts == 0
    assert last.looked is None and last.verdicts == 1 and last.holds
    F, G = certified[-2:]
    assert F.n == G.n and {p for p in F.R | F.N if p[1] < F.n - 1} == {
        p for p in G.R | G.N if p[1] < G.n - 1
    }


@pytest.mark.parametrize(
    "ceiling, stop",
    [(9, "in the first 3 of 5 Q-copies"), (13, "in the first 5 of 9 Q-copies")],
)
def test_a_sibling_past_the_slot_ceiling_is_refused_as_before(monkeypatch, ceiling, stop):
    # 2-antichain over the 4-antichain under a lowered slot ceiling: _hypergraph
    # refuses the first candidate with more slots, before the look and _verdict run
    # on it, as it does with no look at all
    E = poset_to_complete_rn(antichain(4))
    monkeypatch.setattr(arrow, "_SLOT_CEILING", ceiling)
    text = f"^more than {ceiling} P-copies, the exact search ceiling, {stop}$"
    calls = _looks(monkeypatch)
    with pytest.raises(ResourceExceeded, match=text):
        oracle_ramsey(BaseOracle(candidate_budget=3000), A2, E)
    assert calls[-1][1].looked is False and calls[-1][1].verdicts == 0
    looked = sum(route.looked is not False for _, route in calls)
    monkeypatch.setattr(arrow, "_extend", lambda edges: None)
    with pytest.raises(ResourceExceeded, match=text):
        oracle_ramsey(BaseOracle(candidate_budget=3000), A2, E)
    assert looked >= 1


def test_a_look_leaves_a_graph_past_the_ceiling_to_the_verdict(monkeypatch):
    # with a one-vertex A a slot is a vertex: the 4-antichain over the 3-antichain has a
    # counterexample the look finds (two vertices of each color), but under a ceiling of
    # 3 _hypergraph refuses its 4 slots before the look, as it does with no look
    A3, F = (poset_to_complete_rn(antichain(k)) for k in (3, 4))
    e_copies, p_in_e = arrow._e_copies(F, A3, MAX_COPIES), arrow._ranked(POINT, A3)
    slots, edges = arrow._hypergraph(e_copies, p_in_e)
    assert (slots, edges) == (0b1111, e_copies) and arrow._extend(edges)
    monkeypatch.setattr(arrow, "_SLOT_CEILING", 3)
    text = "^more than 3 P-copies, the exact search ceiling, in the first 2 of 4 Q-copies$"
    with pytest.raises(ResourceExceeded, match=text):
        arrow._hypergraph(e_copies, p_in_e)
    calls = _looks(monkeypatch)
    with pytest.raises(ResourceExceeded, match=text):
        certify_witness(F, POINT, A3)
    assert calls[-1][1].looked is False and calls[-1][1].verdicts == 0


def test_one_hypergraph_per_query(monkeypatch):
    # check_arrow and every certification build their hypergraph once, the latter also
    # when the look misses and _verdict decides on it
    built = []
    build = arrow._hypergraph

    def counting(q_copies, p_in_q):
        built.append(len(q_copies))
        return build(q_copies, p_in_q)

    monkeypatch.setattr(arrow, "_hypergraph", counting)
    assert check_arrow(_rn_chain(6), C3, C2, 2).holds
    assert not check_arrow(_rn_chain(5), C3, C2, 2).holds
    assert built == [20, 10]
    # the look misses the 8-vertex chain seed of 2-chain over the 4-chain (70 E-copies)
    C4, F = poset_to_complete_rn(chain(4)), poset_to_complete_rn(chain(8))
    e_copies, p_in_e = arrow._e_copies(F, C4, MAX_COPIES), arrow._ranked(C2, C4)
    calls = _looks(monkeypatch)
    built.clear()
    assert not arrow._is_witness(e_copies, p_in_e, NEVER)
    (_, route), = calls
    assert built == [70] and route.looked is None and route.verdicts == 1
    # on tower point v, one per certification: the look refutes 774, _verdict the last
    built.clear()
    oracle_ramsey(BaseOracle(), POINT, V)
    assert len(built) == len(calls) - 1 == 775
    assert sum(route.verdicts for _, route in calls[1:]) == 1


def test_oracle_exhaustion_and_budget():
    with pytest.raises(NotFoundWithinBounds):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, C2)
    # the size pre-guard fires before any enumeration
    with pytest.raises(NotFoundWithinBounds):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, C3)
    a2 = poset_to_complete_rn(antichain(2))
    # the seed, then graphs of sizes 2 (one is the seed, passed over) and 3
    with pytest.raises(
        ResourceExceeded,
        match=r"^candidate budget \(5\) exhausted at size 3: "
        r"2 certified, 3 skipped by the minimal-witness lemma$",
    ):
        oracle_ramsey(BaseOracle(candidate_budget=5), POINT, a2)
    # A and E are posets, so the posets are tried, and the text names that family
    with pytest.raises(
        NotFoundWithinBounds, match="^no witness among poset candidates up to 2 vertices$"
    ):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, a2)
    with pytest.raises(
        NotFoundWithinBounds, match="^no witness among N-free candidates up to 2 vertices$"
    ):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, make_rn_graph(2, (), ()))
    with pytest.raises(ResourceExceeded, match="search time budget"):
        oracle_ramsey(BaseOracle(time_bound=0), POINT, a2)


def test_budgets_refuse_negative_and_nan():
    # NaN passes `value < 0` and is never exceeded, so it would switch the budget off
    nan, inf = float("nan"), float("inf")
    for record, name, bads in [
        (SearchLimits, "time_budget", (-1, nan)),
        (SearchLimits, "max_nodes", (-1,)),
        (BaseOracle, "time_bound", (-1, nan)),
        (BaseOracle, "candidate_budget", (-1,)),
        (BuildLimits, "max_picture_vertices", (-1,)),
    ]:
        for bad in bads:
            with pytest.raises(ValueError, match=f"{name} must be non-negative, got {bad}"):
                record(**{name: bad})
    for record, name in [(SearchLimits, "time_budget"), (BaseOracle, "time_bound")]:
        assert getattr(record(**{name: inf}), name) == inf
        assert getattr(record(**{name: 3}), name) == 3


@pytest.mark.parametrize(
    "record, name, bad, what",
    [
        (SearchLimits, "max_nodes", True, "an int"),
        (SearchLimits, "max_copies", 2.0, "an int"),
        (SearchLimits, "max_copies", float("nan"), "an int"),
        (BaseOracle, "size_bound", float("inf"), "an int"),
        (BaseOracle, "candidate_budget", 2.5, "an int"),
        (BuildLimits, "max_picture_vertices", 1e9, "an int"),
        (SearchLimits, "time_budget", True, "a number"),
        (BaseOracle, "time_bound", "60", "a number"),
    ],
)
def test_budgets_refuse_bools_and_non_int_counts(record, name, bad, what):
    # count budgets are plain ints; time budgets are ints or floats, never bools
    with pytest.raises(ValueError, match=f"{name} must be {what}, got {bad!r}"):
        record(**{name: bad})


def test_oracle_is_checked_when_built():
    # the oracle holds only the search's bounds; a witness goes to build_tower
    with pytest.raises(ValueError, match="candidate_budget must be non-negative"):
        BaseOracle(candidate_budget=-1)
    with pytest.raises(TypeError):
        BaseOracle(mode="search")
    assert [f.name for f in dataclasses.fields(BaseOracle)] == [
        "size_bound", "time_bound", "candidate_budget"
    ]


def test_oracle_assume_and_file_modes(tmp_path):
    # provenance is two fields: the witness's source, and the tower's one flag
    assert [f.name for f in dataclasses.fields(OracleWitness)] == ["graph", "source"]
    witness = poset_to_complete_rn(chain(6))
    tower = build_tower(C2, C3, 2, BaseOracle(), witness=witness, assume=True)
    assert not tower.certified and [s.source for s in tower.stages] == ["assume"]
    with pytest.raises(ValueError, match="assume mode requires a witness"):
        build_tower(C2, C3, 2, BaseOracle(), assume=True)
    path = tmp_path / "w.json"
    save_structure(path, witness)
    w2 = certify_witness(load_structure(path), C2, C3)
    assert w2 == OracleWitness(witness, "file")
    tower = build_tower(C2, C3, 2, BaseOracle(), witness=load_structure(path))
    assert tower.certified and [(s.C, s.source) for s in tower.stages] == [(witness, "file")]
    bad = tmp_path / "bad.json"
    save_structure(bad, poset_to_complete_rn(chain(5)))
    with pytest.raises(CertificationFailed):
        certify_witness(load_structure(bad), C2, C3)
    with pytest.raises(CertificationFailed):
        build_tower(C2, C3, 2, BaseOracle(), witness=load_structure(bad))


def test_oracle_file_mode_certifies_on_the_search_route(monkeypatch):
    # a witness without a copy of E is refused before its A-copies are listed
    listed = []

    def recording_enumerate_copies(pattern, target, *args, **kwargs):
        listed.append((pattern.n, target.n))
        return enumerate_copies(pattern, target, *args, **kwargs)

    monkeypatch.setattr(arrow, "enumerate_copies", recording_enumerate_copies)
    with pytest.raises(CertificationFailed):
        certify_witness(make_rn_graph(4, (), ()), POINT, C2)
    assert listed == [(1, 2), (2, 4)]


def test_certification_ceiling_truncates_at_stage_two():
    # 2,001 A-copies are beyond the exact search's 2,000 slots: certification stops
    # like every other ceiling, and the witness is not passed through
    witness = make_rn_graph(2001, (), ())
    ceiling = (
        "more than 2000 P-copies, the exact search ceiling, in the first 2001 of 2001 Q-copies"
    )
    with pytest.raises(ResourceExceeded, match=f"^{ceiling}$"):
        certify_witness(witness, POINT, POINT)
    tower = build_tower(POINT, POINT, 2, BaseOracle(), witness=witness)
    assert tower.stages == () and tower.truncated == f"stage 2: {ceiling}"
    assumed = build_tower(POINT, POINT, 2, BaseOracle(), witness=witness, assume=True)
    assert not assumed.certified and not assumed.truncated
    assert [(s.C, s.source) for s in assumed.stages] == [(witness, "assume")]


def _identity_graphs(max_n: int, states: str = "RN-"):
    """Every graph on the identity order with up to max_n vertices, by size; within a
    size, each graph one vertex smaller, in this order, followed by every assignment
    of states to the pairs (i, n-1), earliest i most significant: the reference
    column-order scan, written apart from the oracle's enumerator."""
    level = [([], [])]  # the R and N pairs of each graph of the size before
    for n in range(1, max_n + 1):
        new = n - 1
        level = [
            (
                R + [(i, new) for i, s in enumerate(column) if s == "R"],
                N + [(i, new) for i, s in enumerate(column) if s == "N"],
            )
            for R, N in level
            for column in itertools.product(states, repeat=new)
        ]
        for R, N in level:
            yield make_rn_graph(n, R, N)


def _without(F, v: int):
    """F with vertex v deleted, the rest renumbered in order (F on the identity order)."""
    ids = {u: i for i, u in enumerate(u for u in range(F.n) if u != v)}
    R = [(ids[x], ids[y]) for x, y in F.R if v not in (x, y)]
    N = [(ids[x], ids[y]) for x, y in F.N if v not in (x, y)]
    return make_rn_graph(F.n - 1, R, N)


def test_n_free_lemma():
    # A a complete R-chain, E without N: a witness stays one with its N pairs made absent
    rng = random.Random(34)
    with_n = 0
    for _ in range(4):
        E = fuse(random_rn(rng, 3))
        for A in (POINT, C2):
            for F in _identity_graphs(4):
                if F.N and check_arrow(F, E, A, 2).holds:
                    with_n += 1
                    assert check_arrow(make_rn_graph(F.n, F.R, ()), E, A, 2).holds
    assert with_n >= 1000


def _random_identity_graph(rng, n: int, states: str = "RN-"):
    """n vertices on the identity order, each pair in a state drawn from `states`."""
    drawn = {(i, j): rng.choice(states) for j in range(n) for i in range(j)}
    R = [p for p, s in drawn.items() if s == "R"]
    return make_rn_graph(n, R, [p for p, s in drawn.items() if s == "N"])


def test_minimal_witness_lemma():
    # a vertex in no copy of E changes nothing: F arrows exactly when F - v does
    rng = random.Random(35)
    checked = holds = 0
    for _ in range(400):
        F = _random_identity_graph(rng, rng.randint(2, 6))
        E = random_rn(rng, 3)
        A = rng.choice((POINT, C2, random_rn(rng, 2)))
        uncovered = set(range(F.n)) - _covered(E, F)
        if not uncovered or len(enumerate_copies(A, F)) > 14:
            continue
        verdict = check_arrow(F, E, A, 2).holds
        for v in sorted(uncovered):
            assert check_arrow(_without(F, v), E, A, 2).holds == verdict
            checked += 1
            holds += verdict
    assert checked >= 500 and holds >= 45


def _random_identity_poset(rng, n: int):
    """A naturally labelled poset on n vertices: the closure of random forward pairs,
    completed with N."""
    R = brute_closure({(i, j) for j in range(n) for i in range(j) if rng.random() < 0.4}, n)
    return make_rn_graph(n, R, [(i, j) for j in range(n) for i in range(j) if (i, j) not in R])


def test_one_vertex_extension_coverage(monkeypatch):
    # growing F one vertex at a time from the empty prefix, each child inheriting its
    # parent's copies, gives the copies of every E[:j] that brute force lists in F, with
    # the R pairs E wants to its later vertices, and F's E-copies; in both families:
    # an N-free E with an N-free F, and a poset E with a poset F.  The walk grows F
    # offered F's own columns only, towards |F| + |E| vertices, so that every prefix
    # keeps every level and none is ruled out
    grown = _grown(monkeypatch)
    rng = random.Random(36)
    full = 0
    for family in ("N-free", "poset"):
        for _ in range(300):
            if family == "N-free":
                E = fuse(random_rn(rng, 4))
                F = _random_identity_graph(rng, rng.randint(1, 6), "R-")
            else:
                E = random_good_complete(rng, 4)
                F = _random_identity_poset(rng, rng.randint(1, 6))
            cols = [sum(1 << i for i, j in F.R if j == t) for t in range(F.n)]
            to_r = [tuple(row >> i & 1 for i in range(E.n)) for row in E.rows[0]]
            offer = (to_r, lambda offered, column, bit: cols[bit.bit_length():][:1], None)
            grown.clear()  # from the empty prefix, with its one copy, of E[:0]
            assert not any(arrow._walk(F.n + E.n, [], cols[:1], {0: (0,) * E.n}, offer))
            copies = grown[-1][3]
            assert grown[-1][1] == tuple(cols)
            expected = _covered(E, F)
            assert sorted(image for image in copies if image.bit_count() == E.n) == _masks(E, F)
            for j in range(E.n):
                level = {image: wants for image, wants in copies.items() if image.bit_count() == j}
                assert sorted(level) == _level_masks(E, j, F)
                for image, wants in level.items():
                    at = [v for v in range(F.n) if image >> v & 1]  # E's vertex s goes to at[s]
                    assert list(wants[j:]) == [
                        sum(1 << at[s] for s in range(j) if (E.order[s], E.order[i]) in E.R)
                        for i in range(j, E.n)
                    ]
            full += len(expected) == F.n
    assert full >= 200


def _level_masks(E, j: int, F) -> list:
    """The image masks of the copies of E[:j], E's first j vertices, in F, by brute
    force, ascending."""
    return sorted(
        sum(1 << v for v in image)
        for image in brute_copies(induced_substructure(E, E.order[:j]), F)
    )


def _candidate(cols, posets: bool):
    """The graph on the identity order with these columns, built apart from the
    oracle: (i, j) is R when bit i of cols[j] is set, else N in a poset, else absent."""
    pairs = [(i, j) for j in range(len(cols)) for i in range(j)]
    R = [(i, j) for i, j in pairs if cols[j] >> i & 1]
    return make_rn_graph(len(cols), R, [p for p in pairs if p not in R] if posets else ())


def _scan(E, size_bound: int, family: str):
    """The scan with every run of skipped candidates expanded into Nones, one (n, F)
    per candidate as it is asked for, F built from its columns.  A candidate comes
    alone, with the image masks of its E-copies, those brute force lists; a run holds
    at least one."""
    for n, run, cols, e_copies in arrow._enumerated_candidates(E, size_bound, family):
        if cols is None:
            assert run >= 1 and e_copies is None
            yield from itertools.repeat((n, None), run)
            continue
        F = _candidate(cols, family == "poset")
        assert run == 1 and F.n == n and sorted(e_copies) == _masks(E, F)
        yield n, F


def _identity_posets(max_n: int):
    """The complete identity graphs of the reference scan whose R is transitive."""
    return [F for F in _identity_graphs(max_n, "RN") if brute_is_poset(F)]


def test_scan_runs_in_column_order():
    # with E a single vertex every candidate is covered, so the scan yields them all
    # (the poset scan over a single vertex is checked below)
    scan = _scan(POINT, 4, "N-free")
    assert [F for _, F in scan] == list(_identity_graphs(4, "R-"))
    # otherwise the scan starts at |E| vertices, and a candidate comes as None exactly
    # when a vertex of it is in no copy of E; over C2 and V a prefix's last column, the
    # empty one, often leaves a run of one skipped candidate
    posets, n_free = _identity_posets(4), list(_identity_graphs(4, "R-"))
    for E, family, reference in (
        (A2, "poset", posets),
        (V, "poset", posets),
        (make_rn_graph(3, {(0, 2), (1, 2)}, ()), "N-free", n_free),
        (C2, "N-free", n_free),
    ):
        expected = [
            (F.n, F if _covered(E, F) == set(range(F.n)) else None)
            for F in reference
            if F.n >= E.n
        ]
        assert list(_scan(E, 4, family)) == expected


def test_poset_scan_meets_the_naturally_labelled_posets():
    # the poset scan over E a single vertex is exactly the transitive complete graphs
    # on the identity order, in column order: 1, 2, 7, 40 and 357 of them (OEIS A006455)
    scan = [F for _, F in _scan(POINT, 5, "poset")]
    assert scan == _identity_posets(5)
    assert [sum(F.n == n for F in scan) for n in range(1, 6)] == [1, 2, 7, 40, 357]


def test_scan_stream_is_pinned():
    # the scan's whole item stream, every (n, run, columns, E-copy masks) in order, on
    # random E of both families with |E| <= 4 and sizes up to 6, at most 2,000 items
    # per E: a refactor of the walk must leave it unchanged item for item
    rng = random.Random(53)
    queries = [("N-free", fuse(random_rn(rng, 4))) for _ in range(8)]
    queries += [("poset", random_good_complete(rng, 4)) for _ in range(8)]
    digest = hashlib.sha256()
    items = collections.Counter()
    for family, E in queries:
        for item in itertools.islice(arrow._enumerated_candidates(E, 6, family), 2000):
            digest.update(repr(item).encode())
            items[item[2] is None] += 1
    assert items == {False: 16216, True: 7925}
    assert digest.hexdigest()[:16] == "6cd940634da13213"


def _grown(monkeypatch) -> list:
    """Each prefix the walk grows, in call order, as (n, its columns, its child
    columns, its copies), the empty prefix of each size included."""
    grown = []
    walk = arrow._walk

    def recording(n, cols, offered, copies, scan):
        grown.append((n, tuple(cols), offered, copies))
        return walk(n, cols, offered, copies, scan)

    # the walk calls itself by name in the namespace it was defined in
    monkeypatch.setitem(walk.__globals__, "_walk", recording)
    monkeypatch.setattr(arrow, "_walk", recording)
    return grown


def test_poset_scan_grows_only_posets(monkeypatch):
    # a column that is no down-set is dropped at the depth where it appears: the walk to
    # the 6-vertex candidates over E = point grows exactly the 1, 2, 7, 40 and 357
    # naturally labelled posets at depths 1-5, and no prefix the scan grows, at any
    # size up to 6, is anything but a poset
    grown = _grown(monkeypatch)
    assert sum(1 for _ in _scan(POINT, 6, "poset")) == 1 + 2 + 7 + 40 + 357 + 4824
    depths = collections.Counter(len(cols) for n, cols, _, _ in grown if n == 6)
    assert [depths[depth] for depth in range(1, 6)] == [1, 2, 7, 40, 357]
    distinct = {cols for _, cols, _, _ in grown}
    assert collections.Counter(map(len, distinct)) == {0: 1, 1: 1, 2: 2, 3: 7, 4: 40, 5: 357}
    for cols in distinct:
        n = len(cols)
        R = [(i, j) for j, c in enumerate(cols) for i in range(j) if c >> i & 1]
        N = set(itertools.combinations(range(n), 2)) - set(R)
        assert brute_is_poset(make_rn_graph(n, R, N))


def _extensions(cols, n: int, posets: bool) -> list:
    """The columns of every graph of the family on n vertices whose first columns are
    cols: each later column any mask, for posets one that holds the column of each of
    its members (R stays transitive), written apart from the oracle's offer."""
    out = [tuple(cols)]
    for t in range(len(cols), n):
        out = [
            (*c, m) for c in out for m in range(1 << t)
            if not posets or all(not c[i] & ~m for i in range(t) if m >> i & 1)
        ]
    return out


def _ruled_out(E, family: str, max_n: int, grown: list, rng):
    """For the candidates below each prefix that the walk rules out at sizes up to
    max_n, whether brute force puts every vertex in a copy of E: all of them up to 5
    vertices, and one drawn per ruled-out prefix at 6.  The prefix-coverage lemma says
    never.  grown records the walk (_grown): a child column of a grown prefix whose
    child is neither grown nor a candidate was ruled out."""
    posets = family == "poset"
    grown.clear()
    collections.deque(arrow._enumerated_candidates(E, max_n, family), maxlen=0)
    built = {(n, cols) for n, cols, _, _ in grown}
    for n, cols, offered, _ in grown:
        for child in [(*cols, column) for column in offered if len(cols) + 1 < n]:
            if (n, child) not in built:
                below = _extensions(child, n, posets)
                for full in below if n <= 5 else [rng.choice(below)]:
                    yield _covered(E, _candidate(full, posets)) == set(range(n))


def test_prefix_coverage_lemma(monkeypatch):
    # a prefix on q vertices whose vertices are not all in copies of E[:j] with j >=
    # |E| - (n - q) has only candidates on n vertices with a vertex in no E-copy, so
    # the scan counts them without growing it; on random E of both families with |E| <=
    # 4, each size up to 6 still comes to the family's count: 2^(n(n-1)/2) N-free graphs
    # and 1, 2, 7, 40, 357, 4,824 naturally labelled posets (OEIS A006455)
    rng = random.Random(45)
    posets = [1, 1, 2, 7, 40, 357, 4824]
    queries = [("N-free", fuse(random_rn(rng, 4))) for _ in range(6)]
    queries += [("poset", random_good_complete(rng, 4)) for _ in range(6)]
    source = inspect.getsource(arrow._walk)
    grown = _grown(monkeypatch)
    checked = []
    kept = 0
    for family, E in queries:
        totals = collections.Counter()
        grown.clear()
        for n, run, _, _ in arrow._enumerated_candidates(E, 6, family):
            totals[n] += run
        assert totals == {
            n: posets[n] if family == "poset" else 1 << n * (n - 1) // 2
            for n in range(E.n, 7)
        }
        # a grown prefix on q vertices keeps exactly its copies of E[:j] with j >= |E| -
        # (n - q), those brute force lists, and E's own
        for n, cols, _, copies in grown:
            if len(cols) <= 4:
                F = _candidate(cols, family == "poset")
                assert sorted(copies) == sorted(
                    mask for j in range(max(0, E.n - (n - len(cols))), E.n + 1)
                    for mask in _level_masks(E, j, F)
                )
                kept += 1
        checked += _ruled_out(E, family, 6, grown, rng)
    assert not any(checked) and len(checked) >= 5000 and kept >= 1000
    # the check fires on a bound one level too aggressive, j >= |E| - (n - q) + 1
    aggressive = source.replace("len(to_r) - (n - q - 1)", "len(to_r) - (n - q - 2)")
    assert aggressive != source
    namespace = dict(vars(arrow))
    exec(aggressive, namespace)
    monkeypatch.setattr(arrow, "_walk", namespace["_walk"])
    grown = _grown(monkeypatch)
    assert any(any(_ruled_out(E, family, 6, grown, rng)) for family, E in queries)


def _met(A, E, size_bound: int):
    """The candidates of the oracle's loop, one (n, F, source) at a time, as they are
    asked for: the seeds, then the scan with each run expanded into Nones, every seed
    met again passed over."""
    seeds = {}
    for F, source in arrow._seed_candidates(A, E, size_bound):
        seeds.setdefault(F, source)
    for F, source in seeds.items():
        yield F.n, F, source
    for n, F in _scan(E, size_bound, arrow._family(A, E)):
        if F not in seeds:
            yield n, F, "search:enumeration"


def _down_sets(cols) -> list:
    """The down-sets of the poset with these columns, from scratch: every vertex set
    that holds each member's column, in column order (earliest vertex most significant,
    in before out)."""
    n = len(cols)
    closed = [d for d in range(1 << n) if all(not cols[i] & ~d for i in range(n) if d >> i & 1)]
    return sorted(closed, key=lambda d: [-(d >> i & 1) for i in range(n)])


def test_down_sets_follow_from_the_parent(monkeypatch):
    # each prefix's child columns come from its parent's in one step, and they are the
    # down-sets listed from scratch, in order, at every depth up to 5; the one child
    # column of the empty prefix is 0
    grown = _grown(monkeypatch)
    collections.deque(arrow._enumerated_candidates(POINT, 6, "poset"), maxlen=0)
    met = [(cols, offered) for n, cols, offered, _ in grown if n == 6]
    assert collections.Counter(len(cols) for cols, _ in met) == {
        0: 1, 1: 1, 2: 2, 3: 7, 4: 40, 5: 357
    }
    for cols, offered in met:
        assert offered == _down_sets(cols)
    # from column 0, every mask: the N-free scan's offer
    assert arrow._columns([1, 0], 0, 2) == [3, 1, 2, 0]
    assert arrow._columns([1, 0], 1, 2) == [3, 1, 0]


def _check_views(A, E, F, e_copies) -> int:
    """Check both views of _hypergraph against brute force on F's E-copies: its slots,
    as positions in F's order, with the slot mask of each edge, and _verdict's, per
    slot ascending, the mask of the edges that hold it.  Returns the slot count."""
    maps = [set(arrow._positions(image)) for image in e_copies]
    slots, edges = arrow._hypergraph(e_copies, arrow._ranked(A, E))
    numbers = slots
    if A.n == 1:  # slot (p,) is number p, and each image is its own mask
        assert edges == e_copies
        numbers = {(p,): p for p in arrow._positions(slots)}
    images = [set(image) for image in brute_copies(E, F)]
    inside = {c for c in brute_copies(A, F) if any(set(c) <= q for q in images)}
    assert set(numbers) == {tuple(sorted(F.rank[v] for v in c)) for c in inside}
    for at, mask in zip(maps, edges, strict=True):
        assert mask == sum(1 << k for slot, k in numbers.items() if set(slot) <= at)
    order, inc = _searched(slots, edges)
    assert order == sorted(numbers) and len(inc) == len(order)
    for slot, mask in zip(order, inc):
        assert mask == sum(1 << e for e, at in enumerate(maps) if set(slot) <= at)
    return len(order)


def test_certification_needs_only_the_slots_in_some_e_copy():
    # the slot lemma: an A-copy in no E-copy is in no edge, so the route, whose slots are
    # the A-copies inside some E-copy, decides as check_arrow does over every A-copy; on
    # random graphs of both families, in any order, where _hypergraph's views hold too
    rng = random.Random(38)
    dropped = dropped_holds = 0
    for family in ("N-free", "poset"):
        for _ in range(250):
            if family == "N-free":
                A = rng.choice((POINT, C2, C3))
                E, F = fuse(random_rn(rng, 3)), fuse(random_rn(rng, 6))
            else:
                A, E, F = (random_good_complete(rng, k) for k in (2, 3, 6))
            holds = check_arrow(F, E, A, 2).holds
            e_copies = arrow._e_copies(F, E, MAX_COPIES)
            assert arrow._is_witness(e_copies, arrow._ranked(A, E), NEVER) == holds
            _check_views(A, E, F, e_copies)
            images = [set(image) for image in brute_copies(E, F)]
            outside = [c for c in brute_copies(A, F) if not any(set(c) <= q for q in images)]
            dropped += bool(outside and images)
            dropped_holds += bool(outside and images and holds)
    assert dropped >= 100 and dropped_holds >= 80
    # _hypergraph's views for a 3-chain A, which a 3-vertex E seldom holds
    rng = random.Random(39)
    slotted = 0
    for _ in range(150):
        E, F = rng.choice((C3, _rn_chain(4))), fuse(random_rn(rng, 7))
        slotted += bool(_check_views(C3, E, F, arrow._e_copies(F, E, MAX_COPIES)))
    assert slotted >= 20
    # and on every covered candidate of the scan, from the E-copies it hands over
    verdicts = collections.Counter()
    for A, E, size_bound in (
        (POINT, V, 5),
        (C2, make_rn_graph(4, {(0, 2), (0, 3), (1, 3)}, ()), 5),
        (A2, make_rn_graph(3, {(0, 1)}, {(0, 2), (1, 2)}), 5),
    ):
        family = arrow._family(A, E)
        p_in_e = arrow._ranked(A, E)
        for n, run, cols, e_copies in arrow._enumerated_candidates(E, size_bound, family):
            if cols is not None:
                holds = check_arrow(_candidate(cols, family == "poset"), E, A, 2).holds
                assert arrow._is_witness(e_copies, p_in_e, NEVER) == holds
                verdicts[holds] += 1
    # the first two queries have no witness up to 5 vertices; the third has 18
    assert verdicts == {False: 72 + 48 + 11, True: 18}


def test_point_over_point_is_its_own_witness(monkeypatch):
    # with |E| = 1 the pigeonhole seed is E itself, but the identity seed, one slot in a
    # one-member edge, certifies first, so no seed needs passing over as met before
    seeds = arrow._seed_candidates(POINT, POINT, 16)
    assert [next(seeds), next(seeds)] == [
        (POINT, "search:identity"), (POINT, "search:pigeonhole")
    ]
    calls = _certifications(monkeypatch)
    assert oracle_ramsey(BaseOracle(), POINT, POINT) == OracleWitness(POINT, "search:identity")
    assert len(calls) == 1


def test_certification_of_degenerate_queries():
    # an empty A is one slot inside every E-copy; an empty E has one copy, the empty one;
    # an A that does not embed in E holds vacuously once there is an E-copy
    empty = make_rn_graph(0, (), ())
    edgeless = make_rn_graph(2, (), ())
    rng = random.Random(39)
    targets = [empty, POINT, C3, edgeless] + [fuse(random_rn(rng, 5)) for _ in range(20)]
    outcomes = set()
    for A, E in (
        (empty, C2), (empty, empty), (empty, edgeless),  # A empty
        (POINT, empty),  # E empty
        (C2, edgeless), (C3, C2),  # A not in E
    ):
        for F in targets:
            holds = check_arrow(F, E, A, 2).holds
            e_copies = arrow._e_copies(F, E, MAX_COPIES)
            assert arrow._is_witness(e_copies, arrow._ranked(A, E), NEVER) == holds
            outcomes.add(holds)
        # the oracle's first seed, E itself, is then its witness
        assert oracle_ramsey(BaseOracle(), A, E) == OracleWitness(E, "search:identity")
    assert outcomes == {True, False}


def test_the_scan_lists_no_copies_per_candidate(monkeypatch):
    # the tower point v query lists A's copies in E and its seed's E-copies, and nothing
    # per scanned candidate: the count is the same whether the budget stops the oracle
    # after 1, 774 or 775 certified candidates (the last finds the witness)
    listed = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            listed[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arrow, "enumerate_copies", counting("enumerate", arrow.enumerate_copies))
    assert not hasattr(arrow, "iter_copies")  # every listing goes through enumerate_copies
    monkeypatch.setattr(embeddings, "iter_copies", counting("iter", embeddings.iter_copies))
    for budget in (1, 3764, 60_000):
        listed.clear()
        try:
            oracle_ramsey(BaseOracle(candidate_budget=budget), POINT, V)
        except ResourceExceeded:
            assert budget < 3765
        assert listed == {"enumerate": 2, "iter": 2}


def test_certification_keeps_the_copy_limit_on_e_copies(monkeypatch):
    # SearchLimits.max_copies caps a candidate's E-copies on the scan's route too: under
    # a cap of 2 the 2-antichain seed (1 copy) and the size-3 candidates with 2 copies
    # are certified, and the first with 3 copies stops the search
    monkeypatch.setattr(arrow.SearchLimits, "max_copies", 2)
    stop = "^more than 2 copies of the pattern in a candidate$"
    with pytest.raises(ResourceExceeded, match=stop):
        oracle_ramsey(BaseOracle(), POINT, A2)


def _one_at_a_time(A, E, oracle: BaseOracle, verdict) -> tuple:
    """The outcome of the oracle's loop as a reference that counts one candidate at a
    time (_met); verdict(F) decides a certified candidate."""
    certified = skipped = 0
    for n, F, source in _met(A, E, oracle.size_bound):
        if certified + skipped == oracle.candidate_budget:
            return "budget", n, certified, skipped
        if F is None:
            skipped += 1
            continue
        certified += 1
        if verdict(F):
            return "witness", F, source
    return ("exhausted",)


def _outcome(A, E, oracle: BaseOracle) -> tuple:
    try:
        w = oracle_ramsey(oracle, A, E)
    except NotFoundWithinBounds:
        return ("exhausted",)
    except ResourceExceeded as stop:
        counts = re.fullmatch(
            r"candidate budget \(\d+\) exhausted at size (\d+): (\d+) certified, "
            r"(\d+) skipped by the minimal-witness lemma",
            str(stop),
        )
        return ("budget", *map(int, counts.groups()))
    return "witness", w.graph, w.source


@pytest.mark.parametrize(
    "A, E, size_bound, stops",
    [
        # 1 seed and 2 candidates of size 2, the seed among them; the witness is the
        # last of the 7 of size 3
        (POINT, A2, 3, {2: ("budget", 3, 1, 1), 8: ("budget", 3, 4, 4), 9: ("witness",)}),
        # 1 seed, then 7 candidates of size 3, the seed among them, 40 of size 4 and 357
        # of size 5: no witness up to 5 vertices
        (POINT, V, 5, {
            7: ("budget", 4, 1, 6),
            47: ("budget", 5, 7, 40),
            403: ("budget", 5, 72, 331),
            404: ("exhausted",),
        }),
        # pattern-19's fused query: 1 seed, then 64 candidates of size 4, the seed among
        # them, and 1,024 of size 5
        (C2, make_rn_graph(4, {(0, 2), (0, 3), (1, 3)}, ()), 5, {
            64: ("budget", 5, 1, 63),
            1087: ("budget", 5, 11, 1076),
            1088: ("exhausted",),
        }),
    ],
)
def test_budget_is_exact_at_run_boundaries(A, E, size_bound, stops):
    # a run of skipped candidates is one item to the oracle, yet every budget on either
    # side of each item's end stops as the one-at-a-time count does: the same witness,
    # or the same size with the same certified and skipped counts.  A budget spent by
    # the last candidate of a size names the next size; one spent by the scan's last
    # candidate finds no witness
    verdicts = {}

    def verdict(F):
        if F not in verdicts:
            verdicts[F] = check_arrow(F, E, A, 2).holds
        return verdicts[F]

    family = arrow._family(A, E)
    seeds = {F for F, _ in arrow._seed_candidates(A, E, size_bound)}
    ends = list(itertools.accumulate(
        [1] * len(seeds)
        + [run for _, run, cols, _ in arrow._enumerated_candidates(E, size_bound, family)
           if cols is None or _candidate(cols, family == "poset") not in seeds]
    ))
    budgets = {b + d for b in ends for d in (-1, 0, 1)} | {0}
    assert set(stops) <= budgets
    for budget in sorted(budgets):
        oracle = BaseOracle(size_bound=size_bound, candidate_budget=budget)
        expected = _one_at_a_time(A, E, oracle, verdict)
        assert _outcome(A, E, oracle) == expected
        if budget in stops:
            assert expected[:len(stops[budget])] == stops[budget]


def test_pattern_nineteen_stops_where_it_always_has(monkeypatch):
    # the oracle-corpus query that exhausts its budget: runs of skipped candidates leave
    # the counts of its stop as they were when each candidate was one item; the subtrees
    # the prefix-coverage lemma rules out are not grown, 256 prefixes where growing
    # every prefix takes 1,611
    grown = _grown(monkeypatch)
    with pytest.raises(
        ResourceExceeded,
        match=r"^candidate budget \(60000\) exhausted at size 7: 422 certified, "
        r"59578 skipped by the minimal-witness lemma$",
    ):
        oracle_ramsey(BaseOracle(size_bound=8), C2, make_rn_graph(4, {(0, 2), (0, 3), (1, 3)}, ()))
    assert sum(1 for _, cols, _, _ in grown if cols) == 256


def test_a_poset_count_stops_with_the_budget(monkeypatch):
    # point over B = {0<1} plus two free vertices, up to 12 vertices: each budget runs
    # out inside a subtree that the prefix-coverage lemma rules out two levels above its
    # candidates, and stops as it did when every prefix was grown, with as many _columns
    # calls (9 and 2,788): the count walks the columns only as far as the stop
    B = make_rn_graph(4, {(0, 1)}, {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})
    offers = []
    columns = arrow._columns
    monkeypatch.setattr(arrow, "_columns", lambda *args: offers.append(1) or columns(*args))
    walk = arrow._walk
    counts = []  # per count of a ruled-out prefix: [its depth, n, whether it ended]

    def recording(n, cols, offered, copies, scan):
        to_r, columns, runs = scan

        def counted(offered, p, n):
            count = [p, n, False]
            counts.append(count)
            yield from runs(offered, p, n)
            count[2] = True

        # the empty prefix hands its scan, with the recording count, to every descendant
        return walk(n, cols, offered, copies, scan if cols else (to_r, columns, counted))

    monkeypatch.setattr(arrow, "_walk", recording)
    for budget, size, certified, calls in ((28, 4, 1, 9), (43_000, 7, 2885, 2788)):
        offers.clear()
        with pytest.raises(
            ResourceExceeded,
            match=rf"^candidate budget \({budget}\) exhausted at size {size}: {certified} "
            rf"certified, {budget - certified} skipped by the minimal-witness lemma$",
        ):
            oracle_ramsey(BaseOracle(size_bound=12, candidate_budget=budget), POINT, B)
        assert counts[-1] == [size - 2, size, False] and len(offers) == calls


def test_complete_candidates_lemma():
    # A and E complete: filling an absent pair of a witness, with R or N, leaves one
    rng = random.Random(37)
    filled = 0
    for _ in range(4):
        E = random_good_complete(rng, 3)
        for A in (POINT, C2, A2):
            for F in _identity_graphs(4):
                absent = [p for p in itertools.combinations(range(F.n), 2)
                          if p not in F.R and p not in F.N]
                if not absent or not check_arrow(F, E, A, 2).holds:
                    continue
                for p in absent:
                    for R, N in ((F.R | {p}, F.N), (F.R, F.N | {p})):
                        assert check_arrow(make_rn_graph(F.n, R, N), E, A, 2).holds
                        filled += 1
    assert filled >= 1000


def test_oracle_loop_agrees_with_check_arrow():
    # the N-free queries (A a complete R-chain, E without N) search the N-free graphs,
    # and the poset queries (A and E posets) the posets; the first witness of the
    # family's reference scan is the one returned
    queries = [
        (POINT, A2, brute_is_poset),
        (C2, make_rn_graph(3, {(0, 1), (0, 2)}, {(1, 2)}), brute_is_poset),
        (A2, make_rn_graph(3, {(0, 1)}, {(0, 2), (1, 2)}), brute_is_poset),
        (C2, make_rn_graph(3, {(0, 1), (0, 2)}, ()), lambda F: not F.N),
        (C2, make_rn_graph(3, {(0, 2), (1, 2)}, ()), lambda F: not F.N),
        (POINT, make_rn_graph(3, {(0, 1)}, ()), lambda F: not F.N),
    ]
    for A, E, member in queries:
        p_in_e = arrow._ranked(A, E)
        witnesses = []
        for F in _identity_graphs(4):
            holds = check_arrow(F, E, A, 2).holds
            assert arrow._is_witness(arrow._e_copies(F, E, MAX_COPIES), p_in_e, NEVER) == holds
            if holds and member(F):
                witnesses.append(F)
        family = "poset" if member is brute_is_poset else "N-free"
        if not witnesses:
            with pytest.raises(NotFoundWithinBounds, match=f"{family} candidates"):
                oracle_ramsey(BaseOracle(size_bound=4), A, E)
            continue
        w = oracle_ramsey(BaseOracle(size_bound=4), A, E)
        assert w.source == "search:enumeration"
        assert w.graph == witnesses[0]
