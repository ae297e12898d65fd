import random

import pytest

from rnramsey import (
    Homomorphism,
    StructureError,
    check_homomorphism,
    compose_homomorphisms,
    chain,
    find_bad_quasicycle,
    identity_homomorphism,
    is_ell_rn,
    is_good,
    longest_r_path_vertices,
    make_rn_graph,
    poset_to_complete_rn,
    transitive_closure,
)
from helpers import (
    brute_bad_quasicycle_exists,
    brute_closure,
    brute_shortest_bad_length,
    random_rn,
)


def test_frozen_quasicycle_example():
    g = make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)})
    q = find_bad_quasicycle(g)
    assert q == (0, 1, 2)
    assert is_ell_rn(g, 2)
    assert not is_ell_rn(g, 3)
    assert not is_good(g)


def test_every_graph_is_2_rn():
    rng = random.Random(7)
    for _ in range(100):
        assert is_ell_rn(random_rn(rng, 8), 2)


def test_length_two_never_occurs():
    # an R-edge that is also an N-edge is the only length-2 shape, and disjointness
    # forbids it at construction time
    rng = random.Random(8)
    for _ in range(200):
        q = find_bad_quasicycle(random_rn(rng, 8))
        assert q is None or len(q) >= 3


def test_max_len_filter_and_validation():
    g = make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)})
    assert find_bad_quasicycle(g, max_len=2) is None
    assert find_bad_quasicycle(g, max_len=3) is not None
    with pytest.raises(ValueError):
        find_bad_quasicycle(g, max_len=1)
    with pytest.raises(ValueError):
        is_ell_rn(g, 1)


def test_shortest_and_lexicographic_tie_break():
    # two bad quasicycles of length 3: (0,1,3) and (0,2,3); the lexicographically
    # smaller vertex sequence wins
    g = make_rn_graph(
        4, {(0, 1), (0, 2), (1, 3), (2, 3)}, {(0, 3)}
    )
    q = find_bad_quasicycle(g)
    assert q == (0, 1, 3)


def test_transitive_closure_frozen_example():
    rel = frozenset({(0, 1), (1, 2), (2, 3)})
    closed = transitive_closure(rel, 4)
    assert closed - rel == {(0, 2), (1, 3), (0, 3)}


def test_transitive_closure_matches_floyd_warshall():
    rng = random.Random(9)
    for _ in range(300):
        g = random_rn(rng, 8)
        assert transitive_closure(g.R, g.n) == brute_closure(g.R, g.n)


def test_transitive_closure_cycle_detected():
    with pytest.raises(StructureError, match="relation contains a cycle through vertex: 0"):
        transitive_closure(frozenset({(0, 1), (1, 0)}), 2)


def test_goodness_dual_route():
    rng = random.Random(10)
    for _ in range(400):
        g = random_rn(rng, 9)
        by_closure = is_good(g)
        by_search = find_bad_quasicycle(g) is None
        by_brute = not brute_bad_quasicycle_exists(g)
        assert by_closure == by_search == by_brute


def test_shortest_length_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        g = random_rn(rng, 8)
        q = find_bad_quasicycle(g)
        expected = brute_shortest_bad_length(g)
        assert (len(q) if q else None) == expected


def test_longest_r_path():
    g = make_rn_graph(4, {(0, 1), (0, 2), (2, 3)}, set())
    assert longest_r_path_vertices(g) == 3
    assert longest_r_path_vertices(make_rn_graph(1, set(), set())) == 1
    # brute force on a seeded corpus
    rng = random.Random(12)
    for _ in range(100):
        graph = random_rn(rng, 7)
        succ = {x: [y for (a, y) in graph.R if a == x] for x in range(graph.n)}

        def longest_from(v):
            return 1 + max((longest_from(w) for w in succ[v]), default=0)

        brute = max(longest_from(v) for v in range(graph.n))
        assert longest_r_path_vertices(graph) == brute


def test_check_homomorphism_and_monotonicity():
    c2 = poset_to_complete_rn(chain(2))
    c3 = poset_to_complete_rn(chain(3))
    h = Homomorphism((0, 2), c2, c3)
    assert check_homomorphism(h)
    collapse = Homomorphism((0, 0), c2, c2)
    assert not check_homomorphism(collapse)  # the R pair lands on a loop
    # N must map to N for RN sources
    a2 = poset_to_complete_rn(chain(2))
    src = make_rn_graph(2, set(), {(0, 1)})
    assert not check_homomorphism(Homomorphism((0, 1), src, a2))


def test_identity_and_composition():
    c3 = poset_to_complete_rn(chain(3))
    ident = identity_homomorphism(c3)
    assert check_homomorphism(ident)
    comp = compose_homomorphisms(ident, ident)
    assert comp.map == ident.map
    c2 = poset_to_complete_rn(chain(2))
    f = Homomorphism((0, 1), c2, c3)
    g = Homomorphism((1, 2), c2, c3)
    with pytest.raises(ValueError):
        compose_homomorphisms(g, f)  # f lands in c3, g starts at c2
