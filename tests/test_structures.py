import random

import pytest

from rnramsey import (
    Homomorphism,
    StructureError,
    antichain,
    chain,
    fuse,
    is_complete,
    make_ordered_poset,
    make_rn_graph,
    poset_to_complete_rn,
    rn_to_poset,
)
from helpers import random_poset, random_rn


def test_chain_and_antichain():
    c = chain(3)
    assert c.n == 3
    assert c.R == frozenset({(0, 1), (0, 2), (1, 2)})
    assert c.order == (0, 1, 2)
    a = antichain(4)
    assert a.R == frozenset()
    with pytest.raises(ValueError):
        chain(0)
    with pytest.raises(ValueError):
        antichain(0)


def test_make_ordered_poset_rejections():
    with pytest.raises(StructureError, match="reflexive pair"):
        make_ordered_poset(2, {(0, 0)})
    with pytest.raises(StructureError, match="missing composite pair"):
        make_ordered_poset(3, {(0, 1), (1, 2)})
    with pytest.raises(StructureError, match="relation pair runs against the order"):
        make_ordered_poset(2, {(1, 0)})
    with pytest.raises(StructureError):
        make_ordered_poset(2, {(0, 5)})
    with pytest.raises(StructureError):
        make_ordered_poset(2, {(0, 1)}, order=(0, 0))


def test_make_rn_graph_rejections():
    with pytest.raises(StructureError, match="pair in both R and N"):
        make_rn_graph(2, {(0, 1)}, {(0, 1)})
    with pytest.raises(StructureError, match="R pair runs against the order"):
        make_rn_graph(2, {(1, 0)}, set())
    with pytest.raises(StructureError, match="N pair runs against the order"):
        make_rn_graph(2, set(), {(1, 0)})
    # backward relative to a non-identity order
    with pytest.raises(StructureError, match="R pair runs against the order"):
        make_rn_graph(2, {(0, 1)}, set(), order=(1, 0))


def test_vertex_ids_are_refused_not_coerced():
    # a float, a string or a bool id is not silently turned into an int
    for R in ({(0.7, 1)}, {("0", True)}, {(False, 1)}):
        with pytest.raises(StructureError, match="R pair has a vertex id that is not an int"):
            make_ordered_poset(2, R)
        with pytest.raises(StructureError, match="R pair has a vertex id that is not an int"):
            make_rn_graph(2, R, set())
    with pytest.raises(StructureError, match="N pair has a vertex id that is not an int"):
        make_rn_graph(2, set(), {(0, 1.0)})
    for order in ((0.0, 1.0, 2.0), (False, True, 2)):
        with pytest.raises(StructureError, match="order is not a permutation of 0..2"):
            make_ordered_poset(3, set(), order)
        with pytest.raises(StructureError, match="order is not a permutation of 0..2"):
            make_rn_graph(3, set(), set(), order)
    for n in (-1, True):
        with pytest.raises(StructureError, match=f"count must be a non-negative int, got {n}"):
            make_rn_graph(n, set(), set())


def test_rank_before_status():
    g = make_rn_graph(3, {(2, 0)}, {(2, 1)}, order=(2, 0, 1))
    assert g.rank == (1, 2, 0)
    assert g.before(2, 0) and g.before(0, 1) and not g.before(1, 2)
    assert g.status(2, 0) == "R"
    assert g.status(2, 1) == "N"
    assert g.status(0, 1) == ""
    assert set(g.forward_pairs()) == {(2, 0), (2, 1), (0, 1)}


def test_poset_round_trip_and_completion():
    v = make_ordered_poset(3, {(0, 2), (1, 2)})
    rn = poset_to_complete_rn(v)
    assert rn.R == frozenset({(0, 2), (1, 2)})
    assert rn.N == frozenset({(0, 1)})
    assert is_complete(rn)
    back = rn_to_poset(rn)
    assert back.R == v.R and back.order == v.order

    a4 = poset_to_complete_rn(antichain(4))
    assert len(a4.N) == 6 and not a4.R


def test_fuse():
    g = make_rn_graph(3, {(0, 1)}, {(1, 2)})
    f = fuse(g)
    assert f.R == frozenset({(0, 1), (1, 2)})
    assert not f.N
    assert f.order == g.order


def test_incomplete_rn_to_poset_rejected():
    g = make_rn_graph(3, {(0, 1)}, set())
    assert not is_complete(g)
    with pytest.raises(StructureError):
        rn_to_poset(g)


def test_homomorphism_equality_ignores_endpoints():
    g = make_rn_graph(2, {(0, 1)}, set())
    h = make_rn_graph(2, {(0, 1)}, set(), order=(0, 1))
    assert Homomorphism((0, 1), g, g) == Homomorphism((0, 1), h, h)


def test_random_round_trips():
    rng = random.Random(101)
    for _ in range(200):
        g = random_rn(rng, 8)
        assert g.R.isdisjoint(g.N)
        for x, y in g.R | g.N:
            assert g.before(x, y)
    for _ in range(200):
        p = random_poset(rng, 6)
        rn = poset_to_complete_rn(p)
        assert is_complete(rn)
        assert rn_to_poset(rn) == p
