import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnramsey import (
    BaseOracle,
    Copy,
    ResourceExceeded,
    antichain,
    chain,
    enumerate_copies,
    is_embedding,
    iter_copies,
    make_ordered_poset,
    make_rn_graph,
    poset_to_complete_rn,
    run_partite_construction,
)
from helpers import brute_closure, brute_copies, random_poset, random_rn


def test_empty_pattern_has_one_copy():
    empty = make_rn_graph(0, (), ())
    for target in (empty, poset_to_complete_rn(chain(3))):
        assert enumerate_copies(empty, target) == [Copy((), ())]


def test_chain_copy_counts_binomial():
    for n in range(1, 8):
        target = poset_to_complete_rn(chain(n))
        for k in range(1, n + 1):
            pattern = poset_to_complete_rn(chain(k))
            assert len(enumerate_copies(pattern, target)) == math.comb(n, k)


def test_enumeration_is_lexicographic_by_image():
    target = poset_to_complete_rn(chain(4))
    pattern = poset_to_complete_rn(chain(2))
    images = [c.image for c in enumerate_copies(pattern, target)]
    assert images == sorted(images)
    assert images[0] == (0, 1)


def test_copy_map_image_consistency():
    target = poset_to_complete_rn(chain(5))
    pattern = poset_to_complete_rn(chain(3))
    for copy in enumerate_copies(pattern, target):
        assert tuple(sorted(copy.map, key=lambda v: target.rank[v])) == copy.image
        assert is_embedding(copy.map, pattern, target)


def test_status_biconditional():
    # a V shape embeds in the 4-element poset with two minimal points below a 2-chain
    v = make_ordered_poset(3, {(0, 2), (1, 2)})
    big = make_ordered_poset(4, {(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)})
    vs = enumerate_copies(v, big)
    assert {c.image for c in vs} == {(0, 1, 2), (0, 1, 3)}
    # ... but not in the complete chain, whose pairs are all comparable
    assert not enumerate_copies(v, chain(4))


def test_rn_copies_respect_both_relations():
    pattern = make_rn_graph(2, set(), {(0, 1)})
    target = make_rn_graph(3, {(0, 1)}, {(0, 2), (1, 2)})
    assert {c.image for c in enumerate_copies(pattern, target)} == {(0, 2), (1, 2)}


def test_mixed_kinds_rejected():
    with pytest.raises(TypeError):
        enumerate_copies(chain(2), poset_to_complete_rn(chain(3)))


def test_is_embedding_negatives():
    c2 = poset_to_complete_rn(chain(2))
    c3 = poset_to_complete_rn(chain(3))
    a2 = poset_to_complete_rn(antichain(2))
    assert not is_embedding((0, 0), c2, c3)  # not injective
    assert not is_embedding((1, 0), c2, c3)  # order reversed
    assert not is_embedding((0, 1), a2, c3)  # N pair lands on an R pair


def test_limit_overflow():
    target = poset_to_complete_rn(chain(6))
    pattern = poset_to_complete_rn(chain(2))
    with pytest.raises(ResourceExceeded):
        enumerate_copies(pattern, target, limit=10)
    assert len(enumerate_copies(pattern, target, limit=15)) == 15


def test_iter_copies_is_lazy():
    target = poset_to_complete_rn(chain(6))
    pattern = poset_to_complete_rn(chain(2))
    gen = iter_copies(pattern, target)
    assert next(gen) == (0, 1)  # each copy as the target ranks of its image


def _agrees_with_brute_force(pattern, target):
    images = brute_copies(pattern, target)
    assert [c.image for c in enumerate_copies(pattern, target)] == images
    # is_embedding holds exactly for the injections that list a copy's image in
    # pattern order
    for vmap in itertools.permutations(range(target.n), pattern.n):
        in_order = tuple(vmap[v] for v in pattern.order)
        assert is_embedding(vmap, pattern, target) == (in_order in images)


def test_against_brute_force_corpus():
    rng = random.Random(21)
    for _ in range(150):
        target = random_rn(rng, 7)
        pattern = random_rn(rng, 3)
        _agrees_with_brute_force(pattern, target)
    for _ in range(100):
        target = random_poset(rng, 6)
        pattern = random_poset(rng, 3)
        _agrees_with_brute_force(pattern, target)


def test_pattern_larger_than_target():
    assert not enumerate_copies(chain(4), chain(3))


@st.composite
def rn_graphs(draw, max_n: int):
    """RN graph over a random order; each forward pair is R, N or absent."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    states = draw(st.lists(st.sampled_from("RN-"), min_size=len(pairs), max_size=len(pairs)))
    R = {p for p, s in zip(pairs, states) if s == "R"}
    N = {p for p, s in zip(pairs, states) if s == "N"}
    return make_rn_graph(n, R, N, order)


@st.composite
def posets(draw, max_n: int):
    """Closure of random forward pairs over a random order."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_ordered_poset(n, brute_closure([p for p, k in zip(pairs, keep) if k], n), order)


# Derandomized and without an example database, so every run tries the same cases.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(rn_graphs(4), rn_graphs(7))
def test_rows_agree_with_brute_force_on_rn_graphs(pattern, target):
    _agrees_with_brute_force(pattern, target)


@PROPERTY
@given(posets(4), posets(7))
def test_rows_agree_with_brute_force_on_posets(pattern, target):
    _agrees_with_brute_force(pattern, target)


def _image_digest(copies) -> str:
    return hashlib.sha256(json.dumps([list(c.image) for c in copies]).encode()).hexdigest()


def test_copy_order_is_pinned_on_a_large_picture():
    # One gluing round over chain(5) gives a 567-vertex picture, beyond brute force; the
    # counts and digests of the image sequences were recorded with the per-position scan
    # that the row masks replaced.
    point, c2 = poset_to_complete_rn(chain(1)), poset_to_complete_rn(chain(2))
    run = run_partite_construction(
        poset_to_complete_rn(chain(5)), point, c2, BaseOracle(), max_steps=1
    )
    picture = run.picture.base
    assert picture.n == 567
    copies = enumerate_copies(c2, picture)
    assert len(copies) == 350
    assert _image_digest(copies) == (
        "00acbb19768d4b032e5c9e0182b52c81c8d7478ee425ffde2f612d6adcabc21e"
    )
    # an R pair beside a vertex related to neither end: two absent pairs per copy
    edge_and_point = make_rn_graph(3, {(0, 1)}, set())
    copies = enumerate_copies(edge_and_point, picture)
    assert len(copies) == 78120
    assert _image_digest(copies) == (
        "8f3e9cf7eb0a73db917a5af69a83420c5c3484800cd044a6c56e8a433f1ceeb5"
    )
