import itertools
import random

import pytest

from rnramsey import (
    BaseOracle,
    CertificationFailed,
    NotFoundWithinBounds,
    ResourceExceeded,
    SearchLimits,
    antichain,
    chain,
    check_arrow,
    enumerate_copies,
    find_monochromatic,
    fuse,
    greedy_adversarial_coloring,
    load_structure,
    make_coloring,
    make_rn_graph,
    oracle_ramsey,
    poset_to_complete_rn,
    random_coloring,
    save_structure,
)
from rnramsey import arrow
from helpers import brute_arrow, random_rn

C2 = poset_to_complete_rn(chain(2))
C3 = poset_to_complete_rn(chain(3))
POINT = poset_to_complete_rn(chain(1))


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


def test_monochromatic_copy_accessor():
    target = poset_to_complete_rn(chain(6))
    verdict = check_arrow(target, C3, C2, 2)
    rng = random.Random(33)
    for _ in range(20):
        coloring = random_coloring(target, C2, 2, rng)
        copy = verdict.monochromatic_copy(coloring)
        inner = enumerate_copies(C2, target)
        colors = {coloring.of(c) for c in inner if set(c.image) <= set(copy.image)}
        assert len(colors) == 1
    failing = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    with pytest.raises(ValueError):
        failing.monochromatic_copy(coloring)


def test_resource_limits():
    target = poset_to_complete_rn(chain(6))
    with pytest.raises(ResourceExceeded):
        check_arrow(target, C3, C2, 2, SearchLimits(max_nodes=5))
    with pytest.raises(ResourceExceeded):
        check_arrow(target, C3, C2, 2, SearchLimits(max_copies=3))


def test_verdict_deterministic():
    a = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    b = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    assert a.counterexample == b.counterexample


def test_coloring_helpers():
    target = poset_to_complete_rn(chain(4))
    copies = enumerate_copies(C2, target)
    coloring = make_coloring(copies, list(range(len(copies))), len(copies))
    for copy in copies:
        assert coloring.of(copy) == coloring.of(copy.image)
    rng1 = random_coloring(target, C2, 2, random.Random(5))
    rng2 = random_coloring(target, C2, 2, random.Random(5))
    assert rng1 == rng2
    adv1 = greedy_adversarial_coloring(target, C3, C2, 2)
    adv2 = greedy_adversarial_coloring(target, C3, C2, 2)
    assert adv1 == adv2 and len(adv1) == len(copies)


def test_find_monochromatic_requires_total_coloring():
    target = poset_to_complete_rn(chain(4))
    copies = enumerate_copies(C2, target)
    # drop the pair (0,1): the very first chain(3) copy must consult it
    partial = make_coloring(copies[1:], [0] * (len(copies) - 1), 2)
    with pytest.raises(ValueError):
        find_monochromatic(target, partial, C3, C2)


def test_oracle_seed_families():
    oracle = BaseOracle()
    w = oracle_ramsey(oracle, POINT, C2)
    assert w.graph == poset_to_complete_rn(chain(3)) and w.certified
    assert w.source == "search:chain"
    assert oracle_ramsey(oracle, POINT, POINT).graph.n == 1
    w2 = oracle_ramsey(oracle, C2, C3)
    assert w2.graph == poset_to_complete_rn(chain(6))
    edgeless = make_rn_graph(3, set(), set())
    w3 = oracle_ramsey(oracle, POINT, edgeless)
    assert w3.source == "search:pigeonhole" and w3.graph.n == 5


def test_oracle_enumeration_fallback():
    a2 = poset_to_complete_rn(antichain(2))
    w = oracle_ramsey(BaseOracle(), POINT, a2)
    assert w.source == "search:enumeration"
    assert w.graph.n == 3 and not w.graph.R and len(w.graph.N) == 3


def test_oracle_tries_each_candidate_once(monkeypatch):
    # the identity seed (the antichain itself) comes round again in the enumeration
    a2 = poset_to_complete_rn(antichain(2))
    tried = []

    def recording_enumerate_copies(pattern, target, *args, **kwargs):
        # every candidate is decided by listing its copies of the pattern E first
        if pattern == a2:
            tried.append((target.n, target.R, target.N))
        return enumerate_copies(pattern, target, *args, **kwargs)

    monkeypatch.setattr(arrow, "enumerate_copies", recording_enumerate_copies)
    w = oracle_ramsey(BaseOracle(), POINT, a2)
    assert w.source == "search:enumeration" and w.graph.n == 3
    assert tried[0] == (2, a2.R, a2.N)
    assert len(tried) == len(set(tried)) == 18
    # the budget counts exactly the candidates tried
    assert oracle_ramsey(BaseOracle(candidate_budget=18), POINT, a2) == w
    with pytest.raises(ResourceExceeded):
        oracle_ramsey(BaseOracle(candidate_budget=17), POINT, a2)


def test_oracle_exhaustion_and_budget():
    with pytest.raises(NotFoundWithinBounds):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, C2)
    # the size pre-guard fires before any enumeration
    with pytest.raises(NotFoundWithinBounds):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, C3)
    a2 = poset_to_complete_rn(antichain(2))
    with pytest.raises(ResourceExceeded):
        oracle_ramsey(BaseOracle(candidate_budget=5), POINT, a2)


def test_oracle_assume_and_file_modes(tmp_path):
    witness = poset_to_complete_rn(chain(6))
    w = oracle_ramsey(BaseOracle(mode="assume", witness=witness), C2, C3)
    assert not w.certified and w.source == "assume"
    path = tmp_path / "w.json"
    save_structure(path, witness)
    w2 = oracle_ramsey(BaseOracle(mode="file", witness=load_structure(path)), C2, C3)
    assert w2.certified and w2.graph == witness
    bad = tmp_path / "bad.json"
    save_structure(bad, poset_to_complete_rn(chain(5)))
    with pytest.raises(CertificationFailed):
        oracle_ramsey(BaseOracle(mode="file", witness=load_structure(bad)), C2, C3)


def _identity_graphs(max_n: int):
    """Every graph on the identity order with up to max_n vertices, by size, pair
    states R, N, absent, earliest pair most significant: the reference 3-state scan,
    written apart from the oracle's enumerator."""
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for assignment in itertools.product("RN-", repeat=len(pairs)):
            R = [p for p, s in zip(pairs, assignment) if s == "R"]
            N = [p for p, s in zip(pairs, assignment) if s == "N"]
            yield make_rn_graph(n, R, N)


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


def test_oracle_loop_agrees_with_check_arrow():
    # A is a complete R-chain throughout, so the N-free queries are those with E.N empty
    queries = [
        (POINT, poset_to_complete_rn(antichain(2))),
        (C2, make_rn_graph(3, {(0, 1), (0, 2)}, {(1, 2)})),
        (C2, make_rn_graph(3, {(0, 1), (0, 2)}, ())),
        (C2, make_rn_graph(3, {(0, 2), (1, 2)}, ())),
        (POINT, make_rn_graph(3, {(0, 1)}, ())),
    ]
    for A, E in queries:
        p_in_q = enumerate_copies(A, E)
        witnesses = []
        for F in _identity_graphs(4):
            holds = check_arrow(F, E, A, 2).holds
            assert arrow._is_witness(F, A, E, p_in_q, SearchLimits()) == holds
            if holds:
                witnesses.append(F)
        if not witnesses:
            with pytest.raises(NotFoundWithinBounds, match="N-free candidates"):
                oracle_ramsey(BaseOracle(size_bound=4), A, E)
            continue
        w = oracle_ramsey(BaseOracle(size_bound=4), A, E)
        assert w.source == "search:enumeration" and w.certified
        if E.N:
            assert w.graph == witnesses[0]
        else:
            assert w.graph == next(F for F in witnesses if not F.N)
            assert w.graph.n <= witnesses[0].n
