import dataclasses
import hashlib
import itertools
import random

import pytest

from rnramsey import (
    BaseOracle,
    BuildLimits,
    CertificationFailed,
    Copy,
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
from rnramsey import arrow
from rnramsey.structures import induced_substructure
from helpers import (
    brute_arrow,
    brute_copies,
    brute_proper_coloring_exists,
    incidence_masks,
    random_coloring,
    random_rn,
)

C2 = poset_to_complete_rn(chain(2))
C3 = poset_to_complete_rn(chain(3))
POINT = poset_to_complete_rn(chain(1))


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


def test_slot_ceiling_fires_before_the_hypergraph_is_built(monkeypatch):
    # chain(24) has 2,024 copies of C3 and 10,626 of C4: past the ceiling, no masks,
    # and the Q-copies are not listed, only probed for one
    def no_incidence(*args):
        raise AssertionError("incidence built past the ceiling")

    listed = []

    def recording_enumerate_copies(pattern, target, *args, **kwargs):
        listed.append((pattern.n, target.n))
        return enumerate_copies(pattern, target, *args, **kwargs)

    monkeypatch.setattr(arrow, "_incidence", no_incidence)
    monkeypatch.setattr(arrow, "enumerate_copies", recording_enumerate_copies)
    with pytest.raises(ResourceExceeded, match="2024 P-copies is beyond the exact search "
                       "ceiling of 2000 slots"):
        check_arrow(_rn_chain(24), _rn_chain(4), C3, 2)
    assert listed == [(3, 24), (3, 4)]
    # with no Q-copy at all the verdict still FAILS, with the all-zero coloring
    a2 = poset_to_complete_rn(antichain(2))
    verdict = check_arrow(_rn_chain(24), a2, C3, 2)
    assert not verdict.holds and len(verdict.counterexample) == 2024
    assert {color for _, color in verdict.counterexample.assignment} == {0}
    # and a Q-copy that holds no P-copy still HOLDS vacuously
    assert check_arrow(_rn_chain(24), C2, C3, 2).holds


def test_time_budget_fires():
    # the search reads the clock every 4,096 nodes; this instance needs millions
    with pytest.raises(ResourceExceeded, match="time budget after 4096 nodes"):
        check_arrow(_rn_chain(12), _rn_chain(4), C3, 2, SearchLimits(time_budget=0))


def _search(n: int, q: int, p: int, r: int):
    """The exact search alone on chain(n) -> (chain(q))^chain(p)_r, with no pre-pass."""
    target, Q, P = (_rn_chain(k) for k in (n, q, p))
    p_copies, q_copies = enumerate_copies(P, target), enumerate_copies(Q, target)
    inc = arrow._incidence(p_copies, q_copies, enumerate_copies(P, Q))
    assignment, nodes = arrow._proper_coloring_search(inc, len(q_copies), r, SearchLimits())
    coloring = None if assignment is None else make_coloring(p_copies, assignment, r)
    return coloring, nodes


@pytest.mark.parametrize(
    "n, q, p, r, holds, nodes, digest",
    [
        (13, 5, 1, 3, True, 36_755, None),
        (6, 3, 2, 2, True, 987, None),
        (5, 3, 2, 2, False, 67, "b3ef70c8cf145198"),
        # the pre-pass finds these two, so no node is searched
        (9, 4, 2, 2, False, 0, "2b12129c0980ad59"),
        (7, 3, 2, 3, False, 0, "9ac378663ba7dda8"),
    ],
)
def test_search_tree_is_pinned(n, q, p, r, holds, nodes, digest):
    """Node counts and counterexample bytes are part of the contract: a change to the
    search's state that keeps its branch order keeps every one of these."""
    verdict = check_arrow(_rn_chain(n), _rn_chain(q), _rn_chain(p), r)
    assert (verdict.holds, verdict.nodes_explored) == (holds, nodes)
    if digest is not None:
        assert _digest(verdict.counterexample.assignment) == digest


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
        assignment, nodes = arrow._proper_coloring_search(inc, len(edges), r, SearchLimits())
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


def test_incidence_refuses_a_forged_q_copy():
    # 0<1<2 with the pair (0, 2) absent: C3's copy (0, 2) of C2 lands on a non-copy
    target = make_rn_graph(3, {(0, 1), (1, 2)}, ())
    p_copies = enumerate_copies(C2, target)
    forged = [Copy((0, 1, 2), (0, 1, 2))]
    with pytest.raises(AssertionError, match=r"maps a P-copy onto non-copy \(0, 2\)"):
        arrow._verdict(2, p_copies, forged, enumerate_copies(C2, C3), SearchLimits())


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


def test_oracle_enumeration_fallback():
    a2 = poset_to_complete_rn(antichain(2))
    w = oracle_ramsey(BaseOracle(), POINT, a2)
    assert w.source == "search:enumeration"
    assert w.graph.n == 3 and not w.graph.R and len(w.graph.N) == 3


def _recording_is_witness(monkeypatch) -> list:
    """Record every candidate that reaches certification."""
    certified = []
    is_witness = arrow._is_witness

    def recording(graph, *args):
        certified.append(graph)
        return is_witness(graph, *args)

    monkeypatch.setattr(arrow, "_is_witness", recording)
    return certified


def _covered(E, F) -> set:
    """The vertices of F that lie in some copy of E, by brute force."""
    return {v for image in brute_copies(E, F) for v in image}


def test_oracle_tries_each_candidate_once(monkeypatch):
    # the identity seed (the antichain itself) comes round again in the enumeration
    a2 = poset_to_complete_rn(antichain(2))
    certified = _recording_is_witness(monkeypatch)
    w = oracle_ramsey(BaseOracle(), POINT, a2)
    assert w.source == "search:enumeration" and w.graph.n == 3
    assert certified[0] == a2 and certified[-1] == w.graph
    assert len(certified) == len(set(certified)) == 5
    # only candidates with every vertex in a copy of E reach certification
    for F in certified:
        assert _covered(a2, F) == set(range(F.n))
    # the budget counts every candidate met, certified or skipped, but not the seed
    # met again: the seed, 1 + 2 smaller graphs and 14 of size 3
    assert oracle_ramsey(BaseOracle(candidate_budget=18), POINT, a2) == w
    with pytest.raises(ResourceExceeded):
        oracle_ramsey(BaseOracle(candidate_budget=17), POINT, a2)


def test_oracle_time_bound_caps_each_certification(monkeypatch):
    # one SearchLimits per query, built before the scan, whose time budget is the
    # oracle's: a certification cannot outrun --oracle-time-bound on its own budget
    received = []
    is_witness = arrow._is_witness

    def recording(graph, A, E, p_in_q, limits):
        received.append(limits)
        return is_witness(graph, A, E, p_in_q, limits)

    monkeypatch.setattr(arrow, "_is_witness", recording)
    oracle_ramsey(BaseOracle(time_bound=7.5), POINT, poset_to_complete_rn(antichain(2)))
    assert len(received) == 5 and all(limits is received[0] for limits in received)
    assert received[0] == SearchLimits(time_budget=7.5)


def test_oracle_certifies_a_pinned_number_of_candidates(monkeypatch):
    # the tower point v query: a deterministic count of the filter's work, which a
    # timing could hide; the budget stop names how far the scan got
    v = poset_to_complete_rn(make_ordered_poset(3, {(0, 2), (1, 2)}))
    certified = _recording_is_witness(monkeypatch)
    with pytest.raises(
        ResourceExceeded,
        match=r"^candidate budget \(60000\) exhausted at size 6: 1068 certified, "
        r"58932 skipped by the minimal-witness lemma$",
    ):
        oracle_ramsey(BaseOracle(), POINT, v)
    assert len(certified) == 1068 and certified[0] == v


def test_oracle_exhaustion_and_budget():
    with pytest.raises(NotFoundWithinBounds):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, C2)
    # the size pre-guard fires before any enumeration
    with pytest.raises(NotFoundWithinBounds):
        oracle_ramsey(BaseOracle(size_bound=2), POINT, C3)
    a2 = poset_to_complete_rn(antichain(2))
    # the seed, then graphs of sizes 1, 2 (one is the seed, passed over) and 3
    with pytest.raises(
        ResourceExceeded,
        match=r"^candidate budget \(5\) exhausted at size 3: "
        r"1 certified, 4 skipped by the minimal-witness lemma$",
    ):
        oracle_ramsey(BaseOracle(candidate_budget=5), POINT, a2)
    # E has an N pair, so all three pair states are tried, and the text names that family
    with pytest.raises(
        NotFoundWithinBounds, match="^no witness among all candidates up to 2 vertices$"
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
    ceiling = "2001 P-copies is beyond the exact search ceiling of 2000 slots"
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


def test_one_vertex_extension_coverage():
    # the extension's coverage of prefix + column is the union of the E-copy images
    # of the whole candidate, listed by brute force
    rng = random.Random(36)
    full = 0
    for states in ("RN-", "R-"):
        for _ in range(300):
            E = random_rn(rng, 4)
            if states == "R-":
                E = fuse(E)
            F = _random_identity_graph(rng, rng.randint(1, 6), states)
            top = F.n - 1
            column = tuple(sum(1 << i for i, j in rel if j == top) for rel in (F.R, F.N))
            e_minus = induced_substructure(E, E.order[:-1])
            cover, extensions = arrow._extension(E, e_minus, _without(F, top))
            expected = _covered(E, F)
            assert arrow._coverage(cover, extensions, column, 1 << top) == sum(
                1 << v for v in expected
            )
            full += len(expected) == F.n
    assert full >= 200


def test_scan_runs_in_column_order():
    # with E a single vertex every candidate is covered, so the scan yields them all
    for states, reference in ((("R", "N", ""), "RN-"), (("R", ""), "R-")):
        scan = arrow._enumerated_candidates(POINT, 4, states)
        assert [F for _, F in scan] == list(_identity_graphs(4, reference))
    # otherwise a candidate comes as None exactly when a vertex of it is in no copy of E
    a2 = poset_to_complete_rn(antichain(2))
    scan = arrow._enumerated_candidates(a2, 4, ("R", "N", ""))
    expected = [
        (F.n, F if _covered(a2, F) == set(range(F.n)) else None) for F in _identity_graphs(4)
    ]
    assert list(scan) == expected


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
        assert w.source == "search:enumeration"
        if E.N:
            assert w.graph == witnesses[0]
        else:
            assert w.graph == next(F for F in witnesses if not F.N)
            assert w.graph.n <= witnesses[0].n
