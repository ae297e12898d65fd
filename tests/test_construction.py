import dataclasses
import itertools
import random
from types import SimpleNamespace

import pytest

from rnramsey import (
    BaseOracle,
    BuildLimits,
    InvariantViolation,
    ResourceExceeded,
    StructureError,
    TowerStage,
    antichain,
    build_picture_zero,
    build_tower,
    certify_witness,
    chain,
    check_arrow,
    check_homomorphism,
    enumerate_copies,
    find_monochromatic,
    finish,
    finish_index,
    finish_stage,
    induced_subsystem,
    is_embedding,
    is_ell_rn,
    is_good,
    load_structure,
    make_coloring,
    make_ordered_poset,
    make_rn_graph,
    poset_to_complete_rn,
    run_partite_construction,
    save_structure,
)
from rnramsey import arrow, construction, partite
from rnramsey.construction import amalgamate
from rnramsey.partite import product_construction
from helpers import brute_closure, random_coloring

POINT = poset_to_complete_rn(chain(1))
C2 = poset_to_complete_rn(chain(2))
C3 = poset_to_complete_rn(chain(3))
A2 = poset_to_complete_rn(antichain(2))
A3 = poset_to_complete_rn(antichain(3))


def test_picture_zero_chain_example():
    p0 = build_picture_zero(C3, C2)
    assert p0.base.n == 6
    assert [len(part) for part in p0.parts] == [2, 2, 2]
    assert len(p0.base.R) == 3 and not p0.base.N
    assert is_good(p0.base)
    assert check_homomorphism(p0.f)
    # three vertex-disjoint copies, each an embedding of B
    copies = enumerate_copies(C2, p0.base)
    assert len(copies) == 3
    seen = set()
    for c in copies:
        assert not (set(c.image) & seen)
        seen |= set(c.image)


def test_picture_zero_single_copy_is_host():
    p0 = build_picture_zero(C3, C3)
    assert p0.base.n == 3
    assert p0.base.R == C3.R and p0.base.N == C3.N
    assert [len(part) for part in p0.parts] == [1, 1, 1]


def test_picture_zero_antichain_example():
    p0 = build_picture_zero(A3, A2)
    assert p0.base.n == 6
    assert [len(part) for part in p0.parts] == [2, 2, 2]
    assert not p0.base.R and len(p0.base.N) == 3


def test_picture_zero_no_copies():
    with pytest.raises(StructureError, match="carries no copy of the pattern"):
        build_picture_zero(A3, C2)


def test_induced_subsystem_examples():
    p0 = build_picture_zero(C3, C2)
    a_copies = enumerate_copies(C2, C3)
    sub = induced_subsystem(p0, C2, a_copies[2])  # the copy on host vertices {1, 2}
    assert [len(part) for part in sub.parts] == [2, 2]
    assert len(sub.base.R) == 1 and not sub.base.N
    # a single-part subsystem under a point is edgeless
    point_copies = enumerate_copies(POINT, C3)
    sub0 = induced_subsystem(p0, POINT, point_copies[0])
    assert sub0.base.n == 2 and not sub0.base.R and not sub0.base.N
    # a copy covering every part re-types the whole picture
    p0_self = build_picture_zero(C3, C3)
    whole = induced_subsystem(p0_self, C3, enumerate_copies(C3, C3)[0])
    assert whole.base.n == p0_self.base.n
    assert whole.base.R == p0_self.base.R


def test_amalgamate_single_lift_is_isomorphic():
    p0 = build_picture_zero(C2, C2)
    a_copy = enumerate_copies(C2, C2)[0]
    sub = induced_subsystem(p0, C2, a_copy)
    product = product_construction(C2, sub, BaseOracle())
    assert len(product.lifts) == 1
    p1, _ = amalgamate(p0, a_copy, product.apartite, product.lifts, BuildLimits())
    assert p1.base.n == p0.base.n
    assert p1.base.R == p0.base.R and p1.base.N == p0.base.N


def test_amalgamate_disjoint_lifts_double_the_picture(tmp_path, monkeypatch):
    # the search never returns this witness, so the oracle is made to answer with it
    p0 = build_picture_zero(C2, C2)
    a_copy = enumerate_copies(C2, C2)[0]
    sub = induced_subsystem(p0, C2, a_copy)
    witness = make_rn_graph(4, {(0, 1), (2, 3)}, set())
    path = tmp_path / "w.json"
    save_structure(path, witness)
    monkeypatch.setattr(
        partite, "oracle_ramsey", lambda _, A, E: certify_witness(load_structure(path), A, E)
    )
    product = product_construction(C2, sub, BaseOracle())
    assert product.certified and len(product.lifts) == 2
    images = [set(l.image) for l in product.lifts]
    assert not (images[0] & images[1])
    p1, _ = amalgamate(p0, a_copy, product.apartite, product.lifts, BuildLimits())
    assert p1.base.n == 2 * p0.base.n
    assert len(p1.base.R) == 2 and not p1.base.N
    assert is_good(p1.base)


def test_glue_refuses_a_pair_in_both_relations():
    # the second map swaps vertices 1 and 2, so each relation lands on the other's pair
    structure = make_rn_graph(3, {(0, 1)}, {(0, 2)})
    with pytest.raises(InvariantViolation, match=r"copies disagree on pair \(0, 1\)"):
        construction._glue(3, structure, [(0, 1, 2), (0, 2, 1)])


def _lost_pair(n, R, N):
    return R - {min(R)}, N


def _lost_n_pair(n, R, N):
    return R, N - {min(N)}


def _extra_pair(n, R, N):
    spare = min((x, y) for x in range(n) for y in range(x + 1, n) if (x, y) not in R | N)
    return R | {spare}, N


@pytest.mark.parametrize(
    "D, B, damage",
    [(C3, C2, _lost_pair), (A2, A2, _lost_n_pair), (C3, C2, _extra_pair)],
    ids=["lost R pair", "lost N pair", "extra R pair"],
)
def test_amalgamate_recheck_catches_a_damaged_copy(monkeypatch, D, B, damage):
    p0 = build_picture_zero(D, B)
    a_copy = enumerate_copies(B, D)[0]
    sub = induced_subsystem(p0, B, a_copy)
    product = product_construction(B, sub, BaseOracle())
    assert len(product.lifts) == 1
    glue = construction._glue

    def damaged_glue(n, structure, vmaps):
        glued = glue(n, structure, vmaps)
        R, N = damage(n, set(glued.R), set(glued.N))
        return make_rn_graph(n, R, N)

    monkeypatch.setattr(construction, "_glue", damaged_glue)
    with pytest.raises(InvariantViolation, match="gluing damaged copy 0"):
        amalgamate(p0, a_copy, product.apartite, product.lifts, BuildLimits())


def test_assemble_refuses_a_repeated_key():
    # two parts listing one key would silently share a vertex
    with pytest.raises(AssertionError, match="numbered 1 vertices, projected 2"):
        construction._assemble(C2, [["k"], ["k"]], C2, [["k", "k"]], 2)


def test_run_vacuous_when_pattern_absent():
    run = run_partite_construction(A3, C2, A2, BaseOracle())
    assert not run.steps
    assert run.picture == build_picture_zero(A3, A2)


def test_point_chain_pipeline_documented_blowup():
    run = run_partite_construction(
        C3, POINT, C2, BaseOracle(), ell=3, allow_truncated=True
    )
    assert len(run.steps) == 2
    s1, s2 = run.steps
    assert s1.picture.base.n == 15
    assert [len(p) for p in s1.picture.parts] == [3, 6, 6]
    assert len(s1.product.lifts) == 3 and s1.product.base_witness.n == 3
    assert s2.picture.base.n == 4169
    assert [len(p) for p in s2.picture.parts] == [1386, 11, 2772]
    assert len(s2.product.lifts) == 462 and s2.product.base_witness.n == 11
    assert run.truncated and "2772" in run.truncated
    assert all(step.product.certified for step in run.steps)
    # vertex count bookkeeping: shared + copies * fresh; round j's copy of the point
    # selects part j, so the sub-picture is that part of the previous picture
    for j, (prev, step) in enumerate(((build_picture_zero(C3, C2), s1), (s1.picture, s2))):
        sub_n = len(prev.parts[j])
        used = len({fv for lift in step.product.lifts for fv in lift.map})
        expect = used + len(step.product.lifts) * (prev.base.n - sub_n)
        assert step.picture.base.n == expect


def test_pipeline_copy_maps_are_embeddings():
    run = run_partite_construction(
        C3, POINT, C2, BaseOracle(), ell=3, allow_truncated=True
    )
    prev = build_picture_zero(C3, C2)
    for step in run.steps:
        for vmap in step.copy_maps:
            assert is_embedding(vmap, prev.base, step.picture.base)
            # the collapse of the new picture restricted to a copy matches the old
            for x in range(prev.base.n):
                assert step.picture.f.map[vmap[x]] == prev.f.map[x]
        prev = step.picture


def test_pipeline_preserves_ell_freedom_per_step():
    run = run_partite_construction(
        C3, POINT, C2, BaseOracle(), ell=3, allow_truncated=True
    )
    assert is_ell_rn(build_picture_zero(C3, C2).base, 3)
    for step in run.steps:
        assert is_ell_rn(step.picture.base, 3)
        assert is_good(step.picture.base)


def test_two_chain_pipeline_completes():
    tower2 = build_tower(chain(2), chain(2), 2, BaseOracle())
    d = tower2.stages[0].C
    run = run_partite_construction(d, C2, C2, BaseOracle(), ell=3)
    assert all(step.product.certified for step in run.steps) and not run.truncated
    assert run.picture.base.n == 2
    for step in run.steps:
        assert is_ell_rn(step.picture.base, 3)


def test_nful_pipeline_over_antichains():
    oracle = BaseOracle()
    tower = build_tower(chain(1), antichain(2), 3, oracle)
    c2_stage = tower.stages[0]
    assert c2_stage.C.n == 3 and len(c2_stage.C.N) == 3 and not c2_stage.C.R
    run = run_partite_construction(
        c2_stage.C, POINT, A2, oracle, ell=3, allow_truncated=True
    )
    assert len(run.steps) >= 1
    first = run.steps[0].picture.base
    assert first.N and not first.R
    assert is_ell_rn(first, 3)
    # the tower itself stabilizes: an R-free graph has no quasicycles at all
    assert tower.stages[1].stabilized
    res = finish(tower)
    assert res.poset.R == frozenset()
    assert res.b_copies_before == res.b_copies_intact == 3


@pytest.mark.parametrize(
    "steps, text",
    [
        (-1, "must be non-negative, got -1"),  # once ran 2 of the 3 rounds
        (-2, "must be non-negative, got -2"),  # once ran 1 round
        (True, "must be an int, got True"),  # once ran 1 round
        (1.0, "must be an int, got 1.0"),
    ],
)
def test_max_steps_is_a_count(steps, text):
    with pytest.raises(ValueError, match=f"^max_steps {text}$"):
        run_partite_construction(C3, POINT, C2, BaseOracle(), max_steps=steps)
    # 0 runs no round, 1 the first of the 3
    assert run_partite_construction(C3, POINT, C2, BaseOracle(), max_steps=0).steps == ()
    run = run_partite_construction(C3, POINT, C2, BaseOracle(), max_steps=1)
    assert len(run.steps) == 1 and run.picture.base.n == 15


def test_resource_guard_on_picture_size():
    with pytest.raises(ResourceExceeded) as exc_info:
        run_partite_construction(
            C3, POINT, C2, BaseOracle(), limits=BuildLimits(max_picture_vertices=10)
        )
    assert "ceiling" in str(exc_info.value)


def test_build_tower_frozen_example():
    tower = build_tower(chain(1), chain(2), 3, BaseOracle())
    assert len(tower.stages) == 2
    s2, s3 = tower.stages
    assert s2.ell == 2 and s2.C == poset_to_complete_rn(chain(3))
    assert tower.certified and s2.source == "search:chain"
    assert [f.name for f in dataclasses.fields(TowerStage)] == ["ell", "C", "h_down", "source"]
    assert s3.stabilized and s3.C == s2.C
    assert check_homomorphism(s3.h_down)
    assert check_homomorphism(tower.composed_map(3))
    assert not tower.truncated
    # complete RN inputs give the same tower
    assert build_tower(POINT, C2, 3, BaseOracle()) == tower


def test_build_tower_single_stage_and_validation():
    tower = build_tower(chain(1), chain(2), 2, BaseOracle())
    assert len(tower.stages) == 1
    with pytest.raises(ValueError):
        build_tower(chain(1), chain(2), 1, BaseOracle())
    with pytest.raises(TypeError, match="must be an OrderedPoset or a complete RNGraph"):
        build_tower(POINT, C2.R, 2, BaseOracle())


def test_build_tower_no_stabilize_hits_the_wall():
    tower = build_tower(chain(1), chain(2), 3, BaseOracle(), stabilize=False)
    assert len(tower.stages) == 1
    assert tower.truncated and "stage 3" in tower.truncated


def test_build_tower_no_stabilize_small_instance():
    tower = build_tower(chain(2), chain(2), 3, BaseOracle(), stabilize=False)
    assert not tower.truncated
    assert not tower.stages[1].stabilized
    assert tower.stages[1].source == "construction"
    assert tower.stages[1].C.n == 2
    assert check_homomorphism(tower.composed_map(3))


def test_finish_point_chain():
    tower = build_tower(chain(1), chain(2), 3, BaseOracle())
    res = finish(tower)
    assert finish_index(tower.stages[0].C) == 3
    assert res.poset == make_ordered_poset(3, {(0, 1), (0, 2), (1, 2)})
    assert res.b_copies_before == 3
    assert res.b_copies_intact == 3
    assert res.b_copies_after == 3
    c_rn = poset_to_complete_rn(res.poset)
    assert check_arrow(c_rn, C2, POINT, 2).holds


def _small_posets(n: int) -> list:
    """Every naturally labelled poset on n vertices: each transitive set of forward
    pairs on the identity order."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    subsets = (
        {p for p, bit in zip(pairs, bits) if bit}
        for bits in itertools.product((1, 0), repeat=len(pairs))
    )
    return [make_ordered_poset(n, R) for R in subsets if brute_closure(R, n) == R]


def test_every_pair_up_to_three_vertices_closes():
    # the 21 pairs A in B, A != B, |A| <= 2, |B| <= 3: a poset witness at stage 2,
    # every later stage stabilized, and the finished poset arrows B over A exactly
    pairs = [
        (A, B)
        for A in _small_posets(1) + _small_posets(2)
        for B in _small_posets(2) + _small_posets(3)
        if A.n < B.n and enumerate_copies(A, B)
    ]
    assert len(pairs) == 21
    sizes = []
    for A, B in pairs:
        tower = build_tower(A, B, 7, BaseOracle())
        assert tower.certified and not tower.truncated
        assert tower.stages[0].source.startswith("search:")
        assert all(stage.stabilized for stage in tower.stages[1:])
        res = finish(tower)
        sizes.append(finish_index(tower.stages[0].C))
        c_rn, a_rn, b_rn = (poset_to_complete_rn(x) for x in (res.poset, A, B))
        assert check_arrow(c_rn, b_rn, a_rn, 2).holds
    # the two B = {0<2} pairs need 7-vertex witnesses
    assert sorted(sizes) == [3] * 7 + [4] * 4 + [5] * 2 + [6] * 6 + [7] * 2


def test_finish_requires_tall_enough_tower():
    tower = build_tower(chain(1), chain(2), 2, BaseOracle())
    with pytest.raises(StructureError, match="needs stage 3, tower ends at stage 2"):
        finish(tower)


def test_build_tower_truncates_at_stage_two():
    # a ceiling in the oracle's search truncates the tower before its first stage
    v = make_ordered_poset(3, {(0, 2), (1, 2)})
    tower = build_tower(chain(1), v, 3, BaseOracle(candidate_budget=5))
    assert tower.stages == ()
    assert tower.truncated.startswith("stage 2: candidate budget (5) exhausted at size ")
    with pytest.raises(StructureError, match=r"truncated at stage 2: candidate budget \(5\)"):
        finish(tower)
    # the oracle's bounded search running dry is a ceiling too
    tower = build_tower(chain(1), v, 3, BaseOracle(size_bound=2))
    assert tower.stages == ()
    assert tower.truncated == (
        "stage 2: every witness contains a copy of the 3-vertex pattern, "
        "beyond the size bound 2"
    )


def test_finish_stage_closure_conflict():
    bad = make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)})
    with pytest.raises(InvariantViolation, match=r"closure meets N at \(0, 2\)"):
        finish_stage(bad, 3, C2)


def _copies_miscomposed(monkeypatch):
    # inside each Q-copy the extractor finds no P-copy, where Q itself holds one
    edgeless = lambda target, image: make_rn_graph(len(image), (), ())
    monkeypatch.setattr(arrow, "induced_substructure", edgeless)
    coloring = make_coloring(enumerate_copies(C2, C3), [0, 0, 0], 2)
    run = lambda: find_monochromatic(C3, coloring, C2, C2)
    return run, "^copy composition mismatch$"


def _bad_starting_picture(monkeypatch):
    monkeypatch.setattr(construction, "is_ell_rn", lambda graph, ell: False)
    run = lambda: run_partite_construction(C2, C2, C2, BaseOracle(), ell=3)
    return run, "^a good starting picture cannot fail this$"


def _stage_not_free(monkeypatch):
    stub = SimpleNamespace(picture=SimpleNamespace(base=C2))
    monkeypatch.setattr(construction, "run_partite_construction", lambda *args, **kw: stub)
    monkeypatch.setattr(construction, "is_ell_rn", lambda graph, ell: False)
    run = lambda: build_tower(chain(1), chain(2), 3, BaseOracle(), stabilize=False)
    return run, "^completed stage failed its freedom check$"


def _map_down_broken(monkeypatch):
    monkeypatch.setattr(construction, "check_homomorphism", lambda h: False)
    run = lambda: build_tower(chain(1), chain(2), 3, BaseOracle())
    return run, "^the map down from stage 3 is not a homomorphism$"


def _lift_not_an_embedding(monkeypatch):
    pattern = partite.make_apartite(C2, make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
    monkeypatch.setattr(partite, "is_embedding", lambda *args: False)
    run = lambda: product_construction(C2, pattern, BaseOracle())
    return run, r"^lift of witness copy \(0, 1\) is not an embedding$"


def _parts_reversed(monkeypatch):
    pattern = partite.make_apartite(C2, make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
    monkeypatch.setattr(
        partite, "make_apartite",
        lambda A, base, parts: partite.APartiteRNGraph(A, base, tuple(parts)[::-1]),
    )
    run = lambda: product_construction(C2, pattern, BaseOracle())
    return run, r"lift of witness copy \(0, 1\) moved a part"


def _bad_picture_zero(monkeypatch):
    monkeypatch.setattr(construction, "is_good", lambda graph: False)
    run = lambda: build_picture_zero(C3, C2)
    return run, "disjoint copies of a good pattern must form a good graph"


def _no_freedom_after_the_start(monkeypatch):
    answers = iter([True])  # the starting picture passes, every round fails
    monkeypatch.setattr(construction, "is_ell_rn", lambda graph, ell: next(answers, False))
    run = lambda: run_partite_construction(C2, C2, C2, BaseOracle(), ell=3)
    return run, "round 0 lost 3-freedom; the gluing argument is violated"


def _stage_without_the_pattern(monkeypatch):
    stub = SimpleNamespace(picture=SimpleNamespace(base=POINT))  # 3-free, and no C2
    monkeypatch.setattr(construction, "run_partite_construction", lambda *args, **kw: stub)
    run = lambda: build_tower(chain(1), chain(2), 3, BaseOracle(), stabilize=False)
    return run, "completed stage lost every copy of the pattern"


def _long_r_path(monkeypatch):
    monkeypatch.setattr(construction, "longest_r_path_vertices", lambda graph: 3)
    run = lambda: finish_stage(C2, 2, C2)
    return run, "an R-path on 3 vertices contradicts the collapse onto stage 2"


def _copy_broken_by_closure(monkeypatch):
    monkeypatch.setattr(construction, "is_embedding", lambda *args: False)
    run = lambda: finish_stage(C2, 2, C2)
    return run, "closure added a pair inside a pattern copy"


@pytest.mark.parametrize(
    "damage",
    [
        _parts_reversed,
        _bad_picture_zero,
        _no_freedom_after_the_start,
        _stage_without_the_pattern,
        _long_r_path,
        _copy_broken_by_closure,
        _copies_miscomposed,
        _bad_starting_picture,
        _stage_not_free,
        _map_down_broken,
        _lift_not_an_embedding,
    ],
    ids=lambda damage: damage.__name__.strip("_"),
)
def test_invariant_checks_fire(monkeypatch, damage):
    # each check guards a step the construction's lemmas promise; a damaged step trips it
    run, message = damage(monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        run()


def test_extractor():
    tower = build_tower(chain(1), chain(2), 3, BaseOracle())
    target = tower.stages[-1].C
    copies = enumerate_copies(POINT, target)
    constant = make_coloring(copies, [0] * len(copies), 2)
    copy = find_monochromatic(target, constant, C2, POINT)
    assert copy.image == (0, 1)
    rng = random.Random(55)
    for _ in range(100):
        coloring = random_coloring(target, POINT, 2, rng)
        assert find_monochromatic(target, coloring, C2, POINT) is not None
    # and so has every coloring: the exact search finds no counterexample
    assert check_arrow(target, C2, POINT, 2).holds
    # a defeated instance has none
    c5 = poset_to_complete_rn(chain(5))
    verdict = check_arrow(c5, C3, C2, 2)
    assert find_monochromatic(c5, verdict.counterexample, C3, C2) is None


def test_extractor_accepts_pictures():
    p0 = build_picture_zero(C3, C2)
    copies = enumerate_copies(C2, p0.base)
    coloring = make_coloring(copies, [1] * len(copies), 2)
    copy = find_monochromatic(p0.base, coloring, C2, C2)
    assert copy.image == copies[0].image
