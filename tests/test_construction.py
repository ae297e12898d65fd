import dataclasses
import random

import pytest

from rnramsey import (
    BaseOracle,
    BuildLimits,
    ClosureIntersectsN,
    GlueConflict,
    NoCopiesOfB,
    TowerStage,
    TowerTooShort,
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
from rnramsey import construction, partite
from rnramsey.construction import amalgamate
from rnramsey.partite import product_construction
from helpers import random_coloring

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
    with pytest.raises(NoCopiesOfB):
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
    with pytest.raises(GlueConflict, match=r"pair \(0, 1\)"):
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
    with pytest.raises(GlueConflict, match="damaged copy 0"):
        amalgamate(p0, a_copy, product.apartite, product.lifts, BuildLimits())


def test_assemble_refuses_a_repeated_key():
    # two parts listing one key would silently share a vertex
    with pytest.raises(AssertionError, match="numbered 1 vertices, projected 2"):
        construction._assemble(C2, [["k"], ["k"]], C2, [["k", "k"]], 2)


def test_run_vacuous_when_pattern_absent():
    run = run_partite_construction(A3, C2, A2, BaseOracle())
    assert not run.steps
    assert run.picture == run.initial


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
    # vertex count bookkeeping: shared + copies * fresh
    for prev, step in ((run.initial, s1), (s1.picture, s2)):
        sub_n = step.subsystem.base.n
        used = len({fv for lift in step.product.lifts for fv in lift.map})
        expect = used + len(step.product.lifts) * (prev.base.n - sub_n)
        assert step.picture.base.n == expect


def test_pipeline_copy_maps_are_embeddings():
    run = run_partite_construction(
        C3, POINT, C2, BaseOracle(), ell=3, allow_truncated=True
    )
    prev = run.initial
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
    assert is_ell_rn(run.initial.base, 3)
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


def test_resource_guard_on_picture_size():
    with pytest.raises(Exception) as exc_info:
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
    assert res.lam == 3
    assert res.poset == make_ordered_poset(3, {(0, 1), (0, 2), (1, 2)})
    assert res.b_copies_before == 3
    assert res.b_copies_intact == 3
    assert res.b_copies_after == 3
    c_rn = poset_to_complete_rn(res.poset)
    assert check_arrow(c_rn, C2, POINT, 2).holds


def test_finish_requires_tall_enough_tower():
    tower = build_tower(chain(1), chain(2), 2, BaseOracle())
    with pytest.raises(TowerTooShort):
        finish(tower)


def test_build_tower_truncates_at_stage_two():
    # a ceiling in the oracle's search truncates the tower before its first stage
    v = make_ordered_poset(3, {(0, 2), (1, 2)})
    tower = build_tower(chain(1), v, 3, BaseOracle(candidate_budget=5))
    assert tower.stages == ()
    assert tower.truncated.startswith("stage 2: candidate budget (5) exhausted at size ")
    with pytest.raises(TowerTooShort, match=r"truncated at stage 2: candidate budget \(5\)"):
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
    with pytest.raises(ClosureIntersectsN):
        finish_stage(bad, 3, C2)


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
