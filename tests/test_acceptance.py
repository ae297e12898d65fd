"""Acceptance gate: eight checks, one printed PASS line each (run with -s to see them).

Every tolerance is pinned in the assert that enforces it; nothing here is
statistical beyond the seeded corpora, and every seed is fixed below.
"""

import itertools
import random
import time

from rnramsey import (
    BaseOracle,
    antichain,
    build_tower,
    chain,
    check_arrow,
    enumerate_copies,
    find_bad_quasicycle,
    find_monochromatic,
    finish,
    finish_index,
    is_ell_rn,
    is_good,
    make_apartite,
    make_rn_graph,
    poset_to_complete_rn,
    run_partite_construction,
    save_structure,
    transitive_closure,
)
from rnramsey.cli import main
from rnramsey.partite import product_relations
from rnramsey.structures import fuse
from rnramsey.embeddings import is_embedding

from helpers import (
    brute_bad_quasicycle_exists,
    random_apartite,
    random_coloring,
    random_rn,
)

POINT = poset_to_complete_rn(chain(1))
C2 = poset_to_complete_rn(chain(2))
C3 = poset_to_complete_rn(chain(3))


def test_criterion_1_ordered_ramsey_3_3():
    started = time.perf_counter()
    holds = check_arrow(poset_to_complete_rn(chain(6)), C3, C2, 2)
    fails = check_arrow(poset_to_complete_rn(chain(5)), C3, C2, 2)
    elapsed = time.perf_counter() - started
    assert holds.holds and holds.counterexample is None
    assert not fails.holds
    replay = find_monochromatic(
        poset_to_complete_rn(chain(5)), fails.counterexample, C3, C2
    )
    assert replay is None
    assert elapsed < 5.0
    print(
        f"\nCRITERION 1 PASS: chain(6) HOLDS, chain(5) FAILS with certified "
        f"counterexample, {elapsed:.2f}s < 5s"
    )


def test_criterion_2_goodness_and_monotonicity():
    rng = random.Random(0xACCE02)
    checked = 0
    for _ in range(1000):
        g = random_rn(rng, n_max=10)
        cycle = find_bad_quasicycle(g)
        search_good = cycle is None
        assert is_good(g) == search_good == (not brute_bad_quasicycle_exists(g))
        flags = [is_ell_rn(g, ell) for ell in range(2, 12)]
        for early, late in zip(flags, flags[1:]):
            assert early or not late
        for ell, flag in zip(range(2, 12), flags):
            assert flag == (cycle is None or ell < len(cycle))
        checked += 1
    assert checked >= 1000
    print(
        f"\nCRITERION 2 PASS: {checked} seeded RN graphs, goodness agrees across "
        f"closure/search/brute routes, ell-freedom monotone"
    )


def test_criterion_3_partite_shape():
    rng = random.Random(0xFAC703)
    checked = 0
    for _ in range(500):
        ap = random_apartite(rng, p_max=4, part_max=3)
        g = ap.base
        for x, y in itertools.chain(g.R, g.N):
            tx, ty = ap.part_of[x], ap.part_of[y]
            assert tx != ty
            assert tx < ty
            assert ap.A.status(ap.A.order[tx], ap.A.order[ty]) == g.status(x, y)
        for copy in enumerate_copies(ap.A, g):
            hit = [ap.part_of[v] for v in copy.image]
            assert sorted(hit) == list(range(ap.A.n))
        assert is_good(g)
        checked += 1
    assert checked >= 500
    print(
        f"\nCRITERION 3 PASS: {checked} seeded partite graphs, edges cross and "
        f"ascend, every template copy crossing, all good"
    )


def _all_templates(n_max=3):
    out = []
    for n in range(1, n_max + 1):
        forward = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in itertools.product((0, 1), repeat=len(forward)):
            R = {p for p, b in zip(forward, bits) if b}
            if any((x, z) in R and (z, y) in R and (x, y) not in R
                   for x, y in itertools.product(range(n), repeat=2)
                   for z in range(n)):
                continue
            N = set(forward) - R
            out.append(make_rn_graph(n, R, N))
    return out


def test_criterion_4_product_over_corpus():
    templates = _all_templates(3)
    assert len(templates) == 10
    rng = random.Random(0x0DD804)
    witnesses = [random_rn(rng, n_max=4) for _ in range(40)]
    checked = 0
    variant_changed = 0
    for A in templates:
        for w in witnesses:
            R, N, ids = product_relations(A, w)
            base = make_rn_graph(A.n * w.n, R, N)
            parts = [tuple(range(t * w.n, (t + 1) * w.n)) for t in range(A.n)]
            ap = make_apartite(A, base, parts)
            assert is_good(base)
            for a_copy in enumerate_copies(fuse(A), w):
                vmap = tuple(ids[(A.rank[a], a_copy.map[a])] for a in range(A.n))
                assert is_embedding(vmap, A, base)
                assert [ap.part_of[v] for v in vmap] == list(range(A.n))
            variant_n = frozenset(
                (ids[(A.rank[a], u)], ids[(A.rank[a2], v)])
                for a, a2 in A.N
                for u, v in w.N
            )
            if variant_n != N:
                variant_changed += 1
            checked += 1
    assert checked == 400
    assert variant_changed >= 1
    print(
        f"\nCRITERION 4 PASS: {checked} (template, witness) products validate, good, "
        f"diagonals embed; N-clause variant changes {variant_changed} outputs"
    )


def test_criterion_5_amalgamation_preserves_ell_freedom():
    started = time.perf_counter()
    run = run_partite_construction(
        C3, POINT, C2, BaseOracle(), ell=3, allow_truncated=True
    )
    assert len(run.steps) >= 2
    for step in run.steps:
        assert is_ell_rn(step.picture.base, 3)
        assert is_good(step.picture.base)
    assert run.truncated and "size bound" in run.truncated

    tower2 = build_tower(chain(2), chain(2), 2, BaseOracle())
    run2 = run_partite_construction(tower2.stages[0].C, C2, C2, BaseOracle(), ell=3)
    assert not run2.truncated and all(step.product.certified for step in run2.steps)
    for step in run2.steps:
        assert is_ell_rn(step.picture.base, 3)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        f"\nCRITERION 5 PASS: point/2-chain rounds={len(run.steps)} and "
        f"2-chain/2-chain rounds={len(run2.steps)} all 3-free per step, "
        f"{elapsed:.2f}s < 600s"
    )


def test_criterion_6_end_to_end():
    tower = build_tower(chain(1), chain(2), 3, BaseOracle())
    res = finish(tower)
    lam = finish_index(tower.stages[0].C)
    assert lam == tower.stages[0].C.n == 3
    stage = tower.stage_for(lam).C
    closure = transitive_closure(stage.R, stage.n)
    assert not (closure & stage.N)
    assert res.b_copies_intact == res.b_copies_before
    c_rn = poset_to_complete_rn(res.poset)
    a_copies = enumerate_copies(POINT, c_rn)
    assert len(a_copies) <= 22
    verdict = check_arrow(c_rn, C2, POINT, 2)
    assert verdict.holds
    rng = random.Random(0x6E0E06)
    for _ in range(1000):
        coloring = random_coloring(c_rn, POINT, 2, rng)
        assert find_monochromatic(c_rn, coloring, C2, POINT) is not None
    print(
        f"\nCRITERION 6 PASS: finished poset n={res.poset.n} valid, closure misses N, "
        f"copies intact {res.b_copies_intact}/{res.b_copies_before}, exact arrow HOLDS "
        f"({len(a_copies)} template copies), 1000 random colorings defeated"
    )


def test_criterion_7_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_structure(a, chain(1))
    save_structure(b, chain(2))
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["tower", str(a), str(b), "--ell-max", "3", "--out", str(out)]) == 0
        assert main(["finish", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    c5 = tmp_path / "c5.json"
    save_structure(c5, poset_to_complete_rn(chain(5)))
    q = tmp_path / "q.json"
    save_structure(q, C3)
    p = tmp_path / "p.json"
    save_structure(p, C2)
    cexes = []
    for name in ("cex1.json", "cex2.json"):
        path = tmp_path / name
        assert main(["arrow", str(c5), str(q), str(p), "--counterexample-out", str(path)]) == 1
        cexes.append(path.read_bytes())
    assert cexes[0] == cexes[1]
    print(
        f"\nCRITERION 7 PASS: tower+finish reruns byte-identical across "
        f"{len(names)} files, arrow counterexamples byte-identical"
    )


def test_criterion_8_negative_certification():
    corpus = []
    for n in range(2, 6):
        corpus.append((poset_to_complete_rn(chain(n)), C3, C2))
    rng = random.Random(0x8E6808)
    for _ in range(120):
        target = random_rn(rng, n_max=6)
        q = poset_to_complete_rn(chain(2) if rng.random() < 0.5 else antichain(2))
        p = POINT if rng.random() < 0.5 else q
        corpus.append((target, q, p))
    fails_seen = 0
    for target, q, p in corpus:
        verdict = check_arrow(target, q, p, 2)
        if verdict.holds:
            continue
        fails_seen += 1
        assert find_monochromatic(target, verdict.counterexample, q, p) is None
    assert fails_seen >= 5
    print(
        f"\nCRITERION 8 PASS: {fails_seen} FAILS verdicts across {len(corpus)} "
        f"instances, every counterexample replays to no monochromatic copy"
    )
