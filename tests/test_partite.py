import ast
import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rnramsey
from rnramsey import (
    BaseOracle,
    Copy,
    IntraPartEdge,
    NotFoundWithinBounds,
    PartOrderViolation,
    PartProjectionViolation,
    ResourceExceeded,
    StructureError,
    antichain,
    chain,
    check_homomorphism,
    check_partite_arrow,
    crossing_copies,
    enumerate_copies,
    fuse,
    is_embedding,
    is_good,
    make_apartite,
    make_rn_graph,
    oracle_ramsey,
    partite_embeddings,
    poset_to_complete_rn,
    product_construction,
)
from rnramsey.partite import collapse, product_relations
from helpers import brute_copies, random_apartite

C2 = poset_to_complete_rn(chain(2))
POINT = poset_to_complete_rn(chain(1))
A2 = poset_to_complete_rn(antichain(2))


def one_crossing_copy(A):
    """The pattern placed one vertex per part, in template order."""
    base = make_rn_graph(A.n, A.R, A.N, A.order)
    parts = tuple((A.order[t],) for t in range(A.n))
    return make_apartite(A, base, parts)


def test_validation_errors():
    with pytest.raises(IntraPartEdge):
        make_apartite(C2, make_rn_graph(3, {(0, 1)}, set()), ((0, 1), (2,)))
    with pytest.raises(PartProjectionViolation):
        make_apartite(C2, make_rn_graph(2, set(), {(0, 1)}), ((0,), (1,)))
    with pytest.raises(PartProjectionViolation):
        make_apartite(A2, make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
    with pytest.raises(PartOrderViolation):
        make_apartite(
            C2, make_rn_graph(4, set(), set(), order=(0, 2, 1, 3)), ((0, 1), (2, 3))
        )
    with pytest.raises(PartOrderViolation):  # the right block, listed descending
        make_apartite(C2, make_rn_graph(4, set(), set()), ((1, 0), (2, 3)))
    with pytest.raises(StructureError):
        make_apartite(C2, make_rn_graph(2, set(), set()), ((0,),))
    # partite graphs and their templates are RN graphs, never posets
    with pytest.raises(StructureError, match="must be RN graphs"):
        make_apartite(chain(2), make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
    with pytest.raises(StructureError, match="must be RN graphs"):
        make_apartite(C2, chain(2), ((0,), (1,)))
    with pytest.raises(StructureError):  # template must be complete
        make_apartite(make_rn_graph(2, set(), set()), make_rn_graph(2, set(), set()), ((0,), (1,)))
    bad = make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)})  # complete but not good
    with pytest.raises(StructureError):
        make_apartite(bad, make_rn_graph(3, set(), set()), ((0,), (1,), (2,)))


def test_empty_parts_allowed():
    ap = make_apartite(C2, make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
    assert ap.part_of == (0, 1)
    with_empty = make_apartite(
        poset_to_complete_rn(chain(3)), make_rn_graph(2, set(), set()), ((0,), (), (1,))
    )
    assert len(with_empty.parts) == 3


def test_projection():
    single = one_crossing_copy(C2)
    psi = collapse(single.base, single.part_of, single.A)
    assert psi.map == (0, 1)
    assert check_homomorphism(psi)
    wide = make_apartite(C2, make_rn_graph(4, set(), set()), ((0, 1, 2), (3,)))
    psi2 = collapse(wide.base, wide.part_of, wide.A)
    assert psi2.map == (0, 0, 0, 1)
    assert check_homomorphism(psi2)
    # weakly monotone, since each part is the next block of the order
    ranks = [wide.A.rank[psi2.map[v]] for v in wide.base.order]
    assert ranks == sorted(ranks)


def test_crossing_copies():
    single = one_crossing_copy(C2)
    assert len(crossing_copies(single)) == 1
    edgeless = make_apartite(C2, make_rn_graph(4, set(), set()), ((0, 1), (2, 3)))
    assert not crossing_copies(edgeless)
    full = make_apartite(
        C2,
        make_rn_graph(4, {(0, 2), (0, 3), (1, 2), (1, 3)}, set()),
        ((0, 1), (2, 3)),
    )
    assert len(crossing_copies(full)) == 4


def test_partite_shape_on_corpus():
    rng = random.Random(41)
    for _ in range(200):
        ap = random_apartite(rng)
        # (a) no intra-part edges, cross edges ascend with the parts
        for x, y in ap.base.R | ap.base.N:
            assert ap.part_of[x] < ap.part_of[y]
        # (b) crossing_copies asserts one-per-part internally
        copies = crossing_copies(ap)
        for c in copies:
            assert len({ap.part_of[v] for v in c.image}) == ap.A.n
        # (c) goodness is inherited from the template
        assert is_good(ap.base)


def test_partite_embeddings_basic():
    single = one_crossing_copy(C2)
    host = make_apartite(
        C2,
        make_rn_graph(4, {(0, 2), (1, 3)}, set()),
        ((0, 1), (2, 3)),
    )
    embs = partite_embeddings(single, host)
    assert [e.image for e in embs] == [(0, 2), (1, 3)]
    ident = partite_embeddings(host, host)
    assert len(ident) == 1 and ident[0].map == (0, 1, 2, 3)
    too_big = partite_embeddings(host, single)
    assert not too_big
    with pytest.raises(StructureError):
        partite_embeddings(one_crossing_copy(A2), host)


def _induced_apartite(rng, host):
    """A partite pattern on a random vertex subset of host, so copies exist."""
    keep = sorted(rng.sample(range(host.base.n), rng.randint(1, min(4, host.base.n))))
    local = {v: k for k, v in enumerate(keep)}
    R = {(local[x], local[y]) for x, y in host.base.R if x in local and y in local}
    N = {(local[x], local[y]) for x, y in host.base.N if x in local and y in local}
    parts = [tuple(local[v] for v in part if v in local) for part in host.parts]
    return make_apartite(host.A, make_rn_graph(len(keep), R, N), parts)


@pytest.mark.parametrize("seed", range(12))
def test_partite_embeddings_match_brute_force(seed):
    rng = random.Random(seed)
    host = random_apartite(rng, p_max=3, part_max=3)
    for pattern in (_induced_apartite(rng, host), random_apartite(rng, part_max=2, A=host.A)):
        src = pattern.base.order
        expected = [
            image
            for image in brute_copies(pattern.base, host.base)
            if all(host.part_of[w] == pattern.part_of[v] for v, w in zip(src, image))
        ]
        embs = partite_embeddings(pattern, host)
        assert [e.image for e in embs] == expected
        for e in embs:
            assert tuple(e.map[v] for v in src) == e.image


def test_product_relations_frozen_examples():
    # chain template times a chain witness: a single doubly-ascending pair
    witness = make_rn_graph(2, {(0, 1)}, set())
    R, N, ids = product_relations(C2, witness)
    assert ids[(0, 0)] == 0 and ids[(1, 1)] == 3
    assert R == {(0, 3)} and not N

    # point template: a single part, so irreflexivity of the template leaves no
    # product pairs at all (an intra-part edge could never validate anyway)
    R1, N1, _ = product_relations(POINT, witness)
    assert not R1 and not N1

    # antichain template: the N clause still consumes the witness R
    R2, N2, _ = product_relations(A2, witness)
    assert not R2 and N2 == {(0, 3)}
    # exhaustive evaluation over all ordered pairs confirms exactly one N pair
    seen = [
        (x, y)
        for x in range(4)
        for y in range(4)
        if (x, y) in N2
    ]
    assert seen == [(0, 3)]


def test_product_ignores_witness_n_edges():
    # the witness's own N pairs never reach the product, per the product rule
    witness = make_rn_graph(2, set(), {(0, 1)})
    for template in (C2, A2):
        R, N, _ = product_relations(template, witness)
        assert not R and not N


def test_product_construction_chain_template():
    single = one_crossing_copy(C2)
    result = product_construction(C2, single, BaseOracle())
    F = result.apartite
    assert result.base_witness.n == 2
    assert F.base.n == 4
    assert F.base.R == frozenset({(0, 3)}) and not F.base.N
    assert is_good(F.base)
    assert len(result.lifts) == 1
    assert result.certified


def test_product_construction_antichain_template_needs_fused_query():
    # with an antichain template the pattern carries an N pair; the base witness can
    # only supply R pairs, so the oracle query must collapse relations or no lift
    # could ever exist
    single = one_crossing_copy(A2)
    result = product_construction(A2, single, BaseOracle())
    assert len(result.lifts) >= 1
    F = result.apartite
    for lift in result.lifts:
        assert is_embedding(lift.map, single.base, F.base)
    assert is_good(F.base)


def test_product_diagonals_are_template_copies():
    single = one_crossing_copy(C2)
    result = product_construction(C2, single, BaseOracle())
    _, _, ids = product_relations(C2, result.base_witness)
    fused_a_copies = enumerate_copies(fuse(C2), result.base_witness)
    assert fused_a_copies
    for base_copy in fused_a_copies:
        diag = tuple(ids[(C2.rank[a], base_copy.map[a])] for a in range(C2.n))
        assert is_embedding(diag, C2, result.apartite.base)
        # the diagonal sits above the base copy coordinatewise
        wn = result.base_witness.n
        for t in range(C2.n):
            u = base_copy.map[t]
            assert diag[t] == t * wn + result.base_witness.rank[u]


def test_lift_count_lower_bound_for_partite_embeddings():
    single = one_crossing_copy(C2)
    result = product_construction(C2, single, BaseOracle())
    embs = partite_embeddings(single, result.apartite)
    assert len(embs) >= len(result.lifts)
    lift_images = {l.image for l in result.lifts}
    assert lift_images <= {e.image for e in embs}


def test_check_partite_arrow_property_b():
    edgeless2 = make_apartite(POINT, make_rn_graph(2, set(), set()), ((0, 1),))
    result = product_construction(POINT, edgeless2, BaseOracle())
    F = result.apartite
    assert F.base.n == 3 and "source" not in {f.name for f in dataclasses.fields(result)}
    wit = oracle_ramsey(BaseOracle(), fuse(POINT), fuse(edgeless2.base))
    assert wit.graph == result.base_witness and wit.source == "search:pigeonhole"
    assert len(result.lifts) == 3
    verdict = check_partite_arrow(F, edgeless2, 2, family=result.lifts)
    assert verdict.holds
    # three colors admit a rainbow coloring of the three vertices
    verdict3 = check_partite_arrow(F, edgeless2, 3, family=result.lifts)
    assert not verdict3.holds
    assert verdict.holds == check_partite_arrow(F, edgeless2, 2).holds


def test_check_partite_arrow_no_members():
    single = one_crossing_copy(C2)
    host = make_apartite(C2, make_rn_graph(2, set(), set()), ((0,), (1,)))
    verdict = check_partite_arrow(host, single, 2)
    assert not verdict.holds


def test_check_partite_arrow_rejects_non_copy_family_member():
    single = one_crossing_copy(C2)
    host = make_apartite(C2, make_rn_graph(4, {(0, 2), (1, 3)}, set()), ((0, 1), (2, 3)))
    assert check_partite_arrow(host, single, 2).holds
    # (0, 3) respects the parts but is not an R-pair, so it is no copy of the pattern
    bogus = Copy((0, 3), (0, 3))
    with pytest.raises(StructureError):
        check_partite_arrow(host, single, 2, family=(bogus,))
    # the same map embeds an edgeless pattern, but that pattern is over another template
    edgeless = make_apartite(A2, make_rn_graph(2, set(), set()), ((0,), (1,)))
    with pytest.raises(StructureError, match="different templates"):
        check_partite_arrow(host, edgeless, 2, family=(bogus,))
    # every template copy of this member is a template copy of the host, yet (1, 3) is
    # an R-pair of the host over a non-pair of the pattern
    pattern = make_apartite(C2, make_rn_graph(3, {(0, 2)}, set()), ((0, 1), (2,)))
    host = make_apartite(
        C2, make_rn_graph(4, {(0, 3), (1, 3), (2, 3)}, set()), ((0, 1, 2), (3,))
    )
    stray = Copy((0, 1, 3), (0, 1, 3))
    with pytest.raises(StructureError):
        check_partite_arrow(host, pattern, 2, family=(stray,))


def test_lift_check_survives_optimize_flag():
    script = textwrap.dedent(
        """
        import types
        import rnramsey.arrow as arrow
        import rnramsey.construction as construction
        import rnramsey.partite as partite
        from rnramsey import BaseOracle, chain, enumerate_copies, make_apartite, make_coloring
        from rnramsey import make_rn_graph, poset_to_complete_rn
        C2, C3 = poset_to_complete_rn(chain(2)), poset_to_complete_rn(chain(3))
        assert False, "asserts are live"  # stripped under -O, like the old checks

        def fires(call):
            try:
                call()
            except AssertionError as exc:
                print("fired:", exc)

        fires(lambda: partite.crossing_copies(partite.APartiteRNGraph(C2, C2, ((0, 1), ()))))
        arrow.induced_substructure = lambda target, image: make_rn_graph(len(image), (), ())
        coloring = make_coloring(enumerate_copies(C2, C3), [0, 0, 0], 2)
        fires(lambda: arrow.find_monochromatic(C3, coloring, C2, C2))
        construction.check_homomorphism = lambda h: False
        fires(lambda: construction.build_tower(chain(1), chain(2), 3, BaseOracle()))
        construction.is_ell_rn = lambda graph, ell: False
        fires(lambda: construction.run_partite_construction(C2, C2, C2, BaseOracle(), ell=3))
        stub = types.SimpleNamespace(picture=types.SimpleNamespace(base=C2))
        construction.run_partite_construction = lambda *args, **kwargs: stub
        fires(lambda: construction.build_tower(chain(1), chain(2), 3, BaseOracle(),
                                               stabilize=False))
        partite.is_embedding = lambda *args: False
        pattern = make_apartite(C2, make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
        partite.product_construction(C2, pattern, BaseOracle())
        """
    )
    src = str(Path(rnramsey.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.splitlines() == [
        "fired: template copy is not crossing",
        "fired: copy composition mismatch",
        "fired: the map down from stage 3 is not a homomorphism",
        "fired: a good starting picture cannot fail this",
        "fired: completed stage failed its freedom check",
    ]
    assert done.returncode == 1
    assert "InvariantViolation: lift of witness copy" in done.stderr
    assert "is not an embedding" in done.stderr


def test_no_bare_assert_in_sources():
    """`python -O` strips assert statements, so invariants raise InvariantViolation
    instead; a bare `raise AssertionError` would skip the CLI's exit 3.  Nothing reads
    the environment either: every budget comes from a flag or a record's default."""
    found = []
    for path in sorted(Path(rnramsey.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
            named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.alias)) and named in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_products_on_random_patterns():
    rng = random.Random(42)
    built = 0
    skipped = []
    for index in range(40):
        ap = random_apartite(rng, p_max=2, part_max=2)
        if ap.base.n > 4:
            continue
        try:
            result = product_construction(ap.A, ap, BaseOracle(size_bound=8))
        except (ResourceExceeded, NotFoundWithinBounds):
            skipped.append(index)
            continue
        F = result.apartite
        assert is_good(F.base)
        for lift in result.lifts:
            assert is_embedding(lift.map, ap.base, F.base)
            for v in range(ap.base.n):
                assert F.part_of[lift.map[v]] == ap.part_of[v]
        built += 1
    assert built == 39 and skipped == [19]
