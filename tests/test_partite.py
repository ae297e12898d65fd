import ast
import builtins
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
    NotFoundWithinBounds,
    ResourceExceeded,
    StructureError,
    antichain,
    chain,
    check_homomorphism,
    enumerate_copies,
    fuse,
    is_embedding,
    is_good,
    make_apartite,
    make_rn_graph,
    oracle_ramsey,
    poset_to_complete_rn,
    product_construction,
)
from rnramsey.partite import collapse, product_relations
from helpers import brute_copies, brute_partite_arrow, brute_partite_copies, random_apartite

C2 = poset_to_complete_rn(chain(2))
POINT = poset_to_complete_rn(chain(1))
A2 = poset_to_complete_rn(antichain(2))


def one_crossing_copy(A):
    """The pattern placed one vertex per part, in template order."""
    base = make_rn_graph(A.n, A.R, A.N, A.order)
    parts = tuple((A.order[t],) for t in range(A.n))
    return make_apartite(A, base, parts)


def test_validation_errors():
    with pytest.raises(StructureError, match="R edge inside part 0"):
        make_apartite(C2, make_rn_graph(3, {(0, 1)}, set()), ((0, 1), (2,)))
    with pytest.raises(StructureError, match="N edge does not project"):
        make_apartite(C2, make_rn_graph(2, set(), {(0, 1)}), ((0,), (1,)))
    with pytest.raises(StructureError, match="R edge does not project"):
        make_apartite(A2, make_rn_graph(2, {(0, 1)}, set()), ((0,), (1,)))
    with pytest.raises(StructureError, match="not the next block of the order"):
        make_apartite(
            C2, make_rn_graph(4, set(), set(), order=(0, 2, 1, 3)), ((0, 1), (2, 3))
        )
    with pytest.raises(StructureError, match="part 0 is not the next block"):  # listed descending
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


def crossing_copies(graph):
    """The template copies in the graph, each checked to meet every part once."""
    copies = enumerate_copies(graph.A, graph.base)
    for copy in copies:
        assert sorted(graph.part_of[v] for v in copy.image) == list(range(graph.A.n))
    assert [c.image for c in copies] == brute_copies(graph.A, graph.base)
    return copies


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
        # (b) every template copy meets each part once (checked in crossing_copies)
        crossing_copies(ap)
        # (c) goodness is inherited from the template
        assert is_good(ap.base)


def test_partite_embeddings_basic():
    # the part-keeping copies the partite oracle scores, on hand-checked examples
    single = one_crossing_copy(C2)
    host = make_apartite(
        C2,
        make_rn_graph(4, {(0, 2), (1, 3)}, set()),
        ((0, 1), (2, 3)),
    )
    assert brute_partite_copies(single, host) == [(0, 2), (1, 3)]
    assert brute_partite_copies(host, host) == [(0, 1, 2, 3)]
    assert not brute_partite_copies(host, single)
    # of the four copies of an edgeless pair, only (0, 1) stays inside part 0
    low = make_apartite(C2, make_rn_graph(2, set(), set()), ((0, 1), ()))
    assert len(brute_copies(low.base, host.base)) == 4
    assert brute_partite_copies(low, host) == [(0, 1)]
    # the oracle scores only such copies: (0, 3) keeps the parts, but is no R-pair
    with pytest.raises(ValueError, match=r"\[\(0, 3\)\] are no part-keeping copies"):
        brute_partite_arrow(host, single, 2, family=(Copy((0, 3), (0, 3)),))


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
    # the oracle's part filter over brute_copies against the library's enumerator
    rng = random.Random(seed)
    host = random_apartite(rng, p_max=3, part_max=3)
    for pattern in (_induced_apartite(rng, host), random_apartite(rng, part_max=2, A=host.A)):
        src = pattern.base.order
        embs = [
            copy
            for copy in enumerate_copies(pattern.base, host.base)
            if all(host.part_of[copy.map[v]] == pattern.part_of[v] for v in src)
        ]
        assert [e.image for e in embs] == brute_partite_copies(pattern, host)
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
    embs = brute_partite_copies(single, result.apartite)
    assert len(embs) >= len(result.lifts)
    lift_images = {l.image for l in result.lifts}
    assert lift_images <= set(embs)


def test_check_partite_arrow_property_b():
    edgeless2 = make_apartite(POINT, make_rn_graph(2, set(), set()), ((0, 1),))
    result = product_construction(POINT, edgeless2, BaseOracle())
    F = result.apartite
    assert F.base.n == 3 and "source" not in {f.name for f in dataclasses.fields(result)}
    wit = oracle_ramsey(BaseOracle(), fuse(POINT), fuse(edgeless2.base))
    assert wit.graph == result.base_witness and wit.source == "search:pigeonhole"
    assert len(result.lifts) == 3
    assert brute_partite_arrow(F, edgeless2, 2, family=result.lifts)
    # three colors admit a rainbow coloring of the three vertices
    assert not brute_partite_arrow(F, edgeless2, 3, family=result.lifts)
    assert brute_partite_arrow(F, edgeless2, 2)


def test_check_partite_arrow_no_members():
    single = one_crossing_copy(C2)
    host = make_apartite(C2, make_rn_graph(2, set(), set()), ((0,), (1,)))
    assert not brute_partite_arrow(host, single, 2)


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


def test_text_files_name_their_encoding():
    """Every text file the package reads or writes is UTF-8, named at the call, and
    never the locale's encoding."""
    found = []
    for path in sorted(Path(rnramsey.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            named = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if named in ("read_text", "write_text", "open") and not any(
                keyword.arg == "encoding" for keyword in node.keywords
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in Path(rnramsey.__file__).parent.glob("*.py")}


def _untold_exceptions(sources: dict[str, str]) -> list[str]:
    """Exception classes defined in sources that no `except` clause and no isinstance
    call there names: classes that only a test tells apart from their base."""
    trees = [ast.parse(text) for text in sources.values()]
    bases = {
        node.name: [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
        for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    told = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = node.type
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = node.args[-1]
        else:
            continue
        told |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(named)}
    return sorted(name for name in bases if is_exception(name) and name not in told)


# Raised for library callers, who read them in the documentation, not in a handler.
_UNTOLD_ON_PURPOSE = {
    "CertificationFailed": "the documented refusal of certify_witness",
    "NotFoundWithinBounds": "the documented stop of oracle_ramsey; a ceiling judge names it",
}


def test_every_exception_class_is_told_apart():
    """One exception class per exit code: a subclass that no handler reads is a name
    without a use.  The check fires on an injected class that nothing catches."""
    assert _untold_exceptions(_sources()) == sorted(_UNTOLD_ON_PURPOSE)
    assert _untold_exceptions({"m.py": textwrap.dedent("""
        class Base(ValueError): ...
        class Told(Base): ...
        class Untold(Base): ...
        class Plain: ...
        try:
            pass
        except (Base, mod.Told):
            isinstance(x, Plain)
    """)}) == ["Untold"]


def _unused_imports(source: str) -> list[str]:
    """Names that source imports and never reads; a __future__ import is a directive."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return [name for name in imported if name not in read]


def test_no_unused_imports_in_sources():
    """Only __init__ imports to re-export; in any other module an import that nothing
    reads is left over.  The check fires on each injected form."""
    found = [
        f"{name}: {unused}"
        for name, text in sorted(_sources().items())
        if name != "__init__.py"
        for unused in _unused_imports(text)
    ]
    assert found == []
    assert _unused_imports(
        "from __future__ import annotations\nimport os, time\nimport a.b\n"
        "from .x import y, z as w\ntime.sleep(y)\n"
    ) == ["os", "a", "w"]


def _private_imports(source: str) -> list[str]:
    """Underscore names that source imports from a module of the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "rnramsey")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_imports_between_sources():
    """A module uses another module's public names only; importing a private one
    couples the two behind the public API.  The check fires on each injected form."""
    found = [
        f"{name}: {private}"
        for name, text in sorted(_sources().items())
        for private in _private_imports(text)
    ]
    assert found == []
    assert _private_imports(
        "from .arrow import _verdict, check_arrow\nfrom rnramsey.io import _dumps\n"
        "from . import _x\nfrom os import _exit\nimport rnramsey\n"
    ) == ["_verdict", "_dumps", "_x"]


def _reads_clock(node) -> bool:
    """Whether node calls the clock, time.monotonic() or a bare monotonic()."""
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "attr", getattr(func, "id", None)) == "monotonic"


def _functions(source: str):
    return [
        function
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _deadline_makers(source: str) -> list[str]:
    """Names of the functions of source that add to the clock: each such sum makes a
    deadline."""
    return [
        function.name
        for function in _functions(source)
        for node in ast.walk(function)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (_reads_clock(node.left) or _reads_clock(node.right))
    ]


def _clock_readers(source: str) -> list[str]:
    """Names of the functions of source that call the clock at all, each once; a
    function that holds a reader reads it too."""
    return [
        function.name
        for function in _functions(source)
        if any(_reads_clock(node) for node in ast.walk(function))
    ]


def _over_sources(names) -> list[str]:
    return sorted(
        name
        for path in Path(rnramsey.__file__).parent.glob("*.py")
        for name in names(path.read_text())
    )


def test_only_the_query_entry_points_make_a_deadline():
    """A query runs on one deadline, fixed where it starts; a function below an entry
    point that adds to the clock would start a second one.  The check fires on each
    form, and not on a clock read that makes no deadline.  Likewise the searches only
    pause, and _verdict alone reads the clock below the entry points, so that a query
    has one clock: a search that read it would be a second."""
    entry_points = ["certify_witness", "check_arrow", "oracle_ramsey"]
    assert _over_sources(_deadline_makers) == entry_points
    assert _over_sources(_clock_readers) == sorted([*entry_points, "_verdict"])
    assert _clock_readers(textwrap.dedent("""
        def f(deadline):
            return time.monotonic() > deadline
        def g():
            def h():
                return monotonic()
            return h
        def k(clock):
            return clock.perf_counter(), monotonic
    """)) == ["f", "g", "h"]
    assert _deadline_makers(textwrap.dedent("""
        def f(budget):
            return time.monotonic() + budget
        def g(budget):
            return budget + monotonic()
        def h(start):
            return time.monotonic() - start, time.monotonic() > start
    """)) == ["f", "g"]


def _unseeded_draws(source: str) -> list[int]:
    """Lines of source that draw from an unseeded generator: a call of a function of
    the random module's shared generator (random.choice, random.shuffle, ...), an
    import of such a function, or a Random() without a seed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            if any(alias.name != "Random" for alias in node.names):
                found.append(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            name = func.attr if func.value.id == "random" else None
        else:
            name = func.id if isinstance(func, ast.Name) and func.id == "Random" else None
        if name is not None and (name != "Random" or not (node.args or node.keywords)):
            found.append(node.lineno)
    return sorted(found)


def test_randomness_in_sources_is_seeded():
    """Output bytes are reproducible only while every draw comes from a seeded
    random.Random; the check fires on each unseeded form."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(rnramsey.__file__).parent.glob("*.py"))
        for line in _unseeded_draws(path.read_text())
    ]
    assert found == []
    assert _unseeded_draws("random.Random(7).random()\nfrom random import Random") == []
    assert _unseeded_draws(
        "random.choice(x)\nrandom.Random()\nfrom random import shuffle\nRandom()\n"
        "random.SystemRandom(1)"
    ) == [1, 2, 3, 4, 5]


def test_products_on_random_patterns():
    rng = random.Random(42)
    built = 0
    skipped = []
    holds = {2: 0, 3: 0}
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
        # the partite lemma: F arrows the pattern partitely through its lifts alone
        for r in (2, 3):
            holds[r] += brute_partite_arrow(F, ap, r, family=result.lifts)
        built += 1
    assert built == 39 and skipped == [19]
    # three colors can beat the two the base witness was certified for
    assert holds == {2: 39, 3: 29}
