"""Property tests of the file format: canonical round trips, stable digests, and
parser fuzzing that may only ever end in ParseError or StructureError."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rnramsey import (
    BaseOracle,
    ParseError,
    StructureError,
    build_picture_zero,
    chain,
    digest,
    dumps_canonical,
    enumerate_copies,
    from_doc,
    make_coloring,
    poset_to_complete_rn,
    run_partite_construction,
    to_doc,
)
from rnramsey.io import _unique_keys
from helpers import random_apartite, random_poset, random_rn

# Derandomized and without an example database, so every run tries the same cases.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _structure(kind: str, rng: random.Random):
    """A valid structure of the given kind, drawn from the seeded helpers."""
    if kind == "rn":
        return random_rn(rng, 6)
    if kind == "poset":
        return random_poset(rng, 6)
    if kind == "apartite":
        return random_apartite(rng, 3, 2)
    if kind in ("picture", "homomorphism"):
        host = random_rn(rng, 5)
        picture = build_picture_zero(host, poset_to_complete_rn(chain(2 if host.R else 1)))
        # a map is stored as the HomomorphismDoc to_doc makes, its endpoints as digests
        return picture if kind == "picture" else from_doc(to_doc(picture.f))
    target = random_poset(rng, 3)
    copies = enumerate_copies(chain(rng.randint(1, 2)), target)
    r = rng.randint(1, 3)
    return make_coloring(copies, [rng.randrange(r) for _ in copies], r)


KINDS = st.sampled_from(("rn", "poset", "apartite", "picture", "homomorphism", "coloring"))
SEEDS = st.integers(0, 2**32 - 1)


def _encoder(doc: dict) -> str:
    """The json module's own text for a doc: the bytes dumps_canonical must write."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reload(doc: dict) -> dict:
    """The doc as load_structure reads it back from its canonical text."""
    return json.loads(dumps_canonical(doc), object_pairs_hook=_unique_keys)


@PROPERTY
@given(KINDS, SEEDS)
def test_canonical_round_trip_and_stable_digest(kind, seed):
    x = _structure(kind, random.Random(seed))
    back = from_doc(_reload(to_doc(x)))
    assert back == x and type(back) is type(x)
    assert digest(back) == digest(x) == digest(to_doc(x))
    # a second round trip writes the same bytes, and they are the json encoder's
    assert dumps_canonical(to_doc(back)) == dumps_canonical(to_doc(x)) == _encoder(to_doc(x))


def test_writer_matches_the_json_encoder_on_a_large_picture():
    point, c2, c3 = (poset_to_complete_rn(chain(k)) for k in (1, 2, 3))
    run = run_partite_construction(c3, point, c2, BaseOracle(), ell=3, allow_truncated=True)
    doc = to_doc(run.picture)
    assert run.picture.base.n == 4169
    assert dumps_canonical(doc) == _encoder(doc)


def _paths(doc, prefix=()):
    """The path (keys and list indices) of every value inside doc."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_BAD_VALUES = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.integers(-(10**12), 10**12),
    st.sampled_from(([], {}, [[0, 1]], [0, 10**12])),
)


# more examples here: a fault may sit on one path among dozens in a doc
@settings(PROPERTY, max_examples=300)
@given(KINDS, SEEDS, st.data())
def test_mutated_docs_raise_only_parse_or_structure_errors(kind, seed, data):
    doc = _reload(to_doc(_structure(kind, random.Random(seed))))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_BAD_VALUES)
    # bools, floats, None and odd strings too: the writer gives the encoder's bytes
    assert dumps_canonical(doc) == _encoder(doc)
    try:
        from_doc(doc)
    except (ParseError, StructureError):
        pass


@PROPERTY
@given(st.sampled_from(("rn", "poset")), st.integers(2, 10**12))
def test_a_huge_n_is_refused_by_length(kind, n):
    doc = {"kind": kind, "n": n, "order": [0, 1], "R": [], **({"N": []} if kind == "rn" else {})}
    try:
        from_doc(doc)
    except StructureError as exc:
        assert "not a permutation" in str(exc)
    else:
        assert n == 2
