"""Canonical JSON files, digests, manifests, and DOT rendering.

Every writer is byte-deterministic: keys sorted, two-space indent, one trailing
newline, pair lists sorted.  Reruns of the same build therefore produce identical
files, and digests of in-memory structures match digests of their files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .arrow import Coloring
from .construction import Picture
from .partite import APartiteRNGraph, make_apartite
from .structures import (
    Homomorphism,
    OrderedPoset,
    RNGraph,
    make_ordered_poset,
    make_rn_graph,
)


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class HomomorphismDoc:
    """Stored form of a vertex map; endpoints travel as digests, not structures."""

    map: tuple[int, ...]
    source_digest: str
    target_digest: str


def dumps_canonical(doc: dict) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\n", written directly:
    with an indent json drops to its pure-Python encoder, and files here are large."""
    return _dumps(doc, "\n") + "\n"


def _dumps(value, pad: str) -> str:
    """One JSON value; pad is a newline and the indent of the line it starts on.  Keys
    are strings, ints are written by int.__repr__ as json does, and any other scalar
    by json itself."""
    inner = pad + "  "
    if isinstance(value, dict):
        body = (f"{encode_basestring_ascii(k)}: {_dumps(value[k], inner)}" for k in sorted(value))
        return "{" + inner + ("," + inner).join(body) + pad + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        body = (repr(v) if type(v) is int else _dumps(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(body) + pad + "]" if value else "[]"
    return json.dumps(value)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(obj) -> str:
    doc = obj if isinstance(obj, dict) else to_doc(obj)
    return _sha256(dumps_canonical(doc))


def _need(doc: dict, key: str, kind):
    """doc[key], of exactly the JSON type kind: a bool is no integer."""
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    if type(doc[key]) is not kind:
        what = {int: "an integer", list: "a list", str: "a string", dict: "an object"}[kind]
        raise ParseError(f"field {key!r} must be {what}")
    return doc[key]


def _ints(value, key: str) -> tuple[int, ...]:
    """A list of plain integers; bools, floats and strings are refused, not coerced."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise ParseError(f"field {key!r}: expected a list of integers, got {value!r}")
    return tuple(value)


def _need_ints(doc: dict, key: str) -> tuple[int, ...]:
    return _ints(_need(doc, key, list), key)


def _pair_set(doc: dict, key: str) -> set[tuple[int, int]]:
    out = set()
    for entry in _need(doc, key, list):
        pair = _ints(entry, key)
        if len(pair) != 2:
            raise ParseError(f"field {key!r} must hold [x, y] pairs")
        if pair in out:
            raise ParseError(f"field {key!r} lists pair {list(pair)} twice")
        out.add(pair)
    return out


def _positive(doc: dict, key: str) -> int:
    value = _need(doc, key, int)
    if value < 1:
        raise ParseError(f"field {key!r} must be positive, got {value}")
    return value


def _only(doc: dict, *fields: str) -> None:
    """Each kind, and each coloring entry, takes exactly the keys to_doc writes."""
    extra = doc.keys() - set(fields)
    if extra:
        raise ParseError(f"unknown field {min(extra)!r}")


def _picture(D: RNGraph, base: RNGraph, parts, f: tuple[int, ...]) -> Picture:
    """The picture, whose stored collapse map must be the one its parts determine."""
    picture = Picture(base, D, parts)
    picture.validate()
    if f != picture.f.map:
        raise ParseError("field 'f' is not the collapse map of the parts")
    return picture


def _coloring(r: int, entries: list) -> Coloring:
    """Each copy listed once, as an object holding just its image and a color below r."""
    table: dict[tuple[int, ...], int] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError("coloring entries must be objects")
        _only(entry, "copy", "color")
        image, color = _need_ints(entry, "copy"), _need(entry, "color", int)
        if not 0 <= color < r:
            raise ParseError(f"copy {list(image)} has color {color}, outside 0..{r - 1}")
        if image in table:
            raise ParseError(f"copy {list(image)} is listed twice")
        table[image] = color
    return Coloring(tuple(sorted(table.items())), r)


# Per field name, its writer (object, name -> JSON value) and its reader (doc, name ->
# checked value), shared by every kind that carries the field.
_NESTED = (
    lambda obj, key: to_doc(getattr(obj, key)),
    lambda doc, key: _build(_need(doc, key, dict)),
)
_INT_LIST = (lambda obj, key: list(getattr(obj, key)), _need_ints)
_PAIRS = (lambda obj, key: [list(p) for p in sorted(getattr(obj, key))], _pair_set)
_STRING = (getattr, lambda doc, key: _need(doc, key, str))
_FIELDS = {
    "n": (getattr, lambda doc, key: _need(doc, key, int)),
    "R": _PAIRS,
    "N": _PAIRS,
    "order": _INT_LIST,
    "A": _NESTED,
    "base": _NESTED,
    "D": _NESTED,
    "parts": (
        lambda obj, key: [list(part) for part in getattr(obj, key)],
        lambda doc, key: tuple(_ints(part, key) for part in _need(doc, key, list)),
    ),
    "f": (lambda obj, key: list(getattr(obj, key).map), _need_ints),
    "map": _INT_LIST,
    "source_digest": _STRING,
    "target_digest": _STRING,
    "r": (getattr, _positive),
    "entries": (
        lambda obj, key: [{"copy": list(image), "color": color} for image, color in obj.assignment],
        lambda doc, key: _need(doc, key, list),
    ),
}

# Per kind: its class, its field names in from_doc's read order, and the builder of the
# reads; the graph builders are looked up at each call, so perfbench's tracer sees them.
_KINDS = {
    "poset": (OrderedPoset, ("n", "R", "order"), lambda *reads: make_ordered_poset(*reads)),
    "rn": (RNGraph, ("n", "R", "N", "order"), lambda *reads: make_rn_graph(*reads)),
    "apartite": (APartiteRNGraph, ("A", "base", "parts"), make_apartite),
    "picture": (Picture, ("D", "base", "parts", "f"), _picture),
    "homomorphism": (HomomorphismDoc, ("map", "source_digest", "target_digest"), HomomorphismDoc),
    "coloring": (Coloring, ("r", "entries"), _coloring),
}


def to_doc(obj) -> dict:
    if isinstance(obj, Homomorphism):
        obj = HomomorphismDoc(obj.map, digest(obj.source), digest(obj.target))
    for kind, (cls, fields, _) in _KINDS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **{key: _FIELDS[key][0](obj, key) for key in fields}}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def from_doc(doc: dict):
    """The structure a decoded document describes; nesting too deep to build is a
    ParseError, with the text load_structure gives it."""
    try:
        return _build(doc)
    except RecursionError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None


def _build(doc: dict):
    kind = _need(doc, "kind", str)
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    _, fields, build = _KINDS[kind]
    _only(doc, "kind", *fields)
    return build(*[_FIELDS[key][1](doc, key) for key in fields])


def save_structure(path, obj) -> str:
    """Write the canonical file; returns its digest, the hash of the text written."""
    text = dumps_canonical(to_doc(obj))
    Path(path).write_text(text, encoding="utf-8")
    return _sha256(text)


def _unique_keys(pairs) -> dict:
    """JSON object hook: a repeated key is an input error, not a silent overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"repeated key {key!r}")
        out[key] = value
    return out


def load_structure(path):
    """The structure a file holds; nesting too deep to decode or to build is a ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        if not isinstance(doc, dict):
            raise ParseError("top level must be an object")
        return from_doc(doc)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None


def format_manifest(entries: dict[str, str]) -> str:
    return "".join(f"{key}: {entries[key]}\n" for key in sorted(entries))


def parse_manifest(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if ": " not in line:
            raise ParseError(f"manifest line {lineno} is not 'key: value'")
        key, value = line.split(": ", 1)
        if key in out:
            raise ParseError(f"manifest line {lineno} repeats key {key!r}")
        out[key] = value
    return out


def _dot_id(name: str) -> str:
    """The name as a DOT ID: "_" for each character an ID cannot hold, and a leading
    "_" before a digit or a keyword."""
    name = "".join(c if c == "_" or c.isalnum() or not c.isascii() else "_" for c in name)
    keyword = name.lower() in ("node", "edge", "graph", "digraph", "subgraph", "strict")
    return "_" + name if name[:1].isdigit() or keyword else name or "g"


def export_dot(obj, name: str = "g") -> str:
    """Deterministic DOT text: solid R arcs, dashed N arcs, clustered parts,
    invisible arcs chaining the linear order so layouts respect it.  The graph is
    named `name` made a DOT ID (_dot_id), so any name gives valid DOT."""
    parts: tuple[tuple[int, ...], ...] | None = None
    if isinstance(obj, (APartiteRNGraph, Picture)):
        parts = obj.parts
        obj = obj.base
    if not isinstance(obj, (OrderedPoset, RNGraph)):
        raise TypeError(f"cannot render {type(obj).__name__}")
    R, N, order, n = obj.R, obj.N, obj.order, obj.n
    lines = [f"digraph {_dot_id(name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    if parts is None:
        for v in range(n):
            lines.append(f"  v{v};")
    else:
        for t, members in enumerate(parts):
            lines.append(f"  subgraph cluster_{t} {{")
            lines.append(f'    label="part {t}";')
            for v in members:
                lines.append(f"    v{v};")
            lines.append("  }")
    for i in range(n - 1):
        lines.append(f"  v{order[i]} -> v{order[i + 1]} [style=invis, weight=10];")
    for x, y in sorted(R):
        lines.append(f"  v{x} -> v{y};")
    for x, y in sorted(N):
        lines.append(f"  v{x} -> v{y} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
