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


def _pairs(rel) -> list[list[int]]:
    return [list(p) for p in sorted(rel)]


def to_doc(obj) -> dict:
    if isinstance(obj, Homomorphism):
        obj = HomomorphismDoc(obj.map, digest(obj.source), digest(obj.target))
    if isinstance(obj, OrderedPoset):
        return {
            "kind": "poset",
            "n": obj.n,
            "order": list(obj.order),
            "R": _pairs(obj.R),
        }
    if isinstance(obj, RNGraph):
        return {
            "kind": "rn",
            "n": obj.n,
            "order": list(obj.order),
            "R": _pairs(obj.R),
            "N": _pairs(obj.N),
        }
    if isinstance(obj, APartiteRNGraph):
        return {
            "kind": "apartite",
            "A": to_doc(obj.A),
            "base": to_doc(obj.base),
            "parts": [list(part) for part in obj.parts],
        }
    if isinstance(obj, Picture):
        return {
            "kind": "picture",
            "D": to_doc(obj.D),
            "base": to_doc(obj.base),
            "parts": [list(part) for part in obj.parts],
            "f": list(obj.f.map),
        }
    if isinstance(obj, HomomorphismDoc):
        return {
            "kind": "homomorphism",
            "map": list(obj.map),
            "source_digest": obj.source_digest,
            "target_digest": obj.target_digest,
        }
    if isinstance(obj, Coloring):
        return {
            "kind": "coloring",
            "r": obj.r,
            "entries": [
                {"copy": list(image), "color": color} for image, color in obj.assignment
            ],
        }
    raise TypeError(f"no canonical form for {type(obj).__name__}")


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


def _only(doc: dict, *fields: str) -> None:
    """Each kind, and each coloring entry, takes exactly the keys to_doc writes."""
    extra = doc.keys() - set(fields)
    if extra:
        raise ParseError(f"unknown field {min(extra)!r}")


def from_doc(doc: dict):
    kind = _need(doc, "kind", str)
    if kind == "poset":
        _only(doc, "kind", "n", "order", "R")
        return make_ordered_poset(
            _need(doc, "n", int), _pair_set(doc, "R"), _ints(_need(doc, "order", list), "order")
        )
    if kind == "rn":
        _only(doc, "kind", "n", "order", "R", "N")
        return make_rn_graph(
            _need(doc, "n", int),
            _pair_set(doc, "R"),
            _pair_set(doc, "N"),
            _ints(_need(doc, "order", list), "order"),
        )
    if kind == "apartite":
        _only(doc, "kind", "A", "base", "parts")
        A = from_doc(_need(doc, "A", dict))
        base = from_doc(_need(doc, "base", dict))
        parts = [_ints(part, "parts") for part in _need(doc, "parts", list)]
        return make_apartite(A, base, parts)
    if kind == "picture":
        _only(doc, "kind", "D", "base", "parts", "f")
        D = from_doc(_need(doc, "D", dict))
        base = from_doc(_need(doc, "base", dict))
        parts = tuple(_ints(part, "parts") for part in _need(doc, "parts", list))
        collapse = _ints(_need(doc, "f", list), "f")
        picture = Picture(base, D, parts)
        picture.validate()
        if collapse != picture.f.map:
            raise ParseError("field 'f' is not the collapse map of the parts")
        return picture
    if kind == "homomorphism":
        _only(doc, "kind", "map", "source_digest", "target_digest")
        return HomomorphismDoc(
            _ints(_need(doc, "map", list), "map"),
            _need(doc, "source_digest", str),
            _need(doc, "target_digest", str),
        )
    if kind == "coloring":
        _only(doc, "kind", "r", "entries")
        r = _need(doc, "r", int)
        if r < 1:
            raise ParseError(f"field 'r' must be positive, got {r}")
        table: dict[tuple[int, ...], int] = {}
        for entry in _need(doc, "entries", list):
            if not isinstance(entry, dict):
                raise ParseError("coloring entries must be objects")
            _only(entry, "copy", "color")
            image, color = _ints(_need(entry, "copy", list), "copy"), _need(entry, "color", int)
            if not 0 <= color < r:
                raise ParseError(f"copy {list(image)} has color {color}, outside 0..{r - 1}")
            if image in table:
                raise ParseError(f"copy {list(image)} is listed twice")
            table[image] = color
        return Coloring(tuple(sorted(table.items())), r)
    raise ParseError(f"unknown kind {kind!r}")


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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    return from_doc(doc)


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
