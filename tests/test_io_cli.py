import hashlib
import json
import re
import tracemalloc

import pytest

from rnramsey import (
    ArrowVerdict,
    BaseOracle,
    BuildLimits,
    CertificationFailed,
    Homomorphism,
    InvariantViolation,
    NotFoundWithinBounds,
    ParseError,
    ResourceExceeded,
    SearchLimits,
    StructureError,
    antichain,
    build_picture_zero,
    build_tower,
    chain,
    digest,
    dumps_canonical,
    enumerate_copies,
    export_dot,
    finish,
    format_manifest,
    from_doc,
    load_structure,
    make_apartite,
    make_coloring,
    make_ordered_poset,
    make_rn_graph,
    parse_manifest,
    poset_to_complete_rn,
    save_structure,
    to_doc,
)
from rnramsey import cli
from rnramsey.cli import _build_parser, main
from rnramsey.io import HomomorphismDoc

C2 = poset_to_complete_rn(chain(2))
C3 = poset_to_complete_rn(chain(3))
POINT = poset_to_complete_rn(chain(1))


def _apartite_example():
    base = make_rn_graph(4, {(0, 2), (1, 3)}, set())
    return make_apartite(C2, base, [(0, 1), (2, 3)])


def _roundtrip(tmp_path, obj, name):
    path = tmp_path / name
    d1 = save_structure(path, obj)
    loaded = load_structure(path)
    d2 = save_structure(path, loaded)
    assert d1 == d2
    assert hashlib.sha256(path.read_bytes()).hexdigest() == d1
    return loaded


def test_roundtrips_all_kinds(tmp_path):
    poset = make_ordered_poset(3, {(0, 2), (1, 2)}, (1, 0, 2))
    assert _roundtrip(tmp_path, poset, "p.json") == poset
    rn = make_rn_graph(3, {(1, 0)}, {(1, 2)}, (1, 0, 2))
    assert _roundtrip(tmp_path, rn, "g.json") == rn
    ap = _apartite_example()
    assert _roundtrip(tmp_path, ap, "ap.json") == ap
    pic = build_picture_zero(C3, C2)
    loaded = _roundtrip(tmp_path, pic, "pic.json")
    assert loaded.base == pic.base and loaded.parts == pic.parts
    assert loaded.f.map == pic.f.map
    h = Homomorphism((0, 1), C2, C3)
    hdoc = _roundtrip(tmp_path, h, "h.json")
    assert isinstance(hdoc, HomomorphismDoc) and hdoc.map == (0, 1)
    assert hdoc.source_digest == digest(C2)
    copies = enumerate_copies(C2, C3)
    coloring = make_coloring(copies, [0, 1, 0], 2)
    assert _roundtrip(tmp_path, coloring, "col.json") == coloring


def test_digest_separates_structures():
    assert digest(chain(2)) != digest(antichain(2))
    assert digest(C2) != digest(chain(2))
    assert digest(C2) == digest(poset_to_complete_rn(chain(2)))


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        load_structure(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_structure(bad)
    # a repeated key is refused, not overwritten, at any depth
    bad.write_text('{"kind": "rn", "n": 2, "n": 3, "order": [0, 1, 2], "R": [], "N": []}')
    with pytest.raises(ParseError, match="repeated key 'n'"):
        load_structure(bad)
    repeated = '{"copy": [0], "color": 0, "color": 1}'
    bad.write_text(f'{{"kind": "coloring", "r": 2, "entries": [{repeated}]}}')
    with pytest.raises(ParseError, match="repeated key 'color'"):
        load_structure(bad)
    with pytest.raises(ParseError):
        from_doc({"kind": "poset", "n": 2})
    with pytest.raises(ParseError):
        from_doc({"kind": "poset", "n": "2", "order": [0, 1], "R": []})
    with pytest.raises(ParseError):
        from_doc({"kind": "poset", "n": 2, "order": [0, 1], "R": [[0, 1, 2]]})
    with pytest.raises(ParseError):
        from_doc({"kind": "mystery"})
    # integers only: no string, float or bool coercion
    with pytest.raises(ParseError):
        from_doc({"kind": "poset", "n": 2, "order": [0, 1], "R": [["0", 1.7]]})
    with pytest.raises(ParseError):
        from_doc({"kind": "poset", "n": 2, "order": [0, 1], "R": [[False, True]]})
    with pytest.raises(ParseError):
        from_doc({"kind": "rn", "n": 2, "order": [0.0, 1.0], "R": [], "N": []})
    # a pair listed twice is refused, not merged
    for key in ("R", "N"):
        doc = {"kind": "rn", "n": 2, "order": [0, 1], "R": [], "N": [], key: [[0, 1], [0, 1]]}
        with pytest.raises(ParseError, match=f"field '{key}' lists pair \\[0, 1\\] twice"):
            from_doc(doc)
    with pytest.raises(ParseError):
        from_doc({"kind": "poset", "n": 2, "order": [0, 1], "R": [[0, 1], [0, 1]]})
    # a picture's collapse map must be the one its parts determine
    pic = to_doc(build_picture_zero(C3, C2))
    pic["f"] = pic["f"][::-1]
    with pytest.raises(ParseError):
        from_doc(pic)
    # a coloring needs r >= 1, colors in 0..r-1, and each copy listed once
    entries = [{"copy": [0, 1], "color": 1}, {"copy": [0, 2], "color": 0}]
    from_doc({"kind": "coloring", "r": 2, "entries": entries})
    for r, entry in [
        (0, {"copy": [0, 1], "color": 0}),
        (-1, {"copy": [1, 2], "color": 0}),
        (2, {"copy": [1, 2], "color": 7}),
        (2, {"copy": [1, 2], "color": -1}),
        (2, {"copy": [0, 1], "color": 0}),
    ]:
        with pytest.raises(ParseError):
            from_doc({"kind": "coloring", "r": r, "entries": [*entries, entry]})
    with pytest.raises(TypeError):
        to_doc(object())


def test_canonical_bytes_are_stable():
    doc = to_doc(C3)
    text = dumps_canonical(doc)
    assert text.endswith("\n") and text == dumps_canonical(json.loads(text))
    assert text.index('"N"') < text.index('"R"') < text.index('"kind"')


def test_manifest_roundtrip():
    entries = {"b.file": "B.json", "a.file": "A.json", "lambda": "3"}
    text = format_manifest(entries)
    assert text.splitlines()[0] == "a.file: A.json"
    assert parse_manifest(text) == entries
    with pytest.raises(ParseError):
        parse_manifest("no separator here\n")
    with pytest.raises(ParseError, match="manifest line 4 repeats key 'a.file'"):
        parse_manifest(text + "a.file: B.json\n")


def test_export_dot_frozen():
    dot = export_dot(chain(2), name="c2")
    assert "digraph c2 {" in dot
    assert "  v0 -> v1;" in dot and "dashed" not in dot
    dot = export_dot(poset_to_complete_rn(antichain(2)))
    assert "v0 -> v1 [style=dashed];" in dot
    pic_dot = export_dot(build_picture_zero(C3, C2))
    assert pic_dot.count("subgraph cluster_") == 3
    with pytest.raises(TypeError):
        export_dot(42)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    save_structure(path, obj)
    return str(path)


def test_cli_validate_lines(tmp_path, capsys):
    g = make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)})
    path = _write(tmp_path, "g.json", g)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "OK rn n=3 |R|=2 |N|=1 good=false ell_rn_max=2\n"
    assert main(["validate", _write(tmp_path, "p.json", chain(4))]) == 0
    assert capsys.readouterr().out == "OK poset n=4 |R|=6\n"
    assert main(["validate", _write(tmp_path, "ap.json", _apartite_example())]) == 0
    assert "OK apartite n=4 parts=2" in capsys.readouterr().out
    assert main(["validate", _write(tmp_path, "pic.json", build_picture_zero(C3, C2))]) == 0
    assert "OK picture n=6 parts=3" in capsys.readouterr().out
    h = Homomorphism((0, 1), C2, C3)
    assert main(["validate", _write(tmp_path, "h.json", h)]) == 0
    assert capsys.readouterr().out == "OK homomorphism |map|=2\n"
    copies = enumerate_copies(C2, C3)
    col = make_coloring(copies, [0, 0, 1], 2)
    assert main(["validate", _write(tmp_path, "col.json", col)]) == 0
    assert capsys.readouterr().out == "OK coloring entries=3 r=2\n"


@pytest.mark.parametrize("kind", ["coloring", "homomorphism", "apartite", "picture"])
def test_cli_refuses_a_template_that_is_no_graph(tmp_path, capsys, kind):
    # the template's kind is checked before it is asked whether it is complete
    template = {
        "coloring": make_coloring(enumerate_copies(C2, C3), [0, 0, 1], 2),
        "homomorphism": Homomorphism((0, 1), C2, C3),
        "apartite": _apartite_example(),
        "picture": build_picture_zero(C3, C2),
    }[kind]
    path = tmp_path / "ap.json"
    path.write_text(json.dumps({**to_doc(_apartite_example()), "A": to_doc(template)}))
    message = "a partite graph and its template must be RN graphs"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"INVALID ap.json: {message}\n"
    assert main(["export-dot", str(path)]) == 1
    assert capsys.readouterr().err == f"ERROR: {message}\n"


def test_cli_validate_refuses_a_huge_n_before_building_its_range(tmp_path, capsys):
    # a 53-byte file once asked for tens of GB: range(n) came before the length check
    huge = tmp_path / "huge.json"
    huge.write_text('{"kind":"rn","n":1000000000,"order":[],"R":[],"N":[]}')
    tracemalloc.start()
    try:
        assert main(["validate", str(huge)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert "order is not a permutation of 0..999999999" in capsys.readouterr().out
    with pytest.raises(StructureError, match="not a permutation"):
        load_structure(huge)


def test_cli_validate_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"kind": "rn", "n": 2, "order": [0, 1], "R": [[0, 1]], "N": [[0, 1]]})
    )
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out == "INVALID bad.json: pair in both R and N: (0, 1)\n"
    bad.write_text(json.dumps({"kind": "poset", "n": 3, "order": [0, 1, 2], "R": [[0, 1], [1, 2]]}))
    assert main(["validate", str(bad)]) == 1
    for r, entries, message in [
        (-1, [([0, 1], 0)], "field 'r' must be positive, got -1"),
        (2, [([0, 1], 7)], "copy [0, 1] has color 7, outside 0..1"),
        (2, [([0, 1], 0), ([0, 1], 1)], "copy [0, 1] is listed twice"),
    ]:
        entries = [{"copy": copy, "color": color} for copy, color in entries]
        bad.write_text(json.dumps({"kind": "coloring", "r": r, "entries": entries}))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().out == f"INVALID bad.json: {message}\n"
    # parts must list their blocks ascending and cover the vertices, partite records
    # hold RN graphs only, and every field has its JSON type
    apartite, picture = to_doc(_apartite_example()), to_doc(build_picture_zero(C3, C2))
    for doc, message in [
        ({**apartite, "parts": [[1, 0], [2, 3]]}, "part 0 is not the next block"),
        ({**picture, "parts": [[0, 1], [3, 2], [4, 5]]}, "part 1 is not the next block"),
        ({**apartite, "parts": [[0, 1], [2, 7]]}, "part vertex out of range"),
        ({**apartite, "parts": [[0, 1], [2]]}, "parts do not cover the vertex set"),
        ({**apartite, "A": to_doc(chain(2))}, "must be RN graphs"),
        ({**picture, "D": to_doc(chain(3)), "base": to_doc(chain(6))}, "must be RN graphs"),
        ({**apartite, "parts": 5}, "field 'parts' must be a list"),
        ({**apartite, "kind": 5}, "field 'kind' must be a string"),
        ({**apartite, "A": [1]}, "field 'A' must be an object"),
        ({"kind": "coloring", "r": 2, "entries": [5]}, "coloring entries must be objects"),
        # each kind, and each coloring entry, takes exactly the keys to_doc writes
        ({**to_doc(chain(2)), "N": [[0, 1]]}, "unknown field 'N'"),
        ({**apartite, "A": {**to_doc(C2), "note": 1}}, "unknown field 'note'"),
        ({"kind": "coloring", "r": 2, "entries": [{"copy": [0], "color": 0, "c": 1}]},
         "unknown field 'c'"),
    ]:
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 1
        assert message in capsys.readouterr().out
    # nesting deep enough to exhaust the decoder's recursion is a parse error too
    for nested in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000):
        bad.write_text(nested)
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().out.startswith("INVALID bad.json: not valid JSON: ")
        with pytest.raises(ParseError):
            load_structure(bad)
    assert main(["validate", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("depth", [400, 1_500, 6_000])
def test_deep_nesting_is_a_parse_error_on_every_python(tmp_path, capsys, depth):
    # an apartite chain through "A", built by concatenation since json.dumps recurses
    # too: the decoder or from_doc runs out of recursion first, by Python version
    deep = tmp_path / "deep.json"
    deep.write_text('{"kind": "apartite", "A": ' * depth + "{}" + "}" * depth)
    with pytest.raises(ParseError):
        load_structure(deep)
    assert main(["validate", str(deep)]) == 1
    assert capsys.readouterr().out.startswith("INVALID deep.json: ")


def test_from_doc_refuses_deep_nesting_itself(tmp_path):
    # a library caller's in-memory dict nested 1,500 deep through "A" is a ParseError
    # from from_doc too, not a RecursionError, with the text load_structure gives the
    # same document read from a file
    depth, doc = 1_500, {}
    for _ in range(depth):
        doc = {"kind": "apartite", "A": doc}
    with pytest.raises(ParseError, match="^not valid JSON: maximum recursion depth exceeded"):
        from_doc(doc)
    deep = tmp_path / "deep.json"
    deep.write_text('{"kind": "apartite", "A": ' * depth + "{}" + "}" * depth)
    with pytest.raises(ParseError, match="^not valid JSON: maximum recursion depth exceeded"):
        load_structure(deep)


def test_cli_structure_error_prints_one_short_line(tmp_path, capsys):
    # the message, and the witness only when it is short: never a 100,000-entry tuple
    long = tmp_path / "long.json"
    long.write_text(json.dumps({"kind": "rn", "n": 3, "order": list(range(100_000)),
                                "R": [], "N": []}))
    assert main(["validate", str(long)]) == 1
    assert capsys.readouterr().out == "INVALID long.json: order is not a permutation of 0..2\n"
    assert main(["arrow", str(long), str(long), str(long)]) == 1
    err = capsys.readouterr().err
    assert err == "ERROR: order is not a permutation of 0..2\n" and len(err) < 200
    assert str(StructureError("R pair out of range", (0, 5))) == "R pair out of range: (0, 5)"
    assert str(StructureError("B must be good")) == "B must be good"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tower", "a", "b", "--out", "x"], "the following arguments are required: --ell-max"),
        (["arrow", "t", "q", "p", "--max-nodes", "lots"], "invalid int value: 'lots'"),
        # the removed switch, and a prefix of a flag, are not read as another flag
        (["tower", "a", "b", "--out", "x", "--ell-max", "2", "--oracle", "file"],
         "unrecognized arguments: --oracle file"),
        (["tower", "a", "b", "--out", "x", "--ell-max", "2", "--oracle-time", "5"],
         "unrecognized arguments: --oracle-time 5"),
        (["bogus"], "invalid choice: 'bogus'"),
    ],
)
def test_cli_usage_error_is_an_input_error(tmp_path, capsys, monkeypatch, argv, message):
    # exit 2 means "ceiling hit, partial output written"; a usage error is exit 1
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR: rnramsey") and message in err
    assert not any(tmp_path.iterdir())


def test_cli_arrow(tmp_path, capsys):
    c6 = _write(tmp_path, "c6.json", poset_to_complete_rn(chain(6)))
    c5 = _write(tmp_path, "c5.json", poset_to_complete_rn(chain(5)))
    q = _write(tmp_path, "q.json", C3)
    p = _write(tmp_path, "p.json", C2)
    assert main(["arrow", c6, q, p]) == 0
    assert capsys.readouterr().out.startswith("HOLDS r=2")
    cex = tmp_path / "cex.json"
    assert main(["arrow", c5, q, p, "--counterexample-out", str(cex)]) == 1
    assert f"FAILS r=2 counterexample={cex}" in capsys.readouterr().out
    coloring = load_structure(cex)
    assert len(coloring) == 10 and coloring.r == 2
    assert main(["arrow", c6, q, p, "--max-nodes", "5"]) == 2


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (InvariantViolation, 3, "INVARIANT VIOLATION"),
        (ResourceExceeded, 2, "RESOURCE"),
        (NotFoundWithinBounds, 2, "RESOURCE"),
        (CertificationFailed, 1, "ERROR"),
        (ParseError, 1, "ERROR"),
        (StructureError, 1, "ERROR"),
        (ValueError, 1, "ERROR"),
        (TypeError, 1, "ERROR"),
        (OSError, 1, "ERROR"),
    ],
)
def test_cli_exit_code_follows_the_exception_class(monkeypatch, capsys, exc, code, prefix):
    def fail(args):
        raise exc("stop")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "any.json"]) == code
    assert capsys.readouterr().err == f"{prefix}: stop\n"


def test_cli_arrow_replays_a_fails_before_writing_it(tmp_path, capsys, monkeypatch):
    # a FAILS coloring that leaves a monochromatic copy is a bug: exit 3, and no file
    c5 = poset_to_complete_rn(chain(5))
    copies = enumerate_copies(C2, c5)
    constant = make_coloring(copies, [0] * len(copies), 2)
    monkeypatch.setattr(cli, "check_arrow", lambda *args: ArrowVerdict(False, constant))
    target, q, p = (_write(tmp_path, f"{k}.json", g) for k, g in (("c5", c5), ("q", C3), ("p", C2)))
    cex = tmp_path / "cex.json"
    assert main(["arrow", target, q, p, "--counterexample-out", str(cex)]) == 3
    assert capsys.readouterr().err == (
        "INVARIANT VIOLATION: the FAILS coloring leaves Q-copy (0, 1, 2) monochromatic\n"
    )
    assert not cex.exists()


def test_cli_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # budgets come from flags and record defaults only; no variable changes a run
    monkeypatch.setenv("RNRAMSEY_MAX_NODES", "abc")
    assert main(["make", "chain", "2", "--out", str(tmp_path / "c2.json")]) == 0
    monkeypatch.setenv("RNRAMSEY_MAX_NODES", "5")
    c6 = _write(tmp_path, "c6.json", poset_to_complete_rn(chain(6)))
    q = _write(tmp_path, "q.json", C3)
    p = _write(tmp_path, "p.json", C2)
    assert main(["arrow", c6, q, p]) == 0
    assert capsys.readouterr().out.endswith("HOLDS r=2 nodes=987\n")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("tower", "--candidate-budget", "-5"),
        ("tower", "--size-bound", "-1"),
        ("tower", "--oracle-time-bound", "-1"),
        ("tower", "--max-picture-vertices", "-1"),
        ("arrow", "--max-nodes", "-1"),
        ("arrow", "--max-copies", "-1"),
        ("arrow", "--time-budget", "-1"),
        ("arrow", "--time-budget", "nan"),
        ("tower", "--oracle-time-bound", "nan"),
    ],
)
def test_cli_negative_budget_is_an_input_error(tmp_path, capsys, command, flag, value):
    if command == "tower":
        code, out = _run_tower(tmp_path, "t", flag, value)
        assert not out.exists()
    else:
        c5 = _write(tmp_path, "c5.json", poset_to_complete_rn(chain(5)))
        q = _write(tmp_path, "q.json", C3)
        p = _write(tmp_path, "p.json", C2)
        code = main(["arrow", c5, q, p, flag, value])
    assert code == 1
    assert "must be non-negative" in capsys.readouterr().err


def test_cli_bad_r_is_an_input_error_before_any_copy_budget(tmp_path, capsys):
    # r is input, checked before any copy is listed, so no copy budget can turn a bad
    # r into a ceiling (exit 2)
    c6 = _write(tmp_path, "c6.json", poset_to_complete_rn(chain(6)))
    q = _write(tmp_path, "q.json", C3)
    p = _write(tmp_path, "p.json", C2)
    assert main(["arrow", c6, q, p, "-r", "0", "--max-copies", "3"]) == 1
    assert capsys.readouterr().err == "ERROR: r must be an int of at least 1, got 0\n"


def _run_tower(tmp_path, out_name, *extra):
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    out = tmp_path / out_name
    code = main(["tower", a, b, "--ell-max", "3", "--out", str(out), *extra])
    return code, out


def test_cli_tower_and_finish(tmp_path, capsys):
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    printed = capsys.readouterr().out
    assert "stage 2: n=3 certified source=search:chain" in printed
    assert "stage 3: n=3 certified source=stabilized" in printed
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["lambda"] == "3" and manifest["stabilize"] == "true"
    assert manifest["stage.2.certified"] == "true"
    assert manifest["stage.3.stabilized"] == "true"
    assert "truncated" not in manifest
    for key in ("a", "b"):
        path = out / manifest[f"{key}.file"]
        assert digest(load_structure(path)) == manifest[f"{key}.digest"]
    stage3 = load_structure(out / manifest["stage.3.file"])
    assert digest(stage3) == manifest["stage.3.digest"]
    hdoc = load_structure(out / manifest["stage.3.h_file"])
    assert hdoc.map == (0, 1, 2)

    assert main(["finish", str(out)]) == 0
    report = capsys.readouterr().out
    assert "lambda: 3" in report
    assert "copies of B intact: all (3 of 3)" in report
    assert (out / "finish_report.txt").read_text() == report
    poset = load_structure(out / "C.json")
    assert poset == make_ordered_poset(3, {(0, 1), (0, 2), (1, 2)})


@pytest.mark.parametrize(
    "name, swap",
    [
        ("C3.json", ("antichain", "3", "--rn")),
        ("C3.json", ("chain", "4")),
        ("B.json", ("chain", "3", "--rn")),
    ],
)
def test_cli_finish_refuses_swapped_files(tmp_path, capsys, name, swap):
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    assert main(["make", *swap, "--out", str(out / name)]) == 0
    capsys.readouterr()
    assert main(["finish", str(out)]) == 1
    assert f"ERROR: {name} does not match its digest" in capsys.readouterr().err
    assert not (out / "C.json").exists()


@pytest.mark.parametrize("key", ["lambda", "b.file"])
def test_cli_finish_names_missing_manifest_key(tmp_path, capsys, key):
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    manifest = parse_manifest((out / "manifest.txt").read_text())
    del manifest[key]
    (out / "manifest.txt").write_text(format_manifest(manifest))
    capsys.readouterr()
    assert main(["finish", str(out)]) == 1
    assert f"ERROR: manifest has no '{key}' entry" in capsys.readouterr().err


def test_cli_finish_refuses_repeated_manifest_key(tmp_path, capsys):
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    text = (out / "manifest.txt").read_text()
    lines = len(text.splitlines())
    (out / "manifest.txt").write_text(text + "stage.2.digest: 0\n")
    capsys.readouterr()
    assert main(["finish", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ERROR: manifest line {lines + 1} repeats key 'stage.2.digest'" in err
    assert not (out / "C.json").exists()


def test_cli_refuses_bytes_that_are_not_utf8(tmp_path, capsys):
    # a file of bytes that are not UTF-8 is an input error on the parse route: validate
    # prints its INVALID line, not a decoder ERROR, and finish refuses such a manifest
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "rn", "n": 0\xff}')
    assert main(["validate", str(bad)]) == 1
    printed = capsys.readouterr()
    assert printed.err == "" and printed.out.startswith(
        "INVALID bad.json: not valid JSON: 'utf-8' codec can't decode byte 0xff"
    )
    with pytest.raises(ParseError):
        load_structure(bad)
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    manifest = out / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes() + b"note: \xff\n")
    capsys.readouterr()
    assert main(["finish", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "ERROR: manifest.txt is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
    )
    assert not (out / "C.json").exists()


@pytest.mark.parametrize(
    "key, obj",
    [
        ("stage.2", make_coloring(enumerate_copies(C2, C3), [0, 0, 1], 2)),
        ("stage.3", chain(3)),
        ("b", Homomorphism((0, 1), C2, C3)),
    ],
    ids=["stage.2-coloring", "stage.3-poset", "b-homomorphism"],
)
def test_cli_finish_refuses_a_listed_file_of_another_kind(tmp_path, capsys, key, obj):
    # a file of another kind under a listed name, even with its own digest in the
    # manifest, is an input error that names the kind, not a traceback in finish_stage
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    manifest = parse_manifest((out / "manifest.txt").read_text())
    name = manifest[f"{key}.file"]
    manifest[f"{key}.digest"] = save_structure(out / name, obj)
    (out / "manifest.txt").write_text(format_manifest(manifest))
    capsys.readouterr()
    assert main(["finish", str(out)]) == 1
    kind = to_doc(obj)["kind"]
    assert capsys.readouterr().err == f"ERROR: {name} is of kind {kind!r}, not an RN graph\n"
    assert not (out / "C.json").exists()


BUDGET_FLAGS = ("max_nodes", "max_copies", "time_budget", "size_bound", "candidate_budget",
                "oracle_time_bound", "max_picture_vertices")


def test_cli_budget_defaults_are_the_record_defaults():
    parser = _build_parser()
    args = parser.parse_args(["arrow", "t.json", "q.json", "p.json"])
    limits = SearchLimits()
    assert (args.max_nodes, args.max_copies, args.time_budget) == (
        limits.max_nodes, limits.max_copies, limits.time_budget
    )
    assert (type(args.max_nodes), type(args.time_budget)) == (int, float)
    args = parser.parse_args(["tower", "a.json", "b.json", "--ell-max", "3", "--out", "o"])
    oracle = BaseOracle()
    assert (args.size_bound, args.candidate_budget, args.oracle_time_bound) == (
        oracle.size_bound, oracle.candidate_budget, oracle.time_bound
    )
    assert args.max_picture_vertices == BuildLimits().max_picture_vertices
    # each flag sets its own field
    flags = [f"--{name.replace('_', '-')}" for name in BUDGET_FLAGS]
    arrow_args = parser.parse_args(
        ["arrow", "t.json", "q.json", "p.json"] + [x for f in flags[:3] for x in (f, "7")]
    )
    tower_args = parser.parse_args(
        ["tower", "a.json", "b.json", "--ell-max", "3", "--out", "o"]
        + [x for f in flags[3:] for x in (f, "7")]
    )
    values = {**vars(arrow_args), **vars(tower_args)}
    assert all(values[name] == 7 for name in BUDGET_FLAGS)


def test_cli_finish_refuses_edited_lambda(tmp_path, capsys):
    code, out = _run_tower(tmp_path, "tower")
    assert code == 0
    manifest = parse_manifest((out / "manifest.txt").read_text())
    manifest["lambda"] = "2"
    (out / "manifest.txt").write_text(format_manifest(manifest))
    capsys.readouterr()
    assert main(["finish", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ERROR: manifest lambda 2 disagrees with stage 2, which gives 3" in err
    assert not (out / "C.json").exists()


def test_cli_tower_reruns_are_byte_identical(tmp_path, capsys):
    _, out1 = _run_tower(tmp_path, "run1")
    _, out2 = _run_tower(tmp_path, "run2")
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_tower_truncation_exit_code(tmp_path, capsys):
    code, out = _run_tower(tmp_path, "trunc", "--no-stabilize")
    assert code == 2
    printed = capsys.readouterr().out
    assert "TRUNCATED: stage 3" in printed
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert "truncated" in manifest and "stage.3.file" not in manifest
    assert main(["finish", str(out)]) == 1


def test_cli_tower_point_v_closes(tmp_path, capsys):
    # the stage-2 search finds a 6-vertex poset, so every later stage stabilizes
    a = _write(tmp_path, "point.json", chain(1))
    b = _write(tmp_path, "v.json", make_ordered_poset(3, {(0, 2), (1, 2)}))
    out = tmp_path / "V"
    assert main(["tower", a, b, "--ell-max", "6", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("stage 2: n=6 certified source=search:enumeration\n")
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["stage.2.certified"] == "true" and manifest["lambda"] == "6"
    assert all(manifest[f"stage.{ell}.stabilized"] == "true" for ell in range(3, 7))
    assert main(["finish", str(out)]) == 0


def test_cli_tower_truncated_at_stage_two(tmp_path, capsys):
    # the oracle's budget runs out before stage 2: A, B and the manifest are written;
    # no poset on 7 or fewer vertices arrows this B over the 2-chain
    a = _write(tmp_path, "c2.json", chain(2))
    b = _write(tmp_path, "b.json", make_ordered_poset(4, {(0, 2), (0, 3), (1, 3)}))
    out = tmp_path / "D"
    assert main(["tower", a, b, "--ell-max", "4", "--out", str(out)]) == 2
    reason = "stage 2: candidate budget (60000) exhausted at size 7: 3451 certified, "
    assert capsys.readouterr().out.startswith(f"TRUNCATED: {reason}")
    assert sorted(p.name for p in out.iterdir()) == ["A.json", "B.json", "manifest.txt"]
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["truncated"].startswith(reason)
    assert "lambda" not in manifest
    assert digest(load_structure(out / "B.json")) == manifest["b.digest"]
    assert load_structure(out / "B.json") == poset_to_complete_rn(load_structure(b))
    assert main(["finish", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR: tower has no stage; it was truncated at {reason}")


def test_cli_tower_refuses_a_pattern_that_is_not_complete_and_good(tmp_path, capsys):
    a = _write(tmp_path, "a.json", chain(1))
    out = tmp_path / "t"
    for B, message in [
        (make_rn_graph(2, set(), set()), "B must be a complete RN graph"),
        (make_rn_graph(3, {(0, 1), (1, 2)}, {(0, 2)}), "B must be good"),
    ]:
        b = _write(tmp_path, "b.json", B)
        assert main(["tower", a, b, "--ell-max", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"ERROR: {message}\n"
    assert not out.exists()


def test_cli_tower_on_complete_rn_files(tmp_path, capsys):
    # `make --rn` files give the same stages and the same manifest as the posets
    code, from_posets = _run_tower(tmp_path, "posets")
    assert code == 0
    printed = capsys.readouterr().out
    a, b = str(tmp_path / "point_rn.json"), str(tmp_path / "c2_rn.json")
    assert main(["make", "chain", "1", "--rn", "--out", a]) == 0
    assert main(["make", "chain", "2", "--rn", "--out", b]) == 0
    out = tmp_path / "rn"
    capsys.readouterr()
    assert main(["tower", a, b, "--ell-max", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    manifest = (out / "manifest.txt").read_text()
    assert manifest == (from_posets / "manifest.txt").read_text()


def test_cli_tower_assume_mode(tmp_path, capsys):
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    w = _write(tmp_path, "w.json", C3)
    out = tmp_path / "assumed"
    code = main(["tower", a, b, "--ell-max", "2", "--out", str(out), "--witness", w, "--assume"])
    assert code == 0
    assert "conditionally correct source=assume" in capsys.readouterr().out
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["stage.2.certified"] == "false" and manifest["oracle.mode"] == "assume"


@pytest.mark.parametrize("assume", [False, True])
def test_cli_tower_takes_a_poset_witness_as_its_complete_rn_graph(tmp_path, capsys, assume):
    # a poset witness is converted like A and B, certified or assumed
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    w = _write(tmp_path, "w.json", chain(3))
    out = tmp_path / "poset"
    argv = ["tower", a, b, "--ell-max", "2", "--out", str(out), "--witness", w]
    assert main(argv + (["--assume"] if assume else [])) == 0
    certified = "conditionally correct source=assume" if assume else "certified source=file"
    assert capsys.readouterr().out == f"stage 2: n=3 {certified}\n"
    assert load_structure(out / "C2.json") == C3


def test_cli_tower_refuses_a_witness_of_another_kind(tmp_path, capsys):
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    w = _write(tmp_path, "w.json", make_coloring(enumerate_copies(chain(1), chain(2)), [0, 1], 2))
    out = tmp_path / "coloring"
    argv = ["tower", a, b, "--ell-max", "3", "--out", str(out), "--witness", w, "--assume"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "ERROR: witness must be an OrderedPoset or an RNGraph, not a Coloring\n"
    )
    assert not out.exists()


def test_cli_tower_names_the_query_a_file_witness_fails(tmp_path, capsys):
    # chain(2) does not arrow the 2-chain over a point: color its two vertices apart
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    w = _write(tmp_path, "w.json", C2)
    out = tmp_path / "refuted"
    argv = ["tower", a, b, "--ell-max", "4", "--out", str(out), "--no-stabilize",
            "--witness", w]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "ERROR: supplied 2-vertex witness is refuted by the exact arrow search: it does not "
        "arrow the 2-vertex pattern (1 R, 0 N pairs) over the 1-vertex template\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, stage_2",
    [("file", "stage 2: n=3 certified source=file"),
     ("assume", "stage 2: n=3 conditionally correct source=assume")],
)
def test_cli_tower_rounds_search_past_a_supplied_witness(tmp_path, capsys, mode, stage_2):
    # the witness answers stage 2 only; the first product round asks for a 2-antichain
    # pattern, which chain(3) does not contain, so the round searches as in search mode
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    w = _write(tmp_path, "w.json", C3)
    out = tmp_path / mode
    argv = ["tower", a, b, "--ell-max", "4", "--out", str(out), "--no-stabilize",
            "--witness", w] + (["--assume"] if mode == "assume" else [])
    assert main(argv) == 2
    assert capsys.readouterr().out == (
        f"{stage_2}\n"
        "TRUNCATED: stage 3: every witness contains a copy of the 2772-vertex pattern, "
        "beyond the size bound 16\n"
    )
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["oracle.mode"] == mode and manifest["stage.2.source"] == mode
    assert manifest["truncated"].startswith("stage 3: ")
    assert (out / "C2.json").exists() and "stage.3.file" not in manifest


def test_cli_tower_refuses_assume_without_a_witness(tmp_path, capsys):
    # there is nothing to assume, so the run is an input error, not a search
    a = _write(tmp_path, "a.json", chain(1))
    b = _write(tmp_path, "b.json", chain(2))
    out = tmp_path / "assumed"
    assert main(["tower", a, b, "--ell-max", "2", "--out", str(out), "--assume"]) == 1
    assert capsys.readouterr().err == "ERROR: assume mode requires a witness\n"
    assert not out.exists()


def test_cli_tower_certification_ceiling_truncates_at_stage_two(tmp_path, capsys):
    # 2,001 point copies are past the exact search's ceiling: the certification stops
    # like any ceiling (exit 2, partial output), and only --assume passes the witness
    a = _write(tmp_path, "pt.json", chain(1))
    w = _write(tmp_path, "e2001.json", make_rn_graph(2001, (), ()))
    out = tmp_path / "file"
    assert main(["tower", a, a, "--ell-max", "2", "--out", str(out), "--witness", w]) == 2
    reason = (
        "stage 2: more than 2000 P-copies, the exact search ceiling, "
        "in the first 2001 of 2001 Q-copies"
    )
    assert capsys.readouterr().out == f"TRUNCATED: {reason}\n"
    assert sorted(p.name for p in out.iterdir()) == ["A.json", "B.json", "manifest.txt"]
    manifest = parse_manifest((out / "manifest.txt").read_text())
    assert manifest["truncated"] == reason and "lambda" not in manifest
    assert manifest["oracle.mode"] == "file"
    out = tmp_path / "assume"
    argv = ["tower", a, a, "--ell-max", "2", "--out", str(out), "--witness", w, "--assume"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "stage 2: n=2001 conditionally correct source=assume\n"
    assert parse_manifest((out / "manifest.txt").read_text())["lambda"] == "2001"


def test_cli_export_dot_and_make(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["make", "chain", "3", "--rn", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    assert capsys.readouterr().out == "OK rn n=3 |R|=3 |N|=0 good=true ell_rn_max=inf\n"
    dot = tmp_path / "c.dot"
    assert main(["export-dot", str(out), "--out", str(dot)]) == 0
    capsys.readouterr()
    assert "v0 -> v1;" in dot.read_text()
    assert main(["export-dot", str(out)]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert main(["make", "v", "3", "--out", str(tmp_path / "v.json")]) == 0
    capsys.readouterr()
    assert main(["make", "v", "4", "--out", str(tmp_path / "v4.json")]) == 1
    copies = enumerate_copies(C2, C3)
    col = _write(tmp_path, "col.json", make_coloring(copies, [0, 0, 1], 2))
    assert main(["export-dot", col]) == 1


# A DOT ID: a name of letters, digits and "_" (any non-ASCII letter too) that does not
# start with a digit and is not a keyword, a numeral, or a double-quoted string.
_DOT_ID = re.compile(
    r"[A-Za-z_\x80-\U0010ffff][\w\x80-\U0010ffff]*"
    r"|-?(\.\d+|\d+(\.\d*)?)"
    r'|"(\\.|[^"\\])*"',
    re.ASCII,
)
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


@pytest.mark.parametrize("stem", ["2chain", "my chain", "a.b", "graph", "c3", "my-chain"])
def test_cli_export_dot_names_the_graph_with_a_dot_id(tmp_path, capsys, stem):
    # Graphviz is not needed: the header is checked against the grammar of a DOT ID
    path = _write(tmp_path, f"{stem}.json", C3)
    assert main(["export-dot", path]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("digraph ") and header.endswith(" {")
    name = header[len("digraph "):-len(" {")]
    assert _DOT_ID.fullmatch(name) and name.lower() not in _DOT_KEYWORDS
    if stem in ("c3", "my-chain"):  # identifiers keep their bytes, "-" still becomes "_"
        assert name == stem.replace("-", "_")


@pytest.mark.parametrize(
    "name, dot_id",
    [("my chain", "my_chain"), ("graph", "_graph"), ("Strict", "_Strict"), ("c2", "c2")],
)
def test_export_dot_makes_any_name_a_dot_id(name, dot_id):
    # library callers get a valid DOT ID too, not only the CLI's file stems
    header = export_dot(chain(2), name=name).splitlines()[0]
    assert header == f"digraph {dot_id} {{"
    assert _DOT_ID.fullmatch(dot_id) and dot_id.lower() not in _DOT_KEYWORDS
