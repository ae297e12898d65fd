"""Command-line front end.

Exit codes follow the exception class: 0 success or HOLDS, 1 FAILS or a TypeError,
ValueError or OSError (invalid input: StructureError, ParseError, CertificationFailed,
a usage error), 2 a ResourceExceeded (a ceiling or bounded search ran out, a witness's
certification included), 3 an InvariantViolation (a bug, not bad input).
Each budget flag defaults to its record's own default (SearchLimits, BaseOracle,
BuildLimits), and nothing but the flag changes it.  `tower --witness` certifies the
stage-2 witness; with `--assume` it is taken uncertified.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import find_bad_quasicycle, is_good
from .arrow import (
    BaseOracle,
    Coloring,
    ResourceExceeded,
    SearchLimits,
    check_arrow,
    find_monochromatic,
)
from .construction import (
    BuildLimits,
    Picture,
    build_tower,
    finish_index,
    finish_stage,
)
from .io import (
    HomomorphismDoc,
    ParseError,
    digest,
    export_dot,
    format_manifest,
    load_structure,
    parse_manifest,
    save_structure,
    to_doc,
)
from .partite import APartiteRNGraph
from .structures import (
    InvariantViolation,
    OrderedPoset,
    RNGraph,
    StructureError,
    antichain,
    chain,
    make_ordered_poset,
    poset_to_complete_rn,
)


def cmd_validate(args) -> int:
    try:
        obj = load_structure(args.path)
    except (ParseError, StructureError) as exc:
        print(f"INVALID {Path(args.path).name}: {exc}")
        return 1
    if isinstance(obj, OrderedPoset):
        print(f"OK poset n={obj.n} |R|={len(obj.R)}")
    elif isinstance(obj, RNGraph):
        cycle = find_bad_quasicycle(obj)
        print(
            f"OK rn n={obj.n} |R|={len(obj.R)} |N|={len(obj.N)} "
            f"good={str(is_good(obj)).lower()} "
            f"ell_rn_max={'inf' if cycle is None else len(cycle) - 1}"
        )
    elif isinstance(obj, (APartiteRNGraph, Picture)):
        g = obj.base
        kind = "apartite" if isinstance(obj, APartiteRNGraph) else "picture"
        print(
            f"OK {kind} n={g.n} parts={len(obj.parts)} |R|={len(g.R)} "
            f"|N|={len(g.N)} good={str(is_good(g)).lower()}"
        )
    elif isinstance(obj, HomomorphismDoc):
        print(f"OK homomorphism |map|={len(obj.map)}")
    elif isinstance(obj, Coloring):
        print(f"OK coloring entries={len(obj)} r={obj.r}")
    return 0


def cmd_arrow(args) -> int:
    target = load_structure(args.target)
    Q = load_structure(args.Q)
    P = load_structure(args.P)
    limits = SearchLimits(
        max_nodes=args.max_nodes, max_copies=args.max_copies, time_budget=args.time_budget
    )
    verdict = check_arrow(target, Q, P, args.r, limits)
    if verdict.holds:
        print(f"HOLDS r={args.r} nodes={verdict.nodes_explored}")
        return 0
    mono = find_monochromatic(target, verdict.counterexample, Q, P)
    if mono is not None:
        raise InvariantViolation(f"the FAILS coloring leaves Q-copy {mono.image} monochromatic")
    out = args.counterexample_out
    save_structure(out, verdict.counterexample)
    print(f"FAILS r={args.r} counterexample={out}")
    return 1


def cmd_tower(args) -> int:
    A = load_structure(args.A)
    B = load_structure(args.B)
    witness = load_structure(args.witness) if args.witness else None  # answers stage 2 only
    oracle = BaseOracle(
        size_bound=args.size_bound, time_bound=args.oracle_time_bound,
        candidate_budget=args.candidate_budget,
    )
    limits = BuildLimits(max_picture_vertices=args.max_picture_vertices)
    tower = build_tower(
        A, B, args.ell_max, oracle, witness=witness, assume=args.assume,
        stabilize=not args.no_stabilize, limits=limits,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {
        "a.file": "A.json",
        "a.digest": save_structure(out / "A.json", tower.A),
        "b.file": "B.json",
        "b.digest": save_structure(out / "B.json", tower.B),
        "oracle.mode": "search" if witness is None else "assume" if args.assume else "file",
        "stabilize": str(not args.no_stabilize).lower(),
    }
    if tower.stages:
        manifest["lambda"] = str(finish_index(tower.stages[0].C))
    certified = "certified" if tower.certified else "conditionally correct"
    for stage in tower.stages:
        key = f"stage.{stage.ell}"
        name = f"C{stage.ell}.json"
        manifest[f"{key}.file"] = name
        manifest[f"{key}.digest"] = save_structure(out / name, stage.C)
        manifest[f"{key}.n"] = str(stage.C.n)
        manifest[f"{key}.certified"] = str(tower.certified).lower()
        manifest[f"{key}.stabilized"] = str(stage.stabilized).lower()
        manifest[f"{key}.source"] = stage.source
        if stage.h_down is not None:
            hname = f"h{stage.ell}.json"
            manifest[f"{key}.h_file"] = hname
            manifest[f"{key}.h_digest"] = save_structure(out / hname, stage.h_down)
        print(f"stage {stage.ell}: n={stage.C.n} {certified} source={stage.source}")
    if tower.truncated:
        manifest["truncated"] = tower.truncated
    (out / "manifest.txt").write_text(format_manifest(manifest), encoding="utf-8")
    if tower.truncated:
        print(f"TRUNCATED: {tower.truncated}")
        return 2
    return 0


def _entry(manifest: dict[str, str], key: str) -> str:
    if key not in manifest:
        raise ParseError(f"manifest has no {key!r} entry")
    return manifest[key]


def _load_listed(tower_dir: Path, manifest: dict[str, str], key: str):
    """Load the manifest's `<key>.file`, refusing it unless it matches `<key>.digest`
    and holds an RN graph."""
    name = _entry(manifest, f"{key}.file")
    obj = load_structure(tower_dir / name)
    if digest(obj) != manifest.get(f"{key}.digest"):
        raise ParseError(f"{name} does not match its digest in the manifest")
    if not isinstance(obj, RNGraph):  # tower writes only RN graphs there
        raise ParseError(f"{name} is of kind {to_doc(obj)['kind']!r}, not an RN graph")
    return obj


def cmd_finish(args) -> int:
    tower_dir = Path(args.tower_dir)
    try:
        text = (tower_dir / "manifest.txt").read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"manifest.txt is not UTF-8 text: {exc}") from None
    manifest = parse_manifest(text)
    if "stage.2.file" not in manifest and "truncated" in manifest:
        raise StructureError(f"tower has no stage; it was truncated at {manifest['truncated']}")
    lam = finish_index(_load_listed(tower_dir, manifest, "stage.2"))
    if _entry(manifest, "lambda") != str(lam):
        raise ParseError(
            f"manifest lambda {manifest['lambda']} disagrees with stage 2, which gives {lam}"
        )
    key = f"stage.{lam}.file"
    if key not in manifest:
        raise StructureError(f"tower directory has no stage {lam} (lambda = {lam})")
    graph = _load_listed(tower_dir, manifest, f"stage.{lam}")
    B = _load_listed(tower_dir, manifest, "b")
    result = finish_stage(graph, lam, B)
    out = Path(args.out) if args.out else tower_dir / "C.json"
    poset_digest = save_structure(out, result.poset)
    lines = [
        f"lambda: {lam}",
        f"stage file: {manifest[key]}",
        f"poset file: {out.name}",
        f"poset digest: {poset_digest}",
        f"copies of B before closure: {result.b_copies_before}",
        f"copies of B intact: all ({result.b_copies_intact} of {result.b_copies_before})",
        f"copies of B after closure: {result.b_copies_after}",
    ]
    report = "\n".join(lines) + "\n"
    (tower_dir / "finish_report.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return 0


def cmd_export_dot(args) -> int:
    obj = load_structure(args.path)
    if isinstance(obj, (HomomorphismDoc, Coloring)):
        raise StructureError("only graph-like structures render to DOT")
    text = export_dot(obj, name=Path(args.path).stem)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_make(args) -> int:
    if args.kind == "chain":
        poset = chain(args.size)
    elif args.kind == "antichain":
        poset = antichain(args.size)
    else:
        if args.size != 3:
            raise StructureError("the v shape has exactly 3 vertices")
        poset = make_ordered_poset(3, {(0, 2), (1, 2)})
    obj = poset_to_complete_rn(poset) if args.rn else poset
    save_structure(args.out, obj)
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2 (the ceiling code), and flags are spelled
    in full; the subparsers share this class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rnramsey",
        description="Ordered RN graphs: validation, arrow checks, towers, finishing.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check a structure file and print a summary")
    sub.add_argument("path")
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("arrow", help="decide target -> (Q)^P_r exactly")
    sub.add_argument("target")
    sub.add_argument("Q")
    sub.add_argument("P")
    sub.add_argument("-r", type=int, default=2)
    sub.add_argument("--counterexample-out", default="counterexample.json")
    sub.add_argument("--max-nodes", type=int, default=SearchLimits.max_nodes)
    sub.add_argument("--max-copies", type=int, default=SearchLimits.max_copies)
    sub.add_argument("--time-budget", type=float, default=SearchLimits.time_budget)
    sub.set_defaults(func=cmd_arrow)

    sub = subs.add_parser("tower", help="build the stage tower for a pattern pair")
    sub.add_argument("A")
    sub.add_argument("B")
    sub.add_argument("--ell-max", type=int, required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--witness", help="stage-2 witness file, certified unless --assume")
    sub.add_argument("--assume", action="store_true", help="take --witness uncertified")
    sub.add_argument("--size-bound", type=int, default=BaseOracle.size_bound)
    sub.add_argument("--candidate-budget", type=int, default=BaseOracle.candidate_budget)
    sub.add_argument("--oracle-time-bound", type=float, default=BaseOracle.time_bound)
    sub.add_argument(
        "--max-picture-vertices", type=int, default=BuildLimits.max_picture_vertices
    )
    sub.add_argument("--no-stabilize", action="store_true")
    sub.set_defaults(func=cmd_tower)

    sub = subs.add_parser("finish", help="close a tower's last needed stage into a poset")
    sub.add_argument("tower_dir")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_finish)

    sub = subs.add_parser("export-dot", help="render a structure file as DOT")
    sub.add_argument("path")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_export_dot)

    sub = subs.add_parser("make", help="write a small example structure file")
    sub.add_argument("kind", choices=("chain", "antichain", "v"))
    sub.add_argument("size", type=int)
    sub.add_argument("--out", required=True)
    sub.add_argument("--rn", action="store_true", help="emit the complete RN form")
    sub.set_defaults(func=cmd_make)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 3
    except ResourceExceeded as exc:
        print(f"RESOURCE: {exc}", file=sys.stderr)
        return 2
    except (TypeError, ValueError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
