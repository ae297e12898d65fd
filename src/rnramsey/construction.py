"""Partite recursion: picture zero, amalgamation rounds, the stage tower, finishing.

The recursion state is a picture: an RN graph split into one part per vertex of a host
graph D, together with the part-collapsing homomorphism onto D.  Each round picks one
copy of the pattern A inside D, takes the sub-picture living on that copy's parts,
replaces it by a partite product, and re-glues a fresh copy of the old picture over
every lifted sub-picture copy.  Towers stack completed rounds, raising the guaranteed
quasicycle-freedom bound by one per level; the finisher transitively closes the last
stage into a partial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

from .analysis import (
    check_homomorphism,
    compose_homomorphisms,
    identity_homomorphism,
    is_ell_rn,
    is_good,
    longest_r_path_vertices,
    transitive_closure,
)
from .arrow import BaseOracle, OracleWitness, certify_witness, oracle_ramsey, require_budgets
from .embeddings import Copy, ResourceExceeded, enumerate_copies, is_embedding, iter_copies
from .partite import APartiteRNGraph, ProductResult, check_partition, collapse, make_apartite
from .partite import part_owner, product_construction
from .structures import (
    Homomorphism,
    InvariantViolation,
    OrderedPoset,
    RNGraph,
    StructureError,
    induced_substructure,
    is_complete,
    make_ordered_poset,
    make_rn_graph,
    poset_to_complete_rn,
    rn_to_poset,
)


@dataclass(frozen=True)
class BuildLimits:
    """Resource ceiling for one construction run."""

    max_picture_vertices: int = 20_000

    def __post_init__(self) -> None:
        require_budgets(self, ("max_picture_vertices",))


@dataclass(frozen=True)
class Picture:
    """Part-structured snapshot of the recursion, one part per vertex of D.

    Part t holds the preimage of the t-th smallest D-vertex under f; parts are stored
    ascending in the base order and occupy consecutive rank blocks (validate checks it).
    """

    base: RNGraph
    D: RNGraph = field(compare=False)
    parts: tuple[tuple[int, ...], ...]

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        return part_owner(self.parts, self.base.n)

    @cached_property
    def f(self) -> Homomorphism:
        """The collapse map: each vertex onto the D-vertex that owns its part."""
        return collapse(self.base, self.part_of, self.D)

    def validate(self) -> None:
        """Partite over D; this also makes f a homomorphism onto D."""
        check_partition(self.base, self.parts, self.D)


def _glue(n: int, structure: RNGraph, vmaps) -> RNGraph:
    """The graph on n vertices carrying every image of structure's relations under the
    vertex maps; two maps that put one pair in both R and N are an InvariantViolation."""
    R = frozenset((m[x], m[y]) for m in vmaps for x, y in structure.R)
    N = frozenset((m[x], m[y]) for m in vmaps for x, y in structure.N)
    both = R & N
    if both:
        raise InvariantViolation(f"copies disagree on pair {min(both)}")
    return make_rn_graph(n, R, N)


def _assemble(D: RNGraph, keyed_parts, structure: RNGraph, keyed_maps, projected: int):
    """The picture over D glued from copies of structure, and the copies' vertex maps.

    Part t gets one new vertex per key of keyed_parts[t], numbered part by part; each
    copy lists one key per vertex of structure.  The count must be the projected one:
    a repeated key would silently merge two vertices.
    """
    ids: dict = {}
    parts = tuple(tuple(ids.setdefault(key, len(ids)) for key in keys) for keys in keyed_parts)
    if len(ids) != projected:
        raise InvariantViolation(f"numbered {len(ids)} vertices, projected {projected}")
    vmaps = tuple(tuple(ids[key] for key in keys) for keys in keyed_maps)
    base = _glue(len(ids), structure, vmaps)
    for k, vmap in enumerate(vmaps):
        if not is_embedding(vmap, structure, base):
            raise InvariantViolation(f"gluing damaged copy {k}")
    picture = Picture(base, D, parts)
    picture.validate()
    return picture, vmaps


def build_picture_zero(D: RNGraph, B: RNGraph) -> Picture:
    """Disjoint union of all copies of B in D, spread over the parts they touch."""
    copies = enumerate_copies(B, D)
    if not copies:
        raise StructureError(f"host on {D.n} vertices carries no copy of the pattern")
    picture, _ = _assemble(
        D,
        ([(h, dv) for h, copy in enumerate(copies) if dv in copy.image] for dv in D.order),
        B,
        ([(h, w) for w in copy.map] for h, copy in enumerate(copies)),
        len(copies) * B.n,
    )
    if not is_good(picture.base):
        raise InvariantViolation("disjoint copies of a good pattern must form a good graph")
    return picture


def _selected_positions(P: Picture, a_copy: Copy) -> list[int]:
    """Part positions of P touched by a copy of A in D, ascending: the image is listed
    in D order."""
    return [P.D.rank[v] for v in a_copy.image]


def _subsystem_vertices(P: Picture, a_copy: Copy) -> list[int]:
    """Picture vertices inside the selected parts, in base order; this fixed listing
    is the local-id correspondence shared by induced_subsystem and amalgamate."""
    return [v for t in _selected_positions(P, a_copy) for v in P.parts[t]]


def induced_subsystem(P: Picture, A: RNGraph, a_copy: Copy) -> APartiteRNGraph:
    """Sub-picture on the parts under one copy of A, re-typed over A itself.

    Local vertex k is the k-th entry of the part concatenation in base order, so the
    relabeling is recoverable from (P, a_copy) alone.
    """
    chosen = _subsystem_vertices(P, a_copy)
    sub = induced_substructure(P.base, tuple(chosen))
    base = make_rn_graph(sub.n, sub.R, sub.N, sub.order)
    local = {v: k for k, v in enumerate(chosen)}
    parts = (tuple(local[v] for v in P.parts[t]) for t in _selected_positions(P, a_copy))
    return make_apartite(A, base, parts)


def amalgamate(
    P: Picture,
    a_copy: Copy,
    F: APartiteRNGraph,
    lifts: tuple[Copy, ...],
    limits: BuildLimits,
) -> tuple[Picture, tuple[tuple[int, ...], ...]]:
    """Glue one fresh copy of P over each lifted sub-picture copy; also return the
    per-copy vertex maps into the new picture."""
    if not lifts:
        raise StructureError("product carries no lifted copies of the sub-picture")
    s_index = {t: i for i, t in enumerate(_selected_positions(P, a_copy))}
    local = {v: k for k, v in enumerate(_subsystem_vertices(P, a_copy))}
    K = len(lifts)

    # A lift maps local sub-picture vertices into F, part to part.  F vertices outside
    # every lift are dropped.
    used = {u for lift in lifts for u in lift.map}
    projected = len(used) + K * (P.base.n - len(local))
    if projected > limits.max_picture_vertices:
        raise ResourceExceeded(
            f"amalgamation would need {projected} vertices "
            f"(ceiling {limits.max_picture_vertices}, {K} lifted copies)"
        )

    # A selected part is keyed by F-vertex, every other part by (lift, old vertex).
    keyed_parts = (
        [u for u in F.parts[s_index[t]] if u in used]
        if t in s_index
        else [(k, x) for x in members for k in range(K)]
        for t, members in enumerate(P.parts)
    )
    keyed_maps = (
        [lift.map[local[x]] if t in s_index else (k, x) for x, t in enumerate(P.part_of)]
        for k, lift in enumerate(lifts)
    )
    return _assemble(P.D, keyed_parts, P.base, keyed_maps, projected)


@dataclass(frozen=True)
class AmalgamationStep:
    product: ProductResult
    picture: Picture
    copy_maps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConstructionRun:
    steps: tuple[AmalgamationStep, ...]
    picture: Picture
    truncated: str | None = None


def _require_pattern(graph: RNGraph, name: str) -> None:
    if not is_complete(graph):
        raise StructureError(f"{name} must be a complete RN graph")
    if not is_good(graph):
        raise StructureError(f"{name} must be good")


def run_partite_construction(
    D: RNGraph,
    A: RNGraph,
    B: RNGraph,
    oracle: BaseOracle,
    *,
    ell: int | None = None,
    limits: BuildLimits | None = None,
    allow_truncated: bool = False,
    max_steps: int | None = None,
) -> ConstructionRun:
    """Run every gluing round over the copies of A in D, in enumeration order.

    When ell is given, each round is required to preserve ell-freedom; a violation is
    an internal invariant failure, not an input error.  Oracle and resource failures
    propagate unless allow_truncated is set, in which case the completed prefix comes
    back with the reason recorded.  max_steps, when given, caps the rounds run.
    """
    _require_pattern(A, "A")
    _require_pattern(B, "B")
    if max_steps is not None:
        require_budgets(SimpleNamespace(max_steps=max_steps), ("max_steps",))
    limits = limits or BuildLimits()
    picture = build_picture_zero(D, B)
    if ell is not None and not is_ell_rn(picture.base, ell):
        raise InvariantViolation("a good starting picture cannot fail this")
    steps: list[AmalgamationStep] = []
    a_copies = enumerate_copies(A, D)
    if max_steps is not None:
        a_copies = a_copies[:max_steps]
    for j, a_copy in enumerate(a_copies):
        try:
            subsystem = induced_subsystem(picture, A, a_copy)
            product = product_construction(A, subsystem, oracle)
            picture, copy_maps = amalgamate(
                picture, a_copy, product.apartite, product.lifts, limits
            )
        except ResourceExceeded as exc:
            if allow_truncated:
                return ConstructionRun(tuple(steps), picture, truncated=f"round {j}: {exc}")
            raise
        if ell is not None and not is_ell_rn(picture.base, ell):
            raise InvariantViolation(
                f"round {j} lost {ell}-freedom; the gluing argument is violated"
            )
        steps.append(AmalgamationStep(product, picture, copy_maps))
    return ConstructionRun(tuple(steps), picture)


@dataclass(frozen=True)
class TowerStage:
    ell: int
    C: RNGraph
    h_down: Homomorphism | None
    source: str

    @property
    def stabilized(self) -> bool:
        return self.source == "stabilized"


@dataclass(frozen=True)
class Tower:
    stages: tuple[TowerStage, ...]
    A: RNGraph
    B: RNGraph
    certified: bool  # every stage rests on stage 2's witness: false when it was assumed
    truncated: str | None = None

    def stage_for(self, ell: int) -> TowerStage | None:
        for stage in self.stages:
            if stage.ell == ell:
                return stage
        return None

    def composed_map(self, ell: int) -> Homomorphism:
        """Composition of the downward maps from stage ell onto the first stage."""
        stage = self.stage_for(ell)
        if stage is None:
            raise StructureError(f"tower has no stage {ell}")
        h = identity_homomorphism(stage.C)
        for cur in range(ell, 2, -1):
            h = compose_homomorphisms(self.stage_for(cur).h_down, h)
        return h


def _as_complete_rn(obj, name: str, *, pattern: bool = True) -> RNGraph:
    """A poset as its complete RN graph, an RN graph as it is: complete and good when
    it is a pattern, anything when it is a witness.  Any other kind is a TypeError."""
    if isinstance(obj, OrderedPoset):
        return poset_to_complete_rn(obj)
    if isinstance(obj, RNGraph):
        if pattern:
            _require_pattern(obj, name)
        return obj
    kind = "a complete RNGraph" if pattern else "an RNGraph"
    raise TypeError(f"{name} must be an OrderedPoset or {kind}, not a {type(obj).__name__}")


def build_tower(
    A,
    B,
    ell_max: int,
    oracle: BaseOracle,
    *,
    witness: RNGraph | OrderedPoset | None = None,
    assume: bool = False,
    stabilize: bool = True,
    limits: BuildLimits | None = None,
) -> Tower:
    """Stages 2..ell_max, each one certified quasicycle-free up to its own index.

    Stage 2 is a witness for the pair (A, B) taken verbatim: the supplied witness (a
    poset becomes its complete RN graph, as A and B do), certified by certify_witness
    or, with assume, passed through uncertified, else the oracle's search.  The
    supplied witness answers stage 2 only; every product round asks its own query of
    the search, whose witnesses are all certified, so the tower is certified unless
    assume is set.  Each later stage reruns the gluing
    recursion over the previous stage, except that when the previous stage already
    passes the next freedom check, stabilize (default on) keeps it and records an
    identity step; without it the recursion runs regardless, which is quickly
    infeasible for patterns whose sub-pictures grow across rounds.  A ceiling at any
    stage, stage 2 included (a certification past its budgets too), truncates the
    tower to the stages before it.
    """
    if ell_max < 2:
        raise ValueError("towers start at stage 2")
    if assume and witness is None:
        raise ValueError("assume mode requires a witness")
    a_rn = _as_complete_rn(A, "A")
    b_rn = _as_complete_rn(B, "B")
    if witness is not None:
        witness = _as_complete_rn(witness, "witness", pattern=False)
    stages: list[TowerStage] = []
    try:
        if witness is None:
            wit = oracle_ramsey(oracle, a_rn, b_rn)
        elif assume:
            wit = OracleWitness(witness, "assume")
        else:
            wit = certify_witness(witness, a_rn, b_rn)
        stages.append(TowerStage(2, wit.graph, None, wit.source))
        for ell in range(3, ell_max + 1):
            prev = stages[-1]
            if stabilize and is_ell_rn(prev.C, ell):
                stage = TowerStage(ell, prev.C, identity_homomorphism(prev.C), "stabilized")
            else:
                run = run_partite_construction(prev.C, a_rn, b_rn, oracle, ell=ell, limits=limits)
                graph = run.picture.base
                if not is_ell_rn(graph, ell):
                    raise InvariantViolation("completed stage failed its freedom check")
                if next(iter_copies(b_rn, graph), None) is None:
                    raise InvariantViolation("completed stage lost every copy of the pattern")
                stage = TowerStage(ell, graph, run.picture.f, "construction")
            if not check_homomorphism(stage.h_down):
                raise InvariantViolation(f"the map down from stage {ell} is not a homomorphism")
            stages.append(stage)
    except ResourceExceeded as exc:
        return Tower(tuple(stages), a_rn, b_rn, not assume, f"stage {len(stages) + 2}: {exc}")
    return Tower(tuple(stages), a_rn, b_rn, not assume)


@dataclass(frozen=True)
class FinishResult:
    poset: OrderedPoset
    b_copies_before: int
    b_copies_intact: int
    b_copies_after: int


def finish_stage(graph: RNGraph, lam: int, B: RNGraph) -> FinishResult:
    """Close one stage's R transitively into a poset and audit the pattern copies."""
    longest = longest_r_path_vertices(graph)
    if longest > lam:
        raise InvariantViolation(
            f"an R-path on {longest} vertices contradicts the collapse onto stage 2"
        )
    closure = transitive_closure(graph.R, graph.n)
    overlap = closure & graph.N
    if overlap:
        raise InvariantViolation(f"closure meets N at {min(overlap)}")
    poset = make_ordered_poset(graph.n, closure, graph.order)
    before = enumerate_copies(B, graph)
    b_poset = rn_to_poset(B)
    intact = sum(is_embedding(copy.map, b_poset, poset) for copy in before)
    if intact != len(before):
        raise InvariantViolation("closure added a pair inside a pattern copy")
    after = len(enumerate_copies(b_poset, poset))
    return FinishResult(poset, len(before), intact, after)


def finish_index(first: RNGraph) -> int:
    """Lambda, the stage that finishing closes: the first stage's vertex count, at least 2."""
    return max(2, first.n)


def finish(tower: Tower) -> FinishResult:
    """Close the stage whose index matches the first stage's vertex count."""
    if not tower.stages:
        raise StructureError(f"tower has no stage; it was truncated at {tower.truncated}")
    lam = finish_index(tower.stages[0].C)
    stage = tower.stage_for(lam)
    if stage is None:
        last = tower.stages[-1].ell
        raise StructureError(f"needs stage {lam}, tower ends at stage {last}")
    return finish_stage(stage.C, lam, tower.B)
