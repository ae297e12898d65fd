"""Ordered RN graphs: structures, arrow verification, partite products, towers."""

from .analysis import (
    check_homomorphism,
    compose_homomorphisms,
    find_bad_quasicycle,
    identity_homomorphism,
    is_ell_rn,
    is_good,
    longest_r_path_vertices,
    transitive_closure,
)
from .arrow import (
    ArrowVerdict,
    BaseOracle,
    CertificationFailed,
    Coloring,
    NotFoundWithinBounds,
    OracleWitness,
    ResourceExceeded,
    SearchLimits,
    certify_witness,
    check_arrow,
    find_monochromatic,
    make_coloring,
    oracle_ramsey,
)
from .construction import (
    AmalgamationStep,
    BuildLimits,
    ConstructionRun,
    FinishResult,
    Picture,
    Tower,
    TowerStage,
    amalgamate,
    build_picture_zero,
    build_tower,
    finish,
    finish_index,
    finish_stage,
    induced_subsystem,
    run_partite_construction,
)
from .embeddings import Copy, enumerate_copies, is_embedding, iter_copies
from .io import (
    HomomorphismDoc,
    ParseError,
    digest,
    dumps_canonical,
    export_dot,
    format_manifest,
    from_doc,
    load_structure,
    parse_manifest,
    save_structure,
    to_doc,
)
from .partite import (
    APartiteRNGraph,
    ProductResult,
    make_apartite,
    product_construction,
)
from .structures import (
    Homomorphism,
    InvariantViolation,
    OrderedPoset,
    RNGraph,
    StructureError,
    antichain,
    chain,
    fuse,
    is_complete,
    make_ordered_poset,
    make_rn_graph,
    poset_to_complete_rn,
    rn_to_poset,
)

__version__ = "0.1.0"
