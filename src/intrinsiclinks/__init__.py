"""Exact detection of linked cycles in spatial graph embeddings.

The package decides, with rational arithmetic only, whether cycles of a
graph embedded piecewise-linearly in space are linked, and computes the
crossing-parity invariant of general-position planar drawings.  Complete
graphs on six vertices and complete bipartite graphs on four plus four
vertices always contain a linked pair; the finders here locate one and the
independent cone-counting oracle confirms it.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ApexNotExtremal,
    CyclesNotDisjoint,
    DrawingNotGeneral,
    DrawingsNotComparable,
    EmbeddingInvalid,
    GeneralPositionViolation,
    InternalParityFailure,
    IntrinsicLinksError,
    ParseError,
    PolylinesNotDisjoint,
    ProjectionNotGeneral,
    SearchExhausted,
    ValidationError,
)
from .geometry import (
    NON_GENERIC,
    OVERLAP,
    Point2,
    Point3,
    Triangle3,
    gp_points2,
    gp_points3,
    orient2d,
    orient3d,
    orient3d_sos,
    parse_rational,
    rational_str,
)
from .graphs import (
    Crossing,
    Cycle,
    GenericDrawing,
    Graph,
    PLEmbedding,
    PlanarDrawing,
    PlanarPolyline,
    ValidEmbedding,
    Violation,
    complete_bipartite,
    complete_graph,
    enumerate_cycles,
    enumerate_disjoint_cycle_pairs,
    extract_crossings,
    make_cycle,
    make_drawing,
    make_embedding,
    make_graph,
    require_generic,
    require_valid,
    smooth,
    validate_drawing,
    validate_embedding,
)
from .instances import (
    INSTANCE_KINDS,
    bend_drawing,
    gen_k5_drawing,
    gen_k6_pl_subdivided,
    gen_k6_points,
    gen_k33_drawing,
    gen_k44_linear,
    gen_polygon_pair,
    generate,
    move_vertex_star,
)
from .invariants import (
    LinkReport,
    OracleResult,
    ParityLedger,
    find_linked_cycles_k6,
    find_linked_cycles_k44,
    find_linked_triangles_linear,
    k6_parity_ledgers,
    k44_parity_ledgers,
    linear_parity_ledger,
    oracle_confirm,
    oracle_count_linked_pairs,
    van_kampen_drawing,
    van_kampen_points,
    vk_invariance_probe,
)
from .linking import (
    SpatialPolyline,
    linking_mod2_cone,
    linking_mod2_sampled,
    polylines_disjoint,
    triangles_linked,
)
from .projection import (
    ProjectedDiagram,
    find_general_projection,
    lk_from_diagram,
    project_central,
    project_orthogonal,
)
from .rng import SplitMix64
from .serialization import emit_instance, parse_instance, to_json_bytes
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
