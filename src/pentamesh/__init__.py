"""pentamesh: anisotropic Delaunay pentatope meshing for space-time domains.

A 4D hypervolume meshing kernel: incremental point insertion into a
pentatope-subdivided bounding tesseract under a space-time metric field,
decomposition-free metric-weighted geometric predicates with exact sign
escalation, algebraic pentatope quality heuristics, a full catalog of 4D
bistellar flips with a greedy quality-improvement driver, and the 2D
roughness-optimality machinery for anisotropic Delaunay triangulations.
"""

from .bounding import (
    SubdivisionTable,
    TESSERACT_CORNERS,
    TESSERACT_CORNERS_BINARY,
    build_bounding_mesh,
    subdivision_table,
)
from .flips import (
    FlipCandidate,
    FlipTable,
    ImprovementReport,
    apply_flip,
    find_candidates,
    flip_kinds,
    flip_table,
    improve_quality,
    validate_flip,
)
from .geometry import (
    Metric4,
    MetricField,
    canonical_facets,
    facet_normal,
    hypervolume,
    hypervolume_exact,
    metric_length_pointwise,
    metric_length_quadrature,
    metric_volume_pointwise,
    metric_volume_quadrature,
    regular_pentatope,
)
from .insertion import (
    audit_delaunay,
    build_cavity,
    enforce_visibility,
    find_base_element,
    inside_element,
    insert_point,
    triangulate,
)
from .mesh import (
    CavityError,
    DuplicateVertexError,
    GhostPointError,
    Mesh4,
    MeshError,
)
from .meshio import (
    MeshFormatError,
    export_mesh,
    load_p4m,
    save_p4m,
)
from .pointsets import generate_hypercylinder_points
from .predicates import (
    PredicateResult,
    decompose_metric,
    inhypersphere4,
    inhypersphere_m_d,
    orientation4,
    orientation_m_d,
    scale_points_standard,
)
from .quality import eta1, eta2, eta3, pentatope_quality, quality_metric, theta
from .roughness2d import (
    CanonicalQuad,
    QuadConfig2,
    incircle_m2,
    lop,
    map_to_canonical,
    relative_roughness,
)
from .studies import (
    convergence_study,
    hypercylinder_exact_hypervolume,
    predicate_comparison_study,
    quality_study,
)

__version__ = "0.1.0"
