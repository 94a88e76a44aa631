"""Exact cohomology of finite monoids over coefficient systems, along
lattice paths through monoid grids, and for the associated total complexes."""

__version__ = "0.1.0"

from .abelian import (  # noqa: F401
    AbHom,
    CompositionNonzero,
    DirectSum,
    FgAbGroup,
    ShapeMismatch,
    SmithDecomposition,
    TRIVIAL_GROUP,
    Z,
    Zmod,
    cohomology_at,
    direct_sum,
    image,
    kernel,
    parse_group,
    smith_normal_form,
)
from .monoid import (  # noqa: F401
    FinMonoid,
    cyclic_group,
    power_set_monoid,
    trivial_monoid,
    union_monoid,
    validate,
)
from .coeff import (  # noqa: F401
    ActionNotHomomorphic,
    CoeffSystem,
    NotAGroup,
    RelationViolation,
    constant_system,
    explicit_system,
    group_action_system,
    validate_relations,
)
from .leech import (  # noqa: F401
    ALTERNATE_INDEXING_NOTE,
    CochainGroup,
    INDEXING_CONVENTION,
    LeechComplex,
    cochain_group,
    coboundary,
    leech_cohomology,
    leech_cohomology_table,
)
from .grid import (  # noqa: F401
    ColumnConditionError,
    CompositionViolation,
    DescentBelowBottomFloor,
    FloorIdentification,
    GridSpec,
    HorizontalRun,
    LocalExactnessReport,
    MixedCompositionError,
    PathCochain,
    PathError,
    PathSpec,
    SquareEntry,
    SquareReport,
    TooManyDescents,
    VerticalFamily,
    local_exactness_report,
    path_from_rule,
    square_cohomology,
    validate_mixed_compositions,
    validate_path,
)
from .totalcx import (  # noqa: F401
    DoubleComplexView,
    NotADoubleComplex,
    SIGN_CONVENTION,
    TotalComplex,
    is_double_complex,
    total_cohomology,
)
from .structured import (  # noqa: F401
    ChainPlan,
    NoNewClass,
    NotSurjective,
    PipelineReport,
    SetSystem,
    StructureDescriptor,
    SurjectivityReport,
    build_Kn,
    build_gr,
    check_h_surjective,
    distinct_classes,
    fs_pipeline,
    h_map,
    h_pipeline,
    reorder_chain,
)
from .document import (  # noqa: F401
    Defaults,
    Diagnostic,
    Document,
    DocumentError,
    GridBundle,
    parse_document,
    serialize_document,
)
from .cli import RunFlags, run_command  # noqa: F401
