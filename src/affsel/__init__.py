"""Dominating affine/linear functional selection on finite instances,
with exact-arithmetic verification and an independent feasibility oracle."""

from .numerics import (
    EXACT,
    AffselError,
    Point,
    PointSet,
    Scalar,
    origin_point,
)
from .sandwich import ceiling_cover, sandwich
from .hyperplane import (
    AffineSelector,
    Instance,
    RecursionTrace,
    SelectConfig,
    WorkingTable,
    build_envelope,
    extend_domain,
    select_affine,
)
from .conelift import (
    ConeInstance,
    LinearConfig,
    LinearSelector,
    feature_select,
    lift_to_cone,
    power_ladder,
    push_through_features,
    select_linear,
)
from .subgradient import (
    ConvexSectionInstance,
    SubgradientConfig,
    SubgradientSelector,
    check_midpoint_convexity,
    select_subgradient,
    shift_to_origin,
)
from .oracle import (
    FeasibilityResult,
    exact_linear_select,
    fm_feasible,
    verify_domination,
    verify_working_closure,
)
from .instances import (
    InstanceFile,
    gen_affine_dominated,
    gen_convex_sections,
    gen_meager_linear,
    load_instance_file,
    save_instance_file,
)

__version__ = "0.1.0"
