"""Numerical laboratory for mean curvature flow in arbitrary codimension."""

from .analytic import (
    SphereProductScene,
    SphereScene,
    ZonalFunction,
    hoffman_spruck_constant,
    sobolev_check_zonal,
    unit_ball_volume,
    unit_sphere_area,
)
from .curvature import (
    DerivativeData,
    FrameField,
    FundamentalForms,
    build_frames,
    codazzi_residual,
    derivative_data,
    gauss_residual,
    jet_forms,
    second_fundamental_form,
    tracefree_decompose,
)
from .flow import (
    FlowState,
    FlowTrace,
    SchemeConfig,
    StopRule,
    redistribute,
    run_until,
    step_explicit,
    step_semi_implicit,
)
from .mesh import DiscreteImmersion, MeshTopology
from .monitors import (
    MonitorReport,
    SpacetimeAccumulator,
    blowup_estimate,
    inequality_suite,
    lp_norm,
    moser_ratio,
    pinching_andrews_baker,
    pinching_linear,
    state_view,
)
from .rescale import (
    RescaledState,
    estimate_center,
    parabolic_rescale,
    roundness_metrics,
    subspace_dimension,
)

__version__ = "0.1.0"
