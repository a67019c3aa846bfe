"""Numerical verification of Finsler connection data, symplectic-form
preservation, induced symplectic connections, and curvature identities."""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    FinsymError,
    NonPositiveError,
    NotMinkowskianError,
    NotPositiveDefiniteError,
    NotRandersError,
    OddDimensionError,
    OrderError,
    ParseError,
    SingularChartError,
    UnknownVariableError,
    ZeroVectorError,
)
from .jets import Jet, fd_oracle, fd_stencil
from .fields import (
    ChartMap,
    DomainBox,
    ScalarFieldSpec,
    VectorFieldSpec,
    chart_jacobians,
)
from .finsler import (
    FinslerSample,
    MetricSpec,
    StructuralResiduals,
    cartan_trace_residual,
    chern_with_derivatives,
    finsler_sample,
    max_pairwise_spread,
    metric_validity,
    structural_residuals,
)
from .symplectic import (
    ExactTwoForm,
    PreservationResidual,
    TwoFormField,
    chern_preservation_residual,
    closedness,
    covector_derivatives,
    explicit_two_form,
    nondegeneracy,
    randers_condition,
    standard_form,
)
from .fedosov import (
    FedosovScenario,
    covariant_residual,
    darboux_relations_residual,
    hatted_two_form_data,
    induce_connection,
    minkowski_preservation_check,
    minkowski_probes,
    require_minkowskian,
    transform_connection,
)
from .curvature import (
    TwoPathResidual,
    brace_array,
    contracted_two_path,
    curvature_fd_commutator,
    curvature_fd_commutators,
    curvature_induced,
    curvature_up,
    cyclic_residual,
    induced_derivatives,
    pair_two_path,
)
from .records import CheckRecord
from .checks import CHECK_IDS, available_checks, run_scenario
from .scenario import (
    DEFAULT_TOLERANCES,
    BuiltScenario,
    SamplePlan,
    build_scenario,
    validate_config,
)
from .report import emit_report

__version__ = "0.1.0"
