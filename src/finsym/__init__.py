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
from .jets import Jet, fd_oracle, jet_eval
from .fields import (
    ChartMap,
    DomainBox,
    ScalarFieldSpec,
    VectorFieldSpec,
    chart_jacobians,
    parse_field,
)
from .finsler import (
    FinslerSample,
    MetricSpec,
    StructuralResiduals,
    berwald_probe,
    chern_structural_residuals,
    chern_with_derivatives,
    finsler_sample,
    finsler_value,
    fundamental_tensor,
    metric_validity,
)
from .symplectic import (
    ExactTwoForm,
    PreservationResidual,
    RandersPreservation,
    TwoFormField,
    chern_preservation_residual,
    closedness_residual,
    explicit_two_form,
    nondegeneracy_check,
    randers_preservation_condition,
    randers_two_form,
    standard_form,
)
from .fedosov import (
    ConnectionCoefficients,
    FedosovScenario,
    berwald_uniqueness_probe,
    darboux_relations_families,
    darboux_relations_residual,
    hatted_preservation_residual,
    hatted_two_form_data,
    induce_connection,
    minkowski_preservation_check,
    require_minkowskian,
    symplectic_connection_residual,
    transform_connection,
)
from .curvature import (
    CurvatureAtPoint,
    bianchi_contracted_residual,
    bianchi_cyclic_residual,
    curvature_fd_commutator,
    curvature_induced,
    lower_curvature,
    pair_symmetry_residual,
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
