"""westinv: reconstruction of the space-dependent nonlinearity coefficient of
the 1-D Westervelt equation from boundary time-trace measurements."""

from .basis import BasisSet, CoefficientField, clip_nonnegative, evaluate_basis, project
from .data import (
    add_noise,
    prefilter,
    smooth_bump,
    synthesize_data,
    tent,
    truth_field,
    two_step,
)
from .derivatives import (
    Direction,
    JacobianMatrix,
    apply_gradient,
    assemble_directional_hessian,
    assemble_jacobian,
    fd_jacobian_oracle,
    solve_adjoint,
    solve_second_derivative,
    solve_sensitivity,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    DivergenceError,
    GridMismatchError,
    GridTooCoarseError,
    IncompatibleBCError,
    LinearSolveError,
    NoConvergenceError,
    OffGridError,
    RankDeficientError,
    SingularOperatorError,
    TooFewSamplesError,
    UnsupportedObservationError,
    WestinvError,
)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment, run_inversion
from .forward import (
    Problem,
    SourceTerm,
    StateField,
    manufactured_source,
    sample_trace,
    second_time_derivative_of_square,
    solve_forward,
)
from .grids import (
    DIRICHLET,
    IMPEDANCE,
    NEUMANN,
    BoundaryCondition,
    EndpointCondition,
    MaterialParams,
    SolverOptions,
    SpatialGrid,
    TimeGrid,
)
from .inversion import (
    InversionContext,
    InversionReport,
    RegularizationSchedule,
    StoppingRule,
    discrepancy_stop,
    halley_run,
    landweber_run,
    newton_lm_run,
)
from .laplacian import Laplace1D, build_laplacian
from .spectra import (
    SpectralData,
    eigenvalues,
    pole_distinctness,
    pole_residual,
    poles,
    svd_decay,
)
from .trace import TimeTrace

__version__ = "0.1.0"
