"""Interface-enriched biorthogonal wavelet Galerkin method in 1D.

Solves -(a u')' = f - g * delta_gamma on (0,1) with homogeneous
Dirichlet conditions, using an H1-rescaled spline wavelet basis on [0,1]
enriched near the interface point, and provides the verification and
convergence-measurement tooling around it.
"""

from .piecewise import Interval, PiecewisePolynomial, inner_product
from .wavelets import (
    SystemFormatError,
    SystemVerificationError,
    VerificationReport,
    WaveletSystem,
    builtin_order2_system,
    dual_antiderivative_ladder,
    full_verification,
    load_system,
    save_system,
)
from .basis import (
    BasisFunction,
    EnrichedBasis,
    enriched_basis,
    interface_set,
    truncated_basis,
)
from .galerkin import (
    DiscreteSolution,
    ExactSolution,
    InterfaceProblem,
    LinearSystem,
    SolverError,
    assemble,
    assemble_load,
    assemble_stiffness,
    condition_number,
    evaluate_solution,
    export_matrix_market,
    solve,
)
from .analysis import (
    ConvergenceRecord,
    DecayProbe,
    ErrorPair,
    coefficient_decay_probe,
    convergence_orders,
    error_norms,
    tail_energy,
    write_records_csv,
)
from .expressions import Expression, ExpressionError, parse_expression
from .problems import BUILTIN_PROBLEMS, builtin_problem, problem_from_spec

__version__ = "0.1.0"
