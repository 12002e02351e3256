"""Silver-stepsize proximal gradient descent with an exact rate certificate.

The package has four layers: exact arithmetic in Q(sqrt2) (``exactnum``),
the stepsize schedule and its companion sequence (``schedule``), the
recursive certificate objects and their exact verification (``certificate``),
and a scalar-generic proximal gradient solver with rate bounds, worst-case
instances, and strongly convex restarts (``solver``).  ``cli`` wires them
into the ``silverprox`` command.
"""

from .certificate import (
    CertificateBundle,
    Multipliers,
    SlackMatrix,
    UCoefficients,
    build_bundle,
    build_lambda,
    build_mu,
    build_slack,
    check_laplacian,
    check_multipliers_nonneg,
    check_schur_psd,
    rate_from_certificate,
    verify_descent_identity,
)
from .exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow
from .schedule import (
    c_sequence,
    silver_schedule,
    silver_step,
    two_adic_valuation,
)
from .solver import (
    ProblemInstance,
    ProxOracle,
    SmoothOracle,
    Trace,
    cocoercivity_f,
    cocoercivity_h,
    constant_baseline,
    lower_bound_instance,
    prox_library,
    proximal_gd_run,
    random_quadratic_instance,
    rate_bound,
    restart_solve,
)

__all__ = [
    "CertificateBundle",
    "Multipliers",
    "ONE",
    "ProblemInstance",
    "ProxOracle",
    "RHO",
    "RadicalScalar",
    "SQRT2",
    "SlackMatrix",
    "SmoothOracle",
    "Trace",
    "UCoefficients",
    "ZERO",
    "build_bundle",
    "build_lambda",
    "build_mu",
    "build_slack",
    "c_sequence",
    "check_laplacian",
    "check_multipliers_nonneg",
    "check_schur_psd",
    "cocoercivity_f",
    "cocoercivity_h",
    "constant_baseline",
    "lower_bound_instance",
    "prox_library",
    "proximal_gd_run",
    "random_quadratic_instance",
    "rate_bound",
    "rate_from_certificate",
    "restart_solve",
    "rho_pow",
    "silver_schedule",
    "silver_step",
    "two_adic_valuation",
    "verify_descent_identity",
]

__version__ = "0.1.0"
