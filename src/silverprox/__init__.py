"""Silver-stepsize proximal gradient descent with an exact rate certificate.

The package has four layers: exact arithmetic in Q(sqrt2) (``exactnum``),
the stepsize schedule, its companion sequence and the rate constant
(``schedule``), the recursive certificate objects and their exact
verification (``certificate``), and a scalar-generic proximal gradient
solver with rate bounds, worst-case instances, and strongly convex restarts
(``solver``).  ``cli`` wires them into the ``silverprox`` command.

``import silverprox`` loads ``exactnum``, ``schedule`` and ``solver``.  The
certificate checker is loaded on first use: the first access to
``silverprox.certificate`` or to one of its names here imports it (PEP 562),
so a process that only solves never compiles it.  Each access reads the name
from ``certificate`` itself; none is copied into this namespace.
"""

from .exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow
from .schedule import (
    c_sequence,
    rate_from_certificate,
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
    "GluingLevel",
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


def __getattr__(name: str):
    # Python calls this only for a name not bound above: of ``__all__``, the checker's names.
    if name == "certificate" or name in __all__:
        from importlib import import_module

        certificate = import_module(f"{__name__}.certificate")
        return certificate if name == "certificate" else getattr(certificate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
