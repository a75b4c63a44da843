"""fraczeta: a desk-scale numerical toolkit linking fractional-order
transfer functions to critical-strip zeta machinery.

Subpackages by theme:

* :mod:`fraczeta.core` - complex powers, log-gamma, accelerated
  alternating sums;
* :mod:`fraczeta.transfer` - the Cole-Cole transfer function, its arc
  geometry, phase pinning and hyperbolic distance classes;
* :mod:`fraczeta.fracdiff` - Grunwald-Letnikov differintegrals and the
  half-order relaxation solver;
* :mod:`fraczeta.zeta` - Dirichlet eta / Riemann zeta in the strip,
  Mobius and Euler cross-checks, critical-line zero finding;
* :mod:`fraczeta.primes` - sieve, gauge relation, theta' branches and
  the truncated varpi product;
* :mod:`fraczeta.cli` - the ``fraczeta`` command-line frontend.
"""

from .core import (
    ToleranceConfig,
    cpow_principal,
    log_gamma,
    sum_alternating,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    LimitError,
    PoleError,
    SingularFactorError,
)
from .fracdiff import (
    SampledSignal,
    SolverConfig,
    frequency_response_empirical,
    gl_differintegral,
    gl_weights,
    solve_relaxation,
)
from .primes import (
    PrimeSet,
    ThetaPrimeSolution,
    VarpiConfig,
    hausdorff_residual,
    mandelbrot_gauge,
    sieve,
    solve_theta_prime,
    varpi,
    varpi_scan,
)
from .transfer import (
    ArcGeometry,
    ColeColeParams,
    DistanceQuad,
    arc_geometry,
    conjugate_exponent,
    distance_classes,
    evaluate,
    hyperbolic_distance,
    phase_pinning,
)
from .zeta import (
    ChartParams,
    ChartPartials,
    SPoint,
    ZeroBracket,
    assertion_one_residual,
    chart1_partials,
    eta,
    euler_product,
    find_zeros,
    hardy_rotation,
    mobius_inverse_zeta,
    s_point,
    zeta_direct,
    zeta_from_eta,
)

__version__ = "0.1.0"

__all__ = [
    "ArcGeometry",
    "ChartParams",
    "ChartPartials",
    "ColeColeParams",
    "ConfigError",
    "ConvergenceError",
    "DistanceQuad",
    "DomainError",
    "LimitError",
    "PoleError",
    "PrimeSet",
    "SPoint",
    "SampledSignal",
    "SingularFactorError",
    "SolverConfig",
    "ThetaPrimeSolution",
    "ToleranceConfig",
    "VarpiConfig",
    "ZeroBracket",
    "arc_geometry",
    "assertion_one_residual",
    "chart1_partials",
    "conjugate_exponent",
    "cpow_principal",
    "distance_classes",
    "eta",
    "euler_product",
    "evaluate",
    "find_zeros",
    "frequency_response_empirical",
    "gl_differintegral",
    "gl_weights",
    "hardy_rotation",
    "hausdorff_residual",
    "hyperbolic_distance",
    "log_gamma",
    "mandelbrot_gauge",
    "mobius_inverse_zeta",
    "phase_pinning",
    "s_point",
    "sieve",
    "solve_relaxation",
    "solve_theta_prime",
    "sum_alternating",
    "varpi",
    "varpi_scan",
    "zeta_direct",
    "zeta_from_eta",
]
