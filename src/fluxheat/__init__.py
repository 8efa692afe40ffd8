"""Explicit solutions and verification benchmarks for the one-dimensional
heat equation on the half-line with a source coupled to the boundary flux.

The library evaluates every closed solution family of the problem

    u_t - u_xx = -Phi(x) F(u_x(0,t), t),  u(x,0) = h(x),  u(0,t) = 0,

solves the governing Volterra equation for the boundary flux numerically,
verifies the Green-function identities by quadrature, cross-checks a
finite-difference solver against the closed forms, and classifies the
long-time behaviour of solutions and control ratios.
"""

from .asymptotics import (
    LimitClass,
    LimitTag,
    control_classification,
    flux_initial_limit,
    flux_limit,
    numeric_limit_probe,
)
from .closed_form import (
    Provenance,
    SolutionField,
    baseline_u0_polynomial,
    flux_closed_form,
    integral_rep_solution,
    separated_solution,
    solution_for,
    stationary_solution,
    tilde_solution,
)
from .fd import FDSolver, Grid1D, convergence_order, pde_residual, solve
from .green import (
    assemble_integral_representation,
    baseline_u0,
    green_eval,
    heat_kernel,
    quad_semiinfinite,
    verify_identity_phi,
)
from .problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    SourceShape,
    TimeFunction,
    Variant,
    spec_from_dict,
    validate,
)
from .specfun import erf, exp_moment, gamma_half
from .trajectory import ClosedFormTrajectory, SampledTrajectory
from .volterra import (
    Forcing,
    Kernel,
    forcing_for,
    kernel_eval,
    kernel_for,
    solve_resolvent,
    solve_volterra,
    volterra_residual,
)

__version__ = "0.1.0"
