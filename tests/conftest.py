import numpy as np
import pytest

from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    ShapeKind,
    SourceShape,
    TimeFunction,
    Variant,
)


def linear_shape(lam=1.0):
    return SourceShape(ShapeKind.LINEAR_X, lam=lam)


def sinh_shape(lam=1.0, mu=1.0):
    return SourceShape(ShapeKind.NEG_SINH, lam=lam, mu=mu)


def sin_shape(lam=1.0, mu=1.0):
    return SourceShape(ShapeKind.NEG_SIN, lam=lam, mu=mu)


def separable_shape(sigma, delta=1.0, scale=1.0):
    return SourceShape(ShapeKind.SCALED_SEPARABLE, sigma=sigma, delta=delta, scale=scale)


def monomial(eta=1.0, m=1):
    return InitialProfile(ProfileKind.MONOMIAL, eta=eta, m=float(m))


def separable_profile(eta, sigma, delta=1.0):
    return InitialProfile(ProfileKind.SCALED_SEPARABLE, eta=eta, sigma=sigma, delta=delta)


def linear_law(nu=1.0):
    return FluxLaw(FluxKind.LINEAR, nu=nu)


def constant_law(nu=1.0):
    """F = nu: the power law at n = 0 with the constant time factor f == nu."""
    return FluxLaw(FluxKind.POWER_LAW, nu=nu, n=0.0, f=TimeFunction.constant(nu))


def monomial_spec(shape, eta, m, nu=1.0, variant=Variant.P):
    return ProblemSpec(shape, linear_law(nu), monomial(eta, m), variant)


def separated_spec(sigma, delta, scale, eta, flux, variant=Variant.P):
    return ProblemSpec(
        separable_shape(sigma, delta, scale),
        flux,
        separable_profile(eta, sigma, delta),
        variant,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1357)
