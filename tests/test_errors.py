"""Every entry point reads its degrees, orders and real parameters through
the checks in fracsphere.errors, so the same bad value is refused with
DomainError everywhere, never converted, truncated or left to a TypeError."""

import math

import numpy as np
import pytest

from fracsphere import (AlgebraicSpectrum, DomainError, FractionalModel, SphPoint,
                        bound_qh, legendre_p, ml_neg, sigma_squared)

SPEC = AlgebraicSpectrum(1.0, 1.0, 2.3)

BAD = (True, "0.5", None, math.nan, math.inf)
BAD_DEGREES = BAD + (1.5,)

# argument -> (call with the bad value in that argument, the values to send)
ARGUMENTS = {
    "ml_neg:alpha": (lambda v: ml_neg(v, 1.0), BAD),
    "ml_neg:beta": (lambda v: ml_neg(0.75, 1.0, beta=v), BAD),
    "ml_neg:x": (lambda v: ml_neg(0.75, v), BAD),
    "ml_neg:x-closed-form": (lambda v: ml_neg(0.5, v), BAD),
    "legendre_p:degree": (lambda v: legendre_p(v, 0.3), BAD_DEGREES),
    "legendre_p:x": (lambda v: legendre_p(3, v), BAD_DEGREES),
    "SphPoint:theta": (lambda v: SphPoint(v, 0.5), BAD),
    "SphPoint:phi": (lambda v: SphPoint(0.5, v), BAD),
    "bound_qh:L": (lambda v: bound_qh(v, 1e-4, 0.5, SPEC), BAD_DEGREES),
    "bound_qh:t": (lambda v: bound_qh(40, v, 0.5, SPEC), BAD),
    "bound_qh:alpha": (lambda v: bound_qh(40, 1e-4, v, SPEC), BAD),
    "sigma_squared:degree": (lambda v: sigma_squared(v, 1e-4, 0.5), BAD_DEGREES),
    "sigma_squared:degrees": (lambda v: sigma_squared(np.array([v]), 1e-4, 0.5),
                              BAD_DEGREES),
    "sigma_squared:t": (lambda v: sigma_squared(3, v, 0.5), BAD),
    "sigma_squared:alpha": (lambda v: sigma_squared(3, 1e-4, v), BAD),
    "FractionalModel:alpha": (lambda v: FractionalModel(v, 1e-5, SPEC, SPEC), BAD),
    # tau = inf is accepted: a model whose noise never starts
    "FractionalModel:tau": (lambda v: FractionalModel(0.5, v, SPEC, SPEC), BAD[:-1]),
    "AlgebraicSpectrum:head": (lambda v: AlgebraicSpectrum(v, 1.0, 2.3), BAD),
    "AlgebraicSpectrum:coeff": (lambda v: AlgebraicSpectrum(1.0, v, 2.3), BAD),
    "AlgebraicSpectrum:kappa": (lambda v: AlgebraicSpectrum(1.0, 1.0, v), BAD),
    "AlgebraicSpectrum.value:degree": (SPEC.value, BAD_DEGREES),
    "AlgebraicSpectrum.value:degrees": (lambda v: SPEC.value(np.array([v])),
                                        BAD_DEGREES),
}


@pytest.mark.parametrize("argument,bad", [(name, bad) for name, (_, values)
                                          in ARGUMENTS.items() for bad in values])
def test_bad_value_refused(argument, bad):
    call, _ = ARGUMENTS[argument]
    with pytest.raises(DomainError):
        call(bad)


def test_model_without_noise_accepted():
    assert FractionalModel(1.0, math.inf, SPEC, SPEC).tau == math.inf
