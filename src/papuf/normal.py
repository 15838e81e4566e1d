"""The standard normal CDF and the bivariate normal orthant at correlation -1/2.

Both are vectorised in numpy and accurate to a few units of the last
place, which is what ``circuit.read_probabilities`` needs: scipy is a
test dependency only, and ``math.erfc`` is scalar.
"""

from __future__ import annotations

import math

import numpy as np

# Cody's rational Chebyshev approximations of erf and erfc ("Rational
# Chebyshev approximations for the error function", Math. Comp. 1969):
# numerator and monic denominator coefficients, highest power first, for
# |z| <= 0.46875 (erf, in z^2), 0.46875 < |z| <= 4 (erfc*exp(z^2), in |z|)
# and |z| > 4 (in 1/z^2).
_ERF_NEAR = (
    (1.85777706184603153e-1, 3.16112374387056560, 1.13864154151050156e2, 3.77485237685302021e2, 3.20937758913846947e3),
    (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3, 2.84423683343917062e3),
)
_ERFC_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594, 6.61191906371416295e1,
     2.98635138197400131e2, 8.81952221241769090e2, 1.71204761263407058e3, 2.05107837782607147e3,
     1.23033935479799725e3),
    (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2, 1.62138957456669019e3,
     3.29079923573345963e3, 4.36261909014324716e3, 3.43936767414372164e3, 1.23033935480374942e3),
)
_ERFC_FAR = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242, 1.87295284992346725, 5.27905102951428412e-1, 6.05183413124413191e-2,
     2.33520497626869185e-3),
)


def _rational(x: np.ndarray, coefficients: tuple) -> np.ndarray:
    """numerator(x) / denominator(x), each by Horner's rule in place."""
    numerator, denominator = (np.full_like(x, c[0]) for c in coefficients)
    for acc, c in zip((numerator, denominator), coefficients):
        for value in c[1:]:
            acc *= x
            acc += value
    numerator /= denominator
    return numerator


def cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, erfc(-x/sqrt(2))/2, elementwise, within 2.3e-16 of ``math.erfc``.

    Every element takes all three of Cody's ranges, and ``np.where`` keeps
    the right one; the tail ranges are clamped to their domain, so no range
    divides by zero.  Beyond |x| = 40, where Phi is 0 or 1 to double
    precision, x is clamped too, so no square overflows.
    """
    z = np.clip(x, -40.0, 40.0) * -math.sqrt(0.5)
    y = np.abs(z)
    square = y * y
    near = 1.0 - z * _rational(square, _ERF_NEAR)
    t = 1.0 / np.maximum(square, 16.0)
    far = (1.0 / math.sqrt(math.pi) - t * _rational(t, _ERFC_FAR)) / np.maximum(y, 4.0)
    tail = np.where(y <= 4.0, _rational(y, _ERFC_MID), far) * np.exp(-square)  # erfc(|z|)
    return 0.5 * np.where(y <= 0.46875, near, np.where(z < 0, 2.0 - tail, tail))


# Genz's rule for the bivariate normal CDF at |correlation| < 0.75
# (Statistics and Computing 2004): the 12-point Gauss-Legendre rule on
# theta in [0, asin(rho)], here at rho = -1/2.  The six positive nodes and
# their weights on [-1, 1]; the tables are built with ``math``, so that
# importing the module calls no numpy ufunc.
_LEGENDRE_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                   0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_LEGENDRE_WEIGHTS = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                     0.16007832854334642, 0.10693932599531907, 0.04717533638651141)
_ASIN_RHO = math.asin(-0.5)
_ORTHANT_SIN = np.array([math.sin(_ASIN_RHO * (1.0 + sign * x) / 2) for sign in (1, -1) for x in _LEGENDRE_NODES])
_ORTHANT_SCALE = np.array([1.0 / (1.0 - sin * sin) for sin in _ORTHANT_SIN.tolist()])
_ORTHANT_WEIGHT = np.array([weight * _ASIN_RHO / (4.0 * math.pi) for weight in _LEGENDRE_WEIGHTS * 2])
# exponentials per orthant value
ORTHANT_NODES = len(_ORTHANT_SIN)


def orthant(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """P(X < h, Y < k) of standard normals with correlation -1/2, elementwise.

    Phi(h)*Phi(k) plus the integral over r from 0 to -1/2 of the bivariate
    density at (h, k; r), taken with r = sin(theta) by Genz's 12-node rule;
    the tests hold it within 1e-15 of ``scipy.stats.multivariate_normal.cdf``.
    Arguments are clamped to +-40, where Phi is 0 or 1 to double precision,
    so h*k stays finite.
    """
    h = np.clip(h, -40.0, 40.0)
    k = np.clip(k, -40.0, 40.0)
    hk = (h * k)[..., None]
    hs = ((h * h + k * k) / 2)[..., None]
    return cdf(h) * cdf(k) + np.exp((hk * _ORTHANT_SIN - hs) * _ORTHANT_SCALE) @ _ORTHANT_WEIGHT
