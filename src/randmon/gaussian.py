"""Standard normal CDF and quantile with no dependencies beyond the stdlib.

The CDF goes through ``math.erfc`` so both tails keep full precision. The quantile
uses Acklam's lower-tail and central fits polished by one Newton step (well below
1e-9 absolute error); p > 1 - 0.02425 returns -quantile(1 - p), with 1 - p exact.
"""

from __future__ import annotations

import math

from .lti import rate_problem, require

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam's coefficients for the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def std_normal_cdf(z: float) -> float:
    """Phi(z) for a scalar z."""
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def two_sided_p(z: float) -> float:
    """P(|N(0,1)| >= |z|) = 2*(1 - Phi(|z|)), evaluated without cancellation."""
    return math.erfc(abs(z) / _SQRT2)


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def std_normal_quantile(p: float) -> float:
    """Inverse of ``std_normal_cdf`` for p in the open interval (0, 1) (the rate rule)."""
    require("p", rate_problem(p))
    if p > 1.0 - _P_LOW:  # the upper tail by symmetry; 1 - p is exact for p >= 0.5
        return -std_normal_quantile(1.0 - p)
    x = _acklam(p)
    # One Newton step against the erfc-based CDF; skipped where the pdf
    # underflows (|x| huge), where the rational tail fit is already tight.
    if abs(x) < 37.0:
        x -= (std_normal_cdf(x) - p) / std_normal_pdf(x)
    return x
