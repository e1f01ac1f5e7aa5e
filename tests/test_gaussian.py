import math
import re

import numpy as np
import pytest
import scipy.special as sp

from randmon.errors import InvalidParameter
from randmon.gaussian import std_normal_cdf, std_normal_quantile, two_sided_p


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_against_scipy():
    zs = np.linspace(-8.0, 8.0, 1601)
    for z in zs:
        assert abs(std_normal_cdf(z) - sp.ndtr(z)) < 1e-12


def test_cdf_symmetry():
    rng = np.random.default_rng(7)
    for z in rng.normal(0, 3, 1000):
        assert abs(std_normal_cdf(-z) + std_normal_cdf(z) - 1.0) < 1e-14


def test_quantile_table_value():
    # published two-sided 5% critical value
    assert abs(std_normal_quantile(0.975) - 1.959964) < 1e-5


def test_quantile_median():
    assert abs(std_normal_quantile(0.5)) < 1e-12


def test_quantile_against_scipy():
    ps = np.concatenate([
        np.linspace(1e-6, 1 - 1e-6, 2001),
        [1e-9, 1e-12, 1 - 1e-9],
        [1 - 5e-13, 1 - 5e-11, 1 - 5e-9],  # deep upper tail, mapped to the lower one
    ])
    for p in ps:
        assert abs(std_normal_quantile(p) - sp.ndtri(p)) < 1e-9


def test_quantile_cdf_round_trip():
    for z in np.linspace(-6.0, 6.0, 241):
        assert abs(std_normal_quantile(std_normal_cdf(z)) - z) < 1e-7


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.3, 1.7, float("nan")):
        message = rf"^p: must be a number in \(0, 1\), got {re.escape(repr(bad))}$"
        with pytest.raises(InvalidParameter, match=message):
            std_normal_quantile(bad)


def test_two_sided_p_matches_cdf():
    rng = np.random.default_rng(11)
    for z in rng.normal(0, 2, 500):
        expected = 2.0 * (1.0 - std_normal_cdf(abs(z)))
        assert abs(two_sided_p(z) - expected) < 1e-13
    assert two_sided_p(0.0) == 1.0


def test_two_sided_p_deep_tail_precision():
    # the erfc form keeps precision where 2*(1 - cdf) would cancel
    z = 9.0
    assert abs(two_sided_p(z) / sp.erfc(z / math.sqrt(2.0)) - 1.0) < 1e-12
