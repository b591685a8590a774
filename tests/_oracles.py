"""Oracles shared by the tests."""

import numpy as np


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between an EmpiricalSample and a
    continuous CDF, in the textbook form: the max over order statistics v_(i)
    of max(i/n - F(v_i), F(v_i) - (i-1)/n).  The package's ks_distance takes
    a SubUniformDist; this takes any vectorized CDF (row laws, G laws)."""
    v = sample.values
    n = sample.n
    f = np.asarray(cdf(v), dtype=float)
    assert f.shape == v.shape, "cdf must evaluate elementwise on the sample"
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n), 0.0))
