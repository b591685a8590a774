"""Calibration bounds: 2-alpha rule, h-bound, Fisher combination, min-p."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from subuniform import (IntegratedDF, RngStream, SubUniformDist, beta22_idf,
                        conservative_single, fisher_bounds, fisher_critical,
                        fisher_score, h_bound, minp_bound, minp_limit_check, p2alpha,
                        uniform_idf)


# ------------------------------------------------------------------ conservative_single

def test_conservative_single():
    assert conservative_single(0.03) == pytest.approx(0.06)
    assert conservative_single(0.5) == 1.0
    assert conservative_single(0.0) == 0.0
    assert conservative_single(1.0) == 1.0


# ------------------------------------------------------------------ h_bound

def test_h_bound_uniform_closed_form():
    assert h_bound(0.1, uniform_idf()) == pytest.approx(0.2, abs=1e-9)
    assert h_bound(0.6, uniform_idf()) == 1.0
    for a in np.linspace(0.001, 0.999, 100):
        assert h_bound(float(a), uniform_idf()) == pytest.approx(min(1.0, 2.0 * a), abs=1e-9)


def test_h_bound_uniform_exact_to_rounding():
    as_piecewise = IntegratedDF.piecewise([0.0, 1.0], [0.0, 1.0])
    for a in np.linspace(1e-6, 1.0 - 1e-6, 501):
        cap = min(1.0, 2.0 * a)
        assert abs(h_bound(float(a), uniform_idf()) - cap) <= 1e-12
        assert abs(h_bound(float(a), as_piecewise) - cap) <= 1e-12


def test_h_bound_beta22_tangent_point():
    # F(x)(x - alpha) = phi(x) at x = ((2 + 2a) - sqrt((2 + 2a)^2 - 18a)) / 3
    for alpha in (0.001, 0.05, 0.1, 0.2, 0.3, 0.45):
        b = 2.0 + 2.0 * alpha
        x = (b - math.sqrt(b * b - 18.0 * alpha)) / 3.0
        assert h_bound(alpha, beta22_idf()) == pytest.approx(3 * x**2 - 2 * x**3, abs=1e-12)


def test_h_bound_zero_below_the_support():
    # p2alpha(0.25) puts no mass below its atom, so h vanishes there
    assert h_bound(0.1, p2alpha(0.25).idf()) == 0.0


def _h_oracle(alpha, phi, x_step=1e-4):
    # brute force: the feasible set is {w: w(x - alpha) <= phi(x) for all x},
    # so the largest w is the minimum of phi(x)/(x - alpha) over x > alpha
    xs = np.arange(alpha + x_step, 1.0 + x_step / 2.0, x_step)
    ratios = phi.evaluate(xs) / (xs - alpha)
    return min(1.0, float(ratios.min()))


def test_h_bound_beta22_matches_grid_oracle():
    phi = beta22_idf()
    for alpha in (0.05, 0.1, 0.2):
        assert h_bound(alpha, phi) == pytest.approx(_h_oracle(alpha, phi), abs=1e-5)


def test_h_bound_monotone_in_alpha():
    for phi in (uniform_idf(), beta22_idf()):
        hs = [h_bound(float(a), phi) for a in np.linspace(0.01, 0.9, 24)]
        assert np.all(np.diff(hs) >= -1e-12)


def test_h_bound_tighter_than_2alpha_for_beta22():
    # Beta(2,2) is strictly inside the family, so its tail bound beats 2*alpha
    assert h_bound(0.1, beta22_idf()) < 0.2


# ------------------------------------------------------------------ fisher_score

def test_fisher_score_examples():
    assert fisher_score([1.0, 1.0]) == (0.0, 2, 0)
    assert fisher_score([math.exp(-1.0)]).score == pytest.approx(2.0, abs=1e-12)
    res = fisher_score([0.05, 0.05])
    assert res.score == pytest.approx(11.98293, abs=1e-5)
    assert res.m == 2


def test_fisher_score_domain_and_zero_flooring():
    with pytest.raises(ValueError):
        fisher_score([-0.1])
    with pytest.raises(ValueError):
        fisher_score([1.5])
    with pytest.warns(UserWarning):
        res = fisher_score([0.0, 0.5])
    assert res.floored_zeros == 1
    assert math.isfinite(res.score)  # floored at 1e-300, not infinite


def test_fisher_score_rejects_what_is_not_a_1d_sequence():
    for bad in ([], 0.5, np.float64(0.5), np.array(0.5), [[0.5, 0.2]], np.array([[0.5], [0.2]])):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            fisher_score(bad)
    for bad in ([math.nan], [math.inf], [0.5, -1e-300], [0.5, math.nan, 0.25], [0.5, 1.5, 0.25]):
        with pytest.raises(ValueError, match=r"lie in \[0,1\]"):
            fisher_score(bad)
    assert fisher_score(np.array([0.5, 0.25])) == fisher_score((0.5, 0.25))


@pytest.mark.parametrize("m", [1, 20, 100_000])
def test_fisher_score_matches_mpmath(m):
    # each log is within an ulp and fsum adds the logs exactly, all of one
    # sign, so the score is within 1.5 * 2**-52 relative of -2 * sum(log p)
    p = np.random.default_rng(m).random(m) ** 3  # reaching down to 1e-15 and below
    with mp.workdps(50):
        exact = -2 * mp.fsum(mp.log(v) for v in p.tolist())
        assert abs(fisher_score(p).score - exact) <= 3 * 2.0**-53 * exact


# ------------------------------------------------------------------ fisher_bounds

def test_fisher_bounds_closed_form_oracle():
    x = 9.21034
    rep = fisher_bounds(x, 1)
    assert rep.nominal_p == pytest.approx(math.exp(-x / 2.0), rel=1e-10)
    assert rep.bound_shifted_chi2 == pytest.approx(2.0 * math.exp(-x / 2.0), rel=1e-9)
    assert rep.bound_cantelli == pytest.approx(1.0 / (1.0 + ((x - 2.0) / 2.0) ** 2), rel=1e-12)
    assert rep.bound_mgf == pytest.approx((x / 2.0) * math.exp(1.0 - x / 2.0), rel=1e-12)
    # spot values of those closed forms
    assert rep.bound_shifted_chi2 == pytest.approx(0.0200000037, abs=1e-8)
    assert rep.bound_cantelli == pytest.approx(0.0714426011, abs=1e-8)
    assert rep.bound_mgf == pytest.approx(0.1251815226, abs=1e-8)
    assert rep.conservative_p == pytest.approx(rep.bound_shifted_chi2, rel=1e-12)


def test_fisher_bounds_regime_boundary():
    # at score = 2m the MGF bound is exp(m - m - m ln 1) = 1
    for m in (1, 3, 50):
        rep = fisher_bounds(2.0 * m, m)
        assert rep.bound_mgf == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_cantelli is not None


def test_fisher_bounds_below_regime():
    rep = fisher_bounds(0.0, 3)
    assert rep.nominal_p == 1.0
    assert rep.bound_shifted_chi2 == 1.0  # argument clamped at zero
    assert rep.bound_cantelli is None and rep.bound_mgf is None
    assert set(rep.inapplicable) == {"bound_cantelli", "bound_mgf"}
    assert rep.conservative_p == 1.0


def test_fisher_bounds_m1_shifted_is_doubling():
    for x in (0.0, 0.5, 2.0, 9.0, 30.0):
        rep = fisher_bounds(x, 1)
        assert rep.bound_shifted_chi2 == pytest.approx(min(1.0, 2.0 * rep.nominal_p), abs=1e-12)


def test_fisher_bounds_report_invariants():
    for m in (1, 5, 20):
        for x in np.linspace(2.0 * m, 10.0 * m, 9):
            rep = fisher_bounds(float(x), m)
            vals = [rep.nominal_p, rep.bound_shifted_chi2, rep.bound_cantelli,
                    rep.bound_mgf, rep.conservative_p]
            assert all(0.0 <= v <= 1.0 for v in vals if v is not None)
            assert rep.conservative_p >= rep.nominal_p - 1e-12


def test_fisher_bounds_json():
    doc = json.loads(fisher_bounds(1.0, 3).to_json())
    assert doc["bound_cantelli"] is None
    assert "bound_cantelli" in doc["inapplicable"]
    doc = json.loads(fisher_bounds(20.0, 3).to_json())
    assert doc["bound_cantelli"] > 0.0
    assert doc["inapplicable"] == {}


def _iid_matrix(dist, reps, m, seed):
    # a sorted sample shuffled uniformly has the same law as an i.i.d. matrix
    gen = RngStream(seed=seed).generator()
    vals = dist.sample(gen, reps * m).values.copy()
    gen.shuffle(vals)
    return vals.reshape(reps, m)


def test_fisher_conservative_against_subuniform_mc():
    reps = 100_000
    dists = [SubUniformDist("uniform01"), SubUniformDist("beta22"), p2alpha(0.2)]
    for i, dist in enumerate(dists):
        for m in (1, 5, 20):
            mat = _iid_matrix(dist, reps, m, seed=200 + i)
            scores = -2.0 * np.sum(np.log(mat), axis=1)
            for alpha in (0.01, 0.05):
                x = fisher_critical(alpha, m)
                cons = fisher_bounds(x, m).conservative_p
                emp = float(np.mean(scores >= x))
                sigma = math.sqrt(cons * (1.0 - cons) / reps)
                assert emp <= cons + 3.0 * sigma, (dist.variant, m, alpha)


# ------------------------------------------------------------------ fisher_critical

def test_fisher_critical():
    assert fisher_critical(0.01, 1) == pytest.approx(-2.0 * math.log(0.01), abs=1e-4)
    assert fisher_critical(0.5, 1) == pytest.approx(-2.0 * math.log(0.5), abs=1e-4)
    assert fisher_critical(1.0 - 1e-9, 1) < 1e-4
    with pytest.raises(ValueError):
        fisher_critical(0.0, 1)
    with pytest.raises(ValueError):
        fisher_critical(0.5, 0)


def test_fisher_huge_m_evaluates_in_log_space():
    m = 10 ** 9
    score = fisher_critical(1e-5, m)
    rep = fisher_bounds(score, m)
    for v in (rep.nominal_p, rep.bound_shifted_chi2, rep.bound_cantelli, rep.bound_mgf):
        assert v is not None and math.isfinite(v) and 0.0 <= v <= 1.0
    assert rep.bound_mgf < 1e-3          # MGF bound stays sharp
    assert rep.bound_shifted_chi2 >= 0.5  # the doubling shift is useless at this scale


# ------------------------------------------------------------------ the count m

_M_CALLS = {
    "fisher_bounds": lambda m: fisher_bounds(10.0, m),
    "fisher_critical": lambda m: fisher_critical(0.05, m),
    "minp_bound": lambda m: minp_bound(0.1, m),
    "minp_limit_check": lambda m: minp_limit_check(0.1, m),
}


@pytest.mark.parametrize("name", sorted(_M_CALLS))
def test_m_must_be_an_integer(name):
    # fisher_bounds(10.0, 2.5) read the tail of 5 degrees of freedom as m = 2's
    call = _M_CALLS[name]
    for m in (1.5, 2.5, 2.0 + 2.0 ** -51):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            call(m)
    assert call(2.0) == call(np.int64(2)) == call(2)


# ------------------------------------------------------------------ minp

def test_minp_bound():
    assert minp_bound(0.05, 1) == pytest.approx(0.1)
    assert minp_bound(0.1, 2) == pytest.approx(0.36)
    assert minp_bound(0.0, 100) == 0.0
    assert minp_bound(0.7, 3) == 1.0  # beyond x = 1/2 the bound saturates


def test_minp_limit_check():
    res = minp_limit_check(0.1, 1)
    assert res.bound_in_q == pytest.approx(0.2)
    assert res.limit == pytest.approx(0.19)
    assert not res.degenerate
    res = minp_limit_check(0.1, 10 ** 6)
    assert res.bound_in_q == pytest.approx(0.19, abs=1e-5)
    res = minp_limit_check(0.0, 7)
    assert (res.bound_in_q, res.limit) == (0.0, 0.0)


def test_minp_limit_degenerate():
    # 2(1-q)^{1/m} - 1 < 0 at q = 0.9, m = 1
    res = minp_limit_check(0.9, 1)
    assert res.degenerate
    assert res.note


def test_minp_limit_monotone_in_m():
    q = 0.1
    vals = [minp_limit_check(q, m).bound_in_q for m in (1, 2, 5, 10, 100, 10_000)]
    assert np.all(np.diff(vals) <= 1e-12)


def test_minp_achieved_by_extremal_draws():
    # i.i.d. P_{2x} draws attain P(min <= x) = 1 - (1-2x)^m
    x, m, reps = 0.05, 10, 200_000
    mat = _iid_matrix(p2alpha(x), reps, m, seed=300)
    emp = float(np.mean(mat.min(axis=1) <= x))
    assert emp == pytest.approx(minp_bound(x, m), abs=0.004)
