"""Indicator and conditional-probability estimates of the p-value."""

import numpy as np
import pytest

from subuniform import (EstimatorScheme, GenerativeModel, IntegratedDF, PosteriorSampler,
                        RngStream, SubUniformDist, exact_ppp, frequency_run, ks_distance,
                        lasso_model, marginal_estimator_run, port_model, simplex_model)
from subuniform.numerics import _BLOCK

GRID = np.linspace(0.0, 1.0, 1025)
IID = PosteriorSampler()
MARKOV = PosteriorSampler(kind="markov", rho=0.9)


def _assert_sub_uniform(samp, idf_tol=0.003, mean_tol=0.003):
    emp = IntegratedDF.from_samples(samp)
    assert np.max(emp.evaluate(GRID) - GRID ** 2 / 2.0) <= idf_tol
    assert abs(samp.mean() - 0.5) <= mean_tol


# ------------------------------------------------------------------ samplers

def test_sampler_validation():
    assert IID.kind == "iid" and IID.rho == 0.0
    assert MARKOV.rho == 0.9
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            PosteriorSampler(kind="markov", rho=bad)
    with pytest.raises(ValueError):
        PosteriorSampler(kind="iid", rho=0.5)


def test_markov_sampler_stationary_with_prescribed_autocorrelation():
    # far-arc data: posterior is (1/2, 1/2), so theta rows are fair coins
    model = lasso_model(0.1)
    data = np.full(200_000, 0.9)
    gen = RngStream(seed=50).generator()
    mat = PosteriorSampler(kind="markov", rho=0.7).draw_indices(model, data, 3, gen)
    for row in mat:
        assert row.mean() == pytest.approx(0.5, abs=0.005)  # marginal = posterior
    for lag_pair in ((0, 1), (1, 2)):
        corr = np.corrcoef(mat[lag_pair[0]], mat[lag_pair[1]])[0, 1]
        assert corr == pytest.approx(0.7, abs=0.01)
    corr2 = np.corrcoef(mat[0], mat[2])[0, 1]
    assert corr2 == pytest.approx(0.49, abs=0.01)  # rho^2 at lag 2


def test_iid_sampler_rows_uncorrelated():
    model = lasso_model(0.1)
    data = np.full(100_000, 0.9)
    mat = IID.draw_indices(model, data, 2, RngStream(seed=51).generator())
    assert abs(np.corrcoef(mat[0], mat[1])[0, 1]) <= 0.02


# ------------------------------------------------------------------ pointwise estimates

def test_p_hat_m1_is_binary():
    wired = EstimatorScheme(lasso_model(0.1), "p_hat", 1, IID)
    vals = set(wired.estimate(np.full(32, 0.35), RngStream(seed=52).generator()).tolist())
    assert vals == {0.0, 1.0}


def test_p_hat_converges_to_exact():
    # one single-draw estimate is Bernoulli(p(x)): the mean of 1e6 of them is p(x)
    model = lasso_model(0.1)
    wired = EstimatorScheme(model, "p_hat", 1, IID)
    est = wired.estimate(np.full(1_000_000, 0.7), RngStream(seed=53).generator()).mean()
    assert est == pytest.approx(exact_ppp(model, 0.7), abs=0.005)


def test_p_hat_degenerate_discrepancy_returns_one():
    flat = GenerativeModel(
        model_id="flat-discrepancy",
        theta_support=np.array([0]),
        prior=np.array([1.0]),
        sample_data=lambda theta, gen: gen.random(np.asarray(theta).size),
        posterior=lambda x: np.ones((1,) + np.shape(x)),
        discrepancy=lambda x, theta: np.zeros(np.broadcast(x, theta).shape),
        conditional_sf=lambda theta, x: 1.0,
    )
    est = EstimatorScheme(flat, "p_hat", 16, IID).estimate(np.array([0.4]),
                                                           RngStream(seed=54).generator())
    assert est.tolist() == [1.0]


def test_r_hat_converges_to_exact():
    wired = EstimatorScheme(lasso_model(0.1), "r_hat", 10_000, IID)
    est = wired.estimate(np.array([0.85]), RngStream(seed=55).generator())
    assert est.shape == (1,)
    assert est[0] == pytest.approx(0.1, abs=0.005)  # far arc: exact p-value is alpha


# ------------------------------------------------------------------ marginal laws

def test_marginal_p_hat_m1_bernoulli_half():
    run = marginal_estimator_run(lasso_model(0.1), "p_hat", 1, 400_000, RngStream(seed=56))
    vals = run.pvalues.values
    assert set(np.unique(vals)) <= {0.0, 1.0}
    assert vals.mean() == pytest.approx(0.5, abs=0.003)


def test_marginal_r_hat_m1_uniform():
    run = marginal_estimator_run(lasso_model(0.1), "r_hat", 1, 100_000, RngStream(seed=57))
    assert ks_distance(SubUniformDist("uniform01"), run.pvalues) <= 0.005


def test_marginal_r_hat_mean_half_any_m():
    for m, seed in ((1, 58), (4, 59), (16, 60)):
        run = marginal_estimator_run(simplex_model(0.1), "r_hat", m, 500_000,
                                     RngStream(seed=seed))
        assert run.pvalues.mean() == pytest.approx(0.5, abs=0.002)


def test_marginal_r_hat_tail_bound():
    run = marginal_estimator_run(lasso_model(0.1), "r_hat", 16, 100_000,
                                 RngStream(seed=61), sampler=IID)
    assert run.pvalues.tail_prob(0.05) <= 0.1 + 0.003


def test_r_hat_sub_uniform_all_m_both_samplers():
    model = lasso_model(0.1)
    for sampler in (IID, MARKOV):
        for m, seed in ((1, 62), (4, 63), (16, 64), (64, 65)):
            run = marginal_estimator_run(model, "r_hat", m, 100_000,
                                         RngStream(seed=seed), sampler=sampler)
            _assert_sub_uniform(run.pvalues)


def test_p_hat_keeps_atoms_at_zero_and_one():
    model = simplex_model(0.1)
    for m, seed in ((1, 66), (2, 67), (4, 68), (8, 69)):
        run = marginal_estimator_run(model, "p_hat", m, 100_000, RngStream(seed=seed))
        atoms = run.pvalues.atom_frequency(0.0) + run.pvalues.atom_frequency(1.0)
        assert atoms > 0.0, m


def test_p_hat_m1_is_cx_maximal():
    # E h(P-hat_1) >= E h(R-hat_M) for convex h(x) = (x - 1/2)^2
    p1 = marginal_estimator_run(lasso_model(0.1), "p_hat", 1, 100_000, RngStream(seed=70))
    spread_p = np.mean((p1.pvalues.values - 0.5) ** 2)
    assert spread_p == pytest.approx(0.25, abs=1e-12)  # exactly, support is {0,1}
    for m in (1, 16):
        r = marginal_estimator_run(lasso_model(0.1), "r_hat", m, 100_000,
                                   RngStream(seed=71 + m))
        assert spread_p >= np.mean((r.pvalues.values - 0.5) ** 2) - 1e-3


def test_r_hat_variance_non_increasing_in_m():
    vars_, ses = [], []
    for m, seed in ((1, 73), (4, 74), (16, 75), (64, 76)):
        run = marginal_estimator_run(lasso_model(0.1), "r_hat", m, 200_000,
                                     RngStream(seed=seed))
        x = run.pvalues.values
        v = x.var()
        m4 = np.mean((x - x.mean()) ** 4)
        vars_.append(v)
        ses.append(np.sqrt(max(m4 - v * v, 0.0) / x.size))
    for i in range(3):
        slack = 2.0 * np.hypot(ses[i], ses[i + 1])
        assert vars_[i + 1] <= vars_[i] + slack, (i, vars_)


def _two_sample_ks(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def test_infinite_m_proxy_matches_frequency_run():
    # the M = infinity estimator is exact_ppp itself; two independent runs of
    # the frequency loop must agree in distribution
    model = lasso_model(0.1)
    a = frequency_run(model, 1_000_000, RngStream(seed=77)).pvalues.values
    b = frequency_run(model, 1_000_000, RngStream(seed=78)).pvalues.values
    assert _two_sample_ks(a, b) <= 0.003


# ------------------------------------------------------------------ one term per support point

def _draw_matrix_by_value(sampler, model, data, m_draws, gen):
    """The posterior draws as theta values, drawn by summing u > cum over all
    k rows of a (k, n) cumulative posterior."""
    probs = np.asarray(model.posterior(data), dtype=float)
    if probs.ndim == 1:
        probs = np.broadcast_to(probs[:, None], (probs.size, np.asarray(data).size))
    cum = np.cumsum(probs, axis=0)
    cum[-1] = 1.0

    def draw():
        u = gen.random(cum.shape[1])
        return model.theta_support[np.sum(u[None, :] > cum, axis=0)]

    out = np.empty((m_draws, cum.shape[1]), dtype=model.theta_support.dtype)
    out[0] = draw()
    for m in range(1, m_draws):
        fresh = draw()
        if sampler.kind == "iid":
            out[m] = fresh
        else:
            stay = gen.random(cum.shape[1]) < sampler.rho
            out[m] = np.where(stay, out[m - 1], fresh)
    return out


def _draw_pvalues_per_draw(wired, gen, n):
    """draw_pvalues as it evaluated the term at the data once per posterior draw."""
    model = wired.model
    data = model.sample_data(model.sample_prior(gen, n), gen)
    thetas = _draw_matrix_by_value(wired.sampler, model, data, wired.m_draws, gen)
    acc = np.zeros(n)
    for m in range(wired.m_draws):
        if wired.scheme == "r_hat":
            acc += np.asarray(model.conditional_sf(thetas[m], data), dtype=float)
        else:
            replic = model.sample_data(thetas[m], gen)
            f_rep = np.asarray(model.discrepancy(replic, thetas[m]), dtype=float)
            f_obs = np.asarray(model.discrepancy(data, thetas[m]), dtype=float)
            acc += (f_rep >= f_obs).astype(float)
    return acc / wired.m_draws


_EQUIV_MODELS = {"lasso": lasso_model(0.1), "simplex": simplex_model(0.2),
                 "port": port_model(np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]))}


@pytest.mark.parametrize("name", sorted(_EQUIV_MODELS))
def test_draw_pvalues_equals_the_per_draw_loop(name):
    model = _EQUIV_MODELS[name]
    n = _BLOCK + 17
    for scheme in ("p_hat", "r_hat"):
        for sampler in (IID, MARKOV):
            for m_draws in (1, 8):
                wired = EstimatorScheme(model, scheme, m_draws, sampler)
                got = wired.draw_pvalues(RngStream(seed=91).generator(), n)
                want = _draw_pvalues_per_draw(wired, RngStream(seed=91).generator(), n)
                assert got.tobytes() == want.tobytes(), (scheme, sampler.label, m_draws)


def test_draw_indices_index_the_theta_values():
    # indices are drawn as uint8 (uint16 above 256 support points)
    pmfs = np.random.default_rng(92).random((300, 3))
    models = [*_EQUIV_MODELS.values(), port_model(pmfs / pmfs.sum(axis=1, keepdims=True))]
    for model in models:
        data = model.sample_data(model.sample_prior(RngStream(seed=93).generator(), 5000),
                                 RngStream(seed=94).generator())
        for sampler in (IID, MARKOV):
            idx = sampler.draw_indices(model, data, 5, RngStream(seed=95).generator())
            assert idx.dtype == (np.uint8 if model.theta_support.size <= 256 else np.uint16)
            want = _draw_matrix_by_value(sampler, model, data, 5, RngStream(seed=95).generator())
            assert np.array_equal(model.theta_support[idx], want)


def test_estimator_block_holds_one_table():
    # the one (k, n) array of a block is the table of the term at the data,
    # k * n * 8 = 105 MB here, filled in place; a data-independent posterior
    # is one cumulative column.  A (k, n) copy of the posterior, its cumsum or
    # a list of k rows stacked into the table would each add another 105 MB
    import tracemalloc

    pmfs = np.random.default_rng(96).random((200, 4))
    wired = EstimatorScheme(port_model(pmfs / pmfs.sum(axis=1, keepdims=True)), "r_hat", 2, IID)
    wired.draw_pvalues(RngStream(seed=97).generator(), 10)
    tracemalloc.start()
    try:
        wired.draw_pvalues(RngStream(seed=97).generator(), _BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 130e6


# ------------------------------------------------------------------ plumbing

def test_marginal_run_metadata_and_determinism():
    run = marginal_estimator_run(lasso_model(0.1), "r_hat", 4, 50_000,
                                 RngStream(seed=79), sampler=PosteriorSampler("markov", 0.5))
    assert "r_hat" in run.model_id and "M=4" in run.model_id and "markov" in run.model_id
    again = marginal_estimator_run(lasso_model(0.1), "r_hat", 4, 50_000,
                                   RngStream(seed=79), sampler=PosteriorSampler("markov", 0.5))
    assert np.array_equal(run.pvalues.values, again.pvalues.values)


def test_marginal_run_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        marginal_estimator_run(lasso_model(0.1), "q_hat", 1, 10, RngStream(seed=80))
