"""Generative models, their exact p-values, and the frequency-simulation loop."""

import os
import re
import warnings

import numpy as np
import pytest

from subuniform import (FrequencyRun, GenerativeModel, IntegratedDF, RngStream, SubUniformDist,
                        exact_ppp, frequency_run, ks_distance, lasso_model, load_port_pmfs,
                        marginal_estimator_run, p2alpha, port_model, power_g, ruschendorf_sample,
                        simplex_atom, simplex_model)

WORKED_PMFS = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
GRID = np.linspace(0.0, 1.0, 1025)


def _sub_uniform_sample(samp, idf_tol=0.003, mean_tol=0.002):
    emp = IntegratedDF.from_samples(samp)
    assert np.max(emp.evaluate(GRID) - GRID ** 2 / 2.0) <= idf_tol
    assert abs(samp.mean() - 0.5) <= mean_tol


# ------------------------------------------------------------------ lasso

def test_lasso_exact_ppp_values():
    model = lasso_model(0.1)
    assert exact_ppp(model, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert exact_ppp(model, 0.9) == pytest.approx(0.1, abs=1e-12)


def test_lasso_posterior_and_discrepancy():
    model = lasso_model(0.1)
    assert np.allclose(model.posterior(0.9), [0.5, 0.5])
    assert model.discrepancy(0.5, 0) == pytest.approx(0.5, abs=1e-12)
    # past the fold the distance is measured the long way round
    assert model.discrepancy(0.9, 0) == pytest.approx(2.0 - 0.2 - 0.9, abs=1e-12)
    assert model.discrepancy(0.9, 1) == pytest.approx(0.9, abs=1e-12)


def test_lasso_far_arc_is_exactly_alpha():
    model = lasso_model(0.1)
    for x in (0.81, 0.85, 0.9, 0.95, 0.999):
        assert exact_ppp(model, x) == pytest.approx(0.1, abs=1e-12)


def _lasso_points(c, gen):
    """Random points of [0, 1], then c one ulp either side, c itself and 1."""
    return np.concatenate([gen.random(997), [np.nextafter(c, -1.0), c, np.nextafter(c, 2.0), 1.0]])


@pytest.mark.parametrize("g_name", ["uniform", "power2", "power3"])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.3141592653589793, 0.49])
def test_lasso_kernels_match_the_oracle(alpha, g_name):
    # bit for bit the first-written distance and posterior (tests/_oracles.py),
    # through posterior, conditional_sf and discrepancy, at scalar theta as a
    # Python int and as np.int64, at an array theta, and at one x
    from _oracles import lasso_distance, lasso_posterior
    from subuniform.models import G_FAMILIES

    g = G_FAMILIES[g_name]()
    model = lasso_model(alpha, g)
    distance, posterior = lasso_distance(alpha), lasso_posterior(alpha, g)
    gen = np.random.default_rng(23)
    x = _lasso_points(1.0 - 2.0 * alpha, gen)

    def same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    thetas = [0, 1, np.int64(0), np.int64(1), gen.integers(0, 2, x.size)]
    for xs in (x, *x[-4:]):  # the whole array, then each edge point as a scalar
        same(model.posterior(xs), posterior(xs))
        for th in thetas:
            if np.ndim(th) and np.ndim(xs) == 0:
                continue
            same(model.discrepancy(xs, th), distance(xs, th))
            same(model.conditional_sf(th, xs), g.sf(distance(xs, th)))


def test_lasso_alpha_domain():
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            lasso_model(bad)


def test_lasso_frequency_run_hits_extremal_law():
    run = frequency_run(lasso_model(0.1), 1_000_000, RngStream(seed=31))
    assert run.pvalues.tail_prob(0.1) == pytest.approx(0.2, abs=0.002)
    assert run.pvalues.atom_frequency(0.1) == pytest.approx(0.2, abs=0.002)
    assert ks_distance(p2alpha(0.1), run.pvalues) <= 0.003


def test_lasso_power_g_variants_stay_sub_uniform():
    for k in (2, 3):
        run = frequency_run(lasso_model(0.1, power_g(k)), 200_000, RngStream(seed=32 + k))
        _sub_uniform_sample(run.pvalues, idf_tol=0.003, mean_tol=0.003)


# ------------------------------------------------------------------ simplex

def test_simplex_discrepancy_and_posterior():
    model = simplex_model(0.1)
    assert model.discrepancy(0.3, 1) == pytest.approx(0.7)
    assert np.allclose(model.posterior(0.5), [0.5, 0.5])
    # outside the overlap only one corner explains the data
    assert np.allclose(model.posterior(0.2), [1.0, 0.0])


def test_simplex_exact_ppp_vs_mc_oracle():
    # brute-force Monte Carlo of the indicator average at M = 1e6
    model = simplex_model(0.1)
    x = 0.2
    gen = RngStream(seed=34).generator()
    probs = model.posterior(x)
    thetas = (gen.random(1_000_000) < probs[1]).astype(int)
    replic = model.sample_data(thetas, gen)
    f_obs = model.discrepancy(x, thetas)
    mc = float(np.mean(model.discrepancy(replic, thetas) >= f_obs))
    assert exact_ppp(model, x) == pytest.approx(mc, abs=0.003)


def test_simplex_rejects_data_outside_support():
    model = simplex_model(0.1)
    with pytest.raises(ValueError):
        model.posterior(1.7)


def test_simplex_realizes_extremal_law_at_mapped_atom():
    # overlap width 2*alpha over support 0.5+alpha puts the atom at
    # a = alpha/(0.5+alpha), not at alpha itself
    a = simplex_atom(0.1)
    assert a == pytest.approx(1.0 / 6.0, abs=1e-12)
    run = frequency_run(simplex_model(0.1), 400_000, RngStream(seed=35))
    assert run.pvalues.atom_frequency(a) == pytest.approx(2.0 * a, abs=0.003)
    assert ks_distance(p2alpha(a), run.pvalues) <= 0.004


# ------------------------------------------------------------------ port

def test_port_worked_case():
    model = port_model(WORKED_PMFS)
    assert exact_ppp(model, 1) == pytest.approx(0.3, abs=1e-12)
    # enumeration oracle: Q_a(pi) = sum_j h[a,j] 1{h[a,j] <= h[a,pi]}
    for pi in (0, 1, 2):
        expect = 0.0
        for a, w in ((0, 0.5), (1, 0.5)):
            q = sum(WORKED_PMFS[a, j] for j in range(3)
                    if WORKED_PMFS[a, j] <= WORKED_PMFS[a, pi])
            expect += w * q
        assert exact_ppp(model, pi) == pytest.approx(expect, abs=1e-12)


def test_port_degenerate_posterior():
    # posterior certain about theta: P = Q, the classical discrete p-value
    model = port_model(WORKED_PMFS, posterior_spec=np.array([1.0, 0.0]))
    assert exact_ppp(model, 0) == pytest.approx(1.0)   # argmax port under theta=0
    assert exact_ppp(model, 2) == pytest.approx(0.1)   # least likely port
    single = port_model(WORKED_PMFS[:1], posterior_spec=np.array([1.0]))
    assert exact_ppp(single, 1) == pytest.approx(0.3)


def test_port_bayes_posterior_as_a_callable():
    # the Bayes posterior prior * h(pi, .), normalized, given as a callable
    prior = np.array([0.5, 0.5])

    def bayes(pi):
        w = prior[:, None] * WORKED_PMFS[:, np.asarray(pi, dtype=int)]
        return w / w.sum(axis=0)

    model = port_model(WORKED_PMFS, posterior_spec=bayes, prior=prior)
    for pi, want in ((0, 0.8875), (1, 0.3), (2, 0.8875)):
        assert exact_ppp(model, pi) == pytest.approx(want, abs=1e-12)
    run = frequency_run(model, 20_000, RngStream(seed=37)).pvalues
    assert run.atom_frequency(0.3) + run.atom_frequency(0.8875) == 1.0
    assert run.atom_frequency(0.3) == pytest.approx(0.2, abs=0.015)  # P(port 1)
    # with one posterior draw theta', (theta', pi) is distributed as
    # (theta, pi), so r_hat = Q(theta', pi) takes Q's law: 0.1, 0.3 and 1
    # with the masses of the least, middle and most likely port
    r_hat = marginal_estimator_run(model, "r_hat", 1, 20_000, RngStream(seed=38)).pvalues
    for q, mass in ((0.1, 0.1), (0.3, 0.2), (1.0, 0.7)):
        assert r_hat.atom_frequency(q) == pytest.approx(mass, abs=0.015)


def test_port_pmf_validation():
    with pytest.raises(ValueError):
        port_model(np.array([[0.5, 0.2]]))  # does not sum to 1
    with pytest.raises(ValueError):
        port_model(np.array([[1.2, -0.2]]))


@pytest.mark.parametrize("kwargs, message", [
    ({"pmfs": [[0.7, 0.2, 0.1], [0.1, np.nan, 0.7]]}, "pmf row 1, column 1 is not finite: nan"),
    ({"prior": [np.inf, 0.5]}, "prior entry 0 is not finite: inf"),
    ({"posterior_spec": [0.5, np.nan]}, "posterior_spec entry 1 is not finite: nan"),
])
def test_port_rejects_non_finite_entries(kwargs, message):
    # NaN fails no range or sum check, so it is named before them
    kwargs = {"pmfs": WORKED_PMFS, **kwargs}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        port_model(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"prior": [0.7, 0.2]}, "prior must be a probability vector over applications"),
    ({"prior": [0.5, 0.25, 0.25]}, "prior must be a probability vector over applications"),
    ({"posterior_spec": [1.5, -0.5]},
     "posterior_spec vector must be a probability vector over applications"),
    ({"prior": [0.25, 0.75], "posterior_spec": [0.5]},
     "posterior_spec vector must be a probability vector over applications"),
])
def test_port_rejects_weights_that_are_not_probability_vectors(kwargs, message):
    kwargs = {"pmfs": WORKED_PMFS, **kwargs}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        port_model(**kwargs)


@pytest.mark.parametrize("n_apps", [2, 3, 4, 5])
@pytest.mark.parametrize("n_ports", [2, 3, 4, 5])
def test_port_gathers_match_the_oracle(n_apps, n_ports):
    # bit for bit the fancy-index gathers (tests/_oracles.py): the ports drawn
    # at an array and at a scalar theta, and conditional_sf at theta as a
    # Python int, as np.int64 and as an array, with ports as uint8 and as int;
    # random pmfs, one of them with ties
    from _oracles import port_gathers

    def same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    gen = np.random.default_rng(100 * n_apps + n_ports)
    for weights in (gen.random((n_apps, n_ports)) + 0.01,
                    gen.integers(1, 4, (n_apps, n_ports)).astype(float)):
        pmfs = weights / weights.sum(axis=1, keepdims=True)
        model = port_model(pmfs)
        sample_data, conditional_sf = port_gathers(pmfs)
        theta = gen.integers(0, n_apps, 1000)
        for th in (theta, n_apps - 1, np.int64(n_apps - 1)):
            seed = int(gen.integers(2**32))
            same(model.sample_data(th, np.random.default_rng(seed)),
                 sample_data(th, np.random.default_rng(seed)))
        ports = sample_data(theta, gen)
        assert ports.dtype == np.uint8
        for pi in (ports, ports.astype(int)):
            for th in (*range(n_apps), *map(np.int64, range(n_apps)), theta):
                same(model.conditional_sf(th, pi), conditional_sf(th, pi))


def test_port_tail_and_dcx_bounds():
    run = frequency_run(port_model(WORKED_PMFS), 200_000, RngStream(seed=36))
    for a in (0.05, 0.1, 0.25):
        assert run.pvalues.tail_prob(a) <= 2.0 * a + 0.004
    # decreasing convex h(x) = (c-x)+ satisfies E h(P) <= E h(U) = c^2/2
    for c in (0.25, 0.5, 0.75):
        emp = np.mean(np.maximum(c - run.pvalues.values, 0.0))
        assert emp <= c * c / 2.0 + 0.003


def test_port_draw_of_a_wide_pmf_holds_o_n():
    # one port's thresholds are gathered at a time: a block of 65536 values
    # under 1000 ports peaks at about 1.8 MB, where gathering every port's
    # thresholds for the block at once held a 999 x 65536 table, 524 MB
    import tracemalloc

    from subuniform.models import _BLOCK

    pmfs = np.random.default_rng(5).random((4, 1000))
    model = port_model(pmfs / pmfs.sum(axis=1, keepdims=True))
    model.draw_pvalues(RngStream(seed=6).generator(), 10)
    tracemalloc.start()
    try:
        pvals = model.draw_pvalues(RngStream(seed=6).generator(), _BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pvals.shape == (_BLOCK,) and np.all((pvals >= 0.0) & (pvals <= 1.0))
    assert peak < 8 * 8 * _BLOCK


def test_load_port_pmfs(tmp_path):
    path = os.path.join(tmp_path, "pmfs.csv")
    np.savetxt(path, WORKED_PMFS, delimiter=",")
    assert np.allclose(load_port_pmfs(path), WORKED_PMFS)
    with pytest.raises(OSError):  # missing file is an I/O error, not a domain error
        load_port_pmfs(os.path.join(tmp_path, "missing.csv"))
    bad = os.path.join(tmp_path, "bad.csv")
    with open(bad, "w") as fh:
        fh.write("0.5,0.4\n")  # rows must sum to 1
    with pytest.raises(ValueError):
        port_model(load_port_pmfs(bad))


def test_load_port_pmfs_fails_cleanly(tmp_path):
    with pytest.raises(OSError, match="^cannot read '.*missing.csv': "):
        load_port_pmfs(os.path.join(tmp_path, "missing.csv"))
    empty = os.path.join(tmp_path, "empty.csv")
    with open(empty, "w") as fh:
        fh.write("# ports a, b, c\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
        with pytest.raises(ValueError, match="contains no pmf rows"):
            load_port_pmfs(empty)
    commented = os.path.join(tmp_path, "commented.csv")
    with open(commented, "w") as fh:
        fh.write("# ports a, b, c\n0.7,0.2,0.1  # first app\n0.1,0.2,0.7\n")
    assert np.array_equal(load_port_pmfs(commented), [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])


# ------------------------------------------------------------------ ruschendorf

def test_ruschendorf_substitution():
    # U0 < 2*alpha reflects to 2*alpha - U0 and the average lands exactly at alpha
    samp = ruschendorf_sample(0.25, RngStream(seed=37), 100_000)
    at_atom = samp.values == 0.25
    assert np.all(samp.values[~at_atom] >= 0.5)
    assert np.mean(at_atom) == pytest.approx(0.5, abs=0.006)


def test_ruschendorf_matches_extremal_law():
    samp = ruschendorf_sample(0.1, RngStream(seed=38), 1_000_000)
    assert ks_distance(p2alpha(0.1), samp) <= 0.002


def test_ruschendorf_domain():
    with pytest.raises(ValueError):
        ruschendorf_sample(0.0, RngStream(seed=1), 10)
    with pytest.raises(ValueError):
        ruschendorf_sample(0.6, RngStream(seed=1), 10)


# ------------------------------------------------------------------ frequency_run plumbing

def _degenerate_model():
    # single parameter value, continuous discrepancy: classical uniform p-value
    return GenerativeModel(
        model_id="degenerate(single-theta)",
        theta_support=np.array([0]),
        prior=np.array([1.0]),
        sample_data=lambda theta, gen: gen.random(np.asarray(theta).size),
        posterior=lambda x: np.ones((1,) + np.shape(x)),
        discrepancy=lambda x, theta: np.asarray(x, dtype=float),
        conditional_sf=lambda theta, x: 1.0 - np.asarray(x, dtype=float),
    )


def test_degenerate_model_gives_uniform_pvalues():
    run = frequency_run(_degenerate_model(), 200_000, RngStream(seed=39))
    assert ks_distance(SubUniformDist("uniform01"), run.pvalues) <= 0.004


def test_every_builtin_continuous_model_sub_uniform():
    models = [lasso_model(0.1), lasso_model(0.25), simplex_model(0.1), simplex_model(0.3)]
    for i, model in enumerate(models):
        run = frequency_run(model, 200_000, RngStream(seed=40 + i))
        _sub_uniform_sample(run.pvalues, idf_tol=0.003, mean_tol=0.003)
        for a in (0.01, 0.05, 0.1, 0.25):
            assert run.pvalues.tail_prob(a) <= 2.0 * a + 0.004


def test_conditional_sf_consistent_with_mc():
    gen = RngStream(seed=41).generator()
    models = [lasso_model(0.1), simplex_model(0.1), port_model(WORKED_PMFS)]
    datasets = [gen.random(100), gen.random(100) * 0.6, gen.integers(0, 3, 100)]
    for model, data in zip(models, datasets):
        k = len(model.theta_support)
        for d, th in zip(data, gen.integers(0, k, 100)):
            theta = np.full(100_000, model.theta_support[th])
            replic = model.sample_data(theta, gen)
            f_obs = model.discrepancy(d, theta)
            mc = float(np.mean(model.discrepancy(replic, theta) >= f_obs))
            assert mc == pytest.approx(float(model.conditional_sf(theta[0], d)),
                                       abs=0.005), model.model_id


def test_frequency_run_deterministic_across_thread_counts():
    model = lasso_model(0.1)
    base = frequency_run(model, 150_000, RngStream(seed=42), threads=1)
    for threads in (2, 4, 7):
        again = frequency_run(model, 150_000, RngStream(seed=42), threads=threads)
        assert np.array_equal(base.pvalues.values, again.pvalues.values)


def test_frequency_run_runs_no_more_blocks_at_once_than_cpus(monkeypatch):
    # threads=1000 on a 4-block run: a pool past the CPUs the process may
    # use would only hold more blocks' temporaries at once
    import threading
    import time

    from subuniform.models import _BLOCK

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    lock, running, peak = threading.Lock(), [0], [0]

    class Counting:
        model_id = "counting"

        def draw_pvalues(self, gen, n, out):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.05)
            out[...] = gen.random(n)
            with lock:
                running[0] -= 1

    run = frequency_run(Counting(), 4 * _BLOCK, RngStream(seed=44), threads=1000)
    assert run.n == 4 * _BLOCK and 1 <= peak[0] <= 2


def test_frequency_run_rejects_nonpositive_threads():
    # no silent clamp to one thread
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads must be a positive integer"):
            frequency_run(lasso_model(0.1), 1_000, RngStream(seed=42), threads=threads)


def test_frequency_run_holds_one_n_array():
    # the p-values are written, sorted and summarized in one n-array: sorting
    # a copy and squaring deviations into another took 2 * 8n.  The rest is
    # one RNG block's prior indices and one piece's temporaries: 1.058 * 8n
    # measured (1.271 when each block's data were drawn at once, 1.468 when
    # its p-values were computed at once too).  Each extra worker thread holds its own block temporaries, so
    # measure one thread.
    import tracemalloc

    n = 1_000_000
    frequency_run(lasso_model(0.1), 10, RngStream(1))  # numpy imports numpy.random on first use
    tracemalloc.start()
    try:
        frequency_run(lasso_model(0.1), n, RngStream(1)).pvalues.variance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * 8 * n


def test_frequency_run_streams_each_block():
    # a block's draws are its prior indices (one byte each here), then one
    # piece of data and p-values at a time: above the n-array, the peak is
    # one piece's temporaries, under one block of float64 (8 * 65536 bytes).
    # Measured in blocks at n = 4 blocks: lasso 0.883, simplex 0.883, port
    # 0.538; drawing each block's data at once took 4.13, 4.13 and 3.26.
    import tracemalloc

    from subuniform.models import _BLOCK

    n = 4 * _BLOCK
    for model in (lasso_model(0.1), simplex_model(0.1), port_model(WORKED_PMFS)):
        frequency_run(model, 10, RngStream(1))  # first-use imports
        tracemalloc.start()
        try:
            frequency_run(model, n, RngStream(1), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n < 8 * _BLOCK, model.model_id


def test_frequency_run_writes_each_block_in_place():
    # every draw_pvalues writes its block into the block's slice of the
    # n-array: a returned block array, copied in, would add one block
    # (8 * 65536 bytes) to the peak.  Above the n-array, measured in blocks at
    # n = 4 blocks: r_hat 5.14, the p2alpha synthesis 3.00 and the beta22
    # synthesis 2.14 (7.26, 4.28 and 2.19 when r_hat summed whole blocks and
    # the syntheses drew the S values too)
    import tracemalloc

    from subuniform import EstimatorScheme, PosteriorSampler, synthesize_ppp
    from subuniform.models import _BLOCK

    n = 4 * _BLOCK
    cases = ((EstimatorScheme(lasso_model(0.1), "r_hat", 2, PosteriorSampler()), 5.5),
             (synthesize_ppp(p2alpha(0.2), rng=RngStream(seed=3)), 3.4),
             (synthesize_ppp(SubUniformDist("beta22"), rng=RngStream(seed=3)), 2.5))
    for model, blocks in cases:
        frequency_run(model, 10, RngStream(1))  # first-use imports
        tracemalloc.start()
        try:
            frequency_run(model, n, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * n < blocks * 8 * _BLOCK, model.model_id


def test_frequency_run_metadata_and_export(tmp_path):
    run = frequency_run(lasso_model(0.1), 5_000, RngStream(seed=44, stream_id=2))
    assert isinstance(run, FrequencyRun)
    assert run.n == 5_000 and run.seed == 44 and run.stream_id == 2
    assert "lasso" in run.model_id
    assert np.all((run.pvalues.values >= 0.0) & (run.pvalues.values <= 1.0))

    path = os.path.join(tmp_path, "pvals.csv")
    run.to_csv(path)
    back = np.loadtxt(path)
    assert np.array_equal(back, run.pvalues.values)  # %.17g round-trips doubles


_PMFS10 = np.random.default_rng(5).random((10, 4)) + 0.05


@pytest.mark.parametrize("model, n_ports", [
    (lasso_model(0.1), None),
    (lasso_model(0.2, power_g(2)), None),
    (lasso_model(0.2, power_g(3)), None),
    (simplex_model(0.1), None),
    (port_model(WORKED_PMFS), 3),
    (port_model(_PMFS10 / _PMFS10.sum(axis=1, keepdims=True)), 4),
], ids=["lasso", "lasso.power2", "lasso.power3", "simplex", "port", "port.10apps"])
def test_exact_ppp_of_a_scalar_is_its_one_value_array(model, n_ports):
    # one path: a scalar is evaluated as a 1-value array, to the bit
    gen = RngStream(seed=46).generator()
    xs = gen.random(200) if n_ports is None else gen.integers(0, n_ports, 200)
    for x in xs.tolist():
        assert exact_ppp(model, x) == exact_ppp(model, np.array([x]))[0]


def test_exact_ppp_vectorized_matches_scalar():
    model = lasso_model(0.1)
    xs = RngStream(seed=45).generator().random(50)
    vec = exact_ppp(model, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(float(exact_ppp(model, float(x))), abs=1e-12)
