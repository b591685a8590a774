"""Acceptance gate: every headline guarantee at its stated tolerance.

Each test prints one PASS/FAIL line so a plain pytest run doubles as the
acceptance report.  Tolerances are Monte Carlo margins at the stated sample
sizes; seeds are frozen so the gate is deterministic.
"""

import math
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from subuniform import (EmpiricalSample, IntegratedDF, PosteriorSampler, RngStream,
                        SubUniformDist, beta22_idf, continuous_part_ks, exact_ppp,
                        fisher_bounds, fisher_critical, frequency_run, h_bound, ks_distance,
                        lasso_model, marginal_estimator_run, p2alpha,
                        port_model, ruschendorf_sample, simplex_atom, simplex_model,
                        synthesize_ppp, uniform_g, uniform_idf)

ALPHAS = (0.01, 0.05, 0.1, 0.25)
GRID = np.linspace(0.0, 1.0, 1025)


@contextmanager
def criterion(capsys, label, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[{label}] FAIL  {desc}")
        raise
    with capsys.disabled():
        print(f"[{label}] PASS  {desc}")


def _tails_below_2alpha(sample, slack=0.003):
    for a in ALPHAS:
        assert sample.tail_prob(a) <= 2.0 * a + slack, f"P(P <= {a}) = {sample.tail_prob(a)}"


# ------------------------------------------------------------------ shared million-replicate runs

@pytest.fixture(scope="module")
def lasso_run():
    start = time.perf_counter()
    run = frequency_run(lasso_model(0.1, uniform_g()), 1_000_000, RngStream(seed=900))
    return run, time.perf_counter() - start


@pytest.fixture(scope="module")
def simplex_run():
    return frequency_run(simplex_model(0.1), 1_000_000, RngStream(seed=901))


@pytest.fixture(scope="module")
def port_run():
    pmfs = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    return frequency_run(port_model(pmfs), 1_000_000, RngStream(seed=902))


@pytest.fixture(scope="module")
def rusch_samples():
    return {a: ruschendorf_sample(a, RngStream(seed=903 + i), 1_000_000)
            for i, a in enumerate((0.05, 0.25))}


@pytest.fixture(scope="module")
def builtin_samples():
    dists = {"uniform01": SubUniformDist("uniform01"),
             "beta22": SubUniformDist("beta22"),
             "p2alpha(0.05)": p2alpha(0.05),
             "p2alpha(0.1)": p2alpha(0.1),
             "p2alpha(0.25)": p2alpha(0.25),
             "p2alpha(0.4)": p2alpha(0.4)}
    return {name: (d, d.sample(RngStream(seed=910 + i).generator(), 1_000_000))
            for i, (name, d) in enumerate(dists.items())}


# ------------------------------------------------------------------ criteria

def test_criterion_1_lasso_worst_case(capsys, lasso_run):
    run, elapsed = lasso_run
    with criterion(capsys, "criterion  1", "lasso worst case: atom and tail hit 2*alpha at n=1e6"):
        samp = run.pvalues
        assert 0.197 <= samp.tail_prob(0.1) <= 0.203
        assert 0.197 <= samp.atom_frequency(0.1) <= 0.203
        assert elapsed < 60.0, f"run took {elapsed:.1f}s"


def test_criterion_2_simplex_extremal_law(capsys, simplex_run):
    a = simplex_atom(0.1)  # 1/6: the simplex posterior widens the atom
    with criterion(capsys, "criterion  2", "simplex realizes the extremal mixture (atom 1/3 at 1/6)"):
        samp = simplex_run.pvalues
        ref = p2alpha(a)
        assert continuous_part_ks(ref, samp) <= 0.005
        assert abs(samp.atom_frequency(a) - 2.0 * a) <= 0.003


def test_criterion_3_ruschendorf(capsys, rusch_samples):
    with criterion(capsys, "criterion  3", "direct antithetic construction matches the extremal law"):
        for a, samp in rusch_samples.items():
            assert ks_distance(p2alpha(a), samp) <= 0.003, f"alpha={a}"


def test_criterion_4_two_alpha_universality(capsys, lasso_run, simplex_run, port_run,
                                            rusch_samples, builtin_samples):
    with criterion(capsys, "criterion  4", "P(P <= alpha) <= 2*alpha across all laws and models"):
        for _name, (_d, samp) in builtin_samples.items():
            _tails_below_2alpha(samp)
        for samp in (lasso_run[0].pvalues, simplex_run.pvalues, port_run.pvalues,
                     rusch_samples[0.25]):
            _tails_below_2alpha(samp)


def _h_oracle(alpha, phi, x_step=1e-4):
    xs = np.arange(alpha + x_step, 1.0, x_step)
    xs = np.append(xs, 1.0)
    ratios = phi.evaluate(xs) / (xs - alpha)
    return min(1.0, float(ratios.min()))


def test_criterion_5_h_bound(capsys):
    with criterion(capsys, "criterion  5", "h_bound: closed form for uniform, grid oracle for beta22"):
        for a in np.linspace(1e-3, 0.999, 100):
            assert abs(h_bound(float(a), uniform_idf()) - min(1.0, 2.0 * a)) <= 1e-9
        phi = beta22_idf()
        for a in (0.02, 0.05, 0.1, 0.2, 0.3):
            assert abs(h_bound(a, phi) - _h_oracle(a, phi)) <= 1e-5, f"alpha={a}"


def test_criterion_6_fisher_bounds(capsys):
    with criterion(capsys, "criterion  6", "Fisher bounds match closed forms; bound ordering by regime"):
        x, m = 9.21034, 1
        rep = fisher_bounds(x, m)
        t = x - 2.0 * m
        oracle_shifted = math.exp(-(x - 2.0 * m * math.log(2.0)) / 2.0)
        oracle_cantelli = m / (m + (t / 2.0) ** 2)
        oracle_mgf = math.exp(-t / 2.0 + m * math.log1p(t / (2.0 * m)))
        assert abs(rep.bound_shifted_chi2 - oracle_shifted) <= 1e-5
        assert abs(rep.bound_cantelli - oracle_cantelli) <= 1e-5
        assert abs(rep.bound_mgf - oracle_mgf) <= 1e-5
        assert abs(oracle_shifted - 0.0200) <= 5e-5
        assert abs(oracle_cantelli - 0.07144) <= 1e-5
        # small alpha, m = 20: the moment bound dominates both alternatives
        rep20 = fisher_bounds(fisher_critical(1e-5, 20), 20)
        assert rep20.bound_mgf < rep20.bound_cantelli
        assert rep20.bound_mgf < rep20.bound_shifted_chi2
        # huge m: doubling the p-value is vacuous while the moment bound still bites
        rep_big = fisher_bounds(fisher_critical(1e-5, 10 ** 6), 10 ** 6)
        assert rep_big.bound_shifted_chi2 >= 0.5
        assert rep_big.bound_cantelli < 0.06
        assert rep_big.bound_mgf < 1e-3


def _fisher_scores(dist, m, reps, seed):
    gen = RngStream(seed=seed).generator()
    scores = np.empty(reps)
    chunk = max(1, 20_000_000 // m)
    done = 0
    while done < reps:
        k = min(chunk, reps - done)
        vals = dist.sample(gen, k * m).values.copy()
        gen.shuffle(vals)  # sample() sorts; exchangeability restores the iid matrix law
        scores[done:done + k] = -2.0 * np.log(vals.reshape(k, m)).sum(axis=1)
        done += k
    return scores


def test_criterion_7_fisher_conservative(capsys):
    crit_m = 200
    emp = None
    for crit_m in (200, 2000):
        threshold = fisher_critical(0.05, crit_m)
        scores = _fisher_scores(p2alpha(0.1), crit_m, 100_000, seed=920)
        emp = float(np.mean(scores >= threshold))
        if emp <= 0.05:
            break
    with criterion(capsys, "criterion  7",
                   f"Fisher size under dependent-looking worst case: {emp:.4f} <= 0.05 at m={crit_m}"):
        assert emp <= 0.05


def test_criterion_8_minp_achievable(capsys):
    with criterion(capsys, "criterion  8", "min-p bound is attained by extremal draws (m=10)"):
        gen = RngStream(seed=921).generator()
        vals = p2alpha(0.05).sample(gen, 10_000_000).values.copy()
        gen.shuffle(vals)
        mins = vals.reshape(1_000_000, 10).min(axis=1)
        emp = float(np.mean(mins <= 0.05 + 1e-12))
        assert abs(emp - (1.0 - 0.9 ** 10)) <= 0.003


def test_criterion_9_estimator_dichotomy(capsys):
    model = lasso_model(0.1, uniform_g())
    with criterion(capsys, "criterion  9",
                   "P-hat_1 is Bernoulli(1/2); R-hat_1 uniform; R-hat_M sub-uniform under Markov draws"):
        run_p = marginal_estimator_run(model, "p_hat", 1, 1_000_000, RngStream(seed=922))
        vals = run_p.pvalues.values
        assert np.all((vals == 0.0) | (vals == 1.0))
        assert abs(vals.mean() - 0.5) <= 0.002

        run_r1 = marginal_estimator_run(model, "r_hat", 1, 100_000, RngStream(seed=923))
        assert ks_distance(SubUniformDist("uniform01"), run_r1.pvalues) <= 0.005

        sampler = PosteriorSampler(kind="markov", rho=0.9)
        for i, m_draws in enumerate((4, 64)):
            run = marginal_estimator_run(model, "r_hat", m_draws, 300_000,
                                         RngStream(seed=924 + i), sampler=sampler)
            emp_idf = IntegratedDF.from_samples(run.pvalues.values)
            assert np.all(emp_idf.evaluate(GRID) <= GRID ** 2 / 2.0 + 0.003)
            _tails_below_2alpha(run.pvalues)


def test_criterion_10_synthesis(capsys):
    targets = [SubUniformDist("uniform01"), p2alpha(0.05), p2alpha(0.1), p2alpha(0.25)]
    with criterion(capsys, "criterion 10",
                   "synthesized models reproduce each target law with uniform S-marginal"):
        for i, target in enumerate(targets):
            model = synthesize_ppp(target, rng=RngStream(seed=930 + i))
            pvals, svals = model.draw_joint(RngStream(seed=940 + i).generator(), 1_000_000)
            samp = EmpiricalSample(pvals)
            assert ks_distance(target, samp) <= 0.003
            for loc, mass in target.atoms:
                assert abs(samp.atom_frequency(loc) - mass) <= 0.003
            assert model.coupling.martingale_residual() <= 1e-6
            assert ks_distance(SubUniformDist("uniform01"), EmpiricalSample(svals)) <= 0.003


def test_criterion_11_log_moment_bounds(capsys, builtin_samples):
    with criterion(capsys, "criterion 11",
                   "E[-ln P] < 1 and Var[-ln P] < 1 for every non-uniform law (3 sigma margin)"):
        for name, (_d, samp) in builtin_samples.items():
            if name == "uniform01":
                continue
            logs = -np.log(samp.values)
            n = logs.size
            mean, var = logs.mean(), logs.var()
            se_mean = math.sqrt(var / n)
            m4 = np.mean((logs - mean) ** 4)
            se_var = math.sqrt(max(m4 - var ** 2, 0.0) / n)
            assert mean + 3.0 * se_mean < 1.0, f"{name}: mean {mean}"
            assert var + 3.0 * se_var < 1.0, f"{name}: var {var}"


def test_criterion_12_port_discrete_regime(capsys):
    with criterion(capsys, "criterion 12",
                   "worked discrete model enumerates to 0.3; random pmf pairs obey 2*alpha"):
        worked = port_model(np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]))
        assert exact_ppp(worked, 1) == pytest.approx(0.3, abs=1e-12)
        for i in range(10):
            gen = np.random.default_rng(970 + i)
            k = int(gen.integers(3, 7))
            pmfs = gen.random((2, k)) + 0.05
            pmfs /= pmfs.sum(axis=1, keepdims=True)
            run = frequency_run(port_model(pmfs), 100_000, RngStream(seed=980 + i))
            _tails_below_2alpha(run.pvalues)


def test_note_huge_m_log_space(capsys):
    with criterion(capsys, "note m=1e9 ",
                   "bounds at m=1e9 evaluate in log space and match a 50-digit oracle"):
        m = 10 ** 9
        for a in np.geomspace(1e-5, 0.1, 4):
            rep = fisher_bounds(fisher_critical(float(a), m), m)
            for v in (rep.bound_shifted_chi2, rep.bound_cantelli, rep.bound_mgf):
                assert np.isfinite(v) and 0.0 <= v <= 1.0
        x = fisher_critical(1e-5, m)
        rep = fisher_bounds(x, m)
        mp.mp.dps = 50
        xm, mm = mp.mpf(x), mp.mpf(m)
        t = xm - 2 * mm
        oracle_cantelli = mm / (mm + (t / 2) ** 2)
        oracle_mgf = mp.e ** (-t / 2 + mm * mp.log1p(t / (2 * mm)))
        assert abs(rep.bound_cantelli / float(oracle_cantelli) - 1.0) <= 1e-6
        assert abs(rep.bound_mgf / float(oracle_mgf) - 1.0) <= 1e-6
        # lower tail of chi2(2e9) at 0.614 * mean: Chernoff mass < (0.614 e^0.386)^1e9,
        # zero to machine precision, so the shifted bound saturates
        assert rep.bound_shifted_chi2 == 1.0
