"""Monte Carlo estimators of the posterior predictive p-value.

Given observed data D and posterior draws theta_1..theta_M, two estimators
are in common use:

* indicator averaging (p_hat): draw a replicate D*_m per theta_m and average
  the indicators 1{f(D*_m, theta_m) >= f(D, theta_m)};
* conditional-probability averaging (r_hat): average the exact conditional
  survival probabilities P{f(D*, theta_m) >= f(D, theta_m) | theta_m, D}.

Their marginal laws over (theta, D, posterior draws) differ sharply: with a
single posterior draw the indicator average is Bernoulli(1/2) while the
conditional average is exactly uniform, and the conditional average stays
sub-uniform for every M and for arbitrary dependence among the posterior
draws, as long as each draw is marginally posterior-distributed.  The Markov
sampler here exercises that robustness with a tunable lag-1 autocorrelation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import FrequencyRun, GenerativeModel, frequency_run
from .numerics import RngStream, _pieces, _searchsorted_right, _thresholds


def _posterior_cum(model: GenerativeModel, data: np.ndarray) -> np.ndarray:
    """The posterior's thresholds over theta_support (numerics._thresholds),
    one column per data value, or one column for them all when the posterior
    does not depend on the data.  A function of its own so that the (k, n)
    posterior is freed before draw_indices makes its M draws."""
    probs = np.asarray(model.posterior(data), dtype=float)
    return _thresholds(probs[:, None] if probs.ndim == 1 else probs)


@dataclass(frozen=True)
class PosteriorSampler:
    """How the M posterior draws within one replicate are generated.

    kind "iid": independent draws from the posterior.
    kind "markov": a lazy chain started at stationarity; each step keeps the
    current value with probability rho and otherwise redraws from the
    posterior.  The chain is reversible with the posterior as stationary law
    and has lag-1 autocorrelation exactly rho, while every draw remains
    marginally posterior-distributed.
    """

    kind: str = "iid"
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid", "markov"):
            raise ValueError(f"sampler kind must be 'iid' or 'markov', got {self.kind!r}")
        if self.kind == "markov" and not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho!r}")
        if self.kind == "iid" and self.rho != 0.0:
            raise ValueError("rho is only meaningful for the markov sampler")

    @property
    def label(self) -> str:
        return "iid" if self.kind == "iid" else f"markov(rho={self.rho:g})"

    def draw_indices(self, model: GenerativeModel, data: np.ndarray, m_draws: int,
                     gen: np.random.Generator) -> np.ndarray:
        """(m_draws, n) posterior draws for the n values of data, one column per
        value, as indices into model.theta_support.  Each draw takes one
        uniform per value for a fresh posterior draw (the count of thresholds
        <= u, see numerics._searchsorted_right), then, for the markov
        sampler after the first draw, one per value for staying put."""
        n = np.asarray(data).size
        cum = _posterior_cum(model, data)
        out = np.empty((m_draws, n), dtype=np.min_scalar_type(cum.shape[0]))
        u = np.empty(n)  # every draw's uniforms, one after another
        for m in range(m_draws):
            out[m] = _searchsorted_right(cum, gen.random(out=u))
            if m and self.kind == "markov":
                out[m] = np.where(gen.random(out=u) < self.rho, out[m - 1], out[m])
        return out


@dataclass(frozen=True)
class EstimatorScheme:
    """An estimator wired to a model; satisfies the frequency-run protocol."""

    model: GenerativeModel
    scheme: str  # "p_hat" or "r_hat"
    m_draws: int
    sampler: PosteriorSampler

    def __post_init__(self):
        if self.scheme not in ("p_hat", "r_hat"):
            raise ValueError(f"scheme must be 'p_hat' or 'r_hat', got {self.scheme!r}")
        if self.m_draws < 1:
            raise ValueError("m_draws must be >= 1")

    @property
    def model_id(self) -> str:
        return f"{self.scheme}(M={self.m_draws},sampler={self.sampler.label})@{self.model.model_id}"

    def draw_pvalues(self, gen: np.random.Generator, n: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        """The estimate for n replicates of (theta ~ prior, data ~ model),
        written into out if given."""
        model = self.model
        return self.estimate(model.sample_data(model.sample_prior(gen, n), gen), gen, out=out)

    def estimate(self, data: np.ndarray, gen: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The estimate at each value of the 1-d array data, from m_draws
        posterior draws per value, accumulated in out if given;
        estimate(np.array([x]), gen) estimates at one observed value.

        gen draws every posterior draw first, then for p_hat each draw's
        replicate data for all values in turn, one piece at a time (see
        numerics._pieces).  The sums over the draws are taken a piece at a
        time, in draw order."""
        model, n = self.model, data.size
        draws = self.sampler.draw_indices(model, data, self.m_draws, gen)
        acc = np.empty(n) if out is None else out
        acc[...] = 0.0
        if self.scheme == "r_hat":
            for piece in _pieces(n):
                # the term at the observed data, once per support point: a
                # draw picks its row
                x = data[piece]
                table = np.empty((model.theta_support.size, x.size))
                for row, th in zip(table, model.theta_support):
                    row[...] = model.conditional_sf(th, x)
                table = table.ravel()
                at = np.arange(x.size)
                flat, picked = np.empty_like(at), np.empty(x.size)
                for idx in draws:
                    # the flat index of row idx, column at
                    np.multiply(idx[piece], np.intp(x.size), out=flat)
                    flat += at
                    acc[piece] += np.take(table, flat, out=picked)
        else:
            for idx in draws:
                for piece in _pieces(n):
                    theta = model.theta_support.take(idx[piece])
                    f_obs = np.asarray(model.discrepancy(data[piece], theta), dtype=float)
                    f_rep = np.asarray(model.discrepancy(model.sample_data(theta, gen), theta),
                                       dtype=float)
                    acc[piece] += f_rep >= f_obs
        acc /= self.m_draws
        return acc


def marginal_estimator_run(model: GenerativeModel, scheme: str, m_draws: int, n: int,
                           rng: RngStream, sampler: PosteriorSampler | None = None) -> FrequencyRun:
    """Marginal law of the estimator over fresh (theta, data, posterior draws)."""
    if sampler is None:
        sampler = PosteriorSampler()
    wired = EstimatorScheme(model=model, scheme=scheme, m_draws=m_draws, sampler=sampler)
    return frequency_run(wired, n, rng)
