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
from .numerics import RngStream

__all__ = [
    "PosteriorSampler",
    "iid_sampler",
    "markov_sampler",
    "EstimatorScheme",
    "estimate_p_hat",
    "estimate_r_hat",
    "marginal_estimator_run",
]


def _posterior_cum(model: GenerativeModel, data: np.ndarray) -> np.ndarray:
    probs = np.asarray(model.posterior(data), dtype=float)
    if probs.ndim == 1:
        probs = np.broadcast_to(probs[:, None], (probs.size, np.asarray(data).size)).copy()
    cum = np.cumsum(probs, axis=0)
    cum[-1] = 1.0
    return cum


def _draw_posterior(cum: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One posterior draw per column of cum, as an index into theta_support:
    the count of cum[j] < u over j < k - 1 (u < 1 = cum[-1]), in the narrowest
    unsigned integers that hold k - 1."""
    u = gen.random(cum.shape[1])
    idx = np.zeros(u.size, dtype=np.min_scalar_type(cum.shape[0] - 1))
    for row in cum[:-1]:
        idx += u > row
    return idx


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

    def draw_matrix(self, model: GenerativeModel, data: np.ndarray, m_draws: int,
                    gen: np.random.Generator) -> np.ndarray:
        """(m_draws, n) array of posterior draws, one column per replicate."""
        return model.theta_support[self._draw_indices(model, data, m_draws, gen)]

    def _draw_indices(self, model: GenerativeModel, data: np.ndarray, m_draws: int,
                      gen: np.random.Generator) -> np.ndarray:
        """draw_matrix's draws as indices into model.theta_support."""
        cum = _posterior_cum(model, data)
        out = np.empty((m_draws, cum.shape[1]), dtype=np.min_scalar_type(cum.shape[0] - 1))
        out[0] = _draw_posterior(cum, gen)
        for m in range(1, m_draws):
            fresh = _draw_posterior(cum, gen)
            if self.kind == "iid":
                out[m] = fresh
            else:
                stay = gen.random(cum.shape[1]) < self.rho
                out[m] = np.where(stay, out[m - 1], fresh)
        return out


def iid_sampler() -> PosteriorSampler:
    return PosteriorSampler(kind="iid")


def markov_sampler(rho: float) -> PosteriorSampler:
    return PosteriorSampler(kind="markov", rho=rho)


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

    def draw_pvalues(self, gen: np.random.Generator, n: int) -> np.ndarray:
        model = self.model
        data = model.sample_data(model.sample_prior(gen, n), gen)
        draws = self.sampler._draw_indices(model, data, self.m_draws, gen)
        # the term at the observed data, once per support point: a draw picks its row
        if self.scheme == "r_hat":
            rows = [model.conditional_sf(th, data) for th in model.theta_support]
        else:
            rows = [model.discrepancy(data, th) for th in model.theta_support]
        table = np.asarray(rows, dtype=float).ravel()
        at, flat, picked = np.arange(n), np.empty(n, dtype=np.intp), np.empty(n)
        acc = np.zeros(n)
        for idx in draws:
            np.multiply(idx, np.intp(n), out=flat)  # the flat index of row idx, column at
            flat += at
            np.take(table, flat, out=picked)
            if self.scheme == "r_hat":
                acc += picked
            else:
                theta = model.theta_support[idx]
                f_rep = np.asarray(model.discrepancy(model.sample_data(theta, gen), theta),
                                   dtype=float)
                acc += (f_rep >= picked).astype(float)
        return acc / self.m_draws


def marginal_estimator_run(model: GenerativeModel, scheme: str, m_draws: int, n: int,
                           rng: RngStream, sampler: PosteriorSampler | None = None) -> FrequencyRun:
    """Marginal law of the estimator over fresh (theta, data, posterior draws)."""
    if sampler is None:
        sampler = iid_sampler()
    wired = EstimatorScheme(model=model, scheme=scheme, m_draws=m_draws, sampler=sampler)
    return frequency_run(wired, n, rng)


def estimate_p_hat(model: GenerativeModel, data, m_draws: int,
                   rng: RngStream | np.random.Generator,
                   sampler: PosteriorSampler | None = None) -> float:
    """Indicator-averaging estimate of the p-value at fixed observed data."""
    return _estimate_at(model, data, m_draws, rng, sampler, "p_hat")


def estimate_r_hat(model: GenerativeModel, data, m_draws: int,
                   rng: RngStream | np.random.Generator,
                   sampler: PosteriorSampler | None = None) -> float:
    """Conditional-probability-averaging estimate at fixed observed data."""
    return _estimate_at(model, data, m_draws, rng, sampler, "r_hat")


def _estimate_at(model, data, m_draws, rng, sampler, scheme) -> float:
    if sampler is None:
        sampler = iid_sampler()
    if m_draws < 1:
        raise ValueError("m_draws must be >= 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    arr = np.asarray([data], dtype=float) if np.asarray(data).ndim == 0 else np.asarray(data, dtype=float)
    if arr.size != 1:
        raise ValueError("pointwise estimates take a single observed data value")
    thetas = sampler.draw_matrix(model, arr, m_draws, gen)[:, 0]
    if scheme == "r_hat":
        vals = np.asarray(model.conditional_sf(thetas, np.broadcast_to(arr, thetas.shape)), dtype=float)
        return float(vals.mean())
    replic = model.sample_data(thetas, gen)
    f_rep = np.asarray(model.discrepancy(replic, thetas), dtype=float)
    f_obs = np.asarray(model.discrepancy(np.broadcast_to(arr, thetas.shape), thetas), dtype=float)
    return float(np.mean(f_rep >= f_obs))
