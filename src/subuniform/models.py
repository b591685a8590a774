"""Worst-case generative models and exact posterior predictive p-values.

Each model is a small Bayesian setup (finite parameter support, closed-form
posterior and conditional survival function) whose posterior predictive
p-value

    P = sum_theta  posterior(theta | D) * P{f(D*, theta) >= f(D, theta) | theta}

is computed exactly, so frequency properties of P can be simulated at scale
without inner Monte Carlo.  The built-ins realize the extreme behaviours:

* lasso_model    - a particle on a looped course; with the uniform travel law
  the p-value law is exactly the extremal point-mass-plus-uniform mixture.
* simplex_model  - two overlapping uniform components; the p-value has an
  atom of twice its own location (same extremal family, reparametrized).
* port_model     - finite record/port setup with a discrete p-value.
* ruschendorf_sample - a direct two-draw averaging construction with the
  extremal law, no model needed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .distributions import SubUniformDist, p2alpha
from .numerics import (_BLOCK, EmpiricalSample, RngStream, _as_generator, _pieces,
                       _searchsorted_right, _thresholds, _write_values)


# ------------------------------------------------------------------ travel laws

@dataclass(frozen=True)
class SurvivalG:
    """A continuous travel-distance law on [0,1) given by its survival function."""

    name: str
    sf: Callable[[np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]


def uniform_g() -> SurvivalG:
    """G(t) = 1 - t: uniform travel distance."""
    return SurvivalG(
        name="uniform",
        sf=lambda t: 1.0 - t,
        density=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        sampler=lambda g, n: g.random(n),
    )


def power_g(k: int) -> SurvivalG:
    """G(t) = (1 - t)^k: shorter travels more likely, k in {2, 3}."""
    if k not in (2, 3):
        raise ValueError(f"power_g supports k in {{2, 3}}, got {k!r}")
    return SurvivalG(
        name=f"power{k}",
        sf=lambda t: (1.0 - t) ** k,
        density=lambda t: k * (1.0 - t) ** (k - 1),
        sampler=lambda g, n: 1.0 - g.random(n) ** (1.0 / k),
    )


G_FAMILIES: dict[str, Callable[[], SurvivalG]] = {
    "uniform": uniform_g,
    "power2": lambda: power_g(2),
    "power3": lambda: power_g(3),
}


# ------------------------------------------------------------------ model container

@dataclass(frozen=True)
class GenerativeModel:
    """A finite-parameter Bayesian model with exact p-value ingredients.

    All callables broadcast over numpy arrays:
      sample_data(theta, generator) -> data drawn from the model given theta
      posterior(D)                  -> (k,) or (k, n) posterior over theta_support
      discrepancy(D, theta)         -> f(D, theta)
      conditional_sf(theta, D)      -> P{f(D*, theta) >= f(D, theta) | theta, D}
    """

    model_id: str
    theta_support: np.ndarray
    prior: np.ndarray
    sample_data: Callable
    posterior: Callable
    discrepancy: Callable
    conditional_sf: Callable
    # the law of the exact p-value, where a constructor below states it
    _law: SubUniformDist | None = field(default=None, init=False, repr=False, compare=False)

    def sample_prior(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return self.theta_support.take(self._prior_indices(gen, n))

    def _prior_indices(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n prior draws as indices into theta_support, in the narrowest
        unsigned dtype that holds them: the same gen.random draws as one
        gen.random(n), taken a piece at a time."""
        cum = _thresholds(self.prior)
        idx = np.empty(n, dtype=np.min_scalar_type(cum.size))
        for piece in _pieces(n):
            idx[piece] = _searchsorted_right(cum, gen.random(piece.stop - piece.start))
        return idx

    def draw_pvalues(self, gen: np.random.Generator, n: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        """n replicates' exact p-values, written into out if given.

        gen draws the n prior indices first, then the data one piece at a
        time (see numerics._pieces), each piece's sample_data right before
        its exact_ppp: for a sample_data that draws its n values in order,
        the same draws as one sample_data call on all n, with no temporary
        of n values besides the indices."""
        idx = self._prior_indices(gen, n)
        out = np.empty(n) if out is None else out
        for piece in _pieces(n):
            out[piece] = exact_ppp(self, self.sample_data(self.theta_support.take(idx[piece]), gen))
        return out


def _stating(model: GenerativeModel, law: SubUniformDist | None) -> GenerativeModel:
    """model, stating law as the law of its exact p-value (see _Blocks.law)."""
    object.__setattr__(model, "_law", law)
    return model


def exact_ppp(model: GenerativeModel, data) -> np.ndarray | float:
    """Posterior-averaged conditional survival: the exact p-value at the data.
    A scalar gives the float of its 1-value array, bit for bit."""
    arr = np.asarray(data)
    if arr.ndim == 0:
        return float(exact_ppp(model, arr.reshape(1))[0])
    probs = np.asarray(model.posterior(arr), dtype=float)
    if probs.ndim == 1:
        probs = np.broadcast_to(probs[:, None], (probs.size, arr.size))
    if arr.size == 1:  # numpy sums a (k, 1) array in pairwise order
        sf = np.array([model.conditional_sf(th, arr) for th in model.theta_support], dtype=float)
        return np.sum(probs * sf.reshape(probs.shape), axis=0)
    # numpy sums a (k, n) array over axis 0 one row after another: the same
    # floats, with one row of weighted survival probabilities at a time
    total = np.multiply(probs[0], model.conditional_sf(model.theta_support[0], arr))
    for p, th in zip(probs[1:], model.theta_support[1:]):
        total += np.multiply(p, model.conditional_sf(th, arr))
    return total


# ------------------------------------------------------------------ lasso model

def lasso_model(alpha: float, g: SurvivalG | None = None) -> GenerativeModel:
    """Particle on a course that closes into a loop.

    The travel direction theta (clockwise = 1, anticlockwise = 0) has prior
    1/2 each; travel distance has survival G on [0,1).  Clockwise position x
    relates to distance via

        f(x, theta) = x                   if x <= 1 - 2*alpha
                      x                   if x  > 1 - 2*alpha and theta = 1
                      2 - 2*alpha - x     if x  > 1 - 2*alpha and theta = 0

    and the discrepancy is the travelled distance itself.  With the uniform
    travel law the p-value equals 1 - x below the fork and exactly alpha on
    the far arc, so its law is the extremal mixture with atom at alpha.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    if g is None:
        g = uniform_g()
    c, loop = 1.0 - 2.0 * alpha, 2.0 - 2.0 * alpha

    def distance(x, theta):
        x = np.asarray(x, dtype=float)
        if np.ndim(theta):
            return np.where((x <= c) | (np.asarray(theta) == 1), x, loop - x)
        return x.copy() if theta == 1 else np.where(x <= c, x, loop - x)

    def sample_data(theta, gen):
        dist = g.sampler(gen, np.asarray(theta).size)
        return np.where((np.asarray(theta) == 1) | (dist <= c), dist, loop - dist)

    def posterior(x):
        x = np.asarray(x, dtype=float)
        w = np.empty((2, *x.shape))
        for th in (0, 1):
            w[th] = g.density(distance(x, th))
        w[w < 0] = 0.0  # guard float dust at f = 1
        w /= np.sum(w, axis=0)
        return w

    def conditional_sf(theta, x):
        return g.sf(distance(x, theta))

    model = GenerativeModel(
        model_id=f"lasso(alpha={alpha:g},g={g.name})",
        theta_support=np.array([0, 1]),
        prior=np.array([0.5, 0.5]),
        sample_data=sample_data,
        posterior=posterior,
        discrepancy=lambda x, theta: distance(x, theta),
        conditional_sf=conditional_sf,
    )
    return _stating(model, p2alpha(alpha) if g.name == "uniform" else None)


# ------------------------------------------------------------------ simplex model

def simplex_model(alpha: float) -> GenerativeModel:
    """Two uniform components on overlapping intervals of the unit segment.

    x | theta=0 ~ U[0, 0.5+alpha),  x | theta=1 ~ U(0.5-alpha, 1], prior 1/2
    each, discrepancy f(x, theta) = |x - theta|.  On the overlap the posterior
    is (1/2, 1/2) and the p-value is constant at a = alpha/(0.5+alpha), an
    atom of mass 2a; outside the overlap the p-value is uniform on (2a, 1].
    The realized law is therefore the extremal mixture with parameter a
    (note: a, not alpha itself).
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    w = 0.5 + alpha

    def sample_data(theta, gen):
        u = gen.random(np.asarray(theta).size) * w
        return np.where(np.asarray(theta) == 0, u, 1.0 - u)

    def posterior(x):
        x = np.asarray(x, dtype=float)
        # densities with the half-open conventions [0, w) and (1-w, 1]
        out = np.empty((2, *x.shape))
        out[0] = (x >= 0.0) & (x < w)
        out[1] = (x > 1.0 - w) & (x <= 1.0)
        tot = out[0] + out[1]
        if np.any(tot == 0.0):
            raise ValueError("data outside the model support")
        out /= tot
        return out

    def conditional_sf(theta, x):
        d = np.asarray(np.abs(np.asarray(x, dtype=float) - theta))  # an array, also for one x
        np.subtract(w, d, out=d)
        d /= w
        return np.clip(d, 0.0, 1.0, out=d)

    model = GenerativeModel(
        model_id=f"simplex(alpha={alpha:g})",
        theta_support=np.array([0, 1]),
        prior=np.array([0.5, 0.5]),
        sample_data=sample_data,
        posterior=posterior,
        discrepancy=lambda x, theta: np.abs(np.asarray(x, dtype=float) - theta),
        conditional_sf=conditional_sf,
    )
    return _stating(model, p2alpha(simplex_atom(alpha)))


def simplex_atom(alpha: float) -> float:
    """Location of the simplex model's p-value atom: alpha / (0.5 + alpha)."""
    return alpha / (0.5 + alpha)


# ------------------------------------------------------------------ port model

def _require_finite(a: np.ndarray, name: str) -> None:
    """Name the first non-finite entry of a: NaN passes every range check."""
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        axes = ("row", "column") if a.ndim == 2 else ("entry",)
        at = ", ".join(f"{axis} {i}" for axis, i in zip(axes, bad[0]))
        raise ValueError(f"{name} {at} is not finite: {float(a[tuple(bad[0])])!r}")


def _app_weights(w, n_apps: int, name: str, what: str) -> np.ndarray:
    """w as a float array, checked to be a probability vector over n_apps
    applications; name and what name it in the two messages."""
    w = np.asarray(w, dtype=float)
    _require_finite(w, name)
    if w.shape != (n_apps,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} must be a probability vector over applications")
    return w


def port_model(pmfs: np.ndarray,
               posterior_spec: np.ndarray | Callable | None = None,
               prior: np.ndarray | None = None) -> GenerativeModel:
    """Finite record model: under application theta the record lands in port j
    with probability h(j, theta).

    The conditional p-value given theta at observed port pi is the total mass
    of ports no more likely than pi:

        Q(theta, pi) = sum_j h(j, theta) * 1{h(j, theta) <= h(pi, theta)}

    and the reported p-value averages Q over posterior_spec.  posterior_spec
    may be a fixed vector over applications (the regime where the analyst's
    posterior is insensitive to the port; default = the prior), or a callable
    pi -> weights for a port-informed posterior.
    """
    h = np.asarray(pmfs, dtype=float)
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 2:
        raise ValueError("pmfs must be a (n_apps, n_ports) array with >= 2 ports")
    _require_finite(h, "pmf")
    if np.any(h < 0.0):
        raise ValueError("pmf entries must be non-negative")
    if np.any(np.abs(h.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("each pmf row must sum to 1")
    n_apps, n_ports = h.shape
    if prior is None:
        prior = np.full(n_apps, 1.0 / n_apps)
    else:
        prior = _app_weights(prior, n_apps, "prior", "prior")

    # Q[theta, pi]: mass of ports whose pmf value does not exceed that of pi
    q_table = np.empty_like(h)
    for a in range(n_apps):
        q_table[a] = np.array([h[a][h[a] <= h[a, j]].sum() for j in range(n_ports)])

    if posterior_spec is None:
        posterior_spec = prior  # checked above
    elif not callable(posterior_spec):
        posterior_spec = _app_weights(posterior_spec, n_apps, "posterior_spec",
                                      "posterior_spec vector")
    if callable(posterior_spec):
        post_fn = posterior_spec
    else:
        def post_fn(pi, _w=posterior_spec):
            return _w

    cum = _thresholds(h.T)  # one row of thresholds per port but the last

    def sample_data(theta, gen):
        # the port is the count of thresholds of theta <= u; one port's
        # thresholds at a time keeps the peak O(n) for any n_ports
        theta = np.asarray(theta, dtype=int)
        u = gen.random(theta.size)
        port = np.zeros(theta.size, dtype=np.min_scalar_type(n_ports - 1))
        for row in cum:
            port += u >= row.take(theta)
        return port

    def conditional_sf(theta, pi):
        if np.ndim(theta):
            return q_table[np.asarray(theta, dtype=int), np.asarray(pi, dtype=int)]
        # exact_ppp's one theta at a time: a 1-d gather, a third of the 2-d one
        return q_table[int(theta)].take(np.asarray(pi, dtype=int))

    return GenerativeModel(
        model_id=f"port(n_apps={n_apps},n_ports={n_ports})",
        theta_support=np.arange(n_apps),
        prior=prior,
        sample_data=sample_data,
        posterior=post_fn,
        discrepancy=lambda pi, theta: -h[np.asarray(theta, dtype=int), np.asarray(pi, dtype=int)],
        conditional_sf=conditional_sf,
    )


def load_port_pmfs(path: str) -> np.ndarray:
    """Load port pmfs from CSV: one row per application, one column per port."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh if ln.split("#", 1)[0].strip()]
    except OSError as exc:
        raise OSError(f"cannot read {path!r}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path!r} contains no pmf rows")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed pmf CSV {path!r}: {exc}") from exc


# ------------------------------------------------------------------ direct construction

def ruschendorf_sample(alpha: float, rng: RngStream | np.random.Generator, n: int) -> EmpiricalSample:
    """Average of an antithetic pair of uniforms hitting the extremal law.

    U1 = U0 when U0 >= 2*alpha, else 2*alpha - U0; the average (U0 + U1)/2 is
    alpha exactly on the reflected branch (the atom lands on alpha verbatim)
    and U0 on the other, which is the extremal mixture for this alpha.
    """
    blocks = _ruschendorf_blocks(alpha, rng)
    if n <= 0:
        raise ValueError("n must be positive")
    return EmpiricalSample(_fold(blocks.draw, n), _owned=True)


def _ruschendorf_blocks(alpha: float, rng: RngStream | np.random.Generator) -> _Blocks:
    """ruschendorf_sample's draws block by block: the blocks continue one
    generator, so in order they are the draws of one random(n), and they
    must be drawn in order, on one thread."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha!r}")
    gen = _as_generator(rng)

    def draw(b: int, out: np.ndarray) -> None:
        gen.random(out=out)
        out[out < 2.0 * alpha] = alpha

    return _Blocks(f"ruschendorf(alpha={alpha:g})", draw, p2alpha(alpha))


# ------------------------------------------------------------------ frequency runs

@dataclass(frozen=True)
class FrequencyRun:
    """Exact p-values from n independent prior-predictive replicates."""

    model_id: str
    n: int
    seed: int
    stream_id: int
    pvalues: EmpiricalSample

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            _write_values(fh, self.pvalues.values)


def _thread_count(threads: int) -> int:
    """threads, checked to be a positive integer, at most the CPUs the process
    may run on: a larger pool would only hold more blocks' temporaries at once."""
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(threads, cpus or 1)


def frequency_run(model, n: int, rng: RngStream, threads: int = 1) -> FrequencyRun:
    """n independent replicates of (theta ~ prior, D ~ model, P = exact p-value).

    Work is split into fixed-size blocks, each with its own derived RNG
    stream; the block partition does not depend on the worker count, so the
    result is bit-identical for any thread count (see _thread_count).  Each
    block's draw_pvalues writes straight into the block's slice of the one
    n-array.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    blocks = _model_blocks(model, rng)
    return FrequencyRun(
        model_id=blocks.model_id, n=n, seed=rng.seed, stream_id=rng.stream_id,
        pvalues=EmpiricalSample(_fold(blocks.draw, n, workers=_thread_count(threads)),
                                _owned=True),
    )


class _Blocks(NamedTuple):
    """What a frequency run draws, block by block (see _fold)."""

    model_id: str
    draw: Callable[[int, np.ndarray], object]  # draw(b, out) fills out with block b
    law: SubUniformDist | None  # the law of the values, where the package knows it


def _model_blocks(model, rng: RngStream) -> _Blocks:
    """model's replicates block by block: block b is drawn by
    rng.block_generator(b), so blocks may be drawn in any order.  The law is
    the one model's constructor states, if any."""
    return _Blocks(getattr(model, "model_id", type(model).__name__),
                   lambda b, out: model.draw_pvalues(rng.block_generator(b), out.size, out=out),
                   getattr(model, "_law", None))


def _fold(draw: Callable[[int, np.ndarray], object], n: int,
          sink: Callable[[np.ndarray], object] | None = None, keep: bool = True,
          workers: int = 1) -> np.ndarray | None:
    """Draw n values block by block and hand each block to sink, in block order;
    return them, in one n-array, if keep.

    Block b holds values b * _BLOCK to min((b + 1) * _BLOCK, n) - 1, and
    draw(b, out) fills out with them: a slice of the n-array, or without keep
    one buffer, reused for every block, that sink must be done with when it
    returns.  Blocks are drawn and handed to sink on this thread.  Only
    frequency_run's pool (workers > 1, with keep and no sink) draws them on
    that many threads, each into its own slice of the n-array.
    """
    n_blocks = -(-n // _BLOCK)
    values = np.empty(n if keep else min(n, _BLOCK))

    def block(b: int) -> np.ndarray:
        lo, hi = b * _BLOCK, min((b + 1) * _BLOCK, n)
        out = values[lo:hi] if keep else values[:hi - lo]
        draw(b, out)
        return out

    if workers > 1 and n_blocks > 1:
        # imported here: it loads logging, a cost the one-thread default skips
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, range(n_blocks)))  # re-raises a block's error
    else:
        take = sink or (lambda out: None)
        for b in range(n_blocks):
            take(block(b))
    return values if keep else None
