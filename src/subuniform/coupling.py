"""Constructive martingale couplings and the p-value synthesizer.

Every sub-uniform law nu admits a coupling (P, S) with P ~ nu, S uniform on
[0,1] and E(S | P) = P, where each conditional law S | P=p is either singular
(S = p) or absolutely continuous.  From such a coupling one manufactures a
Bayesian model whose exact posterior predictive p-value has law nu:

* the parameter theta follows any continuous CDF G positive on the line;
* within the row at p, the mod-1 shift
      U_t = Finv[ {F(S) + G(t)} mod 1 ]
  redistributes S without leaving the row, for every t;
* the discrepancy f(D, t) = Fbar_inv(U_t) (standard exponential survival)
  makes the conditional survival probability given theta=t equal U_t, and
  averaging U_theta over theta ~ G returns the row mean, i.e. P itself.

The coupling is explicit for the uniform target and for the extremal
atom-plus-uniform mixtures.  Any other sub-uniform target is first reduced to
a finite mean-preserving atom list, which the left-curtain coupling
(Beiglboeck & Juillet 2016) joins to the uniform law in closed form: each
atom, taken left to right, is spread uniformly over the one window of the
still-free part of [0, 1] that has its mass and its mean.  The rows come out
absolutely continuous and the S-marginal exactly uniform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import SubUniformDist, _json_field, _step_cdf_gap, as_p2alpha, discretize
from .idf import IntegratedDF, dominates_cx, uniform_idf
from .numerics import RngStream, _inverse_draws, _searchsorted_right, _sorted_unique, _thresholds


# the number of equal-mass quantile cells a general target is reduced to
_N_CELLS = 256


# ------------------------------------------------------------------ row laws

@dataclass(frozen=True)
class SingularRow:
    """S | P=p concentrated at p."""

    at: float

    def mean(self) -> float:
        return self.at

    def cdf(self, s) -> np.ndarray:
        return (np.asarray(s, dtype=float) >= self.at).astype(float)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.at)


@dataclass(frozen=True)
class UniformMixRow:
    """S | P=p as a finite mixture of uniform slabs: an absolutely continuous
    row with a piecewise-constant density.

    intervals: ((lo, hi, weight), ...) with lo < hi, weights > 0 summing to 1,
    sorted and non-overlapping (gaps allowed).
    """

    intervals: tuple[tuple[float, float, float], ...]
    # inverse's table, built once: rows lo, hi, weight and the weight below each slab
    _table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("a uniform-mix row needs at least one slab")
        prev_hi, total, table = -np.inf, 0.0, []
        for lo, hi, w in self.intervals:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bad slab ({lo}, {hi})")
            if lo < prev_hi - 1e-12:
                raise ValueError("slabs must be sorted and non-overlapping")
            if w <= 0.0:
                raise ValueError("slab weights must be positive")
            table.append((lo, hi, w, total))
            prev_hi = hi
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"slab weights sum to {total!r}, expected 1")
        object.__setattr__(self, "_table", np.array(table, dtype=float).T)

    def mean(self) -> float:
        return float(sum(w * (lo + hi) / 2.0 for lo, hi, w in self.intervals))

    def support(self) -> tuple[float, float]:
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, s: float) -> bool:
        return any(lo - 1e-12 <= s <= hi + 1e-12 for lo, hi, _ in self.intervals)

    def cdf(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for lo, hi, w in self.intervals:
            out = out + w * np.clip((s - lo) / (hi - lo), 0.0, 1.0)
        return out

    def inverse(self, u) -> np.ndarray:
        """Generalized inverse CDF; u in [0, 1] maps into the support."""
        u = np.asarray(u, dtype=float)
        lo, hi, w, below = self._table
        idx = np.maximum(np.searchsorted(below, u, side="right") - 1, 0)
        frac = (u - below[idx]) / w[idx]
        return lo[idx] + np.clip(frac, 0.0, 1.0) * (hi[idx] - lo[idx])

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return _inverse_draws(gen, n, self.inverse)


Row = SingularRow | UniformMixRow


# ------------------------------------------------------------------ conditional law

@dataclass(frozen=True)
class ConditionalLaw:
    """The family of conditional laws S | P=p of a martingale coupling.

    atom_rows: rows attached to atoms of the P-marginal, as (p, mass, row).
    singular_spans: intervals of p where the row is singular at p (used when
    the P-marginal has a continuous part carried through unchanged).
    """

    atom_rows: tuple[tuple[float, float, Row], ...] = ()
    singular_spans: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for p, mass, _row in self.atom_rows:
            _check_atom_mass(p, mass)
        for lo, hi in self.singular_spans:
            _check_span(lo, hi)

    def entry(self, p: float) -> Row:
        """The row law at P = p, matched to within 1e-12."""
        for loc, _mass, row in self.atom_rows:
            if abs(p - loc) <= 1e-12:
                return row
        for lo, hi in self.singular_spans:
            if lo - 1e-12 <= p <= hi + 1e-12:
                return SingularRow(float(p))
        raise ValueError(f"p={p!r} is not in the support of the P-marginal")

    def martingale_residual(self) -> float:
        """max over atom rows of |E(S | P=p) - p| (singular rows are exact)."""
        if not self.atom_rows:
            return 0.0
        return max(abs(row.mean() - p) for p, _mass, row in self.atom_rows)

    def to_payload(self) -> dict:
        rows = []
        for p, mass, row in self.atom_rows:
            if isinstance(row, SingularRow):
                rows.append({"p": p, "mass": mass, "row": {"kind": "singular", "at": row.at}})
            else:
                rows.append({"p": p, "mass": mass,
                             "row": {"kind": "uniform_mix",
                                     "intervals": [[lo, hi, w] for lo, hi, w in row.intervals]}})
        return {"atom_rows": rows,
                "singular_spans": [[lo, hi] for lo, hi in self.singular_spans]}

    @classmethod
    def from_payload(cls, payload: dict) -> "ConditionalLaw":
        """The coupling a decoded JSON object describes; ValueError if it is malformed."""
        if not isinstance(payload, dict):
            raise ValueError(f"coupling JSON must be an object, got {type(payload).__name__}")
        rows = []
        with _json_field("coupling.atom_rows"):
            items = list(payload.get("atom_rows", []))
        for i, item in enumerate(items):
            where = f"coupling.atom_rows[{i}]"
            with _json_field(f"{where}.row"):
                spec = item["row"]
                if spec["kind"] == "singular":
                    row: Row = SingularRow(float(spec["at"]))
                elif spec["kind"] == "uniform_mix":
                    row = UniformMixRow(tuple((float(a), float(b), float(w))
                                              for a, b, w in spec["intervals"]))
                else:
                    raise ValueError(f"unknown row kind {spec.get('kind')!r}")
            with _json_field(f"{where}.p"):
                p = float(item["p"])
            with _json_field(f"{where}.mass"):
                mass = float(item["mass"])
                _check_atom_mass(p, mass)
            rows.append((p, mass, row))
        with _json_field("coupling.singular_spans"):
            items = list(payload.get("singular_spans", []))
        spans = []
        for j, span in enumerate(items):
            with _json_field(f"coupling.singular_spans[{j}]"):
                lo, hi = (float(v) for v in span)
                _check_span(lo, hi)
            spans.append((lo, hi))
        return cls(atom_rows=tuple(rows), singular_spans=tuple(spans))


def _check_atom_mass(p: float, mass: float) -> None:
    if mass <= 0.0:
        raise ValueError(f"atom mass at {p!r} must be positive")


def _check_span(lo: float, hi: float) -> None:
    if not lo < hi:
        raise ValueError(f"bad singular span ({lo}, {hi})")


def uniform_coupling() -> ConditionalLaw:
    """The trivial coupling for the uniform target: S = P everywhere."""
    return ConditionalLaw(singular_spans=((0.0, 1.0),))


def explicit_p2alpha_coupling(alpha: float) -> ConditionalLaw:
    """Closed-form coupling for the extremal atom-plus-uniform mixture.

    S | P=alpha ~ uniform[0, 2*alpha] (mean alpha); S | P=p singular at p for
    p in [2*alpha, 1].  The atom's mass 2*alpha spreads to density one on
    [0, 2*alpha] and the singular part passes the uniform piece through, so S
    is uniform on [0,1].
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    atom_row = UniformMixRow(((0.0, 2.0 * alpha, 1.0),))
    return ConditionalLaw(atom_rows=((alpha, 2.0 * alpha, atom_row),),
                          singular_spans=((2.0 * alpha, 1.0),))


# ------------------------------------------------------------------ left-curtain coupling

class TransportInfeasible(ValueError):
    """No martingale coupling exists; carries a convex-order witness."""

    def __init__(self, message: str, witness: float | None = None):
        super().__init__(message)
        self.witness = witness


def _shadow_start(lo: np.ndarray, hi: np.ndarray, cum: np.ndarray,
                  v: float, m: float) -> float:
    """The free level u at which the window [u, u+m] of the free set has mean v.

    With Q the quantile of the free set (density one on the slabs lo-hi,
    cum their cumulative lengths) and G(w) the integral of Q over [0, w],
    H(u) = G(u+m) - G(u) has slope Q(u+m) - Q(u) >= m, constant between the
    free levels c and c - m.  So H is piecewise linear and increasing, and
    H(u) = m*v is solved by one search and one linear interpolation.
    """
    top = cum[-1] - m
    if top <= 0.0:
        return 0.0
    g_nodes = np.concatenate([[0.0], np.cumsum((hi - lo) * (hi + lo) / 2.0)])

    def g(w: np.ndarray) -> np.ndarray:
        j = np.minimum(np.maximum(np.searchsorted(cum, w, side="right") - 1, 0), lo.size - 1)
        d = w - cum[j]
        return g_nodes[j] + d * (lo[j] + d / 2.0)

    u = _sorted_unique(np.minimum(np.maximum(np.concatenate([cum, cum - m]), 0.0), top))
    h = g(u + m) - g(u)
    k = min(max(int(np.searchsorted(h, m * v)), 1), u.size - 1)
    dh = h[k] - h[k - 1]  # zero only when two levels differ by rounding
    t = (m * v - h[k - 1]) / dh if dh > 0.0 else 0.0
    return float(min(max(u[k - 1] + t * (u[k] - u[k - 1]), 0.0), top))


def left_curtain_coupling(values, masses) -> ConditionalLaw:
    """The left-curtain martingale coupling of a discrete law with the uniform.

    values: strictly increasing atom locations; masses: positive, summing to 1.
    The atoms are taken left to right, and each one takes the shadow of its
    point mass in the part of [0, 1] still free: the one window of free
    measure m whose mean is the atom's location v (Beiglboeck & Juillet 2016).
    Its row is uniform on the window's slabs, so every row is absolutely
    continuous and the rows tile [0, 1]: the S-marginal is exactly uniform.
    Raises TransportInfeasible with the witness when the atoms are not below
    the uniform law in the convex order, or when a row's mean misses its atom
    by more than that check's tolerance 1e-9 (the atom missed most).
    """
    values = np.asarray(values, dtype=float)
    masses = np.asarray(masses, dtype=float)
    check = dominates_cx(IntegratedDF.from_atoms(values, masses), uniform_idf())
    if not check:
        raise TransportInfeasible(
            f"atoms are not below the uniform law in the convex order "
            f"(max violation {check.max_violation:.3g} at x={check.witness!r})",
            witness=check.witness)
    lo, hi = np.array([0.0]), np.array([1.0])  # the free part of [0, 1]
    rows = []
    for i, (v, m) in enumerate(zip(values, masses)):
        cum = np.concatenate([[0.0], np.cumsum(hi - lo)])
        if i == values.size - 1:  # the last atom takes what is left
            a, b = 0.0, cum[-1]
        else:
            a = _shadow_start(lo, hi, cum, v, m)
            b = a + m
        cut_lo = np.minimum(np.maximum(lo + (a - cum[:-1]), lo), hi)
        cut_hi = np.minimum(np.maximum(lo + (b - cum[:-1]), lo), hi)
        take = cut_hi > cut_lo
        width = cut_hi[take] - cut_lo[take]
        rows.append((float(v), float(m), UniformMixRow(tuple(
            (float(l), float(h), float(w)) for l, h, w
            in zip(cut_lo[take], cut_hi[take], width / width.sum())))))
        # each free slab splits into the parts left and right of its cut
        lo = np.stack([lo, np.where(take, cut_hi, hi)], axis=1).ravel()
        hi = np.stack([np.where(take, cut_lo, hi), hi], axis=1).ravel()
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
    miss, witness = max((abs(row.mean() - v), v) for v, _, row in rows)
    if miss > 1e-9:
        raise TransportInfeasible(f"the coupling is not a martingale: the row of the atom "
                                  f"at x={witness!r} misses it by {miss:.3g}", witness=witness)
    return ConditionalLaw(atom_rows=tuple(rows))


# ------------------------------------------------------------------ mod-1 family

def mod1_family(row: Row, g_cdf: Callable[[float], float], t: float, s: float) -> float:
    """The within-row redistribution Finv[{F(s) + G(t)} mod 1].

    Singular rows return s unchanged.  The boundary value 1.0 mod 1 maps to
    0.0.  Raises if s lies outside the row's support.
    """
    if isinstance(row, SingularRow):
        return float(s)
    if not row.contains(float(s)):
        raise ValueError(f"s={s!r} lies outside the row support {row.support()}")
    u = (float(row.cdf(s)) + float(g_cdf(float(t)))) % 1.0
    return float(row.inverse(u))


def _logistic_cdf(t: float) -> float:
    return float(np.exp(-np.logaddexp(0.0, -t)))


def _normal_cdf(t: float) -> float:
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


G_CHOICES: dict[str, Callable[[float], float]] = {
    "logistic": _logistic_cdf,
    "normal": _normal_cdf,
}


# ------------------------------------------------------------------ synthesizer

@dataclass(frozen=True)
class SyntheticPPPModel:
    """A manufactured model whose exact p-value has the prescribed law.

    Data are pairs D = (S, P): S is the uniform statistic and P tags the row
    of the coupling (rows may overlap for general targets, so S alone need
    not determine the row).  The discrepancy given parameter t is
    -log of the mod-1 shift U_t, whose conditional survival probability is
    U_t itself; averaging over t ~ G yields the row mean, the p-value.
    """

    target: SubUniformDist
    coupling: ConditionalLaw
    g_name: str = "logistic"
    seed: int = 0
    stream_id: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.g_name not in G_CHOICES:
            raise ValueError(f"unknown G {self.g_name!r}; choose from {sorted(G_CHOICES)}")

    @property
    def model_id(self) -> str:
        return f"synthetic({self.target.variant},G={self.g_name})"

    # -- coupling marginals ------------------------------------------------

    def draw_joint(self, gen: np.random.Generator, n: int,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(pvalues, svalues): P ~ target row labels, S | P from the rows; the
        p-values are written into out if given.

        The emitted p-value is the row mean computed from the coupling
        tables, not the label itself, so martingale error is visible.
        """
        atom_rows = self.coupling.atom_rows
        if self.coupling.singular_spans:
            draws = self._singular_draws(gen, n)
            svals = draws.copy()
            for p, _mass, row in atom_rows:
                sel = draws == p
                k = int(np.count_nonzero(sel))
                if k:
                    svals[sel] = row.sample(gen, k)
            return self._singular_pvalues(draws, out), svals
        idx, means = self._row_labels(gen, n), self._row_means()
        # the draws of each row, in draw order: one stable sort of the labels
        order = np.argsort(idx, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=len(atom_rows)))])
        svals = np.empty(n)
        for k, (_p, _mass, row) in enumerate(atom_rows):
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                svals[order[lo:hi]] = row.sample(gen, int(hi - lo))
        # the gather converts the labels to intp, as large as order, so free
        # order first; mode="clip" writes into out unbuffered (labels are in range)
        del order
        return np.take(means, idx, out=out, mode="clip"), svals

    def draw_pvalues(self, gen: np.random.Generator, n: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        """draw_joint(gen, n, out)[0], drawing only what the p-values depend
        on: the S values come last in gen's order, so they are left out."""
        if self.coupling.singular_spans:
            return self._singular_pvalues(self._singular_draws(gen, n), out)
        return np.take(self._row_means(), self._row_labels(gen, n), out=out, mode="clip")

    def _singular_draws(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n target draws in draw order.  Atoms are emitted verbatim by
        SubUniformDist.sample, so exact equality identifies the atom rows;
        sample() sorts, so they are shuffled."""
        draws = self.target.sample(gen, n).values
        return draws[gen.permutation(n)]

    def _singular_pvalues(self, draws: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """The p-value of each draw, written into out if given: its row's
        mean on an atom row, else the draw itself."""
        pvals = np.empty(draws.size) if out is None else out
        pvals[...] = draws
        for p, _mass, row in self.coupling.atom_rows:
            pvals[draws == p] = row.mean()
        return pvals

    def _row_labels(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n atom-row labels drawn with the rows' masses, in the narrowest
        unsigned integers that hold them (uint8 up to 256 rows), which numpy's
        stable argsort radix-sorts."""
        cum = _thresholds([mass for _p, mass, _row in self.coupling.atom_rows])
        return _searchsorted_right(cum, gen.random(n))

    def _row_means(self) -> np.ndarray:
        """Each atom row's mean, in row order.  draw_joint takes them before
        the n-sized temporaries of the S draws: taken after, a cold
        construct of 5e5 values peaked 3.9 MB higher."""
        return np.array([row.mean() for _p, _mass, row in self.coupling.atom_rows])

    # -- pointwise model pieces ---------------------------------------------

    def conditional_sf(self, t: float, d: tuple[float, float]) -> float:
        """U_t at data d = (s, p): survival prob of the discrepancy given t."""
        s, p = d
        return mod1_family(self.coupling.entry(p), G_CHOICES[self.g_name], t, s)

    def discrepancy(self, d: tuple[float, float], t: float) -> float:
        """f(d, t) = Fbar_inv(U_t) with Fbar the standard exponential survival."""
        u = self.conditional_sf(t, d)
        return float(-np.log(max(u, 1e-300)))

    def exact_ppp(self, d: tuple[float, float]) -> float:
        """Average of U_theta over theta ~ G: exactly the row mean at d."""
        _s, p = d
        return self.coupling.entry(p).mean()

    # -- replay serde --------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "target": self.target.to_payload(),
            "coupling": self.coupling.to_payload(),
            "g_name": self.g_name,
            "seed": self.seed,
            "stream_id": self.stream_id,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "SyntheticPPPModel":
        """The model to_json wrote; ValueError if the text is malformed."""
        payload = json.loads(text)  # JSONDecodeError is a ValueError
        if not isinstance(payload, dict):
            raise ValueError(f"model JSON must be an object, got {type(payload).__name__}")
        with _json_field("target"):
            target = SubUniformDist.from_payload(payload["target"])
        with _json_field("coupling"):
            coupling_payload = payload["coupling"]
        coupling = ConditionalLaw.from_payload(coupling_payload)
        with _json_field("seed"):
            seed = int(payload.get("seed", 0))
        with _json_field("stream_id"):
            stream_id = int(payload.get("stream_id", 0))
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"malformed model JSON field meta: not an object: {meta!r}")
        with _json_field("g_name"):
            return cls(target=target, coupling=coupling, g_name=payload.get("g_name", "logistic"),
                       seed=seed, stream_id=stream_id, meta=meta)


def synthesize_ppp(target: SubUniformDist, g_name: str = "logistic",
                   rng: RngStream | None = None) -> SyntheticPPPModel:
    """Build a model whose exact posterior predictive p-value has law target.

    Uniform and extremal atom-plus-uniform targets get closed-form couplings.
    Any other sub-uniform target is discretized to at most 256
    conditional-mean atoms (a convex-order reduction) and coupled to the
    uniform law by the left-curtain coupling, whose rows are absolutely
    continuous and whose S-marginal is exactly uniform.  The realized
    p-value law is the discretized one; meta["discretization_ks"] is its
    exact sup CDF distance from the target.
    """
    if rng is None:
        rng = RngStream(seed=0)
    check = target.is_sub_uniform()
    if not check:
        raise ValueError(
            f"target is not sub-uniform (max violation {check.max_violation:.3g} "
            f"at x={check.witness!r})")

    if target.variant == "uniform01":
        return SyntheticPPPModel(target=target, coupling=uniform_coupling(),
                                 g_name=g_name, seed=rng.seed, stream_id=rng.stream_id,
                                 meta={"path": "explicit-uniform"})
    alpha = as_p2alpha(target)
    if alpha is not None and alpha < 0.5:
        return SyntheticPPPModel(target=target, coupling=explicit_p2alpha_coupling(alpha),
                                 g_name=g_name, seed=rng.seed, stream_id=rng.stream_id,
                                 meta={"path": "explicit-p2alpha", "alpha": alpha})

    values, masses = discretize(target, _N_CELLS)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    disc_ks = _step_cdf_gap(target, values, lambda k: cum[k])
    return SyntheticPPPModel(
        target=target, coupling=left_curtain_coupling(values, masses), g_name=g_name,
        seed=rng.seed, stream_id=rng.stream_id,
        meta={"path": "left-curtain", "n_cells": int(values.size), "discretization_ks": disc_ks})
