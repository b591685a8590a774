"""Conservative calibration bounds for p-value style statistics.

Single p-value: if P precedes the uniform law in the convex order, then
P(P <= alpha) <= min(1, 2*alpha), and more generally F_X(alpha) <= h where

    h = min(1, max{w >= 0 : w*(x - alpha) <= phi_Y(x) for all x})
      = min(1, min over x > alpha of phi_Y(x) / (x - alpha)),

for any X preceding Y in the convex order with IDF phi_Y.  The uniform
target recovers the 2*alpha rule exactly.

Combination: for independent sub-uniform P_1..P_m the Fisher score
R = -2 * sum(log P_i) satisfies E(R) <= 2m*(1 + log 2) and three upper
bounds on P(R >= x), all computed here:

    shifted chi-square   S_{2m}(x - 2m*log 2)
    Cantelli             m / (m + ((x - 2m)/2)^2)        for x >= 2m
    MGF / Chernoff       exp(m - x/2 - m*log(2m/x))      for x >= 2m

Minimum p-value: P(min P_i <= x) <= 1 - (1 - 2x)^m, achieved by independent
copies of the extremal law.
"""

from __future__ import annotations

import json
import math
import warnings as _warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .idf import IntegratedDF
from .numerics import chi2_quantile, chi2_sf

__all__ = [
    "conservative_single",
    "h_bound",
    "FisherScore",
    "FisherReport",
    "fisher_score",
    "fisher_bounds",
    "fisher_critical",
    "minp_bound",
    "MinpLimit",
    "minp_limit_check",
]

_ZERO_FLOOR = 1e-300


def conservative_single(p: float) -> float:
    """Worst-case adjustment for one p-value: min(1, 2p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p!r}")
    return min(1.0, 2.0 * p)


def h_bound(alpha: float, target_idf: IntegratedDF) -> float:
    """Sharp bound on F_X(alpha) over all X convex-order dominated by Y.

    h = min(1, w*) where w* = min over x > alpha of phi_Y(x) / (x - alpha) is
    the slope of the tangent to phi_Y from (alpha, 0).  Exact rule: the
    ratio falls while F(x)(x - alpha) < phi(x) and rises after (phi is
    convex), so its minimum lies at a breakpoint or at the root of
    F(x)(x - alpha) = phi(x), which has a closed form on every segment:

        uniform01   x = 2*alpha, so h = min(1, 2*alpha);
        beta22      x = ((2 + 2a) - sqrt((2 + 2a)^2 - 18a)) / 3, a = alpha;
        piecewise   x = alpha + sqrt(u^2 + 2*(phi(x0) - F(x0)*u) / s) on a
                    segment from x0 with CDF slope s, u = x0 - alpha.

    Beyond the support phi_Y continues as x - mean, whose ratio tends
    monotonically to 1, so the support suffices.  Float rounding is the only
    error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if target_idf.kind == "piecewise":
            bx, f = target_idf.breakpoints, target_idf.cdf
            x0, u = bx[:-1], bx[:-1] - alpha
            roots = alpha + np.sqrt(u * u + 2.0 * (target_idf.evaluate(x0) - f[:-1] * u)
                                    / (np.diff(f) / np.diff(bx)))
            x = np.concatenate([bx, np.clip(roots, x0, bx[1:])])
        elif target_idf.family == "uniform01":
            x = np.array([2.0 * alpha, 1.0])
        else:  # beta22
            b = 2.0 + 2.0 * alpha
            x = np.array([(b - np.sqrt(b * b - 18.0 * alpha)) / 3.0, 1.0])
    x = x[(x > alpha) & (x <= target_idf.support[1])]
    ratio = target_idf.evaluate(x) / (x - alpha)
    return float(min(1.0, ratio.min(initial=1.0)))


class FisherScore(NamedTuple):
    score: float
    m: int
    floored_zeros: int


def fisher_score(pvals: Sequence[float] | np.ndarray) -> FisherScore:
    """Fisher combination score -2 * sum(log p_i).

    Zero p-values are floored at 1e-300 and flagged (never silently); negative
    values or values above 1 are domain errors.
    """
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvals must be a non-empty 1-d array")
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0,1]")
    zeros = int(np.count_nonzero(p == 0.0))
    if zeros:
        _warnings.warn(f"{zeros} zero p-value(s) floored at {_ZERO_FLOOR:g} "
                       "before taking logs", UserWarning, stacklevel=2)
        p = np.where(p == 0.0, _ZERO_FLOOR, p)
    score = float(-2.0 * np.sum(np.log(p))) + 0.0  # normalize -0.0
    return FisherScore(score, int(p.size), zeros)


@dataclass(frozen=True)
class FisherReport:
    """Nominal and worst-case tail assessments of a Fisher score."""

    score: float
    m: int
    nominal_p: float
    bound_shifted_chi2: float
    bound_cantelli: float | None
    bound_mgf: float | None
    conservative_p: float
    inapplicable: dict[str, str]
    warnings: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def fisher_bounds(score: float, m: int, warnings: Sequence[str] = ()) -> FisherReport:
    """Evaluate the nominal tail and the three worst-case bounds at the score.

    All three bounds are computed in log space where cancellation threatens,
    so they remain finite and accurate for m into the billions.  The Cantelli
    and MGF bounds require score >= 2m (the worst-case mean); below that they
    are reported as inapplicable rather than extrapolated.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {score!r}")
    k = 2.0 * m
    nominal = chi2_sf(score, k)
    shifted = chi2_sf(max(0.0, score - k * math.log(2.0)), k)
    inapplicable: dict[str, str] = {}
    t = score - k  # distance above the sub-uniform worst-case mean
    if t < 0.0:
        cantelli = None
        mgf = None
        reason = f"requires score >= 2m = {k:g}"
        inapplicable["bound_cantelli"] = reason
        inapplicable["bound_mgf"] = reason
    else:
        cantelli = m / (m + (t / 2.0) ** 2)
        # exponent m - score/2 - m*log(2m/score) rewritten via log1p(t/2m)
        log_mgf = -t / 2.0 + m * math.log1p(t / k)
        mgf = math.exp(min(log_mgf, 0.0))
    candidates = [b for b in (shifted, cantelli, mgf) if b is not None]
    conservative = min(1.0, *candidates)
    return FisherReport(
        score=float(score), m=int(m), nominal_p=nominal,
        bound_shifted_chi2=shifted, bound_cantelli=cantelli, bound_mgf=mgf,
        conservative_p=conservative, inapplicable=inapplicable,
        warnings=tuple(warnings),
    )


def fisher_critical(alpha: float, m: int) -> float:
    """Nominal critical value: upper-alpha quantile of chi-square with 2m df."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return chi2_quantile(alpha, 2.0 * m)


def minp_bound(x: float, m: int) -> float:
    """Worst-case P(min of m sub-uniform p-values <= x) = 1 - (1 - 2x)^m.

    Valid for x in [0, 1/2]; beyond that the bound saturates at 1.  Attained
    by independent draws of the extremal law with atom at x.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x!r}")
    if x >= 0.5:
        return 1.0
    return -math.expm1(m * math.log1p(-2.0 * x))


class MinpLimit(NamedTuple):
    bound_in_q: float | None
    limit: float
    degenerate: bool
    note: str | None


def minp_limit_check(q: float, m: int) -> MinpLimit:
    """Worst-case size of a nominal-level-q min-p test, and its m -> inf limit.

    With the per-test threshold x chosen so that the nominal size is q,
    the worst-case size is 1 - (2*(1-q)^(1/m) - 1)^m, largest at m = 1
    (where it is 2q) and falling toward 2q - q^2 as m grows.  For large q
    and small m the inner base can go negative, in which case the finite-m
    formula is degenerate (the bound saturates at 1).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0,1), got {q!r}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if q == 0.0:
        return MinpLimit(0.0, 0.0, False, None)
    limit = 2.0 * q - q * q
    base = 2.0 * math.exp(math.log1p(-q) / m) - 1.0
    if base <= 0.0:
        return MinpLimit(None, limit, True,
                         f"2*(1-q)^(1/m) - 1 = {base:g} <= 0; finite-m formula degenerate")
    bound = -math.expm1(m * math.log(base))
    return MinpLimit(bound, limit, False, None)
