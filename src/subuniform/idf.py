"""Integrated distribution functions and the convex stochastic order.

The integrated distribution function (IDF) of a random variable X with CDF F is

    phi(x) = integral of F(t) dt over t <= x.

phi is non-decreasing and convex, its right derivative is F (valued in [0,1]),
phi vanishes at the left end of the support, and x - phi(x) tends to E(X).
X is dominated in the convex order by Y exactly when phi_X <= phi_Y pointwise
and the gap closes at the right end, which reduces to equal means.  The
uniform law on [0,1] has phi(x) = x^2/2, so "sub-uniform" checks reduce to
pointwise comparison against that parabola.

Two representations are supported:

* analytic families (closed-form phi);
* piecewise CDFs: node arrays (breakpoints, cdf) where the CDF interpolates
  linearly between nodes and a repeated breakpoint encodes a jump (point
  mass).  phi is then piecewise quadratic (linear across constant-CDF spans)
  and is integrated exactly.

Between consecutive nodes every CDF here is a polynomial (linear for
piecewise IDFs and uniform01, cubic for beta22), so the convex-order check is
exact: the gap of two IDFs peaks at a node or where their CDFs cross, each
crossing has a closed form, and float rounding is the only error.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

import numpy as np

from .numerics import EmpiricalSample, _run_blocks

__all__ = [
    "IntegratedDF",
    "DominanceResult",
    "ValidationReport",
    "dominates_cx",
    "uniform_idf",
    "beta22_idf",
]

_ANALYTIC_FAMILIES = ("uniform01", "beta22")


class DominanceResult(NamedTuple):
    """Outcome of a convex-order dominance check, with a witness on failure."""

    holds: bool
    max_violation: float
    witness: float | None
    tol: float

    def __bool__(self) -> bool:
        return self.holds


class ValidationReport(NamedTuple):
    """First violated IDF property, if any."""

    ok: bool
    property: str | None = None
    location: float | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class IntegratedDF:
    """An integrated distribution function in analytic or piecewise form.

    An empirical IDF (from_samples) keeps its sorted sample and builds its node
    arrays only when a caller asks for them: dominates_cx against the uniform
    law walks the sample's runs of equal values in blocks instead.
    """

    __slots__ = ("kind", "family", "sample_size", "_nodes", "_sample")

    def __init__(self, *, kind: str, family: str | None = None,
                 breakpoints: np.ndarray | None = None,
                 cdf: np.ndarray | None = None,
                 sample_size: int | None = None):
        if kind == "analytic":
            if family not in _ANALYTIC_FAMILIES:
                raise ValueError(f"unknown analytic family {family!r}")
            nodes = (np.array([0.0, 1.0]), None, None)
        elif kind == "piecewise":
            breakpoints = np.asarray(breakpoints, dtype=float)
            cdf = np.asarray(cdf, dtype=float)
            if breakpoints.ndim != 1 or breakpoints.shape != cdf.shape or breakpoints.size == 0:
                raise ValueError("breakpoints and cdf must be equal-length 1-d arrays")
            if np.any(np.diff(breakpoints) < 0):
                raise ValueError("breakpoints must be non-decreasing")
            if not (np.all(np.isfinite(breakpoints)) and np.all(np.isfinite(cdf))):
                raise ValueError("breakpoints and cdf must be finite")
            nodes = (breakpoints, cdf, _node_integrals(breakpoints, cdf))
        else:
            raise ValueError(f"unknown IDF kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "sample_size", sample_size)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_sample", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntegratedDF is immutable")

    # ---------------------------------------------------------------- builders

    @classmethod
    def analytic(cls, family: str) -> "IntegratedDF":
        return cls(kind="analytic", family=family)

    @classmethod
    def piecewise(cls, breakpoints, cdf, sample_size: int | None = None) -> "IntegratedDF":
        return cls(kind="piecewise", breakpoints=breakpoints, cdf=cdf, sample_size=sample_size)

    @classmethod
    def from_samples(cls, values: EmpiricalSample | Iterable[float]) -> "IntegratedDF":
        """Empirical IDF: phi(x) = (1/n) * sum_i max(0, x - v_i).

        The CDF is the usual right-continuous step function, encoded as a jump
        (repeated breakpoint) at each distinct sample value.  The node arrays
        are those of from_atoms(distinct values, counts / n), built on first
        use.
        """
        sample = values if isinstance(values, EmpiricalSample) else EmpiricalSample(values)
        out = object.__new__(cls)
        for name, value in (("kind", "piecewise"), ("family", None), ("sample_size", sample.n),
                            ("_nodes", None), ("_sample", sample)):
            object.__setattr__(out, name, value)
        return out

    @classmethod
    def from_atoms(cls, values, masses) -> "IntegratedDF":
        """IDF of a discrete distribution given by atoms and masses."""
        values = np.asarray(values, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if values.ndim != 1 or values.shape != masses.shape or values.size == 0:
            raise ValueError("values and masses must be equal-length 1-d arrays")
        if np.any(np.diff(values) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(masses <= 0):
            raise ValueError("atom masses must be positive")
        total = masses.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"atom masses must sum to 1, got {total!r}")
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        x = np.repeat(values, 2)
        f = np.empty_like(x)
        f[0::2] = np.concatenate([[0.0], cum[:-1]])  # value just before the jump
        f[1::2] = cum                                # value at/after the jump
        return cls.piecewise(x, f)

    # ---------------------------------------------------------------- nodes

    def _node_arrays(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(breakpoints, cdf, phi at each breakpoint); an empirical IDF builds them here."""
        if self._nodes is None:
            counts, vals = zip(*((ends - starts, vals)
                                 for starts, ends, vals in _run_blocks(self._sample.values)))
            atoms = IntegratedDF.from_atoms(np.concatenate(vals),
                                            np.concatenate(counts) / self._sample.n)
            object.__setattr__(self, "_nodes", atoms._nodes)
        return self._nodes

    @property
    def breakpoints(self) -> np.ndarray:
        return self._node_arrays()[0]

    @property
    def cdf(self) -> np.ndarray | None:
        return self._node_arrays()[1]

    # ---------------------------------------------------------------- queries

    @property
    def support(self) -> tuple[float, float]:
        bx = self.breakpoints if self._sample is None else self._sample.values
        return float(bx[0]), float(bx[-1])

    def evaluate(self, x) -> np.ndarray | float:
        """phi(x); vectorized."""
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if self.kind == "analytic":
            out = _analytic_phi(self.family, xq)
        else:
            bx, f, phi = self._node_arrays()
            j = np.searchsorted(bx, xq, side="right") - 1
            out = np.zeros_like(xq)
            below = j < 0
            above = j >= bx.size - 1
            mid = ~(below | above)
            out[above] = phi[-1] + (xq[above] - bx[-1]) * f[-1]
            if np.any(mid):
                jm = j[mid]
                x0, x1 = bx[jm], bx[jm + 1]
                f0, f1 = f[jm], f[jm + 1]
                t = xq[mid] - x0
                ft = f0 + (f1 - f0) * t / (x1 - x0)
                out[mid] = phi[jm] + t * (f0 + ft) / 2.0
        return float(out[0]) if scalar else out

    def right_derivative(self, x) -> np.ndarray | float:
        """The right derivative of phi, i.e. the right-continuous CDF."""
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if self.kind == "analytic":
            out = _analytic_cdf(self.family, xq)
        else:
            bx, f = self.breakpoints, self.cdf
            j = np.searchsorted(bx, xq, side="right") - 1
            out = np.zeros_like(xq)
            above = j >= bx.size - 1
            mid = (j >= 0) & ~above
            out[above] = f[-1]
            if np.any(mid):
                jm = j[mid]
                x0, x1 = bx[jm], bx[jm + 1]
                f0, f1 = f[jm], f[jm + 1]
                out[mid] = f0 + (f1 - f0) * (xq[mid] - x0) / (x1 - x0)
        return float(out[0]) if scalar else out

    def mean(self) -> float:
        """E(X), recovered from x - phi(x) at the right end of the support."""
        if self.kind == "analytic":
            return 0.5  # both built-in families have mean 1/2
        bx, f, phi = self._node_arrays()
        if abs(f[-1] - 1.0) > 1e-9:
            raise ValueError("IDF does not integrate a full distribution (CDF does not reach 1)")
        return float(bx[-1] - phi[-1])

    def validate(self) -> ValidationReport:
        """Check the defining IDF properties; report the first violation."""
        if self.kind == "analytic":
            return ValidationReport(True)  # both analytic families are IDFs by construction
        f, bx = self.cdf, self.breakpoints
        bad = np.nonzero((f < -1e-12) | (f > 1.0 + 1e-12))[0]
        if bad.size:
            i = int(bad[0])
            return ValidationReport(False, "derivative-range", float(bx[i]),
                                    f"CDF value {f[i]!r} outside [0,1] at breakpoint index {i}")
        dec = np.nonzero(np.diff(f) < -1e-12)[0]
        if dec.size:
            i = int(dec[0]) + 1
            return ValidationReport(False, "convexity", float(bx[i]),
                                    f"CDF decreases at breakpoint index {i} (phi not convex there)")
        return ValidationReport(True)

    # ---------------------------------------------------------------- serde

    def to_json(self) -> str:
        if self.kind == "analytic":
            payload = {"kind": "analytic", "breakpoints": None, "cdf": None, "family": self.family}
        else:
            payload = {
                "kind": "piecewise",
                "breakpoints": [float(v) for v in self.breakpoints],
                "cdf": [float(v) for v in self.cdf],
                "family": None,
            }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "IntegratedDF":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed IDF JSON: {exc}") from exc
        kind = payload.get("kind")
        if kind == "analytic":
            return cls.analytic(payload.get("family"))
        if kind == "piecewise":
            bx, f = payload.get("breakpoints"), payload.get("cdf")
            if bx is None or f is None:
                raise ValueError("piecewise IDF JSON requires breakpoints and cdf arrays")
            return cls.piecewise(bx, f)
        raise ValueError(f"unknown IDF kind {kind!r}")


def _node_integrals(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    seg = np.diff(x) * (f[:-1] + f[1:]) / 2.0  # exact for a linear CDF
    return np.concatenate([[0.0], np.cumsum(seg)])


def _sample_nodes(sample: EmpiricalSample):
    """The empirical IDF's nodes, one block of runs at a time.

    Yields (x, f, phi) per block: each distinct value, the CDF just after its
    jump and phi there, with the previous block's last node in front (for
    the first block, the node just before the first jump).  Between x[k]
    and x[k+1] the CDF is f[k].  The floats are those of
    from_atoms(distinct, counts / n): f is the running sum of counts / n with
    its last value set to 1.0, and phi the running sum of
    (x[k+1] - x[k]) * (f[k] + f[k]) / 2, each carried from block to block.
    """
    n = sample.n
    x_last, f_last, phi_last = sample.values[0], 0.0, 0.0
    for starts, ends, vals in _run_blocks(sample.values):
        x = np.concatenate([[x_last], vals])
        f = np.cumsum(np.concatenate([[f_last], (ends - starts) / n]))
        if ends[-1] == n:
            f[-1] = 1.0
        phi = np.cumsum(np.concatenate([[phi_last], np.diff(x) * (f[:-1] + f[:-1]) / 2.0]))
        x_last, f_last, phi_last = x[-1], f[-1], phi[-1]
        yield x, f, phi


def _sample_gap_vs_uniform(sample: EmpiricalSample) -> tuple[tuple[float, float], float]:
    """_max_gap(IntegratedDF.from_samples(sample), uniform_idf()) and that
    IDF's mean, in one walk over the sample's runs: the same points in the
    same order, the same floats, and no node arrays.

    On the segment right of node k the CDF is the constant f[k], so phi is
    phi[k] + t * (f[k] + f[k]) / 2 at distance t, as evaluate computes it.
    """
    best = cross = (-np.inf, 0.0)
    left_of = {0.0: None, 1.0: None}  # the last node at or left of each point
    for x, f, phi in _sample_nodes(sample):
        gap = phi[1:] - _analytic_phi("uniform01", x[1:])
        i = int(np.argmax(gap))
        if gap[i] > best[0]:
            best = float(gap[i]), float(x[1 + i])
        # as in _max_gap, F - x can only fall through 0 on a segment where it
        # is >= 0 at the left node and <= 0 at the right one
        x0, x1, a = x[:-1], x[1:], f[:-1]
        j = np.flatnonzero((x1 > x0) & (a - np.clip(x0, 0.0, 1.0) >= 0.0)
                           & (a - np.clip(x1, 0.0, 1.0) <= 0.0))
        if j.size:
            xc = _crossings(x0[j], x1[j], a[j], a[j], "uniform01")
            gap = phi[j] + (xc - x0[j]) * (a[j] + a[j]) / 2.0 - _analytic_phi("uniform01", xc)
            i = int(np.argmax(gap))
            if gap[i] > cross[0]:
                cross = float(gap[i]), float(xc[i])
        for p in left_of:
            k = int(np.searchsorted(x1, p, side="right"))
            if k:
                left_of[p] = x[k], f[k], phi[k]
    for p, node in left_of.items():
        if node is None:
            value = 0.0
        elif node[0] == x[-1]:  # right of the last node, evaluate's linear tail
            value = node[2] + (p - node[0]) * node[1]
        else:
            value = node[2] + (p - node[0]) * (node[1] + node[1]) / 2.0
        gap = value - float(_analytic_phi("uniform01", np.array([p]))[0])
        if gap > cross[0]:
            cross = float(gap), p
    return max(best, cross), float(x[-1] - phi[-1])


def _analytic_phi(family: str, x: np.ndarray) -> np.ndarray:
    xc = np.clip(x, 0.0, 1.0)
    if family == "uniform01":
        inner = xc * xc / 2.0
    else:  # beta22: CDF 3x^2 - 2x^3 integrates to x^3 - x^4/2
        inner = xc**3 - xc**4 / 2.0
    return np.where(x > 1.0, x - 0.5, inner)


def _analytic_cdf(family: str, x: np.ndarray) -> np.ndarray:
    xc = np.clip(x, 0.0, 1.0)
    if family == "uniform01":
        return xc
    return 3.0 * xc**2 - 2.0 * xc**3


def uniform_idf() -> IntegratedDF:
    """IDF of the uniform law on [0,1]: phi(x) = x^2/2."""
    return IntegratedDF.analytic("uniform01")


def beta22_idf() -> IntegratedDF:
    """IDF of Beta(2,2): phi(x) = x^3 - x^4/2 on [0,1]."""
    return IntegratedDF.analytic("beta22")


def _default_tol(lower: IntegratedDF, upper: IntegratedDF) -> float:
    ns = [s for s in (lower.sample_size, upper.sample_size) if s]
    if ns:
        return 3.0 / np.sqrt(min(ns))
    return 1e-9


def _crossings(x0, x1, a, b, family: str | None) -> np.ndarray:
    """Where the line through (x0, a) and (x1, b) meets a CDF on [x0, x1].

    family names the analytic CDF met on [0, 1]; None means the zero function.
    Roots are clipped into [x0, x1]; a segment without one yields x0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (b - a) / (x1 - x0)
        c = a - s * x0  # the line is c + s*x
        if family is None:
            roots = [-c / s]
        elif family == "uniform01":
            roots = [c / (1.0 - s)]
        else:  # beta22: 2x^3 - 3x^2 + s*x + c = 0; x = 1/2 + y gives y^3 + p*y + q = 0
            p, q = s / 2.0 - 0.75, c / 2.0 + s / 4.0 - 0.25
            disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
            r = np.sqrt(-p / 3.0)
            theta = np.arccos(np.clip(-q / (2.0 * r**3), -1.0, 1.0))
            u = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(disc), q))  # Cardano, no cancellation
            one = u - np.where(u == 0.0, 0.0, p / (3.0 * u))
            roots = [0.5 + np.where(disc >= 0.0, one, 2.0 * r * np.cos((theta - 2.0 * np.pi * k) / 3.0))
                     for k in range(3)]
    return np.concatenate([np.clip(np.where(np.isfinite(x), x, x0), x0, x1) for x in roots])


def _max_gap(lower: IntegratedDF, upper: IntegratedDF) -> tuple[float, float]:
    """The maximum of phi_lower - phi_upper and a point attaining it."""
    if lower.kind == upper.kind == "analytic" and lower.family == upper.family:
        return 0.0, 0.0
    if lower.kind == upper.kind == "piecewise":
        # on each segment of the merged nodes F_lower - F_upper is linear
        nodes = np.union1d(lower.breakpoints, upper.breakpoints)
        x0, x1 = nodes[:-1], nodes[1:]
        mid = (x0 + x1) / 2.0
        d0 = lower.right_derivative(x0) - upper.right_derivative(x0)
        dm = lower.right_derivative(mid) - upper.right_derivative(mid)
        x = np.concatenate([nodes, _crossings(x0, x1, d0, 2.0 * dm - d0, None)])
        gap = lower.evaluate(x) - upper.evaluate(x)
        i = int(np.argmax(gap))
        return float(gap[i]), float(x[i])
    # One side is analytic.  Walk the node arrays of the side with a linear
    # CDF (a piecewise IDF, or uniform01 against beta22) against the other
    # side's CDF, which is a polynomial on [0, 1]; no merged grid is built.
    if lower.kind == "piecewise" or (upper.kind == "analytic" and lower.family == "uniform01"):
        line, other, sign = lower, upper, 1.0
    else:
        line, other, sign = upper, lower, -1.0
    if line.kind == "piecewise":
        bx, f, phi = line._node_arrays()
    else:
        bx, f, phi = np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 0.5])
    gap = sign * (phi - other.evaluate(bx))
    i = int(np.argmax(gap))
    best = float(gap[i]), float(bx[i])
    keep = bx[1:] > bx[:-1]
    if sign > 0 and other.family == "uniform01":
        # F_lower - x is linear on a segment inside [0, 1], >= 0 left of 0 and
        # <= 0 right of 1, so it can only fall through 0 where it goes from
        # >= 0 at one node to <= 0 at the next
        d = f - np.clip(bx, 0.0, 1.0)
        keep &= (d[:-1] >= 0.0) & (d[1:] <= 0.0)
    j = np.flatnonzero(keep)
    x = np.concatenate([_crossings(bx[j], bx[j + 1], f[j], f[j + 1], other.family), [0.0, 1.0]])
    gap = sign * (line.evaluate(x) - other.evaluate(x))
    i = int(np.argmax(gap))
    return max(best, (float(gap[i]), float(x[i])))


def dominates_cx(lower: IntegratedDF, upper: IntegratedDF,
                 tol: float | None = None) -> DominanceResult:
    """Does the law of `lower` precede that of `upper` in the convex order?

    Exact rule: the gap phi_lower - phi_upper has derivative
    F_lower - F_upper, and between consecutive nodes both CDFs are
    polynomials (linear for piecewise IDFs and uniform01, cubic for beta22).
    So the gap peaks at a node of either side or where the two CDFs cross,
    and each crossing is a closed-form root.  The gap is evaluated at all of
    those points; its maximum is the exact supremum up to float rounding,
    and the witness is the point attaining it.  Dominance holds when that
    maximum and the mean gap are both within tol.  Default tol is 1e-9 for
    exact inputs and 3*n^(-1/2) when either side is an empirical IDF built
    from n samples.
    """
    if tol is None:
        tol = _default_tol(lower, upper)
    if lower._nodes is None and upper.family == "uniform01":  # the empirical check
        (max_violation, witness), lower_mean = _sample_gap_vs_uniform(lower._sample)
    else:
        max_violation, witness = _max_gap(lower, upper)
        lower_mean = lower.mean()
    mean_gap = abs(lower_mean - upper.mean())
    if max_violation > tol:
        return DominanceResult(False, max_violation, witness, tol)
    if mean_gap > tol:
        hi = max(lower.support[1], upper.support[1])
        return DominanceResult(False, mean_gap, hi, tol)
    return DominanceResult(True, max(0.0, max_violation), None, tol)  # 0.0 wins a tie with -0.0
