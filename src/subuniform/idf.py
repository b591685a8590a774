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

* analytic families, the uniform law and Beta(2,2) (closed-form phi, CDF
  and quantile; every formula of these two laws lives here);
* piecewise CDFs: node arrays (breakpoints, cdf) where the CDF interpolates
  linearly between nodes and a repeated breakpoint encodes a jump (point
  mass).  phi is then piecewise quadratic (linear across constant-CDF spans)
  and is integrated exactly.  The constructor rejects a CDF that leaves
  [0, 1] or decreases, so every piecewise IDF is one.

Between consecutive nodes every CDF here is a polynomial (linear for
piecewise IDFs and uniform01, cubic for beta22), so the convex-order check is
exact: the gap of two IDFs peaks at a node or where their CDFs cross, each
crossing has a closed form, and float rounding is the only error.  Against
an analytic law the check loops over the other side's nodes a block at a
time (_gap_walk): an empirical IDF's come from _node_blocks, one block per
piece of numerics._WALK sample values, and other nodes form one block.  So
an empirical IDF from n samples is checked against either analytic law, on
either side, in O(_WALK) memory beyond its sorted sample.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .numerics import _BINS, EmpiricalSample, _BinSummary, _run_blocks, _sorted_unique

_ANALYTIC_FAMILIES = ("uniform01", "beta22")


class DominanceResult(NamedTuple):
    """Outcome of a convex-order dominance check, with a witness on failure."""

    holds: bool
    max_violation: float
    witness: float | None
    tol: float

    def __bool__(self) -> bool:
        return self.holds


class IntegratedDF:
    """An integrated distribution function in analytic or piecewise form.

    An empirical IDF (from_samples) keeps its sorted sample and builds its node
    arrays only when a caller asks for them: mean() and dominates_cx against
    either analytic law, on either side, walk the sample's runs of equal
    values piece by piece instead.
    """

    __slots__ = ("kind", "family", "sample_size", "_nodes", "_sample")

    def __init__(self, *, kind: str, family: str | None = None,
                 breakpoints: np.ndarray | None = None,
                 cdf: np.ndarray | None = None):
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
            # the CDF must lie in [0, 1] and not decrease (phi convex), to within 1e-12
            bad = np.flatnonzero((cdf < -1e-12) | (cdf > 1.0 + 1e-12))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"not an IDF (derivative-range): CDF value {float(cdf[i])!r} outside "
                                 f"[0,1] at breakpoint index {i}, x = {float(breakpoints[i])!r}")
            dec = np.flatnonzero(cdf[1:] - cdf[:-1] < -1e-12)
            if dec.size:
                i = int(dec[0]) + 1
                raise ValueError(f"not an IDF (convexity): CDF decreases at breakpoint index {i}, "
                                 f"x = {float(breakpoints[i])!r} (phi not convex there)")
            nodes = (breakpoints, cdf, _node_integrals(breakpoints, cdf))
        else:
            raise ValueError(f"unknown IDF kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "sample_size", None)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_sample", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntegratedDF is immutable")

    # ---------------------------------------------------------------- builders

    @classmethod
    def analytic(cls, family: str) -> "IntegratedDF":
        return cls(kind="analytic", family=family)

    @classmethod
    def piecewise(cls, breakpoints, cdf) -> "IntegratedDF":
        return cls(kind="piecewise", breakpoints=breakpoints, cdf=cdf)

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
        # capped: masses summing to 1 + 1e-9 would put the running CDF above 1
        cum = np.minimum(np.cumsum(masses), 1.0)
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

    def _at(self, x, which: int) -> np.ndarray | float:
        """phi (which = 0) or the right-continuous CDF (which = 1) at x; vectorized."""
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if self.kind == "analytic":
            out = (_analytic_phi, _analytic_cdf)[which](self.family, xq)
        else:
            bx, f, phi = self._node_arrays()
            out = _eval_nodes((bx, f, f[1:], phi), xq)[which]
        return float(out[0]) if scalar else out

    def evaluate(self, x) -> np.ndarray | float:
        """phi(x); vectorized."""
        return self._at(x, 0)

    def right_derivative(self, x) -> np.ndarray | float:
        """The right derivative of phi, i.e. the right-continuous CDF."""
        return self._at(x, 1)

    def quantile(self, u) -> np.ndarray | float:
        """The right-continuous inverse CDF Q(u) = inf{x : F(x) > u} at levels
        u in [0, 1), vectorized, and the right end of the support at u = 1: a
        level on a flat of F maps to the flat's right end.  On a piecewise IDF,
        u is interpolated linearly from the last node with F <= u; a jump
        returns its location, so an atom comes back verbatim."""
        uq = np.asarray(u, dtype=float)
        scalar = uq.ndim == 0
        uq = np.atleast_1d(uq)
        if self.kind == "analytic":
            out = _analytic_quantile(self.family, uq)
        else:
            x, f, _ = self._node_arrays()
            j = np.clip(np.searchsorted(f, uq, side="right") - 1, 0, f.size - 2)
            df = f[j + 1] - f[j]
            t = np.divide(uq - f[j], df, out=np.zeros_like(uq), where=df > 0.0)
            out = x[j] + t * (x[j + 1] - x[j])
        return float(out[0]) if scalar else out

    def mean(self) -> float:
        """E(X), recovered from x - phi(x) at the right end of the support."""
        if self.kind == "analytic":
            return 0.5  # both built-in families have mean 1/2
        if self._nodes is not None:
            return _tail_mean(*self._nodes)
        for x, f, _, phi in _node_blocks(self._sample):
            pass  # the last block's nodes hold the right end
        return _tail_mean(x, f, phi)


def _node_integrals(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    seg = np.diff(x) * (f[:-1] + f[1:]) / 2.0  # exact for a linear CDF
    return np.concatenate([[0.0], np.cumsum(seg)])


def _node_blocks(sample: EmpiricalSample):
    """The nodes of an empirical IDF, one block per piece of its sorted sample.

    Block k holds the nodes (x, f, f_end, phi) of the distinct values whose
    runs end in piece k (numerics._run_blocks), with the previous block's
    last node in front (for the first block, the node just before the first
    jump): each node, the CDF at it, and phi there, and for each segment the
    CDF at its right end.  The CDF is constant between nodes, so
    f_end = f[:-1].  The floats are those of from_atoms(distinct, counts / n):
    f is the running sum of counts / n capped at 1.0, with its last value set
    to 1.0, and phi the running sum of (x[k+1] - x[k]) * f[k] (the trapezoid
    (f[k] + f[k]) / 2 is f[k] exactly), each carried from block to block.
    """
    n = sample.n
    x_last, f_last, phi_last = sample.values[0], 0.0, 0.0
    for starts, ends, vals in _run_blocks(sample.values):
        x, f, phi = np.empty((3, vals.size + 1))
        x[0], f[0], phi[0] = x_last, f_last, phi_last
        x[1:] = vals
        np.subtract(ends, starts, out=f[1:])  # the counts, exact as floats
        f[1:] /= n
        np.minimum(np.add.accumulate(f, out=f), 1.0, out=f)
        if ends[-1] == n:
            f[-1] = 1.0
        np.subtract(x[1:], x[:-1], out=phi[1:])
        phi[1:] *= f[:-1]
        np.add.accumulate(phi, out=phi)
        x_last, f_last, phi_last = x[-1], f[-1], phi[-1]
        yield x, f, f[:-1], phi


def _eval_nodes(nodes, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi and the right-continuous CDF at the points q, from a block of nodes
    (x, f, f_end, phi): both are 0 left of x[0], and past x[-1] the CDF stays
    f[-1].  On a segment the CDF is linear, so phi grows by the trapezoid."""
    x, f, f_end, phi = nodes
    j = np.searchsorted(x, q, side="right") - 1
    phi_q, f_q = np.zeros_like(q), np.zeros_like(q)
    above = j >= x.size - 1
    mid = (j >= 0) & ~above
    phi_q[above] = phi[-1] + (q[above] - x[-1]) * f[-1]
    f_q[above] = f[-1]
    jm = j[mid]
    x0, f0 = x[jm], f[jm]
    t = q[mid] - x0
    ft = f0 + (f_end[jm] - f0) * t / (x[jm + 1] - x0)
    f_q[mid], phi_q[mid] = ft, phi[jm] + t * (f0 + ft) / 2.0
    return phi_q, f_q


def _tail_mean(x: np.ndarray, f: np.ndarray, phi: np.ndarray) -> float:
    """E(X) = x - phi(x) at the last node, once the CDF there reaches 1."""
    if abs(f[-1] - 1.0) > 1e-9:
        raise ValueError("IDF does not integrate a full distribution (CDF does not reach 1)")
    return float(x[-1] - phi[-1])


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


def _analytic_quantile(family: str, u: np.ndarray) -> np.ndarray:
    """The quantile Q(u) of an analytic law at levels u in [0, 1].

    Beta(2,2)'s Q(u) solves 3x^2 - 2x^3 = u.  With x = 1/2 + sin(theta) that
    is sin(3*theta) = 2u - 1, and written around u = 0 it becomes
    Q(u) = 2*sin(a)*sin(a + pi/3) with a = asin(sqrt(u))/3, which has no
    cancellation for u <= 1/2.  Above 1/2, Q(u) = 1 - Q(1 - u), where 1 - u
    is exact.  (The form 1/2 + sin(asin(2u - 1)/3) rounds 2u - 1 and is off
    by up to 2.6e-9 near u = 0.)
    """
    if family == "uniform01":
        return u
    # in place: besides u, two arrays of its size (one is the result), not five
    a = np.minimum(u, 1.0 - u)
    np.arcsin(np.sqrt(a, out=a), out=a)
    a /= 3.0
    h = a + np.pi / 3.0
    np.sin(h, out=h)
    h *= np.sin(a, out=a)
    h *= 2.0  # h = 2*sin(a)*sin(a + pi/3), the same float
    return np.subtract(1.0, h, out=h, where=u > 0.5)


def uniform_idf() -> IntegratedDF:
    """IDF of the uniform law on [0,1]: phi(x) = x^2/2."""
    return IntegratedDF.analytic("uniform01")


def beta22_idf() -> IntegratedDF:
    """IDF of Beta(2,2): phi(x) = x^3 - x^4/2 on [0,1]."""
    return IntegratedDF.analytic("beta22")


def _default_tol(lower: IntegratedDF, upper: IntegratedDF) -> float:
    ns = [s for s in (lower.sample_size, upper.sample_size) if s]
    if ns:
        return _sample_tol(min(ns))
    return 1e-9


def _sample_tol(n: int) -> float:
    """The tolerance of a check on a sample of n values: 3 / sqrt(n)."""
    return 3.0 / np.sqrt(n)


def _crossings(x0, x1, a, b, family: str | None) -> np.ndarray:
    """Where the line through (x0, a) and (x1, b) meets a CDF on [x0, x1].

    family names the analytic CDF met on [0, 1]; None means the zero function.
    Row k holds each segment's k-th root (one row, or three for beta22),
    clipped into [x0, x1]; a segment without one yields x0.
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
    return np.stack([np.clip(np.where(np.isfinite(x), x, x0), x0, x1) for x in roots])


def _max_gap(lower: IntegratedDF, upper: IntegratedDF) -> tuple[float, float, float, float]:
    """The maximum of phi_lower - phi_upper, a point attaining it, and the two means."""
    if lower.kind == upper.kind == "analytic" and lower.family == upper.family:
        return 0.0, 0.0, 0.5, 0.5
    if lower.kind == upper.kind == "piecewise":
        # on each segment of the merged nodes F_lower - F_upper is linear
        nodes = _sorted_unique(np.concatenate([lower.breakpoints, upper.breakpoints]))
        x0, x1 = nodes[:-1], nodes[1:]
        mid = (x0 + x1) / 2.0
        d0 = lower.right_derivative(x0) - upper.right_derivative(x0)
        dm = lower.right_derivative(mid) - upper.right_derivative(mid)
        x = np.concatenate([nodes, _crossings(x0, x1, d0, 2.0 * dm - d0, None)[0]])
        gap = lower.evaluate(x) - upper.evaluate(x)
        i = int(np.argmax(gap))
        return float(gap[i]), float(x[i]), lower.mean(), upper.mean()
    # one side is analytic: walk the nodes of the side with a linear CDF (a
    # piecewise IDF, or uniform01 against beta22) against the other's CDF
    if lower.kind == "piecewise" or (upper.kind == "analytic" and lower.family == "uniform01"):
        line, family, sign = lower, upper.family, 1.0
    else:
        line, family, sign = upper, lower.family, -1.0
    if line._nodes is None:
        blocks = _node_blocks(line._sample)
    else:
        ends = np.array([0.0, 1.0])  # uniform01's nodes
        bx, f, phi = line._nodes if line.kind == "piecewise" else (ends, ends, ends / 2.0)
        blocks = [(bx, f, f[1:], phi)]
    gap, witness, line_mean = _gap_walk(blocks, family, sign)
    return gap, witness, *((line_mean, 0.5) if sign > 0 else (0.5, line_mean))


def _gap_walk(blocks, family: str, sign: float) -> tuple[float, float, float]:
    """(max gap, a point attaining it, mean) of sign * (phi_line - phi_family)
    over the blocks of nodes (x, f, f_end, phi) of a law with a piecewise
    linear CDF, against the analytic law family, whose CDF is a polynomial on
    [0, 1]; no merged grid is built.

    The point is the first where the gap is largest, in walk order: block by
    block, nodes then crossings root by root, then 0 and 1, where phi comes
    from the last block that starts at or left of each.
    """
    best, at0, at1 = (-np.inf, 0.0), None, None
    for block in blocks:
        cand = _block_gap(block, family, sign)
        if cand[0] > best[0]:  # the first of equal gaps stays
            best = cand
        start = block[0][0]
        if start <= 0.0:
            at0 = block
        if start <= 1.0:
            at1 = block
    ends = np.array([0.0, 1.0])
    phi_ends = [0.0 if b is None else _eval_nodes(b, ends)[0][k] for k, b in enumerate((at0, at1))]
    gap = sign * (np.array(phi_ends) - _analytic_phi(family, ends))
    for cand in zip(gap.tolist(), (0.0, 1.0)):
        if cand[0] > best[0]:
            best = cand
    x, f, _, phi = block
    return *best, _tail_mean(x, f, phi)


def _block_gap(block, family: str, sign: float) -> tuple[float, float]:
    """The first maximum of sign * (phi_line - phi_family) over one block's
    nodes, then its crossings root by root, as (gap, point); only these
    scalars outlive the call.  A segment's crossings count where sign *
    (F_line - F_family) falls through 0 between its nodes, exact on a flat of
    F_line and against uniform01, and on every rising segment against beta22,
    which a line can cross twice."""
    x, f, f_end, phi = block
    gap = _analytic_phi(family, x)
    gap = np.subtract(phi, gap, out=gap)
    if sign < 0:
        np.negative(gap, out=gap)  # sign * gap, the same floats
    i = int(np.argmax(gap))
    best = float(gap[i]), float(x[i])
    x0, x1, a = x[:-1], x[1:], f[:-1]
    cdf = _analytic_cdf(family, x)
    line, law = (a, f_end), (cdf[:-1], cdf[1:])
    (p0, p1), (q0, q1) = (line, law) if sign > 0 else (law, line)
    keep = p0 >= q0
    keep &= p1 <= q1
    if family == "beta22":
        keep |= f_end > a
    keep &= x1 > x0
    j = np.flatnonzero(keep)
    if j.size:
        xc = _crossings(x0[j], x1[j], a[j], f_end[j], family)
        gap = sign * (_eval_nodes(block, xc)[0] - _analytic_phi(family, xc))
        i = int(np.argmax(gap))  # over the rows in turn: root by root
        if gap.flat[i] > best[0]:
            best = float(gap.flat[i]), float(xc.flat[i])
    return best


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
    return _verdict(_max_gap(lower, upper), max(lower.support[1], upper.support[1]), tol)


def _verdict(gap: tuple[float, float, float, float], hi: float, tol: float) -> DominanceResult:
    """dominates_cx's result from a _max_gap result; hi is the right end of
    the two supports, the witness of a mean gap."""
    max_violation, witness, lower_mean, upper_mean = gap
    mean_gap = abs(lower_mean - upper_mean)
    if max_violation > tol:
        return DominanceResult(False, max_violation, witness, tol)
    if mean_gap > tol:
        return DominanceResult(False, mean_gap, hi, tol)
    return DominanceResult(True, max(0.0, max_violation), None, tol)  # 0.0 wins a tie with -0.0


def _spread_blocks(summary: _BinSummary):
    """The nodes (x, f, f_end, phi) of the spread law of summary's bins, one
    block of edges at a time (_BinSummary.edge_blocks), in the form of
    _node_blocks.

    The spread law takes each bin's values to the bin's two edges, keeping
    the bin's mass and mean: an atom law on the edges, and every edge is a
    node, one without mass too.  The CDF at an edge is (N + c - t) / n, with N
    the count of the values below it and c and t the count and the summed
    offsets of the bin that starts there, so no running sum of masses rounds.
    phi at edge k is 2**-16 / n times the sum over the bins j < k of
    N_j + c_j - t_j.  The sum of the integers N_j + c_j is exact in floats
    while (_BINS + 2) * n < 2**53, so only the running sum of the offsets
    rounds, not a running sum of phi's increments.  Both sums are carried
    from block to block.
    """
    x_last = f_last = phi_last = 0.0
    ints = offs = 0.0  # the two sums over the bins before the block
    for edges, below, counts, shifts in summary.edge_blocks():
        x, f, phi, run = (np.empty(edges.size + 1) for _ in range(4))
        x[0], f[0], phi[0] = x_last, f_last, phi_last
        x[1:] = edges
        np.add(below, counts, out=f[1:])
        run[0], run[1:] = ints, f[1:]
        np.add.accumulate(run, out=run)
        ints, phi[1:] = run[-1], run[:-1]
        run[0], run[1:] = offs, shifts
        np.add.accumulate(run, out=run)
        offs = run[-1]
        phi[1:] -= run[:-1]
        phi[1:] *= 1.0 / _BINS
        phi[1:] /= summary.n
        f[1:] -= shifts
        f[1:] /= summary.n
        x_last, f_last, phi_last = x[-1], f[-1], phi[-1]
        yield x, f, f[:-1], phi


def _binned_sub_uniformity(summary: _BinSummary) -> tuple[DominanceResult, float]:
    """dominates_cx(sample, uniform_idf()) at the sample's tolerance,
    bracketed from the bins of summary: the check of the spread law
    (_spread_blocks), and a lower end of the violation it reports.

    Spreading a bin's values over the bin is a mean-preserving spread, so the
    spread law is above the sample in the convex order, and when it passes,
    the sample's law does too.  No mass crosses an edge, so its phi equals
    the sample's at every edge, and on a bin it is the chord.  There x^2/2
    falls below its own chord by at most h^2/8 (h = 2**-16, 2.9e-11), so the
    spread law's largest gap phi - x^2/2 is at most that above the largest
    at the edges, where the gap is the sample's.  That edge maximum, at least
    the gap 0 at x = 0, is the lower end.  When the check fails on the mean
    gap alone, both laws have the sample's mean, and the mean gap is both
    ends.
    """
    edge_maxima = []

    def blocks():  # the spread law's blocks, each block's edge maximum taken as it goes by
        for block in _spread_blocks(summary):
            x, _, _, phi = block
            edge_maxima.append(float(np.max(phi - _analytic_phi("uniform01", x))))
            yield block

    gap = _gap_walk(blocks(), "uniform01", 1.0)
    res = _verdict((*gap, 0.5), 1.0 + 1.0 / _BINS, _sample_tol(summary.n))
    return res, res.max_violation if gap[0] <= res.tol < res.max_violation else max(edge_maxima)
