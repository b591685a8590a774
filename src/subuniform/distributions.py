"""Sub-uniform distributions on [0,1].

A law P on [0,1] is sub-uniform when it precedes the uniform law in the
convex order: equal mean 1/2 and integrated distribution function below
x^2/2.  These are exactly the laws that a posterior predictive p-value can
have, so this family is the reference object for every calibration check in
the package.

Built-in variants:

* uniform01 - the uniform law itself;
* beta22    - Beta(2,2), a smooth strictly sub-uniform example;
* mixture   - point masses plus uniform pieces; covers the extremal family
  p2alpha(a) = (point mass at a with probability 2a) + (uniform on [2a,1]
  with probability 1-2a), which maximizes P(P <= a) among sub-uniform laws.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .idf import _ANALYTIC_FAMILIES, DominanceResult, IntegratedDF, dominates_cx, uniform_idf
from .numerics import (_ATOM_TOL, _BINS, EmpiricalSample, _as_generator, _BinSummary,
                       _inverse_draws, _run_blocks, _snap_edges, _snap_window, _sorted_unique)


@contextmanager
def _json_field(name: str, doc: str = "model"):
    """Report a missing key, a wrongly typed value or a bad value read under
    name, in a JSON document of kind doc, as a ValueError that names it."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {doc} JSON field {name}: {exc!r}") from exc


@dataclass(frozen=True)
class SubUniformDist:
    """A candidate sub-uniform law on [0,1].

    atoms:  ((location, mass), ...) point masses.
    pieces: ((lo, hi, mass), ...) uniform components on [lo, hi].
    Analytic variants carry empty atoms/pieces; their CDF, mean, quantile
    and IDF come from the idf module.
    """

    variant: str
    atoms: tuple[tuple[float, float], ...] = field(default=())
    pieces: tuple[tuple[float, float, float], ...] = field(default=())

    def __post_init__(self):
        if self.variant in _ANALYTIC_FAMILIES:
            if self.atoms or self.pieces:
                raise ValueError(f"{self.variant} takes no atoms or pieces")
            return
        if self.variant != "mixture":
            raise ValueError(f"unknown distribution variant {self.variant!r}")
        total = 0.0
        for loc, mass in self.atoms:
            if not (0.0 <= loc <= 1.0):
                raise ValueError(f"atom location {loc!r} outside [0,1]")
            if not mass > 0.0:
                raise ValueError(f"atom mass {mass!r} must be positive")
            total += mass
        for lo, hi, mass in self.pieces:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"uniform piece ({lo!r}, {hi!r}) must satisfy 0 <= lo < hi <= 1")
            if not mass > 0.0:
                raise ValueError(f"piece mass {mass!r} must be positive")
            total += mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture masses must sum to 1, got {total!r}")
        if not (self.atoms or self.pieces):
            raise ValueError("mixture needs at least one component")

    # ---------------------------------------------------------------- queries

    def cdf(self, x) -> np.ndarray | float:
        if self.variant != "mixture":
            return self.idf().right_derivative(x)
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        out = np.zeros_like(xq)
        for loc, mass in self.atoms:
            out += mass * (xq >= loc)
        for lo, hi, mass in self.pieces:
            out += mass * np.clip((xq - lo) / (hi - lo), 0.0, 1.0)
        return float(out[0]) if scalar else out

    def mean(self) -> float:
        if self.variant != "mixture":
            return self.idf().mean()
        m = sum(mass * loc for loc, mass in self.atoms)
        m += sum(mass * (lo + hi) / 2.0 for lo, hi, mass in self.pieces)
        return float(m)

    def sample(self, rng, n: int) -> EmpiricalSample:
        """n inverse-CDF draws, idf().quantile of uniforms.  Atom draws return
        the atom location verbatim, so equality tests against atom locations
        are exact."""
        g = _as_generator(rng)
        if n <= 0:
            raise ValueError("n must be positive")
        return EmpiricalSample(_inverse_draws(g, n, self.idf().quantile), _owned=True)

    def idf(self) -> IntegratedDF:
        if self.variant != "mixture":
            return IntegratedDF.analytic(self.variant)
        # a node at each atom and piece end (the CDF is linear between them)
        # at its left limit, and one more where it jumps; capped at 1 as in
        # IntegratedDF.from_atoms
        events = _sorted_unique(np.array([loc for loc, _ in self.atoms]
                                         + [e for lo, hi, _ in self.pieces for e in (lo, hi)],
                                         dtype=float))
        right, left = (np.minimum(c, 1.0) for c in _cdf_limits(self, events))
        keep = np.stack([np.ones_like(events, dtype=bool), right > left], axis=1).ravel()
        fv = np.stack([left, right], axis=1).ravel()[keep]
        fv[-1] = 1.0
        return IntegratedDF.piecewise(np.repeat(events, 2)[keep], fv)

    def is_sub_uniform(self) -> DominanceResult:
        """Convex-order check against the uniform law (tol 1e-9), with witness."""
        return dominates_cx(self.idf(), uniform_idf())

    # ---------------------------------------------------------------- serde

    def to_payload(self) -> dict:
        if self.variant == "mixture":
            return {
                "variant": "mixture",
                "atoms": [[float(a), float(m)] for a, m in self.atoms],
                "pieces": [[float(lo), float(hi), float(m)] for lo, hi, m in self.pieces],
            }
        return {"variant": self.variant}

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_payload(cls, payload) -> "SubUniformDist":
        """The law a decoded JSON object describes; ValueError if it is malformed."""
        if not isinstance(payload, dict) or "variant" not in payload:
            raise ValueError("distribution JSON must be an object with a 'variant' key")
        variant = payload["variant"]
        if variant in _ANALYTIC_FAMILIES:
            return cls(variant)
        doc = f"{variant!r} distribution"
        if variant == "p2alpha":  # accepted shorthand
            with _json_field("alpha", doc):
                alpha = float(payload["alpha"])
            return p2alpha(alpha)
        if variant == "mixture":
            with _json_field("atoms", doc):
                atoms = tuple((float(a), float(m)) for a, m in payload.get("atoms", []))
            with _json_field("pieces", doc):
                pieces = tuple((float(lo), float(hi), float(m))
                               for lo, hi, m in payload.get("pieces", []))
            return cls("mixture", atoms, pieces)
        raise ValueError(f"unknown distribution variant {variant!r}")

    @classmethod
    def from_json(cls, text: str) -> "SubUniformDist":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed distribution JSON: {exc}") from exc
        return cls.from_payload(payload)


def p2alpha(alpha: float) -> SubUniformDist:
    """The extremal sub-uniform law: atom at alpha with mass 2*alpha plus a
    uniform remainder on [2*alpha, 1].

    Its CDF at alpha is 2*alpha, which attains the worst-case bound
    P(P <= alpha) <= 2*alpha; at alpha = 1/2 it degenerates to a point mass.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"p2alpha requires alpha in (0, 0.5], got {alpha!r}")
    if alpha == 0.5:
        return SubUniformDist("mixture", atoms=((0.5, 1.0),))
    return SubUniformDist("mixture",
                          atoms=((alpha, 2.0 * alpha),),
                          pieces=((2.0 * alpha, 1.0, 1.0 - 2.0 * alpha),))


def as_p2alpha(dist: SubUniformDist) -> float | None:
    """Return alpha if dist is structurally p2alpha(alpha), else None."""
    if dist.variant != "mixture":
        return None
    if len(dist.atoms) == 1 and not dist.pieces:
        loc, mass = dist.atoms[0]
        return 0.5 if (loc == 0.5 and mass == 1.0) else None
    if len(dist.atoms) == 1 and len(dist.pieces) == 1:
        (loc, mass), (lo, hi, pmass) = dist.atoms[0], dist.pieces[0]
        ok = (abs(mass - 2.0 * loc) < 1e-12 and abs(lo - 2.0 * loc) < 1e-12
              and hi == 1.0 and abs(pmass - (1.0 - 2.0 * loc)) < 1e-12)
        return loc if ok else None
    return None


# ------------------------------------------------------------------ sample-vs-law fit

def ks_distance(dist: SubUniformDist, samp: EmpiricalSample) -> float:
    """Exact sup distance between the empirical CDF and dist's CDF.

    Unlike the continuous-only KS formula this takes left limits at atoms, so
    laws with point masses are compared correctly.  Sample values within
    _ATOM_TOL of an atom are snapped onto it first: simulators that reach an
    atom through float arithmetic land a few ulp off, and without snapping the
    sup distance would report the whole atom mass as missing.
    """
    return _step_cdf_gap(dist, samp.values, lambda k: k / samp.n)


def _step_cdf_gap(dist: SubUniformDist, locs: np.ndarray,
                  level: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact sup_x |E(x) - F(x)| for the step CDF E(x) = level(number of locs
    <= x) of the sorted locs and dist's CDF F.  level must not decrease.

    Locs within _ATOM_TOL of an atom are snapped onto it, atom by atom in
    dist's order.  Atoms more than 2 * _ATOM_TOL apart snap disjoint windows
    of locs (numerics._snap_window) and keep them sorted, so no copy is made:
    the runs inside a window are skipped, and the window is taken at its atom
    with the other points.  Closer atoms can move a value on from one window
    to the next, so then a copy is snapped, and each window is the values
    equal to its atom.

    Between consecutive locs, atoms and piece ends, E is constant and F
    monotone, so the sup is attained in the left or right limits at those
    points.  At a run of equal locs from index i to j (exclusive) those
    limits of E are level(i) and level(j).  A run outside every window lies
    on no atom, so F is continuous there.  The runs are walked one piece of
    locs at a time, in O(_WALK) extra memory.
    """
    atoms = [loc for loc, _ in dist.atoms]
    if np.any(np.diff(np.sort(atoms)) <= 2.0 * _ATOM_TOL):
        locs = locs.copy()
        for loc in atoms:
            lo, hi = _snap_window(locs, loc)
            locs[lo:hi] = loc  # the copy stays sorted
        windows = {(int(np.searchsorted(locs, loc, side="left")),
                    int(np.searchsorted(locs, loc, side="right")), loc) for loc in atoms}
    else:
        windows = [(*_snap_window(locs, loc), loc) for loc in atoms]
    windows = sorted(windows)
    bounds = np.array([w[:2] for w in windows], dtype=np.intp).ravel()
    d = 0.0
    for run in _run_blocks(locs):
        d = max(d, _runs_gap(dist, level, bounds, *run))
    points = _sorted_unique(np.concatenate([
        np.array(atoms, dtype=float),
        np.array([e for lo, hi, _ in dist.pieces for e in (lo, hi)], dtype=float),
        np.array([0.0, 1.0]),
    ]))
    # the snapped locs <= each point, and < it: the locs of a window count up
    # to its hi or lo, by the side of the point its atom is on, wherever the
    # point falls in the window; at an atom these are the window's bounds
    for side, f in zip(("right", "left"), _cdf_limits(dist, points)):
        k = np.searchsorted(locs, points, side=side)
        n = k + sum(np.where(np.searchsorted([loc], points, side=side), hi, lo) - np.clip(k, lo, hi)
                    for lo, hi, loc in windows)
        d = max(d, float(np.max(np.abs(level(n) - f))))
    return d


def _binned_ks(dist: SubUniformDist, summary: _BinSummary) -> tuple[float, float]:
    """ks_distance(dist, sample), bracketed from the bins of summary: an
    attained lower end and an upper end.  summary must count the snap window
    of each atom of dist, and the atoms lie more than 2 * _ATOM_TOL apart.

    The points are the bin edges and the atoms, less the edges inside an
    atom's window, taken one block of edges at a time
    (_BinSummary.edge_blocks).  At a point p the snapped empirical CDF E has
    the exact left limit E(p-): the count below the edge, or below the window,
    over n; at an atom E(p) is exact too.  |E - F| at those limits is
    attained, and the largest is the lower end.  On [p, q) between two points
    F has no atom and both E and F rise, so there
    |E - F| <= max(E(q-) - F(p), F(q-) - E(p)), with E(p) taken as E(p-) at
    an edge; the largest of these is the upper end.  Each is within F(q-) - F(p) of a limit taken at p or q, so the two
    ends differ by at most the mass F puts on one bin outside its atoms
    (widened by an atom's window where it holds an edge).
    """
    atoms = sorted(loc for loc, _ in dist.atoms)
    if np.any(np.diff(atoms) <= 2.0 * _ATOM_TOL):
        raise ValueError("atoms closer than 2 * _ATOM_TOL share snap windows")
    windows = [_snap_edges(loc) for loc in atoms]
    lower = upper = 0.0
    last = None  # E and F at the last point of the block before
    for edges, below, _, _ in summary.edge_blocks():
        keep = np.ones(edges.size, dtype=bool)
        for lo, hi in windows:
            keep &= (edges < lo) | (edges > hi)
        start, stop = edges[0], edges[-1] + 1.0 / _BINS
        mine = [loc for loc in atoms if start <= loc < stop]
        counts = np.array([summary.windows[loc] for loc in mine], dtype=float).reshape(-1, 2)
        at = np.searchsorted(edges[keep], mine)
        points = np.insert(edges[keep], at, mine)
        left = np.insert(below[keep], at, counts[:, 0]) / summary.n  # E(p-)
        right = np.insert(below[keep], at, counts[:, 1]) / summary.n  # E(p), or E(p-) at an edge
        f, f_left = _cdf_limits(dist, points)
        atom = np.isin(points, mine)
        lower = max(lower, float(np.max(np.abs(left - f_left))),
                    float(np.max(np.abs(right - f)[atom], initial=0.0)))
        if last is not None:
            upper = max(upper, left[0] - last[1], f_left[0] - last[0])
        between = np.maximum(left[1:] - f[:-1], f_left[1:] - right[:-1])
        upper = max(upper, float(np.max(between, initial=0.0)))
        last = right[-1], f[-1]
    return lower, max(lower, upper)


def _runs_gap(dist: SubUniformDist, level: Callable[[np.ndarray], np.ndarray], bounds: np.ndarray,
              starts: np.ndarray, ends: np.ndarray, vals: np.ndarray) -> float:
    """_step_cdf_gap's sup over one piece's runs (starts, ends, vals) outside
    the windows, whose index bounds are lo, hi, lo, hi, ...  Only the scalar
    outlives the call."""
    d = 0.0
    cut = np.searchsorted(starts, bounds, side="left")
    for a, b in zip([0, *cut[1::2]], [*cut[0::2], starts.size]):
        if b > a:
            f = np.asarray(dist.cdf(vals[a:b]), dtype=float)
            # E at each run's start, then at each end: a run starts where the
            # one before it ends.  As E(start) <= E(end), the larger of
            # |E(end) - F| and |E(start) - F| is the larger of E(end) - F and
            # F - E(start)
            e = level(np.concatenate([starts[a:a + 1], ends[a:b]]))
            gap = np.subtract(e[1:], f)
            above = np.max(gap)
            np.subtract(f, e[:-1], out=gap)
            d = max(d, float(above), float(np.max(gap)))
    return d


def _cdf_limits(dist: SubUniformDist, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dist's CDF at x and its left limits there."""
    f = np.atleast_1d(np.asarray(dist.cdf(x), dtype=float))
    atom_mass = np.zeros_like(f)
    for loc, mass in dist.atoms:
        atom_mass[x == loc] += mass
    return f, f - atom_mass


def continuous_part_ks(dist: SubUniformDist, samp: EmpiricalSample) -> float:
    """ks_distance of the sample values farther than _ATOM_TOL from every atom
    against dist's continuous part: its uniform pieces, their masses divided by
    their sum (an analytic law is its own continuous part)."""
    if dist.variant != "mixture":
        return ks_distance(dist, samp)
    if not dist.pieces:
        raise ValueError("distribution has no continuous part")
    keep, start = [], 0
    for lo, hi in sorted(_snap_window(samp.values, loc) for loc, _ in dist.atoms):
        keep.append(samp.values[start:lo])  # empty where windows overlap
        start = max(start, hi)
    keep.append(samp.values[start:])
    values = np.concatenate(keep)
    if not values.size:
        raise ValueError("sample has no values outside the atoms")
    total = sum(m for _, _, m in dist.pieces)
    part = SubUniformDist("mixture", pieces=tuple((lo, hi, m / total) for lo, hi, m in dist.pieces))
    return ks_distance(part, EmpiricalSample(values, _owned=True))


# ------------------------------------------------------------------ discretization

def discretize(dist: SubUniformDist, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapse dist to at most n_cells atoms by conditional means over
    equal-mass quantile cells.

    A cell's mean is the integral of the quantile Q over its levels, divided
    by its mass, and that integral is closed form for every law:
    int_0^u Q = u*Q(u) - phi(Q(u)).  A cell on which Q is constant (inside
    an atom) has that value as its mean.  Replacing cell mass by a point at
    its conditional mean is a convex-order reduction, so the result stays
    sub-uniform and keeps the exact mean.  Returns (values, masses) with
    strictly increasing values.
    """
    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    levels = np.linspace(0.0, 1.0, n_cells + 1)
    idf = dist.idf()
    q = idf.quantile(levels)
    masses = np.diff(levels)
    vals = np.where(q[1:] == q[:-1], q[:-1], np.diff(levels * q - idf.evaluate(q)) / masses)
    # merge cells that collapsed onto the same point (atoms spanning cells);
    # each group's mean is taken once, from sums, and kept inside the group's
    # own range, so the merged values stay strictly increasing
    starts = np.flatnonzero(np.concatenate([[True], np.diff(vals) > 1e-15]))
    masses_out = np.add.reduceat(masses, starts)
    vals_out = np.clip(np.add.reduceat(vals * masses, starts) / masses_out,
                       np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts))
    return vals_out, masses_out / masses_out.sum()
