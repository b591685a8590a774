"""Oracles shared by the tests."""

import numpy as np


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between an EmpiricalSample and a
    continuous CDF, in the textbook form: the max over order statistics v_(i)
    of max(i/n - F(v_i), F(v_i) - (i-1)/n).  The package's ks_distance takes
    a SubUniformDist; this takes any vectorized CDF (row laws, G laws)."""
    v = sample.values
    n = sample.n
    f = np.asarray(cdf(v), dtype=float)
    assert f.shape == v.shape, "cdf must evaluate elementwise on the sample"
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n), 0.0))


# ------------------------------------------------------------------ the sample walks, as they were
#
# The step-CDF gap and the empirical node walk before they became per-piece
# accumulators: snapping by a copy of each piece (or of the whole sample), and
# every walk finding its own runs, in pieces of walk values
# (default: the package's _WALK).  The package's walks must give their floats
# bit for bit.

def run_blocks(values, snap=None, walk=None):
    """The runs of equal values of a sorted array, one piece of values at a
    time: (starts, ends, vals), after snap maps each piece."""
    from subuniform.numerics import _WALK

    walk = walk or _WALK
    n = values.size
    start = 0
    for lo in range(0, n, walk):
        hi = min(lo + walk, n)
        v = values[lo:hi + 1]
        if snap is not None:
            v = snap(v)
        ends = lo + 1 + np.flatnonzero(v[1:] != v[:-1])
        if hi == n:
            ends = np.append(ends, n)
        if ends.size:
            starts = np.concatenate([[start], ends[:-1]])
            start = int(ends[-1])
            yield starts, ends, v[ends - 1 - lo]


def step_cdf_gap(dist, locs, level, walk=None):
    """sup_x |E(x) - F(x)| for the step CDF E(x) = level(number of locs <= x),
    with locs within _ATOM_TOL of an atom of dist snapped onto it."""
    from subuniform.distributions import _cdf_limits
    from subuniform.numerics import _ATOM_TOL, _sorted_unique

    atoms = np.array([loc for loc, _ in dist.atoms], dtype=float)
    snap = None
    if atoms.size:
        def snap(v):
            v = v.copy()
            for loc, _ in dist.atoms:
                v[np.abs(v - loc) <= _ATOM_TOL] = loc
            return v
        if np.any(np.diff(np.sort(atoms)) <= 2.0 * _ATOM_TOL):
            locs, snap = np.sort(snap(locs)), None
    points = _sorted_unique(np.concatenate([
        atoms,
        np.array([e for lo, hi, _ in dist.pieces for e in (lo, hi)], dtype=float),
        np.array([0.0, 1.0]),
    ]))
    n_le = np.zeros(points.size, dtype=np.intp)
    n_lt = np.zeros(points.size, dtype=np.intp)
    d = 0.0
    for starts, ends, vals in run_blocks(locs, snap, walk):
        f, f_left = _cdf_limits(dist, vals)
        d = max(d, float(np.max(np.abs(level(ends) - f))),
                float(np.max(np.abs(level(starts) - f_left))))
        for counts, side in ((n_le, "right"), (n_lt, "left")):
            k = np.searchsorted(vals, points, side=side)
            np.maximum(counts, np.where(k > 0, ends[k - 1], 0), out=counts)
    f, f_left = _cdf_limits(dist, points)
    return max(d, float(np.max(np.maximum(np.abs(level(n_le) - f), np.abs(level(n_lt) - f_left)))))


def node_blocks(sample, walk=None):
    """The nodes (x, f, f_end, phi) of the empirical IDF of an EmpiricalSample,
    one block per piece of its runs, each block led by the one before's last
    node."""
    n = sample.n
    x_last, f_last, phi_last = sample.values[0], 0.0, 0.0
    for starts, ends, vals in run_blocks(sample.values, walk=walk):
        x = np.concatenate([[x_last], vals])
        f = np.minimum(np.cumsum(np.concatenate([[f_last], (ends - starts) / n])), 1.0)
        if ends[-1] == n:
            f[-1] = 1.0
        phi = np.cumsum(np.concatenate([[phi_last], np.diff(x) * (f[:-1] + f[:-1]) / 2.0]))
        x_last, f_last, phi_last = x[-1], f[-1], phi[-1]
        yield x, f, f[:-1], phi


def max_gap(sample, family, sign, walk=None):
    """(max gap, witness, mean of the sample) of sign * (phi_sample -
    phi_family) over node_blocks(sample), against the analytic law family."""
    from subuniform.idf import _analytic_phi, _crossings, _eval_nodes, _tail_mean

    ends = np.array([0.0, 1.0])
    best, cross, phi_ends = (-np.inf, 0.0), [(-np.inf, 0.0)] * 3, np.zeros(2)
    for block in node_blocks(sample, walk):
        x, f, f_end, phi = block
        gap = sign * (phi - _analytic_phi(family, x))
        i = int(np.argmax(gap))
        if gap[i] > best[0]:
            best = float(gap[i]), float(x[i])
        x0, x1, a = x[:-1], x[1:], f[:-1]
        keep = x1 > x0
        if sign > 0 and family == "uniform01":
            xu = np.clip(x, 0.0, 1.0)
            keep &= (a >= xu[:-1]) & (f_end <= xu[1:])
        j = np.flatnonzero(keep)
        if j.size:
            xc = _crossings(x0[j], x1[j], a[j], f_end[j], family)
            gap = sign * (_eval_nodes(block, xc)[0] - _analytic_phi(family, xc))
            for k, row in enumerate(gap):
                i = int(np.argmax(row))
                if row[i] > cross[k][0]:
                    cross[k] = float(row[i]), float(xc[k, i])
        inside = (x[0] <= ends) & (ends <= x[-1])
        if inside.any():
            phi_ends = np.where(inside, _eval_nodes(block, ends)[0], phi_ends)
    phi_ends = np.where(ends > x[-1], _eval_nodes(block, ends)[0], phi_ends)
    gap = sign * (phi_ends - _analytic_phi(family, ends))
    cross = max([*cross, (float(gap[0]), 0.0), (float(gap[1]), 1.0)], key=lambda c: c[0])
    return (*max(best, cross), _tail_mean(x, f, phi))
