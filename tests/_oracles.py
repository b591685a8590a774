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


def step_cdf_gap_whole_array(dist, locs, level, atom_window=1e-9):
    """The whole-array form of the exact step-CDF gap sup_x |E(x) - F(x)|, with
    E(x) = level(number of locs <= x): snap, re-sort, merge every candidate
    point, and take both limits at each."""
    if dist.atoms:
        locs = locs.copy()
        for loc, _ in dist.atoms:
            locs[np.abs(locs - loc) <= atom_window] = loc
        locs = np.sort(locs)
    cand = np.unique(np.concatenate([
        locs,
        np.array([loc for loc, _ in dist.atoms], dtype=float),
        np.array([e for lo, hi, _ in dist.pieces for e in (lo, hi)], dtype=float),
        np.array([0.0, 1.0]),
    ]))
    f = np.atleast_1d(np.asarray(dist.cdf(cand), dtype=float))
    atom_mass = np.zeros_like(f)
    for loc, mass in dist.atoms:
        atom_mass[cand == loc] += mass
    e_right = level(np.searchsorted(locs, cand, side="right"))
    e_left = level(np.searchsorted(locs, cand, side="left"))
    return float(np.max(np.maximum(np.abs(e_right - f), np.abs(e_left - (f - atom_mass)))))


# ------------------------------------------------------------------ the node walk, plainly
#
# The empirical node walk with each block built by concatenation from the
# runs of one piece of walk values (default: the package's _WALK), found
# here.  The package's walk must give its floats bit for bit.

def run_blocks(values, walk=None):
    """The runs of equal values of a sorted array, one piece of values at a
    time: (starts, ends, vals)."""
    from subuniform.numerics import _WALK

    walk = walk or _WALK
    n = values.size
    start = 0
    for lo in range(0, n, walk):
        hi = min(lo + walk, n)
        v = values[lo:hi + 1]
        ends = lo + 1 + np.flatnonzero(v[1:] != v[:-1])
        if hi == n:
            ends = np.append(ends, n)
        if ends.size:
            starts = np.concatenate([[start], ends[:-1]])
            start = int(ends[-1])
            yield starts, ends, v[ends - 1 - lo]


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
    phi_family) over node_blocks(sample), against the analytic law family:
    one argmax over every candidate in walk order, block by block its nodes
    and then the crossings of the segments the crossing rule keeps, root by
    root, then 0 and 1, with phi there from the whole node arrays."""
    from subuniform.idf import _analytic_cdf, _analytic_phi, _crossings, _eval_nodes, _tail_mean

    points, gaps, nodes = [], [], []
    for block in node_blocks(sample, walk):
        x, f, f_end, phi = block
        # each block after the first starts with the last node of the one before
        nodes.append(np.stack([x, f, phi])[:, 1 if nodes else 0:])
        cdf = _analytic_cdf(family, x)
        falls = (sign * (f[:-1] - cdf[:-1]) >= 0) & (sign * (f_end - cdf[1:]) <= 0)
        rises = (family == "beta22") & (f_end > f[:-1])
        j = np.flatnonzero((x[1:] > x[:-1]) & (falls | rises))
        xc = _crossings(x[:-1][j], x[1:][j], f[:-1][j], f_end[j], family).ravel()
        points += [x, xc]
        gaps += [sign * (phi - _analytic_phi(family, x)),
                 sign * (_eval_nodes(block, xc)[0] - _analytic_phi(family, xc))]
    x, f, phi = np.concatenate(nodes, axis=1)
    ends = np.array([0.0, 1.0])
    points.append(ends)
    gaps.append(sign * (_eval_nodes((x, f, f[:-1], phi), ends)[0] - _analytic_phi(family, ends)))
    gaps, points = np.concatenate(gaps), np.concatenate(points)
    i = int(np.argmax(gaps))
    return float(gaps[i]), float(points[i]), _tail_mean(x, f, phi)


def max_gap_every_segment(line, family, sign):
    """The maximum of sign * (phi_line - phi_family) for a piecewise IDF line
    against the analytic law family, over every node, 0 and 1, and the
    crossings of every segment: no segment is left out."""
    from subuniform.idf import _analytic_phi, _crossings

    x, f = line.breakpoints, line.cdf
    xc = _crossings(x[:-1], x[1:], f[:-1], f[1:], family)
    points = np.concatenate([x, xc.ravel(), [0.0, 1.0]])
    return float(np.max(sign * (line.evaluate(points) - _analytic_phi(family, points))))


# ------------------------------------------------------------------ the exact sub-uniformity gap

def exact_max_gap_uniform(values):
    """sup over x of phi_n(x) - x^2/2 for the sample values in [0, 1], in
    exact rational arithmetic: every double is a Fraction.  The sup is at 0,
    at a distinct value, or where the empirical CDF F crosses x: on the
    segment from one distinct value to the next (to 1 after the last), the
    gap is concave with slope F - x, so its maximum there is at x = F clipped
    into the segment.  Past 1 the gap stays at its value at 1."""
    from fractions import Fraction

    vals, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    n = int(counts.sum())
    best, below, total = Fraction(0), 0, Fraction(0)  # count and sum of values < x
    ends = [*vals.tolist()[1:], 1.0]
    for v, c, end in zip(vals.tolist(), counts.tolist(), ends):
        v, end = Fraction(v), Fraction(max(end, v))
        best = max(best, (v * below - total) / n - v * v / 2)
        below, total = below + c, total + c * v
        x = min(max(Fraction(below, n), v), end)
        best = max(best, (x * below - total) / n - x * x / 2)
    return best


def exact_phi(values, points):
    """phi_n(x), the mean of (x - v)+ over the sample values v, at each of the
    ascending points x, in exact rational arithmetic (Fractions)."""
    from fractions import Fraction

    vals = sorted(map(Fraction, np.asarray(values, dtype=float).tolist()))
    out, below, total = [], 0, Fraction(0)  # count and sum of values < x
    for x in map(Fraction, np.asarray(points, dtype=float).tolist()):
        while below < len(vals) and vals[below] < x:
            total += vals[below]
            below += 1
        out.append((x * below - total) / len(vals))
    return out


# ------------------------------------------------------------------ the lasso model's kernels
#
# lasso_model's distance and posterior as first written: the or-mask with
# theta on every call but a scalar theta of 1, and np.sum over the support.
# The package's kernels must give their floats bit for bit.

def lasso_distance(alpha):
    """The lasso model's distance(x, theta): the travelled distance."""
    c = 1.0 - 2.0 * alpha

    def distance(x, theta):
        x = np.asarray(x, dtype=float)
        if np.ndim(theta) == 0 and theta == 1:
            return x.copy()
        return np.where((x <= c) | (np.asarray(theta) == 1), x, 2.0 - 2.0 * alpha - x)

    return distance


def lasso_posterior(alpha, g):
    """The lasso model's posterior(x) over theta in (0, 1) for travel law g."""
    distance = lasso_distance(alpha)

    def posterior(x):
        x = np.asarray(x, dtype=float)
        w = np.empty((2, *x.shape))
        for th in (0, 1):
            w[th] = g.density(distance(x, th))
        w[w < 0] = 0.0
        w /= np.sum(w, axis=0)
        return w

    return posterior


# ------------------------------------------------------------------ the port model's gathers
#
# port_model's sample_data and conditional_sf as first written, every gather
# a fancy index: each threshold row at theta, and q_table at (theta, pi).
# The package's must give their ports and floats bit for bit.

def port_gathers(pmfs):
    """port_model's (sample_data, conditional_sf) for pmfs, by fancy indexing."""
    h = np.asarray(pmfs, dtype=float)
    n_ports = h.shape[1]
    q_table = np.array([[row[row <= row[j]].sum() for j in range(n_ports)] for row in h])
    cum = np.cumsum(h.T, axis=0)[:-1]

    def sample_data(theta, gen):
        theta = np.asarray(theta, dtype=int)
        u = gen.random(theta.size)
        port = np.zeros(theta.size, dtype=np.min_scalar_type(n_ports - 1))
        for row in cum:
            port += u >= row[theta]
        return port

    def conditional_sf(theta, pi):
        return q_table[np.asarray(theta, dtype=int), np.asarray(pi, dtype=int)]

    return sample_data, conditional_sf
