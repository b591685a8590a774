"""The concrete sub-uniform family: sampling, CDFs, IDFs, certification."""

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subuniform import (EmpiricalSample, RngStream, SubUniformDist, as_p2alpha,
                        continuous_part_ks, discretize, dominates_cx, IntegratedDF,
                        ks_distance, p2alpha, synthesize_ppp, uniform_idf)
from _oracles import ks_statistic, step_cdf_gap_whole_array

BUILTINS = [SubUniformDist("uniform01"), SubUniformDist("beta22"),
            p2alpha(0.05), p2alpha(0.1), p2alpha(0.25), p2alpha(0.4)]


# ------------------------------------------------------------------ construction

def test_p2alpha_quarter():
    d = p2alpha(0.25)
    assert d.atoms == ((0.25, 0.5),)
    assert len(d.pieces) == 1
    lo, hi, mass = d.pieces[0]
    assert (lo, hi, mass) == (0.5, 1.0, 0.5)


def test_p2alpha_boundary_half():
    # alpha = 1/2 degenerates to a point mass at the mean
    d = p2alpha(0.5)
    assert d.atoms == ((0.5, 1.0),)
    assert sum(m for _lo, _hi, m in d.pieces) == 0.0


def test_p2alpha_mean():
    assert p2alpha(0.1).mean() == pytest.approx(0.5, abs=1e-12)
    assert p2alpha(0.37).mean() == pytest.approx(0.5, abs=1e-12)


def test_p2alpha_domain():
    for bad in (0.0, -0.1, 0.6, 1.0):
        with pytest.raises(ValueError):
            p2alpha(bad)


def test_as_p2alpha_recognizes_family():
    assert as_p2alpha(p2alpha(0.2)) == pytest.approx(0.2)
    assert as_p2alpha(SubUniformDist("uniform01")) is None
    assert as_p2alpha(SubUniformDist("beta22")) is None


def test_as_p2alpha_recognizes_the_point_mass():
    # p2alpha(0.5) has no uniform piece: the atom at 1/2 carries all the mass
    point = p2alpha(0.5)
    assert (point.atoms, point.pieces) == (((0.5, 1.0),), ())
    assert as_p2alpha(point) == 0.5


# ------------------------------------------------------------------ cdf

def test_cdf_values():
    assert p2alpha(0.25).cdf(0.25) == pytest.approx(0.5)          # atom mass included
    assert SubUniformDist("beta22").cdf(0.5) == pytest.approx(0.5)  # 3x^2 - 2x^3
    assert SubUniformDist("uniform01").cdf(0.3) == pytest.approx(0.3)


def test_cdf_right_continuous_at_atom():
    d = p2alpha(0.1)
    assert d.cdf(0.1 - 1e-9) == pytest.approx(0.0, abs=1e-8)
    assert d.cdf(0.1) == pytest.approx(0.2)
    assert d.cdf(1.0) == 1.0
    assert d.cdf(-0.5) == 0.0


# ------------------------------------------------------------------ sampling

def test_sample_atom_lands_exactly():
    samp = p2alpha(0.1).sample(RngStream(seed=11).generator(), 1_000_000)
    exact = np.mean(samp.values == 0.1)  # inverse-CDF returns the location verbatim
    assert exact == pytest.approx(0.2, abs=0.002)


def test_sample_out_of_order_mixture_is_its_quantile_of_the_uniforms():
    # components listed against location order still draw Q(u), sorted
    dist = SubUniformDist("mixture", atoms=((0.7, 0.2), (0.3, 0.2)),
                          pieces=((0.5, 1.0, 0.3), (0.0, 0.5, 0.3)))
    n = 40_000  # more than one piece of the walk
    u = RngStream(seed=17).generator().random(n)
    assert np.array_equal(dist.sample(RngStream(seed=17), n).values,
                          np.sort(dist.idf().quantile(u)))


def test_sample_uniform_ks():
    samp = SubUniformDist("uniform01").sample(RngStream(seed=12).generator(), 1_000_000)
    assert ks_distance(SubUniformDist("uniform01"), samp) <= 0.002


def test_sample_beta22_moments():
    samp = SubUniformDist("beta22").sample(RngStream(seed=13).generator(), 1_000_000)
    assert samp.mean() == pytest.approx(0.5, abs=0.001)
    assert samp.variance() == pytest.approx(0.05, abs=0.001)  # Beta(2,2) variance 1/20
    assert ks_distance(SubUniformDist("beta22"), samp) <= 0.002


# ------------------------------------------------------------------ idf

def test_idf_endpoint_values():
    assert SubUniformDist("uniform01").idf().evaluate(1.0) == pytest.approx(0.5, abs=1e-12)
    assert SubUniformDist("beta22").idf().evaluate(1.0) == pytest.approx(0.5, abs=1e-12)
    assert p2alpha(0.25).idf().evaluate(1.0) == pytest.approx(0.5, abs=1e-12)


def _idf_nodes_by_loop(dist: SubUniformDist) -> tuple[np.ndarray, np.ndarray]:
    """A mixture's IDF nodes, one event at a time: the left limit of the CDF
    at each atom and piece end, and its value where it jumps, capped at 1."""
    bx, fv = [], []
    for e in sorted({loc for loc, _ in dist.atoms}
                    | {e for lo, hi, _ in dist.pieces for e in (lo, hi)}):
        right = float(dist.cdf(e))
        left = min(right - sum(mass for loc, mass in dist.atoms if loc == e), 1.0)
        bx.append(e)
        fv.append(left)
        if min(right, 1.0) > left:
            bx.append(e)
            fv.append(min(right, 1.0))
    fv[-1] = 1.0
    return np.array(bx), np.array(fv)


def test_idf_nodes_match_the_event_loop():
    gen = np.random.default_rng(18)
    dists = [p2alpha(a) for a in (0.05, 0.1, 0.25, 0.5)]
    for _ in range(200):  # random mixtures, with atoms at piece ends and masses over 1
        ends = np.sort(gen.choice(np.round(0.9 * gen.random(6), 2), 4))
        w = gen.random(4)
        w /= w.sum() * (1.0 - gen.choice([0.0, 5e-10]))
        atoms = tuple((float(e), float(m)) for e, m in zip(ends[:2], w[:2]))
        pieces = tuple((float(lo), float(lo) + 0.1, float(m)) for lo, m in zip(ends[2:], w[2:]))
        dists.append(SubUniformDist("mixture", atoms, pieces))
    for dist in dists:
        idf, (bx, fv) = dist.idf(), _idf_nodes_by_loop(dist)
        assert np.array_equal(idf.breakpoints, bx) and np.array_equal(idf.cdf, fv), dist


def test_idf_beta22_closed_form():
    phi = SubUniformDist("beta22").idf()
    for x in np.linspace(0.0, 1.0, 17):
        assert phi.evaluate(float(x)) == pytest.approx(x ** 3 - x ** 4 / 2.0, abs=1e-12)


# ------------------------------------------------------------------ certification

def test_is_sub_uniform_family():
    assert p2alpha(0.2).is_sub_uniform().holds
    assert SubUniformDist("beta22").is_sub_uniform().holds
    assert SubUniformDist("uniform01").is_sub_uniform().holds


def test_is_sub_uniform_rejects_off_mean_mass():
    res = SubUniformDist("mixture", atoms=((0.9, 1.0),), pieces=()).is_sub_uniform()
    assert not res.holds


def test_mass_overshoot_within_tolerance_still_builds_an_idf():
    # masses may sum to 1 within 1e-9; the running CDF is capped at 1, which
    # the IDF constructor allows only 1e-12 above
    overshoot = SubUniformDist("mixture", atoms=((0.2, 0.5), (0.5, 0.5 + 5e-10), (0.9, 1e-10)))
    assert overshoot.idf().cdf.max() == 1.0
    assert IntegratedDF.from_atoms(*zip(*overshoot.atoms)).cdf.max() == 1.0
    res = overshoot.is_sub_uniform()  # mean 0.35: phi(1) = 0.65 > 1/2
    assert not res.holds and res.witness == 1.0
    centred = SubUniformDist("mixture", atoms=((0.25, 0.5), (0.75, 0.5 + 5e-10), (0.9, 1e-10)))
    assert centred.is_sub_uniform().holds


def test_every_builtin_certifies_and_sample_behaves():
    for i, dist in enumerate(BUILTINS):
        assert dist.is_sub_uniform().holds, dist
        samp = dist.sample(RngStream(seed=100 + i).generator(), 1_000_000)
        n = samp.n
        assert samp.mean() == pytest.approx(0.5, abs=3.0 * 0.3 / np.sqrt(n))
        # convex order forces Var <= Var(U) = 1/12
        assert samp.variance() <= 1.0 / 12.0 + 3.0 * 0.1 / np.sqrt(n)
        emp = IntegratedDF.from_samples(samp)
        grid = np.linspace(0.0, 1.0, 1025)
        assert np.max(emp.evaluate(grid) - grid ** 2 / 2.0) <= 0.003
        # 2-alpha tail rule
        for a in (0.01, 0.05, 0.1, 0.25):
            assert samp.tail_prob(a) <= 2.0 * a + 0.003
        # E[-ln P] and Var[-ln P] are both below the uniform's value 1
        logs = -np.log(samp.values)
        assert logs.mean() <= 1.0 + 0.01
        assert logs.var() <= 1.0 + 0.02


# ------------------------------------------------------------------ sample diagnostics

def test_atom_frequency_and_continuous_ks():
    dist = p2alpha(0.1)
    samp = dist.sample(RngStream(seed=21).generator(), 400_000)
    assert samp.atom_frequency(0.1) == pytest.approx(0.2, abs=0.003)
    ks = continuous_part_ks(dist, samp)
    assert ks <= 0.004
    # the continuous part is uniform on [0.2, 1]: the textbook KS of the
    # off-atom values against that CDF is the same number
    off = EmpiricalSample(samp.values[samp.values != 0.1])
    assert ks == pytest.approx(ks_statistic(off, lambda x: np.clip((x - 0.2) / 0.8, 0.0, 1.0)),
                               abs=1e-12)
    assert continuous_part_ks(SubUniformDist("beta22"), samp) == ks_distance(
        SubUniformDist("beta22"), samp)
    with pytest.raises(ValueError, match="no continuous part"):
        continuous_part_ks(p2alpha(0.5), samp)


def test_continuous_part_ks_drops_each_atom_window():
    # the values with abs(v - loc) <= 1e-9 for some atom are dropped, also
    # where two atoms' windows overlap and at the windows' edge doubles
    gen = np.random.default_rng(9)
    edges = [y for loc in (0.3, 0.5, 0.5 + 1.5e-9) for x in (loc - 1e-9, loc + 1e-9)
             for y in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0))]
    vals = np.sort(np.concatenate([edges, 0.5 + gen.integers(-4, 8, 300) * 5e-10, gen.random(500)]))
    dist = SubUniformDist("mixture", atoms=((0.5 + 1.5e-9, 0.2), (0.3, 0.1), (0.5, 0.2)),
                          pieces=((0.0, 1.0, 0.5),))
    off = np.all([np.abs(vals - loc) > 1e-9 for loc, _ in dist.atoms], axis=0)
    assert continuous_part_ks(dist, EmpiricalSample(vals)) == ks_distance(
        SubUniformDist("uniform01"), EmpiricalSample(vals[off]))


def test_ks_distance_single_point():
    e = EmpiricalSample([0.5])
    assert ks_distance(SubUniformDist("uniform01"), e) == pytest.approx(0.5)
    assert ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(0.5)


def test_ks_distance_two_points():
    e = EmpiricalSample([0.25, 0.75])
    assert ks_distance(SubUniformDist("uniform01"), e) == pytest.approx(0.25)
    assert ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0)) == pytest.approx(0.25)


def test_ks_distance_matches_the_textbook_form_at_scale():
    # for a continuous law the two forms agree; Kolmogorov: the sup-distance
    # is ~ 1.63/sqrt(n) at the 99th percentile
    gen = RngStream(seed=77).generator()
    e = EmpiricalSample(gen.random(1_000_000))
    ks = ks_distance(SubUniformDist("uniform01"), e)
    assert ks == pytest.approx(ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0)), abs=1e-12)
    assert ks <= 0.002


def test_ks_distance_exact_atoms():
    dist = p2alpha(0.1)
    samp = dist.sample(RngStream(seed=22).generator(), 400_000)
    assert ks_distance(dist, samp) <= 0.004


def test_ks_distance_snaps_float_jitter():
    # simulators produce atom values a few ulp off; they must not read as missing mass
    dist = p2alpha(0.25)
    gen = RngStream(seed=23).generator()
    vals = dist.sample(gen, 200_000).values.copy()
    at = vals == 0.25
    vals[at] = 0.25 + 1e-13
    assert ks_distance(dist, EmpiricalSample(vals)) <= 0.01
    vals[at] = 0.25 + 1e-4  # outside the snapping window: half the atom gap shows
    assert ks_distance(dist, EmpiricalSample(vals)) >= 0.2


_KS_DISTS = [
    SubUniformDist("uniform01"), SubUniformDist("beta22"), p2alpha(0.1), p2alpha(0.5),
    # atoms closer than 2 * atom_window: snapping can reorder the sample
    SubUniformDist("mixture", atoms=((0.5, 0.5), (0.5 + 1e-9, 0.5))),
    SubUniformDist("mixture", atoms=((0.5 + 1.5e-9, 0.25), (0.5, 0.25)), pieces=((0.0, 1.0, 0.5),)),
    SubUniformDist("mixture", atoms=((0.7, 0.2), (0.3, 0.2)), pieces=((0.0, 1.0, 0.6),)),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(_KS_DISTS))),
       st.sampled_from([1, 2, 7, 1000, 2 * 65536 + 17]), st.integers(0, 2))
def test_ks_distance_equals_whole_array_gap(seed, which, n, kind):
    dist = _KS_DISTS[which]
    gen = np.random.default_rng(seed)
    vals = dist.sample(gen, n).values
    if kind == 1:  # atoms reached through float arithmetic, a few windows wide
        vals = vals + gen.integers(-3, 4, n) * 4e-10
    elif kind == 2:  # ties on a lattice, and values around 0.5
        vals = np.where(gen.random(n) < 0.5, 0.5 + gen.uniform(-2e-9, 3e-9, n),
                        np.floor(gen.random(n) * 8.0) / 8.0)
    samp = EmpiricalSample(vals)
    assert ks_distance(dist, samp) == step_cdf_gap_whole_array(dist, samp.values,
                                                               lambda k: k / samp.n)


def test_discretization_ks_equals_whole_array_gap():
    for target in (SubUniformDist("beta22"),
                   SubUniformDist("mixture", atoms=((0.3, 0.2), (0.7, 0.2)),
                                  pieces=((0.0, 1.0, 0.6),))):
        values, masses = discretize(target, 256)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        assert (synthesize_ppp(target).meta["discretization_ks"]
                == step_cdf_gap_whole_array(target, values, lambda k: cum[k]))


# ------------------------------------------------------------------ discretize

def test_discretize_preserves_mean_and_order():
    # the wide atom at 0.43498916387718006 spans ~222 of 256 cells; merging
    # them one by one used to drift off the atom and split it in two
    for dist, n_cells in ((SubUniformDist("beta22"), 64), (p2alpha(0.1), 64),
                          (p2alpha(0.43498916387718006), 256)):
        values, masses = discretize(dist, n_cells)
        assert len(values) <= n_cells
        if dist.atoms:
            assert values[0] == pytest.approx(dist.atoms[0][0], abs=1e-15)
        assert np.sum(masses) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(values, masses) == pytest.approx(0.5, abs=1e-9)
        # conditional-mean coarsening sits below the original in convex order
        disc = IntegratedDF.from_atoms(values, masses)
        assert dominates_cx(disc, dist.idf(), tol=1e-9).holds
        assert dominates_cx(disc, uniform_idf(), tol=1e-9).holds


def test_discretize_cells_are_quantile_integrals():
    levels = np.linspace(0.0, 1.0, 257)
    values, masses = discretize(SubUniformDist("uniform01"), 256)
    assert np.array_equal(values, (levels[:-1] + levels[1:]) / 2.0)
    assert np.array_equal(masses, np.full(256, 1.0 / 256))
    # Beta(2,2): each cell's mean is the integral of the quantile over its
    # levels, over its mass; the oracle integrates the quantile at 60 digits
    values, masses = discretize(SubUniformDist("beta22"), 256)
    with mp.workdps(60):
        def integral(u):  # u*Q(u) - phi(Q(u)), with phi(x) = x^3 - x^4/2
            q = mp.mpf(0.5) + mp.sin(mp.asin(2 * u - 1) / 3)
            return u * q - q**3 + q**4 / 2
        g = [integral(mp.mpf(float(u))) for u in levels]
        means = [(g[k + 1] - g[k]) * 256 for k in range(256)]
        err = max(abs(mp.mpf(float(v)) - m) for v, m in zip(values, means))
    assert err <= 1e-13
    # mixtures: the same identity, against the exact rational integral of
    # their piecewise-linear quantile over each cell
    for dist in (p2alpha(0.1),
                 SubUniformDist("mixture", atoms=((0.3, 0.2), (0.7, 0.2)),
                                pieces=((0.0, 1.0, 0.6),)),
                 # atoms at the piece ends, and a gap between the pieces
                 SubUniformDist("mixture", atoms=((0.4, 0.2), (0.6, 0.2)),
                                pieces=((0.2, 0.4, 0.3), (0.6, 0.8, 0.3))),
                 # overlapping pieces, listed out of location order, and an atom
                 SubUniformDist("mixture", atoms=((0.45, 0.2),),
                                pieces=((0.5, 1.0, 0.3), (0.0, 0.6, 0.5)))):
        values, _masses = discretize(dist, 256)
        means = _exact_cell_means(dist, levels)
        assert len(values) == len(means)
        assert max(abs(Fraction(float(v)) - m) for v, m in zip(values, means)) <= 1e-13


def _exact_cell_means(dist: SubUniformDist, levels: np.ndarray) -> list[Fraction]:
    """The mean of each quantile cell of a mixture, in rationals: the integral
    of the piecewise-linear quantile over the cell's levels, over its mass.
    Runs of cells whose means lie within 1e-15 (the cells inside one atom)
    are merged into their mass-weighted mean, as discretize merges them."""
    atoms = [(Fraction(a), Fraction(m)) for a, m in dist.atoms]
    pieces = [(Fraction(lo), Fraction(hi), Fraction(m)) for lo, hi, m in dist.pieces]

    def cdf(x):
        return (sum(m for a, m in atoms if a <= x)
                + sum(m * min(max((x - lo) / (hi - lo), 0), 1) for lo, hi, m in pieces))

    nodes = []  # (x, F) at the left limit and at the value of each event
    for e in sorted({a for a, _ in atoms} | {e for lo, hi, _ in pieces for e in (lo, hi)}):
        nodes += [(e, cdf(e) - sum(m for a, m in atoms if a == e)), (e, cdf(e))]

    def integral(u):  # of Q over levels [0, u]
        total = Fraction(0)
        for (x0, f0), (x1, f1) in zip(nodes[:-1], nodes[1:]):
            if f1 > f0 and u > f0:
                top = min(u, f1)
                total += (top - f0) * (x0 + (x0 + (top - f0) / (f1 - f0) * (x1 - x0))) / 2
        return total

    lv = [Fraction(float(u)) for u in levels]
    g = [integral(u) for u in lv]
    cells = [((g[k + 1] - g[k]) / (lv[k + 1] - lv[k]), lv[k + 1] - lv[k])
             for k in range(len(lv) - 1)]
    groups = []  # (last mean, mass-weighted sum, mass) of each run
    for mean, mass in cells:
        if groups and mean - groups[-1][0] <= Fraction(1e-15):
            _last, total, weight = groups.pop()
            groups.append((mean, total + mean * mass, weight + mass))
        else:
            groups.append((mean, mean * mass, mass))
    return [total / weight for _last, total, weight in groups]


# ------------------------------------------------------------------ serialization

def test_json_round_trip():
    for dist in BUILTINS:
        back = SubUniformDist.from_json(dist.to_json())
        assert back == dist
        doc = json.loads(dist.to_json())
        assert doc["variant"] == dist.variant


def test_from_json_keeps_the_constructor_domain_errors():
    # a field that parses but is out of the family's domain is the
    # constructor's error, not a malformed field
    with pytest.raises(ValueError, match=r"p2alpha requires alpha in \(0, 0.5\]"):
        SubUniformDist.from_json('{"variant": "p2alpha", "alpha": 0.7}')
    with pytest.raises(ValueError, match="mixture masses must sum to 1"):
        SubUniformDist.from_json('{"variant": "mixture", "atoms": [[0.5, 0.5]]}')
