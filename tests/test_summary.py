"""A frequency run's bin summary against the sorted sample it replaces: the
tail and window counts bit for bit, the spread law's phi at the bin edges,
and the brackets of the convex-order check and of the KS distance around
the walks over the sorted sample (idf.dominates_cx and ks_distance)."""

import math

import numpy as np
import pytest

from _oracles import exact_max_gap_uniform, exact_phi
from subuniform import (EmpiricalSample, IntegratedDF, RngStream, SubUniformDist, dominates_cx,
                        ks_distance, lasso_model, p2alpha, uniform_idf)
from subuniform.distributions import _binned_ks
from subuniform.idf import _binned_sub_uniformity, _spread_blocks
from subuniform.models import _BLOCK, _fold, _model_blocks
from subuniform.numerics import _ATOM_TOL, _BINS, _BinSummary, _snap_window
from test_walks import _SAMPLES

_TAILS = (0.01, 0.05, 0.1, 0.25)
_H = 1.0 / _BINS
# laws whose atoms lie more than 2 * _ATOM_TOL apart, as _binned_ks needs
_DISTS = (p2alpha(0.1), p2alpha(0.25), SubUniformDist("uniform01"), SubUniformDist("beta22"),
          SubUniformDist("mixture", atoms=((0.7, 0.2), (0.3, 0.2)), pieces=((0.0, 1.0, 0.6),)),
          SubUniformDist("mixture", atoms=((2.0**-16, 0.5),), pieces=((0.5, 1.0, 0.5),)))
_LOCATIONS = (*_TAILS, *{loc for dist in _DISTS for loc, _ in dist.atoms})


def _rounding(n: int) -> float:
    """A bound on the rounding of phi, on [0, 1 + 2**-16], in the walk over
    the sorted sample: its phi is a running sum of at most n non-negative
    terms, and such a sum of k terms is off by at most (k - 1) * u times its
    value (Higham 2002, 4.2), u = 2**-53, here below 2.  The spread law's
    phi is within _ULPS of the exact value, so this bounds both."""
    return n * 2.0**-52 + _ULPS


# A bound on the rounding of the spread law's phi at an edge, h / n times
# the sum of the integers N_j + c_j less the running sum T of the offsets
# t_j: the integers sum exactly, T over at most _BINS + 2 bins is off by at
# most (_BINS + 2) * u * T <= (_BINS + 2) * u * n, which h / n scales to
# about u, and the subtraction and the two scalings add 3 * u * phi, with
# phi <= 1 + h.  So 5 * u, and 8 * u = 2**-50 leaves room for the few ulps
# a crossing of the walk adds.
_ULPS = 2.0**-50


def _fold_blocks(values, block=_BLOCK, locations=_LOCATIONS):
    summary = _BinSummary(locations)
    for lo in range(0, values.size, block):
        summary.add(values[lo:lo + block])
    return summary


def _lattice(m, seed):
    gen = np.random.default_rng(seed)
    return gen.integers(0, m + 1, 3000) / m  # an estimate p_hat = k / M


def _bin_edges():
    # values on the bin edges j / 2**16 and one double either side, with 0 and 1
    j = np.random.default_rng(11).integers(0, _BINS + 1, 400) / _BINS
    return np.concatenate([j, np.nextafter(j, -1.0), np.nextafter(j, 2.0), [0.0, 1.0]]).clip(0.0, 1.0)


def _atoms(seed):
    gen = np.random.default_rng(seed)
    locs = gen.random(int(gen.integers(1, 12)))
    return np.repeat(locs, gen.integers(1, 400, locs.size))


_LAWS = {
    **{name: make for name, make in _SAMPLES.items() if name != "not_sub_uniform"},
    **{f"atoms{seed}": (lambda seed=seed: _atoms(seed)) for seed in range(6)},
    **{f"lattice{m}": (lambda m=m: _lattice(m, m)) for m in (1, 2, 3, 8, 16, 64)},
    "bin_edges": _bin_edges,
    "zeros_and_ones": lambda: np.array([0.0] * 5 + [1.0] * 7),
    "zero": lambda: np.array([0.0]),
    "one": lambda: np.array([1.0]),
    "first_edge": lambda: np.array([_H]),
    "above_one": lambda: np.concatenate([np.random.default_rng(12).random(999), [1.0 + 2**-52]]),
    "straddling": lambda: np.random.default_rng(13).random(_BLOCK + 17),
    "lasso": lambda: lasso_model(0.1).draw_pvalues(RngStream(14).generator(), 3 * _BLOCK + 5),
}


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_tail_and_window_counts_are_the_sample_s(name):
    values = _LAWS[name]()
    samp, summary = EmpiricalSample(values), _fold_blocks(values)
    assert summary.n == samp.n
    for loc in _LOCATIONS:
        assert summary.windows[loc] == _snap_window(samp.values, loc)
    for a in _TAILS:  # bit for bit
        assert summary.tail_prob(a).hex() == samp.tail_prob(a).hex()
    assert summary.mean() == pytest.approx(samp.mean(), rel=1e-14, abs=1e-300)
    assert summary.variance() == pytest.approx(samp.variance(), rel=1e-12, abs=1e-30)


def _edge_nodes(summary):
    """The spread law's edges, CDF and phi, without each block's copy of the
    node before it."""
    x, f, phi = (np.concatenate(parts) for parts in
                 zip(*((x[1:], f[1:], phi[1:]) for x, f, _, phi in _spread_blocks(summary))))
    return x, f, phi


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_spread_law_has_the_sample_s_phi_at_every_edge(name):
    values = _LAWS[name]()
    samp, summary = EmpiricalSample(values), _fold_blocks(values)
    x, f, phi = _edge_nodes(summary)
    assert np.array_equal(x, np.arange(_BINS + 2) / _BINS)
    assert f[-1] == 1.0 and np.all(np.diff(f) >= 0.0)
    want = IntegratedDF.from_samples(samp).evaluate(x)
    assert np.max(np.abs(phi - want)) <= _rounding(samp.n)
    # the same law as the atom list on the edges, built the plain way
    masses = np.diff(np.concatenate([[0.0], f]))
    spread = IntegratedDF.from_atoms(x[masses > 0], masses[masses > 0])
    assert np.max(np.abs(spread.evaluate(x) - phi)) <= _rounding(samp.n)
    assert spread.mean() == pytest.approx(samp.mean(), abs=_rounding(samp.n))
    if samp.n <= 5000:  # and against the exact phi, at every 31st edge and the last
        k = np.r_[0:_BINS + 2:31, _BINS + 1]
        exact = np.array([float(e) for e in exact_phi(samp.values, x[k])])
        assert np.max(np.abs(phi[k] - exact)) <= _ULPS


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_sub_uniformity_bracket_holds_the_walk_s_value(name):
    values = _LAWS[name]()
    samp, summary = EmpiricalSample(values), _fold_blocks(values)
    res, lower = _binned_sub_uniformity(summary)
    want = dominates_cx(IntegratedDF.from_samples(samp), uniform_idf())
    assert res.tol == want.tol and res.holds == want.holds
    slack = _rounding(samp.n)
    assert 0.0 <= lower <= res.max_violation
    assert lower - slack <= want.max_violation <= res.max_violation + slack
    # the width: h^2/8 on the gap (2.9e-11), none on the mean gap
    assert res.max_violation - lower <= _H * _H / 8 + slack
    if samp.n <= 5000 and samp.values[-1] <= 1.0:
        exact = max(0.0, float(exact_max_gap_uniform(samp.values)))
        if exact <= res.tol < res.max_violation:  # the check fails on the mean gap
            assert lower == res.max_violation
        else:
            assert lower - _ULPS <= exact <= res.max_violation + _ULPS


def test_sub_uniformity_bracket_of_a_mean_gap_is_the_mean_gap():
    # phi below x^2/2 everywhere, and a mean of 0.9: the check fails on the
    # mean, and the mean gap is both ends
    values = np.random.default_rng(15).uniform(0.8, 1.0, 4000)
    res, lower = _binned_sub_uniformity(_fold_blocks(values))
    want = dominates_cx(IntegratedDF.from_samples(values), uniform_idf())
    assert not res.holds and not want.holds and lower == res.max_violation
    assert res.max_violation == pytest.approx(want.max_violation, abs=_rounding(values.size))


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_ks_bracket_holds_ks_distance(name):
    values = _LAWS[name]()
    samp, summary = EmpiricalSample(values), _fold_blocks(values)
    edges = np.arange(_BINS + 2) / _BINS
    for dist in _DISTS:
        lower, upper = _binned_ks(dist, summary)
        want = ks_distance(dist, samp)
        assert lower - 4e-16 <= want <= upper + 4e-16, dist
        # the width: the mass the law's continuous part puts on one bin
        f = np.asarray(dist.cdf(edges), dtype=float)
        atoms = sum(m * ((edges[:-1] < loc) & (loc <= edges[1:])) for loc, m in dist.atoms)
        assert upper - lower <= float(np.max(np.diff(f) - atoms)) + 4e-16, dist


def test_ks_bracket_needs_disjoint_windows():
    summary = _fold_blocks(np.array([0.5]), locations=(0.5, 0.5 + 1e-9))
    close = SubUniformDist("mixture", atoms=((0.5, 0.5), (0.5 + 1e-9, 0.5)))
    with pytest.raises(ValueError, match="share snap windows"):
        _binned_ks(close, summary)


def test_block_partition_does_not_move_a_count_or_a_bracket_end_far():
    values = _LAWS["straddling"]()
    one, other = _fold_blocks(values), _fold_blocks(values, block=1000)
    assert np.array_equal(one.counts, other.counts) and one.windows == other.windows
    assert np.max(np.abs(one.shifts - other.shifts)) <= 1e-12
    for a, b in zip(_binned_sub_uniformity(one)[0][:2], _binned_sub_uniformity(other)[0][:2]):
        assert a == pytest.approx(b, abs=_rounding(values.size))


@pytest.mark.parametrize("bad", [-1e-300, -0.5, math.nan, math.inf, 1.0 + 2.0**-16, 2.0])
def test_summary_rejects_values_outside_the_unit_interval(bad):
    summary = _BinSummary(_TAILS)
    with pytest.raises(ValueError, match="p-values must lie in"):
        summary.add(np.array([0.5, bad, 0.25]))
    assert summary.n == 0 and not summary.counts.any()


def test_summary_takes_a_value_rounded_past_one_into_the_top_bin():
    # the top bin [1, 1 + 2**-16) holds 1 and 1 + 2**-52, to which an r_hat
    # average of conditional p-values of 1 can round
    summary = _fold_blocks(np.array([0.25, 1.0, 1.0 + 2.0**-52]))
    assert summary.counts[_BINS] == 2 and summary.counts[_BINS // 4] == 1
    assert summary.counts[-1] == 0 and summary.counts.size == _BINS + 2


def test_summary_counts_past_int32():
    summary = _BinSummary()
    summary.n = 2**31 - 2  # as if that many values had been folded in already
    summary.add(np.array([0.5, 0.5]))
    assert summary.counts.dtype == np.int64 and summary.counts[_BINS // 2] == 2


# ------------------------------------------------------------------ drawing blocks (_fold)

def test_fold_hands_blocks_to_the_sink_in_block_order():
    # without keep one buffer serves every block: the sink takes block b
    # before block b + 1 is drawn into it, and gets block b's own values
    n, drawn, taken = 9 * _BLOCK + 5, [], []

    def draw(b, out):
        assert len(drawn) == len(taken)
        out[...] = b
        drawn.append(b)

    def sink(out):
        taken.append(int(out[0]))
        assert np.all(out == taken[-1]) and out.size == min(_BLOCK, n - taken[-1] * _BLOCK)

    assert _fold(draw, n, sink, keep=False) is None
    assert taken == drawn == list(range(10))


def test_fold_keeps_the_draws_of_the_frequency_run():
    from subuniform import frequency_run

    model, n = lasso_model(0.1), 2 * _BLOCK + 9
    kept = _fold(_model_blocks(model, RngStream(17)).draw, n)
    assert np.array_equal(np.sort(kept), frequency_run(model, n, RngStream(17)).pvalues.values)
