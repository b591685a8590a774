"""The per-piece walks over a sorted sample: the convex-order walk against
the node walk it replaced, and the step-CDF gap against its whole-array
form, bit for bit; and the walk's crossing rule against every segment's
crossings."""

import math

import numpy as np
import pytest

from _oracles import max_gap, max_gap_every_segment, step_cdf_gap_whole_array
from subuniform import (EmpiricalSample, IntegratedDF, SubUniformDist, beta22_idf, dominates_cx,
                        ks_distance, p2alpha, uniform_idf)
from subuniform.distributions import _step_cdf_gap
from subuniform.idf import _max_gap
from subuniform.numerics import _ATOM_TOL, _WALK

_OVERLAP = SubUniformDist("mixture", atoms=((0.5, 0.5), (0.5 + 1e-9, 0.5)))
_OVERLAP_PIECE = SubUniformDist("mixture", atoms=((0.5 + 1.5e-9, 0.25), (0.5, 0.25)),
                                pieces=((0.0, 1.0, 0.5),))
# atoms closer than _ATOM_TOL: a value snapped onto the first moves on to the second
_CASCADE = SubUniformDist("mixture", atoms=((0.5, 0.3), (0.5 + 5e-10, 0.2)),
                          pieces=((0.0, 1.0, 0.5),))
_DISTS = (p2alpha(0.1), p2alpha(0.25), _OVERLAP, _OVERLAP_PIECE, _CASCADE,
          SubUniformDist("mixture", atoms=((0.7, 0.2), (0.3, 0.2)), pieces=((0.0, 1.0, 0.6),)),
          SubUniformDist("uniform01"), SubUniformDist("beta22"))


def _uniform(n, seed=1):
    return np.random.default_rng(seed).random(n)


def _overlapping_windows():
    # values within a few windows of two atoms 1e-9 apart, across pieces
    gen = np.random.default_rng(2)
    return np.concatenate([0.5 + gen.integers(-3, 5, 3 * _WALK) * 5e-10, gen.random(_WALK)])


def _window_edges():
    # values exactly at loc -+ _ATOM_TOL, and the doubles next to them
    edges = []
    for loc in (0.1, 0.25, 0.5, 0.3, 0.7):
        for x in (loc - _ATOM_TOL, loc + _ATOM_TOL):
            edges += [math.nextafter(x, -1.0), x, math.nextafter(x, 2.0)]
    return np.concatenate([np.repeat(edges, 7), _uniform(5000, 3)])


def _ties_across_a_piece():
    gen = np.random.default_rng(4)
    below = np.sort(gen.uniform(0.0, 0.1, 2 * _WALK - 3))
    below[_WALK - 5:_WALK + 5] = below[_WALK - 5]  # one run over the first piece boundary
    # the window of the atom at 0.1, ties and values a few ulp off, over the second
    at = np.sort(0.1 + np.array([-2e-10, 0.0, 0.0, 1e-12, 3e-10, 0.0]))
    return np.concatenate([below, at, np.sort(gen.uniform(0.1 + 1e-6, 1.0, _WALK))])


def _with_ends():
    return np.concatenate([[0.0, 0.0, 1.0], _uniform(2 * _WALK, 5), [1.0]])


_SAMPLES = {
    "overlapping_windows": _overlapping_windows,
    "window_edges": _window_edges,
    "ties_across_a_piece": _ties_across_a_piece,
    "n1": lambda: np.array([0.3]),
    "n_walk_minus_1": lambda: _uniform(_WALK - 1, 6),
    "n_walk_plus_1": lambda: _uniform(_WALK + 1, 7),
    "constant": lambda: np.full(1000, 0.5),
    "constant_on_atom": lambda: np.full(_WALK + 3, 0.1),
    "zero_and_one": _with_ends,
    "not_sub_uniform": lambda: np.random.default_rng(8).uniform(-0.25, 1.25, 3 * _WALK),
}


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("name", sorted(_SAMPLES))
def test_gap_walk_matches_the_node_walk(name):
    samp = EmpiricalSample(_SAMPLES[name]())
    emp = IntegratedDF.from_samples(samp)
    for law in (uniform_idf(), beta22_idf()):
        for lower, upper, sign in ((emp, law, 1.0), (law, emp, -1.0)):
            gap, witness, lower_mean, upper_mean = _max_gap(lower, upper)
            want_gap, want_witness, want_mean = max_gap(samp, law.family, sign)
            assert _bits(gap) == _bits(want_gap)
            assert _bits(witness) == _bits(want_witness)
            assert _bits(lower_mean if sign > 0 else upper_mean) == _bits(want_mean)
    assert _bits(emp.mean()) == _bits(max_gap(samp, "uniform01", 1.0)[2])
    if name == "not_sub_uniform":  # the witness branch
        res = dominates_cx(emp, uniform_idf())
        assert not res.holds and res.witness == max_gap(samp, "uniform01", 1.0)[1]


def _walked_laws():
    """(an IDF the walk takes, the same law as node arrays): the samples above,
    random atom lists, some of them on a lattice where the CDF meets x at
    nodes, and random mixtures of atoms and uniform pieces."""
    for make in _SAMPLES.values():
        samp = EmpiricalSample(make())
        uniq, counts = np.unique(samp.values, return_counts=True)
        yield IntegratedDF.from_samples(samp), IntegratedDF.from_atoms(uniq, counts / samp.n)
    gen = np.random.default_rng(9)
    for _ in range(20):
        values = np.unique(gen.uniform(-0.25, 1.25, int(gen.integers(1, 30))))
        atoms = IntegratedDF.from_atoms(values, gen.dirichlet(np.ones(values.size)))
        yield atoms, atoms
    for _ in range(20):
        values = np.unique(gen.integers(0, 17, 12)) / 16.0
        counts = gen.integers(1, 5, values.size)
        atoms = IntegratedDF.from_atoms(values, counts / counts.sum())
        yield atoms, atoms
    for _ in range(40):
        n_atoms, n_pieces = int(gen.integers(0, 4)), int(gen.integers(1, 4))
        mass = gen.dirichlet(np.ones(n_atoms + n_pieces)).tolist()
        pieces = np.sort(gen.random((n_pieces, 2)), axis=1).tolist()
        mix = SubUniformDist("mixture", atoms=tuple(zip(gen.random(n_atoms).tolist(), mass)),
                             pieces=tuple((lo, hi, m)
                                          for (lo, hi), m in zip(pieces, mass[n_atoms:])))
        yield mix.idf(), mix.idf()


@pytest.mark.parametrize("law", [uniform_idf(), beta22_idf()], ids=lambda law: law.family)
def test_crossing_rule_drops_no_maximum(law):
    # the walk takes the crossings of the segments its rule keeps; the
    # oracle takes every segment's, so it can only find more
    for line, nodes in _walked_laws():
        for pair, sign in (((line, law), 1.0), ((law, line), -1.0)):
            brute = max_gap_every_segment(nodes, law.family, sign)
            assert 0.0 <= brute - _max_gap(*pair)[0] <= 1e-15


@pytest.mark.parametrize("name", sorted(_SAMPLES))
def test_step_gap_walk_matches_the_snapped_copy(name):
    samp = EmpiricalSample(_SAMPLES[name]())
    for dist in _DISTS:
        want = step_cdf_gap_whole_array(dist, samp.values, lambda k: k / samp.n)
        assert _bits(ks_distance(dist, samp)) == _bits(want)


def test_step_gap_with_a_level_table_matches_the_snapped_copy():
    # synthesize_ppp's discretization KS: few locs, E given by a table
    locs = np.array([0.1 - _ATOM_TOL, 0.1, 0.2, 0.3 + _ATOM_TOL / 2, 0.5, 0.5 + 1e-9, 0.9])
    cum = np.linspace(0.0, 1.0, locs.size + 1)
    for dist in _DISTS:
        assert (_bits(_step_cdf_gap(dist, locs, lambda k: cum[k]))
                == _bits(step_cdf_gap_whole_array(dist, locs, lambda k: cum[k])))
