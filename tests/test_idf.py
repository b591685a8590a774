"""Integrated distribution functions and convex-order dominance."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subuniform import (EmpiricalSample, IntegratedDF, RngStream, SubUniformDist, beta22_idf,
                        continuous_part_ks, dominates_cx, ks_distance, p2alpha, uniform_idf)
from subuniform.idf import _analytic_quantile
from test_summary import _rounding

GRID = np.linspace(0.0, 1.0, 2049)


def test_evaluate_uniform():
    phi = uniform_idf()
    assert phi.evaluate(0.5) == pytest.approx(0.125, abs=1e-15)
    assert phi.evaluate(1.0) == pytest.approx(0.5, abs=1e-15)
    assert phi.evaluate(-1e6) == 0.0
    # beyond support phi grows linearly with slope 1
    assert phi.evaluate(2.0) == pytest.approx(1.5, abs=1e-12)


def test_evaluate_p2alpha_quarter():
    # F jumps to 0.5 at the atom 0.25 and stays flat until 0.5
    phi = p2alpha(0.25).idf()
    assert phi.evaluate(0.5) == pytest.approx(0.125, abs=1e-12)
    assert phi.evaluate(0.25) == pytest.approx(0.0, abs=1e-12)
    assert phi.evaluate(1.0) == pytest.approx(0.5, abs=1e-12)
    assert phi.evaluate(-1e6) == 0.0


def test_right_derivative_is_cdf():
    assert uniform_idf().right_derivative(0.3) == pytest.approx(0.3, abs=1e-12)
    # right-continuous at the atom: value after the jump
    assert p2alpha(0.25).idf().right_derivative(0.25) == pytest.approx(0.5, abs=1e-12)
    assert uniform_idf().right_derivative(1e6) == 1.0
    assert beta22_idf().right_derivative(-5.0) == 0.0


def test_piecewise_accepts_builtins():
    two_atoms = SubUniformDist("mixture", atoms=((0.0, 0.5), (1.0, 0.5)))
    for dist in (p2alpha(0.1), p2alpha(0.5), two_atoms):
        phi = dist.idf()
        assert IntegratedDF.piecewise(phi.breakpoints, phi.cdf).mean() == pytest.approx(0.5)


def test_piecewise_rejects_decreasing_cdf():
    # dominates_cx and h_bound would otherwise certify results on a non-IDF
    with pytest.raises(ValueError, match=r"convexity.*index 2, x = 1\.0"):
        IntegratedDF.piecewise([0.0, 0.5, 1.0], [0.2, 0.8, 0.5])
    with pytest.raises(ValueError, match="convexity"):
        IntegratedDF(kind="piecewise", breakpoints=np.array([0.0, 0.5, 1.0]),
                     cdf=np.array([0.2, 0.8, 0.5]))


def test_piecewise_rejects_derivative_range():
    with pytest.raises(ValueError, match=r"derivative-range.*1\.2.*index 1, x = 1\.0"):
        IntegratedDF.piecewise([0.0, 1.0], [0.5, 1.2])
    with pytest.raises(ValueError, match="derivative-range"):
        IntegratedDF.piecewise([0.0, 1.0], [-0.1, 1.0])
    # the tolerance is 1e-12: rounding dust above 1 or in a flat run passes
    IntegratedDF.piecewise([0.0, 0.5, 1.0], [0.5, 0.5 - 1e-13, 1.0 + 1e-13])


def test_dominates_cx_p2alpha_below_uniform():
    res = dominates_cx(p2alpha(0.1).idf(), uniform_idf())
    assert res.holds
    res = dominates_cx(uniform_idf(), uniform_idf())
    assert res.holds


def test_dominates_cx_witness_at_atom():
    # phi_U(alpha) = alpha^2/2 > 0 = phi of the mixture, maximal gap at the atom
    res = dominates_cx(uniform_idf(), p2alpha(0.25).idf())
    assert not res.holds
    assert res.witness == pytest.approx(0.25, abs=0.01)
    assert res.max_violation == pytest.approx(0.25 ** 2 / 2.0, abs=1e-6)


def test_dominates_cx_rejects_mean_mismatch():
    shifted = IntegratedDF.from_atoms([0.6], [1.0])  # mean 0.6, phi below uniform's
    res = dominates_cx(shifted, uniform_idf())
    assert not res.holds


def test_dominance_both_ways_implies_near_equality():
    # midpoint discretization of the uniform: IDF gap is w^2/8 per cell
    w = 1e-4
    mids = np.arange(w / 2.0, 1.0, w)
    disc = IntegratedDF.from_atoms(mids, np.full(mids.size, w))
    tol = 1e-8
    assert dominates_cx(disc, uniform_idf(), tol=tol).holds
    assert dominates_cx(uniform_idf(), disc, tol=tol).holds
    gap = np.abs(disc.evaluate(GRID) - uniform_idf().evaluate(GRID))
    assert gap.max() <= 2.0 * tol


def test_dominates_cx_finds_violation_between_nodes():
    # the gap peaks at 0.5, where the flat CDF of the two atoms crosses x
    eps = 2e-7
    res = SubUniformDist("mixture", atoms=((0.25 - eps, 0.5), (0.75 + eps, 0.5))).is_sub_uniform()
    assert not res.holds
    assert res.max_violation == pytest.approx(1e-7, abs=1e-12)
    assert res.witness == pytest.approx(0.5, abs=1e-9)
    eps = 1e-6
    res = SubUniformDist("mixture", atoms=((0.25 - eps, 0.5), (0.75 + eps, 0.5))).is_sub_uniform()
    assert res.max_violation == pytest.approx(5e-7, abs=1e-12)


_DENSE = np.linspace(-0.25, 1.25, 100_001)
_weights = st.floats(min_value=0.01, max_value=1.0)
_atoms = st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0), _weights),
                  min_size=1, max_size=8)
_pieces = st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.9),
                             st.floats(min_value=1e-3, max_value=0.5), _weights), max_size=3)


def _mixture_idf(atoms, pieces):
    total = sum(w for _x, w in atoms) + sum(w for _lo, _len, w in pieces)
    return SubUniformDist(
        "mixture",
        atoms=tuple((x, w / total) for x, w in atoms),
        pieces=tuple((lo, min(1.0, lo + length), w / total) for lo, length, w in pieces),
    ).idf()


def _atoms_idf(atoms):
    values = sorted({x for x, _w in atoms})
    masses = np.array([sum(w for x, w in atoms if x == v) for v in values])
    return IntegratedDF.from_atoms(values, masses / masses.sum())


def _assert_exact_max(lower, upper):
    res = dominates_cx(lower, upper, tol=0.0)
    sampled = (lower.evaluate(_DENSE) - upper.evaluate(_DENSE)).max()
    assert res.max_violation >= sampled - 1e-15
    if sampled > 0.0:
        at_witness = lower.evaluate(res.witness) - upper.evaluate(res.witness)
        if res.witness == max(lower.support[1], upper.support[1]) and at_witness <= 0.0:
            # the exact gap is <= 0 and the means differ: the support end is
            # the witness, and the gap there is the mean gap
            assert abs(at_witness) == pytest.approx(res.max_violation, abs=1e-15)
        else:  # the gap check fails, so the witness is the argmax
            assert at_witness == pytest.approx(res.max_violation, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(_atoms, _pieces, st.sampled_from(["uniform01", "beta22"]), st.booleans())
def test_dominates_cx_exact_against_analytic(atoms, pieces, family, swap):
    mixture, analytic = _mixture_idf(atoms, pieces), IntegratedDF.analytic(family)
    if swap:
        _assert_exact_max(analytic, mixture)
    else:
        _assert_exact_max(mixture, analytic)


def _beta22_quantile_oracle(u: float):
    """Q(u) = 1/2 + sin(asin(2u - 1)/3) at 60 digits beyond those that 2u - 1
    loses near u = 0."""
    if u == 0.0:
        return mp.mpf(0)
    with mp.workdps(60 + max(0, -int(mp.floor(mp.log10(u))))):
        return +(mp.mpf(0.5) + mp.sin(mp.asin(2 * mp.mpf(u) - 1) / 3))


def test_beta22_quantile_matches_oracle():
    gen = np.random.default_rng(7)
    u = np.concatenate([[0.0, 2.0**-53, 1e-300, 1e-20, 1e-12, 0.5, 1.0 - 2.0**-53, 1.0],
                        np.logspace(-300.0, 0.0, 301), gen.random(400),
                        0.5 + np.linspace(-1e-6, 1e-6, 41), 1.0 - np.logspace(-16.0, -1.0, 31)])
    q = _analytic_quantile("beta22", u)
    assert (q[0], q[5], q[7]) == (0.0, 0.5, 1.0)
    err = np.array([float(abs(mp.mpf(float(qi)) - _beta22_quantile_oracle(float(ui))))
                    for ui, qi in zip(u, q)])
    assert np.max(err) <= 4.4e-16
    low = (u > 0.0) & (u <= 0.5)
    assert np.max(err[low] / q[low]) <= 1e-15  # relative, also at u = 1e-12 and 1e-300
    assert np.array_equal(_analytic_quantile("uniform01", u), u)


# atoms at both ends of the first piece, and a gap (0.4, 0.6) between atoms:
# Q is flat on each atom's levels and jumps across the gap
_GAPPED = SubUniformDist("mixture", atoms=((0.2, 0.1), (0.4, 0.15), (0.6, 0.15)),
                         pieces=((0.6, 0.8, 0.3), (0.2, 0.4, 0.3)))


@pytest.mark.parametrize("dist, ends", [
    (SubUniformDist("uniform01"), (0.0, 1.0)),
    (SubUniformDist("beta22"), (0.0, 1.0)),
    (p2alpha(0.1), (0.1, 1.0)),
    (SubUniformDist("mixture", atoms=((0.25, 0.5), (0.75, 0.5))), (0.25, 0.75)),
    (_GAPPED, (0.2, 0.8)),
], ids=["uniform01", "beta22", "p2alpha", "atoms", "gapped"])
def test_quantile_inverts_the_cdf(dist, ends):
    from subuniform.distributions import _cdf_limits

    idf = dist.idf()
    u = np.concatenate([np.linspace(0.0, 1.0, 4097), np.random.default_rng(8).random(4000),
                        idf.cdf if idf.kind == "piecewise" else []])
    q = idf.quantile(u)
    f, f_left = _cdf_limits(dist, q)
    # the generalized inverse: F(Q(u)-) <= u <= F(Q(u)), up to rounding
    assert np.all(f >= u - 1e-15) and np.all(f_left <= u + 1e-15)
    assert np.all(np.diff(q[:4097]) >= 0.0)
    assert idf.quantile(0.0) == ends[0]
    assert idf.quantile(1.0) == pytest.approx(ends[1], abs=1e-15)
    for loc, _mass in dist.atoms:  # an atom comes back verbatim
        assert loc in q
    # right-continuous: F exceeds u just past Q(u), so a level on a flat of F
    # maps to the right end of the flat
    below = u < 1.0
    assert np.all(_cdf_limits(dist, q[below] + 1e-9)[0] > u[below])
    if dist is _GAPPED:  # F = 0.55 on [0.4, 0.6)
        assert idf.quantile(0.55) == 0.6 and idf.quantile(0.4) == 0.4


def test_dominates_cx_between_analytic_laws():
    # beta22 precedes the uniform law; phi_uniform - phi_beta22 peaks at 1/2
    assert dominates_cx(beta22_idf(), uniform_idf()).holds
    res = dominates_cx(uniform_idf(), beta22_idf())
    assert (res.holds, res.max_violation, res.witness) == (False, 1.0 / 32.0, 0.5)
    _assert_exact_max(uniform_idf(), beta22_idf())
    for law in (uniform_idf(), beta22_idf()):
        assert dominates_cx(law, law, tol=0.0) == (True, 0.0, None, 0.0)


@settings(max_examples=150, deadline=None)
@given(_atoms, _atoms)
@example(first=[(0.0, 0.2075202695462979), (1.0, 0.625), (1.0, 0.625), (1.0, 1 / 3), (1.0, 0.125)],
         second=[(0.0, 0.2075202695462979), (1.0, 0.625), (1.0, 0.625), (1.0, 0.125),
                 (0.078125, 1 / 3)])  # equal up to 0.078125, then a mean gap of 0.16
def test_dominates_cx_exact_between_atom_lists(first, second):
    _assert_exact_max(_atoms_idf(first), _atoms_idf(second))


def test_dominates_cx_between_piecewise_laws_leaves_out_numpy_ma():
    # the merged nodes of two piecewise IDFs are found without np.union1d,
    # whose import of numpy.ma costs about 10 ms of a cold command
    import subprocess
    import sys

    code = ("import sys\n"
            "from subuniform import IntegratedDF, dominates_cx\n"
            "a = IntegratedDF.from_atoms([0.2, 0.6], [0.5, 0.5])\n"
            "b = IntegratedDF.from_atoms([0.1, 0.5, 0.9], [0.3, 0.4, 0.3])\n"
            "print(dominates_cx(a, b).holds, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_from_samples_small_cases():
    phi = IntegratedDF.from_samples([0.5])
    for x in (-1.0, 0.25, 0.5, 0.75, 2.0):
        assert phi.evaluate(x) == pytest.approx(max(0.0, x - 0.5), abs=1e-15)
    assert IntegratedDF.from_samples([0.0, 1.0]).evaluate(1.0) == pytest.approx(0.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
       st.floats(min_value=-0.5, max_value=1.5))
def test_from_samples_formula(vals, x):
    # phi(x) = (1/n) sum max(0, x - v_i)
    phi = IntegratedDF.from_samples(vals)
    direct = np.mean(np.maximum(0.0, x - np.asarray(vals)))
    assert phi.evaluate(x) == pytest.approx(direct, abs=1e-12)


def test_from_samples_uniform_converges():
    gen = RngStream(seed=5).generator()
    phi = IntegratedDF.from_samples(gen.random(1_000_000))
    dev = np.abs(phi.evaluate(GRID) - GRID ** 2 / 2.0)
    assert dev.max() <= 0.002


def test_from_samples_matches_analytic_for_every_family_member():
    dists = [SubUniformDist("uniform01"), SubUniformDist("beta22"),
             p2alpha(0.1), p2alpha(0.25), p2alpha(0.4)]
    for i, dist in enumerate(dists):
        samp = dist.sample(RngStream(seed=60 + i).generator(), 100_000)
        emp = IntegratedDF.from_samples(samp)
        dev = np.abs(emp.evaluate(GRID) - dist.idf().evaluate(GRID))
        assert dev.max() <= 0.01, dist.variant


def test_mean_of():
    assert uniform_idf().mean() == pytest.approx(0.5, abs=1e-12)
    assert p2alpha(0.1).idf().mean() == pytest.approx(0.5, abs=1e-12)
    assert beta22_idf().mean() == pytest.approx(0.5, abs=1e-12)
    assert IntegratedDF.from_atoms([0.37], [1.0]).mean() == pytest.approx(0.37, abs=1e-12)


def test_right_derivative_monotone():
    for phi in (uniform_idf(), beta22_idf(), p2alpha(0.05).idf(),
                IntegratedDF.from_samples(RngStream(seed=3).generator().random(500))):
        f = phi.right_derivative(GRID)
        assert np.all(np.diff(f) >= -1e-12)
        assert np.all((f >= 0.0) & (f <= 1.0))


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_evaluate_convex(a, b):
    for phi in (beta22_idf(), p2alpha(0.15).idf()):
        mid = phi.evaluate((a + b) / 2.0)
        assert mid <= (phi.evaluate(a) + phi.evaluate(b)) / 2.0 + 1e-12


# ------------------------------------------------------------------ the blocked empirical check

def _sample_for(seed: int, n: int, kind: int) -> np.ndarray:
    """Ties, values at 0 and 1, and continuous values, by kind."""
    gen = np.random.default_rng(seed)
    if kind == 0:
        return np.floor(gen.random(n) * 8.0) / 8.0  # lattice k/8: ties, 0.0
    if kind == 1:
        return np.where(gen.random(n) < 0.3, gen.integers(0, 2, n).astype(float), gen.random(n))
    if kind == 2:
        return np.where(gen.random(n) < 0.2, 0.1, gen.uniform(0.2, 1.0, n))  # p2alpha(0.1)
    if kind == 3:
        return gen.uniform(-0.25, 1.25, n)  # not sub-uniform: the gap is positive
    return gen.uniform(0.3, 0.9, n)  # phi below the uniform's, but the mean is off


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 3, 7, 1000, 16384 + 1, 2 * 65536 + 17]),
       st.integers(0, 4))
def test_empirical_dominance_equals_atom_walk(seed, n, kind):
    # dominates_cx walks the sample's runs in blocks; from_atoms over the
    # distinct values is the node-array walk it replaces, against either
    # analytic law on either side.  from_atoms sums the masses counts / n,
    # the walk takes the exact counts, so the two agree to rounding
    samp = EmpiricalSample(_sample_for(seed, n, kind))
    uniq, counts = np.unique(samp.values, return_counts=True)
    atoms = IntegratedDF.from_atoms(uniq, counts / samp.n)
    emp = IntegratedDF.from_samples(samp)
    for law in (uniform_idf(), beta22_idf()):
        for pair, atom_pair in (((emp, law), (atoms, law)), ((law, emp), (law, atoms))):
            default = dominates_cx(*pair)
            assert default.holds == dominates_cx(*atom_pair, tol=3.0 / np.sqrt(samp.n)).holds
            # tol = -1 fails every check, so it exposes the raw maximum gap and witness
            raw = dominates_cx(*pair, tol=-1.0)
            assert raw.max_violation == pytest.approx(
                dominates_cx(*atom_pair, tol=-1.0).max_violation, abs=_rounding(samp.n))
            assert type(raw.max_violation) is float and type(raw.witness) is float
    assert IntegratedDF.from_samples(samp).mean() == pytest.approx(atoms.mean(),
                                                                   abs=_rounding(samp.n))
    # the node arrays, when asked for, are from_atoms's breakpoints, with the
    # CDF k / n before and after each jump
    assert np.array_equal(emp.breakpoints, atoms.breakpoints)
    k = np.cumsum(counts)
    assert np.array_equal(emp.cdf, np.stack([k - counts, k], axis=1).ravel() / samp.n)


def test_empirical_summaries_stay_within_three_sample_sizes():
    # extra memory of each summary of a 1e6-sample, in units of its 8n bytes,
    # measured with pieces of 8192 values: 0.083 for the uniform check, 0.058
    # for the KS distance, 0.368 for the checks against beta22 (the cubic
    # roots of one piece) and 0.082 for the mean.  Whole-array node arrays
    # took ~11x, ~37x and ~12x; pieces of 65536 values took 0.94, 0.66, 2.94
    # and 0.66, and of 16384 values 0.235, 0.164, 0.736 and 0.181.
    import tracemalloc

    n = 1_000_000
    samp = EmpiricalSample(np.where(RngStream(seed=8).generator().random(n) < 0.2, 0.1,
                                    RngStream(seed=9).generator().uniform(0.2, 1.0, n)))
    for summary, times in (
            (lambda: dominates_cx(IntegratedDF.from_samples(samp), uniform_idf()), 0.3),
            (lambda: ks_distance(p2alpha(0.1), samp), 0.2),
            (lambda: dominates_cx(IntegratedDF.from_samples(samp), beta22_idf()), 0.8),
            (lambda: dominates_cx(beta22_idf(), IntegratedDF.from_samples(samp)), 0.8),
            (lambda: IntegratedDF.from_samples(samp).mean(), 0.25)):
        tracemalloc.start()
        try:
            summary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < times * 8 * n


@pytest.mark.parametrize("n", [1_000_000, 3_000_000])
def test_uniform_check_and_ks_distance_memory_does_not_grow_with_n(n):
    # both walk the sorted sample in pieces of _WALK values: each peaks below
    # 16 * 8 * _WALK bytes at any n (measured 10.1 for the uniform check and
    # 7.1 for the KS distance, at both sizes)
    import tracemalloc

    from subuniform.numerics import _WALK

    gen = RngStream(seed=5).generator()
    samp = EmpiricalSample(np.where(gen.random(n) < 0.2, 0.1, gen.uniform(0.2, 1.0, n)),
                           _owned=True)
    for summary in (lambda: dominates_cx(IntegratedDF.from_samples(samp), uniform_idf()),
                    lambda: ks_distance(p2alpha(0.1), samp)):
        tracemalloc.start()
        try:
            summary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * _WALK


@pytest.mark.parametrize("n", [1_000_000, 3_000_000])
def test_continuous_part_ks_memory_does_not_grow_with_n(n):
    # it walks the sorted sample in place, its atom's window left flat: below
    # 16 * 8 * _WALK bytes at any n, as ks_distance (a copy of the values
    # outside the window, sorted again, took 7.1 MB at n = 1e6)
    import tracemalloc

    from subuniform.numerics import _WALK

    gen = RngStream(seed=5).generator()
    samp = EmpiricalSample(np.where(gen.random(n) < 0.2, 0.1, gen.uniform(0.2, 1.0, n)),
                           _owned=True)
    tracemalloc.start()
    try:
        continuous_part_ks(p2alpha(0.1), samp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * _WALK
