"""The chi-square tails of bounds, RNG streams, and empirical-sample statistics."""

import io
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subuniform import EmpiricalSample, RngStream, chi2_quantile, chi2_sf
from subuniform.numerics import _WALK


# ------------------------------------------------------------------ chi2_sf

def test_chi2_sf_at_zero():
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(-0.0, 1) == 1.0


def test_chi2_sf_two_df_closed_form():
    # S_2(x) = exp(-x/2)
    assert chi2_sf(9.21034, 2) == pytest.approx(0.01, abs=1e-6)
    x = 2.0 * math.log(1.0 / 0.05)
    assert chi2_sf(x, 2) == pytest.approx(0.05, rel=1e-12)
    for x in (0.1, 1.0, 5.0, 20.0):
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2.0)) <= 1e-12


def test_chi2_sf_other_df_closed_forms():
    # k=4: exp(-x/2)(1 + x/2); k=1: erfc(sqrt(x/2))
    for x in (0.2, 1.0, 3.7, 12.0, 40.0):
        assert chi2_sf(x, 4) == pytest.approx(math.exp(-x / 2.0) * (1.0 + x / 2.0), rel=1e-10)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-10)


def test_chi2_sf_domain():
    for x, k in ((-1.0, 2), (1.0, 0), (math.nan, 2), (1.0, math.inf), (1.0, -math.inf),
                 (1.0, math.nan)):
        with pytest.raises(ValueError):
            chi2_sf(x, k)


def test_chi2_sf_edges():
    for k in (0.01, 1, 7, 40, 2e9):
        assert chi2_sf(0.0, k) == 1.0
        assert chi2_sf(math.inf, k) == 0.0
    # deep tails underflow to 0.0 (or saturate at 1.0), never past them
    for x, k in ((1e4, 1), (3000.0, 7), (1e5, 40), (1e4, 1024), (3e9, 2e9), (2.2e9, 2e9), (1e308, 3)):
        assert chi2_sf(x, k) == 0.0, (x, k)
    for x, k in ((1e-300, 2e9), (1e9, 2e9), (10.0, 1e6)):
        assert chi2_sf(x, k) == 1.0, (x, k)
    assert chi2_sf(1e-300, 5e-324) == 0.0 and chi2_sf(0.0, 5e-324) == 1.0  # k/2 underflows
    for k in (0.01, 0.5, 1, 41, 1e6):
        for x in np.geomspace(1e-12, 1e8, 400):
            q = chi2_sf(float(x), k)
            assert 0.0 <= q <= 1.0, (x, k, q)


def _q_oracle(x, k):
    """Q(k/2, x/2) at 40 digits."""
    with mp.workdps(40):
        return mp.gammainc(mp.mpf(k) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 40, 41, 1024, 2e5])
def test_chi2_sf_matches_mpmath_on_grid(k):
    # the grid crosses every regime of Q(a, y): the small-y series for Q, the
    # series for P, the continued fraction and Temme's expansion (a >= 20 near
    # y = a).  scipy's worst relative error on this grid is 9.2e-14 (k = 1024).
    xs = [k * f for f in (1e-6, 0.01, 0.3, 0.9)]
    xs += [k + z * math.sqrt(2 * k) for z in (-3, -1, 0, 0.5, 1, 3, 6, 10)]
    xs += [5 * k + 50, 20 * k + 400]
    for x in (float(x) for x in xs if x >= 0):
        exact = _q_oracle(x, k)
        q = chi2_sf(x, k)
        if exact >= mp.mpf("1e-300"):
            assert abs(q - exact) <= 1e-13 * exact, (x, k, q)
        else:
            assert 0.0 <= q < 1e-299, (x, k, q)


@pytest.mark.parametrize("m", [10 ** 6, 10 ** 9])
def test_chi2_sf_matches_mpmath_at_fisher_critical_values(m):
    k = 2.0 * m
    for alpha in (1e-5, 1e-3, 0.05):
        x = chi2_quantile(alpha, k)
        exact = _q_oracle(x, k)
        assert abs(chi2_sf(x, k) - exact) <= 1e-13 * exact, alpha


# scipy's gammaincc serves as a second oracle where it is itself accurate: at
# a > 200 its error grows with the depth of the tail (1.8e-13 at Q = 3e-10,
# a = 258; 4.5e-12 at Q = 2e-200, a = 2210, against mpmath), so the bulk
# |z| <= 4 at any k, and every x at small k

@settings(max_examples=300, deadline=None)
@given(log_k=st.floats(0.0, math.log(1e6)), z=st.floats(-4.0, 4.0))
def test_chi2_sf_agrees_with_scipy_in_the_bulk(log_k, z):
    from scipy import special  # test-only oracle

    k = math.exp(log_k)
    x = max(0.0, k + z * math.sqrt(2.0 * k))
    ref = float(special.gammaincc(k / 2.0, x / 2.0))
    assert abs(chi2_sf(x, k) - ref) <= 2e-13 * ref


@settings(max_examples=300, deadline=None)
@given(k=st.floats(0.2, 40.0), x=st.floats(0.0, 600.0))
def test_chi2_sf_agrees_with_scipy_at_small_df(k, x):
    from scipy import special  # test-only oracle

    ref = float(special.gammaincc(k / 2.0, x / 2.0))
    assert abs(chi2_sf(x, k) - ref) <= 2e-13 * ref


def _temme_table(n_rows, n_cols, dps=120):
    """Taylor coefficients in eta of Temme's C_k(eta), k < n_rows, n < n_cols.

    lambda - 1 = s(eta) comes from Lagrange inversion of eta = s * f(s)**(1/2),
    f(s) = 2 (s - log1p(s)) / s**2; then C_0 = 1/s - 1/eta and
    C_k = C_{k-1}'(eta)/eta + (-1)**k g_k / s, g_k from Stirling's series.
    """
    def power(c, alpha, n_terms):  # (1 + c[1] t + ...) ** alpha, by Miller's recurrence
        g = [mp.mpf(1)]
        for n in range(1, n_terms):
            g.append(sum(((alpha + 1) * j - n) * c[j] * g[n - j] for j in range(1, n + 1)) / n)
        return g

    with mp.workdps(dps):
        size = n_cols + 2 * n_rows + 1
        f = [mp.mpf(2 * (-1) ** n) / (n + 2) for n in range(size + 1)]
        s = [mp.mpf(0)] + [power(f, mp.mpf(-n) / 2, n)[n - 1] / n for n in range(1, size + 2)]
        eta_over_s = power(s[1:], -1, size + 1)
        c = eta_over_s[1:size + 1]
        e = [mp.mpf(0)] * (n_rows + 1)  # log of Gamma(a) / (sqrt(2 pi / a) a^a e^-a)
        for j in range(1, n_rows // 2 + 2):
            if 2 * j - 1 <= n_rows:
                e[2 * j - 1] = mp.bernoulli(2 * j) / (2 * j * (2 * j - 1))
        g = [mp.mpf(1)]  # its exponential
        for n in range(1, n_rows + 1):
            g.append(sum(j * e[j] * g[n - j] for j in range(1, n + 1)) / n)
        table = [c[:n_cols]]
        for k in range(1, n_rows):
            gk = (-1) ** k * g[k]
            assert abs(c[1] + gk) <= abs(gk) * mp.mpf(10) ** (-dps // 2)  # no pole in C_k
            c = [(m + 2) * c[m + 2] + gk * eta_over_s[m + 1] for m in range(len(c) - 2)]
            table.append(c[:n_cols])
        return table


def test_temme_table_matches_its_recursion():
    from subuniform.bounds import _TEMME, _TEMME_MIN_A

    table = _temme_table(len(_TEMME) + 1, len(_TEMME[0]) + 1)
    with mp.workdps(60):  # two values in the literature (DiDonato & Morris 1986)
        assert abs(table[1][0] + mp.mpf(1) / 540) < mp.mpf(10) ** -50
        assert abs(table[2][0] - mp.mpf(25) / 6048) < mp.mpf(10) ** -50
    for k, row in enumerate(table):
        kept = _TEMME[k] if k < len(_TEMME) else ()
        for n, coef in enumerate(kept):
            assert coef == float(row[n]), (k, n)
        # every coefficient left out stays below 1e-19 for a >= 20, |eta| <= 0.34
        for n in range(len(kept), len(row)):
            assert abs(row[n]) * 0.34 ** n * _TEMME_MIN_A ** -k < 1e-19, (k, n)


def test_lgamma1p_tables_and_accuracy():
    from subuniform.bounds import _ZETA_M1, _lgamma1p

    with mp.workdps(50):
        for j, v in enumerate(_ZETA_M1, start=2):
            assert v == float(mp.zeta(j) - 1), j
        for a in (1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.4999):  # the series: relative
            exact = mp.loggamma(1 + mp.mpf(a))
            assert abs(_lgamma1p(a) - exact) <= 4e-16 * abs(exact), a
        for a in (0.5, 0.7, 1.0, 1.2, 7.5):  # math.lgamma: absolute, near its zeros at 1 and 2
            assert abs(_lgamma1p(a) - mp.loggamma(1 + mp.mpf(a))) <= 1e-15, a


# ------------------------------------------------------------------ chi2_quantile

def test_chi2_quantile_upper_tail_examples():
    # upper-tail convention: chi2_sf(result, k) = p
    assert chi2_quantile(0.01, 2) == pytest.approx(-2.0 * math.log(0.01), abs=1e-4)
    assert chi2_quantile(0.5, 2) == pytest.approx(-2.0 * math.log(0.5), abs=1e-4)
    assert chi2_quantile(1.0 - 1e-12, 2) < 1e-6


def test_chi2_quantile_round_trip():
    for p in (1e-8, 1e-5, 0.01, 0.05, 0.3, 0.9, 0.999):
        for k in (1, 2, 7, 40, 1000):
            q = chi2_quantile(p, k)
            assert abs(chi2_sf(q, k) - p) <= 1e-9


def _chi2_pdf(x, k):
    return math.exp((k / 2.0 - 1.0) * math.log(x) - x / 2.0
                    - math.lgamma(k / 2.0) - (k / 2.0) * math.log(2.0))


def test_chi2_quantile_inverts_sf_on_grid():
    # x-space identity is limited by conditioning: sf computed in doubles is
    # flat to one ulp over x-plateaus of width ulp(p)/pdf(x), so the recovered
    # x can be off by that much however tight the root-finder is
    for k in (1, 2, 4, 40):
        for x in np.geomspace(0.01, 100.0, 25):
            x = float(x)
            p = chi2_sf(x, k)
            if p >= 1.0 - 1e-15:  # p rounds to 1, x not recoverable at all
                continue
            q = chi2_quantile(p, k)
            plateau = math.ulp(max(p, 1e-300)) / _chi2_pdf(x, k)
            assert q == pytest.approx(x, abs=max(1e-8, 4.0 * plateau), rel=1e-8)
            assert abs(chi2_sf(q, k) - p) <= 1e-9


def test_chi2_quantile_huge_df():
    # the Fisher figure needs 2m = 2e9 degrees of freedom
    q = chi2_quantile(1e-5, 2_000_000_000)
    assert abs(chi2_sf(q, 2_000_000_000) - 1e-5) <= 1e-9


def test_chi2_quantile_matches_mpmath_in_x():
    # x-space oracle: the root of Q(k/2, x/2) = p at 40 digits; p-space
    # round trips are loose where the tail is flat
    for k in (1, 2, 3, 40, 1024, 2e6, 2e9):
        for p in (1e-5, 1e-3, 0.05):
            q = chi2_quantile(p, k)
            with mp.workdps(40):
                exact = float(mp.findroot(
                    lambda x: mp.gammainc(mp.mpf(k) / 2, x / 2, mp.inf, regularized=True) - p,
                    mp.mpf(q)))
            assert abs(q - exact) <= 4 * math.ulp(exact), (k, p)


def test_chi2_quantile_domain():
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            chi2_quantile(p, 2)
    for p, k in ((math.nan, 2), (0.5, math.inf), (0.5, math.nan), (0.5, 0.0)):
        with pytest.raises(ValueError):
            chi2_quantile(p, k)


def test_chi2_quantile_extreme_tails_and_df():
    # tiny k puts the quantile near zero, p near 0 or 1 far out; every answer
    # is finite and maps back to p (relative 1e-9; an ulp of x moves Q by
    # ~1e-10 at k = 2e9), or underflows to 0.0 where the quantile does
    for p, k in ((1e-300, 0.05), (0.999, 0.05), (0.5, 0.05), (1 - 1e-15, 1), (1e-300, 2e9),
                 (1 - 1e-15, 2e9), (0.3, 1e-3), (1e-200, 3), (0.999999, 1e5), (1e-320, 1)):
        q = chi2_quantile(p, k)
        assert math.isfinite(q) and q > 0.0, (p, k)
        assert chi2_sf(q, k) == pytest.approx(p, rel=1e-9), (p, k)
    assert chi2_quantile(0.3, 1e-4) == 0.0  # 2 * 0.7**20000 underflows
    assert chi2_quantile(0.5, 5e-324) == 0.0


# ------------------------------------------------------------------ RngStream

def test_rngstream_reproducible():
    a = RngStream(seed=123, stream_id=4).generator().random(64)
    b = RngStream(seed=123, stream_id=4).generator().random(64)
    assert np.array_equal(a, b)


def test_rngstream_distinct_streams_differ():
    a = RngStream(seed=123, stream_id=0).generator().random(64)
    b = RngStream(seed=123, stream_id=1).generator().random(64)
    c = RngStream(seed=124, stream_id=0).generator().random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rngstream_block_generators_order_free():
    s = RngStream(seed=9)
    first = [s.block_generator(b).random(8) for b in range(4)]
    again = [s.block_generator(b).random(8) for b in (2, 0, 3, 1)]
    for b, arr in zip((2, 0, 3, 1), again):
        assert np.array_equal(arr, first[b])


# ------------------------------------------------------------------ EmpiricalSample

def test_sample_sorted_and_moments():
    e = EmpiricalSample([0.9, 0.1, 0.5, 0.5])
    assert np.array_equal(e.values, [0.1, 0.5, 0.5, 0.9])
    assert e.n == 4
    assert e.mean() == pytest.approx(0.5)
    assert e.variance() == pytest.approx(np.var([0.1, 0.5, 0.5, 0.9]))


def test_sample_leaves_callers_array_unchanged():
    arr = np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2])
    before = arr.copy()
    for values in (arr, arr[::2], arr[::-1]):
        e = EmpiricalSample(values)
        assert np.array_equal(e.values, np.sort(values))
        assert not np.shares_memory(e.values, arr)
    assert np.array_equal(arr, before)


def test_sample_values_are_read_only():
    # the summaries read the sorted values; a write would falsify them
    from subuniform import frequency_run, lasso_model

    s = EmpiricalSample([0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="read-only"):
        s.values[0] = 2.0
    assert s.tail_prob(0.95) == 1.0 and s.values[0] == 0.1
    run = frequency_run(lasso_model(0.1), 1000, RngStream(seed=3))
    assert not run.pvalues.values.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_sample_rejects_non_finite_anywhere(bad, at):
    vals = [0.4, 0.1, 0.9, 0.5, 0.2, 0.8, 0.3]
    vals[at] = bad
    with pytest.raises(ValueError, match="finite"):
        EmpiricalSample(vals)


_VARIANCE_SIZES = (1, 7, 8, 9, 128, 129, _WALK - 1, _WALK, _WALK + 1, 2 * _WALK - 1, 2 * _WALK,
                   2 * _WALK + 1, 2 * _WALK + 17, 4 * _WALK + 17, 65536, 65537, 2 * 65536 + 17,
                   1_000_000)


@pytest.mark.parametrize("n", _VARIANCE_SIZES)
@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(("uniform", "lattice", "constant", "wide")),
       seed=st.integers(0, 2**32 - 1))
def test_variance_is_bit_identical_to_numpy(n, kind, seed):
    # variance() sums in O(_WALK) memory but in numpy's pairwise order, so it
    # must give values.var() to the last bit, ties and constants included
    gen = np.random.default_rng(seed)
    if kind == "uniform":
        x = gen.random(n)
    elif kind == "lattice":
        x = gen.integers(0, 17, n) / 16.0
    elif kind == "constant":
        x = np.full(n, gen.random())
    else:
        x = gen.standard_normal(n) * 1e6 + 3.0
    assert EmpiricalSample(x).variance() == float(np.sort(x).var())


def test_tail_prob_includes_jittered_atom():
    # values a few ulp above alpha still count as <= alpha
    e = EmpiricalSample([0.1 + 1e-13, 0.1 - 1e-13, 0.5, 0.9])
    assert e.tail_prob(0.1) == pytest.approx(0.5)
    assert e.tail_prob(0.05) == 0.0
    assert e.tail_prob(1.0) == 1.0


def test_atom_frequency_window():
    e = EmpiricalSample([0.25, 0.25 + 1e-12, 0.7])
    assert e.atom_frequency(0.25) == pytest.approx(2.0 / 3.0)
    assert e.atom_frequency(0.7) == pytest.approx(1.0 / 3.0)
    assert e.atom_frequency(0.5) == 0.0


def test_atom_queries_use_the_walks_rule_at_the_window_edges():
    # the doubles at and next to loc -+ _ATOM_TOL: a value is on an atom when
    # abs(v - loc) <= _ATOM_TOL in float arithmetic, as in ks_distance, and
    # counts as <= alpha when v - alpha <= _ATOM_TOL (0.250000001 is not on 0.25)
    from subuniform.numerics import _ATOM_TOL

    locs = (0.0, 1e-5, 0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 1.0)
    edges = [y for loc in locs for x in (loc - _ATOM_TOL, loc + _ATOM_TOL)
             for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0))]
    e = EmpiricalSample(edges)
    v = np.sort(np.array(edges))
    for loc in locs:
        assert e.atom_frequency(loc) == np.count_nonzero(np.abs(v - loc) <= _ATOM_TOL) / e.n, loc
        assert e.tail_prob(loc) == np.count_nonzero(v - loc <= _ATOM_TOL) / e.n, loc
    assert EmpiricalSample([0.250000001]).atom_frequency(0.25) == 0.0


def test_snap_edges_are_found_at_any_location():
    # each edge passes the rule and the next double outward fails it.  For a
    # loc within about 1e-17 of _ATOM_TOL the left edge lies by 0, among the
    # tiny and subnormal doubles, about 2**62 of them from loc - _ATOM_TOL; an
    # alarm turns a search that walks them into a failure, not a hang
    import signal

    from subuniform.numerics import _ATOM_TOL, _snap_edges

    def hang(signum, frame):
        raise TimeoutError("_snap_edges did not return")

    tol = _ATOM_TOL
    locs = [0.0, 5e-324, 1e-300, 5e-10, tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0),
            tol - 1e-18, tol + 1e-18, 2e-9, 0.1, 1.0,
            *np.random.default_rng(31).uniform(0.0, 3e-9, 300).tolist()]
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        for loc in locs:
            for edge, outward in zip(_snap_edges(loc), (-math.inf, math.inf)):
                assert abs(edge - loc) <= tol, loc
                assert abs(math.nextafter(edge, outward) - loc) > tol, loc
        assert EmpiricalSample([0.0, tol, 2 * tol, 3 * tol]).atom_frequency(tol) == 0.75
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_snap_rule_refuses_a_nan_location():
    # a NaN location has no snap window: tail_prob and atom_frequency refuse
    # it rather than read 1 or 0; an infinite one is its own window
    e = EmpiricalSample([0.1, 0.5, 0.9])
    for query in (e.tail_prob, e.atom_frequency):
        with pytest.raises(ValueError, match="NaN"):
            query(math.nan)
    assert e.tail_prob(math.inf) == 1.0 and e.tail_prob(-math.inf) == 0.0
    assert e.atom_frequency(math.inf) == 0.0


# ------------------------------------------------------------------ the sample writer

def test_write_values_matches_savetxt(tmp_path):
    from subuniform.numerics import _write_values

    edge = np.array([0.0, 1.0, 5e-324, 1e-05, 0.1, -0.0, 1e16, 2.0 ** -1022, 0.1 + 0.2,
                     123456.789, 1.0 - 2.0 ** -53, -3.5e300])
    more = np.concatenate([edge, RngStream(seed=12).generator().random(2 * 65536 + 5)])
    for values in (edge, more):  # one block, and blocks with a short last one
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, values, fmt="%.17g")
        out = tmp_path / "out.csv"
        with open(out, "w") as fh:
            _write_values(fh, values)
        assert out.read_bytes() == ref.read_bytes()


def _written(values: np.ndarray) -> str:
    from subuniform.numerics import _write_values

    fh = io.StringIO()
    _write_values(fh, values)
    return fh.getvalue()


def _python_lines(values: np.ndarray) -> str:
    return "".join(f"{x:.17g}\n" for x in values.tolist())


# the edges of the bulk-formatted range [1e-4, 10), and values on both sides
_WRITER_EDGES = [0.0, -0.0, 1e-6, np.nextafter(1e-6, 0.0), 1e-5, np.nextafter(1e-4, 0.0), 1e-4, 0.1,
                 1.0, 9.999999999999998, 10.0, 1e17, 5e-324, -0.5, 1.0 - 2.0 ** -53]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e-7, 20.0), st.sampled_from(_WRITER_EDGES)),
                min_size=1, max_size=60))
def test_write_values_matches_python_on_any_double(values):
    values = np.array(values, dtype=float)
    assert _written(values) == _python_lines(values)


def test_write_values_rounds_exact_ties_half_even():
    # odd m / 2**j has more than 17 significant digits just at these scales, so
    # rounding to 17 digits meets exact halves: every one of them in each range
    for j, lo, hi in ((18, 0.1, 1.0), (19, 0.01, 0.1)):
        m = np.arange(1, 2 ** j, 2)
        values = m / 2.0 ** j
        values = values[(values >= lo) & (values < hi)]
        assert _written(values) == _python_lines(values)


def test_write_values_around_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
                             [1.0, 1.0 - 2.0 ** -53, 0.0, -0.0]])
    assert _written(values) == _python_lines(values)


def test_write_values_block_and_chunk_edges():
    from subuniform.numerics import _BLOCK, _WRITE_CHUNK

    gen = RngStream(seed=13).generator()
    big = gen.random(1_000_000)
    assert _written(big) == _python_lines(big)
    for n in (_WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
              2 * _BLOCK + 17):
        values = gen.random(n)
        for at in (0, n // 2, n - 1, _WRITE_CHUNK - 1, _WRITE_CHUNK):  # Python-formatted values
            values[min(at, n - 1)] = (0.0, -2.5, 1e-300, 3e7)[at % 4]
        assert _written(values) == _python_lines(values)


def test_write_values_on_sorted_samples():
    # the caller's case: most chunks of a sorted sample share one decimal
    # exponent, and those >= 0.1 take 20-byte rows; these chunks also straddle
    # each decade edge, and the last sample puts values >= 10 in such chunks
    gen = RngStream(seed=15).generator()
    for values in (np.sort(gen.random(300_000)), np.sort(gen.random(100_000) ** 6),
                   np.sort(gen.uniform(0.1, 12.0, 20_000))):
        assert _written(values) == _python_lines(values)


def test_write_values_memory_is_one_chunk(tmp_path):
    import tracemalloc

    from subuniform.numerics import _ROW, _WRITE_CHUNK, _write_values

    # In chunks of float64 (8 * _WRITE_CHUNK bytes), what is live at once
    # when _format_chunk strips the NULs of a chunk that holds a value below
    # 1e-4, and so one k per value: the ASCII tables (3.3); v, k, the four
    # terms of the product and the two scale rows (8); d, top, d0 and the head
    # index (4); the four digit groups (4); the zero-group and fast-value masks
    # (0.5); the rows of text, their NUL mask, the text without NULs and its
    # str (3 each: a row is _ROW = 3 * 8 bytes); and the str of the chunk
    # before, still bound in _write_values (3).  That is 34.8.
    chunk = 8 * _WRITE_CHUNK
    values = RngStream(seed=14).generator().random(1_000_000)
    for order in (values, np.sort(values)):
        peaks = []
        for n in (100_000, 1_000_000):
            with open(tmp_path / "out.csv", "w") as fh:
                _write_values(fh, order[:10])  # first-call set-up is not a per-sample cost
                tracemalloc.start()
                try:
                    _write_values(fh, order[:n])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert max(peaks) <= 35 * chunk
        # nothing held grows with n
        assert peaks[1] - peaks[0] <= _WRITE_CHUNK * _ROW


# ------------------------------------------------------------------ small helpers

@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300), st.integers(0, 2**32 - 1))
def test_searchsorted_right_counts_like_the_search(table, seed):
    from subuniform.numerics import _searchsorted_right

    table = np.sort(np.array(table))
    gen = np.random.default_rng(seed)
    u = np.concatenate([gen.random(200), gen.choice(table, 50)])  # ties with the table
    assert np.array_equal(_searchsorted_right(table, u), np.searchsorted(table, u, side="right"))


def _long_tables():
    gen = np.random.default_rng(17)
    for k in (65, 255, 256, 1000, 5000):
        equal = np.cumsum(np.full(k + 1, 1.0 / (k + 1)))[:-1]
        spread = 10.0 ** gen.uniform(-12.0, 0.0, k + 1)
        spread = np.cumsum(spread / spread.sum())[:-1]
        runs = gen.random(k + 1) * (gen.random(k + 1) < 0.3)  # most masses zero
        runs[:5] = 0.0  # a run of thresholds at 0.0
        runs = np.cumsum(runs / runs.sum())[:-1]
        top = equal.copy()
        top[-3:] = (1.0, 1.0, np.nextafter(1.0, 2.0))  # thresholds at and above 1.0
        over = np.cumsum(gen.random(k + 1))[:-1] / k  # many thresholds above 1.0
        yield from ((f"{name}{k}", table) for name, table in
                    (("equal", equal), ("spread", spread), ("runs", runs), ("top", top),
                     ("over", over)))


@pytest.mark.parametrize("name, table", list(_long_tables()), ids=lambda v: v if isinstance(v, str) else "")
def test_searchsorted_right_counts_like_the_search_on_long_tables(name, table):
    # every bucket edge j / 2**p of any power-of-two bucket count up to 2**14,
    # one ulp to either side, the thresholds themselves, and the doubles
    # outside [0, 1)
    from subuniform.numerics import _searchsorted_right

    edges = np.concatenate([np.arange(2 ** p + 1) / 2 ** p for p in range(15)])
    u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), table,
                        np.nextafter(table, -1.0), np.nextafter(table, 2.0),
                        np.random.default_rng(18).random(20_000),
                        [0.0, -0.0, -5e-324, -1.0, 1.0, 1.5, np.inf, -np.inf, np.nan]])
    got = _searchsorted_right(table, u)
    assert got.dtype == np.min_scalar_type(table.size)
    assert np.array_equal(got, np.searchsorted(table, u, side="right"))


def test_searchsorted_right_counts_columns_of_thresholds():
    # a categorical draw per value: row j holds each value's cumulative mass j
    from subuniform.numerics import _searchsorted_right

    gen = np.random.default_rng(16)
    for k in (3, 70, 300):
        cum = np.cumsum(gen.random((k, 500)), axis=0)
        cum /= cum[-1]
        u = gen.random(500)
        expect = [np.searchsorted(cum[:-1, i], u[i], side="right") for i in range(500)]
        for table in (cum[:-1], cum[:-1, :1]):  # one column per value, or one for all
            got = _searchsorted_right(table, u)
            assert got.dtype == np.min_scalar_type(k - 1)
            assert np.array_equal(got, expect if table.shape[1] > 1 else
                                  np.searchsorted(table[:, 0], u, side="right"))
        assert _searchsorted_right(cum[:-1, 0], u).dtype == np.min_scalar_type(k - 1)


def _threshold_tables():
    """Tables of masses from 1e-12 to 1: 1-d, as lists, (k, n) for k = 1..17,
    and transposed views of C-ordered (n, k) tables."""
    gen = np.random.default_rng(19)
    for n in (1, 2, 8193):
        w = 10.0 ** gen.uniform(-12.0, 0.0, n)
        yield w
        yield (w / w.sum()).tolist()
    for k in range(1, 18):
        for n in (1, 2, 8193, 65536):
            w = 10.0 ** gen.uniform(-12.0, 0.0, (k, n))
            yield w / w.sum(axis=0)
            yield np.ascontiguousarray(w.T).T


def test_thresholds_match_the_cumulative_sum():
    # bit for bit np.cumsum(weights, axis=0)[:-1], the order a draw's
    # thresholds were first computed in, on every layout the callers pass
    from subuniform.numerics import _thresholds

    for weights in _threshold_tables():
        got, want = _thresholds(weights), np.cumsum(weights, axis=0)[:-1]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_sorted_unique_matches_numpy():
    from subuniform.numerics import _sorted_unique

    gen = RngStream(seed=15).generator()
    for values in (np.array([0.0, -0.0, 1.0, 0.0, -0.0]), np.array([-0.0, 0.0]), np.array([2.0]),
                   np.round(gen.random(1000), 2),
                   np.concatenate([gen.random(50), -gen.random(50)])):
        got, want = _sorted_unique(values), np.unique(values)
        assert got.tobytes() == want.tobytes()  # the same zeros, signs included
