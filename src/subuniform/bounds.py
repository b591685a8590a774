"""Conservative calibration bounds for p-value style statistics.

Single p-value: if P precedes the uniform law in the convex order, then
P(P <= alpha) <= min(1, 2*alpha), and more generally F_X(alpha) <= h where

    h = min(1, max{w >= 0 : w*(x - alpha) <= phi_Y(x) for all x})
      = min(1, min over x > alpha of phi_Y(x) / (x - alpha)),

for any X preceding Y in the convex order with IDF phi_Y.  The uniform
target recovers the 2*alpha rule exactly.

Combination: for independent sub-uniform P_1..P_m the Fisher score
R = -2 * sum(log P_i) satisfies E(R) <= 2m*(1 + log 2) and three upper
bounds on P(R >= x), all computed here:

    shifted chi-square   S_{2m}(x - 2m*log 2)
    Cantelli             m / (m + ((x - 2m)/2)^2)        for x >= 2m
    MGF / Chernoff       exp(m - x/2 - m*log(2m/x))      for x >= 2m

Minimum p-value: P(min P_i <= x) <= 1 - (1 - 2x)^m, achieved by independent
copies of the extremal law.

The chi-square tails S_k and their inverse live here too, as scalar math
code (see the section at the end).  Only h_bound works on arrays: it imports
numpy when called, so the scalar bounds load without numpy.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings as _warnings
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .idf import IntegratedDF

_ZERO_FLOOR = 1e-300


def conservative_single(p: float) -> float:
    """Worst-case adjustment for one p-value: min(1, 2p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p!r}")
    return min(1.0, 2.0 * p)


def h_bound(alpha: float, target_idf: IntegratedDF) -> float:
    """Sharp bound on F_X(alpha) over all X convex-order dominated by Y.

    h = min(1, w*) where w* = min over x > alpha of phi_Y(x) / (x - alpha) is
    the slope of the tangent to phi_Y from (alpha, 0).  Exact rule: the
    ratio falls while F(x)(x - alpha) < phi(x) and rises after (phi is
    convex), so its minimum lies at a breakpoint or at the root of
    F(x)(x - alpha) = phi(x), which has a closed form on every segment:

        uniform01   x = 2*alpha, so h = min(1, 2*alpha);
        beta22      x = ((2 + 2a) - sqrt((2 + 2a)^2 - 18a)) / 3, a = alpha;
        piecewise   x = alpha + sqrt(u^2 + 2*(phi(x0) - F(x0)*u) / s) on a
                    segment from x0 with CDF slope s, u = x0 - alpha.

    Beyond the support phi_Y continues as x - mean, whose ratio tends
    monotonically to 1, so the support suffices.  Float rounding is the only
    error.
    """
    import numpy as np

    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if target_idf.kind == "piecewise":
            bx, f = target_idf.breakpoints, target_idf.cdf
            x0, u = bx[:-1], bx[:-1] - alpha
            roots = alpha + np.sqrt(u * u + 2.0 * (target_idf.evaluate(x0) - f[:-1] * u)
                                    / (np.diff(f) / np.diff(bx)))
            x = np.concatenate([bx, np.clip(roots, x0, bx[1:])])
        elif target_idf.family == "uniform01":
            x = np.array([2.0 * alpha, 1.0])
        else:  # beta22
            b = 2.0 + 2.0 * alpha
            x = np.array([(b - np.sqrt(b * b - 18.0 * alpha)) / 3.0, 1.0])
    x = x[(x > alpha) & (x <= target_idf.support[1])]
    ratio = target_idf.evaluate(x) / (x - alpha)
    return float(min(1.0, ratio.min(initial=1.0)))


class FisherScore(NamedTuple):
    score: float
    m: int
    floored_zeros: int


def _in_unit_interval(p: list[float]) -> bool:
    """Whether every value of the non-empty list p lies in [0, 1], in C-level
    passes: min and max may step past a NaN, their sum does not."""
    return 0.0 <= min(p) and max(p) <= 1.0 and not math.isnan(sum(p))


def fisher_score(pvals: Iterable[float]) -> FisherScore:
    """Fisher combination score -2 * sum(log p_i), the logs summed by math.fsum.

    Zero p-values are floored at 1e-300 and flagged (never silently); negative
    values or values above 1 are domain errors.
    """
    try:
        p = list(map(float, pvals))
    except TypeError:  # a scalar, or a sequence of sequences
        p = []
    if not p:
        raise ValueError("pvals must be a non-empty 1-d array")
    if not _in_unit_interval(p):
        raise ValueError("p-values must lie in [0,1]")
    return _fisher_score(p)


def _fisher_score(p: list[float]) -> FisherScore:
    """fisher_score of a non-empty list of floats already checked to lie in
    [0, 1]; the warning names fisher_score's caller."""
    zeros = p.count(0.0)
    if zeros:
        _warnings.warn(f"{zeros} zero p-value(s) floored at {_ZERO_FLOOR:g} "
                       "before taking logs", UserWarning, stacklevel=3)
        p = [v or _ZERO_FLOOR for v in p]
    score = -2.0 * math.fsum(map(math.log, p)) + 0.0  # normalize -0.0
    return FisherScore(score, len(p), zeros)


class FisherReport(NamedTuple):
    """Nominal and worst-case tail assessments of a Fisher score."""

    score: float
    m: int
    nominal_p: float
    bound_shifted_chi2: float
    bound_cantelli: float | None
    bound_mgf: float | None
    conservative_p: float
    inapplicable: dict[str, str]
    warnings: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def _check_m(m: int) -> None:
    """m counts p-values: an integer at least 1 (an integral float counts), and
    no more than a double holds, since every bound takes it into floats."""
    if not (1 <= m <= sys.float_info.max and m == int(m)):
        raise ValueError(f"m must be a positive integer at most {sys.float_info.max:g}, "
                         f"got {m!r}")


def _fisher_dof(m: int) -> float:
    """The 2m degrees of freedom of Fisher's chi-square, after checking m:
    2m must be a finite double too."""
    _check_m(m)
    k = 2.0 * m
    if math.isinf(k):
        raise ValueError(f"m must be at most {sys.float_info.max / 2.0:g} for the chi-square "
                         f"with 2m degrees of freedom, got {m!r}")
    return k


def fisher_bounds(score: float, m: int, warnings: Sequence[str] = ()) -> FisherReport:
    """Evaluate the nominal tail and the three worst-case bounds at the score.

    All three bounds are computed in log space where cancellation threatens,
    so they remain finite and accurate for m into the billions.  The Cantelli
    and MGF bounds require score >= 2m (the worst-case mean); below that they
    are reported as inapplicable rather than extrapolated.
    """
    k = _fisher_dof(m)
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {score!r}")
    return _fisher_report(score, m, k, chi2_sf(score, k), warnings)


def _fisher_report(score: float, m: int, k: float, nominal: float,
                   warnings: Sequence[str] = ()) -> FisherReport:
    """fisher_bounds of a finite score and a checked m, with k = 2m and the
    nominal tail chi2_sf(score, k) already computed."""
    shifted = chi2_sf(max(0.0, score - k * math.log(2.0)), k)
    inapplicable: dict[str, str] = {}
    t = score - k  # distance above the sub-uniform worst-case mean
    if t < 0.0:
        cantelli = None
        mgf = None
        reason = f"requires score >= 2m = {k:g}"
        inapplicable["bound_cantelli"] = reason
        inapplicable["bound_mgf"] = reason
    else:
        cantelli = m / (m + (t / 2.0) ** 2)
        # exponent m - score/2 - m*log(2m/score) rewritten via log1p(t/2m)
        log_mgf = -t / 2.0 + m * math.log1p(t / k)
        mgf = math.exp(min(log_mgf, 0.0))
    candidates = [b for b in (shifted, cantelli, mgf) if b is not None]
    conservative = min(1.0, *candidates)
    return FisherReport(
        score=float(score), m=int(m), nominal_p=nominal,
        bound_shifted_chi2=shifted, bound_cantelli=cantelli, bound_mgf=mgf,
        conservative_p=conservative, inapplicable=inapplicable,
        warnings=tuple(warnings),
    )


def fisher_critical(alpha: float, m: int) -> float:
    """Nominal critical value: upper-alpha quantile of chi-square with 2m df.

    Raises ValueError when chi2_sf at the returned score is not alpha to
    within 1e-6 relative: for m near 1e20 and above, doubles no longer
    resolve the chi-square's spread of 2*sqrt(m) around its mean 2m.
    """
    return _fisher_critical(alpha, m, _fisher_dof(m))[0]


def _fisher_critical(alpha: float, m: int, k: float) -> tuple[float, float]:
    """fisher_critical for a checked m with k = 2m, and the chi-square tail
    at the score it returns."""
    score = chi2_quantile(alpha, k)
    tail = chi2_sf(score, k)
    if not math.isclose(tail, alpha, rel_tol=1e-6):
        raise ValueError(f"no Fisher critical value for m = {m}: the chi-square tail at the "
                         f"score {score!r} reads {tail!r}, not alpha = {alpha!r}")
    return score, tail


def minp_bound(x: float, m: int) -> float:
    """Worst-case P(min of m sub-uniform p-values <= x) = 1 - (1 - 2x)^m.

    Valid for x in [0, 1/2]; beyond that the bound saturates at 1.  Attained
    by independent draws of the extremal law with atom at x.
    """
    _check_m(m)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x!r}")
    if x >= 0.5:
        return 1.0
    return -math.expm1(m * math.log1p(-2.0 * x))


class MinpLimit(NamedTuple):
    bound_in_q: float | None
    limit: float
    degenerate: bool
    note: str | None


def minp_limit_check(q: float, m: int) -> MinpLimit:
    """Worst-case size of a nominal-level-q min-p test, and its m -> inf limit.

    With the per-test threshold x chosen so that the nominal size is q,
    the worst-case size is 1 - (2*(1-q)^(1/m) - 1)^m, largest at m = 1
    (where it is 2q) and falling toward 2q - q^2 as m grows.  For large q
    and small m the inner base can go negative, in which case the finite-m
    formula is degenerate (the bound saturates at 1).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0,1), got {q!r}")
    _check_m(m)
    if q == 0.0:
        return MinpLimit(0.0, 0.0, False, None)
    limit = 2.0 * q - q * q
    base = 2.0 * math.exp(math.log1p(-q) / m) - 1.0
    if base <= 0.0:
        return MinpLimit(None, limit, True,
                         f"2*(1-q)^(1/m) - 1 = {base:g} <= 0; finite-m formula degenerate")
    bound = -math.expm1(m * math.log(base))
    return MinpLimit(bound, limit, False, None)


# ------------------------------------------------------------------ chi-square tails
#
# chi2_sf(x, k) is Q(k/2, x/2), the regularized upper incomplete gamma ratio.
# Q(a, y) and P(a, y) = 1 - Q come from four standard expansions (DiDonato &
# Morris 1986; Gil, Segura & Temme 2012), each used where it converges fast and
# gives the smaller of P and Q without cancellation:
#   - Temme's uniform asymptotic expansion, for a >= 20 and |y/a - 1| < 0.3,
#     where the others need O(sqrt(a)) terms;
#   - the power series of P, for y < a;
#   - Legendre's continued fraction for Q (modified Lentz), for y >= a;
#   - a series for Q itself, for y <= 1.1 and small a, where P is near 1.
# The factor y^a e^-y / Gamma(a) is formed as exp(-a*mu) * a^a e^-a / Gamma(a),
# with mu = lambda - 1 - log(lambda) and lambda = y/a: the naive exponent
# a*log(y) - y - lgamma(a) is off by 1.7e-10 relative at a = 1e5, y = 1.02e5.

# Temme's C_k(eta) = sum_n _TEMME[k][n] * eta**n, generated with mpmath from
# C_0 = 1/(lambda - 1) - 1/eta and C_k = C_{k-1}'(eta)/eta + (-1)**k g_k/(lambda - 1),
# g_k the coefficients of Stirling's series of Gamma(a) / (sqrt(2 pi/a) a^a e^-a);
# truncated where a term stays below 1e-19 for a >= 20 and |eta| <= 0.34.
# tests/test_numerics.py rebuilds the table.
_TEMME = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06,
     -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
     -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
     0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05,
     7.64916091608111e-06, -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07,
     -5.752545603517705e-08, 1.1951628599778148e-08, -1.7543241719747647e-11,
     -1.0091543710600413e-09, 4.162792991842583e-10, -8.56390702649298e-11),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
     -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05,
     3.423578734096138e-08, 1.3721957309062934e-06, -6.298992138380055e-07,
     1.4280614206064242e-07, -2.0477098421990866e-10, -1.409252991086752e-08,
     6.228974084922022e-09, -1.3670488396617114e-09),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11, 2.8865829742708783e-08),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
     -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05,
     -3.0796134506033047e-09, 3.465155368803609e-06, -2.0291327396058603e-06,
     5.788792863149004e-07),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
     2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07,
     0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05),
    (-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
     -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
     -8.479507117068503e-05),
    (0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636, 9.9324041226423e-07,
     -0.0005087450129309319, 0.00042735056665392886),
    (0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276, 0.00213896861856891),
    (-0.004072512119514016, 0.00640336283380807, -0.004041016108167662),
)
_TEMME_MIN_A = 20.0
_TEMME_MAX_D = 0.3  # |y/a - 1|; |eta| <= 0.34 there

# zeta(j) - 1 for j = 2..27, the Taylor coefficients of log Gamma(1 + a) at a = 0
_ZETA_M1 = (0.6449340668482264, 0.2020569031595943, 0.08232323371113819, 0.03692775514336993,
            0.01734306198444914, 0.008349277381922827, 0.00407735619794434, 0.0020083928260822143,
            0.0009945751278180853, 0.0004941886041194645, 0.0002460865533080483,
            0.00012271334757848915, 6.124813505870483e-05, 3.058823630702049e-05,
            1.528225940865187e-05, 7.637197637899763e-06, 3.81729326499984e-06,
            1.908212716553939e-06, 9.539620338727962e-07, 4.769329867878064e-07,
            2.38450502727733e-07, 1.1921992596531106e-07, 5.960818905125948e-08,
            2.980350351465228e-08, 1.4901554828365043e-08, 7.45071178983543e-09)

# B_2j / (2j (2j - 1)), j = 1..8: Stirling's series of log Gamma(a)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_EULER = 0.5772156649015329
_TOL = 1e-17  # every series stops at a term this small relative to its sum


def _lgamma1p(a: float) -> float:
    """log Gamma(1 + a) for a > 0, without the rounding of 1 + a near a = 0."""
    if a >= 0.5:
        return math.lgamma(1.0 + a)
    s = 0.0
    for j in range(len(_ZETA_M1) + 1, 1, -1):
        s = s * -a + _ZETA_M1[j - 2] / j
    return a * a * s + a * (1.0 - _EULER) - math.log1p(a)


def _mu(d: float) -> float:
    """d - log1p(d) for -0.5 < d < 1, without cancellation: log1p(d) = 2 atanh(t)."""
    t = d / (2.0 + d)
    t2 = t * t
    s, power, n = 1.0 / 3.0, 1.0, 5.0  # s = sum_j t^(2j) / (2j + 3)
    while True:
        power *= t2
        term = power / n
        s += term
        if term < _TOL * s:
            break
        n += 2.0
    return t * (d - 2.0 * t2 * s)


def _a_mu(a: float, y: float) -> tuple[float, float]:
    """a * mu(y/a) = y - a - a log(y/a) as an unevaluated sum hi + lo."""
    d = (y - a) / a
    if -0.5 < d < 1.0:
        return a * _mu(d), 0.0
    s = y - a
    lam = y / a
    w = a * (math.log(lam) if 0.0 < lam < math.inf else math.log(y) - math.log(a))
    h = s - w
    # Fast2Sum of both subtractions: |y| >= |a| and |s| >= |w| when y > a, and
    # the reverse when y < a
    if y > a:
        return h, ((y - s) - a) + (-w - (h - s))
    return h, (y - (s + a)) + (s - (h + w))


@functools.lru_cache(maxsize=16)
def _temme_poly(a: float) -> tuple[float, ...]:
    """sum_k C_k(eta) / a^k as a polynomial in eta, highest power first.

    Cached: callers sweep y at one a (the quantile's steps, the Fisher curves).
    """
    coefs = [0.0] * len(_TEMME[0])
    scale = 1.0
    for row in _TEMME:
        for n, d in enumerate(row):
            coefs[n] += d * scale
        scale /= a
    return tuple(reversed(coefs))


@functools.lru_cache(maxsize=16)
def _scale(a: float) -> float:
    """a**a e**-a / Gamma(a)."""
    if a < 10.0:
        return math.exp(a * (math.log(a) - 1.0)) / math.gamma(a)
    w = 1.0 / (a * a)  # Stirling's series
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(-s / a)


def _gamma_pq(a: float, y: float) -> tuple[float, float, float]:
    """(P(a, y), Q(a, y), y**a e**-y / Gamma(a)) for a > 0 and 0 <= y <= inf.

    The smaller of P and Q carries a relative error of a few ulps times
    (1 + a * mu); the last value is y times the gamma density at y.
    """
    if y == 0.0:
        return 0.0, 1.0, 0.0
    if y == math.inf or a == 0.0:  # a = k/2 underflows for the least k: all mass at 0
        return 1.0, 0.0, 0.0
    d = (y - a) / a
    if a >= _TEMME_MIN_A and -_TEMME_MAX_D < d < _TEMME_MAX_D:
        # Q = erfc(eta sqrt(a/2))/2 + e^(-a eta^2/2) / sqrt(2 pi a) * sum_k C_k(eta) / a^k
        mu = _mu(d)
        eta = math.copysign(math.sqrt(2.0 * mu), d)
        total = 0.0
        for coef in _temme_poly(a):
            total = total * eta + coef
        r = math.copysign(math.sqrt(a * mu), d)
        e = math.exp(-a * mu)
        rem = e / math.sqrt(2.0 * math.pi * a) * total
        return 0.5 * math.erfc(-r) - rem, 0.5 * math.erfc(r) + rem, e * _scale(a)
    if y <= 1.1 and not ((y <= 0.5 and a > -0.4 / math.log(y)) or (y > 0.5 and a > 1.1 * y)):
        # Q = 1 - y^a / Gamma(1 + a) - y^a / Gamma(a) * sum_{n>=1} (-y)^n / (n! (a + n))
        e = a * math.log(y) - _lgamma1p(a)
        fac, total, n = 1.0, 0.0, 1.0
        while True:
            fac *= -y / n
            term = fac / (a + n)
            total += term
            if term * term <= _TOL * _TOL * total * total:
                break
            n += 1.0
        q = -math.expm1(e) - a * math.exp(e) * total
        return 1.0 - q, q, a * math.exp(e - y)
    hi, lo = _a_mu(a, y)
    pre = math.exp(-hi) * (1.0 - lo) * _scale(a)
    if y < a:
        if pre == 0.0:
            return 0.0, 1.0, pre
        # P = y^a e^-y / Gamma(a + 1) * sum_{n>=0} y^n / ((a + 1) ... (a + n))
        term = total = 1.0
        ap = a
        while True:
            ap += 1.0
            term *= y / ap
            total += term
            if term < _TOL * total:
                break
        p = pre / a * total
        return p, 1.0 - p, pre
    if pre == 0.0:
        return 1.0, 0.0, pre
    # Q = y^a e^-y / Gamma(a) * 1/(y + 1 - a - 1 (1 - a)/(y + 3 - a - 2 (2 - a)/(y + 5 - a - ...)))
    tiny = 1e-300
    b = y + 1.0 - a
    c = 1.0 / tiny
    dd = h = 1.0 / b
    i = 1.0
    while True:
        an = -i * (i - a)
        b += 2.0
        dd = an * dd + b
        if dd == 0.0:
            dd = tiny
        c = b + an / c
        if c == 0.0:
            c = tiny
        dd = 1.0 / dd
        delta = dd * c
        h *= delta
        # an integer a ends the fraction, with delta = 1 to within an ulp
        if -2.0 ** -52 <= delta - 1.0 <= 2.0 ** -52:
            break
        i += 1.0
    q = pre * h
    return 1.0 - q, q, pre


def chi2_sf(x: float, k: float) -> float:
    """Chi-square survival function P(X >= x) with k degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(k/2, x/2) in scalar
    math code, for degrees of freedom into the billions.  The relative error
    is a few ulps times the depth of the tail, about -log(Q): within 1e-13
    down to Q = 1e-300 on the grid tested against mpmath.  Deep tails
    underflow to 0.0.
    """
    x, k = float(x), float(k)
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"chi2_sf requires finite k > 0, got {k!r}")
    if not x >= 0.0:
        raise ValueError(f"chi2_sf requires x >= 0, got {x!r}")
    return _gamma_pq(0.5 * k, 0.5 * x)[1]


def chi2_quantile(p: float, k: float) -> float:
    """Upper-tail chi-square quantile: the x with chi2_sf(x, k) = p.

    Solves the smaller tail, Q(k/2, x/2) = p or P(k/2, x/2) = 1 - p, for log x
    by Halley steps from the Wilson-Hilferty start.  Both tails are log-concave
    in log x (the log of a gamma variable has a log-concave density), so the
    steps cannot run away from the root.
    """
    p, k = float(p), float(k)
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"chi2_quantile requires finite k > 0, got {k!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"chi2_quantile requires 0 < p < 1, got {p!r}")
    from statistics import NormalDist  # C code, but 6 ms to import: only needed here

    a = 0.5 * k
    if a == 0.0:
        return 0.0
    lower = p > 0.5
    target = math.log1p(-p) if lower else math.log(p)
    c = 1.0 - 2.0 / (9.0 * k) - NormalDist().inv_cdf(p) * math.sqrt(2.0 / (9.0 * k))
    # where Wilson-Hilferty fails (small k): 1 - p = P ~ y^a / Gamma(1 + a)
    y = 0.5 * k * c ** 3 if c > 0.0 else math.exp((math.log1p(-p) + _lgamma1p(a)) / a)
    for _ in range(100):
        if y == 0.0:  # the quantile underflows
            break
        p_y, q_y, f = _gamma_pq(a, y)
        tail = p_y if lower else q_y
        if tail == 0.0 or f == 0.0:  # underflow far out in a tail: step toward the bulk
            y *= math.e if y < a else 1.0 / math.e
            continue
        # g = log(tail) - target as a function of v = log y: g' = +-r, g''/g' = s
        r = f / tail
        g = math.log(tail) - target
        step, s = (g / r, (a - y) - r) if lower else (-g / r, (a - y) + r)
        h = 1.0 - 0.5 * step * s
        if 0.5 < h < 2.0:
            step /= h
        step = max(-1.0, min(1.0, step))
        y *= math.exp(-step)
        if abs(step) * (1.0 + abs(s)) < 2e-6:  # Halley's next error ~ (step * s)^3
            break
    return 2.0 * y

