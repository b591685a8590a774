"""Shared numeric utilities: special functions, RNG streams, empirical samples.

Everything downstream (bounds, simulators, couplings) goes through this module
for chi-square tail work and reproducible random number generation, so the
contracts here are deliberately narrow and heavily tested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "RngStream",
    "EmpiricalSample",
    "chi2_sf",
    "chi2_quantile",
]

# values per RNG block of a frequency run: it fixes which generator draws
# which replicate, so changing it changes every simulated sample
_BLOCK = 1 << 16

# values per piece of every pass over an n-array (128 KB of float64, about
# the size of L2): a pass's temporaries stay small enough for glibc's malloc
# to reuse them from piece to piece instead of faulting fresh pages
_WALK = 1 << 14

# how far a sample value may lie from an atom and count as on it (see tail_prob)
_ATOM_TOL = 1e-9


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Streams are derived with numpy's SeedSequence: stream (seed, stream_id)
    seeds a PCG64 generator from SeedSequence(seed, spawn_key=(stream_id,)),
    and block b of a blocked computation uses spawn_key=(stream_id, b).
    Identical (seed, stream_id) always yields the identical sequence; distinct
    stream_ids (or block indices) give statistically independent generators.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (0 <= int(self.stream_id) < 2**64):
            raise ValueError("stream_id must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        """Generator for single-stream use."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def block_generator(self, block: int) -> np.random.Generator:
        """Generator for one block of a statically partitioned computation.

        The partition is independent of worker count, so blocked runs are
        bit-identical no matter how they are scheduled.
        """
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, block))
        return np.random.Generator(np.random.PCG64(ss))


class EmpiricalSample:
    """A sorted sample of real values with the summaries used by the checks.

    Values are stored sorted ascending; order of generation is not kept.
    EmpiricalSample(values) sorts a copy and never reorders the caller's
    array.  Package code that builds a float array for the sample alone hands
    it over with _owned=True, and it is sorted in place, so the sample is held
    in one n-array.
    """

    __slots__ = ("values", "n")

    def __init__(self, values: np.ndarray | Iterable[float], *, _owned: bool = False):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if arr.size == 0:
            raise ValueError("sample must be non-empty")
        if _owned:
            arr.sort()
        else:
            arr = np.sort(arr)
        # sorting puts -inf first and +inf and nan last
        if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "n", int(arr.size))

    def __setattr__(self, name, value):  # immutable once built
        raise AttributeError("EmpiricalSample is immutable")

    def __len__(self) -> int:
        return self.n

    def mean(self) -> float:
        return float(self.values.mean())

    def variance(self) -> float:
        """Population variance; callers needing the unbiased one scale by n/(n-1).

        The same float as values.var(), in O(_WALK) extra memory instead of
        an n-array of squared deviations (see _sum_sq_dev).
        """
        mean = np.add.reduce(self.values) / self.n
        return float(_sum_sq_dev(self.values, mean) / self.n)

    def tail_prob(self, alpha: float) -> float:
        """Empirical P(X <= alpha).

        Values within _ATOM_TOL of alpha count as <= alpha: model p-values
        that are mathematically equal to an atom location carry float rounding
        of a few ulp, and a strict cutoff would split such an atom arbitrarily.
        The same tolerance decides, everywhere in the package, which sample
        values sit on an atom.
        """
        k = np.searchsorted(self.values, alpha + _ATOM_TOL, side="right")
        return float(k) / self.n

    def atom_frequency(self, location: float) -> float:
        """Fraction of the sample within +-_ATOM_TOL of location."""
        lo = np.searchsorted(self.values, location - _ATOM_TOL, side="left")
        hi = np.searchsorted(self.values, location + _ATOM_TOL, side="right")
        return float(hi - lo) / self.n


def _sum_sq_dev(x: np.ndarray, mean: float) -> float:
    """Sum of (x - mean)**2 in the order numpy's pairwise sum adds an n-array.

    numpy splits a contiguous sum at n // 2 rounded down to a multiple of 8
    and adds the two halves' sums; pieces of at most _WALK values are summed
    by numpy itself, which follows the same tree inside them.
    """
    if x.size <= _WALK:
        d = x - mean
        return np.add.reduce(np.multiply(d, d, out=d))
    h = x.size // 2
    h -= h % 8
    return _sum_sq_dev(x[:h], mean) + _sum_sq_dev(x[h:], mean)


def _run_blocks(values: np.ndarray, snap: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The runs of equal values of a sorted array, one piece of values at a time.

    Yields (starts, ends, vals) for the runs that end in each piece of _WALK
    values: the index of each run's first value, the index one past its last,
    and its value.  snap, if given, maps each piece's values before runs are
    found and must keep them sorted.  Extra memory is O(_WALK).
    """
    n = values.size
    start = 0
    for lo in range(0, n, _WALK):
        hi = min(lo + _WALK, n)
        v = values[lo:hi + 1]  # one value past the piece shows whether its last run ends in it
        if snap is not None:
            v = snap(v)
        ends = lo + 1 + np.flatnonzero(v[1:] != v[:-1])
        if hi == n:
            ends = np.append(ends, n)
        if ends.size:
            starts = np.concatenate([[start], ends[:-1]])
            start = int(ends[-1])
            yield starts, ends, v[ends - 1 - lo]


def _pieces(n: int) -> Iterator[slice]:
    """Slices of range(n) of _WALK values each, the last one holding the
    rest: up to _WALK + 1 values, so that it is never one value alone unless
    n is 1.

    exact_ppp evaluated piece by piece then gives the floats it gives on a
    whole RNG block: numpy sums its (k, m) array of weighted survival
    probabilities over axis 0 row by row for m >= 2, but a (k, 1) array in
    pairwise order, which rounds differently for k >= 9.
    """
    lo = 0
    while n - lo > _WALK + 1:
        yield slice(lo, lo + _WALK)
        lo += _WALK
    yield slice(lo, n)


def _searchsorted_right(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(table, u, side="right") for a sorted table.

    Up to 64 entries the result is counted, one comparison pass per entry,
    into uint8: a binary search mispredicts a branch per key, which costs
    more than the passes on short tables (about 10x on 2 entries); above 64
    entries the search is faster.
    """
    if table.size > 64:
        return np.searchsorted(table, u, side="right")
    count = np.zeros(np.shape(u), dtype=np.uint8)
    for t in table:
        count += u >= t
    return count


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for finite a: sort, then drop each value equal to its
    predecessor.  np.unique imports numpy.ma, about 18 ms of a cold start."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


# ------------------------------------------------------------------ the sample writer

def _ceil_pow10(k: int) -> float:
    """The smallest double >= 10**k, so that x >= _ceil_pow10(k) iff x >= 10**k."""
    if k >= 0:
        return float(10 ** k)
    v = 1 / 10 ** -k  # int / int rounds correctly
    a, b = v.as_integer_ratio()
    return math.nextafter(v, math.inf) if a * 10 ** -k < b else v


def _format_tables():
    # %g at precision 17 prints fixed notation for -4 <= k < 17 and scientific
    # below.  A row's head is its text up to and including the first digit d0,
    # with the point when d0 is followed by one: NUL-padded on the left to one
    # uint64, at ((k - _EXP_MIN) * 10 + d0) * 2 + has_more.  Its tail is the
    # exponent, if any, and the newline.
    heads, tails = [], []
    for k in range(_EXP_MIN, 1):
        for d0 in "0123456789":
            for more in (False, True):
                text = "0." + "0" * (-k - 1) + d0 if -4 <= k < 0 else d0 + "." * more
                heads.append(int.from_bytes(text.rjust(8, "\0").encode(), "little"))
        tails.append(int.from_bytes((f"e-{-k:02d}\n" if k < -4 else "\n").ljust(8, "\0").encode(),
                                    "little"))
    q = np.arange(10000, dtype=np.uint32)  # 0000 to 9999 as 4 ASCII bytes
    digits4 = sum((48 + q // 10 ** (3 - j) % 10) << (8 * j) for j in range(4)).astype("<u4")
    return np.array(heads, dtype=_WORD), np.array(tails, dtype=_WORD), digits4


# Values in [10**_EXP_MIN, 10) are formatted in bulk.  The bound below is the
# last decimal exponent k with 10**(16 - k) an exact double; p-values are at
# most 1, and larger values would move the point into the digits.
_EXP_MIN = -6
_WORD = np.dtype("<u8")  # 8 bytes of text, first byte lowest on any host
_EXP_FLOORS = np.array([_ceil_pow10(k) for k in range(_EXP_MIN + 1, 1)])
_FAST_LO = _ceil_pow10(_EXP_MIN)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_SCALES = np.array([float(10 ** (16 - k)) for k in range(_EXP_MIN, 1)])
_SCALES_HI = _SCALES * _SPLIT - (_SCALES * _SPLIT - _SCALES)
_SCALES_LO = _SCALES - _SCALES_HI
_HEADS, _TAILS, _DIGITS4 = _format_tables()
_ROW = 32  # bytes per row: head, two words of digits, tail; the longest %.17g line has 25
# values formatted at once.  At 2048 no temporary of a chunk passes 64 KiB
# and glibc's malloc reuses them all; from 3072 on it handed them back to the
# system after each chunk, and writing 5e5 values page-faulted 18k-36k times
# and took 1.4-2x as long.
_WRITE_CHUNK = 1 << 11


def _format_chunk(x: np.ndarray) -> str:
    """The lines f"{v:.17g}\\n" of x as one string, with no Python work per
    value in [10**_EXP_MIN, 10).

    With k the decimal exponent of v, Dekker's product gives hi + lo =
    v * 10**(16 - k) exactly, in [1e16, 1e17).  hi >= 2**53 is an even
    integer, so hi + rint(lo) is the product rounded half-even to an integer:
    the 17 significant digits of %.17g, correctly rounded as Python rounds.
    Each row is laid out in 32 bytes, NULs between its parts, and the NULs
    of the chunk are dropped at the end.  Other values (0, negatives, tiny,
    large, nan, inf) are formatted by Python and spliced in.
    """
    m = x.size
    fast = (x >= _FAST_LO) & (x < 10.0)
    slow = np.flatnonzero(~fast)
    v = np.where(fast, x, 1.0) if slow.size else x
    i = _searchsorted_right(_EXP_FLOORS, v).astype(np.intp)  # k - _EXP_MIN, as an index
    hi = v * _SCALES[i]
    c = v * _SPLIT
    vh = c - (c - v)
    vl = v - vh
    sh, sl = _SCALES_HI[i], _SCALES_LO[i]
    lo = ((vh * sh - hi) + vh * sl + vl * sh) + vl * sl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17  # rounded up to the next power of ten (only for k < 0)
    d -= carry * (9 * 10 ** 16)
    i += carry
    q = d // 10 ** 8
    first = q // 10 ** 8
    eight = np.stack([q - first * 10 ** 8, d - q * 10 ** 8], axis=1)
    hi4 = eight // 10 ** 4
    four = np.stack([hi4, eight - hi4 * 10 ** 4], axis=2).reshape(m, 4)
    digits = _DIGITS4[four].view(_WORD)  # (m, 2): the 16 digits after the first
    # NUL out the trailing '0' digits: 0x80 marks each byte that holds another
    # digit, is spread to every byte below it, and, when the second word keeps
    # a digit, over the whole first word
    keep = ((digits ^ 0x3030303030303030) + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    for shift in (8, 16, 32):
        keep |= keep >> shift
    keep[:, 0] |= (keep[:, 1] & 0x80) * 0x0101010101010101
    digits &= (keep >> 7) * 0xFF
    rows = np.empty((m, 4), dtype=_WORD)
    rows[:, 0] = _HEADS[(first + 10 * i) * 2 + (digits[:, 0] != 0)]
    rows[:, 1:3] = digits
    rows[:, 3] = _TAILS[i]
    text = rows.view(np.uint8)
    if slow.size:
        other = "".join(f"{w:.17g}\n".ljust(_ROW, "\0") for w in x[slow].tolist())
        text[slow] = np.frombuffer(other.encode(), dtype=np.uint8).reshape(-1, _ROW)
    text = text.ravel()
    return str(text[text != 0], "ascii")


def _write_values(fh: TextIO, values: np.ndarray) -> None:
    """Write values one per line as %.17g (the bytes of np.savetxt(fmt="%.17g")
    and of f"{x:.17g}"), formatting one chunk at a time."""
    for lo in range(0, values.size, _WRITE_CHUNK):
        fh.write(_format_chunk(values[lo:lo + _WRITE_CHUNK]))


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

