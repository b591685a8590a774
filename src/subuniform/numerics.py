"""Shared numeric utilities: RNG streams, empirical samples, the sample writer.

Everything downstream (simulators, estimators, couplings) goes through this
module for reproducible random number generation and for passes over an
n-array, so the contracts here are deliberately narrow and heavily tested.
The chi-square tails are scalar math code in bounds, their only caller.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

# values per RNG block of a frequency run: it fixes which generator draws
# which replicate, so changing it changes every simulated sample
_BLOCK = 1 << 16

# values per piece of every pass over an n-array (64 KB of float64): a pass's
# temporaries stay small enough for glibc's malloc to reuse them from piece to
# piece instead of faulting fresh pages.  At 16384 the temporaries of a lasso
# or simplex piece's p-values were not reused (21k page faults in a 2e6 run,
# against 5.7k); at 4096 the cost per piece outweighs what the cache saves.
_WALK = 1 << 13

# how far a sample value may lie from an atom and count as on it (see _snap_window)
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


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


class EmpiricalSample:
    """A sorted sample of real values with the summaries used by the checks.

    Values are stored sorted ascending; order of generation is not kept.
    EmpiricalSample(values) sorts a copy and never reorders the caller's
    array.  Package code that builds a float array for the sample alone hands
    it over with _owned=True, and it is sorted in place, so the sample is held
    in one n-array.  The values are read-only once sorted.
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
        arr.flags.writeable = False
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

        Values v with v - alpha <= _ATOM_TOL count as <= alpha: model p-values
        that are mathematically equal to an atom location carry float rounding
        of a few ulp, and a strict cutoff would split such an atom arbitrarily.
        One rule, abs(v - loc) <= _ATOM_TOL in float arithmetic (_snap_window),
        decides everywhere in the package which sample values sit on an atom.
        """
        return float(_snap_window(self.values, alpha)[1]) / self.n

    def atom_frequency(self, location: float) -> float:
        """Fraction of the sample within +-_ATOM_TOL of location (_snap_window)."""
        lo, hi = _snap_window(self.values, location)
        return float(hi - lo) / self.n


def _snap_edges(loc: float) -> tuple[float, float]:
    """The least and the greatest double v with abs(v - loc) <= _ATOM_TOL, in
    float arithmetic.  v - loc rounds monotonically in v, so the values on the
    atom are those between the two, and each is found by bisection between
    loc, which passes, and a point 2 * _ATOM_TOL and one ulp of loc away on its
    side, which fails: a bounded search, also for a loc near _ATOM_TOL, whose
    edge lies by 0 among the tiny and subnormal doubles.  An infinite loc is
    its own window; a NaN one has none, and is refused."""
    if math.isnan(loc):
        raise ValueError("a snap location must not be NaN")
    if math.isinf(loc):
        return loc, loc
    edges = []
    for side in (-1.0, 1.0):
        inside, outside = loc, loc + side * (2.0 * _ATOM_TOL + math.ulp(loc))
        while (mid := (inside + outside) / 2.0) not in (inside, outside):
            if abs(mid - loc) <= _ATOM_TOL:
                inside = mid
            else:
                outside = mid
        edges.append(inside)
    return edges[0], edges[1]


def _snap_window(values: np.ndarray, loc: float) -> tuple[int, int]:
    """[lo, hi): the indices of the sorted values v with abs(v - loc) <= _ATOM_TOL
    (between the _snap_edges of loc)."""
    lo, hi = _snap_edges(loc)
    return (int(np.searchsorted(values, lo, side="left")),
            int(np.searchsorted(values, hi, side="right")))


# bins of a _BinSummary: 2**16 bins of [0, 1], each 2**-16 wide, and one more
# above them, [1, 1 + 2**-16), for the values that rounding puts just past 1
# (an r_hat average of conditional p-values of 1 can be 1 + 2**-52)
_BINS = 1 << 16

# edges per block of a pass over a _BinSummary's bins (edge_blocks): the
# convex-order walk holds about a dozen temporaries of a block's size.  At
# 8192 edges glibc gave that heap space back after a block and faulted it in
# again: a check took 220 minor faults in a cold run and 110 on each repeat,
# against 44 and none at 4096.
_EDGE_BLOCK = 1 << 12


class _BinSummary:
    """What simulate reports of a frequency run, folded in block by block
    (add), in O(_BINS) memory for any n: no value is kept.

    Value v falls in bin j = floor(v * _BINS), that is [j, j + 1) / _BINS;
    v * _BINS and its offset t = v * _BINS - j in [0, 1) are exact.  counts[j]
    is the bin's count and shifts[j] the sum of its offsets, in float
    arithmetic: the mass and mean of spreading the bin over its two edges
    (idf._spread_blocks, walked by idf._walk_nodes as a sorted sample's runs
    are).  The arrays have _BINS + 2 entries, one per edge k / _BINS with
    k = 0 to _BINS + 1, that of the last always 0.  For each location given,
    windows holds the exact counts of the values below its snap window and
    up to the window's top (the _snap_edges rule).  The mean and the
    variance are merged block by block, each block's from its own two-pass
    sums (Chan, Golub & LeVeque 1979), so they may differ from those of the
    whole sorted sample in the last bits.
    """

    __slots__ = ("n", "counts", "shifts", "windows", "_edges", "_mean", "_m2")

    def __init__(self, locations: Iterable[float] = ()):
        self.n = 0
        self.counts = np.zeros(_BINS + 2, dtype=np.int32)  # int64 once n needs it (add)
        self.shifts = np.zeros(_BINS + 2)
        self._edges = {float(loc): _snap_edges(loc) for loc in locations}
        self.windows = dict.fromkeys(self._edges, (0, 0))
        self._mean = self._m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        """Fold in one block of values, each in [0, 1] (rounding may put one
        up to 2**-16 above 1)."""
        v = np.asarray(values, dtype=float)
        if not v.size:
            return
        low, high = float(v.min()), float(v.max())
        if not (low >= 0.0 and high * _BINS < _BINS + 1):  # a NaN fails both
            bad = low if not low >= 0.0 else high
            raise ValueError(f"p-values must lie in [0, 1], got {bad!r}")
        for loc, (lo, hi) in self._edges.items():
            below, upto = self.windows[loc]
            self.windows[loc] = (below + int(np.count_nonzero(v < lo)),
                                 upto + int(np.count_nonzero(v <= hi)))
        m = v.size
        if self.n + m > np.iinfo(self.counts.dtype).max:  # one bin may hold them all
            self.counts = self.counts.astype(np.int64)
        one = self.counts.dtype.type(1)  # a Python 1 takes add.at's slow path
        mean = float(np.add.reduce(v)) / m
        m2 = 0.0
        for piece in _pieces(m):  # temporaries of _WALK values, reused piece to piece
            x = v[piece]
            t = x * _BINS
            j = np.floor(t)
            t -= j
            j = j.astype(np.intp)
            np.add.at(self.counts, j, one)
            np.add.at(self.shifts, j, t)
            d = np.subtract(x, mean, out=t)
            m2 += float(np.add.reduce(np.multiply(d, d, out=d)))
        n = self.n + m
        delta = mean - self._mean
        self._mean += delta * (m / n)
        self._m2 += m2 + delta * delta * (self.n * m / n)
        self.n = n

    def edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The edges k / _BINS, k = 0 to _BINS + 1, _EDGE_BLOCK at a time: yields
        (x, below, counts, shifts), the edges, the count of the values below
        each (as floats, exact), and the slices of counts and shifts of the
        bins that start at them."""
        below = 0
        for lo in range(0, _BINS + 2, _EDGE_BLOCK):
            c = self.counts[lo:lo + _EDGE_BLOCK]
            at = np.empty(c.size)
            at[0] = below
            np.cumsum(c[:-1], out=at[1:])
            at[1:] += below
            below += int(c.sum())
            yield np.arange(lo, lo + c.size) / _BINS, at, c, self.shifts[lo:lo + _EDGE_BLOCK]

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        """Population variance, as EmpiricalSample.variance."""
        return self._m2 / self.n

    def tail_prob(self, alpha: float) -> float:
        """EmpiricalSample.tail_prob(alpha), bit for bit; alpha must be one of
        the locations the summary was built with."""
        return float(self.windows[alpha][1]) / self.n


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


def _run_blocks(values: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The runs of equal values of a sorted array, one piece of values at a time.

    Yields (starts, ends, vals) for the runs that end in each piece of _WALK
    values: the index of each run's first value, the index one past its last,
    and its value.  Extra memory is O(_WALK).
    """
    n = values.size
    start = 0
    for lo in range(0, n, _WALK):
        hi = min(lo + _WALK, n)
        v = values[lo:hi + 1]  # one value past the piece shows whether its last run ends in it
        ends = np.flatnonzero(v[1:] != v[:-1])
        ends += lo + 1
        if hi == n:
            ends = np.append(ends, n)
        if ends.size:
            starts = np.empty_like(ends)
            starts[0] = start
            starts[1:] = ends[:-1]
            start = int(ends[-1])
            yield starts, ends, values[ends - 1]


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
    """The count of rows of table <= u, in np.min_scalar_type(len(table)):
    np.searchsorted(table, u, side="right") for a sorted 1-d table.  A row
    may also be a column of thresholds that broadcasts against u, each value's
    own cumulative masses.  Up to 64 rows, or for columns, one comparison pass
    per row: a binary search mispredicts a branch per key, which costs more
    on short tables (about 10x on 2 entries).

    A longer 1-d table is searched with a guide table (Chen & Asau 1974):
    with b the smallest power of two >= len(table), u falls in bucket
    floor(u * b), clamped to [0, b - 1] (u * b is exact, so the buckets are
    [j / b, (j + 1) / b) exactly; NaN goes to the last bucket).  Each value
    starts at its bucket's largest count, the thresholds < (j + 1) / b (all of
    them in the last bucket), and steps down once per pass while the threshold
    below it is > u, in as many passes as the fullest bucket needs.  A table
    whose fullest bucket holds more than _GUIDE_STEPS thresholds is searched by
    np.searchsorted.  On the 255 equal-mass thresholds of a beta22 synthesis,
    no value needs a pass: 2.3 ms against 41 ms for 5e5 values."""
    dtype = np.min_scalar_type(len(table))
    if table.ndim == 1 and table.size > 64:
        return _guide_search(table, u, dtype)
    count = np.zeros(np.shape(u), dtype=dtype)
    for row in table:
        count += u >= row
    return count


# passes of the guide-table search before np.searchsorted is cheaper: a pass
# costs about 2 ns per value, a binary search over more than 64 thresholds 35+
_GUIDE_STEPS = 8


def _guide_search(table: np.ndarray, u: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """_searchsorted_right for a sorted 1-d table of more than 64 thresholds."""
    b = 1 << (table.size - 1).bit_length()
    edges = np.arange(1, b) / b
    start = np.empty(b, dtype=dtype)  # the count at the top of each bucket
    start[:-1] = np.searchsorted(table, edges, side="left")
    start[-1] = table.size
    steps = int(np.max(start[1:] - np.searchsorted(table, edges, side="right")))
    steps = max(steps, int(start[0]))  # the first bucket holds every u < 1 / b
    if steps > _GUIDE_STEPS:
        return np.searchsorted(table, u, side="right").astype(dtype)
    below = np.concatenate([[-np.inf], table])  # below[c]: the threshold under count c
    u = np.asarray(u)
    flat = u.reshape(-1)
    count = np.empty(flat.size, dtype=dtype)
    for piece in _pieces(flat.size):
        v = flat[piece]
        j = np.multiply(v, b)
        np.fmin(j, b - 1, out=j)  # NaN to the last bucket
        np.fmax(j, 0.0, out=j)
        c = start.take(j.astype(np.intp))
        for _ in range(steps):
            c -= below.take(c) > v
        count[piece] = c
    return count.reshape(u.shape)


def _thresholds(weights) -> np.ndarray:
    """The cumulative sums of weights along axis 0 but the last: a categorical
    draw is the count of thresholds <= u (see _searchsorted_right) for u =
    random() in [0, 1), always a valid index, whatever the total rounds to.

    A (k, n) table is summed one row after another, row i being row i - 1
    plus weights[i]: the floats of np.cumsum(weights, axis=0), which walks
    the table in strides of a row (about 1.2 ms against 20 us for an
    estimator block's (2, 65536) posterior); a 1-d table is np.cumsum's."""
    w = np.asarray(weights, dtype=float)
    if w.ndim < 2:
        return np.cumsum(w)[:-1]
    out = np.empty((max(len(w) - 1, 0), *w.shape[1:]))
    out[:1] = w[:1]
    for i in range(1, len(out)):
        np.add(out[i - 1], w[i], out=out[i])
    return out


def _inverse_draws(gen: np.random.Generator, n: int,
                   inverse: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """n inverse-CDF draws: the uniforms all at once, then their inverse piece
    by piece in place, so the temporaries of inverse stay O(_WALK)."""
    u = gen.random(n)
    for piece in _pieces(n):
        u[piece] = inverse(u[piece])
    return u


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
    # %g at precision 17 prints fixed notation for -4 <= k < 17.  A row's head
    # is NULs, the newline that ends the row before it, then its text up to
    # and including the first digit d0, with the point when d0 is followed by
    # one, at (k - _EXP_MIN) * 20 + d0 * 2 + has_more: in 8 bytes, and in 4
    # for k >= -1, where it fits.  The NULs of a row are then one run.
    heads = [("0." + "0" * (-k - 1) + d0 if k < 0 else d0 + "." * more).encode()
             for k in range(_EXP_MIN, 1) for d0 in "0123456789" for more in (False, True)]
    # 0000 to 9999 as 4 ASCII bytes at 2 * g, and at 2 * g + 1 with each
    # trailing '0' a NUL: axis j holds digit j of g
    ascii4 = np.empty((10, 10, 10, 10, 2, 4), dtype=np.uint8)
    for j in range(4):
        ascii4[..., j] = (48 + np.arange(10, dtype=np.uint8)).reshape((10,) + (1,) * (4 - j))
        ascii4[(slice(None),) * j + (0,) * (4 - j) + (1, j)] = 0  # digit j and all after it are 0
    return (np.array([int.from_bytes((b"\n" + h).rjust(8, b"\0"), "little") for h in heads],
                     dtype="<u8"),
            np.array([int.from_bytes((b"\n" + h).rjust(4, b"\0"), "little") if len(h) <= 3 else 0
                      for h in heads], dtype="<u4"),
            ascii4.reshape(-1).view("<u4"))


# Values in [10**_EXP_MIN, 10) are formatted in bulk, all in fixed notation.
# p-values are at most 1, and larger values would move the point into the
# digits; a sub-uniform law puts mass at most 2e-4 below 10**_EXP_MIN.
_EXP_MIN = -4
_EXP_FLOORS = [_ceil_pow10(k) for k in range(_EXP_MIN + 1, 1)]
_FAST_LO = _ceil_pow10(_EXP_MIN)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_SCALES = np.array([float(10 ** (16 - k)) for k in range(_EXP_MIN, 1)])
_SCALES_HI = _SCALES * _SPLIT - (_SCALES * _SPLIT - _SCALES)
_SCALES_LO = _SCALES - _SCALES_HI
# bytes per row: head and four groups of digits.  The head takes 8 bytes, or 4
# when every value of a chunk is >= 0.1 (k >= -1), which makes most rows of
# such a chunk 20 bytes of text and no NUL.  The longest line has 23 bytes.
_ROW = 24
_NARROW_LO = _EXP_FLOORS[-2]
# values formatted at once.  Every temporary of a chunk stays under glibc's
# 128 KiB mmap threshold and comes from the heap; the largest is the (4, m)
# int64 digit groups at 96 KiB.  At 4096 a 160 KiB buffer was mapped afresh:
# a cold simulate --out of 5e5 values faulted 6.6k times, 6.5k at 3072.
_WRITE_CHUNK = 3072


def _format_chunk(x: np.ndarray, tables) -> str:
    """The lines "\\n" + f"{v:.17g}" of x as one string (each line's newline
    leads it), with no Python work per value in [10**_EXP_MIN, 10).

    With k the decimal exponent of v, Dekker's product gives hi + lo =
    v * 10**(16 - k) exactly, in [1e16, 1e17).  hi >= 2**53 is an even
    integer, so hi + rint(lo) is the product rounded half-even to an integer:
    the 17 significant digits of %.17g, correctly rounded as Python rounds.
    k is one number when the chunk's least and greatest values share it, as
    they do in most chunks of a sorted sample.  Each row is laid out in 20 or
    24 bytes (_ROW), NULs in place of its trailing '0' digits and between its
    parts, and the NULs of the chunk are dropped at the end.  Other values
    (0, negatives, tiny, large, nan, inf) are formatted by Python and spliced
    in; a chunk with a line longer than 24 bytes is formatted by Python alone.
    """
    heads, heads4, digits4 = tables
    low, high = float(x.min()), float(x.max())
    v, slow = x, None
    if not (low >= _FAST_LO and high < 10.0):  # a NaN fails both
        fast = (x >= _FAST_LO) & (x < 10.0)
        slow = np.flatnonzero(~fast)
        other = [f"\n{w:.17g}" for w in x[slow].tolist()]
        if max(map(len, other)) > _ROW:
            return "".join(f"\n{w:.17g}" for w in x.tolist())
        v = np.where(fast, x, 1.0)
    k = bisect.bisect_right(_EXP_FLOORS, low)  # k - _EXP_MIN, as an index
    if slow is not None or k != bisect.bisect_right(_EXP_FLOORS, high):
        k = sum(v >= floor for floor in _EXP_FLOORS)  # one per value
    hi = v * _SCALES[k]
    vh = v * _SPLIT
    vh = vh - (vh - v)
    vl = v - vh
    sh, sl = _SCALES_HI[k], _SCALES_LO[k]
    lo = vh * sh - hi + vl * sh + vh * sl + vl * sl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # d is d0 and 16 more digits, never 10**17: the greatest double below
    # 10**(k + 1) lies at least 8e-17 of it below, and rounding to 17 digits
    # carries up from 5e-18.  It splits into d0 and four groups of four.
    g = np.empty((4, x.size), dtype=np.int64)
    top = d // 10 ** 8  # d0 and the first eight
    g[3] = d - top * 10 ** 8
    d0 = top // 10 ** 8
    g[1] = top - d0 * 10 ** 8
    at = 20 * k + 2 * d0 + ((g[1] | g[3]) != 0)  # the head's index: k, d0, has_more
    g[0::2] = g[1::2] // 10 ** 4
    g[1::2] -= g[0::2] * 10 ** 4
    # a group followed only by zero groups takes its ASCII with NULs for its
    # trailing '0' digits
    zero = g[1:] == 0
    zero[1] &= zero[2]
    zero[0] &= zero[1]
    g <<= 1
    g[:3] |= zero
    g[3] |= 1
    width = _ROW if slow is not None or low < _NARROW_LO else _ROW - 4
    # filled column by column: numpy copies into a short strided inner axis
    # one row at a time, which costs three times as much
    rows = np.empty((x.size, width // 4), dtype="<u4")
    if width == _ROW:
        rows[:, :2].view("<u8")[:, 0] = heads.take(at)
    else:
        rows[:, 0] = heads4.take(at)
    for column, group in zip(rows.T[-4:], digits4.take(g)):
        column[...] = group
    text = rows.view(np.uint8)
    if slow is not None:
        text[slow] = np.frombuffer("".join(w.ljust(_ROW, "\0") for w in other).encode(),
                                   dtype=np.uint8).reshape(-1, _ROW)
    text = text.reshape(-1)
    return str(text[text != 0], "ascii")


def _write_values(fh: TextIO, values: np.ndarray) -> None:
    """Write values one per line as %.17g (the bytes of np.savetxt(fmt="%.17g")
    and of f"{x:.17g}"), formatting one chunk at a time."""
    if values.size == 0:
        return
    # built per call (0.25 ms), not on import: the 80 KB of ASCII cost a cold
    # command that imports this module 20 page faults
    tables = _format_tables()
    for lo in range(0, values.size, _WRITE_CHUNK):
        text = _format_chunk(values[lo:lo + _WRITE_CHUNK], tables)
        fh.write(text if lo else text[1:])
    fh.write("\n")
