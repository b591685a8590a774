"""Shared numeric utilities: RNG streams, empirical samples, the sample writer.

Everything downstream (simulators, estimators, couplings) goes through this
module for reproducible random number generation and for passes over an
n-array, so the contracts here are deliberately narrow and heavily tested.
The chi-square tails are scalar math code in bounds, their only caller.
"""

from __future__ import annotations

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


def _snap_window(values: np.ndarray, loc: float) -> tuple[int, int]:
    """[lo, hi): the indices of the sorted values v with abs(v - loc) <= _ATOM_TOL,
    in float arithmetic.  v - loc rounds monotonically in v, so they are one
    index range, and each edge is found by stepping from loc -+ _ATOM_TOL to
    the last double on that side that passes."""
    edges = []
    for side in (-1.0, 1.0):
        x = loc + side * _ATOM_TOL
        while abs(x - loc) > _ATOM_TOL:
            x = math.nextafter(x, loc)
        while abs((y := math.nextafter(x, side * math.inf)) - loc) <= _ATOM_TOL:
            x = y
        edges.append(x)
    return (int(np.searchsorted(values, edges[0], side="left")),
            int(np.searchsorted(values, edges[1], side="right")))


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
    on short tables (about 10x on 2 entries)."""
    dtype = np.min_scalar_type(len(table))
    if table.ndim == 1 and table.size > 64:
        return np.searchsorted(table, u, side="right").astype(dtype)
    count = np.zeros(np.shape(u), dtype=dtype)
    for row in table:
        count += u >= row
    return count


def _thresholds(weights) -> np.ndarray:
    """The cumulative sums of weights along axis 0 but the last: a categorical
    draw is the count of thresholds <= u (see _searchsorted_right) for u =
    random() in [0, 1), always a valid index, whatever the total rounds to."""
    return np.cumsum(weights, axis=0)[:-1]


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
