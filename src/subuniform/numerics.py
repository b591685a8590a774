"""Shared numeric utilities: special functions, RNG streams, empirical samples.

Everything downstream (bounds, simulators, couplings) goes through this module
for chi-square tail work and reproducible random number generation, so the
contracts here are deliberately narrow and heavily tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "RngStream",
    "EmpiricalSample",
    "chi2_sf",
    "chi2_quantile",
    "ks_statistic",
]

# values per block, for frequency runs and for passes over a sorted sample
_BLOCK = 1 << 16

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

    def substream(self, offset: int) -> "RngStream":
        """A sibling stream; used when one operation needs several streams."""
        return RngStream(self.seed, self.stream_id + offset)


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

        The same float as values.var(), in O(_BLOCK) extra memory instead of
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

    def ecdf(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.values, x, side="right") / self.n


def _sum_sq_dev(x: np.ndarray, mean: float) -> float:
    """Sum of (x - mean)**2 in the order numpy's pairwise sum adds an n-array.

    numpy splits a contiguous sum at n // 2 rounded down to a multiple of 8
    and adds the two halves' sums; pieces of at most _BLOCK values are summed
    by numpy itself, which follows the same tree inside them.
    """
    if x.size <= _BLOCK:
        d = x - mean
        return np.add.reduce(np.multiply(d, d, out=d))
    h = x.size // 2
    h -= h % 8
    return _sum_sq_dev(x[:h], mean) + _sum_sq_dev(x[h:], mean)


def _run_blocks(values: np.ndarray, snap: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The runs of equal values of a sorted array, one block of values at a time.

    Yields (starts, ends, vals) for the runs that end in each block of _BLOCK
    values: the index of each run's first value, the index one past its last,
    and its value.  snap, if given, maps each block's values before runs are
    found and must keep them sorted.  Extra memory is O(_BLOCK).
    """
    n = values.size
    start = 0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        v = values[lo:hi + 1]  # one value past the block shows whether its last run ends in it
        if snap is not None:
            v = snap(v)
        ends = lo + 1 + np.flatnonzero(v[1:] != v[:-1])
        if hi == n:
            ends = np.append(ends, n)
        if ends.size:
            starts = np.concatenate([[start], ends[:-1]])
            start = int(ends[-1])
            yield starts, ends, v[ends - 1 - lo]


def _write_values(fh: TextIO, values: np.ndarray) -> None:
    """Write values one per line as %.17g (the bytes of np.savetxt(fmt="%.17g")),
    formatting one block at a time."""
    for lo in range(0, values.size, _BLOCK):
        fh.write("".join(f"{x:.17g}\n" for x in values[lo:lo + _BLOCK].tolist()))


def chi2_sf(x: float, k: float) -> float:
    """Chi-square survival function P(X >= x) with k degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(k/2, x/2); stable
    for degrees of freedom into the billions.
    """
    if not k > 0:
        raise ValueError(f"chi2_sf requires k > 0, got {k!r}")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"chi2_sf requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    from scipy import special  # imported on use: only the chi-square tails need scipy

    return float(special.gammaincc(k / 2.0, x / 2.0))


def chi2_quantile(p: float, k: float) -> float:
    """Upper-tail chi-square quantile: the t with chi2_sf(t, k) = p.

    Closed form: t = 2 * Q^-1(k/2, p), with Q^-1 the inverse of the
    regularized upper incomplete gamma that chi2_sf evaluates.
    """
    if not k > 0:
        raise ValueError(f"chi2_quantile requires k > 0, got {k!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"chi2_quantile requires 0 < p < 1, got {p!r}")
    from scipy import special

    return float(2.0 * special.gammainccinv(k / 2.0, p))


def ks_statistic(sample: EmpiricalSample, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov sup-distance between a sample and a continuous CDF.

    Standard form: max over order statistics v_(i) of
    max(i/n - F(v_i), F(v_i) - (i-1)/n).
    """
    v = sample.values
    n = sample.n
    f = np.asarray(cdf(v), dtype=float)
    if f.shape != v.shape:
        raise ValueError("cdf must evaluate elementwise on the sample")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus, 0.0))
