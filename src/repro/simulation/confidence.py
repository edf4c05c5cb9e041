"""Confidence intervals for Monte Carlo estimates.

The paper quotes its Monte Carlo results at a 99 % confidence level with the
interval width shrinking as the square root of the number of iterations
scaled by the Student-t coefficient.  These helpers compute exactly that, and
also provide the sample-size planner used to decide how many iterations a
target precision needs.

The quantiles come from the standard library, not scipy: the normal one from
:class:`statistics.NormalDist` (Wichura's AS241) and the Student-t one from
:func:`_student_t_quantile`, so that no Monte Carlo run has to import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean.

    Attributes
    ----------
    mean:
        Sample mean of the replications.
    half_width:
        Half-width of the interval; the interval is ``mean ± half_width``.
    confidence:
        Confidence level in ``(0, 1)``, e.g. ``0.99``.
    n_samples:
        Number of replications the interval is based on.
    std_error:
        Standard error of the mean.
    """

    mean: float
    half_width: float
    confidence: float
    n_samples: int
    std_error: float

    @property
    def lower(self) -> float:
        """Return the lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Return the upper bound of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Return whether ``value`` falls inside the interval."""
        return self.lower <= value <= self.upper

    def relative_half_width(self) -> float:
        """Return the half-width relative to the mean (``inf`` for zero mean)."""
        if self.mean == 0.0:
            return float("inf")
        return abs(self.half_width / self.mean)


@dataclass
class StreamingMoments:
    """Mergeable running mean/variance (Chan–Golub–LeVeque).

    Parallel shard workers summarise their samples into ``(n, mean, m2)``
    triples; merging two triples is exact (up to floating-point rounding),
    so a sharded Monte Carlo run can build the same Student-t interval as a
    single pass over the pooled samples — without ever materialising them.

    ``m2`` is the sum of squared deviations from the mean, i.e.
    ``variance(ddof=1) = m2 / (n - 1)``.

    Importance-sampled shards additionally carry the sums of their
    likelihood-ratio weights (``w_sum``/``w2_sum``), which merge additively
    and yield Kish's effective sample size (:meth:`ess`).  The weighted
    estimator itself rides in the samples — each one is already
    ``1 - w * (1 - availability)`` — so the mean/variance arithmetic (and
    therefore every interval) stays bit-identical to the unweighted path;
    the weight sums are purely diagnostic bookkeeping on top.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    w_sum: float = 0.0
    w2_sum: float = 0.0

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], weights: Optional[Sequence[float]] = None
    ) -> "StreamingMoments":
        """Summarise a sample array (and optional weights) into one triple."""
        data = np.asarray(samples, dtype=float)
        if np.any(~np.isfinite(data)):
            raise SimulationError("streaming moments require finite samples")
        if data.size == 0:
            return cls()
        if weights is None:
            w_sum = w2_sum = float(data.size)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != data.shape:
                raise SimulationError(
                    f"weights shape {w.shape} does not match samples shape {data.shape}"
                )
            if np.any(~np.isfinite(w)) or np.any(w < 0.0):
                raise SimulationError("weights must be finite and non-negative")
            w_sum = float(np.sum(w))
            w2_sum = float(np.sum(w * w))
        mean = float(np.mean(data))
        return cls(
            n=int(data.size),
            mean=mean,
            m2=float(np.sum((data - mean) ** 2)),
            w_sum=w_sum,
            w2_sum=w2_sum,
        )

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold ``other`` into this accumulator (in place) and return it."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            self.w_sum, self.w2_sum = other.w_sum, other.w2_sum
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / n
        self.mean = self.mean + delta * other.n / n
        self.n = n
        self.w_sum += other.w_sum
        self.w2_sum += other.w2_sum
        return self

    def ess(self) -> float:
        """Return Kish's effective sample size ``w_sum^2 / w2_sum``.

        Equals ``n`` exactly on unweighted data; accumulators built before
        weights existed (``w2_sum == 0``) also report ``n``.
        """
        if self.w2_sum <= 0.0:
            return float(self.n)
        return self.w_sum * self.w_sum / self.w2_sum

    def variance(self, ddof: int = 1) -> float:
        """Return the (by default sample) variance of the merged data."""
        if self.n <= ddof:
            raise SimulationError(
                f"variance with ddof={ddof} requires more than {ddof} samples, have {self.n}"
            )
        return max(self.m2, 0.0) / (self.n - ddof)

    def std(self, ddof: int = 1) -> float:
        """Return the (by default sample) standard deviation."""
        return math.sqrt(self.variance(ddof=ddof))

    def std_error(self) -> float:
        """Return the standard error of the merged mean."""
        return self.std() / math.sqrt(self.n)

    def interval(self, confidence: float = 0.99) -> ConfidenceInterval:
        """Return the Student-t interval of the merged mean."""
        if self.n < 2:
            raise SimulationError("confidence interval requires at least two samples")
        std_error = self.std_error()
        critical = t_critical(confidence, self.n)
        return ConfidenceInterval(
            mean=self.mean,
            half_width=critical * std_error,
            confidence=float(confidence),
            n_samples=self.n,
            std_error=std_error,
        )


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Return the sum of each run of ``counts[i]`` consecutive ``values``.

    ``np.add.reduceat`` over the run starts; an empty run sums to zero,
    where ``reduceat`` alone would return the next run's first value.
    """
    starts = np.cumsum(counts) - counts
    filled = counts > 0
    if filled.all():
        return np.add.reduceat(values, starts)
    sums = np.zeros(counts.size, dtype=values.dtype)
    if filled.any():
        sums[filled] = np.add.reduceat(values, starts[filled])
    return sums


def segmented_moments(
    samples: Sequence[float],
    counts: Sequence[int],
    weights: Optional[Sequence[float]] = None,
    ones: Optional[Sequence[int]] = None,
) -> "list[StreamingMoments]":
    """Summarise consecutive segments of ``samples`` into moments triples.

    ``counts[i]`` consecutive samples form segment ``i``; the segments must
    tile the sample array exactly.  This is the ``np.add.reduceat``-style
    aggregation of the stacked sweep engine: one pass computes the per-
    segment sums, a second pass the per-segment squared deviations from the
    segment mean, so each triple is numerically identical in construction to
    :meth:`StreamingMoments.from_samples` of that segment (no naive
    ``sum(x^2) - n*mean^2`` cancellation).

    ``ones[i]`` more samples of segment ``i``, each exactly 1.0 with weight
    1, are not listed in ``samples``: they enter the sums as ``ones[i]``
    and the squared deviations as ``ones[i] * (1 - mean)^2``, so a segment
    may list no sample at all.  Without ``ones`` every addition is ``+ 0``
    and each triple keeps its bits.
    """
    data = np.asarray(samples, dtype=float)
    sizes = np.asarray(list(counts), dtype=np.int64)
    extra = np.zeros_like(sizes) if ones is None else np.asarray(list(ones), dtype=np.int64)
    if sizes.size == 0:
        raise SimulationError("segmented moments require at least one segment")
    if extra.shape != sizes.shape or np.any(extra < 0):
        raise SimulationError("one non-negative count of ones is required per segment")
    n = sizes + extra
    if np.any(sizes < 0) or np.any(n < 1):
        raise SimulationError("every segment requires at least one sample")
    if int(sizes.sum()) != data.size:
        raise SimulationError(
            f"segment counts sum to {int(sizes.sum())} but {data.size} samples were given"
        )
    if np.any(~np.isfinite(data)):
        raise SimulationError("streaming moments require finite samples")
    means = (segment_sums(data, sizes) + extra) / n
    deviations = data - np.repeat(means, sizes)
    m2 = segment_sums(deviations * deviations, sizes) + extra * (1.0 - means) ** 2
    if weights is None:
        w_sums = n.astype(float)
        w2_sums = w_sums
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != data.shape:
            raise SimulationError(
                f"weights shape {w.shape} does not match samples shape {data.shape}"
            )
        if np.any(~np.isfinite(w)) or np.any(w < 0.0):
            raise SimulationError("weights must be finite and non-negative")
        w_sums = segment_sums(w, sizes) + extra
        w2_sums = segment_sums(w * w, sizes) + extra
    return [
        StreamingMoments(
            n=int(k), mean=float(mean), m2=float(q), w_sum=float(ws), w2_sum=float(w2s)
        )
        for k, mean, q, ws, w2s in zip(n, means, m2, w_sums, w2_sums)
    ]


def _float_array(samples: Iterable[float]) -> np.ndarray:
    """Return ``samples`` as a float array, copying only non-array iterables."""
    if isinstance(samples, np.ndarray):
        return np.asarray(samples, dtype=float)
    return np.asarray(list(samples), dtype=float)


#: Degrees of freedom from which the Cornish–Fisher expansion alone is the
#: Student-t quantile: its first omitted term is below 1e-16 relative there
#: at every two-sided level up to 0.999.
_CORNISH_FISHER_DOF = 1000


def _log_t_density_constant(dof: float) -> float:
    """Return ``log(Gamma((dof + 1) / 2) / (Gamma(dof / 2) * sqrt(dof * pi)))``.

    From ``a = dof / 2 >= 20`` the log-gamma difference comes from its
    asymptotic series, which is exact to 2e-17 there; ``math.lgamma`` of two
    large, nearly equal arguments would lose up to 1e-13 to cancellation.
    """
    a = 0.5 * dof
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(dof * math.pi)
    r = 1.0 / (a * a)
    ratio = (-1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 - r * 31 / 18432)))) / a
    return ratio - 0.5 * math.log(2.0 * math.pi)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Return the continued fraction of ``I_x(a, b)``, by modified Lentz.

    ``I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * cf``; it converges fast for
    ``x < (a + 1) / (a + b + 2)`` (Numerical Recipes, ``betacf``).
    """
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 2.0**-52:
            return h
    raise SimulationError("incomplete beta continued fraction did not converge")


def _student_t_quantile(tail: float, dof: float) -> float:
    """Return ``t`` with ``P(|T| > t) = tail`` for ``dof`` degrees of freedom.

    The start is the Cornish–Fisher expansion about the normal quantile to
    ``dof^-5`` (Abramowitz & Stegun 26.7.5 give the terms to ``dof^-4``);
    from :data:`_CORNISH_FISHER_DOF` on it is the answer, in O(1).  Below
    that, Newton steps on ``log P(|T| > t)`` use the exact tail, the
    regularised incomplete beta ``I_x(dof / 2, 1 / 2)`` at
    ``x = dof / (dof + t^2)``, and the density.  Over dof 1..1e9 at levels
    0.9-0.999 the result agrees with a 40-digit root to 5e-14 relative.
    """
    z = -NormalDist().inv_cdf(0.5 * tail)
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    g5 = (
        (((((27.0 * z2 + 339.0) * z2 + 930.0) * z2 - 1782.0) * z2 - 765.0) * z2 + 17955.0)
        * z
        / 368640.0
    )
    t = z + (g1 + (g2 + (g3 + (g4 + g5 / dof) / dof) / dof) / dof) / dof
    if dof >= _CORNISH_FISHER_DOF:
        return t
    a = 0.5 * dof
    log_constant = _log_t_density_constant(dof)
    log_tail = math.log(tail)
    for _ in range(100):
        s = t * t / dof
        two_density = 2.0 * math.exp(log_constant - (a + 0.5) * math.log1p(s))
        x = 1.0 / (1.0 + s)
        # x^a (1 - x)^(1/2) / B(a, 1/2) is t times the density at t.
        if x < (a + 1.0) / (a + 2.5):
            q = 0.5 * t * two_density * _beta_continued_fraction(a, 0.5, x) / a
        else:
            q = 1.0 - t * two_density * _beta_continued_fraction(0.5, a, 1.0 - x)
        step = (math.log(q) - log_tail) * q / two_density
        t += step
        # Newton converges quadratically: a step this small leaves an error
        # far below the tail's own rounding.
        if abs(step) <= 1e-9 * t:
            return t
    raise SimulationError(f"Student-t quantile did not converge (tail {tail!r}, dof {dof!r})")


def t_critical(confidence: float, n_samples: int) -> float:
    """Return the two-sided Student-t critical value for the given level."""
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"confidence must lie in (0, 1), got {confidence!r}")
    if n_samples < 2:
        raise SimulationError(f"at least two samples are required, got {n_samples!r}")
    return _student_t_quantile(1.0 - float(confidence), float(n_samples - 1))


def confidence_interval(samples: Sequence[float], confidence: float = 0.99) -> ConfidenceInterval:
    """Return the Student-t confidence interval of the sample mean."""
    data = _float_array(samples)
    if data.size < 2:
        raise SimulationError("confidence interval requires at least two samples")
    if np.any(~np.isfinite(data)):
        raise SimulationError("confidence interval samples must be finite")
    mean = float(np.mean(data))
    std = float(np.std(data, ddof=1))
    std_error = std / math.sqrt(data.size)
    critical = t_critical(confidence, int(data.size))
    return ConfidenceInterval(
        mean=mean,
        half_width=critical * std_error,
        confidence=float(confidence),
        n_samples=int(data.size),
        std_error=std_error,
    )


def required_samples(
    sample_std: float,
    target_half_width: float,
    confidence: float = 0.99,
    max_samples: int = 100_000_000,
) -> int:
    """Return the number of replications needed for a target half-width.

    Uses the normal approximation ``n = (z * s / h)^2`` with one refinement
    step through the Student-t critical value.
    """
    if sample_std < 0.0:
        raise SimulationError(f"standard deviation must be non-negative, got {sample_std!r}")
    if target_half_width <= 0.0:
        raise SimulationError(f"target half-width must be positive, got {target_half_width!r}")
    if sample_std == 0.0:
        return 2
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = max(int(math.ceil((z * sample_std / target_half_width) ** 2)), 2)
    if n > max_samples:
        raise SimulationError(
            f"required sample size {n} exceeds the allowed maximum {max_samples}"
        )
    # One refinement with the t quantile (slightly wider than the normal).
    t = t_critical(confidence, n)
    n = max(int(math.ceil((t * sample_std / target_half_width) ** 2)), 2)
    if n > max_samples:
        raise SimulationError(
            f"required sample size {n} exceeds the allowed maximum {max_samples}"
        )
    return n


def batch_means(samples: Sequence[float], n_batches: int = 20) -> np.ndarray:
    """Return batch means for a (possibly autocorrelated) sample sequence.

    Long single-run simulations produce autocorrelated availability
    estimates; batching restores approximate independence before a
    Student-t interval is applied.
    """
    data = _float_array(samples)
    if n_batches < 2:
        raise SimulationError(f"need at least two batches, got {n_batches!r}")
    if data.size < n_batches:
        raise SimulationError(
            f"cannot form {n_batches} batches from {data.size} samples"
        )
    usable = (data.size // n_batches) * n_batches
    return data[:usable].reshape(n_batches, -1).mean(axis=1)
