"""Immutable discrete distributions over ``{0, ..., n-1}``.

The paper works with an unknown distribution ``μ`` on a domain of known size
``n``; everything a tester may do is draw i.i.d. samples.  This module gives
that object a concrete, validated, hashable-ish form with efficient vectorised
sampling.

Design notes
------------
- Probabilities are stored as a read-only ``float64`` array that sums to 1
  within a strict tolerance; construction validates and normalises.
- Sampling uses ``Generator.choice`` with the probability vector, which is
  ``O(s log n)`` per batch and fully vectorised -- fast enough for the
  multi-million-sample sweeps in the benchmarks.
- ``choice`` is inverse-CDF sampling under the hood, and the class exposes
  the two halves separately: :meth:`DiscreteDistribution.sample_uniform`
  draws the ``U[0, 1)`` driver values (consuming the generator exactly as
  :meth:`DiscreteDistribution.sample` would) and
  :meth:`DiscreteDistribution.index_quantiles` maps driver values to
  outcomes through a cached guide table, bit-identical to ``choice``'s own
  ``searchsorted``.  The trial planes' collision kernel
  (:func:`repro.zeroround.network.grouped_collision`) draws only the
  doubles and pays the quantile lookup just for the few pairs that could
  collide.
- The class is deliberately *final-style* and value-semantic: all deriving
  operations (:meth:`mix`, :meth:`conditioned_on`, :meth:`permuted`) return
  new instances.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import InvalidDistributionError, ParameterError
from repro.rng import SeedLike, ensure_rng

#: Absolute tolerance when checking that a probability vector sums to one.
_SUM_ATOL = 1e-9


class DiscreteDistribution:
    """A probability distribution on the domain ``{0, ..., n-1}``.

    Parameters
    ----------
    probs:
        Non-negative weights; normalised to sum to one.  Must be non-empty
        and contain at least one strictly positive entry.
    name:
        Optional human-readable label used in experiment tables.

    Examples
    --------
    >>> d = DiscreteDistribution([0.5, 0.25, 0.25], name="demo")
    >>> d.n
    3
    >>> d.prob(0)
    0.5
    """

    __slots__ = ("_probs", "_name", "_cached_collision", "_cached_quantiles")

    def __init__(self, probs: Union[Sequence[float], np.ndarray], name: str = "") -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidDistributionError(
                f"probability vector must be 1-dimensional, got shape {arr.shape}"
            )
        if arr.size == 0:
            raise InvalidDistributionError("probability vector must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise InvalidDistributionError("probability vector contains NaN or inf")
        if np.any(arr < 0):
            worst = float(arr.min())
            raise InvalidDistributionError(f"negative probability mass: {worst}")
        total = float(arr.sum())
        if total <= 0:
            raise InvalidDistributionError("probability vector has zero total mass")
        if abs(total - 1.0) > 1e-6:
            raise InvalidDistributionError(
                f"probability vector sums to {total}, expected 1 (pre-normalise "
                "explicitly if this is intended weight data)"
            )
        arr = arr / total
        arr.setflags(write=False)
        self._probs = arr
        self._name = name
        self._cached_collision: Optional[float] = None
        self._cached_quantiles: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Domain size ``|Ω|``."""
        return int(self._probs.size)

    def require_domain(self, n: int) -> None:
        """Raise :class:`~repro.exceptions.ParameterError` unless the
        domain size is ``n`` — the size a tester was calibrated for."""
        if self.n != n:
            raise ParameterError(
                f"tester calibrated for n={n}, distribution has n={self.n}"
            )

    @property
    def name(self) -> str:
        """Human-readable label (may be empty)."""
        return self._name

    @property
    def probs(self) -> np.ndarray:
        """The read-only probability vector."""
        return self._probs

    def prob(self, x: int) -> float:
        """Probability of outcome *x*."""
        return float(self._probs[x])

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self._probs > 0)

    def support_size(self) -> int:
        """Number of outcomes with strictly positive mass."""
        return int(np.count_nonzero(self._probs > 0))

    def is_uniform(self, atol: float = 1e-12) -> bool:
        """Whether this is (numerically) the uniform distribution on ``[n]``."""
        return bool(np.allclose(self._probs, 1.0 / self.n, atol=atol, rtol=0.0))

    # ------------------------------------------------------------------
    # Moments and functionals
    # ------------------------------------------------------------------

    def collision_probability(self) -> float:
        """``χ(μ) = Σ_x μ(x)²``, the probability two i.i.d. samples collide.

        The uniform distribution minimises this at ``1/n`` (Section 3.1 of
        the paper); Lemma 3.2 lower-bounds it by ``(1+ε²)/n`` for ε-far
        distributions.  Cached because the testers' analyses query it often.
        """
        if self._cached_collision is None:
            self._cached_collision = float(np.dot(self._probs, self._probs))
        return self._cached_collision

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        p = self._probs[self._probs > 0]
        return float(-np.sum(p * np.log(p)))

    def renyi2_entropy(self) -> float:
        """Collision (Rényi-2) entropy in nats: ``-ln χ(μ)``.

        This is the quantity the paper's lower-bound proof tracks (Section
        7.1): high collision entropy implies low collision probability.
        """
        return float(-np.log(self.collision_probability()))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw *size* i.i.d. samples.

        Parameters
        ----------
        size:
            Number of samples; must be non-negative.
        rng:
            Seed or generator (see :func:`repro.rng.ensure_rng`).

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(size,)`` with values in ``[0, n)``.
        """
        if size < 0:
            raise ValueError(f"sample size must be >= 0, got {size}")
        gen = ensure_rng(rng)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        return gen.choice(self.n, size=size, p=self._probs).astype(np.int64)

    def sample_uniform(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """The ``U[0, 1)`` driver draws behind :meth:`sample` — same stream.

        ``Generator.choice`` with a probability vector is inverse-CDF
        sampling: it draws *size* uniform doubles, then maps each through
        a ``searchsorted`` on the cumulative weights.  This method performs
        only the drawing half, consuming the generator identically, so

        ``index_quantiles(sample_uniform(size, seed)) == sample(size, seed)``

        holds exactly, value for value.  The trial planes exploit the
        split: draw every trial's doubles in one call, then quantile-map
        only the draws a collision test cannot settle from the gaps.
        """
        if size < 0:
            raise ValueError(f"sample size must be >= 0, got {size}")
        gen = ensure_rng(rng)
        if size == 0:
            return np.empty(0, dtype=np.float64)
        return gen.random(size)

    def _quantile_tables(self) -> tuple:
        """Cached ``(cdf, buckets, guide, max_bin_width)`` for exact
        inverse-CDF lookup.

        The CDF is normalised exactly as ``Generator.choice`` normalises
        it (``cumsum`` then divide by the last entry), so lookups agree
        with :meth:`sample` bit for bit.  The guide table brackets, for
        each of ``buckets`` equal slices of ``[0, 1)``, the CDF indices a
        driver draw in that slice can map to; ``buckets`` is a power of
        two so the bucket of a draw is computed exactly in binary
        floating point.
        """
        if self._cached_quantiles is None:
            cdf = self._probs.cumsum()
            cdf /= cdf[-1]
            buckets = 1 << max(1, int(np.ceil(np.log2(4.0 * self.n))))
            guide = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
            width = float(np.diff(cdf, prepend=0.0).max())
            cdf.setflags(write=False)
            guide.setflags(write=False)
            self._cached_quantiles = (cdf, buckets, guide, width)
        return self._cached_quantiles

    def index_quantiles(self, u: np.ndarray) -> np.ndarray:
        """Map driver draws *u* to outcomes, bit-identical to :meth:`sample`.

        Computes exactly ``searchsorted(cdf, u, side="right")`` — the
        mapping inside ``Generator.choice`` — via the bucketed guide
        table: each draw's bucket narrows the answer to a bracket
        ``[guide[b], guide[b+1]]``, finished off by a short vectorised
        bisection (one step for near-uniform distributions, ``log`` of
        the largest same-value run in the worst case).  No per-call
        cumulative-sum rebuild, so this is much cheaper than ``choice``
        itself.
        """
        cdf, buckets, guide, _ = self._quantile_tables()
        u = np.asarray(u, dtype=np.float64)
        if u.size and (float(u.min()) < 0.0 or float(u.max()) >= 1.0):
            raise ValueError("driver draws must lie in [0, 1)")
        bucket = (u * buckets).astype(np.int64)
        lo = guide[bucket]
        hi = guide[bucket + 1]
        while True:
            width = hi - lo
            if not width.any():
                break
            mid = lo + (width >> 1)
            go = cdf[mid] <= u
            lo = np.where(go, mid + 1, lo)
            hi = np.where(go, hi, mid)
        return lo.astype(np.int64)

    def max_bin_width(self) -> float:
        """Largest single-outcome step of the normalised CDF.

        Two driver draws can map to the same outcome only if they differ
        by at most this — the gap test
        :func:`repro.zeroround.network.grouped_collision` uses to discard
        almost every sorted-adjacent pair before doing an exact
        :meth:`index_quantiles` lookup on the survivors.
        """
        return self._quantile_tables()[3]

    def sample_matrix(self, rows: int, cols: int, rng: SeedLike = None) -> np.ndarray:
        """Draw a ``rows x cols`` matrix of i.i.d. samples.

        Convenient for simulating *k* nodes with *s* samples each in one
        vectorised call: ``sample_matrix(k, s)``.
        """
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix shape must be non-negative, got {(rows, cols)}")
        flat = self.sample(rows * cols, rng)
        return flat.reshape(rows, cols)

    def sample_uniform_matrix(
        self, rows: int, cols: int, rng: SeedLike = None
    ) -> np.ndarray:
        """Driver-draw matrix: ``rows × cols`` doubles, same stream as
        :meth:`sample_matrix`.

        The matrix form of :meth:`sample_uniform` — one generator call for
        a whole trial batch, so
        ``index_quantiles(sample_uniform_matrix(r, c, seed))`` equals
        ``sample_matrix(r, c, seed)`` exactly.  The SMP trial plane draws
        every trial's driver doubles this way and quantile-maps the slots
        afterwards.
        """
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix shape must be non-negative, got {(rows, cols)}")
        flat = self.sample_uniform(rows * cols, rng)
        return flat.reshape(rows, cols)

    # ------------------------------------------------------------------
    # Deriving new distributions
    # ------------------------------------------------------------------

    def mix(self, other: "DiscreteDistribution", weight: float) -> "DiscreteDistribution":
        """Convex combination ``weight·self + (1-weight)·other``.

        Both distributions must share the same domain size.
        """
        if other.n != self.n:
            raise InvalidDistributionError(
                f"cannot mix distributions on domains of size {self.n} and {other.n}"
            )
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"mixing weight must be in [0, 1], got {weight}")
        mixed = weight * self._probs + (1.0 - weight) * other._probs
        return DiscreteDistribution(mixed, name=f"mix({self._name},{other._name},{weight})")

    def permuted(self, permutation: Sequence[int]) -> "DiscreteDistribution":
        """Relabel outcomes by *permutation* (``new[p[i]] = old[i]``).

        Uniformity and all symmetric functionals are invariant under this
        operation -- a property the test suite exploits.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.n,) or not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise ValueError("permutation must be a rearrangement of range(n)")
        out = np.empty_like(self._probs)
        out[perm] = self._probs
        return DiscreteDistribution(out, name=f"perm({self._name})")

    def conditioned_on(self, event: Iterable[int]) -> "DiscreteDistribution":
        """The conditional distribution given the outcome lies in *event*.

        The domain size is preserved; mass outside *event* becomes zero.
        """
        mask = np.zeros(self.n, dtype=bool)
        idx = np.fromiter(event, dtype=np.int64)
        mask[idx] = True
        restricted = np.where(mask, self._probs, 0.0)
        total = restricted.sum()
        if total <= 0:
            raise InvalidDistributionError("conditioning event has zero probability")
        return DiscreteDistribution(restricted / total, name=f"cond({self._name})")

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._probs, other._probs))

    def __hash__(self) -> int:  # value-semantic hash on the rounded vector
        return hash((self.n, self._probs.round(12).tobytes()))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<DiscreteDistribution{label} n={self.n} chi={self.collision_probability():.3g}>"
