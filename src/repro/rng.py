"""Deterministic randomness management.

Every randomized component in this library draws randomness from a
:class:`numpy.random.Generator`.  Nothing ever touches process-global random
state, which keeps experiments reproducible and lets tests pin seeds.

Five helpers cover the common needs:

- :func:`ensure_rng` normalises "anything seed-like" (``None``, an ``int``, a
  ``SeedSequence`` or an existing ``Generator``) into a ``Generator``.
- :func:`seed_of` reads the base seed of a seed-like ``rng`` (``None`` or
  an ``int``) for keyed streams, rejecting a shared ``Generator``.
- :func:`spawn` derives ``count`` statistically independent child generators
  from a parent via ``SeedSequence`` spawning (the collision-safe numpy
  idiom), used to give each simulated network node its own private coins
  (the paper's protocols are all *private coin*).  :func:`spawn_lazy` is the
  deferred form the simulator uses: same streams, but each child generator
  is only materialised if its node actually draws randomness.
- :func:`derive` derives a generator keyed by ``(seed, *labels)`` — the
  stable per-configuration streams the experiment harness is built on.
- :func:`derive_many` is the vectorised form of :func:`derive` over a run of
  integer tail labels, bit-identical to calling :func:`derive` in a loop but
  hashing all the trailing indices with one batch of numpy ops.  The trial
  engine (:mod:`repro.experiments.runner`) uses it to key its chunk streams.

Example
-------
>>> rng = ensure_rng(7)
>>> children = spawn(rng, 3)
>>> [int(c.integers(100)) for c in children]  # doctest: +SKIP
[51, 92, 14]
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError

#: Anything accepted as a source of randomness by :func:`ensure_rng`.
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

_FNV_OFFSET = 1469598103934665603  # FNV-1a offset basis
_FNV_PRIME = 1099511628211
_MASK63 = (1 << 63) - 1


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, a ``SeedSequence``, or
        an existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def seed_of(rng: SeedLike) -> int:
    """The base seed of a seed-like *rng*: ``None`` → 0, an ``int`` → itself;
    anything else (a ``Generator``: no seed to key streams by) raises."""
    if rng is None:
        return 0
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    raise ParameterError(
        "this route needs a seed-like rng (None or an int) to key its "
        f"streams, got {type(rng).__name__}"
    )


def spawn(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive *count* independent child generators from *rng*.

    Children are spawned from the parent's underlying ``SeedSequence``
    (``Generator.spawn``), numpy's collision-safe derivation: child streams
    are guaranteed independent and the parent's *bit stream* is untouched
    (only its spawn counter advances, so successive calls yield fresh
    children).  This mirrors giving each network node its own private coin
    flips.  Generators without an attached seed sequence fall back to
    seeding children from parent draws.

    Parameters
    ----------
    rng:
        Parent generator.
    count:
        Number of children; must be non-negative.

    Returns
    -------
    list[numpy.random.Generator]
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    try:
        return list(rng.spawn(count))
    except (AttributeError, TypeError, ValueError):
        # Pre-SeedSequence generator (e.g. wrapping a bare BitGenerator):
        # legacy 63-bit integer seeding, still deterministic per parent state.
        seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
        return [np.random.default_rng(int(s)) for s in seeds]


class _LazySpawn:
    """Shared deferred spawn state behind :func:`spawn_lazy`.

    Nothing is derived until the first ``get``; that call spawns all
    ``count`` child seed sequences at once (so the assignment of stream to
    index is deterministic no matter which index asks first), and each
    index's ``Generator`` is then built on demand.
    """

    __slots__ = ("_rng", "_count", "_sources")

    def __init__(self, rng: np.random.Generator, count: int) -> None:
        self._rng = rng
        self._count = count
        self._sources: Optional[list] = None

    def get(self, index: int) -> np.random.Generator:
        sources = self._sources
        if sources is None:
            rng = self._rng
            try:
                bitgen = rng.bit_generator
                cls = type(bitgen)
                sources = [(cls, ss) for ss in bitgen.seed_seq.spawn(self._count)]
            except (AttributeError, TypeError, ValueError):
                # No spawnable seed sequence: eager legacy fallback.
                sources = [(None, g) for g in spawn(rng, self._count)]
            self._sources = sources
            self._rng = None  # the parent is no longer needed; drop the ref
        cls, src = sources[index]
        if cls is None:
            return src
        return np.random.Generator(cls(src))


def spawn_lazy(
    rng: np.random.Generator, count: int
) -> List[Callable[[], np.random.Generator]]:
    """Fully deferred :func:`spawn`: derive nothing until a factory is called.

    Calling factory ``i`` yields a generator bit-identical to
    ``spawn(rng, count)[i]`` evaluated at the first access (all ``count``
    child seed sequences spawn together then, so stream-to-node assignment
    does not depend on access order).  The simulator hands every node a
    private-coin factory this way: when a protocol never flips a coin — the
    common case — the run pays nothing for node randomness.

    Unlike :func:`spawn`, the parent's spawn counter only advances if some
    factory is actually invoked; callers that interleave spawn-based and
    lazy derivations on one parent generator should not rely on unused lazy
    spawns reserving streams.

    Parameters
    ----------
    rng:
        Parent generator.
    count:
        Number of children; must be non-negative.

    Returns
    -------
    list of zero-argument callables, each returning a fresh ``Generator``
    (one per call; callers should memoise if they need a stable stream).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    holder = _LazySpawn(rng, count)
    return [(lambda i=i: holder.get(i)) for i in range(count)]


def derive(rng_or_seed: SeedLike, *labels: Union[str, int]) -> np.random.Generator:
    """Derive a generator keyed by *labels* without disturbing the parent.

    Unlike :func:`spawn`, this does not advance the parent stream when the
    parent is given as an ``int`` seed: the child seed is a stable hash of
    ``(seed, *labels)``.  Useful when an experiment wants per-configuration
    reproducibility ("chunk 17 of sweep point (n=1000, k=8)") independent of
    iteration order.  The hash of the label *prefix* is memoised, so deriving
    many streams that share all but their final label (the trial-engine
    pattern) does not re-hash the prefix each time.

    Parameters
    ----------
    rng_or_seed:
        Base seed or generator.  A ``Generator`` parent falls back to
        :func:`spawn` semantics (one child, spawn counter advances).
    labels:
        Hashable labels mixed into the child seed.
    """
    if isinstance(rng_or_seed, np.random.Generator):
        return spawn(rng_or_seed, 1)[0]
    base = 0 if rng_or_seed is None else int(np.random.SeedSequence(rng_or_seed).entropy)
    mixed = np.random.SeedSequence([base & _MASK63, _labels_key(labels)])
    return np.random.default_rng(mixed)


def derive_many(
    rng_or_seed: SeedLike,
    *labels: Union[str, int],
    count: int,
    start: int = 0,
) -> List[np.random.Generator]:
    """Vectorised :func:`derive` over integer tail labels.

    Returns ``count`` generators where entry ``i`` is bit-identical to
    ``derive(rng_or_seed, *labels, start + i)``, but all the tail-index
    hashing happens in a handful of vectorised numpy passes (one per decimal
    digit position) instead of a pure-Python byte loop per stream.

    Parameters
    ----------
    rng_or_seed:
        Base seed.  A ``Generator`` parent falls back to :func:`spawn`
        semantics (``count`` children, spawn counter advances).
    labels:
        Shared label prefix.
    count:
        Number of consecutive streams; must be non-negative.
    start:
        First tail index; must be non-negative.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if isinstance(rng_or_seed, np.random.Generator):
        return spawn(rng_or_seed, count)
    if count == 0:
        return []
    base = 0 if rng_or_seed is None else int(np.random.SeedSequence(rng_or_seed).entropy)
    base &= _MASK63
    keys = _index_keys(_prefix_state(labels), start, count)
    return [
        np.random.default_rng(np.random.SeedSequence([base, int(key)]))
        for key in keys
    ]


# ---------------------------------------------------------------------------
# FNV-1a label hashing (63-bit), scalar + vectorised forms
# ---------------------------------------------------------------------------


def _fnv_extend(acc: int, label: Union[str, int]) -> int:
    """Fold one label's UTF-8 bytes into a running 63-bit FNV-1a state."""
    for byte in str(label).encode("utf-8"):
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _MASK63
    return acc


@lru_cache(maxsize=4096)
def _prefix_state(labels: Tuple[Union[str, int], ...]) -> int:
    """Memoised FNV-1a state after hashing a label prefix."""
    if not labels:
        return _FNV_OFFSET
    return _fnv_extend(_prefix_state(labels[:-1]), labels[-1])


def _labels_key(labels: tuple) -> int:
    """Stable non-negative integer key for a tuple of str/int labels."""
    if not labels:
        return _FNV_OFFSET
    return _fnv_extend(_prefix_state(labels[:-1]), labels[-1])


def _index_keys(prefix: int, start: int, count: int) -> np.ndarray:
    """FNV-1a keys for the decimal strings of ``start .. start+count-1``.

    Vectorised digit-at-a-time: position ``j`` of every index is folded into
    all states in one uint64 pass.  Multiplication wraps mod 2**64 and the
    state is re-masked to 63 bits each step, which matches the scalar
    ``(acc * prime) % 2**63`` exactly (the low 63 bits of a product depend
    only on the low 64 bits of its factors).
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    # Decimal digit count per index (index 0 renders as "0": one digit).
    ndigits = np.ones(count, dtype=np.int64)
    upper = 10
    top = start + count - 1
    while upper <= top:
        ndigits[idx >= np.uint64(upper)] += 1
        upper *= 10
    acc = np.full(count, prefix, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask = np.uint64(_MASK63)
    zero_byte = np.uint64(ord("0"))
    max_digits = int(ndigits.max())
    for pos in range(max_digits):
        active = ndigits > pos
        # Digit `pos` counted from the most significant digit.
        shift = (ndigits[active] - 1 - pos).astype(np.uint64)
        digit = (idx[active] // np.power(np.uint64(10), shift)) % np.uint64(10)
        byte = digit + zero_byte
        acc[active] = ((acc[active] ^ byte) * prime) & mask
    return acc
