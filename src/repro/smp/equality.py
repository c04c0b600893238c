"""The Lemma 7.3 SMP Equality protocol (torus chunks over a good code).

Setting: Alice holds ``X``, Bob holds ``Y`` (``n`` bits each); each sends
one message to a referee who outputs Equal / Not-equal.  Target error
regime: perfect acceptance when ``X = Y``, rejection probability at least
``τδ`` when ``X ≠ Y`` — the asymmetric regime of Theorem 7.2, matched by
this protocol's ``O(√(τδn))`` worst-case bits.

Protocol:

1. Both encode their input with a constant-rate code of certified relative
   distance ``Δ`` and lay the codeword out as an ``L × L`` torus
   (zero-padded; padding positions agree so they never cause rejection).
2. Alice picks a uniformly random cell and sends a **vertical** chunk of
   ``t`` wrapped cells starting there; Bob sends a **horizontal** chunk.
3. The chunks cross in at most one cell; if they do, the referee compares
   the two bits and rejects on a mismatch, otherwise accepts.

The crossing cell is uniform on the torus, so for ``X ≠ Y`` the rejection
probability is ``(t/L)² · (#differing cells)/L² ≥ (t²/L²) · Δ·m/L²``;
choosing ``t = ⌈L²·√(τδ / (Δ·m))⌉`` meets the ``τδ`` target with
communication ``t + 2⌈log₂ L⌉`` bits per player.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import CodingError, ParameterError
from repro.experiments.runner import check_engine_check, check_trials, error_rate
from repro.rng import SeedLike, ensure_rng, seed_of
from repro.smp._validation import check_message_bits
from repro.smp.codes import ConcatenatedCode


@dataclass(frozen=True)
class TorusChunkMessage:
    """One player's message: a start cell and ``t`` chunk bits."""

    row: int
    col: int
    bits: Tuple[int, ...]

    def size_in_bits(self, side: int) -> int:
        """Declared communication cost: coordinates + chunk."""
        coord_bits = max(1, math.ceil(math.log2(side)))
        return 2 * coord_bits + len(self.bits)


@dataclass(frozen=True)
class EqualityProtocol:
    """Runnable Lemma 7.3 protocol for ``n_bits``-bit inputs.

    Examples
    --------
    >>> proto = EqualityProtocol.build(n_bits=256, delta=0.05, tau=2.0)
    >>> proto.chunk_length >= 1
    True
    """

    code: ConcatenatedCode
    side: int
    chunk_length: int
    delta: float
    tau: float

    @staticmethod
    def build(
        n_bits: int,
        delta: float,
        tau: float,
        code: Optional[ConcatenatedCode] = None,
    ) -> "EqualityProtocol":
        """Construct the protocol for the given error regime.

        Raises
        ------
        ParameterError
            If ``τδ`` exceeds what even full-row/column chunks achieve
            (rejection is capped by the code's effective distance).
        """
        n_bits = check_message_bits(n_bits)
        if not 0.0 < delta < 1.0 or tau <= 1.0:
            raise ParameterError(f"need delta in (0,1), tau > 1; got {(delta, tau)}")
        the_code = code or ConcatenatedCode.for_message_bits(n_bits)
        if the_code.message_bits < n_bits:
            raise CodingError(
                f"code carries {the_code.message_bits} bits < input {n_bits}"
            )
        m = the_code.codeword_bits
        side = int(math.ceil(math.sqrt(m)))
        # Effective distance on the padded torus: >= Delta*m out of side^2.
        diff_cells = the_code.relative_distance * m
        target = tau * delta
        # reject prob = (t/side)^2 * diff_cells/side^2  =>  solve for t.
        t = int(math.ceil(math.sqrt(target * side**4 / diff_cells)))
        if t > side:
            raise ParameterError(
                f"tau*delta={target:.4g} exceeds the protocol's maximum "
                f"rejection {diff_cells / side**2:.4g} at full chunks; "
                "use a lower tau*delta or a longer code"
            )
        return EqualityProtocol(
            code=the_code,
            side=side,
            chunk_length=max(1, t),
            delta=delta,
            tau=tau,
        )

    # ------------------------------------------------------------------
    # Predicted quantities
    # ------------------------------------------------------------------

    @property
    def communication_bits(self) -> int:
        """Worst-case bits per player (the Lemma 7.3 headline)."""
        coord_bits = max(1, math.ceil(math.log2(self.side)))
        return 2 * coord_bits + self.chunk_length

    @property
    def rejection_probability_bound(self) -> float:
        """Guaranteed rejection probability for any unequal inputs."""
        diff_cells = self.code.relative_distance * self.code.codeword_bits
        return (self.chunk_length / self.side) ** 2 * diff_cells / self.side**2

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _torus(self, input_bits: np.ndarray) -> np.ndarray:
        word = self.code.encode(input_bits)
        padded = np.zeros(self.side * self.side, dtype=np.int64)
        padded[: word.size] = word
        return padded.reshape(self.side, self.side)

    def alice_message(self, x: np.ndarray, rng: SeedLike = None) -> TorusChunkMessage:
        """Alice's vertical chunk from a random start cell."""
        gen = ensure_rng(rng)
        table = self._torus(x)
        row = int(gen.integers(self.side))
        col = int(gen.integers(self.side))
        rows = (row + np.arange(self.chunk_length)) % self.side
        return TorusChunkMessage(
            row=row, col=col, bits=tuple(int(b) for b in table[rows, col])
        )

    def bob_message(self, y: np.ndarray, rng: SeedLike = None) -> TorusChunkMessage:
        """Bob's horizontal chunk from a random start cell."""
        gen = ensure_rng(rng)
        table = self._torus(y)
        row = int(gen.integers(self.side))
        col = int(gen.integers(self.side))
        cols = (col + np.arange(self.chunk_length)) % self.side
        return TorusChunkMessage(
            row=row, col=col, bits=tuple(int(b) for b in table[row, cols])
        )

    def referee(self, alice: TorusChunkMessage, bob: TorusChunkMessage) -> bool:
        """Referee decision: ``True`` = accept (equal).

        The chunks cross iff Bob's row lies in Alice's row range and
        Alice's column lies in Bob's column range (mod the torus); on a
        crossing, compare the two copies of that cell.
        """
        row_offset = (bob.row - alice.row) % self.side
        col_offset = (alice.col - bob.col) % self.side
        if row_offset >= self.chunk_length or col_offset >= self.chunk_length:
            return True
        return alice.bits[row_offset] == bob.bits[col_offset]

    def run(
        self, x: np.ndarray, y: np.ndarray, rng: SeedLike = None
    ) -> Tuple[bool, int]:
        """One protocol execution; returns ``(accepted, max message bits)``."""
        gen = ensure_rng(rng)
        msg_a = self.alice_message(x, gen)
        msg_b = self.bob_message(y, gen)
        cost = max(msg_a.size_in_bits(self.side), msg_b.size_in_bits(self.side))
        return self.referee(msg_a, msg_b), cost

    def estimate_rejection(
        self, x: np.ndarray, y: np.ndarray, trials: int, rng: SeedLike = None
    ) -> float:
        """Monte-Carlo rejection rate on the input pair ``(x, y)``.

        Encodes once and replays the chunk choices — equivalent to full
        executions because the encoding is deterministic.
        """
        trials = check_trials(trials)
        gen = ensure_rng(rng)
        table_a = self._torus(np.asarray(x))
        table_b = self._torus(np.asarray(y))
        side, t = self.side, self.chunk_length
        a_rows = gen.integers(0, side, size=trials)
        a_cols = gen.integers(0, side, size=trials)
        b_rows = gen.integers(0, side, size=trials)
        b_cols = gen.integers(0, side, size=trials)
        row_off = (b_rows - a_rows) % side
        col_off = (a_cols - b_cols) % side
        crossing = (row_off < t) & (col_off < t)
        rejected = 0
        if crossing.any():
            rows = b_rows[crossing]
            cols = a_cols[crossing]
            rejected = int(
                (table_a[rows, cols] != table_b[rows, cols]).sum()
            )
        return rejected / trials

    def estimate_error(
        self,
        x: np.ndarray,
        y: np.ndarray,
        trials: int,
        rng: SeedLike = None,
        fast_path: bool = True,
        engine_check: float = 0.0,
    ) -> float:
        """Monte-Carlo error rate on ``(x, y)``: fraction of trials whose
        referee verdict disagrees with the ground truth ``x == y``.

        The trials' stream follows ``rng``
        (:func:`~repro.experiments.runner.error_rate`).
        ``fast_path=True`` (the default; seed-like rng only) routes them
        through the vectorised
        :class:`~repro.smp.smp_plane.EqualityTrialRunner` —
        bit-identical flags per seed, with ``engine_check`` re-running
        that fraction of the trials through the scalar :meth:`run` and
        raising :class:`~repro.exceptions.SimulationError` on divergence.
        """
        from repro.smp.smp_plane import EqualityTrialRunner

        check_engine_check(engine_check)
        if fast_path:
            runner = EqualityTrialRunner.for_torus(
                self, x, y, base_seed=seed_of(rng)
            )
            return float(runner.run_flags(trials, engine_check).mean())
        runner = EqualityTrialRunner.for_torus(self, x, y)
        return error_rate(runner.scalar, trials, rng, *runner.labels).rate
