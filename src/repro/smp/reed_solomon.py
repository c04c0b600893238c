"""Reed–Solomon codes over GF(2^q) by polynomial evaluation.

An ``[n_sym, k_sym]`` RS code encodes ``k_sym`` message symbols as the
evaluations of the degree-``< k_sym`` message polynomial at ``n_sym``
distinct field points.  Minimum distance is exactly
``n_sym − k_sym + 1`` (MDS) — the certified outer distance of the
concatenated construction in :mod:`repro.smp.codes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import CodingError
from repro.smp.galois import GF


@dataclass(frozen=True)
class ReedSolomonCode:
    """``[n_sym, k_sym]`` Reed–Solomon code over GF(2^q).

    Attributes
    ----------
    field:
        The symbol field.
    n_sym:
        Codeword length in symbols; at most ``2^q`` (we evaluate at the
        points ``0, 1, ..., n_sym − 1``).
    k_sym:
        Message length in symbols; ``1 ≤ k_sym ≤ n_sym``.
    """

    field: GF
    n_sym: int
    k_sym: int

    def __post_init__(self) -> None:
        if not 1 <= self.k_sym <= self.n_sym:
            raise CodingError(
                f"need 1 <= k_sym <= n_sym, got k={self.k_sym}, n={self.n_sym}"
            )
        if self.n_sym > self.field.order:
            raise CodingError(
                f"n_sym={self.n_sym} exceeds field size {self.field.order}"
            )

    @property
    def min_distance(self) -> int:
        """Exact minimum distance ``n_sym − k_sym + 1`` (MDS property)."""
        return self.n_sym - self.k_sym + 1

    @property
    def relative_distance(self) -> float:
        """``min_distance / n_sym``."""
        return self.min_distance / self.n_sym

    @property
    def rate(self) -> float:
        """``k_sym / n_sym``."""
        return self.k_sym / self.n_sym

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Encode ``k_sym`` symbols into ``n_sym`` evaluation symbols."""
        msg = np.asarray(message, dtype=np.int64)
        if msg.shape != (self.k_sym,):
            raise CodingError(
                f"message must have {self.k_sym} symbols, got shape {msg.shape}"
            )
        if msg.size and (msg.min() < 0 or msg.max() >= self.field.order):
            raise CodingError("message symbols outside the field")
        points = np.arange(self.n_sym, dtype=np.int64)
        return self.field.poly_eval(msg, points)

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        """Encode a ``(batch, k_sym)`` message matrix in one shot.

        Codeword-for-codeword identical to calling :meth:`encode` on each
        row, but routed through :meth:`repro.smp.galois.GF.poly_eval_many`
        (one power-table matrix product instead of ``k_sym`` Horner steps
        per message).
        """
        msgs = np.asarray(messages, dtype=np.int64)
        if msgs.ndim != 2 or msgs.shape[1] != self.k_sym:
            raise CodingError(
                f"messages must have shape (batch, {self.k_sym}), got "
                f"{msgs.shape}"
            )
        if msgs.size and (msgs.min() < 0 or msgs.max() >= self.field.order):
            raise CodingError("message symbols outside the field")
        points = np.arange(self.n_sym, dtype=np.int64)
        return self.field.poly_eval_many(msgs, points)
