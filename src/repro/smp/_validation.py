"""Shared parameter checks for the SMP protocol builders.

Trial counts are validated by :func:`repro.experiments.runner.check_trials`;
this module keeps the input-length check, so a float, bool or
non-positive ``n_bits`` raises :class:`~repro.exceptions.ParameterError`
up front.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError


def check_message_bits(n_bits) -> int:
    """Validate an input length in bits: a positive integer, returned as a
    plain ``int``."""
    if isinstance(n_bits, bool) or not isinstance(n_bits, (int, np.integer)):
        raise ParameterError(f"n_bits must be an integer, got {n_bits!r}")
    if n_bits < 1:
        raise ParameterError(f"n_bits must be >= 1, got {n_bits}")
    return int(n_bits)
