"""The shared nearest-rank percentile.

This module is the single home of the percentile both SLO reports use
(:mod:`repro.serve.metrics` and :mod:`repro.cluster.metrics`).
"""

from __future__ import annotations

import math

__all__ = ["percentile"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below.

    ``q`` in [0, 100]; empty input returns 0.0 (an empty SLO report, not
    an error).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
