"""The tail percentile rule and failure counting for the benchmark's reports."""

from __future__ import annotations

import statistics

MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it


def p90(values) -> float | None:
    """The 90th percentile (numpy's default linear method), or None when
    fewer than MIN_TAIL samples lie beyond it."""
    if len(values) < 10 * MIN_TAIL:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Tally:
    """Operations attempted and failed. An operation fails at most once,
    whatever number of checks it fails; every failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.reasons: dict[int, str] = {}

    def record(self, index: int, error: str | None = None):
        self.attempted = max(self.attempted, index + 1)
        if error is not None:
            self.reasons.setdefault(index, error)

    @property
    def failed(self) -> int:
        return len(self.reasons)
