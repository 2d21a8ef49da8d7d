"""Exact inference accounting for scenario runs.

The ledger counts embedding calls, pair classifications, and similarity
operations, and times named phases on a monotonic clock. Counters are
incremented under a lock so parallel queries stay exact; scenario
acceptance compares final values against closed-form predictions.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class CostLedger:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.embed_calls = 0
        self.pair_classifications = 0
        self.similarity_ops = 0
        self.wall_clock_ms: dict[str, float] = {}

    def count_embeds(self, n: int = 1) -> None:
        with self._lock:
            self.embed_calls += n

    def count_classifications(self, n: int = 1) -> None:
        with self._lock:
            self.pair_classifications += n

    def count_similarity(self, n: int = 1) -> None:
        with self._lock:
            self.similarity_ops += n

    @contextmanager
    def phase(self, name: str):
        """Accumulate wall-clock time for a named phase."""
        start = time.monotonic()
        try:
            yield
        finally:
            elapsed_ms = (time.monotonic() - start) * 1000.0
            with self._lock:
                self.wall_clock_ms[name] = self.wall_clock_ms.get(name, 0.0) + elapsed_ms

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "embed_calls": self.embed_calls,
                "pair_classifications": self.pair_classifications,
                "similarity_ops": self.similarity_ops,
                "wall_clock_ms": dict(self.wall_clock_ms),
            }
