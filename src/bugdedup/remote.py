"""HTTP clients for external embedding and pair-classification services.

Wire protocols (JSON over POST):

* embed:    {"texts": ["..."]}             -> {"dim": D, "vectors": [[...]]}
* classify: {"pairs": [["a", "b"], ...]}   -> {"probabilities": [...]}

Requests are batched per config and results re-assembled in order.
``RemoteClassifier`` is a pair backend like those in ``classifier``: it
returns the service's probabilities and carries a ``threshold``, and the
cascade runner decides and counts. Each client sends its batches over
one keep-alive HTTP session; close the client to release its
connection. Every contract violation maps to a typed error so callers
can tell a flaky network from a broken service.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
import requests

from .corpus import BugReport


class RemoteError(RuntimeError):
    pass


class RemoteTimeoutError(RemoteError):
    pass


class ServiceStatusError(RemoteError):
    """Service answered with a non-200 status."""


class MalformedResponseError(RemoteError):
    pass


class CountMismatchError(RemoteError):
    pass


class DimMismatchError(RemoteError):
    pass


class ProbabilityRangeError(RemoteError):
    pass


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    timeout_ms: int = 10000
    batch_size: int = 32
    retries: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


def _post_json(session: requests.Session, config: RemoteConfig, payload: dict) -> dict:
    last: Exception | None = None
    for _ in range(config.retries + 1):
        try:
            response = session.post(
                config.endpoint, json=payload, timeout=config.timeout_ms / 1000.0
            )
        except (requests.Timeout, requests.ConnectionError) as exc:
            last = exc
            continue
        if response.status_code != 200:
            raise ServiceStatusError(
                f"{config.endpoint} answered {response.status_code}: {response.text[:200]}"
            )
        try:
            body = response.json()
        except ValueError as exc:
            raise MalformedResponseError(f"{config.endpoint} returned non-JSON body") from exc
        if not isinstance(body, dict):
            raise MalformedResponseError(f"{config.endpoint} returned {type(body).__name__}, expected object")
        return body
    raise RemoteTimeoutError(
        f"{config.endpoint} unreachable after {config.retries + 1} attempt(s): {last}"
    ) from last


class RemoteEmbedder:
    """Order-preserving batched client for an embedding service.

    The vector dimension is whatever the service declares on the first
    batch; later batches must agree or the whole call fails.
    """

    def __init__(self, config: RemoteConfig):
        self.config = config
        self._dim: int | None = None
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    @property
    def dim(self) -> int | None:
        return self._dim

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self._dim or 0))
        batches = []
        for start in range(0, len(texts), self.config.batch_size):
            batch = list(texts[start : start + self.config.batch_size])
            batches.append(self._embed_batch(batch))
        return np.concatenate(batches)

    def _embed_batch(self, batch: list[str]) -> np.ndarray:
        body = _post_json(self._session, self.config, {"texts": batch})
        if "dim" not in body or "vectors" not in body:
            raise MalformedResponseError("embed response missing 'dim' or 'vectors'")
        dim, vectors = body["dim"], body["vectors"]
        if not isinstance(dim, int) or dim < 1 or not isinstance(vectors, list):
            raise MalformedResponseError(f"embed response malformed: dim={dim!r}")
        if len(vectors) != len(batch):
            raise CountMismatchError(
                f"embed service returned {len(vectors)} vectors for {len(batch)} texts"
            )
        if self._dim is None:
            self._dim = dim
        elif dim != self._dim:
            raise DimMismatchError(f"service changed dim from {self._dim} to {dim} across batches")
        for i, vec in enumerate(vectors):
            if not isinstance(vec, list) or len(vec) != dim:
                raise DimMismatchError(
                    f"vector {i} has length {len(vec) if isinstance(vec, list) else '?'}, expected {dim}"
                )
        array = _finite_array(vectors)
        if array is None:
            i = next(i for i, vec in enumerate(vectors) if _finite_array([vec]) is None)
            raise MalformedResponseError(f"vector {i} contains non-finite or non-numeric values")
        return array


# The element types a JSON number decodes to; bool counts, as an int subclass.
_NUMBER_TYPES = frozenset({int, float, bool})


def _finite_array(rows: list[list]) -> np.ndarray | None:
    """``rows`` as a float array if every element is a finite number, else None.

    The element types are checked once for the whole batch, and
    finiteness once on the array.
    """
    if not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
        return None
    try:
        array = np.array(rows, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    return array if np.isfinite(array).all() else None


class RemoteClassifier:
    """Batched client for a pair-probability service and a pair backend:
    ``classify_batch`` sends each pair as its reports' cleaned texts, in
    batches of ``config.batch_size`` pairs."""

    def __init__(self, config: RemoteConfig, threshold: float = 0.5):
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0,1)")
        self.config = config
        self.threshold = threshold
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    def _classify_batch(self, batch: list[list[str]]) -> list[float]:
        body = _post_json(self._session, self.config, {"pairs": batch})
        if "probabilities" not in body or not isinstance(body["probabilities"], list):
            raise MalformedResponseError("classify response missing 'probabilities'")
        probs = body["probabilities"]
        if len(probs) != len(batch):
            raise CountMismatchError(
                f"classify service returned {len(probs)} probabilities for {len(batch)} pairs"
            )
        for i, p in enumerate(probs):
            if not isinstance(p, (int, float)) or not np.isfinite(p):
                raise MalformedResponseError(f"probability {i} is not a finite number: {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ProbabilityRangeError(f"probability {i} out of [0,1]: {p}")
        return [float(p) for p in probs]

    def classify_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        texts = [[a.clean_text, b.clean_text] for a, b in pairs]
        probs: list[float] = []
        for start in range(0, len(texts), self.config.batch_size):
            probs.extend(self._classify_batch(texts[start : start + self.config.batch_size]))
        return np.array(probs, dtype=np.float64)
