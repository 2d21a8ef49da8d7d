"""HTTP clients for external embedding and pair-classification services.

Wire protocols (JSON over POST):

* embed:    {"texts": ["..."]}             -> {"dim": D, "vectors": [[...]]}
* classify: {"pairs": [["a", "b"], ...]}   -> {"probabilities": [...]}

Each client sends up to ``RemoteConfig.batch_size`` texts or pairs a
request (256 by default) and re-assembles the results in order. A
service answers each item on its own, so the batch size changes the
number of round trips and never a result.

``RemoteClassifier`` is a pair backend like those in ``classifier``: it
returns the service's probabilities and carries a ``threshold``, and the
cascade runner decides and counts. Every contract violation maps to a
typed error so callers can tell a flaky network from a broken service.

Transport: each client sends its batches over one keep-alive HTTP/1.1
connection (the standard library's ``http.client``); close the client to
release it, or let garbage collection do so. The proxy is read from the
environment once, when the client is built (``HTTP_PROXY``,
``HTTPS_PROXY``, ``ALL_PROXY`` and ``NO_PROXY`` through
``urllib.request``): ``http`` endpoints are sent through it in absolute
form and ``https`` endpoints tunnelled with CONNECT. User info in the
endpoint or proxy URL is sent as Basic credentials, and masked (see
``redact``) in every error and log record that names the URL. A failed
attempt, retried or not, is logged as a WARNING. ``https`` verifies
the server against the system trust store
(``ssl.create_default_context()``, which honours ``SSL_CERT_FILE``).
``REQUESTS_CA_BUNDLE`` and ``~/.netrc`` are not read, and redirects are
not followed: a 3xx answer is a ``ServiceStatusError``.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import re
import select
import ssl
import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Sequence
from urllib.parse import SplitResult, quote, unquote, urlsplit, urlunsplit
from urllib.request import getproxies, proxy_bypass

import numpy as np

from .artifacts import counts
from .corpus import BugReport

logger = logging.getLogger(__name__)


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
    """Where a client posts and how: ``batch_size`` is the most texts or
    pairs one request carries, and ``retries`` how often a timeout or a
    connection failure is tried again. A large batch saves round trips;
    the bound keeps a request body small (a classify request of 256 pairs
    is about 100 KB on the benchmark's corpus) and its reply well inside
    ``timeout_ms``."""

    endpoint: str
    timeout_ms: int = 10000
    batch_size: int = 256
    retries: int = 0

    def __post_init__(self):
        if not _is_service_url(self.endpoint):
            raise ValueError(f"endpoint must be an http or https URL with a host, got {redact(self.endpoint)!r}")
        if not self.timeout_ms >= 1:
            raise ValueError(f"timeout_ms must be >= 1, got {self.timeout_ms!r}")
        counts(self, {"batch_size": 1, "retries": 0})


# A URL's user info: everything between the "//" that opens its authority
# and the authority's last "@", as urlsplit reads it.
_USER_INFO = re.compile(r"^([^/?#@]*//)?[^/?#]*@")


def redact(url: str) -> str:
    """``url`` with its user info, if it has any, masked as ``***``: the
    form in which an error, a log record or an artifact names a URL."""
    return _USER_INFO.sub(r"\1***@", url, count=1)


def _is_service_url(endpoint: str) -> bool:
    try:
        url = urlsplit(endpoint)
        url.port  # raises ValueError on a port that is not a number in range
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


def _basic_auth(url: SplitResult, header: str) -> dict[str, str]:
    """``header`` with Basic credentials from the URL's user info, if it has a password."""
    if url.password is None:
        return {}
    pair = f"{unquote(url.username)}:{unquote(url.password)}".encode("latin-1")
    return {header: "Basic " + base64.b64encode(pair).decode("ascii")}


def _proxy(scheme: str, netloc: str) -> SplitResult | None:
    """The proxy the environment names for ``scheme`` unless it bypasses ``netloc``."""
    proxies = getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or proxy_bypass(netloc):
        return None
    url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if url.scheme != "http" or not url.hostname:
        raise ValueError(f"proxy {redact(proxy)!r} is not an http:// URL with a host")
    return url


def _readable(sock) -> bool:
    """Whether ``sock`` has something to read right now. On an idle
    keep-alive connection that is the server's close (or bytes it
    should not have sent): either way the connection is spent."""
    if hasattr(select, "poll"):  # select() cannot take descriptors >= FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _Connection:
    """One keep-alive connection to ``config.endpoint`` that posts JSON
    and returns the JSON object of a 200 reply.

    Timeouts and connection failures close the connection and are
    retried ``config.retries`` times on a fresh one, each failed attempt
    logged as a WARNING; any other answer is final. An idle connection
    the server has closed is replaced before it is used, at no cost to
    the retries. Errors and log records name the endpoint as ``name``,
    its ``redact``-ed form.
    """

    def __init__(self, config: RemoteConfig):
        self.config = config
        self.name = redact(config.endpoint)
        url = urlsplit(config.endpoint)
        netloc = url.netloc.rpartition("@")[2]
        https = url.scheme == "https"
        # Explicit ports: http.client would read the last group of a bare IPv6 host as one.
        host, port = url.hostname, url.port or (443 if https else 80)
        # Percent-encode spaces and non-ASCII, but not an existing escape.
        self._target = quote(urlunsplit(("", "", url.path or "/", url.query, "")), safe="!#$%&'()*+,/:;=?@[]~")
        self._headers = {"Content-Type": "application/json", **_basic_auth(url, "Authorization")}
        proxy = _proxy(url.scheme, netloc)
        address = (host, port) if proxy is None else (proxy.hostname, proxy.port or 80)
        timeout = config.timeout_ms / 1000.0
        if https:
            context = ssl.create_default_context()
            self._conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
            if proxy is not None:
                self._conn.set_tunnel(host, port, headers=_basic_auth(proxy, "Proxy-Authorization"))
        else:
            self._conn = http.client.HTTPConnection(*address, timeout=timeout)
            if proxy is not None:
                self._target = f"{url.scheme}://{netloc}{self._target}"
                self._headers.update(_basic_auth(proxy, "Proxy-Authorization"))
        # Idempotent, and also run when the connection is garbage collected,
        # so a client nobody closes leaves no socket open.
        self.close = weakref.finalize(self, self._conn.close)

    def post_json(self, payload: dict) -> dict:
        config = self.config
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = config.retries + 1
        last: Exception | None = None
        for attempt in range(1, attempts + 1):
            try:
                if self._conn.sock is not None and _readable(self._conn.sock):
                    self._conn.close()
                self._conn.request("POST", self._target, body, self._headers)
                response = self._conn.getresponse()
                status, raw = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                self._conn.close()
                logger.warning(
                    "%s: attempt %d of %d failed: %s: %s",
                    self.name, attempt, attempts, type(exc).__name__, exc,
                )
                last = exc
                continue
            if status != 200:
                text = raw.decode("utf-8", errors="replace")
                raise ServiceStatusError(f"{self.name} answered {status}: {text[:200]}")
            try:
                reply = json.loads(raw)
            except ValueError as exc:
                raise MalformedResponseError(f"{self.name} returned non-JSON body") from exc
            if not isinstance(reply, dict):
                raise MalformedResponseError(f"{self.name} returned {type(reply).__name__}, expected object")
            return reply
        raise RemoteTimeoutError(f"{self.name} unreachable after {attempts} attempt(s): {last}") from last


class RemoteEmbedder:
    """Order-preserving batched client for an embedding service.

    The vector dimension is whatever the service declares on the first
    batch; later batches must agree or the whole call fails.
    """

    def __init__(self, config: RemoteConfig):
        self.config = config
        self._dim: int | None = None
        self._connection = _Connection(config)

    def close(self) -> None:
        self._connection.close()

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
        body = self._connection.post_json({"texts": batch})
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
        self._connection = _Connection(config)

    def close(self) -> None:
        self._connection.close()

    def _classify_batch(self, batch: list[list[str]]) -> np.ndarray:
        body = self._connection.post_json({"pairs": batch})
        if "probabilities" not in body or not isinstance(body["probabilities"], list):
            raise MalformedResponseError("classify response missing 'probabilities'")
        probs = body["probabilities"]
        if len(probs) != len(batch):
            raise CountMismatchError(
                f"classify service returned {len(probs)} probabilities for {len(batch)} pairs"
            )
        array = _finite_array([probs])
        if array is None or array.min() < 0.0 or array.max() > 1.0:
            # The first probability that fails either check names the error.
            for i, p in enumerate(probs):
                if _finite_array([[p]]) is None:
                    raise MalformedResponseError(f"probability {i} is not a finite number: {p!r}")
                if not 0.0 <= p <= 1.0:
                    raise ProbabilityRangeError(f"probability {i} out of [0,1]: {p}")
        return array[0]

    def classify_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        texts = [[a.clean_text, b.clean_text] for a, b in pairs]
        size = self.config.batch_size
        batches = [self._classify_batch(texts[start : start + size]) for start in range(0, len(texts), size)]
        return np.concatenate(batches) if batches else np.zeros(0)
