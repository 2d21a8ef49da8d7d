"""Loopback stand-in for the embedding and pair-classification services.

One asyncio event loop on one background thread serves every
connection, so HTTP keep-alive works without a thread per connection.
Replies are cheap and deterministic:

* ``POST /embed``    ``{"texts": [...]}`` -> token counts hashed by CRC-32
  into ``dim`` buckets, L2-normalised.
* ``POST /classify`` ``{"pairs": [[a, b], ...]}`` -> token-set Jaccard of
  the two texts, which is a probability in [0, 1].

The stub counts what a transport change would move: requests,
connections, bytes in each direction, time spent computing replies, and
replies that were not 200.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import zlib

import numpy as np

EMBED_DIM = 64


def embed_vectors(texts, dim: int = EMBED_DIM) -> np.ndarray:
    """The vectors ``/embed`` returns; the benchmark's search oracle uses them too."""
    out = np.zeros((len(texts), dim))
    for i, text in enumerate(texts):
        for token in text.split():
            out[i, zlib.crc32(token.encode("utf-8")) % dim] += 1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.where(norms > 0.0, norms, 1.0)


def pair_probability(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    union = len(ta | tb)
    return len(ta & tb) / union if union else 0.0


def _reply(path: str, body: dict) -> tuple[int, dict]:
    if path == "/embed" and isinstance(body.get("texts"), list):
        vectors = embed_vectors(body["texts"])
        return 200, {"dim": EMBED_DIM, "vectors": vectors.tolist()}
    if path == "/classify" and isinstance(body.get("pairs"), list):
        return 200, {"probabilities": [pair_probability(a, b) for a, b in body["pairs"]]}
    return 404, {"error": f"no handler for {path}"}


class StubCounters:
    __slots__ = ("requests", "connections", "bytes_in", "bytes_out", "busy_s", "non_200")

    def __init__(self) -> None:
        self.requests = 0
        self.connections = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.busy_s = 0.0
        self.non_200 = 0

    def copy(self) -> "StubCounters":
        out = StubCounters()
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        return out

    def minus(self, earlier: "StubCounters") -> dict:
        return {name: getattr(self, name) - getattr(earlier, name) for name in self.__slots__}


class LoopbackStub:
    """Serves ``/embed`` and ``/classify`` on 127.0.0.1 until ``close``."""

    def __init__(self) -> None:
        self.counters = StubCounters()
        self._lock = threading.Lock()
        self._loop = asyncio.new_event_loop()
        self._server: asyncio.AbstractServer | None = None
        self._open: set[asyncio.StreamWriter] = set()
        started = threading.Event()
        self._thread = threading.Thread(target=self._serve, args=(started,), daemon=True)
        self._thread.start()
        if not started.wait(timeout=10.0) or self._server is None:
            raise RuntimeError("loopback stub did not start")
        port = self._server.sockets[0].getsockname()[1]
        self.embed_url = f"http://127.0.0.1:{port}/embed"
        self.classify_url = f"http://127.0.0.1:{port}/classify"

    def _serve(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(self._handle, "127.0.0.1", 0)
            )
        finally:
            started.set()
        self._loop.run_forever()
        # close() stopped the loop: drop the listener and any idle
        # keep-alive connections, then let their handlers finish.
        self._server.close()
        for writer in list(self._open):
            writer.close()
        pending = asyncio.all_tasks(self._loop)
        self._loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()

    def snapshot(self) -> StubCounters:
        with self._lock:
            return self.counters.copy()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._open.add(writer)
        with self._lock:
            self.counters.connections += 1
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                path = lines[0].split(" ")[1] if lines[0].count(" ") >= 2 else ""
                headers = {}
                for line in lines[1:]:
                    name, sep, value = line.partition(":")
                    if sep:
                        headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or 0)
                raw = await reader.readexactly(length) if length else b""
                start = time.perf_counter()
                try:
                    status, payload = _reply(path, json.loads(raw) if raw else {})
                except (ValueError, TypeError) as exc:
                    status, payload = 400, {"error": str(exc)}
                data = json.dumps(payload).encode("utf-8")
                keep_alive = headers.get("connection", "").lower() != "close"
                reason = "OK" if status == 200 else "Error"
                response = (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                ).encode("latin-1") + data
                busy = time.perf_counter() - start
                writer.write(response)
                await writer.drain()
                with self._lock:
                    c = self.counters
                    c.requests += 1
                    c.bytes_in += len(head) + length
                    c.bytes_out += len(response)
                    c.busy_s += busy
                    c.non_200 += status != 200
                if not keep_alive:
                    return
        finally:
            self._open.discard(writer)
            writer.close()

    def close(self) -> None:
        """Stop serving and wait for the loop thread to end."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
