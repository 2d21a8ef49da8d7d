"""In-memory spans recorded from the benchmark's side of each layer call.

The program is not instrumented. During a traced unit of work (one
set-up or one workload call) the benchmark swaps public functions for
timing wrappers by attribute name, and hands the runner proxies in place
of the embedder and the pair classifier. A name that no longer exists is
reported as missing and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (span name, module, attribute path). The cascade runner imports top_k
# and aggregate_curves into its own namespace, and the featurizer calls
# clean through classifier's namespace, so those are wrapped where they
# are looked up.
WRAPPED = (
    ("cascade.run_one_vs_all", "bugdedup.cascade", "run_one_vs_all"),
    ("cascade.run_all_vs_all", "bugdedup.cascade", "run_all_vs_all"),
    ("retrieval.top_k", "bugdedup.cascade", "top_k"),
    ("metrics.aggregate_curves", "bugdedup.cascade", "aggregate_curves"),
    ("corpus.clean", "bugdedup.corpus", "clean"),
    ("corpus.clean", "bugdedup.classifier", "clean"),
    ("corpus.ingest", "bugdedup.corpus", "ingest"),
    ("synth.synth_corpus", "bugdedup.synth", "synth_corpus"),
    ("dup_graph.build_clusters", "bugdedup.dup_graph", "build_clusters"),
    ("splitter.build_manifest", "bugdedup.splitter", "build_manifest"),
    ("embedder.fit", "bugdedup.embedder", "TfidfHashEmbedder.fit"),
    ("embedder.train_projection", "bugdedup.embedder", "train_projection"),
    ("classifier.train_classifier", "bugdedup.classifier", "train_classifier"),
    ("remote.request", "requests.sessions", "Session.send"),
)

# Spans that count the labeled pairs of the manifest they return.
_PAIR_COUNTERS = {"splitter.build_manifest"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit")

    def __init__(self, name: str, start: float, parent: int | None, unit: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters, grouped into numbered units of work."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._unit = -1
        self._units: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def unit(self, kind: str):
        """Open a unit ("setup" or "call"), with every wrapper installed."""
        self._unit = len(self._units)
        self._units[self._unit] = kind
        self._install()
        try:
            with self.span(f"{kind}.unit"):
                yield self._unit
        finally:
            self._restore()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._unit)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        key = (self._unit, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def inside(self, prefix: str) -> bool:
        """Whether any open span's name starts with ``prefix``."""
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    def units(self, kind: str) -> list[int]:
        return [u for u, k in self._units.items() if k == kind]

    # ------------------------------------------------------------ wrappers

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name in _PAIR_COUNTERS:
                tracer.count("splitter.pairs", sum(len(p) for p in out.pairs.values()))
            return out

        return traced

    def _install(self) -> None:
        for name, module_name, path in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ analysis

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The benchmark runs one thread, so children of a span never overlap
        and their durations can simply be summed.
        """
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def to_rows(self) -> list[list]:
        """Spans as rows: name, start, end, parent index, unit id, self seconds."""
        own = self.self_seconds()
        return [
            [s.name, s.start, s.end, s.parent, s.unit, own[i]] for i, s in enumerate(self.spans)
        ]


class TracedEmbedder:
    """Counts and times ``embed_texts``, attributing the texts to the
    pair featurizer when a classifier span is open and to ``layer``
    otherwise. One proxy serves both roles so that the runner and the
    featurizer still share a single embedder object."""

    def __init__(self, inner, tracer: Tracer, layer: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def embed_texts(self, texts):
        t = self._tracer
        if t.inside("classifier."):
            with t.span("classifier.featurizer_embed"):
                out = self._inner.embed_texts(texts)
            t.count("classifier.featurizer_texts_embedded", len(texts))
            return out
        with t.span(f"{self._layer}.embed_texts"):
            out = self._inner.embed_texts(texts)
        t.count(f"{self._layer}.texts_embedded", len(texts))
        return out


class TracedClassifier:
    """Counts and times ``classify_batch`` and the reports it scores."""

    def __init__(self, inner, tracer: Tracer, layer: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self.reports: set[str] = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def classify_batch(self, pairs, *args, **kwargs):
        t = self._tracer
        with t.span(f"{self._layer}.classify_batch"):
            out = self._inner.classify_batch(pairs, *args, **kwargs)
        t.count(f"{self._layer}.pairs", len(pairs))
        for a, b in pairs:
            self.reports.add(a.bug_id)
            self.reports.add(b.bug_id)
        return out
