"""Shared fixtures: one standard planted pipeline, the README walkthrough's
artifacts and an HTTP stub."""

from __future__ import annotations

import pytest

from bugdedup import corpus as corpus_mod
from helpers import StubService, fit_train_embedder, planted_pipeline
from test_walkthrough import walk


@pytest.fixture(scope="session")
def pipeline():
    """(corpus, clusters, manifest) on the standard 100-cluster corpus."""
    return planted_pipeline()


@pytest.fixture(scope="session")
def corpus(pipeline):
    return pipeline[0]


@pytest.fixture(scope="session")
def clusters(pipeline):
    return pipeline[1]


@pytest.fixture(scope="session")
def manifest(pipeline):
    return pipeline[2]


@pytest.fixture(scope="session")
def train_embedder(pipeline):
    return fit_train_embedder(*pipeline, dim=256)


@pytest.fixture(scope="session")
def walkthrough(tmp_path_factory):
    """The directory of one run of the README walkthrough, and the digests
    of its artifacts as the walk left them (see ``test_walkthrough.walk``).
    Tests read these artifacts and write nothing beside them."""
    directory = tmp_path_factory.mktemp("walkthrough")
    return directory, walk(directory)


@pytest.fixture
def cleaned(monkeypatch) -> list[str]:
    """Every text passed to ``bugdedup.corpus.clean`` from here on, in call order."""
    calls: list[str] = []
    real = corpus_mod.clean

    def counting(text: str) -> str:
        calls.append(text)
        return real(text)

    monkeypatch.setattr(corpus_mod, "clean", counting)
    return calls


@pytest.fixture
def stub_service():
    service = StubService()
    yield service
    service.close()
