"""Bug report corpus: ingestion, text cleaning, summary statistics.

A corpus is an immutable collection of bug reports plus the set of
pairwise duplicate relations declared through ``dup_of`` links. Cleaning
normalizes the free text (title + description) into a deterministic
lowercase token stream; everything downstream (embedding, pairing,
retrieval) operates on ``clean_text`` only. A report's text is cleaned
on first read, once per report, not when the report is built.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .stopwords import STOP_WORDS

logger = logging.getLogger(__name__)

DEFAULT_CSV_COLUMNS = ("bug_id", "title", "description", "dup_of")

# A run of letters and digits (the characters where ``str.isalnum`` is
# true), or one kept punctuation mark.
_TOKEN = re.compile(r"[^\W_]+|[.,]")


class IngestError(ValueError):
    """Raised when an input file cannot be turned into a valid corpus."""


def clean(text: str) -> str:
    """Normalize raw bug text into a canonical token stream.

    Pipeline, applied in order:

    1. lowercase everything;
    2. strip characters that are not letters, digits, whitespace, or the
       kept punctuation ('.' and ','); kept punctuation is split off as
       standalone tokens so it never blocks stopword matching;
    3. drop any word token containing a character outside ASCII
       letters/digits (the operational reading of "non-English word");
    4. drop stopword tokens (fixed shipped list).

    Total and idempotent: the output alphabet is a-z, 0-9, space, '.'
    and ',', and cleaning an already-clean string is a no-op.
    """
    # '.' and ',' are ASCII and no stopword, so they pass the word test too.
    return " ".join(
        [tok for tok in _TOKEN.findall(text.lower()) if tok.isascii() and tok not in STOP_WORDS]
    )


@dataclass(frozen=True)
class BugReport:
    """One bug report. The ``clean_*`` attributes are derived, never taken from input.

    Each is cleaned on first read, once per report, so a command that
    reads no report text cleans none. ``clean_text`` joins the cleaned
    title and description; that equals ``clean(f"{title} {description}")``
    because no token spans the space between the two.
    """

    bug_id: str
    title: str
    description: str
    dup_of: str | None = None

    def __post_init__(self) -> None:
        if not self.bug_id:
            raise ValueError("bug_id must be a non-empty string")
        if self.dup_of == self.bug_id:
            raise ValueError(f"bug {self.bug_id!r} declares itself as its duplicate")

    # ``cached_property`` stores into the instance ``__dict__`` directly, so
    # the frozen ``__setattr__`` is never asked; ``clean`` is read through
    # the module global so that a wrapper installed there sees every call.
    @cached_property
    def clean_title(self) -> str:
        return clean(self.title)

    @cached_property
    def clean_description(self) -> str:
        return clean(self.description)

    @cached_property
    def clean_text(self) -> str:
        return " ".join(x for x in (self.clean_title, self.clean_description) if x)


@dataclass(frozen=True)
class Corpus:
    """Immutable report collection plus derived duplicate relations.

    ``duplicate_relations`` holds unordered pairs stored as sorted
    ``(low_id, high_id)`` tuples. ``dropped_relations`` counts dup_of
    links whose target was absent from the input (report kept, link
    dropped).
    """

    reports: tuple[BugReport, ...]
    duplicate_relations: frozenset[tuple[str, str]]
    dropped_relations: int = 0

    def __post_init__(self) -> None:
        ids = [r.bug_id for r in self.reports]
        id_set = set(ids)
        if len(id_set) != len(ids):
            raise ValueError("corpus contains duplicate bug_ids")
        for a, b in self.duplicate_relations:
            if a == b:
                raise ValueError(f"self-pair ({a!r}, {b!r}) in duplicate_relations")
            if a > b:
                raise ValueError(f"relation ({a!r}, {b!r}) is not canonically ordered")
            if a not in id_set or b not in id_set:
                raise ValueError(f"relation ({a!r}, {b!r}) references a missing bug")

    @cached_property
    def by_id(self) -> dict[str, BugReport]:
        return {r.bug_id: r for r in self.reports}

    @property
    def bug_ids(self) -> tuple[str, ...]:
        return tuple(r.bug_id for r in self.reports)

    def __len__(self) -> int:
        return len(self.reports)


def build_corpus(reports: list[BugReport] | tuple[BugReport, ...]) -> Corpus:
    """Assemble a Corpus from reports, deriving relations from dup_of links.

    Links pointing at bug_ids not present in ``reports`` are dropped and
    counted; the referring report itself is kept.
    """
    reports = tuple(reports)
    id_set = {r.bug_id for r in reports}
    if len(id_set) != len(reports):
        seen: set[str] = set()
        for r in reports:
            if r.bug_id in seen:
                raise IngestError(f"duplicate bug_id {r.bug_id!r}")
            seen.add(r.bug_id)
    relations: set[tuple[str, str]] = set()
    dropped = 0
    for r in reports:
        if r.dup_of is None:
            continue
        if r.dup_of not in id_set:
            dropped += 1
            continue
        a, b = sorted((r.bug_id, r.dup_of))
        relations.add((a, b))
    if dropped:
        logger.warning("dropped %d dup_of links with unknown targets", dropped)
    return Corpus(reports=reports, duplicate_relations=frozenset(relations), dropped_relations=dropped)


def _report_from_record(record: dict, where: str) -> BugReport:
    bug_id = record.get("bug_id")
    if bug_id is None or str(bug_id) == "":
        raise IngestError(f"{where}: record is missing bug_id")
    dup_of = record.get("dup_of")
    if dup_of is not None:
        dup_of = str(dup_of) or None
    try:
        return BugReport(
            bug_id=str(bug_id),
            title=str(record.get("title") or ""),
            description=str(record.get("description") or ""),
            dup_of=dup_of,
        )
    except ValueError as exc:
        raise IngestError(f"{where}: {exc}") from exc


def ingest(
    path: str | Path,
    format: str = "jsonl",
    csv_columns: tuple[str, str, str, str] = DEFAULT_CSV_COLUMNS,
) -> Corpus:
    """Read a corpus file (jsonl or csv) into a canonical Corpus.

    Record-level problems (missing bug_id, malformed JSON) raise
    IngestError naming the line; a repeated bug_id is fatal for the whole
    ingestion. Unknown dup_of targets are dropped with a warning count,
    available as ``Corpus.dropped_relations``.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"corpus file not found: {path}")
    if format == "jsonl":
        records = _read_jsonl(path)
    elif format == "csv":
        records = _read_csv(path, csv_columns)
    else:
        raise IngestError(f"unknown corpus format {format!r} (expected jsonl or csv)")
    return build_corpus(records)


def _read_jsonl(path: Path) -> list[BugReport]:
    reports = []
    # utf-8-sig drops a leading byte-order mark, as tracker exports often carry one.
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise IngestError(f"{path}:{lineno}: expected a JSON object")
            reports.append(_report_from_record(record, f"{path}:{lineno}"))
    return reports


def _read_csv(path: Path, columns: tuple[str, str, str, str]) -> list[BugReport]:
    if len(columns) != 4:
        raise IngestError(
            f"csv_columns needs 4 names (bug_id, title, description, dup_of), got {len(columns)}"
        )
    id_col, title_col, desc_col, dup_col = columns
    reports = []
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        # dup_of may be absent: exports of unlabeled reports have no such column.
        missing = [c for c in (id_col, title_col, desc_col) if c not in (reader.fieldnames or ())]
        if missing:
            raise IngestError(f"{path}: missing required column {', '.join(map(repr, missing))}")
        for lineno, row in enumerate(reader, start=2):
            record = {
                "bug_id": row.get(id_col),
                "title": row.get(title_col),
                "description": row.get(desc_col),
                "dup_of": row.get(dup_col) or None,
            }
            reports.append(_report_from_record(record, f"{path}:{lineno}"))
    return reports


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out in the canonical JSONL format.

    Round-trip safe: re-ingesting the output yields an identical corpus.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for r in corpus.reports:
            record: dict = {"bug_id": r.bug_id, "title": r.title, "description": r.description}
            if r.dup_of is not None:
                record["dup_of"] = r.dup_of
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class CorpusStats:
    bugs: int
    dup_pairs: int
    separate_bugs: int
    dup_bug_ratio: float


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Summarize a corpus: totals, relation count, and the duplicate-bug ratio.

    A bug is "separate" when it appears in no duplicate relation. The
    ratio is (bugs - separate) / bugs, and 0 for an empty corpus.
    """
    involved: set[str] = set()
    for a, b in corpus.duplicate_relations:
        involved.add(a)
        involved.add(b)
    bugs = len(corpus.reports)
    separate = bugs - len(involved)
    ratio = (bugs - separate) / bugs if bugs else 0.0
    return CorpusStats(bugs=bugs, dup_pairs=len(corpus.duplicate_relations), separate_bugs=separate, dup_bug_ratio=ratio)
