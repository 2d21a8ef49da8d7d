"""Text cleaning, ingestion, and corpus validation."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugdedup.corpus import (
    BugReport,
    Corpus,
    IngestError,
    build_corpus,
    clean,
    corpus_stats,
    ingest,
    write_jsonl,
)
from bugdedup.synth import SynthConfig, synth_corpus

from helpers import reference_clean

_ALLOWED_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789 .,")


def test_clean_lowercases_and_strips_punctuation():
    assert clean("Crash ON startup, renders fine") == "crash startup , renders fine"


def test_clean_keeps_dot_and_comma_as_tokens():
    assert clean("null pointer. retry, fails") == "null pointer . retry , fails"


def test_clean_drops_stopwords():
    # "the", "is", "down" are all on the shipped list
    assert clean("The server IS down.") == "server ."


def test_clean_drops_non_ascii_word_tokens():
    assert clean("renders café badly") == "renders badly"


def test_clean_empty_and_whitespace():
    assert clean("") == ""
    assert clean("   \t\n ") == ""


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_clean_idempotent(text):
    once = clean(text)
    assert clean(once) == once


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_clean_output_alphabet(text):
    assert set(clean(text)) <= _ALLOWED_CHARS


# The example holds a letter that lowers to two code points, a titlecase
# digraph, a ligature, Roman and superscript numerals, the underscore,
# fullwidth letters and Arabic-Indic digits.
@settings(max_examples=500, deadline=None)
@given(st.text(max_size=300))
@example("İstanbul ǅ ﬁle Ⅻ x² snake_case ＡＢＣ ١٢٣ a.b,c")
def test_clean_equals_the_character_loop(text):
    assert clean(text) == reference_clean(text)


def test_clean_equals_the_character_loop_on_every_code_point():
    # Each code point between two x's: one that clean splits on and the
    # loop does not, or the reverse, changes the tokens around it.
    text = "x" + "x".join(map(chr, range(0x110000))) + "x"
    assert clean(text) == reference_clean(text)


def test_report_derives_clean_text():
    r = BugReport(bug_id="b1", title="Crash!", description="The heap")
    assert r.clean_text == "crash heap"


# Title/description text that stresses the join: empty strings, pure
# punctuation, stopwords, and characters whose lowercase form depends on
# context or expands (final sigma, dotted capital I).
_FIELD_TEXT = st.lists(
    st.sampled_from([*"aZ9 .,!-\t\nΣςσİıé", "the", "is", "ΑΣ", "crash"]), max_size=12
).map("".join) | st.text(max_size=30)


@settings(max_examples=300, deadline=None)
@given(title=_FIELD_TEXT, description=_FIELD_TEXT)
def test_report_clean_fields_join_to_clean_text(title, description):
    r = BugReport(bug_id="b1", title=title, description=description)
    assert r.clean_title == clean(title)
    assert r.clean_description == clean(description)
    assert r.clean_text == clean(f"{title} {description}")


def test_building_and_ingesting_reports_cleans_nothing(tmp_path, cleaned):
    corpus = synth_corpus(SynthConfig(n_clusters=20, seed=4))
    path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, path)
    again = ingest(path)
    assert again == corpus and len(again) > 20
    assert cleaned == []


def test_each_field_is_cleaned_once_on_first_read(cleaned):
    r = BugReport(bug_id="b1", title="Crash!", description="The heap")
    assert r.clean_text == r.clean_text == "crash heap"
    assert cleaned == ["Crash!", "The heap"]
    assert (r.clean_title, r.clean_description) == ("crash", "heap")
    assert len(cleaned) == 2


def test_a_replaced_report_is_cleaned_afresh(cleaned):
    r = BugReport(bug_id="b1", title="Crash!", description="The heap")
    assert r.clean_text == "crash heap"
    again = dataclasses.replace(r, title="Hang")
    assert again.clean_text == "hang heap"
    assert cleaned == ["Crash!", "The heap", "Hang", "The heap"]


def test_cleaned_text_cannot_be_assigned():
    r = BugReport(bug_id="b1", title="Crash!", description="The heap")
    for _ in range(2):  # before and after the first read
        for name in ("clean_title", "clean_description", "clean_text"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, "x")
        assert r.clean_text == "crash heap"


def test_equality_hash_and_pickle_ignore_whether_text_was_read():
    fresh = BugReport(bug_id="b1", title="Crash!", description="The heap", dup_of="b0")
    read = BugReport(bug_id="b1", title="Crash!", description="The heap", dup_of="b0")
    assert read.clean_text == "crash heap"
    assert fresh == read and hash(fresh) == hash(read)
    assert fresh != dataclasses.replace(read, description="heap")
    assert [f.name for f in dataclasses.fields(BugReport)] == ["bug_id", "title", "description", "dup_of"]
    for r in (fresh, read):
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r)
        assert back.clean_text == "crash heap"


def test_report_rejects_self_duplicate():
    with pytest.raises(ValueError, match="declares itself"):
        BugReport(bug_id="b1", title="t", description="d", dup_of="b1")


def test_report_rejects_empty_id():
    with pytest.raises(ValueError, match="bug_id"):
        BugReport(bug_id="", title="t", description="d")


def _reports(*specs):
    return [BugReport(bug_id=i, title=t, description=d, dup_of=dup) for i, t, d, dup in specs]


def test_build_corpus_canonicalizes_relations():
    corpus = build_corpus(
        _reports(("b2", "x", "y", None), ("b1", "x", "y", "b2"), ("b3", "x", "y", "b1"))
    )
    assert corpus.duplicate_relations == frozenset({("b1", "b2"), ("b1", "b3")})
    assert corpus.dropped_relations == 0


def test_build_corpus_drops_unknown_targets():
    corpus = build_corpus(_reports(("b1", "x", "y", "missing"), ("b2", "x", "y", None)))
    assert corpus.duplicate_relations == frozenset()
    assert corpus.dropped_relations == 1
    assert len(corpus) == 2


def test_build_corpus_rejects_repeated_ids():
    with pytest.raises(IngestError, match="duplicate bug_id"):
        build_corpus(_reports(("b1", "x", "y", None), ("b1", "x", "y", None)))


def test_corpus_validates_relation_ordering():
    reports = tuple(_reports(("b1", "x", "y", None), ("b2", "x", "y", None)))
    with pytest.raises(ValueError, match="canonically ordered"):
        Corpus(reports=reports, duplicate_relations=frozenset({("b2", "b1")}))


def test_corpus_validates_relation_targets():
    reports = tuple(_reports(("b1", "x", "y", None)))
    with pytest.raises(ValueError, match="missing bug"):
        Corpus(reports=reports, duplicate_relations=frozenset({("b1", "zz")}))


def test_corpus_by_id_lookup():
    corpus = build_corpus(_reports(("b1", "x", "y", None), ("b2", "x", "y", None)))
    assert corpus.by_id["b2"].bug_id == "b2"
    assert corpus.bug_ids == ("b1", "b2")


def test_ingest_jsonl_roundtrip(tmp_path):
    corpus = build_corpus(
        _reports(("b1", "Crash", "bad heap", None), ("b2", "Crash again", "same heap", "b1"))
    )
    path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, path)
    again = ingest(path)
    assert again.reports == corpus.reports
    assert again.duplicate_relations == corpus.duplicate_relations


def test_ingest_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"bug_id": "b1", "title": "t", "description": "d"}\nnot json\n')
    with pytest.raises(IngestError, match=r":2"):
        ingest(path)


def test_ingest_jsonl_rejects_non_object(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(IngestError, match="JSON object"):
        ingest(path)


def test_ingest_requires_bug_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"title": "t", "description": "d"}\n')
    with pytest.raises(IngestError, match="missing bug_id"):
        ingest(path)


def test_ingest_missing_file():
    with pytest.raises(IngestError, match="not found"):
        ingest("/nonexistent/corpus.jsonl")


def test_ingest_unknown_format(tmp_path):
    path = tmp_path / "c.xml"
    path.write_text("<bugs/>")
    with pytest.raises(IngestError, match="unknown corpus format"):
        ingest(path, format="xml")


def test_ingest_csv_with_custom_columns(tmp_path):
    path = tmp_path / "bugs.csv"
    path.write_text("id,summary,body,duplicate_of\n1,Crash,heap bad,\n2,Crash two,heap bad,1\n")
    corpus = ingest(path, format="csv", csv_columns=("id", "summary", "body", "duplicate_of"))
    assert corpus.bug_ids == ("1", "2")
    assert corpus.duplicate_relations == frozenset({("1", "2")})


def test_ingest_csv_rejects_a_wrong_number_of_columns(tmp_path):
    path = tmp_path / "bugs.csv"
    path.write_text("bug_id,title\n1,Crash\n")
    with pytest.raises(IngestError, match="needs 4 names .*got 2"):
        ingest(path, format="csv", csv_columns=("bug_id", "title"))


def test_ingest_csv_missing_id_column(tmp_path):
    path = tmp_path / "bugs.csv"
    path.write_text("title,description\nCrash,heap\n")
    with pytest.raises(IngestError, match="missing required column"):
        ingest(path, format="csv")


def test_ingest_csv_names_missing_text_columns(tmp_path):
    path = tmp_path / "bugs.csv"
    path.write_text("bug_id,summary,body,dup_of\n1,Crash,heap bad,\n")
    with pytest.raises(IngestError, match="missing required column 'title', 'description'"):
        ingest(path, format="csv")
    # dup_of stays optional: unlabeled exports have no such column
    path.write_text("bug_id,title,description\n1,Crash,heap bad\n")
    assert ingest(path, format="csv").by_id["1"].clean_text == "crash heap bad"


@pytest.mark.parametrize(
    "format,text",
    [
        ("csv", "bug_id,title,description,dup_of\nb1,Crash,heap bad,\nb2,Crash two,heap bad,b1\n"),
        (
            "jsonl",
            '{"bug_id": "b1", "title": "Crash", "description": "heap bad"}\n'
            '{"bug_id": "b2", "title": "Crash two", "description": "heap bad", "dup_of": "b1"}\n',
        ),
    ],
    ids=["csv", "jsonl"],
)
def test_ingest_skips_a_utf8_byte_order_mark(tmp_path, format, text):
    plain, marked = tmp_path / f"plain.{format}", tmp_path / f"bom.{format}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = ingest(plain, format=format)
    assert ingest(marked, format=format) == expected
    assert expected.bug_ids == ("b1", "b2")


def test_corpus_stats_counts():
    corpus = build_corpus(
        _reports(
            ("b1", "x", "y", None),
            ("b2", "x", "y", "b1"),
            ("b3", "x", "y", None),
        )
    )
    stats = corpus_stats(corpus)
    assert stats.bugs == 3
    assert stats.dup_pairs == 1
    assert stats.separate_bugs == 1
    assert stats.dup_bug_ratio == pytest.approx(2 / 3)


def test_corpus_stats_empty():
    stats = corpus_stats(build_corpus([]))
    assert stats.bugs == 0
    assert stats.dup_bug_ratio == 0.0
