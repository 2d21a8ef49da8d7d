"""Command-line pipeline: ingest -> cluster -> split -> train -> evaluate.

Every subcommand echoes its full configuration (plus a SHA-256 of it)
into the artifact it produces, so any output file can be traced back to
the exact invocation that made it. JSON artifacts embed the echo; JSONL
and CSV artifacts get a ``<name>.config.json`` sidecar. Every stderr line
of a command is a JSON object: its error, and each warning the package
logs (a retried request, a dropped ``dup_of`` link). A bad flag value
(``--dim`` and ``--k-list`` included), a malformed model file, a model
file trained on other input files or a ``report --in`` that is not a
scenario artifact exits 2, naming the flag; a corpus, clusters or
manifest file that cannot be read, or any other runtime failure, exits 1.

The two trainers fit the TF-IDF vocabulary on the train split and write it
into their model file (``vocabulary``), beside the sha256 of the bytes of
``--corpus``, ``--clusters`` and ``--manifest`` (``inputs``). A command that
reads a model file (``--model`` of ``run-cascade`` and
``eval-classification``, ``--projection`` of ``run-cascade`` and
``eval-retrieval``) refuses other inputs than those, and loads that
vocabulary rather than fitting it again: the vocabulary is a function of
the train texts, which the three files fix. Only a backend that reads no
model fits one (``eval-retrieval --backend tfidf``, and the TF-IDF and
similarity backends of ``run-cascade`` and ``eval-classification``).

``main`` builds the parser of the invoked command only, with the top-level
parser around it; with no command, ``-h`` or an unknown command it builds
every command's parser. Help and error texts are the same either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
import time
from itertools import chain
from pathlib import Path

from . import artifacts
from . import cascade as cascade_mod
from . import classifier as classifier_mod
from . import corpus as corpus_mod
from . import dup_graph, embedder as embedder_mod, metrics as metrics_mod
from . import remote as remote_mod
from . import splitter as splitter_mod
from . import synth as synth_mod
from .ledger import CostLedger

EMBED_ENDPOINT_ENV = "BUGDEDUP_EMBED_ENDPOINT"
CLASSIFY_ENDPOINT_ENV = "BUGDEDUP_CLASSIFY_ENDPOINT"

_MODE_NAMES = {"one-vs-all": "one_vs_all", "all-vs-all": "all_vs_all"}
_METHOD_NAMES = {
    "retrieval": "retrieval_only",
    "classification": "classification_only",
    "cascade": "cascade",
}


class UsageError(ValueError):
    pass


def _fail_json(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


def _require_file(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: file not found: {path}")
    return p


def _config_echo(args: argparse.Namespace) -> dict:
    # Keyed "cli" so it can never clobber an artifact's own config block.
    # A service URL is echoed without its credentials.
    cfg = {
        k: remote_mod.redact(v) if k in ("endpoint", "classify_endpoint") and v else v
        for k, v in sorted(vars(args).items()) if k != "func"
    }
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return {"cli": cfg, "config_sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest()}


def _save(args, payload: dict, indent: int | None, suffix: str = "") -> None:
    """``payload`` with the config echo merged in, saved at ``--out`` plus
    ``suffix`` (see ``artifacts.save``)."""
    artifacts.save(args.out + suffix, payload | _config_echo(args), indent)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, default=str))


@contextlib.contextmanager
def _flag(flag: str):
    """A ``ValueError`` raised inside is a usage error naming ``flag``."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _split_flag(text: str, flag: str, convert=str, count: int | None = None) -> list:
    """The comma-separated values of ``flag``, each passed through ``convert``.
    A value that ``convert`` rejects, or a count other than ``count``, is a
    usage error."""
    with _flag(flag):
        values = [convert(x) for x in text.split(",")]
    if count is not None and len(values) != count:
        raise UsageError(f"{flag} needs {count} comma-separated values, got {text!r}")
    return values


@contextlib.contextmanager
def _flags_for_fields(**flags: str):
    """A ``ValueError`` whose message starts with one of ``flags``' field
    names becomes a usage error naming that field's flag."""
    try:
        yield
    except ValueError as exc:
        flag = flags.get(str(exc).partition(" ")[0])
        if flag is None:
            raise
        raise UsageError(f"{flag}: {exc}") from exc


def _config(cls, args, flags: dict[str, str], **values):
    """A ``cls`` whose fields in ``flags`` take their flags' values and whose
    other fields take ``values``; a field's ``ValueError`` names its flag."""
    values |= {field: getattr(args, flag[2:].replace("-", "_")) for field, flag in flags.items()}
    with _flags_for_fields(**flags):
        return cls(**values)


def _cap(entry: str) -> tuple[str, int]:
    split, sep, value = entry.partition("=")
    if not sep:
        raise ValueError(f"entries look like train=100, got {entry!r}")
    if split not in splitter_mod.SPLITS:
        raise ValueError(f"split must be one of {splitter_mod.SPLITS}, got {split!r}")
    cap = int(value)
    if cap < 0:
        raise ValueError(f"a cap must be >= 0, got {entry!r}")
    return split, cap


def _read_json(path: str, flag: str, parse):
    """``parse`` of the JSON artifact in ``flag``'s file. An error names the
    flag and the file; it stays a ``JSONDecodeError`` or is a ``ValueError``,
    the names that the CLI has always printed for these files."""
    try:
        return artifacts.load(_require_file(path, flag), parse, flag)
    except artifacts.ArtifactError as exc:
        raise ValueError(str(exc)) from exc


def _ingest(path: str, flag: str, **options) -> corpus_mod.Corpus:
    """``corpus.ingest`` of ``flag``'s file; its errors, which name the file,
    name ``flag`` too."""
    source = _require_file(path, flag)
    try:
        return corpus_mod.ingest(source, **options)
    except corpus_mod.IngestError as exc:
        raise corpus_mod.IngestError(f"{flag} {exc}") from exc


def _clusters(args) -> dup_graph.ClusterSet:
    return _read_json(args.clusters, "--clusters", dup_graph.clusters_from_json)


def _load_pipeline(args) -> tuple:
    if args.dim < 1:
        raise UsageError(f"--dim must be >= 1, got {args.dim}")
    corpus = _ingest(args.corpus, "--corpus")
    clusters = _clusters(args)
    for bug_id in chain((m for c in clusters.clusters for m in c.members), clusters.independents):
        if bug_id not in corpus.by_id:
            raise ValueError(
                f"--clusters {args.clusters}: bug {bug_id!r} is not in --corpus {args.corpus}"
            )

    def manifest(payload) -> splitter_mod.SplitManifest:
        try:
            return splitter_mod.manifest_from_json(payload, clusters)
        except splitter_mod.SplitError as exc:  # a split that does not fit the clusters names them too
            raise splitter_mod.SplitError(f"{exc} (read against --clusters {args.clusters})") from exc

    return corpus, clusters, _read_json(args.manifest, "--manifest", manifest)


def _fit_train_embedder(corpus, clusters, manifest, dim: int):
    train_texts = [corpus.by_id[b].clean_text for b in manifest.bugs_in(clusters, "train")]
    return embedder_mod.TfidfHashEmbedder.fit(train_texts, dim=dim)


_INPUT_FLAGS = ("--corpus", "--clusters", "--manifest")


def _input_hashes(args) -> dict[str, str]:
    """The sha256 of the bytes of each input file, keyed by its flag."""
    return {
        flag: hashlib.sha256(Path(getattr(args, flag[2:])).read_bytes()).hexdigest() for flag in _INPUT_FLAGS
    }


def _save_model(args, payload: dict, base) -> None:
    """A model file: ``payload``, the vocabulary of ``base``, the embedder
    the model was fitted with, and the hashes of the inputs it was fitted on."""
    _save(args, payload | {"vocabulary": base.to_json(), "inputs": _input_hashes(args)}, None)


def _load_model(args, flag: str, kind: str, parse) -> tuple:
    """The model that ``parse`` reads from the ``kind`` file of ``flag``, and
    the TF-IDF embedder that the file carries. The file must record the
    hashes of this run's input files: another input is a usage error naming
    ``flag``, the input's flag and both files."""
    path = _require_file(getattr(args, flag[2:]), flag)

    def read(payload) -> tuple:
        model = parse(payload)
        vocabulary = artifacts.field(payload, "vocabulary", embedder_mod.TfidfHashEmbedder.from_json)
        inputs = artifacts.field(payload, "inputs", lambda found: {
            flag: artifacts.field(found, flag, artifacts.string) for flag in _INPUT_FLAGS
        })
        return model, vocabulary, inputs

    with _flag(flag):
        model, vocabulary, inputs = artifacts.load(path, read, kind)
    for input_flag, digest in _input_hashes(args).items():
        if inputs[input_flag] != digest:
            raise UsageError(
                f"{flag} {path} was trained on another {input_flag} than {getattr(args, input_flag[2:])}"
            )
    return model, vocabulary


def _service_config(endpoint: str | None, flag: str, env: str) -> remote_mod.RemoteConfig:
    """A service client's config from ``flag``, else from ``env``."""
    endpoint = endpoint or os.environ.get(env)
    if not endpoint:
        raise UsageError(f"{flag} (or {env}) is required for the service backend")
    with _flag(f"{flag} (or {env})"):
        return remote_mod.RemoteConfig(endpoint=endpoint)


def _make_embedder(args, corpus, clusters, manifest, backends: contextlib.ExitStack, tfidf=None):
    """The embedding backend; ``tfidf``, a TF-IDF embedder loaded at
    ``args.dim``, is the TF-IDF backend when given. A service client is
    closed when ``backends`` exits."""
    if args.embed_backend == "tfidf":
        return _fit_train_embedder(corpus, clusters, manifest, args.dim) if tfidf is None else tfidf
    if args.embed_backend == "projection":
        model, base = _load_model(args, "--projection", "projection file", embedder_mod.projection_from_json)
        if base.dim != model.dim_in:
            raise UsageError(
                f"--projection: projection file {args.projection}: "
                f"its 'vocabulary' has dim {base.dim}, not 'dim_in' {model.dim_in}"
            )
        return embedder_mod.ProjectedEmbedder(base=base, model=model)
    client = remote_mod.RemoteEmbedder(_service_config(args.endpoint, "--endpoint", EMBED_ENDPOINT_ENV))
    backends.callback(client.close)
    return client


def _classifier_input(args):
    """What the classifier backend reads besides the corpus, checked before
    anything is fitted: the service config, the similarity threshold, the
    logistic model with the TF-IDF embedder its file carries (whose ``dim``
    must be ``--dim``), or None for the oracle."""
    if args.classifier_backend == "service":
        return _service_config(args.classify_endpoint, "--classify-endpoint", CLASSIFY_ENDPOINT_ENV)
    if args.classifier_backend == "similarity":
        with _flag("--sim-threshold"):
            return classifier_mod.check_similarity_threshold(args.sim_threshold)
    if args.classifier_backend != "logistic":
        return None
    model, tfidf = _load_model(args, "--model", "classifier file", classifier_mod.classifier_from_json)
    if tfidf.dim != args.dim:
        raise UsageError(
            f"--model {args.model} was trained on features at --dim {tfidf.dim}, "
            f"but this run embeds them at --dim {args.dim}"
        )
    return model, tfidf


def _make_classifier(
    args, checked, corpus, clusters, manifest, backends: contextlib.ExitStack, tfidf=None
):
    """The pair classifier from ``checked``, what ``_classifier_input`` gave;
    a logistic model's featurizer takes the embedder its file carries, and
    the similarity backend's takes ``tfidf``, an already fitted train-split
    embedder at ``args.dim``, if given. A service client is closed when
    ``backends`` exits."""
    if args.classifier_backend == "oracle":
        return classifier_mod.OracleClassifier(clusters)
    if args.classifier_backend == "service":
        client = remote_mod.RemoteClassifier(checked)
        backends.callback(client.close)
        return client
    if args.classifier_backend == "logistic":
        model, base = checked
        return classifier_mod.LogisticClassifier(model, classifier_mod.PairFeaturizer(base))
    if tfidf is None:
        tfidf = _fit_train_embedder(corpus, clusters, manifest, args.dim)
    return classifier_mod.SimilarityClassifier(classifier_mod.PairFeaturizer(tfidf), checked)


def _resolve_pairs(corpus, pairs):
    return [(corpus.by_id[p.bug_a], corpus.by_id[p.bug_b], p.duplicate) for p in pairs]


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    config = _config(synth_mod.SynthConfig, args, {
        "n_clusters": "--clusters", "mean_size": "--mean-size", "n_independents": "--independents",
        "n_topics": "--topics", "seed": "--seed",
    })
    corpus = synth_mod.synth_corpus(config)
    corpus_mod.write_jsonl(corpus, args.out)
    _save(args, {}, 1, ".config.json")
    _emit({"out": args.out, **corpus_mod.corpus_stats(corpus).__dict__})
    return 0


def cmd_ingest(args) -> int:
    columns = corpus_mod.DEFAULT_CSV_COLUMNS
    if args.csv_columns:
        columns = tuple(_split_flag(args.csv_columns, "--csv-columns", count=4))
    corpus = _ingest(args.infile, "--in", format=args.format, csv_columns=columns)
    corpus_mod.write_jsonl(corpus, args.out)
    _save(args, {}, 1, ".config.json")
    stats = corpus_mod.corpus_stats(corpus)
    _emit({"out": args.out, "dropped_relations": corpus.dropped_relations, **stats.__dict__})
    return 0


def cmd_cluster(args) -> int:
    corpus = _ingest(args.corpus, "--corpus")
    clusters = dup_graph.build_clusters(corpus)
    _save(args, dup_graph.clusters_to_json(clusters), 1)
    stats = dup_graph.cluster_stats(clusters)
    _emit({"out": args.out, **stats.__dict__})
    return 0


def cmd_split(args) -> int:
    clusters = _clusters(args)
    caps = dict(_split_flag(args.caps, "--caps", _cap)) if args.caps else {}
    ratios = tuple(_split_flag(args.ratios, "--ratios", float, count=3))
    try:
        with _flags_for_fields(ratios="--ratios", target_dup_ratio="--dup-ratio"):
            manifest = splitter_mod.build_manifest(
                clusters,
                ratios=ratios,
                seed=args.seed,
                target_dup_ratio=args.dup_ratio,
                caps=dict.fromkeys(splitter_mod.SPLITS) | caps,
            )
    except splitter_mod.SplitError as exc:  # one that no flag claims: the clusters do not split
        raise splitter_mod.SplitError(f"--clusters {args.clusters}: {exc}") from exc
    _save(args, splitter_mod.manifest_to_json(manifest), 1)
    _emit({"out": args.out, "stats": splitter_mod.split_stats(manifest)})
    return 0


def cmd_train_projection(args) -> int:
    cfg = _config(embedder_mod.TrainConfig, args, {
        "learning_rate": "--lr", "epochs": "--epochs", "batch_size": "--batch-size",
        "seed": "--seed", "dim_out": "--dim-out", "margin": "--margin",
    })
    corpus, clusters, manifest = _load_pipeline(args)
    if not manifest.triplets:
        raise UsageError("--manifest derives no triplets: its train cap is 0")
    base = _fit_train_embedder(corpus, clusters, manifest, args.dim)
    triplet_texts = [
        (
            corpus.by_id[t.anchor].clean_text,
            corpus.by_id[t.positive].clean_text,
            corpus.by_id[t.negative].clean_text,
        )
        for t in manifest.triplets
    ]
    model = embedder_mod.train_projection(triplet_texts, base, cfg)
    _save_model(args, embedder_mod.projection_to_json(model), base)
    _emit(
        {
            "out": args.out,
            "triplets": len(triplet_texts),
            "initial_loss": model.loss_curve[0],
            "final_loss": model.loss_curve[-1],
        }
    )
    return 0


def cmd_train_classifier(args) -> int:
    cfg = _config(classifier_mod.ClassifierTrainConfig, args, {
        "learning_rate": "--lr", "epochs": "--epochs", "batch_size": "--batch-size",
        "seed": "--seed", "threshold_step": "--threshold-step",
    })
    corpus, clusters, manifest = _load_pipeline(args)
    train_pairs = _resolve_pairs(corpus, manifest.pairs["train"])
    dev_pairs = _resolve_pairs(corpus, manifest.pairs["dev"])
    if not train_pairs:
        raise UsageError("--manifest derives no train pairs: its train cap is 0")
    base = _fit_train_embedder(corpus, clusters, manifest, args.dim)
    model = classifier_mod.train_classifier(train_pairs, base, cfg, dev_pairs=dev_pairs or None)
    _save_model(args, classifier_mod.classifier_to_json(model), base)
    _emit(
        {
            "out": args.out,
            "train_pairs": len(train_pairs),
            "dev_pairs": len(dev_pairs),
            "threshold": model.threshold,
            "initial_loss": model.loss_curve[0],
            "final_loss": model.loss_curve[-1],
        }
    )
    return 0


def _write_eval_csv(args, method: str, rows, start: float, ledger: CostLedger) -> None:
    """An eval command's metric rows as a report CSV with its config sidecar,
    timed from ``start``."""
    elapsed_ms = (time.monotonic() - start) * 1000.0
    snapshot = ledger.snapshot()
    metrics_mod.write_metrics_csv(
        args.out, [metrics_mod.report_row(row, method, elapsed_ms, snapshot) for row in rows]
    )
    _save(args, {}, 1, ".config.json")


def cmd_eval_retrieval(args) -> int:
    k_list = _split_flag(args.k_list, "--k-list", int)
    if min(k_list) < 1:
        raise UsageError(f"--k-list values must be >= 1, got {args.k_list!r}")
    corpus, clusters, manifest = _load_pipeline(args)
    queries = [corpus.by_id[m] for c in manifest.clusters_in(clusters, args.split) for m in c.members]
    if not queries:
        raise UsageError(f"split {args.split!r} has no clustered bugs to query")
    with contextlib.ExitStack() as backends:
        emb = _make_embedder(args, corpus, clusters, manifest, backends)
        start = time.monotonic()
        outcome, ledger = cascade_mod.run_partition(
            queries,
            [corpus.by_id[b] for b in manifest.bugs_in(clusters, args.split)],
            clusters,
            emb,
            None,
            "retrieval_only",
            max(k_list),
        )
    rows = metrics_mod.aggregate_curves(outcome, k_list)
    _write_eval_csv(args, f"retrieval_{args.embed_backend}", rows, start, ledger)
    _emit({"out": args.out, "queries": len(outcome), "k_list": k_list})
    return 0


def cmd_eval_classification(args) -> int:
    corpus, clusters, manifest = _load_pipeline(args)
    pairs = manifest.pairs[args.split]
    if not pairs:
        raise UsageError(f"split {args.split!r} holds no labeled pairs")
    checked = _classifier_input(args)
    with contextlib.ExitStack() as backends:
        backend = _make_classifier(args, checked, corpus, clusters, manifest, backends)
        ledger = CostLedger()
        start = time.monotonic()
        verdicts = cascade_mod.classify_pairs(
            backend, [(corpus.by_id[p.bug_a], corpus.by_id[p.bug_b]) for p in pairs], ledger
        )
    cm = metrics_mod.ConfusionMatrix.from_decisions(
        (label, p.duplicate) for (_, label), p in zip(verdicts, pairs)
    )
    row = metrics_mod.classification_metrics(cm)
    _write_eval_csv(args, f"classification_{args.classifier_backend}", [row], start, ledger)
    _emit({"out": args.out, "pairs": len(pairs), "f1": row.f1, "accuracy": row.accuracy})
    return 0


def cmd_run_cascade(args) -> int:
    corpus, clusters, manifest = _load_pipeline(args)
    flags = {"k": "--k", "query_fraction": "--query-fraction", "seed": "--seed",
             "dedup_pairs": "--dedup-pairs"}
    config = _config(
        cascade_mod.ScenarioConfig, args, flags, mode=_MODE_NAMES[args.mode],
        method=_METHOD_NAMES[args.method], include_independents=not args.exclude_independents,
    )
    runner = (
        cascade_mod.run_one_vs_all if config.mode == "one_vs_all" else cascade_mod.run_all_vs_all
    )
    checked = _classifier_input(args)
    # A logistic model's embedder is also the TF-IDF backend's, one object,
    # so that the runner hands its token pass over to the featurizer.
    loaded = checked[1] if args.classifier_backend == "logistic" else None
    with contextlib.ExitStack() as backends:
        emb = _make_embedder(args, corpus, clusters, manifest, backends, loaded)
        tfidf = emb if args.embed_backend == "tfidf" else None
        clf = _make_classifier(args, checked, corpus, clusters, manifest, backends, tfidf)
        # How many queries a fraction leaves depends on the test pool's size.
        with _flags_for_fields(**flags):
            result = runner(config, manifest, clusters, corpus, emb, clf)
    _save(args, cascade_mod.scenario_to_json(result), 1)
    _emit(
        {
            "out": args.out,
            "n_queries": result.n_queries,
            "db_size": result.db_size,
            "ledger": {k: v for k, v in result.ledger.items() if k != "wall_clock_ms"},
        }
    )
    return 0


def cmd_report(args) -> int:
    shared_keys = ("mode", "seed", "query_fraction", "include_independents", "dedup_pairs")
    scenarios = []
    for path in args.inputs:
        source = _require_file(path, "--in")
        with _flag(f"--in: {path} is not a scenario artifact"):
            scenarios.append(artifacts.load(source, cascade_mod.scenario_from_json, "scenario file"))
    shared = [{k: getattr(config, k) for k in shared_keys} for config, _ in scenarios]
    for path, got in zip(args.inputs, shared):
        if got != shared[0]:
            raise UsageError(f"conflicting scenario configs: {path} has {got}, expected {shared[0]}")
    # Each artifact reports at its own k; a classification row carries it too.
    rows = [row for config, metrics in scenarios for row in metrics if row["k"] == config.k]
    rows.sort(key=lambda r: (r["method"], r["k"]))
    metrics_mod.write_metrics_csv(args.out, rows)
    _save(args, {}, 1, ".config.json")
    _emit({"out": args.out, "rows": len(rows), "inputs": len(scenarios)})
    return 0


# ---------------------------------------------------------------- parser


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    for flag in ("--corpus", "--clusters", "--manifest"):
        p.add_argument(flag, required=True)
    p.add_argument("--dim", type=int, default=embedder_mod.DEFAULT_DIM)


def _add_embed_flags(p: argparse.ArgumentParser, flag: str) -> None:
    p.add_argument(
        flag, dest="embed_backend", choices=("tfidf", "projection", "service"), default="tfidf"
    )
    p.add_argument("--projection", help="trained projection file (projection backend)")
    p.add_argument("--endpoint", help=f"embedding service URL (or ${EMBED_ENDPOINT_ENV})")


def _add_classifier_flags(p: argparse.ArgumentParser, flag: str, with_oracle: bool) -> None:
    choices = ("logistic", "similarity", "service") + (("oracle",) if with_oracle else ())
    p.add_argument(flag, dest="classifier_backend", choices=choices, default="similarity")
    p.add_argument("--model", help="trained classifier file (logistic backend)")
    p.add_argument("--sim-threshold", type=float, default=0.5)
    p.add_argument("--classify-endpoint", help=f"classifier service URL (or ${CLASSIFY_ENDPOINT_ENV})")


def _synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clusters", type=int, default=50)
    p.add_argument("--mean-size", type=float, default=3.0)
    p.add_argument("--independents", type=int, default=None)
    p.add_argument("--topics", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--csv-columns", help="bug_id,title,description,dup_of column mapping")


def _cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)


def _split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clusters", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument(
        "--dup-ratio",
        type=float,
        default=splitter_mod.DEFAULT_TARGET_DUP_RATIO,
        help="duplicate fraction targeted in dev/test pair mixes",
    )
    p.add_argument("--caps", help="per-split duplicate-pair caps, e.g. train=100,dev=50,test=50")


def _train_projection_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim-out", type=int, default=embedder_mod.DEFAULT_PROJECTION_DIM)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--margin", type=float, default=embedder_mod.DEFAULT_MARGIN)


def _train_classifier_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--threshold-step", type=float, default=0.01)


def _eval_retrieval_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--split", choices=splitter_mod.SPLITS, default="test")
    p.add_argument("--k-list", default="1,5,10,20,60,100")
    _add_embed_flags(p, "--backend")


def _eval_classification_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--split", choices=splitter_mod.SPLITS, default="test")
    _add_classifier_flags(p, "--backend", with_oracle=False)


def _run_cascade_flags(p: argparse.ArgumentParser) -> None:
    _add_data_flags(p)
    p.add_argument("--mode", choices=tuple(_MODE_NAMES), required=True)
    p.add_argument("--method", choices=tuple(_METHOD_NAMES), required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--query-fraction", type=float, default=0.2)
    p.add_argument("--dedup-pairs", action="store_true")
    p.add_argument("--exclude-independents", action="store_true")
    _add_embed_flags(p, "--embed-backend")
    _add_classifier_flags(p, "--classifier-backend", with_oracle=True)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="inputs", nargs="+", required=True)


# Each subcommand's help, handler and flags (``--out`` apart, which all
# take last), in the order the help lists them.
_COMMANDS = {
    "synth": ("generate a planted synthetic corpus", cmd_synth, _synth_flags),
    "ingest": ("normalize a raw corpus into canonical JSONL", cmd_ingest, _ingest_flags),
    "cluster": ("build duplicate clusters (transitive closure)", cmd_cluster, _cluster_flags),
    "split": ("leakage-free train/dev/test manifest", cmd_split, _split_flags),
    "train-projection": (
        "fit the triplet-loss projection", cmd_train_projection, _train_projection_flags
    ),
    "train-classifier": (
        "fit the logistic pair classifier", cmd_train_classifier, _train_classifier_flags
    ),
    "eval-retrieval": (
        "per-k recall/precision over a split", cmd_eval_retrieval, _eval_retrieval_flags
    ),
    "eval-classification": (
        "pairwise metrics over a split", cmd_eval_classification, _eval_classification_flags
    ),
    "run-cascade": ("run a scenario end to end", cmd_run_cascade, _run_cascade_flags),
    "report": ("merge scenario outputs into one CSV", cmd_report, _report_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given a subcommand's name, with that subparser only.

    Such a parser parses that command's arguments as the full one does and
    prints the same help and errors for them: its subcommand metavar still
    lists every command, which the top-level usage shows. A missing or an
    unknown command needs the full parser, whose errors list the choices.
    """
    parser = argparse.ArgumentParser(
        prog="bugdedup", description="Duplicate bug report detection pipeline"
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, add_flags) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.add_argument("--out", required=True)
            p.set_defaults(func=func)
    return parser


class _JsonLines(logging.Formatter):
    """A log record as one JSON object: its level, logger and message."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps({"level": record.levelname, "logger": record.name, "message": record.getMessage()})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    # The package's warnings go to stderr as JSON lines while the command
    # runs; the handler goes with it, so repeated in-process calls do not
    # stack handlers.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLines())
    package_logger = logging.getLogger(__package__)
    package_logger.addHandler(handler)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        _fail_json(exc)
        return 2
    except (remote_mod.RemoteError, embedder_mod.TrainingError, ValueError) as exc:
        _fail_json(exc)
        return 1
    finally:
        package_logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
