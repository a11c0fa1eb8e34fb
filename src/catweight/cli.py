"""Command-line entry point.

Subcommands: ``cv`` (k-fold cross-validation grid), ``curve`` (learning
curve on a fixed holdout), ``weights`` (weight-table export),
``vectorize`` (document vectors as TSV), ``train`` (fit and persist a
model), ``predict`` (classify raw text with a persisted model).

Every run resolves its configuration as command-line flags over an
optional JSON config file (``--config``) over built-in defaults, and
writes a ``<out>.manifest.json`` sidecar capturing the resolved
configuration, so reruns are reproducible byte for byte, whatever
``--jobs`` is.
Seeds are always explicit; there is no wall-clock default.  Features
are standardized unless ``--no-standardize`` is given.

An option's rules live in its one entry of ``_OPTIONS``: its flag and
kind, default, choices, lower bound, the commands that take it and its
help text.  The parser and every check ``_resolve`` makes of a flag or a
config value are built from that table.  The learner options are
``TrainConfig``'s fields, with its bounds; a list option (``--scheme``,
``--classifier``, ``--sizes``) is read by its command.  ``--config`` is
a flag only, so a config file cannot name another.

``train`` writes one self-contained model file (``classify.save_model``,
model format 6): ``predict`` reads only that file and its input text,
never the embedding or the manifest.  The file holds the weights of the
training terms the embedding knew, the only ones ``predict`` can use,
and their words sorted, so ``predict`` looks a line's words up by
binary search instead of building a dict of the vocabulary.
``predict`` reads and checks the members whose size does not depend on
the vocabulary before it reads its input, then reads and checks only
the blocks of words, embedding rows and table entries its input's words
use (``classify.ModelFile``).  A file of format 5 or older fails with a
message to retrain it.

Every output path is checked before any input is read, the default
name of a command's output (``results.csv``, ``curve.csv``,
``weights.<format>``, ``vectors.tsv``, ``model.bin``) as an explicit
``--out`` is; the manifest records ``"out": null`` for a default.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import cache
from pathlib import Path

from . import __version__
from .classify import (
    CLASSIFIERS,
    ModelFile,
    SavedModel,
    TrainConfig,
    predict_many,
    save_model,
    train,
)
from .corpus import (
    Document,
    LabeledCorpus,
    count_tokens,
    load_20ng,
    load_csv,
    load_jsonl,
    make_splits,
    sample,
    tokenize,
)
from .embeddings import (
    EMBEDDING_FORMATS,
    EmbeddingModel,
    for_terms,
    load_embeddings,
    synthetic_model,
)
from .errors import CatweightError, ConfigError
from .evaluation import (fit_pair, fit_table, grid_run, learning_curve, write_curve_csv,
                         write_results_csv)
from .vectorize import CorpusVectorizer, standardize_apply
from .weighting import DEFAULT_ALPHA, SCHEMES, export_weights

# The commands that take each group of options.
_DATA = ("cv", "curve", "weights", "vectorize", "train")
_EMBEDDING = ("cv", "curve", "vectorize", "train")
_LEARNER = ("cv", "curve", "train")


@dataclass(frozen=True)
class _Option:
    """One entry of ``_OPTIONS``.  ``kind`` is int, float, str, bool (a
    switch; one that defaults to on also takes ``--no-``) or list (names
    or sizes, which the command reads: ``_expand``, ``_one``,
    ``_curve_sizes``).  ``help`` is one text, or one per command where
    the commands' texts differ."""

    key: str  # the config key
    kind: type
    commands: tuple[str, ...]
    help: str | dict[str, str] | None = None
    default: object = None
    choices: tuple[str, ...] | None = None
    low: int | None = None  # a bounded float must also be finite

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_OPTIONS = (
    _Option("seed", int, _DATA, "random seed (required; no wall-clock default)", low=0),
    _Option("model", str, ("predict",), "model file written by train"),
    _Option("input", str, ("predict",), "text file with one document per line, or - for stdin",
            default="-"),
    _Option("out", str, (*_DATA, "predict"),
            {**dict.fromkeys(_DATA, "output file path"), "predict": "output TSV path"}),
    _Option("data", str, _DATA, "dataset path (file or directory)"),
    _Option("format", str, _DATA, "dataset format", default="auto",
            choices=("auto", "csv", "tsv", "jsonl", "20ng")),
    _Option("text_field", str, _DATA, "text column/key for csv/jsonl", default="text"),
    _Option("label_field", str, _DATA, "label column/key for csv/jsonl", default="label"),
    _Option("preserve_case", bool, _DATA, default=False),
    _Option("sample", int, _DATA, "cap the corpus at N documents", low=1),
    _Option("min_count", int, _DATA, "prune words below this count", default=1, low=1),
    _Option("embedding", str, _EMBEDDING, "embedding file path or synthetic:<d>:<seed>"),
    _Option("embedding_format", str, _EMBEDDING, default="auto",
            choices=("auto", *EMBEDDING_FORMATS)),
    _Option("case_fallback", bool, _EMBEDDING, default=False),
    _Option("alpha", float, _DATA, "TF-TRR alpha constant, >= 1", default=DEFAULT_ALPHA, low=1),
    _Option("standardize", bool, _LEARNER,
            "standardize features with training statistics (default: on)", default=True),
    # The learner options and their bounds are TrainConfig's.
    *(_Option(f.name, type(f.default), _LEARNER, default=f.default)
      for f in fields(TrainConfig) if f.name != "seed"),
    _Option("scheme", list, _DATA, {
        "cv": "scheme, comma list, or 'all'", "curve": "scheme, comma list, or 'all'",
        "weights": "one of tfidf, kld, tftrr, tfcr", "vectorize": "single scheme",
        "train": "single scheme"}, default="tfcr"),
    _Option("classifier", list, _LEARNER, {
        "cv": "classifier, comma list, or 'all'", "curve": "single classifier",
        "train": "logreg or svm"}, default="logreg"),
    _Option("k", int, ("cv", "curve"),
            {"cv": "number of folds", "curve": "holdout = 1/k of the corpus"}, default=10, low=2),
    _Option("stratified", bool, ("cv", "curve"), default=False),
    _Option("jobs", int, ("cv",),
            "classifier cells trained at once on worker threads, while the next "
            "scheme's features are built (default: the CPUs this process may use, "
            "divided by the BLAS threads per call, so 1 unless OPENBLAS_NUM_THREADS, "
            "MKL_NUM_THREADS or OMP_NUM_THREADS limits them); results do not depend on it",
            low=1),
    _Option("sizes", list, ("curve",), "explicit comma-separated ladder"),
    _Option("min", int, ("curve",), "smallest training size"),
    _Option("max", int, ("curve",), "largest training size"),
    _Option("step", int, ("curve",), "ladder step"),
    _Option("top_k", int, ("weights",), "keep only the top K words per category", low=1),
    _Option("output_format", str, ("weights",), default="json", choices=("json", "tsv")),
)

# The file a command writes without --out; predict then writes to stdout.
_DEFAULT_OUT = {"cv": "results.csv", "curve": "curve.csv", "weights": "weights.{output_format}",
                "vectorize": "vectors.tsv", "train": "model.bin"}


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catweight",
        description="Supervised term weighting over word embeddings: "
        "TF-CR and baselines, linear classifiers, CV harness.",
    )
    parser.add_argument("--version", action="version", version=f"catweight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        # A flag only: the file it names sets the options.
        p.add_argument("--config", help="JSON config file; flags take precedence")
        for opt in _OPTIONS:
            if command not in opt.commands:
                continue
            kwargs = {"choices": opt.choices} if opt.choices else {}
            if opt.kind is bool:
                kwargs["default"] = None
                kwargs["action"] = argparse.BooleanOptionalAction if opt.default else "store_true"
            elif opt.kind in (int, float):
                kwargs["type"] = opt.kind
            text = opt.help.get(command) if isinstance(opt.help, dict) else opt.help
            p.add_argument(opt.flag, help=text, **kwargs)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > defaults, for every option the command takes;
    a config key of another subcommand is ignored, one of none is an error.
    Every value is checked here, before any file is read or written."""
    file_cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - {opt.key for opt in _OPTIONS})
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for opt in _OPTIONS:
        if args.command in opt.commands:
            value = getattr(args, opt.key)
            if value is None:
                value = file_cfg.get(opt.key)
            resolved[opt.key] = opt.default if value is None else _checked(opt, value)
    out = _out(resolved, args.command)
    if out is not None:
        flag = "--out" if resolved.get("out") is not None else "the default --out"
        if not out.parent.is_dir():
            raise ConfigError(f"output directory not found: {out.parent}")
        if out.is_dir():
            raise ConfigError(f"{flag} names a directory: {out}")
        # Checked, not opened: opening would truncate an existing result.
        manifest = Path(f"{out}.manifest.json")
        for path in (out.parent, *(p for p in (out, manifest) if p.exists())):
            if not os.access(path, os.W_OK):
                raise ConfigError(f"{flag} cannot be written: no write permission on {path}")
    return resolved


def _checked(opt: _Option, value):
    """``value``, from a flag or a config file, as ``opt`` takes it; a
    value it does not take is a config error."""
    flag = opt.flag
    if opt.kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{flag} must be true or false, got {value!r}")
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"{flag} must be one of {', '.join(opt.choices)}, got {value!r}")
    if opt.kind is str and not isinstance(value, str):
        raise ConfigError(f"{flag} must be a string, got {value!r}")
    if opt.kind not in (int, float):
        return value
    try:
        number = _as_number(value, opt.kind)
    except (TypeError, ValueError):
        if opt.kind is int or opt.low is None:
            what = "an integer" if opt.kind is int else "a number"
            raise ConfigError(f"{flag} must be {what}, got {value!r}") from None
        number = math.nan  # a bounded float's non-number is out of its bounds
    if opt.low is not None and not number >= opt.low:
        raise ConfigError(f"{flag} must be >= {opt.low}, got {value}")
    if opt.low is not None and number == math.inf:
        raise ConfigError(f"{flag} must be finite, got {value}")
    return number


def _out(cfg: dict, command: str) -> Path | None:
    """The file ``command`` writes: ``--out``, or else its default name
    (``_DEFAULT_OUT``); None for a predict that writes to stdout."""
    if cfg.get("out") is not None:
        return Path(cfg["out"])
    default = _DEFAULT_OUT.get(command)
    return None if default is None else Path(default.format(**cfg))


def _require(cfg: dict, key: str, flag: str):
    if cfg.get(key) is None:
        raise ConfigError(f"{flag} is required")
    return cfg[key]


def _choice(name: str, valid: tuple[str, ...], what: str) -> str:
    """``name`` if it is one of ``valid``; otherwise a config error."""
    if name not in valid:
        raise ConfigError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")
    return name


def _expand(value, valid: tuple[str, ...], what: str) -> list[str]:
    """The names ``value`` gives: ``all``, a comma list, or a config
    file's JSON list of names, each one of ``valid``."""
    if value == "all":
        return list(valid)
    items = value if isinstance(value, list) else str(value).split(",")
    if not all(isinstance(item, str) for item in items):
        raise ConfigError(f"--{what} must be a name, a comma list or a list of names, got {value!r}")
    names = [v.strip() for v in items if v.strip()]
    if not names:
        raise ConfigError(f"no {what} given")
    return [_choice(name, valid, what) for name in names]


def _one(value, valid: tuple[str, ...], what: str, command: str) -> str:
    """The one name ``value`` gives (see ``_expand``)."""
    names = _expand(value, valid, what)
    if len(names) != 1:
        raise ConfigError(f"{command} takes exactly one {what}")
    return names[0]


def _detect_dataset_format(path: Path) -> str:
    if path.is_dir():
        return "20ng"
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".tsv":
        return "tsv"
    if suffix in (".jsonl", ".json", ".ndjson"):
        return "jsonl"
    raise ConfigError(
        f"cannot infer dataset format from {path}; pass --format explicitly"
    )


def _load_corpus(cfg: dict) -> LabeledCorpus:
    path = Path(_require(cfg, "data", "--data"))
    if not path.exists():
        raise ConfigError(f"dataset not found: {path}")
    fmt = cfg["format"]
    if fmt == "auto":
        fmt = _detect_dataset_format(path)
    preserve_case = cfg["preserve_case"]
    if fmt == "20ng":
        corpus = load_20ng(path, preserve_case)
    elif fmt in ("csv", "tsv"):
        corpus = load_csv(
            path,
            text_column=cfg["text_field"],
            label_column=cfg["label_field"],
            delimiter="," if fmt == "csv" else "\t",
            preserve_case=preserve_case,
        )
    else:  # jsonl
        corpus = load_jsonl(
            path, cfg["text_field"], cfg["label_field"], preserve_case=preserve_case
        )
    if cfg.get("sample") is not None:
        corpus = sample(corpus, cfg["sample"], _require(cfg, "seed", "--seed"))
    return corpus


def _resolve_embedding(cfg: dict, corpus: LabeledCorpus) -> EmbeddingModel:
    """The run's embedding: ``for_terms`` of the ``--embedding`` model."""
    spec = _require(cfg, "embedding", "--embedding")
    vocab = corpus.token_counts().terms
    if spec.startswith("synthetic:"):
        parts = spec.split(":")
        try:
            if len(parts) == 3:  # sorted: the order fixes the model's rows
                return synthetic_model(sorted(vocab), int(parts[1]), int(parts[2]))
        except ValueError:
            pass
        raise ConfigError(
            f"bad synthetic embedding spec {spec!r}; expected synthetic:<d>:<seed> "
            f"with integers d >= 1 and seed"
        )
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"embedding file not found: {path}")
    # Parse only the rows a corpus term can look up, its own or its lowercase form's.
    wanted = set(vocab).union(map(str.lower, vocab) if cfg["case_fallback"] else ())
    loaded = load_embeddings(path, cfg["embedding_format"], wanted)
    model = for_terms(loaded, vocab, cfg["case_fallback"])
    if not len(model):
        print(
            f"warning: {spec} has no row for any of the {len(vocab)} corpus terms",
            file=sys.stderr,
        )
    return model


def _as_number(value, kind: type = int):
    """``value``, a number or a numeric string, as ``kind`` (int or
    float); a bool, or a float with a fraction where an int is wanted,
    raises ValueError rather than being coerced."""
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(value)
    return kind(value)


def _train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fitting(cfg: dict) -> dict:
    """The pair step's options as a command gives them; a command without
    ``--standardize`` fits no scaler."""
    return {"alpha": cfg["alpha"], "min_count": cfg["min_count"],
            "standardize": cfg.get("standardize", False)}


def _write_manifest(out: Path, command: str, cfg: dict, extra: dict | None = None) -> Path:
    manifest = {
        "artifact": "catweight",
        "version": __version__,
        "command": command,
        "config": cfg,
    }
    if extra:
        manifest.update(extra)
    path = Path(str(out) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return path


def _summary_table(results, schemes, dataset: str) -> str:
    """Schemes as columns, one row per embedding x classifier."""
    cells = {}
    rows = []
    for (scheme, emb, clf), report in results.items():
        if (emb, clf) not in cells:
            cells[(emb, clf)] = {}
            rows.append((emb, clf))
        if isinstance(report, Exception):
            cells[(emb, clf)][scheme] = "failed"
        else:
            cells[(emb, clf)][scheme] = f"{report.mean_macro_f1:.4f}"
    emb_w = max([len(e) for e, _ in rows] + [len("embedding")])
    clf_w = max([len(c) for _, c in rows] + [len("classifier")])
    header = (
        f"{'dataset':<{max(len(dataset), 7)}}  {'embedding':<{emb_w}}  "
        f"{'classifier':<{clf_w}}  " + "  ".join(f"{s:>8}" for s in schemes)
    )
    lines = [header]
    for emb, clf in rows:
        row = cells[(emb, clf)]
        lines.append(
            f"{dataset:<{max(len(dataset), 7)}}  {emb:<{emb_w}}  {clf:<{clf_w}}  "
            + "  ".join(f"{row.get(s, ''):>8}" for s in schemes)
        )
    return "\n".join(lines)


def cmd_cv(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    seed = _require(cfg, "seed", "--seed")
    schemes = _expand(cfg["scheme"], SCHEMES, "scheme")
    classifiers = _expand(cfg["classifier"], CLASSIFIERS, "classifier")
    train_config = _train_config(cfg)
    corpus = _load_corpus(cfg)
    embedding = _resolve_embedding(cfg, corpus)
    plan = make_splits(corpus, cfg["k"], seed=seed, stratified=cfg["stratified"])
    dataset = Path(cfg["data"]).name
    results = grid_run(corpus, schemes, embedding, classifiers, plan, train_config,
                       jobs=cfg["jobs"], **_fitting(cfg))
    out = _out(cfg, "cv")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_results_csv(results, fh, dataset)
    _write_manifest(out, "cv", cfg)
    print(_summary_table(results, schemes, dataset))
    print(f"results written to {out}")
    if all(isinstance(r, Exception) for r in results.values()):
        for exc in results.values():
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _curve_sizes(cfg: dict) -> list[int]:
    """The requested ladder, ascending, checked before the corpus loads."""
    if cfg.get("sizes"):
        raw = cfg["sizes"]
        try:
            parts = raw.split(",") if isinstance(raw, str) else list(raw)
            sizes = sorted({_as_number(p) for p in parts})
        except (TypeError, ValueError):
            raise ConfigError(f"bad --sizes value {raw!r}") from None
        if sizes[0] < 1:
            raise ConfigError(f"--sizes must be >= 1, got {raw}")
        return sizes
    lo, hi, step = cfg.get("min"), cfg.get("max"), cfg.get("step")
    if lo is None or hi is None or step is None:
        raise ConfigError("curve needs --sizes or all of --min/--max/--step")
    if lo < 1 or hi < lo or step < 1:
        raise ConfigError(f"bad ladder bounds min={lo} max={hi} step={step}")
    return list(range(lo, hi + 1, step))


def _fitting_sizes(sizes: list[int], available: int) -> list[int]:
    """The sizes that fit the ``available`` training documents."""
    kept = [s for s in sizes if s <= available]
    if len(kept) < len(sizes):
        print(
            f"warning: ladder truncated to {available} available training "
            f"documents ({len(sizes) - len(kept)} sizes dropped)",
            file=sys.stderr,
        )
    if not kept:
        raise ConfigError(
            f"no ladder size fits the {available} available training documents"
        )
    return kept


def cmd_curve(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    seed = _require(cfg, "seed", "--seed")
    schemes = _expand(cfg["scheme"], SCHEMES, "scheme")
    classifier = _one(cfg["classifier"], CLASSIFIERS, "classifier", "curve")
    train_config = _train_config(cfg)
    sizes = _curve_sizes(cfg)
    corpus = _load_corpus(cfg)
    plan = make_splits(corpus, cfg["k"], seed=seed, stratified=cfg["stratified"])
    plan = replace(plan, size_ladder=tuple(_fitting_sizes(sizes, len(plan.ladder_order))))
    embedding = _resolve_embedding(cfg, corpus)
    points = learning_curve(corpus, plan, schemes, embedding, classifier, train_config,
                            record_failures=True, **_fitting(cfg))
    out = _out(cfg, "curve")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_curve_csv(points, schemes, fh)
    _write_manifest(out, "curve", cfg)
    header = ["train_size"] + [f"{s:>8}" for s in schemes]
    print("  ".join(f"{h:>10}" if i == 0 else h for i, h in enumerate(header)))
    for point in points:
        row = [f"{point.training_size:>10}"] + [
            f"{point.scores[s]:>8.4f}" if s in point.scores else f"{'failed':>8}"
            for s in schemes
        ]
        print("  ".join(row))
    print(f"curve written to {out}")
    for point in points:
        by_error: dict[str, list[str]] = {}
        for scheme, exc in point.failures.items():
            by_error.setdefault(str(exc), []).append(scheme)
        for message, failed in by_error.items():
            print(
                f"warning: size {point.training_size} failed for {', '.join(failed)}: "
                f"{message}",
                file=sys.stderr,
            )
    if all(not point.scores for point in points):
        print("error: every curve point failed", file=sys.stderr)
        return 1
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "seed", "--seed")
    scheme = _one(cfg["scheme"], SCHEMES, "scheme", "weights")
    if scheme == "none":
        raise ConfigError("scheme 'none' has no weights to export")
    corpus = _load_corpus(cfg)
    table = fit_table(corpus, scheme, alpha=cfg["alpha"], min_count=cfg["min_count"])
    out = _out(cfg, "weights")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        export_weights(table, fh, fmt=cfg["output_format"], top=cfg.get("top_k"))
    _write_manifest(out, "weights", cfg)
    print(f"{scheme} weights for {len(table.term_ids)} words written to {out}")
    return 0


def cmd_vectorize(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "seed", "--seed")
    scheme = _one(cfg["scheme"], SCHEMES, "scheme", "vectorize")
    corpus = _load_corpus(cfg)
    embedding = _resolve_embedding(cfg, corpus)
    vectorizer = CorpusVectorizer(corpus.documents, embedding, counts=corpus.token_counts())
    _, X, _ = fit_pair(corpus, vectorizer, scheme, **_fitting(cfg))  # no --standardize here
    out = _out(cfg, "vectorize")
    with open(out, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(corpus.documents):
            label = "" if doc.label is None else corpus.categories[doc.label]
            row = "\t".join(repr(float(v)) for v in X[i])
            fh.write(f"{doc.source_id}\t{label}\t{row}\n")
    _write_manifest(out, "vectorize", cfg)
    print(f"{X.shape[0]} vectors of dimension {X.shape[1]} written to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _require(cfg, "seed", "--seed")
    scheme = _one(cfg["scheme"], SCHEMES, "scheme", "train")
    classifier = _one(cfg["classifier"], CLASSIFIERS, "classifier", "train")
    train_config = _train_config(cfg)
    corpus = _load_corpus(cfg)
    embedding = _resolve_embedding(cfg, corpus)
    vectorizer = CorpusVectorizer(corpus.documents, embedding, counts=corpus.token_counts())
    # Every document is training data: the whole-corpus vectorizer and no subset.
    table, X, scaler = fit_pair(corpus, vectorizer, scheme, **_fitting(cfg))
    model = train(classifier, X, corpus.labels(), train_config, len(corpus.categories))
    out = _out(cfg, "train")
    saved = SavedModel(model, table, embedding, scaler, cfg["preserve_case"])
    save_model(saved, out)
    _write_manifest(
        out,
        "train",
        cfg,
        extra={
            "model": {
                "kind": classifier,
                "num_classes": len(corpus.categories),
                "num_features": model.num_features,
                "final_objective": model.training_log[-1],
            },
        },
    )
    print(
        f"{classifier} model ({model.num_classes} classes x {model.num_features} "
        f"features) written to {out}"
    )
    return 0


def _predict_input(spec: str):
    """The text stream ``--input`` names, read with ``newline=""``: a
    line ends only at ``\\n``, ``\\r\\n`` or ``\\r`` (not at a form feed,
    ``\\x85`` or ``\\u2028``, as with ``str.splitlines``) and keeps its
    line end.  For ``-`` it is stdin as configured, but a ``TextIOWrapper``
    stdin is reconfigured, since POSIX stdin ends lines only at ``\\n``;
    a file is decoded as UTF-8 with invalid bytes replaced."""
    if spec == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(newline="")
        return nullcontext(sys.stdin)
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    return open(path, encoding="utf-8", errors="replace", newline="")


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    model_path = Path(_require(cfg, "model", "--model"))
    if not model_path.is_file():
        raise ConfigError(f"model file not found: {model_path}")
    with ModelFile(model_path) as model_file:
        saved = model_file.saved  # no word, embedding row or table row read yet
        with _predict_input(cfg.get("input") or "-") as stream:
            # One line at a time: a line's tokens are counted, then dropped.
            # Its line end tokenizes as a space.
            counts = count_tokens(
                Document(tokenize(line, saved.preserve_case), None, f"line-{i + 1}")
                for i, line in enumerate(stream)
            )
        # Only training terms have embedding rows in the model file.  Of
        # the words, their embedding rows and the table, only the blocks
        # holding the input's are read and checked.
        rows = saved.embedding.rows_of(counts.terms)
        saved = model_file.read_rows(rows)
        # Built while the file is open, which the model's words are read
        # from if anything asks for them.
        vectorizer = CorpusVectorizer((), saved.embedding, counts=counts, rows=rows)
    num_lines = len(vectorizer.known_token_counts)
    unknown = int((vectorizer.known_token_counts == 0).sum())
    if unknown:
        print(
            f"warning: {unknown} of {num_lines} input lines have no token the model "
            f"knows and are scored as an empty document",
            file=sys.stderr,
        )
    X = vectorizer.matrix(saved.table)
    if saved.scaler is not None:
        standardize_apply(saved.scaler, X, out=X)
    categories = saved.table.categories
    pred, scores = predict_many(saved.model, X)
    out_lines = ["\t".join(["label", *categories])]
    for label, row in zip(pred.tolist(), scores.tolist()):
        out_lines.append(f"{categories[label]}\t" + "\t".join(map(repr, row)))
    text = "\n".join(out_lines) + "\n"
    out = cfg.get("out")
    if out:
        Path(out).write_text(text, encoding="utf-8")
        _write_manifest(Path(out), "predict", cfg)
        print(f"{num_lines} predictions written to {out}")
    else:
        sys.stdout.write(text)
    return 0


# Each command, and its line in the top-level --help.
_COMMANDS = {
    "cv": (cmd_cv, "k-fold cross-validation over a scheme/classifier grid"),
    "curve": (cmd_curve, "learning curve on a fixed holdout"),
    "weights": (cmd_weights, "export a weight table"),
    "vectorize": (cmd_vectorize, "emit document vectors as TSV"),
    "train": (cmd_train, "train and persist a model"),
    "predict": (cmd_predict, "classify raw text lines with a saved model"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (CatweightError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
