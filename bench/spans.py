"""Spans around catweight's public functions, installed from outside.

``Tracer.install()`` replaces each target function with a wrapper in
every ``catweight`` module namespace (and class) that holds it, so
callers that resolve the name at call time (``catweight.cli.build_stats``,
``catweight.evaluation.build_stats``, ...) all go through the wrapper.
``uninstall()`` puts the originals back.  A target that no longer exists
is skipped and listed in ``absent``; the metrics it feeds read 0.

Each span records name, layer, start, end and parent span; spans are
kept in memory.  Counters are updated at the same boundaries, inside a
child span of layer ``trace`` so their cost is not charged to the
program's layers.  ``summary()`` turns one traced call's spans into
per-layer self times and counts.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("corpus", "embeddings", "stats", "weighting", "vectorize",
          "classify", "evaluation", "cli")

# (target, layer, part): ``part`` names the sub-metric ``<layer>.<part>_s``
# the span's self time also counts toward (None: the layer total only).
TARGETS = (
    ("catweight.corpus:load_csv", "corpus", "load"),
    ("catweight.corpus:load_jsonl", "corpus", "load"),
    ("catweight.corpus:load_20ng", "corpus", "load"),
    ("catweight.corpus:tokenize", "corpus", "tokenize"),
    ("catweight.corpus:LabeledCorpus.token_counts", "corpus", None),
    ("catweight.corpus:make_splits", "corpus", None),
    ("catweight.corpus:sample", "corpus", None),
    ("catweight.embeddings:load_embeddings", "embeddings", "load"),
    ("catweight.embeddings:load_glove_text", "embeddings", "load"),
    ("catweight.embeddings:load_word2vec_text", "embeddings", "load"),
    ("catweight.embeddings:load_word2vec_binary", "embeddings", "load"),
    ("catweight.embeddings:synthetic_model", "embeddings", "load"),
    ("catweight.stats:build_stats", "stats", "build"),
    ("catweight.weighting:build_table", "weighting", "table"),
    ("catweight.weighting:table_payload", "weighting", "payload"),
    ("catweight.weighting:table_from_payload", "weighting", "payload"),
    ("catweight.vectorize:CorpusVectorizer.__init__", "vectorize", "init"),
    ("catweight.vectorize:CorpusVectorizer.matrix", "vectorize", "matrix"),
    ("catweight.vectorize:standardize_fit", "vectorize", "scale"),
    ("catweight.vectorize:standardize_apply", "vectorize", "scale"),
    ("catweight.classify:train_logreg", "classify", "train"),
    ("catweight.classify:train_svm", "classify", "train"),
    ("catweight.classify:predict_many", "classify", "predict"),
    ("catweight.classify:save_model", "classify", None),
    ("catweight.classify:load_model", "classify", None),
    ("catweight.evaluation:grid_run", "evaluation", None),
    ("catweight.evaluation:cross_validate", "evaluation", None),
    ("catweight.evaluation:learning_curve", "evaluation", None),
    ("catweight.evaluation:macro_f1", "evaluation", "score"),
    ("catweight.evaluation:write_results_csv", "cli", None),
    ("catweight.evaluation:write_curve_csv", "cli", None),
    ("catweight.cli:main", "cli", None),
)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class _Rows(np.ndarray):
    """A feature-matrix view that marks the rows its caller indexes."""

    def __array_finalize__(self, obj):
        self.used = getattr(obj, "used", None)

    def __getitem__(self, key):
        used = self.used
        if used is not None and self.ndim == 2 and self.shape[0] == used.size:
            try:
                used[key[0] if isinstance(key, tuple) else key] = True
            except (IndexError, TypeError, ValueError):
                pass
        out = np.ndarray.__getitem__(self, key)
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out


class _Refs:
    """id -> value for live objects that may be unhashable (dataclasses)."""

    def __init__(self):
        self._items: dict[int, tuple] = {}

    def put(self, obj, value) -> None:
        try:
            self._items[id(obj)] = (weakref.ref(obj), value)
        except TypeError:
            pass

    def get(self, obj, default=None):
        hit = self._items.get(id(obj))
        return hit[1] if hit is not None and hit[0]() is obj else default


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, part, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.row_masks: list[np.ndarray] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._subset_of = _Refs()   # CorpusStats -> training-subset key
        self._table_key = _Refs()   # WeightTable -> (scheme, subset key)
        self._pairs = _Refs()       # CorpusVectorizer -> (doc, word) pairs
        self._counters = {
            "tokenize": self._count_tokenize,
            "load_embeddings": self._count_embedding_load,
            "synthetic_model": self._count_embedding_load,
            "build_stats": self._count_stats,
            "build_table": self._count_table,
            "table_payload": self._count_payload_out,
            "table_from_payload": self._count_payload_in,
            "CorpusVectorizer.__init__": self._count_vectorizer,
            "CorpusVectorizer.matrix": self._count_matrix,
            "train_logreg": self._count_model,
            "train_svm": self._count_model,
        }

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.sets.clear()
        self.row_masks.clear()

    def _open(self, name: str, layer: str, part) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, part, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, part):
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, layer, part)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                inner = self._open("count", "trace", None)
                try:
                    result = counter(args, kwargs, result)
                finally:
                    self._close(inner)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "catweight" or n.startswith("catweight."))]
        for target, layer, part in TARGETS:
            module_name, qualname = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for step in path:
                    owner = getattr(owner, step)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, qualname, layer, part)
            if path:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- counters (run inside a ``trace`` span) -----------------------------

    def _count_tokenize(self, args, kwargs, result):
        self.counts["corpus.docs"] += 1
        self.counts["corpus.tokens"] += len(result)
        return result

    def _count_embedding_load(self, args, kwargs, result):
        self.counts["embeddings.loads"] += 1
        self.counts["embeddings.rows_parsed"] += len(result.words) + result.skipped_lines
        return result

    def _count_stats(self, args, kwargs, result):
        subset = _arg(args, kwargs, 1, "doc_subset")
        if subset is None:
            key = ("all", len(_arg(args, kwargs, 0, "corpus")))
        else:
            key = hashlib.sha1(np.asarray(subset, dtype=np.int64).tobytes()).hexdigest()
        self.counts["stats.builds"] += 1
        self.sets["stats.subsets"].add(key)
        self._subset_of.put(result, key)
        return result

    def _count_table(self, args, kwargs, result):
        stats = _arg(args, kwargs, 0, "stats")
        self.counts["weighting.tables"] += 1
        self._table_key.put(result, (result.scheme, self._subset_of.get(stats)))
        return result

    def _count_payload_out(self, args, kwargs, result):
        self.counts["weighting.payload_entries"] += len(result.get("entries", ()))
        return result

    def _count_payload_in(self, args, kwargs, result):
        payload = _arg(args, kwargs, 0, "payload")
        self.counts["weighting.payload_entries"] += len(payload.get("entries", ()))
        self._table_key.put(result, (result.scheme, "payload"))
        return result

    def _count_vectorizer(self, args, kwargs, result):
        vec, documents = args[0], _arg(args, kwargs, 1, "documents")
        ids = vec.model.word_ids
        rows: set[int] = set()
        pairs = 0
        for doc in documents:
            found = {ids[t] for t in doc.tokens if t in ids}
            pairs += len(found)
            rows |= found
        self.counts["vectorize.inits"] += 1
        self.counts["embeddings.rows_used"] += len(rows)
        self._pairs.put(vec, pairs)
        return result

    def _count_matrix(self, args, kwargs, result):
        vec, table = args[0], _arg(args, kwargs, 1, "table")
        d = vec.model.dimension
        self.counts["vectorize.matrices"] += 1
        self.counts["vectorize.rows_built"] += result.shape[0]
        self.counts["vectorize.flop"] += 2.0 * self._pairs.get(vec, 0) * d * (result.shape[1] // d)
        self.sets["vectorize.distinct"].add(self._table_key.get(table, (table.scheme, None)))
        view = result.view(_Rows)
        view.used = np.zeros(result.shape[0], dtype=bool)
        self.row_masks.append(view.used)
        return view

    def _count_model(self, args, kwargs, result):
        self.counts["classify.models"] += 1
        self.counts["classify.epochs"] += len(result.training_log) - 1
        return result

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Self times and counts of the spans recorded since ``reset``."""
        child_time = [0.0] * len(self.spans)
        for name, layer, part, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, layer, part, start, end, parent), inner in zip(self.spans, child_time):
            own = end - start - inner
            out[f"{layer}.self_s"] += own
            if part is not None:
                out[f"{layer}.{part}_s"] += own
            if parent < 0:
                out["trace.job_s"] += end - start
        out.update(self.counts)
        out["stats.subsets"] = len(self.sets["stats.subsets"])
        out["vectorize.distinct"] = len(self.sets["vectorize.distinct"])
        out["vectorize.rows_used"] = sum(
            int(m.sum()) if m.any() else m.size for m in self.row_masks)
        return out
