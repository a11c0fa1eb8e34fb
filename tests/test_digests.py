"""Output bits pinned by SHA-256 digest.

Feature matrices, weight exports, vectorize TSVs, a model file, predict
TSVs and cv and curve CSVs of one fixed generated corpus must keep their
exact bytes through refactors of the stats, weighting, vectorize,
evaluation and model-file layers.  The features and
the exports come from scipy's sparse kernels and elementwise numpy, not
from BLAS; the model file holds trained weights and the TSVs hold
scores, which do (see TestTrajectories).
Digests were recorded with numpy 2.4, scipy 1.17 and OpenBLAS 0.3.31 on
x86-64; another library version or SIMD path may round differently.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np
import pytest

from catweight import (
    CorpusVectorizer,
    build_stats,
    build_table,
    for_terms,
    from_token_lists,
    save_glove_text,
    synthetic_model,
    top_k,
)
from catweight.cli import main

CATEGORIES = ("alpha", "beta", "gamma")
VOCAB = [f"w{i:03d}" for i in range(150)]


def _corpus():
    """60 documents over a Zipf-like shared vocabulary plus a few words
    per category; about one token in ten is capitalized."""
    rng = np.random.default_rng(20261018)
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    p /= p.sum()
    token_lists, labels = [], []
    for i in range(60):
        c = i % 3
        tokens = [VOCAB[k] for k in rng.choice(len(VOCAB), size=int(rng.integers(4, 40)), p=p)]
        tokens += [f"c{c}k{k}" for k in rng.integers(0, 6, size=int(rng.integers(1, 6)))]
        tokens = [t.title() if rng.random() < 0.1 else t for t in tokens]
        token_lists.append(tokens)
        labels.append(c)
    return from_token_lists(token_lists, labels, CATEGORIES)


def _model():
    """Lowercase rows for all but every seventh shared word."""
    known = [w for i, w in enumerate(VOCAB) if i % 7] + [
        f"c{c}k{k}" for c in range(3) for k in range(5)
    ]
    return synthetic_model(known, 6, seed=5)


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


class TestOutputDigests:
    @pytest.mark.parametrize("scheme, digest", [
        ("none", "da9166b76584d44fd31ffaf05314ccd1649eae35685c8824ac634bac79b877f9"),
        ("tfidf", "00981123e785d232e203a1b7695aae6c51dbf08d678b6f7404dd81ade47d2007"),
        ("kld", "c9a4826c04d5430a81598f163de44aa6d643908ec77416683939db71a25e3d71"),
        ("tftrr", "bb54b7be55a21d889e5faf637f35e956089b9314decb219c66c83c73305ca0e5"),
        ("tfcr", "001bdff6caae5a668b69908fc44560eb6db8f54d963948f58e153a2dd9a823ab"),
    ])
    def test_matrix_is_pinned(self, scheme, digest):
        """All rows and a shuffled subset with repeats, at min_count 1 and
        2, with and without case fallback, fit on two thirds of the docs."""
        corpus, model = _corpus(), _model()
        train = np.arange(len(corpus))[np.arange(len(corpus)) % 3 != 1]
        subset = np.random.default_rng(3).permutation(len(corpus))[:25]
        subset = np.concatenate([subset, subset[:4]])
        chunks = []
        for min_count in (1, 2):
            table = build_table(build_stats(corpus, doc_subset=train, min_count=min_count), scheme)
            for fallback in (False, True):
                embedding = for_terms(model, corpus.token_counts().terms, fallback)
                vec = CorpusVectorizer(corpus.documents, embedding, counts=corpus.token_counts())
                chunks += [vec.matrix(table).tobytes(), vec.view(subset).matrix(table).tobytes()]
        assert _digest(*chunks) == digest

    @pytest.mark.parametrize("scheme, digest", [
        ("tfidf", "cf3bb152ee62b73f0660130da8508a760d8773b13723c92b03511c5e10c2b760"),
        ("kld", "130a746b5299e864a9f3312b1a6e4e61e8b17be22af92a7ae3926b0e44ab0505"),
        ("tftrr", "13558f8b3bb5b4a118d40084904a2c376c441fed97297ed84fddfefde47b2dfd"),
        ("tfcr", "ec0dd0b152f6d76c9f290f8c16772d1d9fe39f62b2363f0614d941ea7ca245ce"),
    ])
    def test_weights_export_is_pinned(self, scheme, digest, tmp_path):
        """The JSON and TSV exports with and without --top-k, and every
        category's full top_k ranking, zero-weight tail included."""
        data = _write_csv(tmp_path)
        chunks = []
        for fmt in ("json", "tsv"):
            for top in ([], ["--top-k", "7"]):
                out = tmp_path / f"w.{fmt}"
                argv = ["weights", "--data", str(data), "--seed", "1", "--scheme", scheme,
                        "--output-format", fmt, "--out", str(out), *top]
                assert main(argv) == 0
                chunks.append(out.read_bytes())
        table = build_table(build_stats(_corpus()), scheme)
        chunks += [top_k(table, c, 10_000) for c in range(len(CATEGORIES))]
        assert _digest(*chunks) == digest

    def test_model_file_is_pinned(self, tmp_path):
        data = _write_csv(tmp_path)
        glove = tmp_path / "glove.txt"
        save_glove_text(_model(), glove)
        out = tmp_path / "model.bin"
        argv = ["train", "--data", str(data), "--embedding", str(glove), "--seed", "1",
                "--scheme", "tftrr", "--epochs", "5", "--min-count", "2", "--out", str(out)]
        assert main(argv) == 0
        digest = "d26d8fde39bca42c3b46ab45797be0db6b6156243fec79e251839604bd4ed18f"
        assert _digest(out.read_bytes()) == digest

    def test_predict_output_is_pinned(self, tmp_path):
        """A model per scheme; the TSV of a batch predict over the corpus
        lines plus lines with unknown, capitalized and no words, and the
        TSV of each of the first lines predicted on its own."""
        data = _write_csv(tmp_path)
        glove = tmp_path / "glove.txt"
        save_glove_text(_model(), glove)
        lines = [" ".join(doc.tokens) for doc in _corpus().documents]
        lines += ["zzz W001 w002 c1k3", "", "C2K4 c2k4 w000 w000 w000 qqq"]
        inputs = tmp_path / "lines.txt"
        chunks = []
        for scheme in ("none", "tfidf", "kld", "tftrr", "tfcr"):
            model = tmp_path / f"{scheme}.bin"
            argv = ["train", "--data", str(data), "--embedding", str(glove), "--seed", "1",
                    "--scheme", scheme, "--epochs", "5", "--out", str(model)]
            assert main(argv) == 0
            for batch in [lines, *([line] for line in lines[:8])]:
                inputs.write_text("\n".join(batch) + "\n", encoding="utf-8")
                out = tmp_path / "predictions.tsv"
                argv = ["predict", "--model", str(model), "--input", str(inputs), "--out", str(out)]
                assert main(argv) == 0
                chunks.append(out.read_bytes())
        digest = "def83fdf1264bfab4999540a740ecf9c72316764429dd0875b5128a595b07553"
        assert _digest(*chunks) == digest

    def test_case_fallback_outputs_are_pinned(self, tmp_path):
        """Under --preserve-case --case-fallback, where a capitalized term
        takes its lowercase form's row: the tftrr and tfcr model files,
        their batch predict TSVs, and the cv CSV of every scheme, its
        embedding column (a temporary path) dropped."""
        data = _write_csv(tmp_path)
        glove = tmp_path / "glove.txt"
        save_glove_text(_model(), glove)
        common = ["--data", str(data), "--embedding", str(glove), "--seed", "1",
                  "--epochs", "5", "--preserve-case", "--case-fallback"]
        lines = [" ".join(doc.tokens) for doc in _corpus().documents]
        inputs = tmp_path / "lines.txt"
        inputs.write_text("\n".join(lines + ["W001 w001 C2K4 Zzz", ""]) + "\n", encoding="utf-8")
        chunks = []
        for scheme in ("tftrr", "tfcr"):
            model, out = tmp_path / f"{scheme}.bin", tmp_path / f"{scheme}.tsv"
            assert main(["train", *common, "--scheme", scheme, "--out", str(model)]) == 0
            argv = ["predict", "--model", str(model), "--input", str(inputs), "--out", str(out)]
            assert main(argv) == 0
            chunks += [model.read_bytes(), out.read_bytes()]
        out = tmp_path / "cv.csv"
        argv = ["cv", *common, "--scheme", "all", "--classifier", "logreg", "--k", "3",
                "--out", str(out)]
        assert main(argv) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("embedding")
        chunks += [[cell for i, cell in enumerate(row) if i != drop] for row in rows]
        digest = "963fddd8ac2a9afe859f7cc78532da6f8b351eef874ee7cbd9c309d749360574"
        assert _digest(*chunks) == digest


    def test_vectorize_output_is_pinned(self, tmp_path):
        """The vectorize TSV of every scheme over the whole corpus."""
        data = _write_csv(tmp_path)
        glove = tmp_path / "glove.txt"
        save_glove_text(_model(), glove)
        chunks = []
        for scheme in ("none", "tfidf", "kld", "tftrr", "tfcr"):
            out = tmp_path / f"{scheme}.tsv"
            argv = ["vectorize", "--data", str(data), "--embedding", str(glove), "--seed", "1",
                    "--scheme", scheme, "--out", str(out)]
            assert main(argv) == 0
            chunks.append(out.read_bytes())
        digest = "bba9e9443c0fb35cf11941dfa93b405145404cbfd9f9fa250f47f403f34cbd47"
        assert _digest(*chunks) == digest

    def test_curve_output_is_pinned(self, tmp_path):
        """The curve CSV of every scheme, without case fallback."""
        data = _write_csv(tmp_path)
        glove = tmp_path / "glove.txt"
        save_glove_text(_model(), glove)
        out = tmp_path / "curve.csv"
        argv = ["curve", "--data", str(data), "--embedding", str(glove), "--seed", "1",
                "--epochs", "5", "--scheme", "all", "--classifier", "logreg", "--k", "3",
                "--stratified", "--sizes", "15,27,40", "--out", str(out)]
        assert main(argv) == 0
        digest = "a5217927e11ea3ddfd8bd93b9d05a26aea3129f4a9cbd8b2e210a07691fa560c"
        assert _digest(out.read_bytes()) == digest

def _write_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    corpus = _corpus()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for doc in corpus.documents:
            writer.writerow([" ".join(doc.tokens), CATEGORIES[doc.label]])
    return path
