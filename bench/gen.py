"""Seeded input generator for the benchmark.

``make_inputs(cache_root, seed)`` writes, once per seed, into
``<cache_root>/seed-<seed>/``:

* ``corpus.csv``   a 20-Newsgroups-shaped labeled corpus (``text,label``);
* ``glove.txt``    a GloVe-format text embedding that covers only part of
                   the corpus vocabulary and carries extra rows no document
                   uses, so OOV tokens and a real parse are exercised;
* ``holdout.txt``  unlabeled lines for ``predict``, drawn from the same
                   process but not part of the corpus, with their true
                   labels in ``holdout_labels.txt``.

The shape (sizes, lengths, mixing ratios) is fixed; the seed only changes
which words and vectors are drawn, so every seed costs the program about
the same work.  Uses only the standard library and numpy.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

CATEGORIES = (
    "alt.atheism", "comp.graphics", "comp.os.ms-windows.misc",
    "comp.sys.ibm.pc.hardware", "comp.sys.mac.hardware", "comp.windows.x",
    "misc.forsale", "rec.autos", "rec.motorcycles", "rec.sport.baseball",
    "rec.sport.hockey", "sci.crypt", "sci.electronics", "sci.med", "sci.space",
    "soc.religion.christian", "talk.politics.guns", "talk.politics.mideast",
    "talk.politics.misc", "talk.religion.misc",
)
NUM_DOCS = 1200
NUM_HOLDOUT = 2000
VOCAB = 30_000
ZIPF_S = 1.05
MEAN_TOKENS = 150
LENGTH_SIGMA = 0.5
MIN_TOKENS, MAX_TOKENS = 20, 800
BANK_SIZE = 300          # topical words per category
GROUP_BANK_SIZE = 300    # topical words shared by a newsgroup hierarchy
TOPIC_SHARE = (0.05, 0.12)  # per-document share of category-bank tokens
GROUP_SHARE = 0.08
EMB_DIM = 50
EMB_COVERAGE = 0.8       # share of the corpus vocabulary the embedding knows
EMB_EXTRA_ROWS = 20_000  # rows for words no document uses
CACHE_KEEP = 12          # seeds whose inputs stay cached

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"] + ["th", "qu", "sh"]


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """``count`` distinct pseudo-words of 2-4 syllables, none in ``taken``."""
    out: list[str] = []
    while len(out) < count:
        lengths = rng.integers(2, 5, size=count).tolist()
        parts = rng.integers(0, len(_SYLLABLES), size=(count, 4)).tolist()
        for n, row in zip(lengths, parts):
            word = "".join([_SYLLABLES[p] for p in row[:n]])
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return out


def _zipf_cdf(n: int) -> np.ndarray:
    p = 1.0 / np.arange(3, n + 3, dtype=np.float64) ** ZIPF_S
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


class _Process:
    """The generative process behind corpus and holdout documents."""

    def __init__(self, rng: np.random.Generator):
        self.vocab = _words(rng, VOCAB, set())
        self.background = _zipf_cdf(VOCAB)
        # Topical words come from the mid and low frequency ranks, as
        # content words do.  Banks are disjoint, so every seed poses a
        # problem of the same difficulty; a newsgroup hierarchy (comp,
        # rec, ...) shares one more bank, which makes its members confusable.
        groups = sorted({name.split(".")[0] for name in CATEGORIES})
        pool = rng.permutation(np.arange(200, VOCAB))
        size = BANK_SIZE * len(CATEGORIES)
        self.banks = np.split(pool[:size], len(CATEGORIES))
        group_banks = dict(zip(groups, np.split(pool[size:size + GROUP_BANK_SIZE * len(groups)],
                                                len(groups))))
        self.group_of = [group_banks[name.split(".")[0]] for name in CATEGORIES]
        self.bank_cdf = _zipf_cdf(BANK_SIZE)
        self.group_cdf = _zipf_cdf(GROUP_BANK_SIZE)

    def document(self, rng: np.random.Generator, c: int) -> list[int]:
        length = int(np.clip(rng.lognormal(np.log(MEAN_TOKENS), LENGTH_SIGMA),
                             MIN_TOKENS, MAX_TOKENS))
        n_topic = int(round(length * rng.uniform(*TOPIC_SHARE)))
        n_group = int(round(length * GROUP_SHARE))
        n_back = length - n_topic - n_group
        ids = np.concatenate([
            _draw(rng, self.background, n_back),
            self.banks[c][_draw(rng, self.bank_cdf, n_topic)],
            self.group_of[c][_draw(rng, self.group_cdf, n_group)],
        ])
        rng.shuffle(ids)
        return ids.tolist()

    def text(self, ids: list[int]) -> str:
        """Sentences of 8-20 words: capitalized, comma-punctuated, full stop."""
        words = [self.vocab[i] for i in ids]
        out = []
        pos = 0
        while pos < len(words):
            n = 8 + (ids[pos] % 13)
            sentence = words[pos:pos + n]
            sentence[0] = sentence[0].capitalize()
            if len(sentence) > 4:
                sentence[len(sentence) // 2] += ","
            out.append(" ".join(sentence) + ".")
            pos += n
        return " ".join(out)


def _write_inputs(directory: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 20])
    proc = _Process(rng)
    labels = np.arange(NUM_DOCS) % len(CATEGORIES)
    rng.shuffle(labels)
    seen: set[int] = set()
    with open(directory / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("text,label\n")
        for c in labels.tolist():
            ids = proc.document(rng, c)
            seen.update(ids)
            fh.write(f'"{proc.text(ids)}",{CATEGORIES[c]}\n')

    hold = np.arange(NUM_HOLDOUT) % len(CATEGORIES)
    rng.shuffle(hold)
    with open(directory / "holdout.txt", "w", encoding="utf-8") as fh:
        for c in hold.tolist():
            fh.write(proc.text(proc.document(rng, c)) + "\n")
    (directory / "holdout_labels.txt").write_text(
        "".join(CATEGORIES[c] + "\n" for c in hold.tolist()), encoding="utf-8")

    used = np.array(sorted(seen))
    known = rng.choice(used, int(round(EMB_COVERAGE * len(used))), replace=False)
    extra = _words(rng, EMB_EXTRA_ROWS, set(proc.vocab))
    words = [proc.vocab[i] for i in known.tolist()] + extra
    order = rng.permutation(len(words))
    # Entries are multiples of 1e-5 in [-2, 2], printed as GloVe does with
    # five decimals; a lookup of every such string keeps writing cheap.
    steps = np.rint(np.clip(rng.normal(0.0, 0.4, size=(len(words), EMB_DIM)), -2, 2) * 1e5)
    text = np.array([f"{i / 1e5:.5f}" for i in range(-200_000, 200_001)], dtype=object)
    rows = text[steps.astype(np.int64) + 200_000].tolist()
    with open(directory / "glove.txt", "w", encoding="utf-8") as fh:
        fh.writelines(words[i] + " " + " ".join(rows[i]) + "\n" for i in order.tolist())


def make_inputs(cache_root: Path, seed: int) -> Path:
    """Directory holding the inputs for ``seed``, generated on first use.

    Generation writes into a temporary directory that is renamed into
    place, so an interrupted run never leaves a half-written cache.  Only
    the CACHE_KEEP most recently used seeds stay cached.
    """
    cache_root.mkdir(parents=True, exist_ok=True)
    target = cache_root / f"seed-{seed}"
    if not target.is_dir():
        tmp = cache_root / f".tmp-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            _write_inputs(tmp, seed)
            os.replace(tmp, target)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(target)
    cached = sorted((p for p in cache_root.glob("seed-*") if p.is_dir()),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return target
