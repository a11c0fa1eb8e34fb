"""Independent brute-force oracles for the weighting schemes and the
embedding file readers.

Everything here recomputes weights from raw token lists with plain
dictionaries and math.log, and reads embedding files line by line with
float() and struct — no numpy, no shared code with the package — so
agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
import struct


def naive_counts(token_lists, labels, num_categories):
    """Nested-loop recount of every statistic the schemes need."""
    word_cat: dict[tuple[str, int], int] = {}
    word_total: dict[str, int] = {}
    cat_tokens = [0] * num_categories
    doc_freq: dict[str, int] = {}
    for tokens, label in zip(token_lists, labels):
        for token in tokens:
            word_cat[(token, label)] = word_cat.get((token, label), 0) + 1
            word_total[token] = word_total.get(token, 0) + 1
            cat_tokens[label] += 1
        for token in set(tokens):
            doc_freq[token] = doc_freq.get(token, 0) + 1
    return {
        "word_cat": word_cat,
        "word_total": word_total,
        "cat_tokens": cat_tokens,
        "doc_freq": doc_freq,
        "num_docs": len(token_lists),
        "total_tokens": sum(cat_tokens),
    }


def oracle_tfcr(counts, word, c):
    wc = counts["word_cat"].get((word, c), 0)
    total = counts["word_total"].get(word, 0)
    if wc == 0 or total == 0:
        return 0.0
    return (wc * wc) / (counts["cat_tokens"][c] * total)


def _p_and_q(counts, word, c):
    wc = counts["word_cat"].get((word, c), 0)
    nc = counts["cat_tokens"][c]
    p = wc / nc if nc else 0.0
    total = counts["word_total"].get(word, 0)
    rem = total - wc
    n_rem = counts["total_tokens"] - nc
    if rem > 0:
        q = rem / n_rem
    else:
        q = 0.0
    return p, q, n_rem


def oracle_kld(counts, word, c):
    p, q, n_rem = _p_and_q(counts, word, c)
    if p == 0.0:
        return 0.0
    if q == 0.0:
        q = 1.0 / (n_rem + 1)
    value = p * math.log(p / q)
    return value if value > 0.0 else 0.0


def oracle_trr_factor(counts, word, c, alpha=1.2):
    p, q, n_rem = _p_and_q(counts, word, c)
    if p == 0.0:
        return math.log(alpha)
    if q == 0.0:
        q = 1.0 / (n_rem + 1)
    return math.log(p / q + alpha)


def oracle_tftrr(counts, word, c, tf_in_doc, alpha=1.2):
    return (math.log(tf_in_doc) + 1.0) * oracle_trr_factor(counts, word, c, alpha)


def oracle_idf(counts, word):
    df = counts["doc_freq"].get(word, 0)
    if df == 0:
        return 0.0
    return math.log(counts["num_docs"] / df)


def oracle_tfidf(counts, word, tf_in_doc):
    return tf_in_doc * oracle_idf(counts, word)


def oracle_weighted_mean(weights, vectors, dim):
    """Plain-Python weighted mean with the zero-denominator fallback."""
    total = 0.0
    acc = [0.0] * dim
    for w, vec in zip(weights, vectors):
        total += w
        for j in range(dim):
            acc[j] += w * vec[j]
    if total == 0.0:
        return [0.0] * dim
    return [a / total for a in acc]


def oracle_macro_f1(predictions, gold, num_classes):
    """Set-based precision/recall per class, zero conventions."""
    f1s = []
    for c in range(num_classes):
        pred_c = {i for i, p in enumerate(predictions) if p == c}
        gold_c = {i for i, g in enumerate(gold) if g == c}
        tp = len(pred_c & gold_c)
        precision = tp / len(pred_c) if pred_c else 0.0
        recall = tp / len(gold_c) if gold_c else 0.0
        if precision + recall == 0:
            f1s.append(0.0)
        else:
            f1s.append(2 * precision * recall / (precision + recall))
    return sum(f1s) / num_classes


def random_corpus(rng, max_docs=100, max_vocab=50, min_categories=2, max_categories=5):
    """Random token lists + labels for oracle comparisons.

    Guarantees at least one document per category and no empty documents.
    """
    num_categories = int(rng.integers(min_categories, max_categories + 1))
    num_docs = int(rng.integers(num_categories, max_docs + 1))
    vocab_size = int(rng.integers(2, max_vocab + 1))
    vocab = [f"w{i}" for i in range(vocab_size)]
    labels = [c for c in range(num_categories)]
    labels += [int(rng.integers(0, num_categories)) for _ in range(num_docs - num_categories)]
    token_lists = []
    for _ in range(num_docs):
        length = int(rng.integers(1, 30))
        token_lists.append(
            [vocab[int(rng.integers(0, vocab_size))] for _ in range(length)]
        )
    return token_lists, labels, num_categories


class OracleFormatError(ValueError):
    """The file is rejected; the message is a fragment the reader's error names."""


def _text_lines(path):
    """The file's lines as a text-mode reader sees them: UTF-8 with
    replacement characters, and \\r\\n or a lone \\r read as \\n."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _floats(fields):
    try:
        return [float(x) for x in fields]
    except ValueError:
        return None


def _finite(rows):
    if not all(math.isfinite(v) for row in rows for v in row):
        raise OracleFormatError("non-finite")


def oracle_glove(path, vocab=None):
    """GloVe text, one line at a time: ``(words, rows, d, skipped)``.

    The first line with a space fixes d and must parse.  Of the other
    lines, only those whose first field is in ``vocab`` (every line when
    it is None) count: a one-field, wrong-length or non-float line is
    skipped, and so is a word already kept.
    """
    kept = {}
    d = None
    skipped = 0
    for line in _text_lines(path):
        fields = line.split(" ")
        wanted = vocab is None or fields[0] in vocab
        if len(fields) < 2:
            if wanted and line.strip():
                skipped += 1
            continue
        if d is None:
            if _floats(fields[1:]) is None:
                raise OracleFormatError("line 1")
            d = len(fields) - 1
        if not wanted:
            continue
        values = _floats(fields[1:]) if len(fields) - 1 == d else None
        if values is None or fields[0] in kept:
            skipped += 1
            continue
        kept[fields[0]] = values
    if d is None:
        raise OracleFormatError("empty")
    _finite(kept.values())
    return list(kept), list(kept.values()), d, skipped


def oracle_word2vec_text(path, vocab=None):
    """word2vec text, one line at a time: ``(words, rows, d, skipped)``.

    Every non-blank line after the ``<count> <d>`` header needs d values
    and counts toward the header's count; the values of words in
    ``vocab`` (all, when it is None) must be floats, and a word already
    kept is skipped.
    """
    lines = _text_lines(path)
    header = lines[0].split()
    try:
        count, d = int(header[0]), int(header[1])
    except (IndexError, ValueError):
        raise OracleFormatError("header") from None
    if len(header) != 2 or count < 0 or d < 1:
        raise OracleFormatError("header")
    kept = {}
    entries = 0
    skipped = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != d + 1:
            raise OracleFormatError(f"line {lineno} has {len(fields) - 1} values")
        entries += 1
        if vocab is not None and fields[0] not in vocab:
            continue
        values = _floats(fields[1:])
        if values is None:
            raise OracleFormatError(f"line {lineno} has non-float values")
        if fields[0] in kept:
            skipped += 1
        else:
            kept[fields[0]] = values
    if entries != count:
        raise OracleFormatError(f"declares {count} entries, found {entries}")
    _finite(kept.values())
    return list(kept), list(kept.values()), d, skipped


def oracle_word2vec_binary(path, vocab=None):
    """word2vec binary, one entry at a time: ``(words, rows, d, skipped)``.

    Each entry is a word, one space and d little-endian float32 values;
    newlines, carriage returns and spaces before a word are padding.
    Of the entries whose word is in ``vocab`` (every entry when it is
    None), the first of each word is kept and the others are skipped.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head, newline, body = data.partition(b"\n")
    if not newline:
        raise OracleFormatError("header")
    try:
        count, d = (int(x) for x in head.split())
    except ValueError:
        raise OracleFormatError("header") from None
    if count < 0 or d < 1:
        raise OracleFormatError("header")
    kept = {}
    skipped = 0
    pos = 0
    for _ in range(count):
        pos += len(body[pos:]) - len(body[pos:].lstrip(b"\n\r "))
        end = body.find(b" ", pos)
        if end < 0:
            raise OracleFormatError("EOF in word")
        word = body[pos:end].decode("utf-8", errors="replace")
        pos = end + 1
        if len(body) - pos < 4 * d:
            raise OracleFormatError("EOF in vector")
        values = [float(v) for v in struct.unpack_from(f"<{d}f", body, pos)]
        pos += 4 * d
        if vocab is not None and word not in vocab:
            continue
        if word in kept:
            skipped += 1
        else:
            kept[word] = values
    _finite(kept.values())
    return list(kept), list(kept.values()), d, skipped
