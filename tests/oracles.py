"""Independent brute-force oracles for the tokenizer, the token counts,
the weighting schemes, the stratified fold plan, the embedding file
readers and the mapping of corpus terms to embedding rows.

Everything here recomputes weights from raw token lists with plain
dictionaries and math.log, tokenizes with the regex that defines a
token, deals folds one index at a time, and reads embedding files line
by line with float() and struct — no numpy, no shared code with the
package — so agreement is evidence, not tautology.  The fold oracle
draws its permutations from the random generator its caller passes.
The two table readers at the end compute nothing: they look a word up
in a table's arrays.  The model-file readers after them find a model
file's members through ``zipfile``, ``struct`` and ``ast`` and recompute
the block CRC-32s of every blocked member with ``zlib``.
"""

from __future__ import annotations

import ast
import math
import re
import struct
import zipfile
import zlib
from collections import Counter

# A token is a maximal run of Unicode word characters other than "_".
_TOKEN_RE = re.compile(r"[^\W_]+")


def oracle_tokenize(text, preserve_case=False):
    """The tokens of ``text``: the regex's matches, after lowercasing
    unless ``preserve_case``."""
    return tuple(_TOKEN_RE.findall(text if preserve_case else text.lower()))


def oracle_count_tokens(token_lists):
    """The corpus's terms in order of first occurrence, and one Counter of
    its tokens per document."""
    terms = {}
    for tokens in token_lists:
        for token in tokens:
            terms.setdefault(token, len(terms))
    return tuple(terms), [Counter(tokens) for tokens in token_lists]


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


def oracle_for_terms(words, terms, case_fallback=False):
    """``(row, term)`` of each of ``terms`` that has a row among the
    distinct ``words`` (a model's words in row order), sorted: its own
    word's row, else with ``case_fallback`` its lowercase form's."""
    ids = {word: i for i, word in enumerate(words)}
    known = []
    for term in terms:
        row = ids.get(term)
        if row is None and case_fallback:
            row = ids.get(term.lower())
        if row is not None:
            known.append((row, term))
    return sorted(known)


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


def oracle_stratified_folds(labels, num_categories, k, rng):
    """A stratified k-fold plan, one index at a time: ``(fold, ladder_order)``.

    ``labels`` holds a category index, or -1 for an unlabeled document,
    per document; ``rng`` is the generator the plan draws from, seeded as
    ``make_splits`` seeds its own.  Each category's documents in a random
    order, then the unlabeled ones in index order, are dealt to folds 0,
    1, ..., k - 1 in turn; the documents outside fold 0, in a random
    order, are the ladder order.
    """
    fold = [None] * len(labels)
    counter = 0
    for c in range(num_categories):
        class_idx = [i for i, label in enumerate(labels) if label == c]
        class_idx = [class_idx[j] for j in rng.permutation(len(class_idx))]
        for i in class_idx:
            fold[i] = counter % k
            counter += 1
    for i in [i for i, label in enumerate(labels) if label < 0]:
        fold[i] = counter % k
        counter += 1
    train_idx = [i for i, f in enumerate(fold) if f != 0]
    ladder_order = [train_idx[j] for j in rng.permutation(len(train_idx))]
    return fold, ladder_order


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


# -- reading a table -------------------------------------------------------
# The tests compare a WeightTable with the oracles above entry by entry:
# these two readers find a word's row in the table's own arrays.


def table_weight(table, word, c):
    """The weight ``table`` stores for (word, category c); 0.0 for a pair
    or a word it does not store."""
    words = table.words
    if table.weights is None or word not in words:
        return 0.0
    return float(table.weights.toarray()[words.index(word), c])


def table_idf(table, word):
    """The idf ``table`` holds for ``word``; 0.0 for a word it does not hold."""
    words = table.words
    if table.idf is None or word not in words:
        return 0.0
    return float(table.idf[words.index(word)])


def oracle_member(path, name):
    """``(offset, items, item_bytes, descr)`` of a model file's member
    ``name``: where its data starts in the file, found through the zip's
    directory and the member's local header, its number of items (rows,
    if 2-D) and its dtype, from its npy header (evaluated with ``ast``),
    and the bytes of one item, from the member's size."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(name + ".npy")
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        name_len, extra_len = struct.unpack("<HH", fh.read(30)[26:30])
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        header_len = struct.unpack("<H", fh.read(10)[8:10])[0]
        header = ast.literal_eval(fh.read(header_len).decode("latin1"))
        offset = fh.tell()
    assert not header["fortran_order"]
    items = header["shape"][0] if header["shape"] else 1
    data_bytes = info.file_size - 10 - header_len
    return offset, items, data_bytes // items if items else 0, header["descr"]


def oracle_matrix_member(path, name="vectors"):
    """``(offset, rows, row_bytes)`` of the data of a model file's
    float64 matrix ``name``."""
    offset, rows, row_bytes, descr = oracle_member(path, name)
    assert descr == "<f8"
    return offset, rows, row_bytes


def oracle_block_crcs(path, rows_per_block, name="vectors"):
    """The CRC-32 of each block of a model file member's bytes, as format
    6 defines them: ``rows_per_block`` items (rows, if 2-D) of ``words``,
    ``word_rows`` and ``vectors``, the last block holding those left
    over; for ``weight_keys`` and ``weight_values`` the table entries of
    each block of ``rows_per_block`` embedding rows, from one
    ``weight_fences`` value to the next."""
    offset, items, item_bytes, _ = oracle_member(path, name)
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read(items * item_bytes)
        if name in ("weight_keys", "weight_values"):
            fences_at, fences, _, descr = oracle_member(path, "weight_fences")
            assert descr == "<i8"
            fh.seek(fences_at)
            edges = struct.unpack(f"<{fences}q", fh.read(8 * fences))
        else:
            vocab = oracle_member(path, "words")[1]
            edges = [min(at, vocab) for at in range(0, vocab + rows_per_block, rows_per_block)]
            edges = edges[: -(-vocab // rows_per_block) + 1]
    return [zlib.crc32(data[lo * item_bytes : hi * item_bytes]) for lo, hi in zip(edges, edges[1:])]
