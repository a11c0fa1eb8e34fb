"""Independent brute-force oracles for the weighting schemes.

Everything here recomputes weights from raw token lists with plain
dictionaries and math.log — no numpy, no shared code with the package —
so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math


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
