"""Automatic evaluation: corpus BLEU, Distinct-N, and language legality.

Everything here is built from scratch on exact integer n-gram counts, so
repeated evaluation is bit-identical and per-sentence statistics may be
aggregated in any order.

A note on reported precisions: the ``b1``/``b2`` columns are the order-1
and order-2 modified precisions of the order-4 BLEU computation, not
standalone BLEU-1/BLEU-2 scores.  ``score`` is the usual geometric mean
over orders 1..4 times the brevity penalty.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .artifact import write_lines


class MetricError(ValueError):
    """Raised for undefined metric inputs."""


# ---------------------------------------------------------------------------
# Tokenization


def tokenize_13a(text: str) -> list[str]:
    """Minimal WMT-style tokenization (the "13a" rule set).

    Normalizes a few common entities, splits ASCII punctuation and symbols
    off adjoining word characters (periods and commas only when not between
    digits, dashes after digits), and collapses whitespace runs.
    """
    norm = text
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = f" {norm} "
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", r" \1 \2", norm)
    norm = re.sub(r"([0-9])(-)", r"\1 \2 ", norm)
    return norm.split()


def count_ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Exact counts of order-n n-grams (as token tuples)."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# ---------------------------------------------------------------------------
# BLEU

BLEU_ORDER = 4  # n-gram orders 1..4 in the geometric mean
SMOOTHING_EPSILON = 1e-2  # the floor for a zero higher-order precision, on the 0-100 scale


@dataclass(frozen=True)
class BleuReport:
    """Corpus BLEU with its sufficient statistics.

    ``precisions`` are the raw (unsmoothed) modified n-gram precisions for
    orders 1..4 on the 0-100 scale; orders with no hypothesis
    n-grams report 0.0 and are excluded from the geometric mean.
    """

    precisions: tuple[float, ...]
    score: float
    bp: float

    @property
    def b1(self) -> float:
        return self.precisions[0]

    @property
    def b2(self) -> float:
        return self.precisions[1]


def corpus_bleu(hypotheses: Sequence[str], references: Sequence[str]) -> BleuReport:
    """Corpus-level BLEU against one reference per hypothesis, on 13a tokens.

    Modified precisions are clipped n-gram matches over total hypothesis
    n-grams, aggregated over the corpus.  The brevity penalty is 1 when the
    hypothesis corpus is at least as long as the reference corpus, else
    exp(1 - r/c).  Floor smoothing replaces a zero higher-order precision
    with ``SMOOTHING_EPSILON`` inside the geometric mean; a zero order-1
    precision always yields score 0.
    """
    if len(hypotheses) != len(references):
        raise MetricError(f"got {len(hypotheses)} hypotheses but {len(references)} references")
    if not hypotheses:
        raise MetricError("empty corpus")

    correct = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = tokenize_13a(hyp)
        ref_tokens = tokenize_13a(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, BLEU_ORDER + 1):
            hyp_ngrams = count_ngrams(hyp_tokens, n)
            if not hyp_ngrams:
                continue
            ref_ngrams = count_ngrams(ref_tokens, n)
            total[n - 1] += sum(hyp_ngrams.values())
            correct[n - 1] += sum(min(count, ref_ngrams[ng]) for ng, count in hyp_ngrams.items())

    if hyp_len == 0:
        raise MetricError("all hypotheses are empty")

    precisions = tuple(100.0 * c / t if t > 0 else 0.0 for c, t in zip(correct, total))

    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)

    if precisions[0] == 0.0:
        score = 0.0
    else:
        # work on the p/100 ratio scale: log(1.0) == 0.0 exactly, so a
        # perfect match scores exactly 100 * bp with no exp/log round-off
        logs = [math.log((p or SMOOTHING_EPSILON) / 100.0) for p, t in zip(precisions, total) if t > 0]
        score = 100.0 * bp * math.exp(sum(logs) / len(logs))

    return BleuReport(precisions=precisions, score=score, bp=bp)


# ---------------------------------------------------------------------------
# Distinct-N


@dataclass(frozen=True)
class DistinctReport:
    """Percent distinct unigrams (d1) and bigrams (d2), corpus level."""

    d1: float
    d2: float


def distinct_n(hypotheses: Sequence[str], n: int) -> float:
    """100 * (distinct n-grams) / (total n-grams) of 13a tokens across all hypotheses."""
    if n < 1:
        raise MetricError("n must be >= 1")
    counts: Counter = Counter()
    for hyp in hypotheses:
        counts.update(count_ngrams(tokenize_13a(hyp), n))
    total = sum(counts.values())
    if total == 0:
        raise MetricError(f"no n-grams of order {n} in the hypotheses; distinct-{n} is undefined")
    return 100.0 * len(counts) / total


def distinct_report(hypotheses: Sequence[str]) -> DistinctReport:
    return DistinctReport(d1=distinct_n(hypotheses, 1), d2=distinct_n(hypotheses, 2))


# ---------------------------------------------------------------------------
# Language legality


@dataclass(frozen=True)
class LegalityReport:
    """Percent of generated whitespace tokens inside the target vocabulary.

    This is the quantitative proxy for "the model answered in the wrong
    language": responses drifting into another language (or into control
    tokens) score low.
    """

    legality: float


def language_legality(hypotheses: Sequence[str], target_vocabulary: Iterable[str]) -> LegalityReport:
    """Share of whitespace tokens belonging to ``target_vocabulary``.

    Whitespace tokens (not model subwords) keep the measure independent of
    any particular model's tokenizer.
    """
    vocabulary = set(target_vocabulary)
    if not hypotheses:
        raise MetricError("no hypotheses")
    if not vocabulary:
        raise MetricError("empty target vocabulary")
    total = 0
    legal = 0
    for hyp in hypotheses:
        for token in hyp.split():
            total += 1
            if token in vocabulary:
                legal += 1
    if total == 0:
        raise MetricError("hypotheses contain no tokens; legality is undefined")
    return LegalityReport(legality=100.0 * legal / total)


# ---------------------------------------------------------------------------
# Report files


def report_record(
    system: str,
    bleu: BleuReport,
    distinct: DistinctReport,
    legality: LegalityReport,
) -> dict:
    """One evaluated system as a flat record (the report-file schema)."""
    return {
        "system": system,
        "b1": bleu.b1,
        "b2": bleu.b2,
        "score": bleu.score,
        "bp": bleu.bp,
        "d1": distinct.d1,
        "d2": distinct.d2,
        "legality": legality.legality,
        "smoothing_method": "floor",
        "smoothing_epsilon": SMOOTHING_EPSILON,
        "tokenizer": "13a",
    }


def write_metric_report(path: str, records: Sequence[dict]) -> None:
    """Write report records as JSON lines (deterministic; no timestamps)."""
    write_lines(path, (json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records))
