import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdial.metrics import (
    MetricError,
    corpus_bleu,
    count_ngrams,
    distinct_n,
    distinct_report,
    language_legality,
    report_record,
    tokenize_13a,
    write_metric_report,
)
from helpers import distinct_oracle

# -- 13a tokenization ------------------------------------------------------


def test_13a_punctuation_split():
    assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]


def test_13a_decimal_numbers_kept_whole():
    assert tokenize_13a("pi is 3.14, roughly") == ["pi", "is", "3.14", ",", "roughly"]


def test_13a_trailing_period_split():
    assert tokenize_13a("It works.") == ["It", "works", "."]


def test_13a_entity_unescaping():
    assert tokenize_13a("a &quot;b&quot; &amp; c") == ["a", '"', "b", '"', "&", "c"]


def test_13a_dash_after_digit():
    assert tokenize_13a("10-fold") == ["10", "-", "fold"]
    assert tokenize_13a("well-known") == ["well-known"]


def test_13a_newline_and_skipped():
    assert tokenize_13a("one<skipped>two\nthree") == ["onetwo", "three"]


# -- corpus BLEU -----------------------------------------------------------


def test_clipping():
    # "the the the" vs "the cat": only one "the" credits
    report = corpus_bleu(["the the the"], ["the cat"])
    assert report.precisions[0] == pytest.approx(100.0 / 3.0)


def test_zero_unigram_precision_scores_zero():
    report = corpus_bleu(["x y z"], ["a b c"])
    assert report.precisions[0] == 0.0
    assert report.score == 0.0


def test_floor_smoothing_only_for_empty_higher_orders():
    # bigrams and one trigram exist but none match: raw 0, smoothed epsilon
    report = corpus_bleu(["a c b"], ["a b c"])
    assert report.precisions[0] == 100.0
    assert report.precisions[1] == 0.0  # reported raw
    assert report.precisions[2] == 0.0
    assert report.precisions[3] == 0.0  # no 4-grams: dropped, not smoothed
    expected = math.exp((math.log(100.0) + 2 * math.log(0.01)) / 3.0)
    assert report.score == pytest.approx(expected)


def test_corpus_level_aggregation():
    # pooled counts, not averaged per-sentence scores
    hyps = ["a b", "c d"]
    refs = ["a b", "x y"]
    report = corpus_bleu(hyps, refs)
    assert report.precisions[0] == pytest.approx(50.0)


def test_brevity_never_rewards_length():
    long_hyp = corpus_bleu(["the cat sat on the mat today"], ["the cat sat"])
    assert long_hyp.bp == 1.0


def test_errors():
    with pytest.raises(MetricError):
        corpus_bleu(["a"], ["a", "b"])  # length mismatch
    with pytest.raises(MetricError):
        corpus_bleu([], [])
    with pytest.raises(MetricError):
        corpus_bleu([""], ["a"])  # no hypothesis tokens at all


def test_report_is_frozen_and_tokenizer_named():
    report = corpus_bleu(["a"], ["a"])
    record = report_record("s", report, distinct_report(["a b"]), language_legality(["a"], {"a"}))
    assert (record["tokenizer"], record["smoothing_method"]) == ("13a", "floor")
    with pytest.raises(AttributeError):
        report.score = 0.0


# reference implementation with independent structure: per-segment loops,
# explicit min() clipping, no Counter arithmetic shortcuts
def _oracle_bleu(hyps, refs, max_order=4, eps=0.01):
    hyp_toks = [tokenize_13a(h) for h in hyps]
    ref_toks = [tokenize_13a(r) for r in refs]
    correct = [0] * max_order
    total = [0] * max_order
    for h, r in zip(hyp_toks, ref_toks):
        for n in range(1, max_order + 1):
            hgrams = [tuple(h[i : i + n]) for i in range(len(h) - n + 1)]
            rgrams = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
            total[n - 1] += len(hgrams)
            for gram in set(hgrams):
                correct[n - 1] += min(hgrams.count(gram), rgrams.count(gram))
    c = sum(len(h) for h in hyp_toks)
    r = sum(len(t) for t in ref_toks)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    logs = []
    for n in range(max_order):
        if total[n] == 0:
            continue
        p = 100.0 * correct[n] / total[n]
        if p == 0.0:
            if n == 0:
                return 0.0
            p = eps
        logs.append(math.log(p))
    return bp * math.exp(sum(logs) / len(logs))


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=12).map(" ".join),
            st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=12).map(" ".join),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_bleu_matches_independent_oracle(data):
    hyps = [h for h, _ in data]
    refs = [r for _, r in data]
    report = corpus_bleu(hyps, refs)
    assert report.score == pytest.approx(_oracle_bleu(hyps, refs), abs=1e-9)


# -- distinct-n ------------------------------------------------------------


def test_distinct_basic():
    assert distinct_n(["a a a a"], 1) == pytest.approx(25.0)
    assert distinct_n(["a b a b"], 2) == pytest.approx(200.0 / 3.0)


def test_distinct_zero_total_errors():
    with pytest.raises(MetricError):
        distinct_n(["a"], 2)  # no bigrams


def test_distinct_report_fields():
    rep = distinct_report(["a b c", "a b d"])
    assert rep.d1 == pytest.approx(distinct_oracle(["a b c", "a b d"], 1))
    assert rep.d2 == pytest.approx(distinct_oracle(["a b c", "a b d"], 2))


@settings(max_examples=50, deadline=None)
@given(
    hyps=st.lists(
        st.lists(st.sampled_from("a b c d".split()), min_size=2, max_size=20).map(" ".join),
        min_size=1,
        max_size=5,
    ),
    n=st.integers(1, 2),
)
def test_distinct_matches_brute_force(hyps, n):
    assert distinct_n(hyps, n) == pytest.approx(distinct_oracle(hyps, n), abs=1e-12)


# -- language legality -----------------------------------------------------


def test_legality_counts_whitespace_tokens():
    rep = language_legality(["b1 b2 a1", "b3"], frozenset({"b1", "b2", "b3"}))
    assert rep.legality == pytest.approx(75.0)


def test_legality_perfect_and_zero():
    vocab = frozenset({"b1"})
    assert language_legality(["b1 b1"], vocab).legality == 100.0
    assert language_legality(["a1 a2"], vocab).legality == 0.0


def test_legality_errors():
    with pytest.raises(MetricError):
        language_legality([], frozenset({"a"}))
    with pytest.raises(MetricError):
        language_legality(["a"], frozenset())
    with pytest.raises(MetricError):
        language_legality(["", " "], frozenset({"a"}))


# -- ngram counting --------------------------------------------------------


def test_count_ngrams():
    assert count_ngrams(["a", "b", "a", "b"], 2) == Counter({("a", "b"): 2, ("b", "a"): 1})
    assert count_ngrams(["a"], 2) == Counter()


# -- report I/O ------------------------------------------------------------


def test_report_record_round_trip(tmp_path):
    bleu = corpus_bleu(["the cat"], ["the cat sat"])
    distinct = distinct_report(["the cat"])
    legality = language_legality(["the cat"], frozenset({"the", "cat"}))
    record = report_record("demo", bleu, distinct, legality)
    path = tmp_path / "r.jsonl"
    write_metric_report(path, [record])
    back = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert back == [record]
    raw = json.loads(path.read_text().splitlines()[0])
    assert raw["system"] == "demo"
    assert raw["legality"] == 100.0
    assert raw["b1"] == bleu.b1
