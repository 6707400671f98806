import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdial.corpus import (
    Corpus,
    CorpusError,
    DialoguePair,
    SyntheticSpec,
    derive_token_vocabulary,
    generate_synthetic_bilingual,
    load_pairs,
    sample_few_shot,
    save_pairs,
)
from crossdial.kvconfig import ConfigError, load_kv
from helpers import from_kv


def _corpus(n=8, lang="aa"):
    pairs = tuple(DialoguePair(f"c{i} x{i}", f"r{i}", lang) for i in range(n))
    return Corpus(pairs=pairs, language=lang)


# -- round trips -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    corpus = _corpus(5)
    save_pairs(corpus, path)
    back = load_pairs(path)
    assert back == list(corpus.pairs)


def test_jsonl_shape(tmp_path):
    path = tmp_path / "c.jsonl"
    save_pairs([DialoguePair("hej med dig", "hej", "da")], path)
    record = json.loads(path.read_text().splitlines()[0])
    assert record == {"context": "hej med dig", "response": "hej", "lang": "da"}


def test_load_malformed_line_reports_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"context": "a", "response": "b", "lang": "aa"}\nnot json\n')
    with pytest.raises(CorpusError, match=":2"):
        load_pairs(path)


def test_load_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"context": "a", "lang": "aa"}\n')
    with pytest.raises(CorpusError, match="response"):
        load_pairs(path)


def test_empty_response_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"context": "a", "response": "", "lang": "aa"}\n'
        '{"context": "a", "response": "b", "lang": "aa"}\n'
    )
    assert len(load_pairs(path)) == 1


def test_mixed_language_file_loads(tmp_path):
    path = tmp_path / "c.jsonl"
    save_pairs([DialoguePair("a", "b", "aa"), DialoguePair("c", "d", "ba")], path)
    assert {p.language for p in load_pairs(path)} == {"aa", "ba"}


# -- corpus container ------------------------------------------------------


def test_corpus_rejects_language_mismatch():
    with pytest.raises(CorpusError):
        Corpus(pairs=(DialoguePair("a", "b", "ba"),), language="aa")


# -- few-shot sampling -----------------------------------------------------


def test_sample_few_shot_deterministic():
    corpus = _corpus(20)
    a = sample_few_shot(corpus, 5, seed=7)
    b = sample_few_shot(corpus, 5, seed=7)
    assert a.pairs == b.pairs
    assert len(a) == 5


def test_sample_few_shot_seed_changes_draw():
    corpus = _corpus(30)
    a = sample_few_shot(corpus, 10, seed=0)
    b = sample_few_shot(corpus, 10, seed=1)
    assert a.pairs != b.pairs


def test_sample_few_shot_preserves_corpus_order():
    corpus = _corpus(30)
    subset = sample_few_shot(corpus, 10, seed=3)
    positions = [corpus.pairs.index(p) for p in subset.pairs]
    assert positions == sorted(positions)


def test_sample_few_shot_without_replacement():
    corpus = _corpus(10)
    subset = sample_few_shot(corpus, 10, seed=0)
    assert Counter(subset.pairs) == Counter(corpus.pairs)


def test_sample_few_shot_k_too_large():
    with pytest.raises(CorpusError):
        sample_few_shot(_corpus(3), 4, seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_sample_few_shot_k_below_one(k):
    # an empty subset would be a corpus that every reader refuses
    with pytest.raises(CorpusError, match=f"k must be >= 1, got {k}"):
        sample_few_shot(_corpus(3), k, seed=0)


def test_sample_few_shot_negative_seed():
    with pytest.raises(CorpusError, match="seed must be >= 0, got -1"):
        sample_few_shot(_corpus(5), 2, -1)


# -- synthetic bilingual corpus --------------------------------------------


def test_synthetic_sizes_and_splits():
    spec = SyntheticSpec(n_train_aux=50, n_fewshot_tgt=7, n_valid=11, n_test=13)
    bundle = generate_synthetic_bilingual(spec)
    assert len(bundle.aux_train) == 50
    assert len(bundle.aux_valid) == 11
    assert len(bundle.aux_test) == 13
    assert len(bundle.tgt_fewshot) == 7
    assert len(bundle.tgt_valid) == 11
    assert len(bundle.tgt_test) == 13


def test_synthetic_languages_disjoint():
    bundle = generate_synthetic_bilingual(SyntheticSpec())
    assert not (bundle.aux_vocabulary & bundle.tgt_vocabulary)
    aux_tokens = derive_token_vocabulary([bundle.aux_train, bundle.aux_valid, bundle.aux_test])
    tgt_tokens = derive_token_vocabulary([bundle.tgt_fewshot, bundle.tgt_valid, bundle.tgt_test])
    assert aux_tokens <= bundle.aux_vocabulary
    assert tgt_tokens <= bundle.tgt_vocabulary


def test_synthetic_deterministic():
    a = generate_synthetic_bilingual(SyntheticSpec(seed=5))
    b = generate_synthetic_bilingual(SyntheticSpec(seed=5))
    assert a.aux_train.pairs == b.aux_train.pairs
    assert a.tgt_test.pairs == b.tgt_test.pairs
    c = generate_synthetic_bilingual(SyntheticSpec(seed=6))
    assert a.aux_train.pairs != c.aux_train.pairs


def test_synthetic_response_rule():
    # response = reversed content (even template) or copy (odd), then marker
    spec = SyntheticSpec(template_count=4)
    bundle = generate_synthetic_bilingual(spec)
    markers = sorted(bundle.aux_vocabulary)[: spec.template_count]
    for pair in bundle.aux_train.pairs:
        ctx = pair.context.split()
        resp = pair.response.split()
        marker, content = ctx[0], ctx[1:]
        assert marker in markers
        assert resp[-1] == marker
        body = resp[:-1]
        assert body == content or body == content[::-1]
        assert 3 <= len(content) <= 6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_synthetic_content_avoids_markers(seed):
    spec = SyntheticSpec(vocab_size_per_language=12, template_count=3, n_train_aux=8, n_valid=4, n_test=4, seed=seed)
    bundle = generate_synthetic_bilingual(spec)
    markers = set(sorted(bundle.tgt_vocabulary)[: spec.template_count])
    for pair in bundle.tgt_test.pairs:
        assert not (set(pair.context.split()[1:]) & markers)


def test_synthetic_spec_from_kv_partial():
    spec = from_kv(SyntheticSpec(), {"vocab_size": "12", "seed": "9"})
    assert spec.vocab_size_per_language == 12
    assert spec.seed == 9
    assert spec.n_train_aux == SyntheticSpec().n_train_aux


def test_synthetic_spec_unknown_key():
    with pytest.raises(ConfigError, match="n_tran"):
        from_kv(SyntheticSpec(), {"n_tran": "5"})


def test_load_synthetic_spec(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("vocab_size = 16\ntemplates = 2\n")
    spec = from_kv(SyntheticSpec(), load_kv(path), source=str(path))
    assert (spec.vocab_size_per_language, spec.template_count) == (16, 2)


def test_synthetic_spec_validation():
    with pytest.raises(CorpusError):
        SyntheticSpec(vocab_size_per_language=4, template_count=4)
    with pytest.raises(CorpusError):
        SyntheticSpec(n_train_aux=0)
