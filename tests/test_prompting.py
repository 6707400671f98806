import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdial.corpus import DialoguePair
from crossdial.prompting import (
    CORRUPTION_RATE,
    DEFAULT_TEMPLATE,
    PromptError,
    corrupt_spans,
    extract_response,
    format_plain,
    format_prompted,
)

S0 = DEFAULT_TEMPLATE.sentinel0
S1 = DEFAULT_TEMPLATE.sentinel1


def _pair(ctx="hvordan har du det", resp="jeg har det godt", lang="da"):
    return DialoguePair(ctx, resp, lang)


# -- formatting ------------------------------------------------------------


def test_prompted_layout():
    ex = format_prompted(_pair("a b", "c d"))
    assert ex.source == f"Context: a b Response: {S0}"
    assert ex.target == f"{S0} c d {S1}"


def test_plain_layout():
    ex = format_plain(_pair("a b", "c d"))
    assert ex.source == "a b"
    assert ex.target == "c d"


def test_format_rejects_pair_containing_sentinel():
    with pytest.raises(PromptError):
        format_prompted(_pair(ctx=f"hello {S0} there"))


# -- extraction ------------------------------------------------------------


def test_extract_between_sentinels():
    assert extract_response(f"{S0} hej med dig {S1}") == "hej med dig"


def test_extract_first_occurrence_wins():
    text = f"{S0} a {S1} {S0} b {S1}"
    assert extract_response(text) == "a"


def test_extract_missing_close_falls_back_to_tail():
    assert extract_response(f"{S0} hej med dig") == "hej med dig"


def test_extract_missing_open_returns_whole():
    assert extract_response("hej med dig") == "hej med dig"


def test_extract_empty_span():
    assert extract_response(f"{S0} {S1}") == ""


def test_extract_never_raises_on_junk():
    for junk in ("", " ", S1, f"{S1} {S0}", f"x {S1} y"):
        extract_response(junk)


_token = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=6)
_sentence = st.lists(_token, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(ctx=_sentence, resp=_sentence)
def test_round_trip_extraction(ctx, resp):
    ex = format_prompted(DialoguePair(ctx, resp, "da"))
    assert extract_response(ex.target) == resp
    assert ex.source.endswith(S0)


# -- span corruption -------------------------------------------------------


def test_corrupt_spans_shape():
    text = " ".join(f"t{i}" for i in range(20))
    ex = corrupt_spans(text, seed=4)
    assert not ex.identity_corruption
    src_toks = ex.source.split()
    tgt_toks = ex.target.split()
    assert src_toks.count(S0) == 1
    assert tgt_toks[0] == S0 and tgt_toks[-1] == S1
    span = tgt_toks[1:-1]
    assert len(span) == int(CORRUPTION_RATE * 20 + 0.5) == 3
    # source with the span re-inserted at the sentinel reproduces the text
    i = src_toks.index(S0)
    assert src_toks[:i] + span + src_toks[i + 1 :] == text.split()


def test_corrupt_spans_deterministic():
    text = "a b c d e f g h"
    one = corrupt_spans(text, seed=11)
    two = corrupt_spans(text, seed=11)
    assert (one.source, one.target) == (two.source, two.target)


def test_corrupt_spans_zero_budget_is_identity():
    ex = corrupt_spans("a b c", seed=0)  # int(0.15*3+0.5) == 0
    assert ex.identity_corruption


def test_corrupt_spans_needs_two_tokens():
    with pytest.raises(PromptError):
        corrupt_spans("solo", seed=0)


def test_corrupt_spans_seed_validated():
    with pytest.raises(PromptError, match="seed must be >= 0, got -1"):
        corrupt_spans("a b c d e", seed=-1)


@settings(max_examples=100, deadline=None)
@given(
    tokens=st.lists(_token, min_size=2, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_corrupt_spans_reconstruction(tokens, seed):
    text = " ".join(tokens)
    ex = corrupt_spans(text, seed=seed)
    assert ex.identity_corruption == (len(tokens) < 4)
    if ex.identity_corruption:
        assert (ex.source, ex.target) == (text, "")
        return
    src = ex.source.split()
    tgt = ex.target.split()
    assert tgt[0] == S0 and tgt[-1] == S1
    assert len(tgt) - 2 == int(CORRUPTION_RATE * len(tokens) + 0.5)
    i = src.index(S0)
    assert src[:i] + tgt[1:-1] + src[i + 1 :] == tokens
