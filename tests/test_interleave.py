from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdial.corpus import Corpus, DialoguePair
from crossdial.interleave import InterleaveError, interleave_even


def _corpus(n, lang):
    pairs = tuple(DialoguePair(f"{lang} c{i}", f"{lang} r{i}", lang) for i in range(n))
    return Corpus(pairs=pairs, language=lang)


def test_block_structure_small():
    mixed = interleave_even(_corpus(7, "aa"), _corpus(3, "ba"))
    langs = [p.language for p in mixed.pairs]
    # block = 7 // 3 = 2, remainder 1 appended
    assert langs == ["aa", "aa", "ba", "aa", "aa", "ba", "aa", "aa", "ba", "aa"]
    assert mixed.block_size == 2


def test_errors():
    with pytest.raises(InterleaveError, match="N_tgt=5 exceeds N_aux=3"):
        interleave_even(_corpus(3, "aa"), _corpus(5, "ba"))
    with pytest.raises(InterleaveError):
        interleave_even(_corpus(3, "aa"), _corpus(0, "ba"))
    with pytest.raises(InterleaveError):
        interleave_even(_corpus(3, "aa"), _corpus(2, "aa"))  # same language


@settings(max_examples=150, deadline=None)
@given(n_aux=st.integers(1, 400), n_tgt=st.integers(1, 400))
def test_properties(n_aux, n_tgt):
    aux, tgt = _corpus(n_aux, "aa"), _corpus(n_tgt, "ba")
    if n_tgt > n_aux:
        with pytest.raises(InterleaveError):
            interleave_even(aux, tgt)
        return
    mixed = interleave_even(aux, tgt)
    # multiset equality
    assert Counter(mixed.pairs) == Counter(aux.pairs) + Counter(tgt.pairs)
    # per-stream order preserved
    assert [p for p in mixed.pairs if p.language == "aa"] == list(aux.pairs)
    assert [p for p in mixed.pairs if p.language == "ba"] == list(tgt.pairs)
    # exact block spacing: target k sits right after k full aux blocks
    block = n_aux // n_tgt
    positions = [i for i, p in enumerate(mixed.pairs) if p.language == "ba"]
    assert positions == [(block + 1) * (k + 1) - 1 for k in range(n_tgt)]
