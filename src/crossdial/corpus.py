"""Dialogue corpora: loading, validation, sampling, synthesis.

A corpus file is UTF-8 JSON-lines: one record per line with exactly the
fields ``context`` (text), ``response`` (text) and ``lang`` (2-letter
ISO-639-1 code).  Line-delimited records keep loading streamable and let
every validation error name its line.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .artifact import read_text, write_lines

log = logging.getLogger(__name__)

# ISO 639-1 two-letter codes.
ISO_639_1 = frozenset(
    """
    aa ab ae af ak am an ar as av ay az ba be bg bh bi bm bn bo br bs ca ce
    ch co cr cs cu cv cy da de dv dz ee el en eo es et eu fa ff fi fj fo fr
    fy ga gd gl gn gu gv ha he hi ho hr ht hu hy hz ia id ie ig ii ik io is
    it iu ja jv ka kg ki kj kk kl km kn ko kr ks ku kv kw ky la lb lg li ln
    lo lt lu lv mg mh mi mk ml mn mr ms mt my na nb nd ne ng nl nn no nr nv
    ny oc oj om or os pa pi pl ps pt qu rm rn ro ru rw sa sc sd se sg si sk
    sl sm sn so sq sr ss st su sv sw ta te tg th ti tk tl tn to tr ts tt tw
    ty ug uk ur uz ve vi vo wa wo xh yi yo za zh zu
    """.split()
)

# Language codes of the two synthetic languages.  Their token inventories
# use the matching prefixes (a…, b…), so generated text is recognizable at
# a glance.
SYNTH_AUX_LANG = "aa"
SYNTH_TGT_LANG = "ba"


class CorpusError(ValueError):
    """Raised for invalid pairs, corpora, or corpus files."""


@dataclass(frozen=True)
class DialoguePair:
    """One context/response exchange tagged with its language."""

    context: str
    response: str
    language: str

    def __post_init__(self) -> None:
        if not self.context.strip():
            raise CorpusError("context is empty")
        if not self.response.strip():
            raise CorpusError("response is empty")
        if self.language not in ISO_639_1:
            raise CorpusError(f"unknown language code {self.language!r}")


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of pairs, all in one language."""

    pairs: tuple[DialoguePair, ...]
    language: str

    def __post_init__(self) -> None:
        if self.language not in ISO_639_1:
            raise CorpusError(f"unknown language code {self.language!r}")
        for pair in self.pairs:
            if pair.language != self.language:
                raise CorpusError(
                    f"pair language {pair.language!r} does not match corpus language {self.language!r}"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, index: int) -> DialoguePair:
        return self.pairs[index]


def _parse_record(line: str, lineno: int, source: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{source}:{lineno}: malformed record: {exc.msg}") from None
    if not isinstance(record, dict):
        raise CorpusError(f"{source}:{lineno}: malformed record: not an object")
    for field in ("context", "response", "lang"):
        if field not in record:
            raise CorpusError(f"{source}:{lineno}: malformed record: missing field {field!r}")
        if not isinstance(record[field], str):
            raise CorpusError(f"{source}:{lineno}: malformed record: field {field!r} is not text")
    return record


def load_pairs(path: str) -> list[DialoguePair]:
    """Load pairs from a corpus file, allowing mixed languages.

    Records with an empty context or response are skipped with a warning
    naming their line.  Structurally malformed records are errors and name
    their line.
    """
    pairs: list[DialoguePair] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        record = _parse_record(line, lineno, str(path))
        if record["lang"] not in ISO_639_1:
            raise CorpusError(f"{path}:{lineno}: unknown language code {record['lang']!r}")
        if not record["context"].strip() or not record["response"].strip():
            log.warning("%s:%d: record has empty context or response (record skipped)", path, lineno)
            continue
        pairs.append(
            DialoguePair(
                context=record["context"],
                response=record["response"],
                language=record["lang"],
            )
        )
    return pairs


def save_pairs(pairs: Iterable[DialoguePair], path: str) -> None:
    """Write pairs as a corpus file (one JSON record per line)."""
    records = ({"context": pair.context, "response": pair.response, "lang": pair.language} for pair in pairs)
    write_lines(path, (json.dumps(record, ensure_ascii=False) for record in records))


def sample_few_shot(corpus: Corpus, k: int, seed: int) -> Corpus:
    """Draw k pairs uniformly without replacement, kept in corpus order.

    Sampling uses numpy's PCG64 generator seeded through SeedSequence(seed),
    so a fixed seed always selects the same subset.  The selected indices
    are re-sorted ascending, which keeps batching stable.
    """
    if k < 1:
        raise CorpusError(f"k must be >= 1, got {k}")
    if k > len(corpus):
        raise CorpusError(f"k={k} exceeds corpus size {len(corpus)}")
    if seed < 0:
        raise CorpusError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    indices = sorted(rng.choice(len(corpus), size=k, replace=False).tolist())
    return Corpus(
        pairs=tuple(corpus.pairs[i] for i in indices),
        language=corpus.language,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic two-language toy corpus.

    The two languages have disjoint token inventories but parallel
    context-to-response mapping rules, so structure transfers across
    languages while surface vocabulary does not.
    """

    vocab_size_per_language: int = field(default=40, metadata={"key": "vocab_size"})
    n_train_aux: int = 256
    n_fewshot_tgt: int = 10
    n_valid: int = 64
    n_test: int = 64
    template_count: int = field(default=4, metadata={"key": "templates"})
    seed: int = 13

    def __post_init__(self) -> None:
        for name in ("vocab_size_per_language", "n_train_aux", "n_fewshot_tgt", "n_valid", "n_test", "template_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise CorpusError(f"{name} must be a positive integer, got {value!r}")
        if self.seed < 0:
            raise CorpusError(f"seed must be >= 0, got {self.seed}")
        if self.vocab_size_per_language < self.template_count + 2:
            raise CorpusError(
                f"vocab_size_per_language={self.vocab_size_per_language} is too small to realize "
                f"{self.template_count} distinct templates (need at least template_count + 2 tokens)"
            )


@dataclass(frozen=True)
class SyntheticBilingual:
    """The six corpora of a generated bilingual toy dataset plus inventories."""

    aux_train: Corpus
    aux_valid: Corpus
    aux_test: Corpus
    tgt_fewshot: Corpus
    tgt_valid: Corpus
    tgt_test: Corpus
    aux_vocabulary: frozenset[str]
    tgt_vocabulary: frozenset[str]


def _language_inventory(prefix: str, vocab_size: int, template_count: int) -> tuple[list[str], list[str]]:
    width = max(3, len(str(vocab_size - 1)))
    tokens = [f"{prefix}{i:0{width}d}" for i in range(vocab_size)]
    markers = tokens[:template_count]
    content = tokens[template_count:]
    return markers, content


def _make_pair(rng: np.random.Generator, language: str, markers: list[str], content_pool: list[str]) -> DialoguePair:
    template = int(rng.integers(len(markers)))
    length = int(rng.integers(3, 7))
    content = [content_pool[int(i)] for i in rng.integers(len(content_pool), size=length)]
    # Per-template response rule: even templates reverse the content, odd
    # templates copy it; every response ends with the template marker.
    body = content[::-1] if template % 2 == 0 else list(content)
    context = " ".join([markers[template]] + content)
    response = " ".join(body + [markers[template]])
    return DialoguePair(context=context, response=response, language=language)


def _make_corpus(rng: np.random.Generator, language: str, count: int, markers, content) -> Corpus:
    pairs = tuple(_make_pair(rng, language, markers, content) for _ in range(count))
    return Corpus(pairs=pairs, language=language)


def generate_synthetic_bilingual(spec: SyntheticSpec) -> SyntheticBilingual:
    """Generate the paired toy languages, deterministically from spec.seed.

    Language "aa" plays the high-resource auxiliary role (train/valid/test),
    language "ba" the low-resource target role (few-shot train subset plus
    valid/test).
    """
    aux_markers, aux_content = _language_inventory("a", spec.vocab_size_per_language, spec.template_count)
    tgt_markers, tgt_content = _language_inventory("b", spec.vocab_size_per_language, spec.template_count)

    streams = np.random.SeedSequence(spec.seed).spawn(6)
    rngs = [np.random.default_rng(s) for s in streams]

    aux_train = _make_corpus(rngs[0], SYNTH_AUX_LANG, spec.n_train_aux, aux_markers, aux_content)
    aux_valid = _make_corpus(rngs[1], SYNTH_AUX_LANG, spec.n_valid, aux_markers, aux_content)
    aux_test = _make_corpus(rngs[2], SYNTH_AUX_LANG, spec.n_test, aux_markers, aux_content)
    tgt_fewshot = _make_corpus(rngs[3], SYNTH_TGT_LANG, spec.n_fewshot_tgt, tgt_markers, tgt_content)
    tgt_valid = _make_corpus(rngs[4], SYNTH_TGT_LANG, spec.n_valid, tgt_markers, tgt_content)
    tgt_test = _make_corpus(rngs[5], SYNTH_TGT_LANG, spec.n_test, tgt_markers, tgt_content)

    return SyntheticBilingual(
        aux_train=aux_train,
        aux_valid=aux_valid,
        aux_test=aux_test,
        tgt_fewshot=tgt_fewshot,
        tgt_valid=tgt_valid,
        tgt_test=tgt_test,
        aux_vocabulary=frozenset(aux_markers + aux_content),
        tgt_vocabulary=frozenset(tgt_markers + tgt_content),
    )


def derive_token_vocabulary(corpora: Iterable[Iterable[DialoguePair]]) -> frozenset[str]:
    """Whitespace-token inventory of the given corpora or pair lists (for legality checks)."""
    tokens: set[str] = set()
    for corpus in corpora:
        for pair in corpus:
            tokens.update(pair.context.split())
            tokens.update(pair.response.split())
    return frozenset(tokens)
