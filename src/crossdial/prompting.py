"""Prompt formatting for dialogue pairs and its inverse.

Three layouts are produced here; the prompted and corruption layouts
take their strings from the one fixed prompt, ``DEFAULT_TEMPLATE``:

* prompted   -- "Context: [X] Response: <extra_id_0>"  /  "<extra_id_0> [Y] <extra_id_1>"
* plain      -- source and target are the raw context and response
* corruption -- one token span replaced by the first sentinel; the target
                restates the span between the two sentinels

The prompted layout deliberately reuses the sentinel frame of the
corruption layout: fine-tuning then looks like more denoising, which is
what protects a multilingual model from drifting onto the tuning language.
Only two sentinels exist, so corruption is capped at a single interior
span (the second sentinel is the terminator).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import DialoguePair

log = logging.getLogger(__name__)


class PromptError(ValueError):
    """Raised for unformattable inputs."""


@dataclass(frozen=True)
class PromptTemplate:
    """Hand-written prompt strings plus the two sentinel tokens;
    ``DEFAULT_TEMPLATE`` is the one prompt, which the prompted and
    corruption layouts use."""

    context_prefix: str = "Context:"
    response_prefix: str = "Response:"
    sentinel0: str = "<extra_id_0>"
    sentinel1: str = "<extra_id_1>"


DEFAULT_TEMPLATE = PromptTemplate()


@dataclass(frozen=True)
class FormattedExample:
    """A (source, target) training pair after formatting.

    ``identity_corruption`` is set only by :func:`corrupt_spans` when the
    requested corruption rounded to zero tokens and the text was passed
    through unchanged.
    """

    source: str
    target: str
    identity_corruption: bool = False


def format_prompted(pair: DialoguePair) -> FormattedExample:
    """Wrap a pair in the fixed prompt with sentinel-framed target.

    Rejects pairs whose text contains either sentinel: extraction from
    generated text must stay unambiguous.
    """
    template = DEFAULT_TEMPLATE
    for sentinel in (template.sentinel0, template.sentinel1):
        if sentinel in pair.context or sentinel in pair.response:
            raise PromptError(f"pair text contains the sentinel {sentinel!r}")
    source = " ".join([template.context_prefix, pair.context, template.response_prefix, template.sentinel0])
    target = " ".join([template.sentinel0, pair.response, template.sentinel1])
    return FormattedExample(source=source, target=target)


def format_plain(pair: DialoguePair) -> FormattedExample:
    """The non-prompted baseline layout: raw context in, raw response out."""
    return FormattedExample(source=pair.context, target=pair.response)


def extract_response(generated: str) -> str:
    """Recover the response between the first sentinel pair of a generation.

    Total on arbitrary text: without sentinel0 the whole input (trimmed) is
    returned; without a closing sentinel1 everything after sentinel0 is.
    """
    start = generated.find(DEFAULT_TEMPLATE.sentinel0)
    if start < 0:
        return generated.strip()
    start += len(DEFAULT_TEMPLATE.sentinel0)
    end = generated.find(DEFAULT_TEMPLATE.sentinel1, start)
    if end < 0:
        return generated[start:].strip()
    return generated[start:end].strip()


# T5's share of masked tokens (Raffel et al. 2020): a text masks
# round(CORRUPTION_RATE * tokens) tokens, which is none below 4 tokens
CORRUPTION_RATE = 0.15


def corrupt_spans(text: str, seed: int = 0) -> FormattedExample:
    """Mask one token span of ``text`` with sentinel0; target restates it.

    The two-sentinel frame masks exactly one span per text: its length is
    round(CORRUPTION_RATE * token count) and its position is seed-chosen.
    A length of zero returns the identity corruption (source unchanged,
    empty target) with ``identity_corruption`` set.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise PromptError("span corruption needs at least 2 tokens")
    if seed < 0:
        raise PromptError(f"seed must be >= 0, got {seed}")

    span_length = int(CORRUPTION_RATE * len(tokens) + 0.5)  # <= len(tokens), as the rate is below 1
    if span_length == 0:
        return FormattedExample(source=text, target="", identity_corruption=True)

    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(tokens) - span_length + 1))
    span = tokens[start : start + span_length]
    source_tokens = tokens[:start] + [DEFAULT_TEMPLATE.sentinel0] + tokens[start + span_length :]
    target_tokens = [DEFAULT_TEMPLATE.sentinel0] + span + [DEFAULT_TEMPLATE.sentinel1]
    return FormattedExample(source=" ".join(source_tokens), target=" ".join(target_tokens))
