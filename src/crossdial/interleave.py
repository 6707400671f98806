"""Even interleaving of an auxiliary-language stream with few-shot targets.

With N_aux auxiliary and N_tgt target examples, one target example is
emitted after every block of floor(N_aux / N_tgt) auxiliary examples;
leftover auxiliary examples (N_aux mod N_tgt) are appended at the tail.
The interleaver never reorders within a stream and never randomizes:
shuffling, if wanted, happens upstream, so the resulting schedule can be
audited as a file.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, DialoguePair


class InterleaveError(ValueError):
    """Raised when the two streams cannot be interleaved."""


@dataclass(frozen=True)
class InterleavedCorpus:
    """A mixed-language training schedule."""

    pairs: tuple[DialoguePair, ...]
    block_size: int


def interleave_even(aux: Corpus, tgt: Corpus) -> InterleavedCorpus:
    """Merge the auxiliary stream with target examples at even spacing."""
    n_aux, n_tgt = len(aux), len(tgt)
    if aux.language == tgt.language:
        raise InterleaveError("auxiliary and target corpora must have distinct languages")
    if n_tgt == 0:
        raise InterleaveError("nothing to interleave: target corpus is empty (train on the auxiliary stream alone)")
    if n_tgt > n_aux:
        raise InterleaveError(f"N_tgt={n_tgt} exceeds N_aux={n_aux}: block size would be 0")

    block = n_aux // n_tgt
    merged: list[DialoguePair] = []
    for i, tgt_pair in enumerate(tgt.pairs):
        merged.extend(aux.pairs[i * block : (i + 1) * block])
        merged.append(tgt_pair)
    merged.extend(aux.pairs[n_tgt * block :])

    return InterleavedCorpus(pairs=tuple(merged), block_size=block)
