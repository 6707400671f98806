"""
Even interleaving for joint multitask training
==============================================

Joint training needs the few target-language examples spread evenly
through the long auxiliary-language stream — if they clump at one end,
the model sees them once and forgets.  interleave_even places one target
item after every floor(N_aux / N_tgt) auxiliary items.
"""

from crossdial import Corpus, DialoguePair, InterleaveError, interleave_even


def stream(language, n, tag):
    pairs = tuple(DialoguePair(f"{tag} ctx {i}", f"{tag} svar {i}", language) for i in range(n))
    return Corpus(pairs=pairs, language=language)


# -- a small, visible example -----------------------------------------------------

mixed = interleave_even(stream("en", 12, "aux"), stream("da", 3, "tgt"))
print("block size:", mixed.block_size)  # 12 // 3 = 4 aux items per target item
print("stream    :", " ".join("T" if p.language == "da" else "a" for p in mixed.pairs))

# -- the reference geometry ---------------------------------------------------------

big = interleave_even(stream("en", 10000, "aux"), stream("da", 10, "tgt"))
positions = [i + 1 for i, p in enumerate(big.pairs) if p.language == "da"]  # 1-based
print("\n10000 aux + 10 tgt -> length", len(big.pairs))
print("target items sit at:", positions)
print("i.e. one target item after every", big.block_size, "auxiliary items")

# -- both stream orders survive -------------------------------------------------------

aux_order = [p.context for p in big.pairs if p.language == "en"]
print("\nauxiliary order preserved:", aux_order == [f"aux ctx {i}" for i in range(10000)])

# -- degenerate geometry is refused, not silently mangled -----------------------------

try:
    interleave_even(stream("en", 5, "aux"), stream("da", 9, "tgt"))
except InterleaveError as exc:
    print("\nmore targets than aux refused:", exc)
