"""
The numpy seq2seq model: gradients, pretraining format, overfitting
===================================================================

The model is a GRU encoder-decoder with additive attention, written in
plain float64 numpy with hand-derived backprop and a hand-rolled Adam.
Everything a framework would hide is checkable here: the analytic
gradients are verified against central finite differences, and a
200-step run must drive the loss on a single pair to ~0 with exact
greedy reconstruction.
"""

from crossdial import (
    AttentiveSeq2Seq,
    Corpus,
    DialoguePair,
    ModelConfig,
    OptimizerConfig,
    Vocabulary,
    corrupt_spans,
    generate_greedy,
    gradient_check,
    make_training_batch,
    train,
)

# -- a tiny model ------------------------------------------------------------------

ca = Corpus(pairs=(DialoguePair("a1 a2 a3 a4", "a4 a3 a2", "aa"),), language="aa")
cb = Corpus(pairs=(DialoguePair("b1 b2 b3", "b3 b1", "ba"),), language="ba")
vocab = Vocabulary.build([ca, cb])
model = AttentiveSeq2Seq(vocab, ModelConfig(embedding_size=16, hidden_size=24, seed=0))
print("vocabulary:", len(vocab), "tokens;", "parameters:", model.params.flat.size)

# -- gradients vs finite differences ---------------------------------------------------

batch = make_training_batch(vocab, [("a1 a2 a3 a4", "a4 a3 a2"), ("b1 b2", "b3 b1 b2")], max_length=16)
report = gradient_check(model, batch, probe_count=25, seed=0)
print("\ngradient check over", len(report.probes), "probes:")
print("  max relative error:", f"{report.max_relative_error:.3e}", "(tolerance 1e-4)")

# -- the pretraining view of a sentence --------------------------------------------------

ex = corrupt_spans("a1 a2 a3 a4 a1 a2", seed=5)
print("\nspan corruption turns raw text into a fill-in-the-blank pair:")
print("  source:", ex.source)
print("  target:", ex.target)

# -- overfit one pair ----------------------------------------------------------------

data = [("a1 a2 a3 a4", "a4 a3 a2")]
result = train(model, data, data, OptimizerConfig(learning_rate=0.01, epochs=200, batch_size=1))
final_nll = result.model.nll(make_training_batch(vocab, data, max_length=16))
print("\nafter 200 steps on one pair:")
print("  nll:", f"{final_nll:.4f}", "(must be < 0.1)")
print("  greedy:", repr(generate_greedy(result.model, "a1 a2 a3 a4", max_length=16).text))

# -- checkpoint selection ----------------------------------------------------------------

steps = [(step, round(loss, 3)) for step, loss in result.valid_losses]
print("\nvalidation history (step, valid loss):", steps[:3], "...", steps[-1])
print("train keeps the earliest argmin of that history: step", result.best.step)
