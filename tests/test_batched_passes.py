"""Teacher-forced passes over time-major stacks: bit-exactness against the per-step code.

``reference.PerStep`` is the per-step ``forward``/``backward``/``generate_greedy``
that the batched passes replaced.  The model must reproduce it bit for bit
(the same loss ``repr``, the same gradient bytes), not to a tolerance.
"""

import numpy as np
import pytest

from crossdial import model as model_module
from crossdial.model import (
    CONTROL_TOKENS,
    AttentiveSeq2Seq,
    ModelConfig,
    ModelError,
    Vocabulary,
    generate_greedy,
    make_training_batch,
)
from helpers import train_long_batch
from reference import PerStep

TOKENS = tuple(f"w{i}" for i in range(40))


def _vocab():
    return Vocabulary(("<pad>", "<bos>", "<eos>", "<unk>") + TOKENS)


def _pairs(rng, count, max_src=12, max_tgt=10):
    """Ragged sources and targets; the first target is empty (EOS only)."""
    pairs = []
    for i in range(count):
        src = rng.choice(TOKENS, size=int(rng.integers(1, max_src + 1)))
        tgt = rng.choice(TOKENS, size=0 if i == 0 else int(rng.integers(0, max_tgt + 1)))
        pairs.append((" ".join(src), " ".join(tgt)))
    return pairs


def _model(seed, hidden_size=64, embedding_size=32, vocabulary=None):
    config = ModelConfig(embedding_size=embedding_size, hidden_size=hidden_size, seed=seed)
    model = AttentiveSeq2Seq(vocabulary or _vocab(), config)
    # move every parameter off its init (zero biases included), as training does
    rng = np.random.default_rng(seed + 100)
    model.params.flat[...] += rng.normal(scale=0.05, size=model.params.flat.size)
    return model


def _assert_same_pass(model, batch):
    ref = PerStep(model)
    want_loss, ref_cache = ref.forward(batch)
    want_grads = ref.backward(batch, ref_cache)
    loss, cache = model.forward(batch)
    grads = model.backward(cache)
    assert repr(loss) == repr(want_loss)
    assert repr(model.nll(batch)) == repr(loss)  # the forward that keeps no cache
    assert list(grads) == list(want_grads)
    for name, want in want_grads.items():
        assert grads[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 8, 32])
def test_forward_backward_match_per_step_code(batch_size, seed):
    rng = np.random.default_rng(batch_size * 10 + seed)
    model = _model(seed)
    batch = make_training_batch(model.vocabulary, _pairs(rng, batch_size))
    assert batch.tgt_mask[0].sum() == 1  # an EOS-only target
    _assert_same_pass(model, batch)


def test_random_batches_match_per_step_code():
    # rounding traps show in a fraction of batches only (a transposed mask
    # in the loss sum changed it in 19 of 120), so sweep many
    rng = np.random.default_rng(11)
    model = _model(4)
    for _ in range(40):
        batch = make_training_batch(model.vocabulary, _pairs(rng, int(rng.integers(1, 33))))
        _assert_same_pass(model, batch)


@pytest.mark.parametrize("batch_size", [1, 3])
def test_hidden_size_one_long_target_matches_per_step_code(batch_size):
    # at h=1 the (T, 1, 1) stacks are where a one-call reduce over steps
    # would sum pairwise (another result in 63 of 200 stacks at T=15)
    rng = np.random.default_rng(7)
    for seed in range(8):
        model = _model(seed, hidden_size=1, embedding_size=2)
        pairs = _pairs(rng, batch_size, max_tgt=6)
        pairs[-1] = (pairs[-1][0], " ".join(TOKENS[:14]))
        batch = make_training_batch(model.vocabulary, pairs)
        assert batch.tgt_in.shape[1] >= 9
        _assert_same_pass(model, batch)


def test_train_long_shape_matches_per_step_code():
    # the train_long benchmark's regime: B=32, ~50-token sources, ~25-token
    # targets, an 800-token vocabulary and h=64
    vocabulary, _, batch = train_long_batch()
    model = _model(5, vocabulary=vocabulary)
    assert batch.src.shape[0] == 32 and batch.src.shape[1] >= 48 and batch.tgt_in.shape[1] >= 24
    _assert_same_pass(model, batch)


def _chunk_sizes(model, batch):
    return [c.stop - c.start for c in model._readout_chunks(batch.tgt_in.shape[1], batch.src.shape[0])]


def test_readout_chunks_split_at_the_default_budget():
    # a (T, B, V) softmax over READOUT_CHUNK_BYTES runs in several chunks,
    # the last one short, and the pass stays the per-step code's to the bit
    vocabulary, _, batch = train_long_batch()
    model = _model(6, vocabulary=vocabulary)
    t_len, n = batch.tgt_in.shape[1], batch.src.shape[0]
    assert t_len * n * len(vocabulary) * 8 > model_module.READOUT_CHUNK_BYTES
    sizes = _chunk_sizes(model, batch)
    assert len(sizes) > 1 and sum(sizes) == t_len
    assert sizes[0] < sizes[-1]  # T is not a multiple of the steps per chunk; the short chunk runs first
    _assert_same_pass(model, batch)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3, 4])
def test_small_readout_chunks_match_per_step_code(monkeypatch, steps_per_chunk):
    # a smaller budget splits study-sized batches; B=3 and V=45 make B*V odd,
    # so consecutive steps of one chunk sit 8 bytes off each other's alignment
    vocabulary = Vocabulary(CONTROL_TOKENS + TOKENS + ("w40",))
    rng = np.random.default_rng(30 + steps_per_chunk)
    model = _model(steps_per_chunk, vocabulary=vocabulary)
    for batch_size in (1, 3, 8):
        batch = make_training_batch(vocabulary, _pairs(rng, batch_size))
        monkeypatch.setattr(model_module, "READOUT_CHUNK_BYTES", steps_per_chunk * batch_size * len(vocabulary) * 8)
        sizes = _chunk_sizes(model, batch)
        assert sizes[-1] == min(steps_per_chunk, batch.tgt_in.shape[1])
        _assert_same_pass(model, batch)


@pytest.mark.parametrize("hidden_size, embedding_size", [(64, 32), (1, 2)], ids=["h64", "h1"])
def test_greedy_matches_per_step_code(hidden_size, embedding_size):
    model = _model(2, hidden_size=hidden_size, embedding_size=embedding_size)
    ref = PerStep(model)
    rng = np.random.default_rng(5)
    for source, _ in _pairs(rng, 6):
        got = generate_greedy(model, source, max_length=12)
        want_ids, want_dists = ref.generate_greedy(source, 12)
        assert list(got.token_ids) == want_ids
        assert len(got.distributions) == len(want_dists)
        for dist, want in zip(got.distributions, want_dists):
            assert dist.tobytes() == want.tobytes()


def test_second_backward_on_one_cache_raises():
    model = _model(0)
    batch = make_training_batch(model.vocabulary, _pairs(np.random.default_rng(0), 3))
    _, cache = model.forward(batch)
    model.backward(cache)
    with pytest.raises(ModelError, match="consumed"):
        model.backward(cache)


def test_forward_caches_stay_independent():
    # a later forward must not overwrite an earlier cache: the attention
    # scratch belongs to each pass, not to the model
    rng = np.random.default_rng(3)
    model = _model(1)
    b1, b2 = (make_training_batch(model.vocabulary, _pairs(rng, 8)) for _ in range(2))
    _, cache = model.forward(b1)
    want = model.backward(cache).flat.tobytes()

    _, cache1 = model.forward(b1)
    _, cache2 = model.forward(b2)
    grads1 = model.backward(cache1)
    assert grads1.flat.tobytes() == want
    grads2 = model.backward(cache2)
    # the returned grads alias no buffer that a later pass writes
    assert grads1.flat.tobytes() == want
    assert not np.shares_memory(grads1.flat, grads2.flat)
    model.forward(b1)
    assert grads1.flat.tobytes() == want
