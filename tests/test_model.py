import dataclasses
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from crossdial import prompting
from crossdial.corpus import Corpus, DialoguePair, SyntheticSpec, generate_synthetic_bilingual
from crossdial.metrics import language_legality
from crossdial.model import (
    AdamW,
    AttentiveSeq2Seq,
    Batch,
    CONTROL_TOKENS,
    ModelConfig,
    EOS_ID,
    ModelError,
    OptimizerConfig,
    PAD_ID,
    TrainingDivergedError,
    Vocabulary,
    _ForwardCache,
    batch_from_encoded,
    evaluate_nll,
    generate_corpus,
    generate_greedy,
    gradient_check,
    load_model,
    make_training_batch,
    pretrain_span_corruption,
    save_model,
    train,
)


def _vocab(extra=()):
    ca = Corpus(pairs=(DialoguePair("a1 a2 a3 a4", "a4 a3 a2", "aa"),), language="aa")
    cb = Corpus(pairs=(DialoguePair("b1 b2 b3", "b3 b1", "ba"),), language="ba")
    return Vocabulary.build([ca, cb], extra_texts=extra)


def _model(emb=8, hid=10, seed=3, extra=()):
    return AttentiveSeq2Seq(_vocab(extra), ModelConfig(embedding_size=emb, hidden_size=hid, seed=seed))


def _batch(model, data=None, max_length=16):
    data = data or [("a1 a2 a3 a4", "a4 a3 a2"), ("b1 b2", "b3 b1 b2")]
    return make_training_batch(model.vocabulary, data, max_length=max_length)


# -- vocabulary ------------------------------------------------------------


def test_vocabulary_layout():
    vocab = _vocab()
    assert vocab.tokens[:4] == ("<pad>", "<bos>", "<eos>", "<unk>")
    content = vocab.tokens[4:]
    assert list(content) == sorted(content)
    assert "a1" in vocab and "zz" not in vocab


def test_vocabulary_encode_decode():
    vocab = _vocab()
    ids = vocab.encode("a1 zz a2")
    assert ids[1] == 3  # unknown token
    assert vocab.decode(ids) == "a1 <unk> a2"


def test_vocabulary_build_deterministic():
    assert _vocab().tokens == _vocab().tokens


# -- batching --------------------------------------------------------------


def test_batch_padding_and_masks():
    model = _model()
    batch = _batch(model)
    assert batch.src.shape == batch.src_mask.shape
    assert (batch.src[batch.src_mask == 0.0] == PAD_ID).all()
    # target-in starts with BOS, target-out ends with EOS where unmasked
    assert (batch.tgt_in[:, 0] == 1).all()
    row_lengths = batch.tgt_mask.sum(axis=1).astype(int)
    for b, n in enumerate(row_lengths):
        assert batch.tgt_out[b, n - 1] == 2
    assert batch.token_count == int(batch.tgt_mask.sum())


def test_empty_source_rejected():
    model = _model()
    with pytest.raises(ModelError):
        make_training_batch(model.vocabulary, [("", "a1")], max_length=8)


def test_max_length_truncates():
    model = _model()
    batch = make_training_batch(model.vocabulary, [("a1 a2 a3 a4", "a4 a3 a2")], max_length=2)
    assert batch.src.shape[1] == 2
    assert batch.tgt_in.shape[1] == 3  # BOS + 2 tokens


# -- forward/backward ------------------------------------------------------


def test_uniform_logits_give_log_vocab_loss():
    model = _model()
    model.params["W_out"][:] = 0.0
    model.params["b_out"][:] = 0.0
    loss, _ = model.forward(_batch(model))
    assert loss == pytest.approx(math.log(len(model.vocabulary)), abs=1e-12)


def test_loss_is_token_mean():
    # duplicating the batch rows must not change the mean loss
    model = _model()
    data = [("a1 a2 a3", "a3 a1")]
    single, _ = model.forward(make_training_batch(model.vocabulary, data, max_length=8))
    double, _ = model.forward(make_training_batch(model.vocabulary, data * 2, max_length=8))
    assert single == pytest.approx(double, abs=1e-12)


def test_gradient_check_passes():
    model = _model()
    report = gradient_check(model, _batch(model), probe_count=50, seed=0)
    assert len(report.probes) == 50
    assert report.max_relative_error <= 1e-4


def test_gradient_check_catches_sign_flip():
    model = _model()
    batch = _batch(model)
    _, cache = model.forward(batch)
    grads = model.backward(cache)
    grads["W_out"] = -grads["W_out"]  # sabotage one parameter's gradient
    start, _ = model.params.spans["W_out"]
    # probe inside the flipped parameter where the gradient is nonzero
    flat = np.abs(grads["W_out"]).ravel()
    idx = start + int(np.argmax(flat))
    report = gradient_check(model, batch, flat_indices=[idx], analytic=grads)
    assert report.max_relative_error > 1.5  # sign flip reads ~2.0


def test_gradients_cover_all_parameters():
    model = _model()
    _, cache = model.forward(_batch(model))
    grads = model.backward(cache)
    assert set(grads) == set(model.params)
    for name, grad in grads.items():
        assert grad.shape == model.params[name].shape
        assert np.isfinite(grad).all(), name


def test_pad_positions_get_no_gradient():
    model = _model()
    batch = _batch(model, data=[("a1 a2 a3 a4", "a4"), ("a1", "a2 a3")])
    _, cache = model.forward(batch)
    grads = model.backward(cache)
    # the pad embedding row can only accumulate from masked positions
    assert np.allclose(grads["E"][PAD_ID], 0.0)


def _arrays_in(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_in(item)
    elif isinstance(obj, dict):
        yield from _arrays_in(list(obj.values()))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays_in(getattr(obj, f.name))


def _train_long_shape():
    """The train_long benchmark's shape: B=32, S=51, T=27, an 800-token
    vocabulary, h=64."""
    tokens = tuple(f"v{i}" for i in range(796))
    vocabulary = Vocabulary(CONTROL_TOKENS + tokens)
    rng = np.random.default_rng(0)
    pairs = [
        tuple(" ".join(rng.choice(tokens, size=int(rng.integers(low, high)))) for low, high in ((40, 51), (15, 26)))
        for _ in range(31)
    ]
    pairs.append((" ".join(tokens[:51]), " ".join(tokens[:26])))
    model = AttentiveSeq2Seq(vocabulary, ModelConfig())
    batch = make_training_batch(vocabulary, pairs)
    assert batch.src.shape == (32, 51) and batch.tgt_in.shape == (32, 27)
    return model, pairs, batch


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Traced peaks: with the whole (T, B, V) softmax cached for backward, then
# with the readout's grads taken chunk by chunk in forward, then with
# backward dropping each buffer at its last use and the encoder caching no
# copy of its states: one forward+backward 19.5 -> 14.6 -> 13.4 MB, a train()
# step with its optimizer state and best snapshot 26.0 -> 19.6 -> 18.3 MB,
# and nll, which keeps no step cache, 17.4 -> 5.9 MB.  The first two bounds
# fail at 14.6 and 19.6 MB.


def test_forward_backward_memory_at_train_long_shape():
    # with attention's (B, S, a) activations cached per decoder step the
    # peak was 41 MB; they are recomputed in backward
    model, _, batch = _train_long_shape()
    t_len, n = batch.tgt_in.shape[1], batch.src.shape[0]
    cached = []  # (field, shape) of every cached array; holding the arrays would raise the peak

    def forward_backward():
        _, cache = model.forward(batch)
        for f in dataclasses.fields(cache):
            cached.extend((f.name, arr.shape) for arr in _arrays_in(getattr(cache, f.name)))
        model.backward(cache)

    assert _traced_peak(forward_backward) < 14e6
    h = model.config.hidden_size
    sizes = [(name, math.prod(shape)) for name, shape in cached]
    # no per-step (B, S, a) array besides the attention's values and keys
    assert [name for name, size in sizes if size == n * 51 * h] == ["enc_out", "enc_proj"]
    assert [name for name, size in sizes if size == t_len * n * len(model.vocabulary)] == []  # no softmax
    # every GRU step keeps its gates zr and candidate n, a decoder step also its alpha; backward
    # re-reads the state entering the step, its input and its mask columns from buffers it holds
    assert [shape for name, shape in cached if name == "enc_steps"] == [(2, n, h), (n, h)] * 51
    assert [shape for name, shape in cached if name == "dec_steps"] == [(n, 51), (2, n, h), (n, h)] * t_len
    assert [name for name, shape in cached if shape == (n, 1)] == []  # no mask column
    assert "h_last" not in {f.name for f in dataclasses.fields(_ForwardCache)}  # enc_out[:, -1] is it


def test_train_memory_at_train_long_shape():
    model, pairs, _ = _train_long_shape()
    config = OptimizerConfig(learning_rate=1e-3, epochs=1, batch_size=32)
    assert _traced_peak(lambda: train(model, pairs * 3, pairs, config)) < 19e6


def test_nll_memory_at_train_long_shape():
    model, _, batch = _train_long_shape()
    assert _traced_peak(lambda: model.nll(batch)) < 12e6


# -- optimizer -------------------------------------------------------------


def test_optimizer_config_defaults():
    cfg = OptimizerConfig(learning_rate=1e-3, epochs=1, batch_size=1)
    assert cfg.max_length == 64 and not hasattr(cfg, "weight_decay")
    assert (AdamW.BETA1, AdamW.BETA2, AdamW.EPS) == (0.9, 0.999, 1e-8)


def test_optimizer_config_validation():
    with pytest.raises(ModelError):
        OptimizerConfig(learning_rate=0.0, epochs=1, batch_size=1)
    with pytest.raises(ModelError):
        OptimizerConfig(learning_rate=0.1, epochs=-1, batch_size=1)
    with pytest.raises(ModelError):
        OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError, match="must be finite"):
            OptimizerConfig(learning_rate=bad, epochs=1, batch_size=1)


# -- training loop ---------------------------------------------------------


def test_overfit_single_pair():
    model = _model(emb=16, hid=24, seed=0)
    data = [("a1 a2 a3 a4", "a4 a3 a2")]
    cfg = OptimizerConfig(learning_rate=0.01, epochs=4, batch_size=1)
    result = train(model, data * 50, data, cfg)  # 200 steps, validated every 50
    batch = make_training_batch(model.vocabulary, data, max_length=16)
    assert result.model.nll(batch) < 0.1
    assert generate_greedy(result.model, "a1 a2 a3 a4", max_length=16).text == "a4 a3 a2"


def test_train_is_deterministic():
    def run():
        model = _model(seed=1)
        cfg = OptimizerConfig(learning_rate=0.01, epochs=3, batch_size=2)
        result = train(model, [("a1 a2", "a2"), ("b1 b2", "b2 b1")], [("a1", "a1")], cfg)
        return result.model.parameters_flat()

    np.testing.assert_array_equal(run(), run())


def test_train_checkpoints_and_restore():
    model = _model()
    cfg = OptimizerConfig(learning_rate=0.01, epochs=3, batch_size=1)
    result = train(model, [("a1 a2", "a2")], [("a1 a2", "a2")], cfg)
    assert [step for step, _ in result.valid_losses] == [0, 1, 2, 3]  # 1 step per epoch
    best = result.best
    assert best.valid_loss == min(loss for _, loss in result.valid_losses)
    model.load_snapshot(best.params)
    batch = make_training_batch(model.vocabulary, [("a1 a2", "a2")], max_length=16)
    assert model.nll(batch) == pytest.approx(best.valid_loss)


def test_train_epochs_zero_is_noop_with_baseline_checkpoint():
    model = _model()
    before = model.parameters_flat()
    cfg = OptimizerConfig(learning_rate=0.01, epochs=0, batch_size=1)
    result = train(model, [("a1", "a1")], [("a1", "a1")], cfg)
    assert [step for step, _ in result.valid_losses] == [0]
    assert result.best.step == 0
    np.testing.assert_array_equal(before, model.parameters_flat())
    np.testing.assert_array_equal(before, result.best.params.flat)


def test_train_requires_validation_data():
    model = _model()
    cfg = OptimizerConfig(learning_rate=0.01, epochs=1, batch_size=1)
    with pytest.raises(ModelError):
        train(model, [("a1", "a1")], [], cfg)


def test_divergence_tripwire():
    model = _model()
    model.params["W_out"][:] = np.nan
    cfg = OptimizerConfig(learning_rate=0.01, epochs=1, batch_size=1)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, [("a1", "a1")], [("a1", "a1")], cfg)
    assert err.value.step == 0


def test_evaluate_nll_matches_forward():
    model = _model()
    data = [("a1 a2", "a2"), ("b1", "b1 b2")]
    cfg = OptimizerConfig(learning_rate=0.01, epochs=1, batch_size=2)
    loss = evaluate_nll(model, data, cfg)
    batch = make_training_batch(model.vocabulary, data, max_length=16)
    assert loss == pytest.approx(model.nll(batch))


# -- checkpoint selection --------------------------------------------------


def _scripted_train(monkeypatch, model, losses, steps_per_epoch=1):
    """``train`` with ``evaluate_nll`` returning ``losses`` in turn, one
    evaluation per epoch of ``steps_per_epoch`` zero-gradient steps; returns
    the result and the number of snapshots taken."""
    scripted = iter(losses)
    monkeypatch.setattr("crossdial.model.evaluate_nll", lambda *_: next(scripted))
    zero = SimpleNamespace(flat=np.zeros_like(model.params.flat))
    monkeypatch.setattr(model, "loss_and_grads", lambda batch: (1.0, zero))
    snapshots = []
    take = type(model).snapshot
    monkeypatch.setattr(model, "snapshot", lambda: snapshots.append(None) or take(model))
    cfg = OptimizerConfig(learning_rate=0.01, epochs=len(losses) - 1, batch_size=1)
    result = train(model, [("a1", "a1")] * steps_per_epoch, [("a1", "a1")], cfg)
    assert [loss for _, loss in result.valid_losses] == list(losses)
    return result, len(snapshots)


def test_train_best_earliest_tie(monkeypatch):
    result, snapshots = _scripted_train(monkeypatch, _model(), [2.0, 1.5, 1.5, 1.7], steps_per_epoch=5)
    assert [step for step, _ in result.valid_losses] == [0, 5, 10, 15]
    assert (result.best.step, result.best.valid_loss) == (5, 1.5)
    assert snapshots == 2


def test_train_best_matches_exhaustive_scan(monkeypatch):
    rng = np.random.default_rng(42)
    model = _model()
    for _ in range(200):
        n = int(rng.integers(1, 30))
        losses = [float(x) for x in rng.choice([0.5, 1.0, 1.5, 2.0], size=n)]  # coarse grid forces ties
        result, snapshots = _scripted_train(monkeypatch, model, losses)
        # exhaustive scan: strictly better loss, or equal loss at earlier step
        expected = result.valid_losses[0]
        for step, loss in result.valid_losses[1:]:
            if loss < expected[1] or (loss == expected[1] and step < expected[0]):
                expected = (step, loss)
        assert (result.best.step, result.best.valid_loss) == expected
        # one snapshot per new strict best
        assert snapshots == sum(loss < min(losses[:i], default=math.inf) for i, loss in enumerate(losses))


def test_train_snapshots_once_without_improvement(monkeypatch):
    result, snapshots = _scripted_train(monkeypatch, _model(), [1.0, 1.0, 2.0, 3.0])
    assert (result.best.step, snapshots) == (0, 1)


def test_train_best_is_a_copy_of_its_step(monkeypatch):
    # a learning rate high enough that the valid loss rises after its best step
    model = _model()
    data = [("a1 a2 a3 a4", "a4 a3 a2"), ("b1 b2", "b3 b1 b2")]
    cfg = OptimizerConfig(learning_rate=0.2, epochs=4, batch_size=1)
    taken = []
    take = type(model).snapshot
    monkeypatch.setattr(model, "snapshot", lambda: taken.append(model.parameters_flat()) or take(model))
    result = train(model, data, data, cfg)
    best = result.best
    assert 0 < best.step < result.valid_losses[-1][0]
    assert result.valid_losses[-1][1] > best.valid_loss
    assert not np.shares_memory(best.params.flat, model.params.flat)
    assert not np.array_equal(best.params.flat, model.params.flat)
    np.testing.assert_array_equal(best.params.flat, taken[-1])  # untouched by the later steps
    model.load_snapshot(best.params)
    assert evaluate_nll(model, data, cfg) == best.valid_loss


# -- generation ------------------------------------------------------------


def test_greedy_deterministic_and_distributions_normalized():
    model = _model()
    out1 = generate_greedy(model, "a1 a2 a3", max_length=8)
    out2 = generate_greedy(model, "a1 a2 a3", max_length=8)
    assert out1.text == out2.text
    assert out1.token_ids == out2.token_ids
    for dist in out1.distributions:
        assert dist.shape == (len(model.vocabulary),)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_greedy_respects_max_length():
    model = _model()
    out = generate_greedy(model, "a1 a2", max_length=3)
    assert len(out.token_ids) <= 3


def test_greedy_max_length_bounds_the_output_not_the_source():
    # a prompted source ends with its sentinel frame, which a short budget must not cut off
    model = _model()
    model.params["b_out"][EOS_ID] = -50.0  # no early stop: each run takes max_length steps
    source = "a1 a2 a3 a4 b1 b2"
    full = generate_greedy(model, source, max_length=16)
    for k in (1, 3, 5):
        short = generate_greedy(model, source, max_length=k)
        assert [d.tobytes() for d in short.distributions] == [d.tobytes() for d in full.distributions[:k]]


@pytest.mark.parametrize("hidden", [1, 7, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_teacher_forcing_on_greedy_ids_reproduces_its_distributions(seed, hidden):
    # both paths run one decoder: fed greedy's own ids (not its text, which drops
    # any <pad>/<bos> an untrained model emits), forward yields greedy's softmax
    model = _model(hid=hidden, seed=seed)
    vocab = model.vocabulary
    rng = np.random.default_rng(seed)
    for _ in range(20):
        source = " ".join(rng.choice(vocab.tokens[4:], size=int(rng.integers(1, 13))))
        for max_length in (1, 5, 30):
            out = generate_greedy(model, source, max_length=max_length)
            assert len(out.distributions) - len(out.token_ids) in (0, 1)  # 1: stopped at <eos>
            _, cache = model.forward(batch_from_encoded([(vocab.encode(source), list(out.token_ids))]))
            # the readout inputs [s_t; c_t], rebuilt from the cache, which keeps no softmax
            o = np.concatenate([cache.states[1:], cache.x[..., model.config.embedding_size :]], axis=-1)
            forced = model._readout(o)[: len(out.distributions), 0]
            assert [d.tobytes() for d in forced] == [d.tobytes() for d in out.distributions]


@pytest.mark.parametrize("max_length", [0, -3])
def test_greedy_rejects_non_positive_max_length(max_length):
    with pytest.raises(ModelError, match="max_length"):
        generate_greedy(_model(), "a1 a2", max_length=max_length)


def test_generate_corpus_order():
    model = _model()
    sources = ["a1 a2", "b1 b2", "a1 a2"]
    outs = generate_corpus(model, sources, max_length=5)
    assert len(outs) == 3
    assert outs[0] == outs[2]  # same source, same greedy output


# -- serialization ---------------------------------------------------------


def test_save_load_bit_exact(tmp_path):
    model = _model(seed=9)
    path = tmp_path / "m.model"
    save_model(model, path)
    back = load_model(path)
    assert back.vocabulary.tokens == model.vocabulary.tokens
    assert back.config == model.config
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name]), name
    # behavior identical
    b = _batch(model)
    assert back.nll(b) == model.nll(b)


def test_save_is_byte_stable(tmp_path):
    model = _model(seed=9)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_writes_the_layout_and_one_vector(tmp_path):
    model = _model(seed=9)
    path = tmp_path / "m.model"
    save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(payload) == ["config", "format", "layout", "params", "vocabulary"]
    assert isinstance(payload["params"], str)
    assert [(name, tuple(shape)) for name, shape in payload["layout"]] == list(model.params.layout)


def test_load_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ModelError):
        load_model(path)


# -- span-corruption pretraining -------------------------------------------

_SENTINELS = ("<extra_id_0>", "<extra_id_1>")


def _tiny_bundle(seed=0):
    spec = SyntheticSpec(
        vocab_size_per_language=12,
        n_train_aux=24,
        n_fewshot_tgt=4,
        n_valid=8,
        n_test=8,
        template_count=2,
        seed=seed,
    )
    return generate_synthetic_bilingual(spec)


def test_pretrain_improves_denoising_loss():
    bundle = _tiny_bundle()
    vocab = Vocabulary.build([bundle.aux_train, bundle.tgt_valid], extra_texts=_SENTINELS)
    model = AttentiveSeq2Seq(vocab, ModelConfig(embedding_size=12, hidden_size=16, seed=0))
    cfg = OptimizerConfig(learning_rate=5e-3, epochs=4, batch_size=8)
    result = pretrain_span_corruption(model, [bundle.aux_train, bundle.tgt_valid], cfg, seed=0)
    losses = [loss for _, loss in result.valid_losses]
    assert losses[-1] < losses[0]


def test_pretrain_single_language_stays_in_language():
    # control: pretraining on one language only must keep generations legal
    bundle = _tiny_bundle()
    vocab = Vocabulary.build([bundle.aux_train], extra_texts=_SENTINELS)
    model = AttentiveSeq2Seq(vocab, ModelConfig(embedding_size=12, hidden_size=16, seed=1))
    cfg = OptimizerConfig(learning_rate=8e-3, epochs=10, batch_size=8)
    pretrain_span_corruption(model, [bundle.aux_train], cfg, seed=1)
    sources = [p.context for p in bundle.aux_test.pairs[:8]]
    outs = generate_corpus(model, sources, max_length=16)
    outs = [o for o in outs if o.strip()]
    assert outs, "model generated nothing"
    legal = language_legality(outs, frozenset(bundle.aux_vocabulary) | set(_SENTINELS))
    assert legal.legality == 100.0


def test_pretrain_deterministic():
    bundle = _tiny_bundle()
    cfg = OptimizerConfig(learning_rate=5e-3, epochs=2, batch_size=8)

    def run():
        vocab = Vocabulary.build([bundle.aux_train], extra_texts=_SENTINELS)
        model = AttentiveSeq2Seq(vocab, ModelConfig(embedding_size=12, hidden_size=16, seed=2))
        pretrain_span_corruption(model, [bundle.aux_train], cfg, seed=7)
        return model.parameters_flat()

    np.testing.assert_array_equal(run(), run())


def test_pretrain_rejects_negative_seed():
    cfg = OptimizerConfig(learning_rate=5e-3, epochs=1, batch_size=8)
    with pytest.raises(ModelError, match="seed must be >= 0, got -1"):
        pretrain_span_corruption(_model(extra=_SENTINELS), [_tiny_bundle().aux_train], cfg, seed=-1)


def _texts_of(n_tokens: int) -> Corpus:
    # each raw text is "context response", n_tokens long in all
    pairs = tuple(DialoguePair(" ".join(f"a{i + j}" for j in range(n_tokens - 1)), "a4", "aa") for i in range(1, 4))
    return Corpus(pairs=pairs, language="aa")


def test_pretrain_on_texts_under_four_tokens_names_the_length():
    # the fixed 15% rate masks int(0.15 * n + 0.5) tokens: none for n <= 3
    cfg = OptimizerConfig(learning_rate=5e-3, epochs=1, batch_size=2)
    with pytest.raises(ModelError, match="^span corruption masked no validation text: at the fixed 15% rate "
                                         "a text needs at least 4 tokens$"):
        pretrain_span_corruption(_model(extra=_SENTINELS), [_texts_of(3)], cfg, seed=0)
    result = pretrain_span_corruption(_model(extra=_SENTINELS), [_texts_of(4)], cfg, seed=0)
    assert result.train_losses


def test_pretrain_message_follows_the_corruption_rate(monkeypatch):
    # at 5% corrupt_spans masks int(0.05 * n + 0.5) tokens: none for n <= 9
    monkeypatch.setattr(prompting, "CORRUPTION_RATE", 0.05)
    cfg = OptimizerConfig(learning_rate=5e-3, epochs=1, batch_size=2)
    with pytest.raises(ModelError, match="at the fixed 5% rate a text needs at least 10 tokens$"):
        pretrain_span_corruption(_model(extra=_SENTINELS), [_texts_of(9)], cfg, seed=0)
    assert pretrain_span_corruption(_model(extra=_SENTINELS), [_texts_of(10)], cfg, seed=0).train_losses
