"""Teacher-forced passes over time-major stacks: bit-exactness against the per-step code.

``_PerStep`` below is the per-step ``forward``/``backward``/``generate_greedy``
that the batched passes replaced: it runs the readout, softmax, loss and
their grads inside the decoder loop, and the encoder's input projection and
input grads inside the encoder loop.  The model must reproduce it bit for
bit (the same loss ``repr``, the same gradient bytes), not to a tolerance,
so that every trained weight, model file and study result stays as it was.
"""

import numpy as np
import pytest

from crossdial import model as model_module
from crossdial.model import (
    BOS_ID,
    CONTROL_TOKENS,
    EOS_ID,
    AttentiveSeq2Seq,
    ModelConfig,
    ModelError,
    Vocabulary,
    _sigmoid,
    generate_greedy,
    make_training_batch,
)

TOKENS = tuple(f"w{i}" for i in range(40))


def _vocab():
    return Vocabulary(("<pad>", "<bos>", "<eos>", "<unk>") + TOKENS)


class _PerStep:
    """The per-step passes, reading the model's parameters."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.params = model.params
        self._gru_params = self._gate_views(model.params)

    def _gate_views(self, views):
        out = {}
        for prefix in ("enc_", "dec_"):
            stacked = []
            for kind in "WUb":
                start, _ = views.spans[f"{prefix}{kind}z"]
                _, stop = views.spans[f"{prefix}{kind}n"]
                stacked.append(views.flat[start:stop].reshape((3,) + views[f"{prefix}{kind}z"].shape))
            out[prefix] = tuple(stacked)
        return out

    def _gru_forward(self, x, h_prev, prefix, mask_col):
        W, U, b = self._gru_params[prefix]
        xw = x @ W
        zr = _sigmoid(xw[:2] + h_prev @ U[:2] + b[:2, None])
        z, r = zr
        rh = r * h_prev
        n = np.tanh(xw[2] + rh @ U[2] + b[2])
        h_new = (1.0 - z) * n + z * h_prev
        h = mask_col * h_new + (1.0 - mask_col) * h_prev
        return h, (x, h_prev, zr, n, rh, mask_col)

    def _gru_backward(self, dh, cache, prefix, gate_grads):
        W, U, _ = self._gru_params[prefix]
        gW, gU, gb = gate_grads
        x, h_prev, zr, n, rh, mask_col = cache
        z, r = zr
        da = np.empty((3,) + n.shape)
        dh_new = dh * mask_col
        dh_prev = dh * (1.0 - mask_col)
        np.multiply(dh_new, h_prev - n, out=da[0])
        dn = dh_new * (1.0 - z)
        dh_prev = dh_prev + dh_new * z
        dan = np.multiply(dn, 1.0 - n * n, out=da[2])
        drh = dan @ U[2].T
        dh_prev = dh_prev + drh * r
        np.multiply(drh, h_prev, out=da[1])
        dzr = da[:2]
        dzr *= zr
        dzr *= 1.0 - zr
        gW += x.T @ da
        gU[:2] += h_prev.T @ dzr
        gU[2] += rh.T @ dan
        gb += da.sum(axis=1)
        dxs = da @ W.transpose(0, 2, 1)
        dhs = dzr @ U[:2].transpose(0, 2, 1)
        dx = dxs[2] + dxs[0]
        dx += dxs[1]
        dh_prev = dh_prev + dhs[0]
        dh_prev = dh_prev + dhs[1]
        return dx, dh_prev

    def _attention_forward(self, s_prev, enc_proj, enc_out, src_mask):
        p = self.params
        q = s_prev @ p["A_dec"]
        u = np.tanh(enc_proj + q[:, None, :] + p["a_bias"])
        e = u @ p["a_v"]
        e = np.where(src_mask > 0, e, -1e30)
        e = e - e.max(axis=1, keepdims=True)
        w = np.exp(e) * src_mask
        alpha = w / w.sum(axis=1, keepdims=True)
        c = np.einsum("bs,bsh->bh", alpha, enc_out)
        return c, (s_prev, u, alpha)

    def _attention_backward(self, dc, att_cache, enc_out, grads):
        p = self.params
        s_prev, u, alpha = att_cache
        dalpha = np.einsum("bh,bsh->bs", dc, enc_out)
        denc = alpha[:, :, None] * dc[:, None, :]
        de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        grads["a_v"] += np.einsum("bsa,bs->a", u, de)
        dpre = de[:, :, None] * p["a_v"] * (1.0 - u * u)
        grads["a_bias"] += dpre.sum(axis=(0, 1))
        dq = dpre.sum(axis=1)
        grads["A_dec"] += s_prev.T @ dq
        ds_prev = dq @ p["A_dec"].T
        return ds_prev, denc, dpre

    def _run_encoder(self, src, src_mask):
        p = self.params
        n, s_len = src.shape
        h = np.zeros((n, self.config.hidden_size))
        enc_out = np.empty((n, s_len, self.config.hidden_size))
        caches = []
        src_emb = p["E"][src]
        for t in range(s_len):
            h, cache = self._gru_forward(src_emb[:, t], h, "enc_", src_mask[:, t : t + 1])
            caches.append(cache)
            enc_out[:, t] = h
        return enc_out, h, caches

    def forward(self, batch):
        p = self.params
        n = batch.src.shape[0]
        t_len = batch.tgt_in.shape[1]
        enc_out, h_last, enc_caches = self._run_encoder(batch.src, batch.src_mask)
        s0 = np.tanh(h_last @ p["W_s0"] + p["b_s0"])
        enc_proj = enc_out @ p["A_enc"]
        s = s0
        rows = np.arange(n)
        dec_steps = []
        total_nll = 0.0
        for t in range(t_len):
            emb = p["E"][batch.tgt_in[:, t]]
            s_prev = s
            c, att_cache = self._attention_forward(s_prev, enc_proj, enc_out, batch.src_mask)
            x = np.concatenate([emb, c], axis=1)
            s, gru_cache = self._gru_forward(x, s_prev, "dec_", batch.tgt_mask[:, t : t + 1])
            o = np.concatenate([s, c], axis=1)
            logits = o @ p["W_out"] + p["b_out"]
            logits -= logits.max(axis=1, keepdims=True)
            ex = np.exp(logits)
            probs = ex / ex.sum(axis=1, keepdims=True)
            picked = probs[rows, batch.tgt_out[:, t]]
            total_nll += float(-(np.log(np.maximum(picked, 1e-300)) * batch.tgt_mask[:, t]).sum())
            dec_steps.append((att_cache, gru_cache, o, probs))
        loss = total_nll / batch.token_count
        return loss, (enc_caches, enc_out, enc_proj, h_last, s0, dec_steps)

    def backward(self, batch, cache):
        p = self.params
        enc_caches, enc_out, enc_proj, h_last, s0, dec_steps = cache
        token_count = batch.token_count
        n, s_len = batch.src.shape
        t_len = batch.tgt_in.shape[1]
        h = self.config.hidden_size
        d = self.config.embedding_size
        rows = np.arange(n)
        grads = self.model.snapshot()
        grads.flat[...] = 0.0
        gate_grads = self._gate_views(grads)
        emb_ids = np.concatenate([batch.tgt_in[:, ::-1].T, batch.src[:, ::-1].T]).ravel()
        emb_rows = np.empty((t_len + s_len, n, d))
        ds_next = np.zeros((n, h))
        d_proj = np.zeros_like(enc_proj)
        denc = np.zeros_like(enc_out)
        for t in reversed(range(t_len)):
            att_cache, gru_cache, o, probs = dec_steps[t]
            dlogits = probs.copy()
            dlogits[rows, batch.tgt_out[:, t]] -= 1.0
            dlogits *= (batch.tgt_mask[:, t] / token_count)[:, None]
            grads["W_out"] += o.T @ dlogits
            grads["b_out"] += dlogits.sum(axis=0)
            do = dlogits @ p["W_out"].T
            ds = ds_next + do[:, :h]
            dc = do[:, h:].copy()
            dx, ds_prev = self._gru_backward(ds, gru_cache, "dec_", gate_grads["dec_"])
            emb_rows[t_len - 1 - t] = dx[:, :d]
            dc += dx[:, d:]
            ds_prev_att, denc_t, dpre = self._attention_backward(dc, att_cache, enc_out, grads)
            denc += denc_t
            d_proj += dpre
            ds_next = ds_prev + ds_prev_att
        da0 = ds_next * (1.0 - s0 * s0)
        grads["W_s0"] += h_last.T @ da0
        grads["b_s0"] += da0.sum(axis=0)
        dh = da0 @ p["W_s0"].T
        grads["A_enc"] += np.einsum("bsh,bsa->ha", enc_out, d_proj)
        denc += d_proj @ p["A_enc"].T
        for t in reversed(range(s_len)):
            dx, dh = self._gru_backward(denc[:, t] + dh, enc_caches[t], "enc_", gate_grads["enc_"])
            emb_rows[t_len + s_len - 1 - t] = dx
        np.add.at(grads["E"], emb_ids, emb_rows.reshape(-1, d))
        return grads

    def generate_greedy(self, source_text, max_length):
        p = self.params
        src_ids = self.model.vocabulary.encode(source_text)
        src = np.array([src_ids], dtype=np.int64)
        src_mask = np.ones((1, len(src_ids)))
        enc_out, h_last, _ = self._run_encoder(src, src_mask)
        s = np.tanh(h_last @ p["W_s0"] + p["b_s0"])
        enc_proj = enc_out @ p["A_enc"]
        live = np.ones((1, 1))
        prev = BOS_ID
        ids, dists = [], []
        for _ in range(max_length):
            emb = p["E"][np.array([prev])]
            c, _ = self._attention_forward(s, enc_proj, enc_out, src_mask)
            x = np.concatenate([emb, c], axis=1)
            s, _ = self._gru_forward(x, s, "dec_", live)
            o = np.concatenate([s, c], axis=1)
            logits = (o @ p["W_out"] + p["b_out"])[0]
            logits -= logits.max()
            ex = np.exp(logits)
            probs = ex / ex.sum()
            dists.append(probs)
            nxt = int(np.argmax(probs))
            if nxt == EOS_ID:
                break
            ids.append(nxt)
            prev = nxt
        return ids, dists


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
    ref = _PerStep(model)
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
    tokens = tuple(f"v{i}" for i in range(796))
    vocabulary = Vocabulary(CONTROL_TOKENS + tokens)
    rng = np.random.default_rng(20)
    pairs = [
        tuple(" ".join(rng.choice(tokens, size=int(rng.integers(low, high)))) for low, high in ((40, 52), (15, 27)))
        for _ in range(32)
    ]
    model = _model(5, vocabulary=vocabulary)
    batch = make_training_batch(vocabulary, pairs)
    assert batch.src.shape[0] == 32 and batch.src.shape[1] >= 48 and batch.tgt_in.shape[1] >= 24
    _assert_same_pass(model, batch)


def _chunk_sizes(model, batch):
    return [c.stop - c.start for c in model._readout_chunks(batch.tgt_in.shape[1], batch.src.shape[0])]


def test_readout_chunks_split_at_the_default_budget():
    # a (T, B, V) softmax over READOUT_CHUNK_BYTES runs in several chunks,
    # the last one short, and the pass stays the per-step code's to the bit
    tokens = tuple(f"v{i}" for i in range(796))
    vocabulary = Vocabulary(CONTROL_TOKENS + tokens)
    rng = np.random.default_rng(21)
    pairs = [(" ".join(rng.choice(tokens, size=20)), " ".join(rng.choice(tokens, size=22))) for _ in range(32)]
    model = _model(6, vocabulary=vocabulary)
    batch = make_training_batch(vocabulary, pairs)
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


def test_greedy_matches_per_step_code():
    model = _model(2)
    ref = _PerStep(model)
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
