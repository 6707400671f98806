"""The model as first written: the one reference of every bit-exactness test.

The two-branch sigmoid, the per-gate GRU step and its backward, the
per-array Adam step, and ``PerStep``: the per-step ``forward``/``backward``/
``generate_greedy`` on that per-gate step, which runs the readout, softmax,
loss and their grads inside the decoder loop, and the encoder's input
projection and input grads inside the encoder loop.  The gate-major,
flat-vector, time-major model must reproduce them bit for bit (the same
loss ``repr``, the same gradient and weight bytes), not to a tolerance, so
that every trained weight, model file and study result stays as it was.
Parameters and grads are read by name (``p["dec_Wz"]``), as the original
per-array code held them; nothing here imports a private name of
``crossdial.model``.
"""

import numpy as np

from crossdial.model import BOS_ID, EOS_ID


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_forward(p, x, h_prev, prefix, mask_col):
    az = x @ p[prefix + "Wz"] + h_prev @ p[prefix + "Uz"] + p[prefix + "bz"]
    z = sigmoid(az)
    ar = x @ p[prefix + "Wr"] + h_prev @ p[prefix + "Ur"] + p[prefix + "br"]
    r = sigmoid(ar)
    rh = r * h_prev
    an = x @ p[prefix + "Wn"] + rh @ p[prefix + "Un"] + p[prefix + "bn"]
    n = np.tanh(an)
    h_new = (1.0 - z) * n + z * h_prev
    h = mask_col * h_new + (1.0 - mask_col) * h_prev
    return h, (x, h_prev, z, r, n, rh, mask_col)


def gru_backward(p, dh, cache, prefix, grads):
    """Adds the step's parameter grads into ``grads``; returns (dx, dh_prev)."""
    x, h_prev, z, r, n, rh, mask_col = cache
    dh_new = dh * mask_col
    dh_prev = dh * (1.0 - mask_col)
    dz = dh_new * (h_prev - n)
    dn = dh_new * (1.0 - z)
    dh_prev = dh_prev + dh_new * z
    dan = dn * (1.0 - n * n)
    grads[prefix + "Wn"] += x.T @ dan
    grads[prefix + "Un"] += rh.T @ dan
    grads[prefix + "bn"] += dan.sum(axis=0)
    drh = dan @ p[prefix + "Un"].T
    dh_prev = dh_prev + drh * r
    dr = drh * h_prev
    dx = dan @ p[prefix + "Wn"].T
    daz = dz * z * (1.0 - z)
    grads[prefix + "Wz"] += x.T @ daz
    grads[prefix + "Uz"] += h_prev.T @ daz
    grads[prefix + "bz"] += daz.sum(axis=0)
    dx += daz @ p[prefix + "Wz"].T
    dh_prev = dh_prev + daz @ p[prefix + "Uz"].T
    dar = dr * r * (1.0 - r)
    grads[prefix + "Wr"] += x.T @ dar
    grads[prefix + "Ur"] += h_prev.T @ dar
    grads[prefix + "br"] += dar.sum(axis=0)
    dx += dar @ p[prefix + "Wr"].T
    dh_prev = dh_prev + dar @ p[prefix + "Ur"].T
    return dx, dh_prev


def adamw_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, param in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        param -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)


class PerStep:
    """The per-step passes, reading the model's parameters."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.params = model.params

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
            h, cache = gru_forward(p, src_emb[:, t], h, "enc_", src_mask[:, t : t + 1])
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
            s, gru_cache = gru_forward(p, x, s_prev, "dec_", batch.tgt_mask[:, t : t + 1])
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
        """The grads by name, in the model's parameter order."""
        p = self.params
        enc_caches, enc_out, enc_proj, h_last, s0, dec_steps = cache
        token_count = batch.token_count
        n, s_len = batch.src.shape
        t_len = batch.tgt_in.shape[1]
        h = self.config.hidden_size
        d = self.config.embedding_size
        rows = np.arange(n)
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
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
            dx, ds_prev = gru_backward(p, ds, gru_cache, "dec_", grads)
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
            dx, dh = gru_backward(p, denc[:, t] + dh, enc_caches[t], "enc_", grads)
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
            s, _ = gru_forward(p, x, s, "dec_", live)
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
