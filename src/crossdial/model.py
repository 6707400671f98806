"""From-scratch attentive sequence-to-sequence model on numpy float64.

A small GRU encoder-decoder with additive attention, trained by manual
reverse-mode differentiation.  The backward pass is hand-written so it can
be audited against centered finite differences (``gradient_check``); with
float64 throughout, training and generation are bit-reproducible for a
fixed seed.

Layout of one forward pass:

    encoder   h_t   = GRU(E[src_t], h_{t-1})              (masked carry)
    init      s_0   = tanh(h_S W_s0 + b_s0)               (the last encoder state)
    attention e_t,i = v . tanh(enc_i A_enc + s_{t-1} A_dec + a_bias)
              c_t   = sum_i softmax(e_t)_i enc_i          (masked softmax)
    decoder   s_t   = GRU([E[y_{t-1}]; c_t], s_{t-1})     (masked carry)
    readout   logit = [s_t; c_t] W_out + b_out

The cross-entropy loss is the mean over non-pad target tokens.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

import numpy as np

from . import prompting
from .artifact import read_text, write_lines
from .corpus import Corpus, derive_token_vocabulary
from .prompting import DEFAULT_TEMPLATE, corrupt_spans

log = logging.getLogger(__name__)

CONTROL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

MODEL_FORMAT = "attentive-seq2seq-v2"

# the most softmax bytes one readout chunk of a teacher-forced pass holds
READOUT_CHUNK_BYTES = 1 << 20


class ModelError(ValueError):
    """Raised for invalid model configuration or inputs."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the optimizer step it happened at."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"training diverged at step {step} (loss={loss!r})")
        self.step = step
        self.loss = loss


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class Vocabulary:
    """Whitespace-token vocabulary with fixed control ids 0..3.

    Unknown tokens encode to ``<unk>``; decoding keeps ``<unk>`` visible
    (it is evidence, not padding) and drops pad/bos/eos.
    """

    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.tokens[: len(CONTROL_TOKENS)] != CONTROL_TOKENS:
            raise ModelError(f"vocabulary must start with the control tokens {CONTROL_TOKENS}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ModelError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(self.tokens)})

    @classmethod
    def build(cls, corpora: Iterable[Corpus], extra_texts: Iterable[str] = ()) -> "Vocabulary":
        """Collect every whitespace token in the corpora (plus any extra
        texts, e.g. prompt pieces), sorted for a deterministic id order."""
        seen = derive_token_vocabulary(corpora).union(*(text.split() for text in extra_texts))
        content = sorted(seen - set(CONTROL_TOKENS))
        if not content:
            raise ModelError("no tokens to build a vocabulary from")
        return cls(tokens=CONTROL_TOKENS + tuple(content))

    def encode(self, text: str) -> list[int]:
        index = self._index  # type: ignore[attr-defined]
        return [index.get(tok, UNK_ID) for tok in text.split()]

    def decode(self, ids: Iterable[int]) -> str:
        out = []
        for i in ids:
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            out.append(self.tokens[i])
        return " ".join(out)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ModelConfig:
    seed: int = 0
    embedding_size: int = 32
    hidden_size: int = 64  # also the additive-attention width

    def __post_init__(self):
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        if self.embedding_size < 1 or self.hidden_size < 1:
            raise ModelError("embedding_size and hidden_size must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    """A stage's budget: its Adam learning rate, epochs and batch size.
    ``max_length`` (64: the tokens that ``train`` and ``evaluate_nll`` keep
    of each text, not ``generate``'s output cap) is the same for every
    stage, so it is a class constant, not a key."""

    learning_rate: float
    epochs: int
    batch_size: int
    max_length: ClassVar[int] = 64

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ModelError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if self.epochs < 0:
            raise ModelError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# Batching


@dataclass(frozen=True)
class Batch:
    src: np.ndarray       # (B, S) int64, pad = 0
    src_mask: np.ndarray  # (B, S) float64 in {0, 1}
    tgt_in: np.ndarray    # (B, T) int64, starts with <bos>
    tgt_out: np.ndarray   # (B, T) int64, ends with <eos>
    tgt_mask: np.ndarray  # (B, T) float64 in {0, 1}

    @property
    def token_count(self) -> float:
        return float(self.tgt_mask.sum())


def encode_pairs(
    vocabulary: Vocabulary, data: Sequence[tuple[str, str]], max_length: int
) -> list[tuple[list[int], list[int]]]:
    encoded = []
    for source, target in data:
        src_ids = vocabulary.encode(source)[:max_length]
        if not src_ids:
            raise ModelError(f"empty source text {source!r}")
        tgt_ids = vocabulary.encode(target)[:max_length]
        encoded.append((src_ids, tgt_ids))
    return encoded


def batch_from_encoded(encoded: Sequence[tuple[list[int], list[int]]]) -> Batch:
    if not encoded:
        raise ModelError("cannot build an empty batch")
    n = len(encoded)
    s_len = max(len(src) for src, _ in encoded)
    t_len = max(len(tgt) for _, tgt in encoded) + 1  # room for <bos>/<eos>
    src = np.full((n, s_len), PAD_ID, dtype=np.int64)
    src_mask = np.zeros((n, s_len))
    tgt_in = np.full((n, t_len), PAD_ID, dtype=np.int64)
    tgt_out = np.full((n, t_len), PAD_ID, dtype=np.int64)
    tgt_mask = np.zeros((n, t_len))
    for i, (src_ids, tgt_ids) in enumerate(encoded):
        src[i, : len(src_ids)] = src_ids
        src_mask[i, : len(src_ids)] = 1.0
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : len(tgt_ids) + 1] = tgt_ids
        tgt_out[i, : len(tgt_ids)] = tgt_ids
        tgt_out[i, len(tgt_ids)] = EOS_ID
        tgt_mask[i, : len(tgt_ids) + 1] = 1.0
    return Batch(src, src_mask, tgt_in, tgt_out, tgt_mask)


def make_training_batch(
    vocabulary: Vocabulary, data: Sequence[tuple[str, str]], max_length: int = OptimizerConfig.max_length
) -> Batch:
    return batch_from_encoded(encode_pairs(vocabulary, data, max_length))


# ---------------------------------------------------------------------------
# Model


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exponentiates only -|x| <= 0, so it never overflows; bit for bit
    # 1/(1 + exp(-x)) for x >= 0 and exp(x)/(1 + exp(x)) below
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _normal(std: float):
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


class ParamViews(dict):
    """Named, shaped views into one flat float64 vector, kept as ``flat``.

    ``layout`` lists each entry's name and shape in vector order (a vector
    of another size raises ``ModelError`` before any view is made), and
    ``spans`` each entry's half-open [start, stop) in ``flat``.  Writing
    through an entry writes the vector; rebinding an entry detaches it, so
    fill entries in place (``views[name][...] = arr``).

    Each GRU's z, r, n entries of one kind sit next to each other, so
    ``gates(prefix)`` views the same memory gate-major as ``(3, in, h)`` /
    ``(3, h, h)`` / ``(3, h)``, for one stacked matmul per step.
    """

    def __init__(self, flat: np.ndarray, layout: Sequence[tuple[str, tuple[int, ...]]]):
        sizes = [math.prod(shape) for _, shape in layout]
        if flat.shape != (sum(sizes),):
            raise ModelError(f"a vector of shape {flat.shape} does not fit a layout of {sum(sizes)} values")
        super().__init__()
        self.flat = flat
        self.layout = tuple(layout)
        self.spans = {}
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            self.spans[name] = (offset, offset + size)
            self[name] = flat[offset : offset + size].reshape(shape)
            offset += size

    def gates(self, prefix: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The GRU ``prefix``'s gate-major (W, U, b) views over its z, r, n entries."""
        views = []
        for kind in "WUb":
            first, last = f"{prefix}{kind}z", f"{prefix}{kind}n"
            views.append(self.flat[self.spans[first][0] : self.spans[last][1]].reshape((3,) + self[first].shape))
        return tuple(views)


@dataclass
class _ForwardCache:
    """What ``backward`` needs from one ``forward``; ``backward`` consumes it.

    ``forward`` already turned the softmax into the readout's grads, chunk
    by chunk, so the cache holds no (T, B, V) array: ``grads`` is the
    gradient vector with W_out's and b_out's grads in place, and ``do`` the
    (T, B, 2h) grad of the readout inputs [s_t; c_t].  The other time-major
    buffers hold every decoder step: ``states[t]`` is the state entering
    step t (``states[0]`` is s_0) and ``x[t]`` the GRU input
    [E[y_{t-1}]; c_t].  Every GRU step keeps one record, its gates ``zr``
    and candidate ``n``: ``enc_steps`` holds the encoder's and ``dec_steps``
    ``(alpha, zr, n)``, with the attention weights ``alpha`` (B, S).
    ``backward`` re-reads a step's ``h_prev`` (``states[t]``, or a fresh copy
    of an ``enc_out`` column), input (``x[t]`` or ``E[src]``) and mask
    columns (the batch's), and recomputes the attention query ``q =
    states[t] A_dec``, from it the step's (B, S, a) activations
    ``tanh(enc_proj + q + a_bias)``, and the GRU's ``r * h_prev`` with the
    forward's own operations on the same operands.  It drops each buffer at
    its last use: a step's record with the step; ``do``, ``states``, ``x``,
    ``enc_proj`` and the attention scratch after the decoder loop; the keys'
    grad once added into ``enc_out``'s; ``enc_out`` with the encoder loop.
    """

    batch: Batch
    enc_steps: list  # (zr, n) per encoder step
    enc_out: np.ndarray | None
    enc_proj: np.ndarray | None  # (B, S, a), the attention keys enc_out A_enc
    states: np.ndarray | None
    x: np.ndarray | None
    do: np.ndarray | None
    grads: ParamViews | None
    dec_steps: list | None  # (alpha, zr, n) per step; None once consumed


def _step_masks(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step (B, 1) mask columns of a (B, L) mask and their complements,
    the GRU's state carry over pads, as (L, B, 1) stacks."""
    cols = mask.T[:, :, None]
    return cols, 1.0 - cols


class AttentiveSeq2Seq:
    """GRU encoder-decoder with additive attention.

    All parameters live in one float64 vector; ``params`` holds named views
    into it (``params.flat`` is the vector), so they can be snapshotted,
    stepped and probed component-wise.  ``params`` owns the layout and the
    GRUs' gate-major views (see ``ParamViews``).

    Under teacher forcing only attention and the GRU recur, so ``forward``
    and ``backward`` run everything else (embedding lookups, the encoder's
    input projections, the readout, softmax and loss, and their grads) once
    per batch over time-major stacks.  A stacked matmul makes the same BLAS
    call per time slice as the per-step code did, so every result stays bit
    for bit as it was; a flattened ``(T*B, K)`` product would not.
    Greedy decoding runs the same ``_run_encoder``, ``_decoder_step`` and
    ``_readout`` one token at a time.

    The (T, B, V) softmax is never held whole: ``forward`` runs the readout
    over time chunks of at most ``READOUT_CHUNK_BYTES``, last chunk first,
    and turns each chunk's softmax into its logit grads straight away,
    adding W_out's and b_out's grads step by step from the last step back,
    the order a whole-batch backward adds them in.  A chunk slice makes the
    same BLAS call as the stacked slice and each softmax row is normalised
    on its own, so the chunking is exact.  Attention's (B, S, a) activations
    are not kept per decoder step: each pass writes them into one scratch
    array it allocates, and ``backward`` recomputes them (see
    ``_ForwardCache``).  A recomputation repeats the forward's operations on
    the same operands, so it is exact too.  A GRU step keeps only its ``(zr,
    n)``: ``backward`` re-reads the rest from the pass's buffers and drops
    each buffer at its last use (see ``_ForwardCache``).  ``nll`` runs the
    same ``forward`` without the step records and the readout grads.
    """

    def __init__(self, vocabulary: Vocabulary, config: ModelConfig = ModelConfig()):
        self.vocabulary = vocabulary
        self.config = config
        v = len(vocabulary)
        d = config.embedding_size
        h = config.hidden_size
        a = h
        rng = np.random.default_rng(config.seed)
        specs = [("E", (v, d), _normal(0.1))]
        for prefix, in_dim in (("enc_", d), ("dec_", d + h)):
            specs += [(f"{prefix}W{gate}", (in_dim, h), _glorot) for gate in "zrn"]
            specs += [(f"{prefix}U{gate}", (h, h), _glorot) for gate in "zrn"]
            specs += [(f"{prefix}b{gate}", (h,), None) for gate in "zrn"]
        specs += [
            ("W_s0", (h, h), _glorot),
            ("b_s0", (h,), None),
            ("A_enc", (h, a), _glorot),
            ("A_dec", (h, a), _glorot),
            ("a_bias", (a,), None),
            ("a_v", (a,), _normal(1.0 / math.sqrt(a))),
            ("W_out", (2 * h, v), _glorot),
            ("b_out", (v,), None),
        ]
        layout = tuple((name, shape) for name, shape, _ in specs)
        self.params = ParamViews(np.zeros(sum(math.prod(shape) for _, shape in layout)), layout)
        for name, shape, init in specs:  # draws in this order; None stays zero
            if init is not None:
                self.params[name][...] = init(rng, shape)
        self._gru_params = {prefix: self.params.gates(prefix) for prefix in ("enc_", "dec_")}

    # -- bookkeeping ---------------------------------------------------

    def parameters_flat(self) -> np.ndarray:
        return self.params.flat.copy()

    def snapshot(self) -> ParamViews:
        return ParamViews(self.params.flat.copy(), self.params.layout)

    def load_snapshot(self, snapshot: ParamViews) -> None:
        """Restore a ``snapshot()``, a checkpoint or a model file's vector; one of
        another layout is refused, naming its first differing entry, before anything is written."""
        if snapshot.layout != self.params.layout:
            theirs, ours = next(pair for pair in itertools.zip_longest(snapshot.layout, self.params.layout)
                                if pair[0] != pair[1])
            raise ModelError(f"parameter layout has {theirs} where the model has {ours}")
        self.params.flat[...] = snapshot.flat

    # -- building blocks -----------------------------------------------

    def _gru_forward(self, xw, h_prev, prefix, mask_col, carry_col):
        """One GRU step from its input projections ``xw = x @ W``, (3, B, h)."""
        _, U, b = self._gru_params[prefix]
        zr = _sigmoid(xw[:2] + h_prev @ U[:2] + b[:2, None])
        z, r = zr
        rh = r * h_prev
        n = np.tanh(xw[2] + rh @ U[2] + b[2])
        h_new = (1.0 - z) * n + z * h_prev
        h = mask_col * h_new + carry_col * h_prev  # carry state over pads
        return h, (zr, n)

    def _gru_backward(self, dh, x, h_prev, step, prefix, mask_col, carry_col, gate_grads, da):
        """Backprop one GRU step into ``gate_grads``; returns (dh_prev, dx).

        ``step`` is ``_gru_forward``'s ``(zr, n)``; the caller re-reads ``x``,
        ``h_prev`` and the masks.  ``da`` (3, B, h) is gate-grad scratch.
        """
        W, U, _ = self._gru_params[prefix]
        gW, gU, gb = gate_grads
        zr, n = step
        z, r = zr
        dh_new = dh * mask_col
        dh_prev = dh * carry_col
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
        gU[2] += (r * h_prev).T @ dan
        gb += da.sum(axis=1)
        dhs = dzr @ U[:2].transpose(0, 2, 1)
        dh_prev = dh_prev + dhs[0]
        dh_prev = dh_prev + dhs[1]
        dxs = da @ W.transpose(0, 2, 1)
        # summed in the per-gate order n, z, r, so every bit stays as it was
        dx = dxs[2] + dxs[0]
        dx += dxs[1]
        return dh_prev, dx

    def _attention_activations(self, q, enc_proj, u):
        """u = tanh(enc_proj + q + a_bias), written into ``u`` (B, S, a)."""
        np.add(enc_proj, q[:, None, :], out=u)
        u += self.params["a_bias"]
        return np.tanh(u, out=u)

    def _attention_forward(self, s_prev, enc_proj, enc_out, live, u):
        """``live`` is ``src_mask > 0``, computed once per batch; ``u`` is the
        (B, S, a) scratch for the step's activations."""
        p = self.params
        q = s_prev @ p["A_dec"]
        e = self._attention_activations(q, enc_proj, u) @ p["a_v"]
        e = np.where(live, e, -1e30)  # pads never win the softmax, and exp(-1e30 - max) is 0.0
        e = e - e.max(axis=1, keepdims=True)
        w = np.exp(e)
        alpha = w / w.sum(axis=1, keepdims=True)
        c = np.einsum("bs,bsh->bh", alpha, enc_out)
        return c, alpha

    def _attention_backward(self, dc, s_prev, alpha, memory, grads, dq):
        """Adds the step's grads into ``grads``, ``denc`` and ``d_proj`` and
        returns ds_prev.  ``memory`` is (enc_proj, enc_out, denc, d_proj, u,
        work): ``u`` and ``work`` are (B, S, a) scratch, ``dq`` (B, a)."""
        p = self.params
        q = s_prev @ p["A_dec"]
        enc_proj, enc_out, denc, d_proj, u, work = memory
        dalpha = np.einsum("bh,bsh->bs", dc, enc_out)
        # einsum outer products: one product per element, as np.multiply, but +0.0 where it gives -0.0
        denc += np.einsum("bs,bh->bsh", alpha, dc, out=work)
        de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        self._attention_activations(q, enc_proj, u)
        grads["a_v"] += np.einsum("bsa,bs->a", u, de)
        np.multiply(u, u, out=u)
        np.subtract(1.0, u, out=u)  # 1 - u*u
        dpre = np.einsum("bs,a->bsa", de, p["a_v"], out=work)
        dpre *= u
        grads["a_bias"] += dpre.sum(axis=(0, 1))
        dpre.sum(axis=1, out=dq)
        d_proj += dpre
        grads["A_dec"] += s_prev.T @ dq
        return dq @ p["A_dec"].T

    def _run_encoder(self, src, src_mask, caches=None):
        """The encoder and the decoder's prologue: ``enc_out``, ``s_0`` and
        the attention keys ``enc_proj = enc_out A_enc``.  Each step's
        ``(zr, n)`` is appended to ``caches`` when it is a list."""
        p = self.params
        n, s_len = src.shape
        h = np.zeros((n, self.config.hidden_size))
        enc_out = np.empty((n, s_len, self.config.hidden_size))
        src_emb = p["E"][src.T]  # (S, B, d), time-major
        xw = src_emb[:, None] @ self._gru_params["enc_"][0]  # (S, 3, B, h): every step's input projections
        mask_cols, carry_cols = _step_masks(src_mask)
        for t in range(s_len):
            h, step = self._gru_forward(xw[t], h, "enc_", mask_cols[t], carry_cols[t])
            if caches is not None:
                caches.append(step)
            enc_out[:, t] = h
        s0 = np.tanh(h @ p["W_s0"] + p["b_s0"])
        return enc_out, s0, enc_out @ p["A_enc"]

    def _decoder_step(self, s_prev, x, o, memory, mask_col, carry_col):
        """One decoder step at B rows.  ``x`` (B, d+h) holds E[y_{t-1}] in its
        first d columns; the step writes c_t after them and [s_t; c_t] into
        ``o`` (B, 2h).  ``memory`` is (enc_proj, enc_out, live, u) with ``u``
        the attention scratch.  Returns s_t and the step's (alpha, zr, n)."""
        d, h = self.config.embedding_size, self.config.hidden_size
        c, alpha = self._attention_forward(s_prev, *memory)
        x[:, d:] = c
        s, (zr, n) = self._gru_forward(x @ self._gru_params["dec_"][0], s_prev, "dec_", mask_col, carry_col)
        o[:, :h] = s
        o[:, h:] = c
        return s, (alpha, zr, n)

    def _readout(self, o):
        """The softmax over the vocabulary for readout inputs ``o`` (..., 2h),
        normalised in place along the last axis."""
        p = self.params
        probs = o @ p["W_out"]
        probs += p["b_out"]
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    def _readout_chunks(self, t_len: int, n: int) -> list[slice]:
        """Time slices of at most ``READOUT_CHUNK_BYTES`` of softmax (at least
        one step each), in the order ``forward`` runs them: last first."""
        per = max(1, READOUT_CHUNK_BYTES // (n * len(self.vocabulary) * 8))
        return [slice(start, min(start + per, t_len)) for start in reversed(range(0, t_len, per))]

    # -- loss ------------------------------------------------------------

    def forward(self, batch: Batch, *, backprop: bool = True) -> tuple[float, _ForwardCache | None]:
        """The mean token NLL and, with ``backprop``, the cache ``backward``
        takes; without it no step cache or grad is kept and the cache is None."""
        p = self.params
        n = batch.src.shape[0]
        t_len = batch.tgt_in.shape[1]
        d, h = self.config.embedding_size, self.config.hidden_size
        token_count = batch.token_count
        if token_count <= 0:
            raise ModelError("batch has no target tokens")
        if (batch.src_mask.sum(axis=1) < 1).any():
            raise ModelError("batch has a row with an empty source")

        enc_steps = [] if backprop else None
        enc_out, s0, enc_proj = self._run_encoder(batch.src, batch.src_mask, enc_steps)
        memory = (enc_proj, enc_out, batch.src_mask > 0, np.empty_like(enc_proj))
        mask_cols, carry_cols = _step_masks(batch.tgt_mask)

        states = np.empty((t_len + 1, n, h))
        states[0] = s0
        x = np.empty((t_len, n, d + h))
        x[:, :, :d] = p["E"][batch.tgt_in.T]
        o = np.empty((t_len, n, 2 * h))
        dec_steps = [] if backprop else None
        for t in range(t_len):
            s, step = self._decoder_step(states[t], x[t], o[t], memory, mask_cols[t], carry_cols[t])
            states[t + 1] = s
            if backprop:
                dec_steps.append(step)
        del memory  # frees the attention scratch before the readout's chunks

        rows = np.arange(n)
        tgt_out = batch.tgt_out.T
        # a C-contiguous (T, B) mask keeps each step's sum as the per-step code summed it
        tgt_mask = np.ascontiguousarray(batch.tgt_mask.T)
        step_nll = np.empty(t_len)
        if backprop:
            grads = ParamViews(np.zeros_like(p.flat), p.layout)
            do = np.empty_like(o)
        for chunk in self._readout_chunks(t_len, n):
            probs = self._readout(o[chunk])
            picked = (np.arange(probs.shape[0])[:, None], rows, tgt_out[chunk])
            step_nll[chunk] = -(np.log(np.maximum(probs[picked], 1e-300)) * tgt_mask[chunk]).sum(axis=1)
            if not backprop:
                continue
            dlogits = probs  # the softmax becomes the logit grads in place
            dlogits[picked] -= 1.0
            dlogits *= (tgt_mask[chunk] / token_count)[:, :, None]
            b_out_steps = dlogits.sum(axis=1)  # (steps, V); V > 1, so each step's rows add in order
            for i in reversed(range(len(dlogits))):
                grads["W_out"] += o[chunk.start + i].T @ dlogits[i]
                grads["b_out"] += b_out_steps[i]
            np.matmul(dlogits, p["W_out"].T, out=do[chunk])
        # the steps are added in order, without sum()'s compensation
        total_nll = 0.0
        for nll in step_nll.tolist():
            total_nll += nll
        loss = total_nll / token_count
        if not backprop:
            return loss, None
        return loss, _ForwardCache(batch, enc_steps, enc_out, enc_proj, states, x, do, grads, dec_steps)

    def backward(self, cache: _ForwardCache) -> ParamViews:
        if cache.dec_steps is None:
            raise ModelError("forward cache already consumed by an earlier backward")
        p = self.params
        batch = cache.batch
        n, s_len = batch.src.shape
        t_len = batch.tgt_in.shape[1]
        h = self.config.hidden_size
        d = self.config.embedding_size
        grads, cache.grads = cache.grads, None
        dec_grads, enc_grads = grads.gates("dec_"), grads.gates("enc_")
        dec_rows = np.empty((t_len, n, d))  # decoder embedding-row grads, last step first

        steps, cache.dec_steps = cache.dec_steps, None
        do, cache.do = cache.do, None
        ds_next = np.zeros((n, h))
        d_proj = np.zeros_like(cache.enc_proj)
        denc = np.zeros_like(cache.enc_out)
        memory = (cache.enc_proj, cache.enc_out, denc, d_proj, np.empty_like(d_proj), np.empty_like(d_proj))
        da = np.empty((3, n, h))
        dq = np.empty((n, h))
        mask_cols, carry_cols = _step_masks(batch.tgt_mask)
        for t in reversed(range(t_len)):
            alpha, *step = steps.pop()  # drops the step's record once used
            ds = ds_next + do[t, :, :h]
            ds_prev, dx = self._gru_backward(ds, cache.x[t], cache.states[t], step, "dec_", mask_cols[t],
                                             carry_cols[t], dec_grads, da)
            dec_rows[t_len - 1 - t] = dx[:, :d]
            dc = do[t, :, h:] + dx[:, d:]
            ds_next = ds_prev + self._attention_backward(dc, cache.states[t], alpha, memory, grads, dq)
        s0 = cache.states[0]
        da0 = ds_next * (1.0 - s0 * s0)
        # embedding rows in backprop order: decoder steps, then encoder steps, each last to first
        np.add.at(grads["E"], batch.tgt_in[:, ::-1].T.ravel(), dec_rows.reshape(-1, d))
        del do, memory, s0, dec_rows  # the decoder's buffers and the attention scratch go
        cache.states = cache.x = cache.enc_proj = None
        enc_out, cache.enc_out = cache.enc_out, None
        grads["W_s0"] += enc_out[:, -1].copy().T @ da0  # the last state, a fresh contiguous copy like forward's
        grads["b_s0"] += da0.sum(axis=0)
        dh = da0 @ p["W_s0"].T

        grads["A_enc"] += np.einsum("bsh,bsa->ha", enc_out, d_proj)
        denc += d_proj @ p["A_enc"].T
        del d_proj

        src_emb = p["E"][batch.src.T]  # (S, B, d), the encoder's inputs again
        mask_cols, carry_cols = _step_masks(batch.src_mask)
        for t in reversed(range(s_len)):
            # h_prev as a fresh contiguous copy, like forward's: some BLAS kernels round a strided view differently
            h_prev = enc_out[:, t - 1].copy() if t else np.zeros((n, h))
            dh, dx = self._gru_backward(denc[:, t] + dh, src_emb[t], h_prev, cache.enc_steps.pop(), "enc_",
                                        mask_cols[t], carry_cols[t], enc_grads, da)
            np.add.at(grads["E"], batch.src[:, t], dx)
        return grads

    def loss_and_grads(self, batch: Batch) -> tuple[float, ParamViews]:
        loss, cache = self.forward(batch)
        return loss, self.backward(cache)

    def nll(self, batch: Batch) -> float:
        loss, _ = self.forward(batch, backprop=False)
        return loss


# ---------------------------------------------------------------------------
# Optimizer


class AdamW:
    """Adam (Kingma & Ba 2014) at the config's learning rate, with the
    paper's moment constants.  The name stays because the benchmark's
    tracer patches ``AdamW.step``; renaming it is a benchmark change.

    Steps one flat parameter vector in place.  It works through the vector
    in chunks of ``CHUNK`` elements with ``out=`` into a fixed scratch, so a
    step makes no temporaries the size of the vector; per element the
    arithmetic and its order are those of the textbook update.
    """

    CHUNK = 16384
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: np.ndarray, config: OptimizerConfig):
        self.params = params
        self.config = config
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(self.CHUNK, params.size)))
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        lr = self.config.learning_rate
        self.t += 1
        bias1 = 1.0 - self.BETA1**self.t
        bias2 = 1.0 - self.BETA2**self.t
        self.m *= self.BETA1
        self.v *= self.BETA2
        for start in range(0, self.params.size, self.CHUNK):
            chunk = slice(start, start + self.CHUNK)
            param, g, m, v = self.params[chunk], grad[chunk], self.m[chunk], self.v[chunk]
            s1, s2 = self._scratch[:, : param.size]
            m += np.multiply(1.0 - self.BETA1, g, out=s1)
            np.multiply(1.0 - self.BETA2, g, out=s1)
            s1 *= g
            v += s1
            # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=s1)
            s1 *= lr
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.EPS
            s1 /= s2
            param -= s1


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class Checkpoint:
    step: int
    valid_loss: float
    params: ParamViews = field(repr=False)


@dataclass
class TrainResult:
    model: AttentiveSeq2Seq
    best: Checkpoint  # lowest valid loss, earliest step on exact ties
    train_losses: list[tuple[int, float]]  # (step, batch loss before the update)
    valid_losses: list[tuple[int, float]]


def evaluate_nll(model: AttentiveSeq2Seq, data: Sequence[tuple[str, str]], config: OptimizerConfig) -> float:
    """Token-mean negative log likelihood over a corpus (batch-size free)."""
    if not data:
        raise ModelError("cannot evaluate on an empty set")
    encoded = encode_pairs(model.vocabulary, data, config.max_length)
    total = 0.0
    count = 0.0
    for start in range(0, len(encoded), config.batch_size):
        batch = batch_from_encoded(encoded[start : start + config.batch_size])
        loss = model.nll(batch)
        total += loss * batch.token_count
        count += batch.token_count
    return total / count


def train(
    model: AttentiveSeq2Seq,
    train_data: Sequence[tuple[str, str]],
    valid_data: Sequence[tuple[str, str]],
    config: OptimizerConfig,
) -> TrainResult:
    """Fine-tune in place on (source, target) text pairs.

    Data order is preserved exactly as given, so externally arranged
    schedules, e.g. interleavings, survive every epoch.  The validation
    loss is evaluated at step 0 and at the end of each epoch.  One snapshot is
    kept: the parameters (a deep copy) at the lowest loss so far, replaced
    only by a strictly lower one, so exact ties keep the earliest step.
    The model is left at its last step; callers restore ``best.params``
    with ``load_snapshot`` when they want it.  ``epochs=0`` or empty
    ``train_data`` is an explicit no-op that still evaluates step 0.
    """
    if not valid_data:
        raise ModelError("validation set must not be empty")
    encoded = encode_pairs(model.vocabulary, train_data, config.max_length)
    optimizer = AdamW(model.params.flat, config)
    best: Checkpoint | None = None
    train_losses: list[tuple[int, float]] = []
    valid_losses: list[tuple[int, float]] = []

    def validate(step: int) -> None:
        nonlocal best
        loss = evaluate_nll(model, valid_data, config)
        if not math.isfinite(loss):
            raise TrainingDivergedError(step, loss)
        valid_losses.append((step, loss))
        if best is None or loss < best.valid_loss:
            best = Checkpoint(step=step, valid_loss=loss, params=model.snapshot())
        log.info("step %d: valid loss %.6f", step, loss)

    step = 0
    validate(0)
    for _ in range(config.epochs if encoded else 0):
        for start in range(0, len(encoded), config.batch_size):
            batch = batch_from_encoded(encoded[start : start + config.batch_size])
            loss, grads = model.loss_and_grads(batch)
            if not math.isfinite(loss):
                raise TrainingDivergedError(step, loss)
            optimizer.step(grads.flat)
            del grads  # not held through the next pass
            step += 1
            train_losses.append((step, loss))
        validate(step)
    return TrainResult(model, best, train_losses, valid_losses)


# ---------------------------------------------------------------------------
# Span-corruption pretraining


def pretrain_span_corruption(
    model: AttentiveSeq2Seq,
    corpora: Sequence[Corpus],
    config: OptimizerConfig,
    seed: int = 0,
) -> TrainResult:
    """Denoising pretraining on raw "context response" texts.

    Every epoch corrupts the pool afresh (new spans, new order), so the
    model sees each text under several maskings; a fixed corrupted sample
    of at most 64 texts serves as the validation monitor.  Texts shorter
    than two tokens are skipped.  Identity corruptions (an empty target)
    teach nothing and are dropped.
    """
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    missing = [s for s in (DEFAULT_TEMPLATE.sentinel0, DEFAULT_TEMPLATE.sentinel1) if s not in model.vocabulary]
    if missing:
        # sentinels absent from the vocabulary encode to <unk>, so the
        # model would learn to emit <unk> instead of the span markers
        log.warning("sentinel token(s) %s not in the model vocabulary", missing)
    texts = [f"{pair.context} {pair.response}" for corpus in corpora for pair in corpus]
    usable = [text for text in texts if len(text.split()) >= 2]
    if not usable:
        raise ModelError("no texts with at least two tokens to pretrain on")
    if len(usable) < len(texts):
        log.warning("skipping %d single-token texts", len(texts) - len(usable))
    rng = np.random.default_rng(seed)

    def corrupted(text: str) -> tuple[str, str] | None:
        ex = corrupt_spans(text, seed=int(rng.integers(2**31)))
        if ex.identity_corruption:
            return None
        return ex.source, ex.target

    valid_idx = rng.choice(len(usable), size=min(64, len(usable)), replace=False)
    valid = [ex for ex in (corrupted(usable[int(i)]) for i in sorted(valid_idx)) if ex is not None]
    if not valid and config.epochs > 0:
        rate = prompting.CORRUPTION_RATE
        shortest = next(n for n in itertools.count(2) if int(rate * n + 0.5) >= 1)  # corrupt_spans's rounding
        raise ModelError(f"span corruption masked no validation text: at the fixed {rate:.0%} rate a text "
                         f"needs at least {shortest} tokens")

    train_pairs: list[tuple[str, str]] = []
    dropped = 0
    for _ in range(config.epochs):
        for i in rng.permutation(len(usable)):
            ex = corrupted(usable[int(i)])
            if ex is None:
                dropped += 1
            else:
                train_pairs.append(ex)
    if dropped:
        log.info("dropped %d identity corruptions", dropped)

    if config.epochs == 0:
        # explicit no-op: still produce the step-0 checkpoint
        valid = valid or [(usable[0], usable[0])]
    flat_config = dataclasses.replace(config, epochs=1 if train_pairs else 0)
    return train(model, train_pairs, valid, flat_config)


# ---------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class GenerationResult:
    text: str
    token_ids: tuple[int, ...]
    distributions: tuple[np.ndarray, ...]  # softmax at every decode step


def generate_greedy(model: AttentiveSeq2Seq, source_text: str, max_length: int) -> GenerationResult:
    """Greedy decoding of at most ``max_length`` tokens from the whole
    source; argmax ties resolve to the lowest token id."""
    if max_length < 1:
        raise ModelError(f"max_length must be >= 1, got {max_length}")
    src_ids = model.vocabulary.encode(source_text)
    if not src_ids:
        raise ModelError(f"empty source text {source_text!r}")
    src = np.array([src_ids], dtype=np.int64)
    src_mask = np.ones((1, len(src_ids)))
    enc_out, s, enc_proj = model._run_encoder(src, src_mask)
    memory = (enc_proj, enc_out, src_mask > 0, np.empty_like(enc_proj))
    mask_col, carry_col = np.ones((1, 1)), np.zeros((1, 1))
    d, h = model.config.embedding_size, model.config.hidden_size
    x, o = np.empty((1, d + h)), np.empty((1, 2 * h))  # the step's input and readout rows
    prev = BOS_ID
    ids: list[int] = []
    dists: list[np.ndarray] = []
    for _ in range(max_length):
        x[:, :d] = model.params["E"][prev]
        s, _ = model._decoder_step(s, x, o, memory, mask_col, carry_col)
        probs = model._readout(o)[0]
        dists.append(probs)
        nxt = int(np.argmax(probs))
        if nxt == EOS_ID:
            break
        ids.append(nxt)
        prev = nxt
    return GenerationResult(model.vocabulary.decode(ids), tuple(ids), tuple(dists))


def generate_corpus(model: AttentiveSeq2Seq, sources: Iterable[str], max_length: int) -> list[str]:
    return [generate_greedy(model, source, max_length=max_length).text for source in sources]


# ---------------------------------------------------------------------------
# Gradient verification


@dataclass(frozen=True)
class GradientProbe:
    name: str
    flat_index: int
    analytic: float
    numeric: float
    relative_error: float


@dataclass(frozen=True)
class GradientCheckReport:
    max_relative_error: float
    probes: tuple[GradientProbe, ...]
    eps: float


def gradient_check(
    model: AttentiveSeq2Seq,
    batch: Batch,
    probe_count: int = 50,
    eps: float = 1e-4,
    seed: int = 0,
    flat_indices: Sequence[int] | None = None,
    analytic: dict[str, np.ndarray] | None = None,
) -> GradientCheckReport:
    """Compare backprop against centered finite differences.

    Probes ``probe_count`` randomly chosen parameter components (or the
    given ``flat_indices``).  Relative error is |a - n| / max(|a|, |n|,
    1e-6), so a sign-flipped gradient component reads as exactly 2.  An
    ``analytic`` gradient dict may be supplied to audit the auditor.
    """
    _, cache = model.forward(batch)
    grads = model.backward(cache) if analytic is None else analytic
    spans = model.params.spans
    total = model.params.flat.size
    if flat_indices is None:
        rng = np.random.default_rng(seed)
        flat_indices = sorted(int(i) for i in rng.choice(total, size=min(probe_count, total), replace=False))
    probes = []
    for flat in flat_indices:
        if not (0 <= flat < total):
            raise ModelError(f"flat index {flat} out of range")
        name = next(nm for nm, (start, stop) in spans.items() if start <= flat < stop)
        local = flat - spans[name][0]
        param = model.params[name]
        original = float(param.flat[local])
        ana = float(grads[name].flat[local])
        param.flat[local] = original + eps
        loss_plus = model.nll(batch)
        param.flat[local] = original - eps
        loss_minus = model.nll(batch)
        param.flat[local] = original
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
        probes.append(GradientProbe(name, flat, ana, numeric, rel))
    return GradientCheckReport(max(pr.relative_error for pr in probes), tuple(probes), eps)


# ---------------------------------------------------------------------------
# Serialization (canonical JSON -> byte-identical files)


def save_model(model: AttentiveSeq2Seq, path: str) -> None:
    # the payload is a temporary, so its vector text is freed before the file is written
    text = json.dumps({
        "format": MODEL_FORMAT,
        "config": dataclasses.asdict(model.config),
        "vocabulary": list(model.vocabulary.tokens),
        "layout": model.params.layout,
        "params": base64.b64encode(model.params.flat.astype("<f8", copy=False)).decode("ascii"),
    }, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    write_lines(path, [text])


def _base64_bytes(text: str) -> bytes:
    """The bytes of canonical base64 ``text``: ``a2b_base64`` reads an ASCII
    str in place, without the bytes copy that ``b64decode`` makes.  It skips
    characters outside the alphabet and stops at the first padding, so its
    output falls short of what the text's length and trailing padding
    promise exactly when the text is not canonical."""
    try:
        data = binascii.a2b_base64(text)
    except ValueError:  # an incomplete last group, or non-ASCII text
        data = None
    pad = 2 if text.endswith("==") else int(text.endswith("="))
    if data is None or len(text) % 4 or len(data) != len(text) // 4 * 3 - pad:
        raise ModelError("'params' is not base64 text")
    return data


def load_model(path: str) -> AttentiveSeq2Seq:
    """Read a model file, restoring its vector through ``load_snapshot``; a
    malformed one raises ``ModelError`` naming the file and, where one is at
    fault, the parameter."""
    try:
        payload = json.loads(read_text(path))
    except ValueError as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        # popped and decoded first: its text is freed before the model's vector is made
        vector = np.frombuffer(_base64_bytes(payload.pop("params")), dtype="<f8")
        layout = tuple((name, tuple(shape)) for name, shape in payload["layout"])
        model = AttentiveSeq2Seq(Vocabulary(tuple(payload["vocabulary"])), ModelConfig(**payload["config"]))
        model.load_snapshot(ParamViews(vector, layout))
    except KeyError as exc:
        raise ModelError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # ModelError and bad base64 are ValueErrors
        raise ModelError(f"{path}: {exc}") from None
    return model
