"""The flat parameter vector: bit-exactness against the per-array code, and view aliasing.

The reference functions below are the per-gate GRU step, the two-branch
sigmoid and the per-array Adam step that the gate-major, flat-vector code
replaced.  The new code must reproduce them bit for bit, not to a tolerance,
so that every trained weight, model file and study result stays as it was.
"""

import numpy as np
import pytest

from crossdial.model import (
    AdamW,
    AttentiveSeq2Seq,
    ModelConfig,
    ModelError,
    OptimizerConfig,
    ParamViews,
    Vocabulary,
    _sigmoid,
    load_model,
    make_training_batch,
    save_model,
    train,
)

BATCH_SIZES = [1, 2, 3, 8, 32]
DATA = [("a1 a2 a3 a4", "a4 a3 a2"), ("b1 b2", "b3 b1 b2"), ("a2 a1", "a1")]


def _vocab():
    return Vocabulary(("<pad>", "<bos>", "<eos>", "<unk>", "a1", "a2", "a3", "a4", "b1", "b2", "b3"))


def _model(seed=0):
    return AttentiveSeq2Seq(_vocab(), ModelConfig(seed=seed))  # the reference shapes, d=32 and h=64


# -- reference copies of the per-array code ------------------------------------


def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_gru_forward(p, x, h_prev, prefix, mask_col):
    az = x @ p[prefix + "Wz"] + h_prev @ p[prefix + "Uz"] + p[prefix + "bz"]
    z = _ref_sigmoid(az)
    ar = x @ p[prefix + "Wr"] + h_prev @ p[prefix + "Ur"] + p[prefix + "br"]
    r = _ref_sigmoid(ar)
    rh = r * h_prev
    an = x @ p[prefix + "Wn"] + rh @ p[prefix + "Un"] + p[prefix + "bn"]
    n = np.tanh(an)
    h_new = (1.0 - z) * n + z * h_prev
    h = mask_col * h_new + (1.0 - mask_col) * h_prev
    return h, (x, h_prev, z, r, n, rh, mask_col)


def _ref_gru_backward(p, dh, cache, prefix, grads):
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


def _ref_adamw_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, param in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        param -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)


# -- bit-exactness ---------------------------------------------------------------


def test_sigmoid_matches_two_branch_form():
    rng = np.random.default_rng(0)
    for shape, scale in (((8, 64), 3.0), ((2, 32, 64), 40.0), ((1, 64), 800.0), ((3,), 1.0)):
        x = rng.normal(scale=scale, size=shape)
        x.flat[:3] = (0.0, -0.0, -745.5)
        np.testing.assert_array_equal(_sigmoid(x), _ref_sigmoid(x))


def _masks(batch):
    """Every row live, every row padded, and alternating rows padded."""
    ones = np.ones((batch, 1))
    return [ones, np.zeros((batch, 1)), (np.arange(batch) % 2 == 0).astype(float)[:, None]]


@pytest.mark.parametrize("prefix", ["enc_", "dec_"])
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_gru_step_matches_per_gate_reference(batch, prefix):
    model = _model()
    ref_params = {name: arr.copy() for name, arr in model.params.items()}
    d, h = model.config.embedding_size, model.config.hidden_size
    in_dim = d if prefix == "enc_" else d + h
    rng = np.random.default_rng(batch)
    for mask_col in _masks(batch):
        x = rng.normal(size=(batch, in_dim))
        h_prev = rng.normal(scale=0.5, size=(batch, h))
        dh = rng.normal(size=(batch, h))

        xw = x @ model._gru_params[prefix][0]
        got_h, step = model._gru_forward(xw, h_prev, prefix, mask_col, 1.0 - mask_col)
        want_h, ref_cache = _ref_gru_forward(ref_params, x, h_prev, prefix, mask_col)
        np.testing.assert_array_equal(got_h, want_h)

        # accumulate onto nonzero gradients, as backprop over time does
        grads = model.snapshot()  # any vector in the model's layout
        grads.flat[...] = rng.normal(size=grads.flat.size)
        ref_grads = {name: arr.copy() for name, arr in grads.items()}
        da = np.empty((3, batch, h))
        gate_grads = grads.gates(prefix)
        got_dh, got_dx = model._gru_backward(dh, x, h_prev, step, prefix, mask_col, 1.0 - mask_col, gate_grads, da)
        want_dx, want_dh = _ref_gru_backward(ref_params, dh, ref_cache, prefix, ref_grads)
        np.testing.assert_array_equal(got_dx, want_dx)
        np.testing.assert_array_equal(got_dh, want_dh)
        for name, want in ref_grads.items():
            np.testing.assert_array_equal(grads[name], want, err_msg=name)


def test_adamw_matches_per_array_reference():
    model = _model()
    assert model.params.flat.size > AdamW.CHUNK  # the step crosses chunk boundaries
    ref = {name: arr.copy() for name, arr in model.params.items()}
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    opt = AdamW(model.params.flat, OptimizerConfig(learning_rate=5e-3, epochs=1, batch_size=1))
    rng = np.random.default_rng(1)
    for t in range(1, 5):
        grads = model.snapshot()
        grads.flat[...] = rng.normal(scale=10.0 ** -t, size=grads.flat.size)
        opt.step(grads.flat)
        _ref_adamw_step(ref, grads, m, v, t, 5e-3, 0.9, 0.999, 1e-8)
    for name, want in ref.items():
        np.testing.assert_array_equal(model.params[name], want, err_msg=name)
    np.testing.assert_array_equal(opt.m, np.concatenate([a.ravel() for a in m.values()]))
    np.testing.assert_array_equal(opt.v, np.concatenate([a.ravel() for a in v.values()]))


# -- view aliasing ---------------------------------------------------------------

_ONE_STEP = OptimizerConfig(learning_rate=1e-2, epochs=1, batch_size=len(DATA))


def _assert_views_alias(model):
    for name, arr in model.params.items():
        assert np.shares_memory(arr, model.params.flat), name
    for stacked in model._gru_params.values():
        assert all(np.shares_memory(arr, model.params.flat) for arr in stacked)


def _trained(seed=4):
    model = _model(seed)
    train(model, DATA, DATA, _ONE_STEP)  # moves the parameters off their seeded init
    return model


def test_params_are_views_of_the_flat_vector(tmp_path):
    _assert_views_alias(_model())
    model = _trained()
    _assert_views_alias(model)

    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    _assert_views_alias(loaded)
    np.testing.assert_array_equal(loaded.params.flat, model.params.flat)

    other = _model(seed=5)
    other.load_snapshot(model.snapshot())
    _assert_views_alias(other)
    np.testing.assert_array_equal(other.params.flat, model.params.flat)

    result = train(other, DATA, DATA, _ONE_STEP)
    other.load_snapshot(result.best.params)
    _assert_views_alias(other)
    np.testing.assert_array_equal(other.params.flat, result.best.params.flat)


def test_load_snapshot_refuses_another_layout_before_writing():
    model = _model()
    before = model.parameters_flat().tobytes()
    other = AttentiveSeq2Seq(_vocab(), ModelConfig(hidden_size=48))
    with pytest.raises(ModelError, match="layout"):
        model.load_snapshot(other.snapshot())
    assert model.parameters_flat().tobytes() == before


def test_load_snapshot_names_the_first_differing_entry():
    model = _model()
    other = AttentiveSeq2Seq(_vocab(), ModelConfig(hidden_size=48))
    with pytest.raises(ModelError, match=r"has \('enc_Wz', \(32, 48\)\) where the model has \('enc_Wz', \(32, 64\)\)"):
        model.load_snapshot(other.snapshot())
    short = ParamViews(np.zeros(model.params["E"].size), model.params.layout[:1])
    with pytest.raises(ModelError, match=r"has None where the model has \('enc_Wz', \(32, 64\)\)"):
        model.load_snapshot(short)


@pytest.mark.parametrize("extra", [-5, -1, 1, 5])
def test_param_views_refuse_a_vector_that_does_not_fit(extra):
    model = _model()
    before = model.parameters_flat().tobytes()
    with pytest.raises(ModelError, match="does not fit"):
        model.load_snapshot(ParamViews(np.zeros(model.params.flat.size + extra), model.params.layout))
    assert model.parameters_flat().tobytes() == before


def test_loaded_model_trains_like_the_original(tmp_path):
    model = _trained()
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    train(model, DATA, DATA, _ONE_STEP)
    train(loaded, DATA, DATA, _ONE_STEP)
    assert loaded.parameters_flat().tobytes() == model.parameters_flat().tobytes()


def test_snapshot_does_not_follow_training():
    model = _trained()
    snap = model.snapshot()
    frozen = {name: arr.copy() for name, arr in snap.items()}
    train(model, DATA, DATA, _ONE_STEP)
    assert not np.array_equal(model.params.flat, snap.flat)
    for name, arr in snap.items():
        np.testing.assert_array_equal(arr, frozen[name], err_msg=name)


# -- the layout's one owner ------------------------------------------------------

# the 27 parameters in vector order: the layout that model files and snapshots carry
NAMES = (["E"] + [f"{prefix}{kind}{gate}" for prefix in ("enc_", "dec_") for kind in "WUb" for gate in "zrn"]
         + ["W_s0", "b_s0", "A_enc", "A_dec", "a_bias", "a_v", "W_out", "b_out"])


@pytest.mark.parametrize("prefix", ["enc_", "dec_"])
def test_gate_views_are_the_stacked_entries(prefix):
    params = _model().params
    for kind, view in zip("WUb", params.gates(prefix)):
        assert np.shares_memory(view, params.flat), kind
        np.testing.assert_array_equal(view, np.stack([params[f"{prefix}{kind}{gate}"] for gate in "zrn"]))
        for i, gate in enumerate("zrn"):
            view[i] += 1.0  # writes through to the named entry
            np.testing.assert_array_equal(params[f"{prefix}{kind}{gate}"], view[i], err_msg=kind + gate)


def test_flat_slices_follow_the_layout_shapes():
    model = _model()
    assert [name for name, _ in model.params.layout] == NAMES
    spans, offset = {}, 0
    for name, shape in model.params.layout:
        spans[name] = (offset, offset + int(np.prod(shape)))
        offset = spans[name][1]
    assert model.params.spans == spans
    assert offset == model.params.flat.size


def test_snapshot_and_grads_hold_the_27_entries():
    model = _model()
    _, grads = model.loss_and_grads(make_training_batch(model.vocabulary, DATA))
    for views in (model.snapshot(), grads):
        assert list(views) == NAMES
        assert views.flat.size == model.params.flat.size
        for name in NAMES:
            assert views[name].shape == model.params[name].shape, name
            assert np.shares_memory(views[name], views.flat), name
