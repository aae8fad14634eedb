import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from talkover import model as M
from talkover.errors import (FeatureProfileError, ModelError,
                             TrainingDivergedError)
from talkover.features import PROFILES, EmbeddingProfile, LayeredEmbedding


def emb_profile(layers=3, dim=4, frames=6):
    return EmbeddingProfile("fd", layers=layers, dim=dim, frames=frames, channels=2)


def random_embedding(rng, profile):
    shape = (profile.channels, profile.layers, profile.dim, profile.frames)
    return LayeredEmbedding(rng.normal(size=shape).astype(np.float32), profile)


def small_model(rng, profile, channels="2", widths=(6, 4)):
    spec = M.FeatureSpec("emb", profile.stacked_dim, profile.frames,
                         profile.name, channels, profile.layers)
    model = M.build_model(spec, rng, widths)
    model.params["pooler_w"] = rng.normal(0.0, 0.5, profile.stacked_dim)
    model.params["layer_logits"] = rng.normal(0.0, 0.5, profile.layers)
    return model


def test_softmax_shift_invariant_and_normalized():
    x = np.array([1.0, 2.0, 3.0])
    a = M.softmax(x)
    b = M.softmax(x + 100.0)
    assert np.allclose(a, b)
    assert math.isclose(a.sum(), 1.0, rel_tol=0, abs_tol=1e-15)


def test_softmax_handles_large_magnitudes():
    out = M.softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] > 0.999


def test_cross_entropy_of_uniform_predictor_is_ln4():
    probs = np.full((7, 4), 0.25)
    labels = np.array([0, 1, 2, 3, 0, 1, 2])
    assert M.cross_entropy(probs, labels) == math.log(4.0)


def test_logit_loss_matches_cross_entropy_and_stays_finite():
    rng = np.random.default_rng(26)
    logits = rng.normal(0.0, 3.0, (9, 4))
    labels = rng.integers(0, 4, 9)
    assert math.isclose(M._logit_loss(logits, labels),
                        M.cross_entropy(M.softmax(logits, axis=1), labels), rel_tol=1e-14)
    # the labelled class's probability underflows to 0, where -log gives inf
    far = np.array([[0.0, -800.0, 0.0, 0.0]])
    assert M.softmax(far, axis=1)[0, 1] == 0.0
    assert math.isclose(M._logit_loss(far, np.array([1])), 800.0 + math.log(3.0), rel_tol=1e-15)


def test_layer_weights_are_convex_for_any_logits():
    # the layer mix weights are softmax(params["layer_logits"])
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = M.softmax(rng.normal(0, 5, 6))
        assert np.all(w > 0)
        assert math.isclose(w.sum(), 1.0, rel_tol=0, abs_tol=1e-12)
    assert np.allclose(M.softmax(np.zeros(4)), 0.25)


def test_layer_mix_matches_manual_mix():
    rng = np.random.default_rng(1)
    profile = emb_profile()
    emb = random_embedding(rng, profile)
    model = small_model(rng, profile)
    out = M._pool(model, M._read(model, emb, M._clip_buffer(model, emb)))[0][0]
    assert out.shape == (profile.stacked_dim, profile.frames)
    weights = M.softmax(model.params["layer_logits"])
    manual = np.tensordot(weights, emb.data.astype(np.float64), axes=([0], [1]))
    assert np.allclose(out, manual.reshape(profile.stacked_dim, profile.frames))


def test_layer_mix_rejects_wrong_layer_count():
    rng = np.random.default_rng(2)
    emb = random_embedding(rng, emb_profile(layers=3))
    model = small_model(rng, emb_profile(layers=5))
    with pytest.raises(FeatureProfileError):
        M.forward_batch(model, [emb])


def test_attention_pool_is_shift_invariant_in_scores():
    rng = np.random.default_rng(3)
    H = rng.normal(size=(5, 9))
    w = rng.normal(size=5)
    pooled = M.attention_pool(H, w)
    shifted_q = M.softmax(w @ H + 17.0)
    assert np.allclose(H @ shifted_q, pooled, rtol=0, atol=1e-12)


def test_attention_pool_stays_in_convex_hull():
    rng = np.random.default_rng(4)
    for _ in range(20):
        H = rng.normal(size=(4, 7))
        u = M.attention_pool(H, rng.normal(size=4))
        assert np.all(u >= H.min(axis=1) - 1e-12)
        assert np.all(u <= H.max(axis=1) + 1e-12)


def test_attention_pool_single_frame_is_identity():
    rng = np.random.default_rng(5)
    H = rng.normal(size=(6, 1))
    u = M.attention_pool(H, rng.normal(size=6))
    assert np.array_equal(u, H[:, 0])


def test_attention_pool_zero_template_is_uniform():
    rng = np.random.default_rng(6)
    H = rng.normal(size=(6, 10))
    u = M.attention_pool(H, np.zeros(6))
    assert np.array_equal(u, H @ np.full(10, 0.1))


def test_batched_pooling_matches_attention_pool():
    # train, forward_batch and eval pool with the einsum pair in
    # _forward_pass, which sums in another order than attention_pool (a
    # zero template differs from H @ full(M, 1/M) by about 6.5e-16), so
    # the per-sample match is relative, not exact
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(200):
        d = int(rng.integers(1, 13))
        frames = int(rng.integers(1, 25))
        model = M.build_model(M.FeatureSpec("matrix", d, frames), rng, (5, 4))
        if case % 4:  # every fourth case keeps the zero template
            model.params["pooler_w"] = rng.normal(0.0, 1.0, d)
        batch = [rng.normal(0.0, 1.0, (d, frames)) for _ in range(int(rng.integers(2, 7)))]
        pooled = M._forward_pass(model, batch)[2]
        assert pooled.shape == (len(batch), d)
        for H, u in zip(batch, pooled):
            want = M.attention_pool(H, model.params["pooler_w"])
            worst = max(worst, np.max(np.abs(u - want)) / max(np.max(np.abs(want)), 1e-30))
    assert worst < 1e-12


def test_attention_pool_rejects_bad_inputs():
    with pytest.raises(FeatureProfileError):
        M.attention_pool(np.zeros((3, 4)), np.zeros(5))
    with pytest.raises(ModelError):
        M.attention_pool(np.full((2, 2), np.nan), np.zeros(2))


def test_build_model_initial_state():
    rng = np.random.default_rng(7)
    profile = emb_profile()
    spec = M.FeatureSpec("emb", profile.stacked_dim, profile.frames,
                         profile.name, "2", profile.layers)
    model = M.build_model(spec, rng, (6, 5, 4))
    params = model.params
    assert list(params) == ["layer_logits", "pooler_w", "head_w0", "head_b0",
                            "head_w1", "head_b1", "head_w2", "head_b2"]
    assert np.all(params["pooler_w"] == 0.0)
    assert np.all(params["layer_logits"] == 0.0)
    weights = [params["head_w%d" % i] for i in range(3)]
    assert [w.shape for w in weights] == [(6, 8), (5, 6), (4, 5)]
    for w, fan_in in zip(weights, (8, 6, 5)):
        bound = np.sqrt(6.0 / (fan_in + w.shape[0]))
        assert np.all(np.abs(w) <= bound)
    for i in range(3):
        assert np.all(params["head_b%d" % i] == 0.0)
    matrix = M.build_model(M.FeatureSpec("matrix", 6, 3, None, "2"), rng, (5, 4))
    assert list(matrix.params) == ["pooler_w", "head_w0", "head_b0", "head_w1", "head_b1"]


def test_build_model_rejects_bad_configs():
    rng = np.random.default_rng(8)
    spec = M.FeatureSpec("matrix", 6, 3, None, "2")
    with pytest.raises(ModelError):
        M.build_model(spec, rng, (5, 3))  # head must end in 4 classes
    odd = M.FeatureSpec("matrix", 7, 3, None, "right")
    with pytest.raises(ModelError):
        M.build_model(odd, rng, (5, 4))  # right mask needs an even dim
    emb_no_layers = M.FeatureSpec("emb", 8, 3, "fd", "2", None)
    with pytest.raises(ModelError):
        M.build_model(emb_no_layers, rng, (5, 4))


def test_feature_spec_round_trip():
    spec = M.FeatureSpec("emb", 64, 249, "tiny", "right", 5)
    assert M.FeatureSpec.from_dict(spec.to_dict()) == spec
    mat = M.feature_spec_of(np.zeros((80, 401)))
    assert (mat.kind, mat.input_dim, mat.frames) == ("matrix", 80, 401)


def test_forward_outputs_probability_simplex():
    rng = np.random.default_rng(9)
    profile = emb_profile()
    model = small_model(rng, profile)
    probs = M.forward_batch(model, [random_embedding(rng, profile)])[0]
    assert probs.shape == (4,)
    assert np.all(probs > 0)
    assert math.isclose(probs.sum(), 1.0, rel_tol=0, abs_tol=1e-12)


def test_forward_batch_matches_single(tmp_path):
    rng = np.random.default_rng(10)
    profile = emb_profile()
    model = small_model(rng, profile)
    batch = [random_embedding(rng, profile) for _ in range(4)]
    stacked = M.forward_batch(model, batch)
    for i, f in enumerate(batch):
        assert np.allclose(stacked[i], M.forward_batch(model, [f])[0], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 97), kind=st.sampled_from(["emb", "matrix"]),
       channels=st.sampled_from(["2", "right"]), seed=st.integers(0, 2 ** 32 - 1))
def test_forward_batch_equals_one_shot_forward(n, kind, channels, seed):
    # forward_batch pools each sample alone; its row must have the bits
    # of the whole batch pooled at once
    rng = np.random.default_rng(seed)
    if kind == "emb":
        profile = emb_profile()
        model = small_model(rng, profile, channels)
        batch = [random_embedding(rng, profile) for _ in range(n)]
    else:
        model = M.build_model(M.FeatureSpec("matrix", 6, 5, None, channels), rng, (6, 4))
        model.params["pooler_w"] = rng.normal(0.0, 0.5, 6)
        batch = [rng.normal(size=(6, 5)) for _ in range(n)]
    assert np.array_equal(M.forward_batch(model, batch), M._forward_pass(model, batch)[-1])


def traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def profile_clips(rng, profile, n):
    shape = (profile.channels, profile.layers, profile.dim, profile.frames)
    return [LayeredEmbedding(rng.standard_normal(shape, dtype=np.float32), profile)
            for _ in range(n)]


def test_train_step_memory_is_bounded_by_the_f32_batch():
    # the layer mix and its gradient read each f32 clip directly; an f64
    # copy of the batch alone would be 2x the batch
    rng = np.random.default_rng(24)
    profile = PROFILES["base"]
    batch = profile_clips(rng, profile, 4)
    model = M.build_model(M.feature_spec_of(batch[0]), rng)
    peak = traced_peak(M._loss_and_grads, model, batch, [0, 1, 2, 3])
    assert peak < 1.5 * sum(f.data.nbytes for f in batch)


def test_train_step_memory_stays_below_the_dense_layer_gradient():
    # the layer gradient contracts each f32 clip with rank-2 factors; a
    # full (B, d, M) float64 dH and its temporary peak at about 1.42x
    rng = np.random.default_rng(28)
    profile = PROFILES["base"]
    batch = profile_clips(rng, profile, 4)
    model = M.build_model(M.feature_spec_of(batch[0]), rng)
    peak = traced_peak(M._loss_and_grads, model, batch, [0, 1, 2, 3])
    assert peak < 1.3 * sum(f.data.nbytes for f in batch)


def test_train_step_memory_holds_one_clip_not_the_batch():
    # each clip is read into the step's own one-clip buffer and pooled
    # alone; an added clip costs its float64 H and two small layer
    # gradient factors, about 3.3 MB, where a batch buffer costs its
    # 19.9 MB f32 row as well
    rng = np.random.default_rng(30)
    clips = profile_clips(rng, PROFILES["base"], 2)
    model = M.build_model(M.feature_spec_of(clips[0]), rng)
    peak = {n: traced_peak(M._loss_and_grads, model, [clips[i % 2] for i in range(n)],
                           [i % 4 for i in range(n)])
            for n in (2, 8)}
    assert (peak[8] - peak[2]) / 6 < clips[0].data.nbytes / 2


def test_train_builds_its_clip_buffer_and_h_once(monkeypatch):
    # 10 clips at batch size 4 are 3 steps an epoch, the last one short,
    # and each of the 2 epochs ends in a validation pass
    rng = np.random.default_rng(31)
    profile = emb_profile()
    data = [(random_embedding(rng, profile), i % 4) for i in range(10)]
    val = [(random_embedding(rng, profile), i % 4) for i in range(3)]
    h_shape = (4, profile.stacked_dim, profile.frames)
    counts = {"buffers": 0, "H": 0, "steps": 0}
    clip_buffer, empty, apply_sgd = M._clip_buffer, np.empty, M._apply_sgd

    def counting_clip_buffer(*args):
        counts["buffers"] += 1
        return clip_buffer(*args)

    def counting_empty(shape, *args, **kwargs):
        counts["H"] += shape == h_shape
        return empty(shape, *args, **kwargs)

    def counting_apply_sgd(*args):
        counts["steps"] += 1
        return apply_sgd(*args)

    monkeypatch.setattr(M, "_clip_buffer", counting_clip_buffer)
    monkeypatch.setattr(np, "empty", counting_empty)
    monkeypatch.setattr(M, "_apply_sgd", counting_apply_sgd)
    M.train(data, M.TrainConfig(batch_size=4, epochs=2, patience=5), val, head_widths=(6, 4))
    assert counts == {"buffers": 1, "H": 1, "steps": 6}


@pytest.mark.parametrize("kind, channels", [("emb", "2"), ("emb", "right"),
                                            ("matrix", "2"), ("fortran", "2")])
def test_a_step_through_the_workspace_has_the_bits_of_one_without(kind, channels):
    # one workspace of 5 rows serves a full batch, then a short one, then
    # validation, each after the arrays hold another batch's values; a
    # Fortran-ordered matrix is pooled in its own order, as without one
    rng = np.random.default_rng(32)
    if kind == "emb":
        profile = emb_profile()
        model = small_model(rng, profile, channels)
        clips = [random_embedding(rng, profile) for _ in range(8)]
    else:
        model = M.build_model(M.FeatureSpec("matrix", 6, 5, None, channels), rng, (6, 4))
        model.params["pooler_w"] = rng.normal(0.0, 0.5, 6)
        clips = [rng.normal(size=(6, 5)) for _ in range(8)]
        if kind == "fortran":
            clips = [np.asfortranarray(c) for c in clips]
    labels = [i % 4 for i in range(8)]
    work = M._workspace(model, clips[0], 5)
    for lo, hi in ((0, 5), (5, 8), (3, 8), (6, 8)):
        loss, grads = M._loss_and_grads(model, clips[lo:hi], labels[lo:hi], work)
        for b, f in enumerate(clips[lo:hi]):  # each row as _pool gives it into new arrays
            H, Q, U = M._pool(model, M._read(model, f, M._clip_buffer(model, f)))
            assert np.array_equal(work.H[b], H[0])
            assert np.array_equal(work.Q[b], Q[0]) and np.array_equal(work.U[b], U[0])
        want_loss, want = M._loss_and_grads(model, clips[lo:hi], labels[lo:hi])
        assert loss == want_loss
        assert list(grads) == list(want)
        for name in want:
            assert np.array_equal(grads[name], want[name]), name
    val = list(zip(clips[:3], labels[:3]))
    assert M.evaluate_loss(model, val, work) == M.evaluate_loss(model, val)
    assert np.array_equal(M.forward_batch(model, clips, work=work),
                          M.forward_batch(model, clips))


def dense_loss_and_grads(model, batch_features, labels):
    """_loss_and_grads as it was with the layer gradient read through
    the full (B, d, M) dH: the oracle of the rank-2 contraction. Also
    returns dw, the layer gradient before the softmax Jacobian (None
    for a matrix feature)."""
    B = len(batch_features)
    labels = np.asarray(labels)
    params = model.params
    grads = dict.fromkeys(params)
    stacked = np.concatenate([M._read(model, f, M._clip_buffer(model, f))
                              for f in batch_features])
    H, Q, U, zs, acts, probs = M._forward_pass(model, batch_features)
    logits = zs[-1]
    loss = M._logit_loss(logits, labels)

    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    for i in range(len(zs) - 1, -1, -1):
        grads["head_w%d" % i] = dz.T @ acts[i]
        grads["head_b%d" % i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params["head_w%d" % i]
            dz = da * np.where(zs[i - 1] > 0, 1.0, M.LEAKY_SLOPE)
    g = dz @ params["head_w0"]

    dQ = np.einsum("bdm,bd->bm", H, g)
    dS = Q * (dQ - np.sum(dQ * Q, axis=1, keepdims=True))
    grads["pooler_w"] = np.einsum("bdm,bm->d", H, dS)

    spec = model.feature_spec
    dw = None
    if spec.kind == "emb":
        dH = g[:, :, None] * Q[:, None, :]
        dH += params["pooler_w"][None, :, None] * dS[:, None, :]
        if spec.channels == M.CHANNELS_RIGHT:
            dH[:, : spec.input_dim // 2, :] = 0.0
        dH_c = dH.reshape(B, stacked.shape[1], spec.input_dim // stacked.shape[1], -1)
        dw = np.einsum("bcdm,bcldm->l", dH_c, stacked)
        w = M.softmax(params["layer_logits"])
        grads["layer_logits"] = w * (dw - np.sum(dw * w))
    return loss, grads, dw


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["emb", "matrix"]), channels=st.sampled_from(["2", "right"]),
       B=st.integers(1, 9), layers=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
# here the gradient's entries (+-2.1e-5) are 1.4e-4 of dw's, and its rounding
# error passes 1e-12 of the gradient
@example(kind="emb", channels="2", B=2, layers=2, seed=6334591)
def test_loss_and_grads_match_the_dense_dh_oracle(kind, channels, B, layers, seed):
    rng = np.random.default_rng(seed)
    dim, frames = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    if kind == "emb":
        profile = emb_profile(layers, dim, frames)
        model = small_model(rng, profile, channels)
        batch = [random_embedding(rng, profile) for _ in range(B)]
    else:
        model = M.build_model(M.FeatureSpec("matrix", 2 * dim, frames, None, channels),
                              rng, (6, 4))
        model.params["pooler_w"] = rng.normal(0.0, 0.5, 2 * dim)
        batch = [rng.normal(size=(2 * dim, frames)) for _ in range(B)]
    labels = rng.integers(0, 4, B)
    loss, grads = M._loss_and_grads(model, batch, labels)
    want_loss, want, dw = dense_loss_and_grads(model, batch, labels)
    assert loss == want_loss
    assert list(grads) == list(want)
    for name in want:
        if name != "layer_logits":  # the head and pooler_w take the same path
            assert np.array_equal(grads[name], want[name]), name
    if kind == "emb":
        # the sums run in another order, so dw carries rounding error on
        # the scale of its own entries; w_l (dw_l - w.dw) can cancel far
        # below them, so the error is measured against dw's largest entry,
        # not the gradient's
        got, ref = grads["layer_logits"], want["layer_logits"]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(dw))


def test_train_records_the_layer_weights_after_each_epoch():
    rng = np.random.default_rng(29)
    profile = emb_profile()
    data = [(random_embedding(rng, profile), i % 4) for i in range(8)]
    config = M.TrainConfig(learning_rate=0.05, batch_size=4, epochs=3)
    result = M.train(data, config, head_widths=(6, 4))
    assert len(result.layer_weights) == 3
    assert result.layer_weights[-1] == M.softmax(result.model.params["layer_logits"]).tolist()
    for weights in result.layer_weights:
        assert len(weights) == profile.layers
        assert math.isclose(sum(weights), 1.0, rel_tol=0, abs_tol=1e-12)
    assert result.layer_weights[0] != [1 / profile.layers] * profile.layers
    matrix = M.train(matrix_dataset(rng, n=8), config, head_widths=(6, 4))
    assert matrix.layer_weights is None


def test_forward_batch_pools_one_clip_at_a_time():
    # 13 layers of 32 dims: 0.83 MB a clip, so that a buffer of more than
    # one clip shows above the head pass
    rng = np.random.default_rng(25)
    profile = EmbeddingProfile("deep", layers=13, dim=32, frames=249, channels=2)
    clips = profile_clips(rng, profile, 32)
    model = M.build_model(M.feature_spec_of(clips[0]), rng)
    one = traced_peak(M.forward_batch, model, clips[:1])
    many = traced_peak(M.forward_batch, model, clips)
    assert many - one < clips[0].data.nbytes


def test_forward_batch_head_keeps_no_layer_per_clip():
    # the head runs once on every pooled vector; keeping each layer's
    # activations for a backward pass, as _head does when given a list,
    # costs about 20 KB a clip
    rng = np.random.default_rng(26)
    clip, = profile_clips(rng, PROFILES["tiny"], 1)
    model = M.build_model(M.feature_spec_of(clip), rng)
    U = np.repeat(M._pool(model, M._read(model, clip, M._clip_buffer(model, clip)))[2], 400,
                  axis=0)
    kept = traced_peak(M._head, model.params, U, [])
    assert traced_peak(M.forward_batch, model, [clip] * 400) < kept


def _head_forward(params, U):
    """The head pass training ran before it shared inference's: every
    layer's preactivation and activation kept in new arrays. Returns
    (logits, preactivations, activations)."""
    depth = sum(name.startswith("head_w") for name in params)
    acts, zs = [], []
    a = U
    for i in range(depth):
        z = a @ params["head_w%d" % i].T + params["head_b%d" % i]
        acts.append(a)
        zs.append(z)
        if i < depth - 1:
            a = np.where(z > 0, z, M.LEAKY_SLOPE * z)
    return zs[-1], zs, acts


def _head_backward(params, zs, acts, probs, labels):
    """The head's gradients for mean cross-entropy, masked by the sign of
    each preactivation, and the gradient w.r.t. the pooled rows."""
    grads = {}
    dz = probs.copy()
    dz[np.arange(len(labels)), labels] -= 1.0
    dz /= len(labels)
    for i in range(len(zs) - 1, -1, -1):
        grads["head_w%d" % i] = dz.T @ acts[i]
        grads["head_b%d" % i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ params["head_w%d" % i]) * np.where(zs[i - 1] > 0, 1.0, M.LEAKY_SLOPE)
    return grads, dz @ params["head_w0"]


# exact zeros of both signs and subnormals, so that preactivations land
# on LeakyReLU's kink and below the normal range
_KINK_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]


def _kinked_head(data, fan_in, widths):
    """Head parameters where some rows of a weight matrix are zero, so
    that their preactivations are the bias: often +-0 or subnormal."""
    value = st.sampled_from(_KINK_VALUES) | st.floats(-1.0, 1.0)
    params = {}
    for i, width in enumerate(widths):
        w = data.draw(hnp.arrays(np.float64, (width, fan_in), elements=value), label="w%d" % i)
        zero_rows = data.draw(hnp.arrays(bool, width), label="zero rows %d" % i)
        w[zero_rows] = data.draw(st.sampled_from([0.0, -0.0]), label="zero %d" % i)
        params["head_w%d" % i] = w
        params["head_b%d" % i] = data.draw(hnp.arrays(np.float64, width, elements=value),
                                           label="b%d" % i)
        fan_in = width
    return params


def _on_kink(zs):
    """Whether a hidden preactivation is +-0 or subnormal."""
    return any(np.any(np.abs(z) < np.finfo(np.float64).tiny) for z in zs[:-1])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_head_matches_the_two_list_oracle_bit_for_bit(data):
    fan_in = data.draw(st.integers(1, 5), label="fan in")
    widths = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4), label="widths")
    params = _kinked_head(data, fan_in, widths)
    value = st.sampled_from(_KINK_VALUES) | st.floats(-3.0, 3.0)
    U = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6), label="rows"), fan_in),
                             elements=value), label="U")
    want, zs, acts = _head_forward(params, U)
    event("preactivation on the kink" if _on_kink(zs) else "no preactivation on the kink")
    U_bytes = U.tobytes()
    inputs = []
    assert M._head(params, U, inputs).tobytes() == want.tobytes()
    assert M._head(params, U).tobytes() == want.tobytes()
    assert U.tobytes() == U_bytes
    assert [a.tobytes() for a in inputs] == [a.tobytes() for a in acts]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loss_and_grads_match_the_two_list_head_bit_for_bit(data):
    d, frames = data.draw(st.integers(1, 5), label="d"), data.draw(st.integers(1, 4), label="M")
    widths = data.draw(st.lists(st.integers(1, 5), max_size=3), label="widths") + [4]
    model = M.build_model(M.FeatureSpec("matrix", d, frames), np.random.default_rng(0),
                          tuple(widths))
    model.params.update(_kinked_head(data, d, widths))
    model.params["pooler_w"] = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-1, 1)),
                                         label="pooler_w")
    B = data.draw(st.integers(1, 5), label="B")
    batch = [data.draw(hnp.arrays(np.float64, (d, frames), elements=st.floats(-3, 3)),
                       label="clip") for _ in range(B)]
    labels = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=B, max_size=B),
                                  label="labels"))
    loss, grads = M._loss_and_grads(model, batch, labels)

    pooled = [M._pool(model, f[None]) for f in batch]
    H, Q, U = (np.concatenate([p[k] for p in pooled]) for k in range(3))
    logits, zs, acts = _head_forward(model.params, U)
    event("preactivation on the kink" if _on_kink(zs) else "no preactivation on the kink")
    want, g = _head_backward(model.params, zs, acts, M.softmax(logits, axis=1), labels)
    dQ = np.einsum("bdm,bd->bm", H, g)
    dS = Q * (dQ - np.sum(dQ * Q, axis=1, keepdims=True))
    want["pooler_w"] = np.einsum("bdm,bm->d", H, dS)
    assert loss == M._logit_loss(logits, labels)
    assert list(grads) == list(model.params)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


def test_forward_rejects_mismatched_features():
    rng = np.random.default_rng(11)
    model = small_model(rng, emb_profile(frames=6))
    wrong = random_embedding(rng, emb_profile(frames=7))
    with pytest.raises(FeatureProfileError):
        M.forward_batch(model, [wrong])
    # each clip is pooled alone, so a later clip of another shape would
    # pool without complaint unless every clip is checked
    with pytest.raises(FeatureProfileError):
        M.forward_batch(model, [random_embedding(rng, emb_profile(frames=6)), wrong])


def test_train_checks_every_clip_against_the_first():
    rng = np.random.default_rng(27)
    fit, misfit = (rng.normal(size=(6, 5)), 0), (rng.normal(size=(6, 4)), 1)
    config = M.TrainConfig(epochs=1)
    with pytest.raises(FeatureProfileError):
        M.train([fit, misfit], config, head_widths=(6, 4))
    with pytest.raises(FeatureProfileError):
        M.train([fit], config, val_dataset=[misfit], head_widths=(6, 4))


def test_right_mask_needs_an_even_channel_count():
    # the mask zeroes the first half of a clip's channels, which is the
    # left half of its feature rows only when the channels pair up
    rng = np.random.default_rng(31)
    profile = EmbeddingProfile("odd", layers=3, dim=4, frames=6, channels=3)
    clip = random_embedding(rng, profile)
    with pytest.raises(FeatureProfileError):
        M.train([(clip, 0)], M.TrainConfig(epochs=1), channels="right", head_widths=(6, 4))
    with pytest.raises(FeatureProfileError):
        M.forward_batch(small_model(rng, profile, channels="right"), [clip])


def test_right_mask_leaves_the_callers_matrix_alone():
    # a matrix clip is copied before its left half is zeroed, in the
    # training step and at inference
    rng = np.random.default_rng(32)
    model = M.build_model(M.FeatureSpec("matrix", 6, 5, None, "right"), rng, (6, 4))
    clip = rng.normal(size=(6, 5))
    kept = clip.copy()
    M._loss_and_grads(model, [clip], [0])
    M.forward_batch(model, [clip])
    assert np.array_equal(clip, kept)


def test_right_mask_ignores_left_channel():
    rng = np.random.default_rng(12)
    profile = emb_profile()
    model = small_model(rng, profile, channels="right")
    emb = random_embedding(rng, profile)
    altered = LayeredEmbedding(
        np.concatenate([rng.normal(size=emb.data[:1].shape).astype(np.float32),
                        emb.data[1:]]), profile)
    assert np.array_equal(M.forward_batch(model, [emb]), M.forward_batch(model, [altered]))


def test_both_channels_matter_without_mask():
    rng = np.random.default_rng(13)
    profile = emb_profile()
    model = small_model(rng, profile, channels="2")
    emb = random_embedding(rng, profile)
    altered = LayeredEmbedding(
        np.concatenate([rng.normal(size=emb.data[:1].shape).astype(np.float32),
                        emb.data[1:]]), profile)
    assert not np.array_equal(M.forward_batch(model, [emb]),
                              M.forward_batch(model, [altered]))


def matrix_dataset(rng, n=24, d=6, frames=3):
    means = rng.normal(0, 3.0, (4, d))
    data = []
    for i in range(n):
        c = i % 4
        x = means[c][:, None] + rng.normal(0, 0.5, (d, frames))
        data.append((x, c))
    return data


def test_train_is_deterministic_per_seed(tmp_path):
    rng = np.random.default_rng(14)
    data = matrix_dataset(rng)
    cfg = M.TrainConfig(learning_rate=0.05, batch_size=8, epochs=5, seed=3)
    r1 = M.train(data, cfg, head_widths=(8, 4))
    r2 = M.train(data, cfg, head_widths=(8, 4))
    assert r1.train_loss == r2.train_loss
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    M.save_model(r1.model, p1)
    M.save_model(r2.model, p2)
    assert p1.read_bytes() == p2.read_bytes()
    r3 = M.train(data, M.TrainConfig(learning_rate=0.05, batch_size=8,
                                     epochs=5, seed=4), head_widths=(8, 4))
    assert r3.train_loss != r1.train_loss


def test_train_loss_decreases_on_separable_data():
    rng = np.random.default_rng(15)
    data = matrix_dataset(rng, n=40)
    cfg = M.TrainConfig(learning_rate=0.05, batch_size=8, epochs=30, seed=0)
    res = M.train(data, cfg, head_widths=(16, 4))
    assert res.train_loss[-1] < 0.5 * res.train_loss[0]


def test_early_stopping_restores_best_snapshot():
    rng = np.random.default_rng(16)
    data = matrix_dataset(rng, n=32)
    # validation labels shuffled: val loss must eventually rise
    val = [(f, (y + 1 + i) % 4) for i, (f, y) in enumerate(matrix_dataset(rng, n=16))]
    cfg = M.TrainConfig(learning_rate=0.08, batch_size=8, epochs=200,
                        seed=1, patience=5)
    res = M.train(data, cfg, val_dataset=val, head_widths=(16, 4))
    assert res.stopped_epoch < 200
    assert len(res.val_loss) == res.stopped_epoch
    restored = M.evaluate_loss(res.model, val)
    assert math.isclose(restored, min(res.val_loss), rel_tol=1e-12)


def test_train_rejects_bad_labels_and_empty_sets():
    rng = np.random.default_rng(17)
    with pytest.raises(ModelError):
        M.train([])
    data = [(rng.normal(size=(4, 2)), 7)]
    with pytest.raises(ModelError):
        M.train(data)


def test_divergence_raises():
    rng = np.random.default_rng(18)
    data = [(rng.normal(0, 100.0, (6, 3)), i % 4) for i in range(8)]
    cfg = M.TrainConfig(learning_rate=1e9, batch_size=8, epochs=50, seed=0)
    with pytest.raises(TrainingDivergedError):
        M.train(data, cfg, head_widths=(8, 4))


def test_forward_batch_rejects_empty_batch():
    rng = np.random.default_rng(19)
    model = small_model(rng, emb_profile())
    with pytest.raises(ModelError):
        M.forward_batch(model, [])


def test_checkpoint_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(20)
    profile = emb_profile()
    model = small_model(rng, profile)
    path = tmp_path / "model.bin"
    M.save_model(model, path)
    back = M.load_model(path)
    assert back.feature_spec == model.feature_spec
    emb = random_embedding(rng, profile)
    # parameters are stored as float32; a second round trip is lossless
    again = tmp_path / "model2.bin"
    M.save_model(back, again)
    assert path.read_bytes() == again.read_bytes()
    assert list(back.params) == list(model.params)
    assert np.allclose(M.forward_batch(back, [emb]), M.forward_batch(model, [emb]), atol=1e-6)


def test_checkpoint_rejects_bad_magic(tmp_path):
    rng = np.random.default_rng(21)
    model = small_model(rng, emb_profile())
    path = tmp_path / "model.bin"
    M.save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelError):
        M.load_model(path)


def test_checkpoint_rejects_truncation(tmp_path):
    rng = np.random.default_rng(22)
    model = small_model(rng, emb_profile())
    path = tmp_path / "model.bin"
    M.save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(ModelError):
        M.load_model(path)


def checkpoint_parts(path):
    """Split a checkpoint into (magic + version, header dict, block bytes)."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    return blob[:8], json.loads(blob[12:12 + header_len]), blob[12 + header_len:]


def write_checkpoint(path, prefix, header_bytes, body):
    path.write_bytes(prefix + struct.pack("<I", len(header_bytes)) + header_bytes + body)


@pytest.fixture
def saved_checkpoint(tmp_path):
    rng = np.random.default_rng(23)
    path = tmp_path / "model.bin"
    M.save_model(small_model(rng, emb_profile()), path)
    return path


def test_checkpoint_rejects_unparsable_header(saved_checkpoint):
    prefix, header, body = checkpoint_parts(saved_checkpoint)
    for header_bytes in (b"{not json", b"\xff\xfe", b"[]", b"{}",
                         json.dumps(dict(header, feature_spec={})).encode(),
                         json.dumps(dict(header, head_widths=["wide"])).encode(),
                         json.dumps(dict(header, head_widths=[6, math.inf])).encode(),
                         json.dumps(dict(header, feature_spec=dict(
                             header["feature_spec"], input_dim=math.inf))).encode(),
                         json.dumps(dict(header, feature_spec=dict(
                             header["feature_spec"], layers=-math.inf))).encode(),
                         # sizes must be the JSON integers save_model writes
                         *(json.dumps(dict(header, feature_spec=dict(
                             header["feature_spec"], **{key: value}))).encode()
                           for key, value in (("input_dim", "8"), ("input_dim", 8.9),
                                              ("input_dim", True), ("layers", 3.5),
                                              ("layers", "3"), ("frames", "6"),
                                              ("frames", 6.0))),
                         *(json.dumps(dict(header, head_widths=widths)).encode()
                           for widths in (["6", 4], [6.0, 4], [6, True])),
                         # a kind the model cannot be built for
                         *(json.dumps(dict(header, feature_spec=dict(
                             header["feature_spec"], kind=kind))).encode()
                           for kind in ("foo", "", None))):
        write_checkpoint(saved_checkpoint, prefix, header_bytes, body)
        with pytest.raises(ModelError, match="malformed checkpoint header"):
            M.load_model(saved_checkpoint)
    saved_checkpoint.write_bytes(prefix[:6])
    with pytest.raises(ModelError, match="truncated checkpoint header"):
        M.load_model(saved_checkpoint)


def test_checkpoint_rejects_blocks_the_header_model_lacks(saved_checkpoint):
    prefix, header, body = checkpoint_parts(saved_checkpoint)
    names = [name for name, _ in header["blocks"]]
    assert names == ["layer_logits", "pooler_w", "head_w0", "head_b0", "head_w1", "head_b1"]
    renamed = [["pooler_v" if n == "pooler_w" else n, s] for n, s in header["blocks"]]
    reshaped = [[n, s[::-1]] for n, s in header["blocks"]]
    reordered = header["blocks"][1:] + header["blocks"][:1]
    dropped = header["blocks"][:-1]
    for bad in (dict(header, blocks=renamed), dict(header, blocks=reshaped),
                dict(header, blocks=reordered), dict(header, blocks=dropped),
                dict(header, head_widths=[5, 4])):
        write_checkpoint(saved_checkpoint, prefix, json.dumps(bad).encode(), body)
        with pytest.raises(ModelError, match="not the"):
            M.load_model(saved_checkpoint)
    # a spec the model cannot be built for fails the same way as build_model,
    # even when the blocks and the byte count agree with the shapes it implies
    spec = header["feature_spec"]
    negative = dict(header, feature_spec=dict(spec, layers=-3),
                    blocks=[["layer_logits", [-3]]] + header["blocks"][1:])
    for bad, bad_body in ((dict(header, feature_spec=dict(spec, channels="left")), body),
                          (dict(header, feature_spec=dict(spec, layers=None)), body),
                          (negative, body[:-4 * 6])):
        write_checkpoint(saved_checkpoint, prefix, json.dumps(bad).encode(), bad_body)
        with pytest.raises(ModelError, match="channels mode|layer count"):
            M.load_model(saved_checkpoint)


def test_checkpoint_rejects_trailing_bytes(saved_checkpoint):
    blob = saved_checkpoint.read_bytes()
    saved_checkpoint.write_bytes(blob + bytes(8))
    with pytest.raises(ModelError, match="8 trailing bytes"):
        M.load_model(saved_checkpoint)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("offset", [0, -1])
def test_checkpoint_rejects_non_finite_values(saved_checkpoint, value, offset):
    prefix, header, body = checkpoint_parts(saved_checkpoint)
    values = np.frombuffer(body, dtype="<f4").copy()
    values[offset] = value
    write_checkpoint(saved_checkpoint, prefix, json.dumps(header, sort_keys=True).encode(),
                     values.tobytes())
    block = header["blocks"][0 if offset == 0 else -1][0]
    with pytest.raises(ModelError, match="non-finite values in parameter block '%s'" % block):
        M.load_model(saved_checkpoint)
