import json
import os
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ambitrace import model as stacked
from ambitrace.data_io import DataError
from ambitrace.metrics import ccc
from ambitrace.model import (
    Adam,
    ModelConfig,
    TargetScaling,
    TrainConfig,
    TrainedModel,
    TrainingError,
    ccc_loss_grad,
    forward,
    gradient_check,
    init_params,
    load_checkpoint,
    predict,
    predict_stack,
    save_checkpoint,
    stack_params,
    train_stack,
)


# --- reference: the one-model forward/backward, before models were stacked ---
# Kept verbatim as the oracle for the stacked implementation.


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _forward(params, cfg, x):
    """Run a (B, T, D) batch through the network; returns outputs and cache."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.shape[2] != cfg.input_dim:
        raise ValueError(f"expected input_dim {cfg.input_dim}, got {x.shape[2]}")
    B, T, _ = x.shape
    H = cfg.hidden_dim
    layer_caches = []
    inp = x
    for layer in range(cfg.num_layers):
        Wx = params[f"l{layer}.Wx"]
        Wh = params[f"l{layer}.Wh"]
        b = params[f"l{layer}.b"]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.empty((B, T, H))
        cache = {"inp": inp, "i": [], "f": [], "g": [], "o": [], "c": [], "h_prev": []}
        for t in range(T):
            z = inp[:, t, :] @ Wx + h @ Wh + b
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H : 2 * H])
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = _sigmoid(z[:, 3 * H :])
            cache["h_prev"].append(h)
            c = f * c + i * g
            h = o * np.tanh(c)
            for key, val in (("i", i), ("f", f), ("g", g), ("o", o), ("c", c)):
                cache[key].append(val)
            hs[:, t, :] = h
        cache["hs"] = hs
        layer_caches.append(cache)
        inp = hs
    s = inp @ params["head.w"] + params["head.b"][0]
    y = np.tanh(s)
    cache_all = {"x": x, "layers": layer_caches, "top": inp, "y": y}
    return (y[0] if squeeze else y), cache_all


def _backward(params, cfg, cache, dy):
    """Gradients of a scalar loss w.r.t. all parameters, given d loss/d y."""
    x = cache["x"]
    B, T, _ = x.shape
    H = cfg.hidden_dim
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dy = np.asarray(dy)
    if dy.ndim == 1:
        dy = dy[None]
    ds = dy * (1.0 - cache["y"] ** 2)
    top = cache["top"]
    grads["head.w"] = np.einsum("btH,bt->H", top, ds)
    grads["head.b"] = np.array([ds.sum()])
    d_inp = ds[:, :, None] * params["head.w"][None, None, :]

    for layer in range(cfg.num_layers - 1, -1, -1):
        lc = cache["layers"][layer]
        Wx = params[f"l{layer}.Wx"]
        Wh = params[f"l{layer}.Wh"]
        dWx = np.zeros_like(Wx)
        dWh = np.zeros_like(Wh)
        db = np.zeros_like(params[f"l{layer}.b"])
        d_below = np.zeros_like(lc["inp"])
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, g, o = lc["i"][t], lc["f"][t], lc["g"][t], lc["o"][t]
            c = lc["c"][t]
            c_prev = lc["c"][t - 1] if t > 0 else np.zeros((B, H))
            tanh_c = np.tanh(c)
            dh = d_inp[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dWx += lc["inp"][:, t, :].T @ dz
            dWh += lc["h_prev"][t].T @ dz
            db += dz.sum(axis=0)
            dh_next = dz @ Wh.T
            d_below[:, t, :] = dz @ Wx.T
        grads[f"l{layer}.Wx"] = dWx
        grads[f"l{layer}.Wh"] = dWh
        grads[f"l{layer}.b"] = db
        d_inp = d_below
    return grads


class RefAdam:
    """The per-tensor Adam loop, before parameters were flat; kept as the oracle."""

    def __init__(self, params, learning_rate, weight_decay, beta1=0.9, beta2=0.999,
                 n_models=1):
        self.lr = learning_rate
        self.wd = weight_decay
        self.beta1, self.beta2 = beta1, beta2
        self.t = np.zeros(n_models, dtype=int)
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, models=None):
        sel = slice(None) if models is None else models
        self.t[sel] += 1
        b1t = 1.0 - self.beta1 ** self.t[sel]
        b2t = 1.0 - self.beta2 ** self.t[sel]
        for k, g in grads.items():
            shape = (-1,) + (1,) * (g.ndim - 1)
            m = self.beta1 * self.m[k][sel] + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[k][sel] + (1.0 - self.beta2) * g * g
            self.m[k][sel] = m
            self.v[k][sel] = v
            m_hat = m / b1t.reshape(shape)
            v_hat = v / b2t.reshape(shape)
            w = params[k][sel]
            w -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            if self.wd:
                w *= 1.0 - self.wd
            params[k][sel] = w


def assert_close_to_reference(actual, expected):
    """Agreement to rel 1e-12 of the reference tensor's scale."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def tiny_cfg(seed=0):
    return ModelConfig(input_dim=3, hidden_dim=4, seed=seed)


def make_affine_task(n_seq=8, steps=12, input_dim=3, seed=0):
    """Sequences whose target is an affine function of one feature channel."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=input_dim)
    feats, targs = [], []
    for _ in range(n_seq):
        x = rng.normal(size=(steps, input_dim))
        feats.append(x)
        targs.append(x @ w * 0.5 + 0.1)
    return feats, targs


class TestForward:
    def test_zero_weights_zero_outputs(self):
        cfg = tiny_cfg()
        params = {k: np.zeros_like(v) for k, v in init_params(cfg).items()}
        x = np.random.default_rng(0).normal(size=(6, 3))
        np.testing.assert_array_equal(forward(params, cfg, x), np.zeros(6))

    def test_causality(self):
        cfg = tiny_cfg(1)
        params = init_params(cfg)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 3))
        full = forward(params, cfg, x)
        for k in (1, 4, 9):
            head = forward(params, cfg, x[:k])
            np.testing.assert_array_equal(head, full[:k])

    def test_future_perturbation_does_not_leak(self):
        cfg = tiny_cfg(3)
        params = init_params(cfg)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        x2 = x.copy()
        x2[5:] += rng.normal(size=(3, 3))
        np.testing.assert_array_equal(
            forward(params, cfg, x)[:5], forward(params, cfg, x2)[:5]
        )

    def test_outputs_strictly_bounded(self):
        cfg = ModelConfig(input_dim=2, hidden_dim=8, seed=5)
        params = init_params(cfg)
        x = np.random.default_rng(6).normal(size=(50, 2)) * 10
        y = forward(params, cfg, x)
        assert np.all(np.abs(y) < 1.0)

    def test_deterministic(self):
        cfg = tiny_cfg(7)
        x = np.random.default_rng(8).normal(size=(5, 3))
        a = forward(init_params(cfg), cfg, x)
        b = forward(init_params(cfg), cfg, x)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            forward(init_params(cfg), cfg, np.zeros((4, 5)))


class TestGradients:
    def test_gradient_check_over_seeds(self):
        errs = [gradient_check(seed=s) for s in range(20)]
        assert max(errs) < 1e-4

    def test_zeroed_feature_column_has_zero_gradient(self):
        err = gradient_check(seed=3, zero_feature=1)
        assert err < 1e-4  # the zero-grad entries are compared absolutely

    def test_degenerate_segment_guarded(self):
        loss, grad = ccc_loss_grad(np.zeros(5), np.zeros(5))
        assert loss == 1.0
        assert np.all(grad == 0.0)
        assert np.all(np.isfinite(grad))


class TestScaling:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=40) * 3
        s = TargetScaling.fit(values, margin=0.9)
        np.testing.assert_allclose(s.invert(s.apply(values)), values, atol=1e-12)

    def test_maps_into_margin(self):
        s = TargetScaling.fit([-5.0, 11.0], margin=0.9)
        out = s.apply([-5.0, 11.0])
        np.testing.assert_allclose(out, [-0.9, 0.9])

    def test_identity_scaling_predict_equals_forward(self):
        cfg = tiny_cfg(10)
        from ambitrace.model import TrainedModel

        model = TrainedModel(init_params(cfg), cfg, TargetScaling(1.0, 0.0))
        x = np.random.default_rng(11).normal(size=(6, 3))
        np.testing.assert_array_equal(predict(model, x), forward(model.params, model.config, x))

    def test_half_scale_inverts_to_double(self):
        cfg = tiny_cfg(12)
        from ambitrace.model import TrainedModel

        model = TrainedModel(init_params(cfg), cfg, TargetScaling(0.5, 0.0))
        x = np.random.default_rng(13).normal(size=(6, 3))
        np.testing.assert_allclose(predict(model, x), 2.0 * forward(model.params, model.config, x))


class TestTraining:
    def test_affine_task_reaches_high_ccc(self):
        feats, targs = make_affine_task(n_seq=10, steps=15, seed=1)
        cfg = ModelConfig(input_dim=3, hidden_dim=16, seed=0)
        tc = TrainConfig(max_epochs=200, segment_length=15, batch_segments=4)
        model, = train_stack([feats[:8]], [targs[:8]], [cfg], tc, [feats[8:]], [targs[8:]])
        scores = [ccc(predict(model, f), t) for f, t in zip(feats[8:], targs[8:])]
        assert np.mean(scores) > 0.9

    def test_zero_epochs_returns_initial_weights(self):
        feats, targs = make_affine_task(seed=2)
        cfg = tiny_cfg(3)
        tc = TrainConfig(max_epochs=0, segment_length=12)
        model, = train_stack([feats[:6]], [targs[:6]], [cfg], tc, [feats[6:]], [targs[6:]])
        assert model.best_epoch == 0
        # Training starts from the float32 rounding of the seeded init.
        init = init_params(cfg)
        for k in init:
            np.testing.assert_array_equal(model.params[k], init[k].astype(np.float32))

    def test_deterministic_given_seed(self):
        feats, targs = make_affine_task(seed=4)
        cfg = tiny_cfg(5)
        tc = TrainConfig(max_epochs=10, segment_length=12)
        m1, = train_stack([feats[:6]], [targs[:6]], [cfg], tc, [feats[6:]], [targs[6:]])
        m2, = train_stack([feats[:6]], [targs[:6]], [cfg], tc, [feats[6:]], [targs[6:]])
        assert m1.best_epoch == m2.best_epoch
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_empty_data_rejected(self):
        with pytest.raises(TrainingError):
            train_stack([[]], [[]], [tiny_cfg()], TrainConfig(segment_length=2), [[]], [[]])

    def test_all_constant_targets_rejected(self):
        feats, _ = make_affine_task(seed=6)
        flat = [np.zeros(len(f)) for f in feats]
        with pytest.raises(TrainingError):
            train_stack([feats[:6]], [flat[:6]], [tiny_cfg()], TrainConfig(segment_length=12),
                        [feats[6:]], [flat[6:]])


class TestAdam:
    def test_weight_decay_shrinks_norm_at_zero_learning_rate(self):
        cfg = tiny_cfg(14)
        flat, params = stack_params([init_params(cfg)], cfg)
        norms = [np.sqrt(sum(np.sum(v**2) for v in params.values()))]
        opt = Adam(flat, learning_rate=0.0, weight_decay=1e-2)
        grads = np.ones_like(flat)
        for _ in range(5):
            opt.step(flat, grads)
            norms.append(np.sqrt(sum(np.sum(v**2) for v in params.values())))
        assert all(b < a for a, b in zip(norms, norms[1:]))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        feats, targs = make_affine_task(seed=7)
        cfg = tiny_cfg(8)
        tc = TrainConfig(max_epochs=5, segment_length=12)
        model, = train_stack([feats[:6]], [targs[:6]], [cfg], tc, [feats[6:]], [targs[6:]])
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.best_epoch == model.best_epoch
        assert loaded.config == model.config
        assert loaded.scaling == model.scaling
        x = feats[0]
        np.testing.assert_array_equal(predict(loaded, x), predict(model, x))

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestStackedPasses:
    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("shared_input", [False, True])
    def test_matches_reference_per_model(self, n_models, shared_input):
        cfgs = [ModelConfig(input_dim=5, hidden_dim=6, seed=s) for s in range(n_models)]
        per_model = [init_params(c) for c in cfgs]
        rng = np.random.default_rng(n_models)
        x = rng.normal(size=(1 if shared_input else n_models, 4, 7, 5))
        dy = rng.normal(size=(n_models, 4, 7))
        flat, params = stack_params(per_model, cfgs[0])
        y, cache = stacked._forward(params, cfgs[0], x)
        stored = np.empty_like(flat)
        stacked._backward(params, cfgs[0], cache, dy, stacked._views(stored, cfgs[0]))
        # The stack's gradients are those of its stored form; map them back.
        grads = stacked._views(stored * stacked._gate_signs(cfgs[0]), cfgs[0])
        for m, p in enumerate(per_model):
            y_ref, cache_ref = _forward(p, cfgs[m], x[0 if shared_input else m])
            assert_close_to_reference(y[m], y_ref)
            grads_ref = _backward(p, cfgs[m], cache_ref, dy[m])
            assert set(grads) == set(grads_ref)
            for key, g in grads_ref.items():
                assert_close_to_reference(grads[key][m], g)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hidden_dim", [5, 32])
    def test_predict_stack_matches_predict_bitwise(self, hidden_dim, dtype):
        cfgs = [ModelConfig(input_dim=8, hidden_dim=hidden_dim, seed=s) for s in (3, 100, 197)]
        scalings = [TargetScaling(1.3, -0.2), TargetScaling(0.7, 0.4), TargetScaling(2.1, 0.0)]
        models = [TrainedModel({k: v.astype(dtype) for k, v in init_params(c).items()}, c, s)
                  for c, s in zip(cfgs, scalings)]
        rng = np.random.default_rng(hidden_dim)
        sequences = [rng.normal(size=(steps, 8)) for steps in (19, 7, 19, 2)]
        for n_models in (1, 2, 3):
            preds = stacked.predict_stack(models[:n_models], sequences)
            assert len(preds) == len(sequences)
            for seq, pred in zip(sequences, preds):
                assert pred.shape == (n_models, len(seq))
                for row, model in zip(pred, models):
                    np.testing.assert_array_equal(row, predict(model, seq))

    def test_gradient_check_two_model_stack(self):
        err = gradient_check(seed=(3, 11))
        assert err < 1e-4
        # Stacking must not couple the models: the stack's error is the
        # worse of the two models checked alone.
        assert err == pytest.approx(max(gradient_check(seed=3), gradient_check(seed=11)))

    def test_loss_matches_np_var_form_bitwise(self):
        x, y = np.random.default_rng(6).normal(size=(2, 2, 3, 7))
        mx, my = x.mean(axis=-1, keepdims=True), y.mean(axis=-1, keepdims=True)
        cov = ((x - mx) * (y - my)).mean(axis=-1, keepdims=True)
        denom = x.var(axis=-1, keepdims=True) + y.var(axis=-1, keepdims=True) + (mx - my) ** 2
        loss, grad = ccc_loss_grad(x, y)
        np.testing.assert_array_equal(loss, 1.0 - (2.0 * cov / denom)[..., 0])
        dccc = (2.0 * (y - my) / 7 - 2.0 * cov / denom * (2.0 * (x - mx) / 7
                                                          + 2.0 * (mx - my) / 7)) / denom
        np.testing.assert_array_equal(grad, -dccc)

    def test_loss_rows_match_single_segments(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(2, 3, 6))
        target = rng.normal(size=(2, 3, 6))
        pred[1, 2] = 0.0
        target[1, 2] = 0.0  # degenerate row
        loss, grad = ccc_loss_grad(pred, target)
        assert loss.shape == (2, 3) and grad.shape == (2, 3, 6)
        for m in range(2):
            for b in range(3):
                row_loss, row_grad = ccc_loss_grad(pred[m, b], target[m, b])
                assert loss[m, b] == pytest.approx(row_loss, rel=1e-12)
                np.testing.assert_allclose(grad[m, b], row_grad, rtol=1e-12, atol=1e-15)
        assert loss[1, 2] == 1.0 and not np.any(grad[1, 2])

    def test_flat_adam_matches_per_tensor_reference_bitwise(self):
        cfg = tiny_cfg()
        flat, params = stack_params([init_params(tiny_cfg(s)) for s in range(3)], cfg)
        ref_params = {k: v.copy() for k, v in params.items()}
        opt = Adam(flat, learning_rate=1e-2, weight_decay=1e-3)
        ref = RefAdam(ref_params, learning_rate=1e-2, weight_decay=1e-3, n_models=3)
        rng = np.random.default_rng(0)
        for models in (None, [0, 2], [1], [1, 2], None):
            rows = np.arange(3) if models is None else np.array(models)
            grads = rng.normal(size=(len(rows), flat.shape[1]))
            opt.step(flat, grads, models)
            ref.step(ref_params, stacked._views(grads, cfg), None if models is None else rows)
        np.testing.assert_array_equal(opt.t, ref.t)
        for k, v in params.items():
            np.testing.assert_array_equal(v, ref_params[k])

    def test_adam_steps_only_selected_models(self):
        flat, params = stack_params([init_params(tiny_cfg(s)) for s in range(3)], tiny_cfg())
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(flat, learning_rate=1e-2, weight_decay=1e-3)
        grads = np.ones_like(flat[:2])
        opt.step(flat, grads, np.array([0, 2]))
        np.testing.assert_array_equal(opt.t, [1, 0, 1])
        for k in params:
            np.testing.assert_array_equal(params[k][1], before[k][1])
            assert not np.array_equal(params[k][0], before[k][0])
            assert not np.array_equal(params[k][2], before[k][2])


def two_target_task():
    """Shared features, two targets; the second has one constant segment."""
    feats, mu = make_affine_task(n_seq=8, steps=12, seed=21)
    rng = np.random.default_rng(22)
    sigma = [np.abs(np.sin(np.arange(12) * 0.7 + k)) + 0.1 * rng.normal(size=12)
             for k in range(8)]
    sigma[0][:6] = 0.25  # the first segment of item 0 is skipped for sigma only
    return feats, mu, sigma


class TestStackTraining:
    TC = TrainConfig(max_epochs=15, segment_length=6, batch_segments=4,
                     learning_rate=1e-2)

    def test_stack_matches_training_alone(self):
        feats, mu, sigma = two_target_task()
        cfgs = [ModelConfig(input_dim=3, hidden_dim=5, seed=s) for s in (4, 9)]
        together = train_stack([feats[:6]] * 2, [mu[:6], sigma[:6]], cfgs, self.TC,
                               [feats[6:]] * 2, [mu[6:], sigma[6:]])
        for target, cfg, model in zip((mu, sigma), cfgs, together):
            alone, = train_stack([feats[:6]], [target[:6]], [cfg], self.TC, [feats[6:]],
                                 [target[6:]])
            assert model.best_epoch == alone.best_epoch
            assert model.skipped_segments == alone.skipped_segments
            assert model.scaling == alone.scaling
            for key, value in alone.params.items():
                np.testing.assert_allclose(model.params[key], value, rtol=1e-12)
            np.testing.assert_allclose(model.val_loss, alone.val_loss, rtol=1e-12)
        # the constant segment leaves sigma with one segment fewer per epoch
        assert together[1].skipped_segments == together[0].skipped_segments + 1

    def test_two_folds_in_one_stack_end_as_each_fold_alone(self):
        feats, mu, sigma = two_target_task()
        # Fold a trains on 6 sequences and validates on 2; fold b trains on
        # 5 and validates on 3, one of them cut to 9 steps.  Their batches
        # and validation batches differ in shape, so the stack splits into
        # groups of one, two and four models.
        val_b = [feats[0], feats[1], feats[2][:9]]
        folds = [
            (feats[:6], [mu[:6], sigma[:6]], feats[6:], [mu[6:], sigma[6:]]),
            (feats[3:], [mu[3:], sigma[3:]], val_b,
             [[mu[0], mu[1], mu[2][:9]], [sigma[0], sigma[1], sigma[2][:9]]]),
        ]
        cfgs = [ModelConfig(input_dim=3, hidden_dim=5, seed=s) for s in (4, 9, 5, 10)]
        together = train_stack(
            [f for f, _, _, _ in folds for _ in range(2)], [t for _, ts, _, _ in folds for t in ts],
            cfgs, self.TC,
            [v for _, _, v, _ in folds for _ in range(2)], [t for _, _, _, ts in folds for t in ts])
        alone = [model for k, (f, ts, v, vts) in enumerate(folds)
                 for model in train_stack([f] * 2, ts, cfgs[2 * k : 2 * k + 2], self.TC,
                                          [v] * 2, vts)]
        for model, ref in zip(together, alone, strict=True):
            np.testing.assert_array_equal(model.best_epoch, ref.best_epoch)
            np.testing.assert_array_equal(model.skipped_segments, ref.skipped_segments)
            np.testing.assert_array_equal(model.train_loss, ref.train_loss)
            np.testing.assert_array_equal(model.val_loss, ref.val_loss)
            for key, value in ref.params.items():
                np.testing.assert_array_equal(model.params[key], value)
        # fold a holds sigma's constant segment, and fold b validates on it
        assert [m.skipped_segments > 0 for m in together] == [False, True, False, False]
        # Each model's validation loss is the mean over its own fold's
        # sequences.  Validation runs each length's sequences as one batch,
        # and a batch of two rounds differently from two batches of one, so
        # the reference batches them the same way.
        for k, model in enumerate(together):
            _, _, val, val_targets = folds[k // 2]
            by_length = {}
            for x, y in zip(val, val_targets[k % 2]):
                by_length.setdefault(len(x), []).append((x, model.scaling.apply(y)))
            losses = np.concatenate([
                ccc_loss_grad(forward(model.params, model.config, np.stack([x for x, _ in group])),
                              np.stack([y for _, y in group]))[0]
                for group in by_length.values()])
            assert model.val_loss[model.best_epoch] == pytest.approx(np.mean(losses), rel=1e-12)

    def test_best_epoch_is_first_minimum_of_val_curve(self):
        feats, mu, sigma = two_target_task()
        cfgs = [ModelConfig(input_dim=3, hidden_dim=5, seed=s) for s in (1, 2)]
        for model in train_stack([feats[:6]] * 2, [mu[:6], sigma[:6]], cfgs, self.TC,
                                 [feats[6:]] * 2, [mu[6:], sigma[6:]]):
            assert len(model.val_loss) == len(model.train_loss) == self.TC.max_epochs + 1
            assert model.train_loss[0] is None
            assert all(np.isfinite(model.train_loss[1:]))
            assert model.best_epoch == int(np.argmin(model.val_loss))

    def test_mismatched_configs_rejected(self):
        feats, mu, sigma = two_target_task()
        cfgs = [ModelConfig(input_dim=3, hidden_dim=5), ModelConfig(input_dim=3, hidden_dim=6)]
        with pytest.raises(ValueError):
            train_stack([feats[:6]] * 2, [mu[:6], sigma[:6]], cfgs, self.TC,
                        [feats[6:]] * 2, [mu[6:], sigma[6:]])


class TestWorkspace:
    # The second run differs in stack size, batch and segment length.
    RUNS = (((4, 9), TrainConfig(max_epochs=4, segment_length=6, batch_segments=4,
                                  learning_rate=1e-2)),
            ((1, 2, 3), TrainConfig(max_epochs=4, segment_length=5, batch_segments=3,
                                    learning_rate=1e-2)))

    def run_all(self):
        feats, mu, sigma = two_target_task()
        targets = [mu, sigma, [m - s for m, s in zip(mu, sigma)]]
        results = []
        for seeds, tc in self.RUNS:
            cfgs = [ModelConfig(input_dim=3, hidden_dim=5, seed=s) for s in seeds]
            chosen = targets[: len(seeds)]
            models = train_stack([feats[:6]] * len(chosen), [t[:6] for t in chosen], cfgs, tc,
                                 [feats[6:]] * len(chosen), [t[6:] for t in chosen])
            results.append((models, [predict(m, feats[7]) for m in models]))
        return results

    def test_reused_workspace_matches_fresh_workspaces(self, monkeypatch):
        step, validate = stacked._train_step, stacked._validation_loss
        groups = []

        def step_then_predict(flat, opt, cfg, members, X, Y, ws):
            groups.append(list(members))
            result = step(flat, opt, cfg, members, X, Y, ws)
            first = {k: v[0] for k, v in stacked._views(flat, cfg).items()}
            predict(TrainedModel(first, cfg, TargetScaling()), X[0, 0])
            return result

        monkeypatch.setattr(stacked, "_train_step", step_then_predict)
        reused = self.run_all()
        # Every shape of stacked step occurs, models not adjacent in the stack included.
        assert {len(g) for g in groups} == {1, 2, 3} and [0, 2] in groups

        monkeypatch.setattr(stacked, "_train_step",
                            lambda *args: step(*args[:-1], stacked._Workspace(args[0].dtype)))
        monkeypatch.setattr(stacked, "_validation_loss",
                            lambda *args: validate(*args[:-1], stacked._Workspace(args[0].dtype)))
        fresh = self.run_all()
        for (models, preds), (fresh_models, fresh_preds) in zip(reused, fresh):
            for model, pred, alone, alone_pred in zip(models, preds, fresh_models, fresh_preds):
                assert model.best_epoch == alone.best_epoch
                assert model.train_loss == alone.train_loss
                assert model.val_loss == alone.val_loss
                for key, value in alone.params.items():
                    np.testing.assert_array_equal(model.params[key], value)
                np.testing.assert_array_equal(pred, alone_pred)

    def test_training_step_allocates_no_large_buffers(self):
        cfg = ModelConfig(input_dim=8, hidden_dim=32)
        flat, _ = stack_params([init_params(replace(cfg, seed=s)) for s in (0, 1)], cfg)
        opt = Adam(flat, learning_rate=1e-3, weight_decay=1e-4)
        ws = stacked._Workspace(flat.dtype)
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(2, 8, 19, 8)), rng.normal(size=(2, 8, 19))
        stacked._train_step(flat, opt, cfg, [0, 1], X, Y, ws)
        tracemalloc.start()
        try:
            stacked._train_step(flat, opt, cfg, [0, 1], X, Y, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (T, M, B, 4H) gate block alone is 311 KB at this shape.
        assert peak < 600 * 1024


    def test_persistent_bytes_per_model(self):
        # The train_eval benchmark's shape: batches of 8 segments of 19 steps
        # and 3 validation sequences, two folds of two targets per stack, in
        # the float32 stack train_stack builds.
        cfg = ModelConfig(input_dim=8, hidden_dim=32)
        n = 4
        flat, _ = stack_params([{k: v.astype(stacked.TRAIN_DTYPE)
                                 for k, v in init_params(replace(cfg, seed=s)).items()}
                                for s in range(n)], cfg)
        opt = Adam(flat, learning_rate=1e-3, weight_decay=1e-4)
        ws = stacked._Workspace(flat.dtype)
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(n, 8, 19, 8)), rng.normal(size=(n, 8, 19))
        stacked._train_step(flat, opt, cfg, list(range(n)), X, Y, ws)
        val = stacked._validation_groups([list(rng.normal(size=(3, 19, 8)))] * n,
                                         [list(rng.normal(size=(3, 19)))] * n)
        stacked._validation_loss(flat, cfg, val, ws)
        workspace = sum(buf.nbytes for buf in ws._buffers.values())
        # flat and best_flat, then Adam's own arrays
        rows = 2 * flat.nbytes + sum(a.nbytes for a in vars(opt).values()
                                     if isinstance(a, np.ndarray))
        assert (workspace + rows) / n <= 0.72 * 2**20


class TestSinglePrecision:
    def test_float32_passes_match_float64_reference(self):
        # The train_eval benchmark's shape: two folds of two targets per
        # stack, batches of 8 segments of 19 steps, 8 features, 32 units.
        cfgs = [ModelConfig(input_dim=8, hidden_dim=32, seed=s) for s in range(4)]
        per_model = [init_params(c) for c in cfgs]
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 8, 19, 8))
        dy = rng.normal(size=(4, 8, 19))
        flat, params = stack_params(
            [{k: v.astype(np.float32) for k, v in p.items()} for p in per_model], cfgs[0])
        y, cache = stacked._forward(params, cfgs[0], x)
        stored = np.empty_like(flat)
        stacked._backward(params, cfgs[0], cache, dy, stacked._views(stored, cfgs[0]))
        assert y.dtype == stored.dtype == np.float32
        grads = stacked._views(stored * stacked._gate_signs(cfgs[0]), cfgs[0])
        for m, p in enumerate(per_model):
            y_ref, cache_ref = _forward(p, cfgs[m], x[m])
            grads_ref = _backward(p, cfgs[m], cache_ref, dy[m])
            # 1e-5 of each tensor's scale is about 80 float32 ulps; the
            # passes agree to within about 15.
            for actual, expected in [(y[m], y_ref)] + [(grads[k][m], g)
                                                       for k, g in grads_ref.items()]:
                np.testing.assert_allclose(actual, expected, rtol=1e-5,
                                           atol=1e-5 * np.abs(expected).max())

    def test_trained_params_and_checkpoints_are_float32(self, tmp_path):
        feats, mu, sigma = two_target_task()
        cfgs = [ModelConfig(input_dim=3, hidden_dim=5, seed=s) for s in (1, 2)]
        models = train_stack([feats[:6]] * 2, [mu[:6], sigma[:6]], cfgs,
                             TrainConfig(max_epochs=3, segment_length=6),
                             [feats[6:]] * 2, [mu[6:], sigma[6:]])
        preds = predict_stack(models, [feats[7]])[0]
        for k, model in enumerate(models):
            assert {v.dtype for v in model.params.values()} == {np.dtype(np.float32)}
            path = tmp_path / f"{k}.ckpt"
            save_checkpoint(model, path)
            assert path.read_bytes().split(b"\n", 1)[1] == b"".join(
                model.params[name].astype("<f4").tobytes() for name in sorted(model.params))
            loaded = load_checkpoint(path)
            for key, value in model.params.items():
                assert loaded.params[key].dtype == np.float32
                np.testing.assert_array_equal(loaded.params[key], value)
            # A reloaded model predicts as the evaluation inside train-eval did.
            np.testing.assert_array_equal(predict(loaded, feats[7]), preds[k])

    def test_large_features_train_without_warnings(self):
        # Unnormalised features saturate the gates: float32 exp overflows
        # above 88, and the saturated sigmoid is still exact.
        feats, targs = make_affine_task(seed=8)
        feats = [1e3 * f for f in feats]
        cfg = tiny_cfg(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, = train_stack([feats[:6]], [targs[:6]], [cfg],
                                 TrainConfig(max_epochs=5, segment_length=12),
                                 [feats[6:]], [targs[6:]])
            preds = [predict(model, f) for f in feats]
        assert all(np.all(np.isfinite(p)) for p in preds)
        assert all(np.all(np.isfinite(v)) for v in model.params.values())


class TestCheckpointFormat:
    def test_format_version_1_file_is_refused_naming_the_file(self, tmp_path):
        cfg = ModelConfig(input_dim=3, hidden_dim=4, seed=17)
        params = init_params(cfg)
        layout = [[name, list(params[name].shape)] for name in sorted(params)]
        header = {
            "magic": "ambitrace-checkpoint",
            "format_version": 1,
            "config": {"input_dim": 3, "hidden_dim": 4, "num_layers": 2, "seed": 17},
            "scaling": {"scale": 0.5, "shift": 0.25},
            "best_epoch": 7,
            "skipped_segments": 2,
            "layout": layout,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + b"".join(
            params[name].astype("<f8").tobytes() for name, _ in layout)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad checkpoint header: "
                                             "unsupported format_version 1 .*re-run train-eval"):
            load_checkpoint(path)

    @staticmethod
    def checkpoint_bytes(change=None, cut=0):
        """A valid checkpoint, its header edited by ``change`` and ``cut`` bytes dropped."""
        cfg = ModelConfig(input_dim=3, hidden_dim=4, seed=17)
        model = TrainedModel(init_params(cfg), cfg, TargetScaling(0.5, 0.25), best_epoch=2)
        params = model.params
        layout = [[name, list(params[name].shape)] for name in sorted(params)]
        header = {"magic": "ambitrace-checkpoint", "format_version": 2,
                  "config": {"input_dim": 3, "hidden_dim": 4, "num_layers": 2, "seed": 17},
                  "scaling": {"scale": 0.5, "shift": 0.25}, "best_epoch": 2,
                  "skipped_segments": 0, "layout": layout}
        if change is not None:
            header = change(header)
        blob = json.dumps(header).encode("utf-8") + b"\n" + b"".join(
            params[name].astype("<f4").tobytes() for name, _ in layout)
        return blob[: len(blob) - cut]

    @pytest.mark.parametrize("change, message", [
        (lambda h: {"magic": "ambitrace-checkpoint"}, "bad checkpoint header: unsupported"),
        (lambda h: [h], "not a model checkpoint"),
        (lambda h: {k: v for k, v in h.items() if k != "config"},
         "checkpoint header lacks 'config'"),
        (lambda h: {k: v for k, v in h.items() if k != "layout"}, "weight layout does not"),
        (lambda h: dict(h, config=[3, 4]), "bad checkpoint header"),
        (lambda h: dict(h, config=dict(h["config"], hidden_dim="4")),
         "bad checkpoint header: hidden_dim: expected an integer"),
        (lambda h: dict(h, config=dict(h["config"], depth=3)), "bad checkpoint header"),
        (lambda h: dict(h, scaling={"scale": 0.0, "shift": 0.0}),
         "bad checkpoint header: scaling.scale"),
        (lambda h: dict(h, scaling={"scale": "1"}), "bad checkpoint header: scaling.scale"),
        (lambda h: dict(h, best_epoch=-1), "bad checkpoint header: best_epoch"),
        (lambda h: dict(h, skipped_segments=None), "bad checkpoint header: skipped_segments"),
        (lambda h: dict(h, format_version=1), "bad checkpoint header: unsupported"),
        (lambda h: dict(h, format_version=3), "bad checkpoint header: unsupported"),
        (lambda h: dict(h, config=dict(h["config"], hidden_dim=5)), "weight layout does not"),
        (lambda h: dict(h, layout=h["layout"][::-1]), "weight layout does not"),
        (lambda h: dict(h, layout=[[n, [s[0] + 1, *s[1:]]] for n, s in h["layout"]]),
         "weight layout does not"),
    ])
    def test_bad_header_names_the_file(self, tmp_path, change, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self.checkpoint_bytes(change))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob, message", [
        (b"{not json\n", "not a model checkpoint"),
        (b"\xff\xfe\n", "not a model checkpoint"),
        (b"", "not a model checkpoint"),
    ])
    def test_unreadable_header_names_the_file(self, tmp_path, blob, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    def test_truncated_weights_name_the_file(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        path.write_bytes(self.checkpoint_bytes(cut=8))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated weight "
                                             "block for l1.b"):
            load_checkpoint(path)
        path.write_bytes(self.checkpoint_bytes())
        assert load_checkpoint(path).best_epoch == 2

    def test_failed_write_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(TrainedModel(init_params(cfg), cfg, TargetScaling()), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: cannot write: disk full"):
            save_checkpoint(TrainedModel(init_params(tiny_cfg(3)), cfg, TargetScaling()), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
