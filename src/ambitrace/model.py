"""Sequence regressor: two-layer unidirectional LSTM with a tanh head.

Implemented directly in numpy (float64) so that training is bitwise
reproducible from a seed and the backward pass can be verified against
finite differences.  Training minimizes the concordance loss
1 - ccc(pred, target) per segment with Adam; a separate model is trained
per target channel (mu-like or sigma-like).

The models of one fold are trained as one stack: every parameter tensor
carries a leading model axis, and the forward pass, backward pass, loss
and optimizer step each run once for the whole stack.  The models stay
independent: each has its own seed, shuffle order, target scaling, Adam
state and best epoch, and ends where training it alone would.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data_io import _atomic_write, _check_int, _check_real
from .metrics import CCC_DENOM_GUARD

CHECKPOINT_MAGIC = "ambitrace-checkpoint"
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Training could not proceed (empty data or unusable targets)."""


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int = 64
    num_layers: int = 2
    seed: int = 0

    def __post_init__(self):
        _check_int("input_dim", self.input_dim, 1)
        _check_int("hidden_dim", self.hidden_dim, 1)
        if self.num_layers != 2:
            raise ValueError("num_layers: the architecture is fixed at two recurrent layers")
        _check_int("seed", self.seed, 0)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    max_epochs: int = 100
    segment_length: int = 100
    batch_segments: int = 8
    target_margin: float = 0.9

    def __post_init__(self):
        _check_real("learning_rate", self.learning_rate, lambda v: 0 <= v < math.inf,
                    "a finite number >= 0")
        _check_real("weight_decay", self.weight_decay, lambda v: 0 <= v < 1,
                    "a number in [0, 1)")
        _check_int("max_epochs", self.max_epochs, 0)
        # A one-window segment has no variance, so its CCC loss is undefined.
        _check_int("segment_length", self.segment_length, 2)
        _check_int("batch_segments", self.batch_segments, 1)
        _check_real("target_margin", self.target_margin, lambda v: 0 < v <= 1,
                    "a number in (0, 1]")


@dataclass
class TargetScaling:
    """Affine map of raw targets into the head's range, kept for inversion."""

    scale: float = 1.0
    shift: float = 0.0

    @classmethod
    def fit(cls, values, margin=0.9) -> "TargetScaling":
        values = np.asarray(values, dtype=float)
        lo, hi = values.min(), values.max()
        if hi == lo:
            return cls(scale=1.0, shift=-lo)  # constant target maps to 0
        scale = 2.0 * margin / (hi - lo)
        shift = -margin - scale * lo
        return cls(scale=float(scale), shift=float(shift))

    def apply(self, values):
        return np.asarray(values, dtype=float) * self.scale + self.shift

    def invert(self, values):
        return (np.asarray(values, dtype=float) - self.shift) / self.scale


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """The shape of every parameter tensor, in initialization order."""
    h = cfg.hidden_dim
    shapes = {}
    for layer in range(cfg.num_layers):
        d_in = cfg.input_dim if layer == 0 else h
        shapes[f"l{layer}.Wx"] = (d_in, 4 * h)
        shapes[f"l{layer}.Wh"] = (h, 4 * h)
        shapes[f"l{layer}.b"] = (4 * h,)
    shapes["head.w"] = (h,)
    shapes["head.b"] = (1,)
    return shapes


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per tensor.

    Every tensor's fan-in is the hidden size, except the input weights'.
    """
    rng = np.random.default_rng(cfg.seed)
    params = {}
    for name, shape in _param_shapes(cfg).items():
        bound = 1.0 / np.sqrt(shape[0] if name.endswith(".Wx") else cfg.hidden_dim)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _sigmoid(z, out):
    """1 / (1 + exp(-z)) written into ``out`` without temporaries."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def stack_params(param_dicts) -> dict[str, np.ndarray]:
    """One parameter dict with a leading model axis from per-model dicts."""
    return {k: np.stack([p[k] for p in param_dicts]) for k in param_dicts[0]}


def _layer_forward(inp, Wx, Wh, b):
    """One LSTM layer over time-major (T, Mx, B, D) inputs; returns its cache.

    The input projection runs for all steps before the time loop; inside
    it every step reads and writes contiguous (M, B, ...) blocks.  The
    gate layout is i, f, g, o; index 0 of ``c`` and ``h`` holds the zero
    initial state.
    """
    T, _, B, _ = inp.shape
    M, H = Wh.shape[0], Wh.shape[1]
    zx = np.matmul(inp, Wx)
    zx += b[:, None, :]
    gates = np.empty((T, M, B, 4 * H))
    c = np.zeros((T + 1, M, B, H))
    h = np.zeros((T + 1, M, B, H))
    tanh_c = np.empty((T, M, B, H))
    for t in range(T):
        z = np.matmul(h[t], Wh)
        z += zx[t]
        a = gates[t]
        _sigmoid(z, out=a)
        np.tanh(z[..., 2 * H : 3 * H], out=a[..., 2 * H : 3 * H])
        np.multiply(a[..., H : 2 * H], c[t], out=c[t + 1])
        c[t + 1] += a[..., :H] * a[..., 2 * H : 3 * H]
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(a[..., 3 * H :], tanh_c[t], out=h[t + 1])
    return {"inp": inp, "gates": gates, "c": c, "h": h, "tanh_c": tanh_c}


def _forward(params, cfg, x):
    """Run a stack of M models over a (M, B, T, D) batch.

    Every tensor in ``params`` has a leading model axis of length M; an
    input with a leading axis of 1 feeds the same batch to every model.
    Returns the (M, B, T) outputs and the cache for ``_backward``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 4:
        raise ValueError(f"expected a (models, batch, time, features) array, got {x.shape}")
    if x.shape[3] != cfg.input_dim:
        raise ValueError(f"expected input_dim {cfg.input_dim}, got {x.shape[3]}")
    inp = x.transpose(2, 0, 1, 3)
    layer_caches = []
    for layer in range(cfg.num_layers):
        lc = _layer_forward(inp, *(params[f"l{layer}.{n}"] for n in ("Wx", "Wh", "b")))
        layer_caches.append(lc)
        inp = lc["h"][1:]
    y = np.tanh(np.matmul(inp, params["head.w"][:, :, None])[..., 0] + params["head.b"])
    cache = {"layers": layer_caches, "y": y}
    return np.ascontiguousarray(y.transpose(1, 2, 0)), cache


def forward(params, cfg, features):
    """Raw head outputs in (-1, 1) of one model; causal in the time dimension.

    ``features`` is a (T, D) sequence or a (B, T, D) batch.
    """
    x = np.asarray(features, dtype=float)
    single = x.ndim == 2
    y, _ = _forward({k: v[None] for k, v in params.items()}, cfg,
                    x[None, None] if single else x[None])
    return y[0, 0] if single else y[0]


# OpenBLAS runs a matrix product of more than 2**18 multiply-adds on
# several threads.  At the sizes trained here the hand-off costs more than
# it saves and the idle worker spins, doubling CPU time, so the products
# below stay under that size.
_MAX_PRODUCT_MACS = 1 << 18


def _row_products(a, b):
    """Per model, the sum over rows n of outer(a[n], b[n]).

    (M, N, P) and (M, N, Q) give (M, P, Q), computed in blocks of rows.
    """
    rows = max(1, _MAX_PRODUCT_MACS // (a.shape[2] * b.shape[2]))
    out = a[:, :rows].transpose(0, 2, 1) @ b[:, :rows]
    for start in range(rows, a.shape[1], rows):
        out += a[:, start : start + rows].transpose(0, 2, 1) @ b[:, start : start + rows]
    return out


def _per_model(a):
    """(T, M, B, K) -> (M, T * B, K), rows ordered by (t, b) within each model."""
    T, M, B, K = a.shape
    return a.transpose(1, 0, 2, 3).reshape(M, T * B, K)


def _layer_backward(lc, Wx, Wh, d_out, input_grad):
    """Backprop through time for one layer, given d loss/d h of shape (T, M, B, H).

    Returns (dWx, dWh, db, d loss/d input or None).  ``dz`` is kept
    model-major so the weight gradients after the time loop need no copy
    of it.
    """
    gates, c, h, tanh_c = lc["gates"], lc["c"], lc["h"], lc["tanh_c"]
    T, M, B, H = tanh_c.shape
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    # The parts of dz = [dc*g*i', dc*c_prev*f', dc*i*g', dh*tanh_c*o']
    # that do not depend on the gradients carried back through time, for
    # all steps at once; sigmoid' = s*(1-s) and tanh' = 1-g**2.
    factor = np.empty_like(gates)
    factor[..., :H] = g * (i * (1.0 - i))
    factor[..., H : 2 * H] = c[:-1] * (f * (1.0 - f))
    factor[..., 2 * H : 3 * H] = i * (1.0 - g**2)
    factor[..., 3 * H :] = tanh_c * (o * (1.0 - o))
    factor4 = factor.reshape(T, M, B, 4, H)
    dc_dh = o * (1.0 - tanh_c**2)
    dz = np.empty((M, T, B, 4 * H))
    dz4 = dz.reshape(M, T, B, 4, H)
    Wh_T = Wh.transpose(0, 2, 1)
    dh_next = np.zeros((M, B, H))
    dc_next = np.zeros((M, B, H))
    for t in range(T - 1, -1, -1):
        dh = d_out[t] + dh_next
        dc = dh * dc_dh[t]
        dc += dc_next
        np.multiply(dc[:, :, None, :], factor4[t, :, :, :3], out=dz4[:, t, :, :3])
        np.multiply(dh, factor4[t, :, :, 3], out=dz4[:, t, :, 3])
        dc_next = dc * f[t]
        dh_next = np.matmul(dz[:, t], Wh_T)
    d_in = None
    if input_grad:
        d_in = np.matmul(dz, Wx.transpose(0, 2, 1)[:, None]).transpose(1, 0, 2, 3)
    dz = dz.reshape(M, T * B, 4 * H)
    dWx = _row_products(_per_model(lc["inp"]), dz)
    dWh = _row_products(_per_model(h[:-1]), dz)
    return dWx, dWh, dz.sum(axis=1), d_in


def _backward(params, cfg, cache, dy):
    """Per-model gradients of a summed loss, given d loss/d y of shape (M, B, T)."""
    y = cache["y"]
    ds = np.asarray(dy).transpose(2, 0, 1) * (1.0 - y**2)
    top = cache["layers"][-1]["h"][1:]
    grads = {
        "head.w": (ds[..., None] * top).sum(axis=(0, 2)),
        "head.b": ds.sum(axis=(0, 2))[:, None],
    }
    d_out = ds[..., None] * params["head.w"][:, None, :]
    for layer in range(cfg.num_layers - 1, -1, -1):
        names = [f"l{layer}.{n}" for n in ("Wx", "Wh", "b")]
        *layer_grads, d_out = _layer_backward(
            cache["layers"][layer], params[names[0]], params[names[1]], d_out, layer > 0
        )
        grads.update(zip(names, layer_grads))
    return grads


def ccc_loss_grad(pred, target):
    """Concordance loss 1 - ccc and its gradient w.r.t. the prediction.

    Works on the last axis, so a (..., T) stack of segments gives (...)
    losses and a (..., T) gradient.  Degenerate segments (flat prediction
    and target with equal means) fall back to loss 1 with zero gradient,
    mirroring the metric guard.
    """
    x = np.asarray(pred, dtype=float)
    y = np.asarray(target, dtype=float)
    n = x.shape[-1]
    mx = x.mean(axis=-1, keepdims=True)
    my = y.mean(axis=-1, keepdims=True)
    xc, yc = x - mx, y - my
    cov = (xc * yc).mean(axis=-1, keepdims=True)
    denom = x.var(axis=-1, keepdims=True) + y.var(axis=-1, keepdims=True) + (mx - my) ** 2
    usable = denom >= CCC_DENOM_GUARD
    denom = np.where(usable, denom, 1.0)
    value = np.where(usable, 2.0 * cov / denom, 0.0)
    dcov = yc / n
    ddenom = 2.0 * xc / n + 2.0 * (mx - my) / n
    dccc = (2.0 * dcov - value * ddenom) / denom
    return 1.0 - value[..., 0], np.where(usable, -dccc, 0.0)


class Adam:
    """Adam with a per-step multiplicative weight-decay shrink.

    Parameters carry a leading axis of ``n_models`` independent models.
    Each model keeps its own step count, so one that sits out a step
    keeps its bias correction where it was.  Decay is applied as
    ``w *= (1 - weight_decay)`` after the moment update so the norm
    contracts every step regardless of the learning rate.
    """

    def __init__(self, params, learning_rate, weight_decay, beta1=0.9, beta2=0.999,
                 n_models=1):
        self.lr = learning_rate
        self.wd = weight_decay
        self.beta1, self.beta2 = beta1, beta2
        self.t = np.zeros(n_models, dtype=int)
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads, models=None):
        """Update the models at indices ``models`` (all when None).

        ``grads`` holds the gradients of just those models, in that order.
        """
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
            w -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if self.wd:
                w *= 1.0 - self.wd
            params[k][sel] = w


@dataclass
class TrainedModel:
    params: dict
    config: ModelConfig
    scaling: TargetScaling
    best_epoch: int = 0
    skipped_segments: int = 0
    # Per-epoch losses, indexed by epoch; index 0 is the untrained model,
    # which has a validation loss but no training loss (None).
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)


def _segment(features, targets, segment_length):
    segments = []
    for X, y in zip(features, targets):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise TrainingError("feature/target length mismatch")
        for start in range(0, len(X), segment_length):
            xs = X[start : start + segment_length]
            ys = y[start : start + segment_length]
            if len(xs) >= 2:
                segments.append((xs, ys))
    return segments


class _SegmentPool:
    """One model's usable training segments, stacked per length for batching."""

    def __init__(self, features, targets_scaled, segment_length):
        segments = _segment(features, targets_scaled, segment_length)
        if not segments:
            raise TrainingError("no trainable segments")
        usable = [s for s in segments if np.ptp(s[1]) > 0]
        if not usable:
            raise TrainingError("all segments have constant targets; loss is undefined")
        self.skipped_static = len(segments) - len(usable)
        self.size = len(usable)
        self.lengths = [len(xs) for xs, _ in usable]
        by_length = {}
        for idx, length in enumerate(self.lengths):
            by_length.setdefault(length, []).append(idx)
        self.rank = np.empty(len(usable), dtype=int)
        self.X, self.Y = {}, {}
        for length, members in by_length.items():
            self.rank[members] = np.arange(len(members))
            self.X[length] = np.stack([usable[i][0] for i in members])
            self.Y[length] = np.stack([usable[i][1] for i in members])

    def batches(self, rng, batch_segments):
        """One epoch's shuffled batches; a batch mixes only equal-length segments."""
        batches = []
        buckets = {length: [] for length in self.X}
        for idx in rng.permutation(self.size):
            length = self.lengths[idx]
            buckets[length].append(idx)
            if len(buckets[length]) == batch_segments:
                batches.append(buckets[length])
                buckets[length] = []
        batches.extend(b for b in buckets.values() if b)
        return batches

    def take(self, batch):
        length = self.lengths[batch[0]]
        rows = self.rank[batch]
        return self.X[length][rows], self.Y[length][rows]


def _validation_batches(features, targets_scaled):
    """(sequence indices, X of shape (1, B, T, D), Y of shape (M, B, T)) per length.

    ``targets_scaled[m]`` holds model m's scaled validation targets.
    """
    by_length = {}
    for s, X in enumerate(features):
        by_length.setdefault(len(X), []).append(s)
    return [
        (seqs,
         np.stack([np.asarray(features[s], dtype=float) for s in seqs])[None],
         np.array([[targets[s] for s in seqs] for targets in targets_scaled]))
        for seqs in by_length.values()
    ]


def _validation_loss(params, cfg, batches):
    """Mean CCC loss over the validation sequences, one value per model."""
    losses = np.empty((len(params["head.b"]), sum(len(seqs) for seqs, _, _ in batches)))
    for seqs, X, Y in batches:
        pred, _ = _forward(params, cfg, X)
        losses[:, seqs], _ = ccc_loss_grad(pred, Y)
    return losses.mean(axis=1)


def _train_step(params, opt, cfg, members, X, Y):
    """One stacked forward, backward and Adam step for the models ``members``.

    Returns each member's summed batch loss and its count of usable rows.
    A member whose rows are all degenerate takes no optimizer step.
    """
    whole = len(members) == len(opt.t)
    sub = params if whole else {k: v[members] for k, v in params.items()}
    preds, cache = _forward(sub, cfg, X)
    loss, grad = ccc_loss_grad(preds, Y)
    counted = grad.any(axis=2).sum(axis=1)
    active = counted > 0
    if active.any():
        grads = _backward(sub, cfg, cache, grad / np.maximum(counted, 1)[:, None, None])
        if whole and active.all():
            opt.step(params, grads)
        else:
            opt.step(params, {k: g[active] for k, g in grads.items()},
                     np.asarray(members)[active])
    return loss.sum(axis=1), counted


def train_stack(
    features,
    targets,
    model_cfgs,
    train_cfg: TrainConfig,
    val_features,
    val_targets,
) -> list[TrainedModel]:
    """Fit one model per target channel on shared features, as one stack.

    ``targets[m]`` and ``val_targets[m]`` are lists of per-sequence arrays
    for model m, whose config (and seed) is ``model_cfgs[m]``; the configs
    must agree on everything but the seed.  Each model's targets are
    scaled into [-margin, margin] from its training-split range, and the
    scaling travels with the returned model.  Each model keeps the epoch
    with its best validation loss.  At every batch index the models are
    grouped by batch shape and each group takes one stacked step; a model
    without a batch there, or whose batch rows are all degenerate, takes
    no optimizer step.  Deterministic given (seeds, data, config).
    """
    if not features or not val_features:
        raise TrainingError("empty training or validation set")
    n_models = len(model_cfgs)
    if not n_models or len(targets) != n_models or len(val_targets) != n_models:
        raise ValueError("need one target list and one validation list per model")
    cfg = model_cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in model_cfgs):
        raise ValueError("stacked models must agree on everything but the seed")
    scalings, pools = [], []
    for t in targets:
        scaling = TargetScaling.fit(
            np.concatenate([np.asarray(v, dtype=float) for v in t]),
            margin=train_cfg.target_margin,
        )
        scalings.append(scaling)
        pools.append(_SegmentPool(features, [scaling.apply(v) for v in t],
                                  train_cfg.segment_length))
    val_batches = _validation_batches(
        val_features, [[s.apply(v) for v in t] for s, t in zip(scalings, val_targets)]
    )
    skipped = np.array([p.skipped_static for p in pools])
    sizes = np.array([p.size for p in pools])

    params = stack_params([init_params(c) for c in model_cfgs])
    best_params = {k: v.copy() for k, v in params.items()}
    best_loss = _validation_loss(params, cfg, val_batches)
    best_epoch = np.zeros(n_models, dtype=int)
    train_curve, val_curve = [], [best_loss.copy()]

    opt = Adam(params, train_cfg.learning_rate, train_cfg.weight_decay, n_models=n_models)
    rngs = [np.random.default_rng(c.seed + 1) for c in model_cfgs]
    for epoch in range(1, train_cfg.max_epochs + 1):
        batches = [p.batches(rng, train_cfg.batch_segments) for p, rng in zip(pools, rngs)]
        total = np.zeros(n_models)
        for step in range(max(map(len, batches))):
            groups = {}
            for m in range(n_models):
                if step < len(batches[m]):
                    X, Y = pools[m].take(batches[m][step])
                    groups.setdefault(X.shape, []).append((m, X, Y))
            for group in groups.values():
                members = [m for m, _, _ in group]
                X = np.stack([X for _, X, _ in group])
                Y = np.stack([Y for _, _, Y in group])
                loss, counted = _train_step(params, opt, cfg, members, X, Y)
                total[members] += loss
                skipped[members] += Y.shape[1] - counted
        val_loss = _validation_loss(params, cfg, val_batches)
        for m in np.flatnonzero(val_loss < best_loss):
            best_loss[m] = val_loss[m]
            best_epoch[m] = epoch
            for k, v in params.items():
                best_params[k][m] = v[m]
        train_curve.append(total / sizes)
        val_curve.append(val_loss)

    return [
        TrainedModel(
            params={k: v[m].copy() for k, v in best_params.items()},
            config=model_cfgs[m],
            scaling=scalings[m],
            best_epoch=int(best_epoch[m]),
            skipped_segments=int(skipped[m]),
            train_loss=[None] + [float(c[m]) for c in train_curve],
            val_loss=[float(c[m]) for c in val_curve],
        )
        for m in range(n_models)
    ]


def train(
    features,
    targets,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    val_features,
    val_targets,
) -> TrainedModel:
    """Fit one target channel: ``train_stack`` with a single model."""
    return train_stack(
        features, [targets], [model_cfg], train_cfg, val_features, [val_targets]
    )[0]


def predict(model: TrainedModel, features):
    """Forward pass mapped back to original target units."""
    if model.scaling is None:
        raise ValueError("model is missing target-scaling metadata")
    return model.scaling.invert(forward(model.params, model.config, features))


def gradient_check(
    input_dim=3, hidden_dim=4, steps=5, seed=0, h=1e-5, zero_feature=None
):
    """Max relative error between analytic and central-difference gradients.

    Runs one CCC-loss backward pass through a stack of tiny models, one
    per seed (``seed`` is an int or a sequence of ints), each on its own
    random sequence, and perturbs every parameter entry of every model.
    ``zero_feature`` blanks a feature column so the corresponding input
    weights receive zero gradient.
    """
    seeds = [seed] if np.isscalar(seed) else list(seed)
    cfgs = [ModelConfig(input_dim=input_dim, hidden_dim=hidden_dim, seed=s) for s in seeds]
    xs, targets = [], []
    for s in seeds:
        rng = np.random.default_rng(s + 10_000)
        x = rng.normal(size=(steps, input_dim))
        if zero_feature is not None:
            x[:, zero_feature] = 0.0
        xs.append(x)
        targets.append(rng.normal(size=steps))
    x = np.stack(xs)[:, None]
    target = np.stack(targets)[:, None]
    params = stack_params([init_params(c) for c in cfgs])
    cfg = cfgs[0]

    def losses_at(p):
        pred, _ = _forward(p, cfg, x)
        value, _ = ccc_loss_grad(pred, target)
        return value[:, 0]

    pred, cache = _forward(params, cfg, x)
    _, dy = ccc_loss_grad(pred, target)
    analytic = _backward(params, cfg, cache, dy)

    max_err = 0.0
    for key, w in params.items():
        for m in range(len(seeds)):
            flat = w[m].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = losses_at(params)[m]
                flat[j] = orig - h
                down = losses_at(params)[m]
                flat[j] = orig
                numeric = (up - down) / (2.0 * h)
                a = analytic[key][m].reshape(-1)[j]
                scale = max(abs(a), abs(numeric))
                # Below ~1e-6 the central difference is dominated by float
                # roundoff, so compare absolutely there.
                err = abs(a - numeric) if scale < 1e-6 else abs(a - numeric) / scale
                max_err = max(max_err, err)
    return max_err


# --- checkpoint I/O ---------------------------------------------------------


def save_checkpoint(model: TrainedModel, path):
    """Structured-text header plus little-endian float64 weight blocks."""
    layout = [[name, list(model.params[name].shape)] for name in sorted(model.params)]
    header = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": 1,
        "config": asdict(model.config),
        "scaling": asdict(model.scaling),
        "best_epoch": model.best_epoch,
        "skipped_segments": model.skipped_segments,
        "layout": layout,
    }
    blocks = [model.params[name].astype("<f8").tobytes() for name, _ in layout]
    _atomic_write(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
                  + b"".join(blocks))


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; a malformed one is a ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: not a model checkpoint: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        try:
            if header.get("format_version") != 1:
                raise ValueError(f"unsupported format_version {header.get('format_version')!r}")
            config = ModelConfig(**header["config"])
            scaling = TargetScaling(**header["scaling"])
            _check_real("scaling.scale", scaling.scale, lambda v: v != 0 and math.isfinite(v),
                        "a finite non-zero number")
            _check_real("scaling.shift", scaling.shift, math.isfinite, "a finite number")
            _check_int("best_epoch", header["best_epoch"], 0)
            _check_int("skipped_segments", header.get("skipped_segments", 0), 0)
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint header lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad checkpoint header: {exc}") from exc
        layout = [[name, list(shape)] for name, shape in sorted(_param_shapes(config).items())]
        if header.get("layout") != layout:
            raise ValueError(f"{path}: weight layout does not match the config's shapes")
        params = {}
        for name, shape in layout:
            count = int(np.prod(shape))
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated weight block for {name}")
            params[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return TrainedModel(
        params=params,
        config=config,
        scaling=scaling,
        best_epoch=header["best_epoch"],
        skipped_segments=header.get("skipped_segments", 0),
    )
