"""Sequence regressor: two-layer unidirectional LSTM with a tanh head.

Implemented directly in numpy so that training is bitwise reproducible
from a seed and the backward pass can be verified against finite
differences.  Training minimizes the concordance loss 1 - ccc(pred, target)
per segment with Adam; a separate model is trained per target channel
(mu-like or sigma-like).

A stack computes in the dtype of the parameter arrays it is built from.
Training and prediction run in float32 (``TRAIN_DTYPE``): the forward and
backward passes and Adam's state, which hold nearly all the work and the
memory.  The loss and its gradient, the target scaling and the metrics
stay in float64.  ``init_params`` returns float64, so the reference tests
and ``gradient_check`` run float64 stacks.

The models of one or two folds are trained as one stack: every parameter
tensor carries a leading model axis, and the forward pass, backward pass,
loss and optimizer step each run once for the models whose batches share
a shape.  The models stay independent: each has its own seed, data,
shuffle order, target scaling, Adam state and best epoch, and ends bit for
bit where training it alone would.  A stack's parameters, gradients and
Adam moments are flat (models, P) buffers with named views, kept in the
stored form ``_gate_signs`` describes, and its passes reuse one workspace,
so after the first step a training step allocates no large array.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data_io import ModelConfig, TrainConfig, _atomic_write, _check_int, _check_real
from .metrics import CCC_DENOM_GUARD

CHECKPOINT_MAGIC = "ambitrace-checkpoint"
CHECKPOINT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The dtype every training and prediction pass runs in; not a setting.
TRAIN_DTYPE = np.float32


class TrainingError(RuntimeError):
    """Training could not proceed (empty data or unusable targets)."""


@dataclass
class TargetScaling:
    """Affine map of raw targets into the head's range, kept for inversion."""

    scale: float = 1.0
    shift: float = 0.0

    @classmethod
    def fit(cls, values, margin) -> "TargetScaling":
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


def _views(flat, cfg) -> dict[str, np.ndarray]:
    """Named (M, ...) views of the rows of a (M, P) buffer, in ``_param_shapes`` order."""
    views, start = {}, 0
    for name, shape in _param_shapes(cfg).items():
        size = math.prod(shape)
        views[name] = flat[:, start : start + size].reshape(len(flat), *shape)
        start += size
    return views


def _gate_signs(cfg) -> np.ndarray:
    """(P,) factors that map a flat parameter row to or from its stored form.

    A stack stores the i, f and o gate columns of every LSTM weight and
    bias negated (factor -1), so its gate pre-activations there are
    ``-z`` and each sigmoid is ``1 / (1 + exp(z))`` with no negation pass.
    Negation is exact in the products, the loss gradient, Adam and the
    weight decay, so a stored row stays the exact negation of the row an
    un-negated stack would hold.
    """
    H = cfg.hidden_dim
    signs = []
    for name, shape in _param_shapes(cfg).items():
        sign = np.ones(shape)
        if not name.startswith("head."):
            sign[..., : 2 * H] = -1.0
            sign[..., 3 * H :] = -1.0
        signs.append(sign.ravel())
    return np.concatenate(signs)


def stack_params(param_dicts, cfg) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One (models, P) buffer holding per-model parameter dicts, and its named views.

    The buffer holds the stored form (see ``_gate_signs``), in the dtype of
    the given arrays.
    """
    names = _param_shapes(cfg)
    flat = np.stack([np.concatenate([p[k].ravel() for k in names]) for p in param_dicts])
    flat *= _gate_signs(cfg)
    return flat, _views(flat, cfg)


def _as_rows(models):
    """Row indices as a slice when they run consecutively, so rows are views."""
    first = int(models[0])
    if all(m == first + k for k, m in enumerate(models)):
        return slice(first, first + len(models))
    return np.asarray(models)


class _Workspace:
    """Named scratch buffers reused by every pass over one stack.

    Each name owns a flat buffer that grows only when a larger shape is
    asked for; ``get`` returns a C-contiguous view of its first elements,
    so smaller batches reuse the memory of the largest.  C order is the
    layout numpy gives the temporaries these views replace, so the sums
    over them add in the same order and the results are bit-identical.  A
    view's contents hold until the next ``get`` of the same name.  Every
    buffer has the dtype of the stack the workspace serves.
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self._buffers = {}

    def get(self, name, shape):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, self.dtype)
        return buf[:size].reshape(shape)


def _layer_forward(inp, params, layer, ws):
    """One LSTM layer over time-major (T, Mx, B, D) inputs; returns its cache.

    The input projection runs for all steps before the time loop, into
    the gate buffer; inside it every step reads and writes contiguous
    (M, B, ...) blocks.  The gate layout is i, f, g, o; index 0 of ``c``
    and ``h`` holds the zero initial state.  ``params`` are in stored form,
    so the sigmoid gates' pre-activations come out negated.  A saturated
    gate's ``exp`` may overflow (above 88 in float32); 1 / (1 + inf) = 0 is
    then the exact sigmoid, so the overflow is not reported.
    """
    T, _, B, _ = inp.shape
    Wx, Wh, b = (params[f"l{layer}.{n}"] for n in ("Wx", "Wh", "b"))
    M, H = Wh.shape[0], Wh.shape[1]
    name = f"l{layer}."
    gates = ws.get(name + "gates", (T, M, B, 4 * H))
    np.matmul(inp, Wx, out=gates)
    gates += b[:, None, :]
    c = ws.get(name + "c", (T + 1, M, B, H))
    h = ws.get(name + "h", (T + 1, M, B, H))
    c[0] = 0.0
    h[0] = 0.0
    tanh_c = ws.get(name + "tanh_c", (T, M, B, H))
    z = ws.get("z", (M, B, 4 * H))
    ig = ws.get("ig", (M, B, H))
    # Per-gate views over all steps, so each step indexes them once.
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    z_g = z[..., 2 * H : 3 * H]
    with np.errstate(over="ignore"):
        for t in range(T):
            np.matmul(h[t], Wh, out=z)
            a = gates[t]
            z += a
            np.exp(z, out=a)
            a += 1.0
            np.reciprocal(a, out=a)
            g_t, c_t = g[t], c[t + 1]
            np.tanh(z_g, out=g_t)
            np.multiply(f[t], c[t], out=c_t)
            np.multiply(i[t], g_t, out=ig)
            c_t += ig
            np.tanh(c_t, out=tanh_c[t])
            np.multiply(o[t], tanh_c[t], out=h[t + 1])
    return {"inp": inp, "gates": gates, "c": c, "h": h, "tanh_c": tanh_c}


def _forward(params, cfg, x, ws=None):
    """Run a stack of M models over a (M, B, T, D) batch.

    Every tensor in ``params`` has a leading model axis of length M and is
    in stored form (see ``_gate_signs``); an input with a leading axis of
    1 feeds the same batch to every model.  The pass runs in the dtype of
    ``params``, to which ``x`` is cast.  Returns the (M, B, T) outputs and
    the cache for ``_backward``, which lives in ``ws`` (a fresh workspace
    when None) until its next pass.
    """
    dtype = params["head.b"].dtype
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 4:
        raise ValueError(f"expected a (models, batch, time, features) array, got {x.shape}")
    if x.shape[3] != cfg.input_dim:
        raise ValueError(f"expected input_dim {cfg.input_dim}, got {x.shape[3]}")
    ws = _Workspace(dtype) if ws is None else ws
    inp = x.transpose(2, 0, 1, 3)
    layer_caches = []
    for layer in range(cfg.num_layers):
        lc = _layer_forward(inp, params, layer, ws)
        layer_caches.append(lc)
        inp = lc["h"][1:]
    out = ws.get("y", inp.shape[:3] + (1,))
    np.matmul(inp, params["head.w"][:, :, None], out=out)
    y = out[..., 0]
    y += params["head.b"]
    np.tanh(y, out=y)
    cache = {"layers": layer_caches, "y": y, "ws": ws}
    return y.transpose(1, 2, 0).copy(), cache


def forward(params, cfg, features):
    """Raw head outputs in (-1, 1) of one model; causal in the time dimension.

    ``features`` is a (T, D) sequence or a (B, T, D) batch; the pass runs
    in the dtype of ``params``.
    """
    x = np.asarray(features)
    single = x.ndim == 2
    _, stored = stack_params([params], cfg)
    y, _ = _forward(stored, cfg, x[None, None] if single else x[None])
    return y[0, 0] if single else y[0]


# OpenBLAS runs a matrix product of more than 2**18 multiply-adds on
# several threads.  At the sizes trained here the hand-off costs more than
# it saves and the idle worker spins, doubling CPU time.  The commands
# start OpenBLAS with one thread, but the products below still stay under
# that size: a thread count the user raises then runs no threaded product,
# and the blocks fix the summation order, so the trained bits stay the same.
_MAX_PRODUCT_MACS = 1 << 18


def _row_products(a, b, out, part):
    """Per model, the sum over rows n of outer(a[n], b[n]), written into ``out``.

    (M, N, P) and (M, N, Q) give (M, P, Q), computed in blocks of rows;
    ``part``, of the shape of ``out``, takes each block after the first.
    """
    rows = max(1, _MAX_PRODUCT_MACS // (a.shape[2] * b.shape[2]))
    np.matmul(a[:, :rows].transpose(0, 2, 1), b[:, :rows], out=out)
    for start in range(rows, a.shape[1], rows):
        np.matmul(a[:, start : start + rows].transpose(0, 2, 1), b[:, start : start + rows],
                  out=part)
        out += part


def _layer_backward(lc, params, layer, d_out, grads, ws):
    """Backprop through time for one layer, given d loss/d h of shape (T, M, B, H).

    Writes the layer's weight gradients into ``grads`` and returns
    d loss/d input, or None for the first layer.  The gradients are those
    of the stored form, so the sigmoid gates' columns come out negated.
    ``dz`` is kept model-major so the weight gradients after the time loop
    need no copy of it.  The pass consumes the cache: ``c``, ``tanh_c``
    and ``gates`` are overwritten.
    """
    Wx, Wh = params[f"l{layer}.Wx"], params[f"l{layer}.Wh"]
    gates, c, h, tanh_c = lc["gates"], lc["c"], lc["h"], lc["tanh_c"]
    T, M, B, H = tanh_c.shape
    i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
    # The parts of dz = [dc*g*i', dc*c_prev*f', dc*i*g', dh*tanh_c*o']
    # that do not depend on the gradients carried back through time, for
    # all steps at once, written into dz and scaled in place in the time
    # loop.  The stored form's sigmoid' is (s-1)*s, the exact negation of
    # s*(1-s); it is taken over all columns at once, and g's are then
    # overwritten with i*tanh' = i*(1-g**2).  c is dead once f's part is
    # taken, so tanh' takes its buffer.
    dz = ws.get("dz", (M, T, B, 4 * H))
    dz_t = dz.transpose(1, 0, 2, 3)
    np.subtract(gates, 1.0, out=dz_t)
    dz_t *= gates
    for k, other in ((0, g), (1, c[:-1]), (3, tanh_c)):
        dz_t[..., k * H : (k + 1) * H] *= other
    tanh_g = c[1:]
    np.square(g, out=tanh_g)
    np.subtract(1.0, tanh_g, out=tanh_g)
    np.multiply(tanh_g, i, out=dz_t[..., 2 * H : 3 * H])
    dc_dh = tanh_c
    np.square(tanh_c, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    Wh_T = Wh.transpose(0, 2, 1)
    dh, dc, dh_next, dc_next = (ws.get(n, (M, B, H)) for n in ("dh", "dc", "dh+", "dc+"))
    dh_next[...] = 0.0
    dc_next[...] = 0.0
    # Time-major views of dz, so each step indexes them once.
    dz_ifg = dz.reshape(M, T, B, 4, H).transpose(1, 0, 2, 3, 4)[..., :3, :]
    dz_o = dz_t[..., 3 * H :]
    dc_ifg = dc[:, :, None, :]
    for t in range(T - 1, -1, -1):
        np.add(d_out[t], dh_next, out=dh)
        np.multiply(dh, dc_dh[t], out=dc)
        dc += dc_next
        dz_ifg[t] *= dc_ifg
        dz_o[t] *= dh
        np.multiply(dc, f[t], out=dc_next)
        np.matmul(dz_t[t], Wh_T, out=dh_next)
    d_in = None
    if layer > 0:
        d_in = ws.get("d_in", (M, T, B, Wx.shape[1]))
        np.matmul(dz, Wx.transpose(0, 2, 1)[:, None], out=d_in)
        d_in = d_in.transpose(1, 0, 2, 3)
    # The weight gradients sum over (t, b) rows within each model.  The
    # layer's gates and dc_dh are dead now, so the model-major copy of each
    # input and the product blocks borrow their buffers.
    dz = dz.reshape(M, T * B, 4 * H)
    name = f"l{layer}."
    for a, key in ((lc["inp"], "Wx"), (h[:-1], "Wh")):
        rows = ws.get(name + "tanh_c", (M, T, B, a.shape[3]))
        np.copyto(rows, a.transpose(1, 0, 2, 3))
        out = grads[f"l{layer}.{key}"]
        _row_products(rows.reshape(M, T * B, -1), dz, out, ws.get(name + "gates", out.shape))
    grads[f"l{layer}.b"][...] = dz.sum(axis=1)
    return d_in


def _backward(params, cfg, cache, dy, grads):
    """Per-model gradients of a summed loss, given d loss/d y of shape (M, B, T).

    They are written into ``grads``, named views of a (M, P) buffer as
    ``_views`` gives them, in stored form like ``params``.  ``dy`` is cast
    to the dtype of ``params``.
    """
    ws = cache["ws"]
    y = cache["y"]
    ds = np.asarray(dy, dtype=y.dtype).transpose(2, 0, 1) * (1.0 - y**2)
    top = cache["layers"][-1]["h"][1:]
    # The head-weight product is summed before d_out takes its buffer.  The
    # top layer reads d_out only in its time loop, so the d loss/d input
    # it writes after it can share the buffer.
    d_out = ws.get("d_in", top.shape)
    grads["head.w"][...] = np.multiply(ds[..., None], top, out=d_out).sum(axis=(0, 2))
    # Summed over b within each step, then step by step: a plain sum over
    # both axes would add a one-model stack's (T, 1, B) block in another
    # order than a larger stack's, and a model would not end where it
    # ends trained beside others.
    grads["head.b"][...] = np.cumsum(ds.sum(axis=2), axis=0)[-1][:, None]
    np.multiply(ds[..., None], params["head.w"][:, None, :], out=d_out)
    for layer in range(cfg.num_layers - 1, -1, -1):
        d_out = _layer_backward(cache["layers"][layer], params, layer, d_out, grads, ws)
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
    # The variances as np.var computes them, from the centred values.
    denom = ((xc * xc).mean(axis=-1, keepdims=True) + (yc * yc).mean(axis=-1, keepdims=True)
             + (mx - my) ** 2)
    usable = denom >= CCC_DENOM_GUARD
    denom = np.where(usable, denom, 1.0)
    value = np.where(usable, 2.0 * cov / denom, 0.0)
    dcov = yc / n
    ddenom = 2.0 * xc / n + 2.0 * (mx - my) / n
    dccc = (2.0 * dcov - value * ddenom) / denom
    return 1.0 - value[..., 0], np.where(usable, -dccc, 0.0)


class Adam:
    """Adam with a per-step multiplicative weight-decay shrink.

    Works on (n_models, P) flat parameter rows, one row per independent
    model, updated in place; the moments take the dtype of the rows.  Each
    model keeps its own step count, so one that sits out a step keeps its
    bias correction where it was.  Decay is applied as
    ``w *= (1 - weight_decay)`` after the moment update so the norm
    contracts every step regardless of the learning rate.
    """

    def __init__(self, params, learning_rate, weight_decay):
        self.lr = learning_rate
        self.wd = weight_decay
        self.t = np.zeros(len(params), dtype=int)
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params, grads, models=None, scratch=None):
        """Update the rows ``models`` of ``params`` (all when None).

        ``grads`` holds the gradient rows of just those models, in that
        order.  ``scratch`` is two buffers of the shape of ``grads`` that
        the step may overwrite; fresh ones are allocated when None.
        """
        sel = slice(None) if models is None else _as_rows(models)
        self.t[sel] += 1
        b1t = (1.0 - ADAM_BETA1 ** self.t[sel])[:, None].astype(params.dtype)
        b2t = (1.0 - ADAM_BETA2 ** self.t[sel])[:, None].astype(params.dtype)
        m, v, w = self.m[sel], self.v[sel], params[sel]
        update, denom = np.empty((2,) + grads.shape, params.dtype) if scratch is None else scratch
        m *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=update)
        m += update
        v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=update)
        update *= grads
        v += update
        np.divide(v, b2t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, b1t, out=update)
        update *= self.lr
        update /= denom
        w -= update
        if self.wd:
            w *= 1.0 - self.wd
        if not isinstance(sel, slice):  # fancy-indexed rows are copies
            self.m[sel], self.v[sel], params[sel] = m, v, w


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
    """One model's usable training segments, stacked per length for batching.

    The features are stored in ``TRAIN_DTYPE``, the targets in float64.
    """

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
            self.X[length] = np.stack([usable[i][0] for i in members]).astype(TRAIN_DTYPE)
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


def _validation_groups(features, targets_scaled):
    """Every model's validation sequences, batched per length and stacked by shape.

    ``features[m]`` and ``targets_scaled[m]`` hold model m's sequences and
    scaled targets.  Returns (models, sequence indices per model, X of
    shape (M, B, T, D) in ``TRAIN_DTYPE``, Y of shape (M, B, T)) per batch
    shape.
    """
    groups = {}
    for m, (feats, targets) in enumerate(zip(features, targets_scaled)):
        by_length = {}
        for s, X in enumerate(feats):
            by_length.setdefault(len(X), []).append(s)
        for seqs in by_length.values():
            X = np.stack([np.asarray(feats[s], dtype=TRAIN_DTYPE) for s in seqs])
            groups.setdefault(X.shape, []).append((m, seqs, X, [targets[s] for s in seqs]))
    return [
        ([m for m, _, _, _ in group], [seqs for _, seqs, _, _ in group],
         np.stack([X for _, _, X, _ in group]), np.array([Y for _, _, _, Y in group]))
        for group in groups.values()
    ]


def _validation_loss(flat, cfg, groups, ws):
    """Mean CCC loss over each model's validation sequences, one value per model."""
    counts = np.zeros(len(flat), dtype=int)
    for members, seqs, _, _ in groups:
        counts[members] += [len(s) for s in seqs]
    losses = [np.empty(n) for n in counts]
    for members, seqs, X, Y in groups:
        pred, _ = _forward(_views(flat[_as_rows(members)], cfg), cfg, X, ws)
        for m, s, loss in zip(members, seqs, ccc_loss_grad(pred, Y)[0]):
            losses[m][s] = loss
    return np.array([row.mean() for row in losses])


def _train_step(flat, opt, cfg, members, X, Y, ws):
    """One stacked forward, backward and Adam step for the models ``members``.

    ``flat`` holds every model's parameter row; the step's buffers come
    from ``ws``.  Returns each member's summed batch loss and its count of
    usable rows.  A member whose rows are all degenerate takes no
    optimizer step.
    """
    params = _views(flat[_as_rows(members)], cfg)
    preds, cache = _forward(params, cfg, X, ws)
    loss, grad = ccc_loss_grad(preds, Y)
    counted = grad.any(axis=2).sum(axis=1)
    active = counted > 0
    if active.any():
        grads = ws.get("grads", (len(members), flat.shape[1]))
        _backward(params, cfg, cache, grad / np.maximum(counted, 1)[:, None, None],
                  _views(grads, cfg))
        if not active.all():
            grads, members = grads[active], np.asarray(members)[active]
        # The backward pass is done with dz and the first layer's gates, so
        # Adam's scratch rows borrow their buffers.
        opt.step(flat, grads, members, [ws.get(n, grads.shape) for n in ("dz", "l0.gates")])
    return loss.sum(axis=1), counted


def train_stack(
    features,
    targets,
    model_cfgs,
    train_cfg: TrainConfig,
    val_features,
    val_targets,
) -> list[TrainedModel]:
    """Fit one model per (data, target) pair, as one stack.

    ``features[m]``, ``targets[m]``, ``val_features[m]`` and
    ``val_targets[m]`` are lists of per-sequence arrays for model m, whose
    config (and seed) is ``model_cfgs[m]``; the configs must agree on
    everything but the seed.  Each model's targets are scaled into
    [-margin, margin] from its training-split range, and the scaling
    travels with the returned model.  Each model keeps the epoch with its
    best validation loss.  At every batch index, and for validation, the
    models are grouped by batch shape and each group takes one stacked
    pass; a model without a batch there, or whose batch rows are all
    degenerate, takes no optimizer step.  Training starts from the
    ``TRAIN_DTYPE`` rounding of each seeded init and runs in that dtype,
    and the returned parameters have it.  Deterministic given (seeds,
    data, config).
    """
    n_models = len(model_cfgs)
    if not n_models or any(len(a) != n_models
                           for a in (features, targets, val_features, val_targets)):
        raise ValueError("need one feature, target and validation list per model")
    if not all(features) or not all(val_features):
        raise TrainingError("empty training or validation set")
    cfg = model_cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in model_cfgs):
        raise ValueError("stacked models must agree on everything but the seed")
    scalings, pools = [], []
    for feats, t in zip(features, targets):
        scaling = TargetScaling.fit(
            np.concatenate([np.asarray(v, dtype=float) for v in t]),
            margin=train_cfg.target_margin,
        )
        scalings.append(scaling)
        pools.append(_SegmentPool(feats, [scaling.apply(v) for v in t],
                                  train_cfg.segment_length))
    val_groups = _validation_groups(
        val_features, [[s.apply(v) for v in t] for s, t in zip(scalings, val_targets)]
    )
    skipped = np.array([p.skipped_static for p in pools])
    sizes = np.array([p.size for p in pools])

    flat, _ = stack_params([{k: v.astype(TRAIN_DTYPE) for k, v in init_params(c).items()}
                            for c in model_cfgs], cfg)
    ws = _Workspace(flat.dtype)
    best_flat = flat.copy()
    best_loss = _validation_loss(flat, cfg, val_groups, ws)
    best_epoch = np.zeros(n_models, dtype=int)
    train_curve, val_curve = [], [best_loss.copy()]

    opt = Adam(flat, train_cfg.learning_rate, train_cfg.weight_decay)
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
                loss, counted = _train_step(flat, opt, cfg, members, X, Y, ws)
                total[members] += loss
                skipped[members] += Y.shape[1] - counted
        val_loss = _validation_loss(flat, cfg, val_groups, ws)
        for m in np.flatnonzero(val_loss < best_loss):
            best_loss[m] = val_loss[m]
            best_epoch[m] = epoch
            best_flat[m] = flat[m]
        train_curve.append(total / sizes)
        val_curve.append(val_loss)

    # Each model's parameters are views of its row of best_flat, flipped
    # out of stored form in place.
    best_flat *= _gate_signs(cfg)
    best_params = _views(best_flat, cfg)
    return [
        TrainedModel(
            params={k: v[m] for k, v in best_params.items()},
            config=model_cfgs[m],
            scaling=scalings[m],
            best_epoch=int(best_epoch[m]),
            skipped_segments=int(skipped[m]),
            train_loss=[None] + [float(c[m]) for c in train_curve],
            val_loss=[float(c[m]) for c in val_curve],
        )
        for m in range(n_models)
    ]


def predict(model: TrainedModel, features):
    """Forward pass mapped back to original target units."""
    return model.scaling.invert(forward(model.params, model.config, features))


def predict_stack(models, sequences):
    """Every model's predictions on each (T, D) sequence, as one (models, T) array each.

    The models must agree on everything but the seed and share a dtype.
    Each sequence takes one stacked forward pass with a batch of one, so
    row m of its result is ``predict(models[m], sequence)`` bit for bit.
    """
    cfg = models[0].config
    flat, stored = stack_params([m.params for m in models], cfg)
    ws = _Workspace(flat.dtype)
    results = []
    for x in sequences:
        y, _ = _forward(stored, cfg, np.asarray(x)[None, None], ws)
        results.append(np.stack([m.scaling.invert(row) for m, row in zip(models, y[:, 0])]))
    return results


def gradient_check(
    input_dim=3, hidden_dim=4, steps=5, seed=0, h=1e-5, zero_feature=None
):
    """Max relative error between analytic and central-difference gradients.

    Runs one CCC-loss backward pass through a stack of tiny models, one
    per seed (``seed`` is an int or a sequence of ints), each on its own
    random sequence, and perturbs every parameter entry of every model,
    in stored form: negation is exact, so the error is the one the
    un-negated parameters give.  ``zero_feature`` blanks a feature column
    so the corresponding input weights receive zero gradient.
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
    cfg = cfgs[0]
    flat, params = stack_params([init_params(c) for c in cfgs], cfg)
    ws = _Workspace(flat.dtype)

    def losses():
        pred, _ = _forward(params, cfg, x, ws)
        value, _ = ccc_loss_grad(pred, target)
        return value[:, 0]

    pred, cache = _forward(params, cfg, x, ws)
    _, dy = ccc_loss_grad(pred, target)
    analytic = np.empty_like(flat)
    _backward(params, cfg, cache, dy, _views(analytic, cfg))

    max_err = 0.0
    for m, j in np.ndindex(flat.shape):
        orig = flat[m, j]
        flat[m, j] = orig + h
        up = losses()[m]
        flat[m, j] = orig - h
        down = losses()[m]
        flat[m, j] = orig
        numeric = (up - down) / (2.0 * h)
        a = analytic[m, j]
        scale = max(abs(a), abs(numeric))
        # Below ~1e-6 the central difference is dominated by float
        # roundoff, so compare absolutely there.
        err = abs(a - numeric) if scale < 1e-6 else abs(a - numeric) / scale
        max_err = max(max_err, err)
    return max_err


# --- checkpoint I/O ---------------------------------------------------------


def save_checkpoint(model: TrainedModel, path):
    """Structured-text header plus little-endian float32 weight blocks."""
    layout = [[name, list(model.params[name].shape)] for name in sorted(model.params)]
    header = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "scaling": asdict(model.scaling),
        "best_epoch": model.best_epoch,
        "skipped_segments": model.skipped_segments,
        "layout": layout,
    }
    blocks = [model.params[name].astype("<f4").tobytes() for name, _ in layout]
    _atomic_write(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
                  + b"".join(blocks))


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; a malformed one is a ``ValueError`` naming ``path``.

    The weights come back in ``TRAIN_DTYPE``, so ``predict`` on a loaded
    model runs as the evaluation in ``train-eval`` did.  Format 1 held
    float64 weights of models trained in float64; it is refused.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: not a model checkpoint: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        try:
            version = header.get("format_version")
            if version == 1:
                raise ValueError("unsupported format_version 1 (float64 weights from an "
                                 "earlier release); re-run train-eval to write format 2")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported format_version {version!r}")
            config = ModelConfig(**header["config"])
            scaling = TargetScaling(**header["scaling"])
            _check_real("scaling.scale", scaling.scale, lambda v: v != 0 and math.isfinite(v),
                        "a finite non-zero number")
            _check_real("scaling.shift", scaling.shift, math.isfinite, "a finite number")
            _check_int("best_epoch", header["best_epoch"], 0)
            _check_int("skipped_segments", header["skipped_segments"], 0)
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
            buf = fh.read(count * 4)
            if len(buf) != count * 4:
                raise ValueError(f"{path}: truncated weight block for {name}")
            params[name] = np.frombuffer(buf, dtype="<f4").reshape(shape).astype(TRAIN_DTYPE)
    return TrainedModel(
        params=params,
        config=config,
        scaling=scaling,
        best_epoch=header["best_epoch"],
        skipped_segments=header["skipped_segments"],
    )
