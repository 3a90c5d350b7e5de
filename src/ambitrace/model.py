"""Sequence regressor: two-layer unidirectional LSTM with a tanh head.

Implemented directly in numpy so that training is bitwise reproducible
from a seed and the backward pass can be verified against finite
differences.  Training minimizes the concordance loss 1 - ccc(pred, target)
per segment with Adam, taking the concordance from ``metrics``, so the
reported CCC and the trained one have one definition; a separate model is
trained per target channel (mu-like or sigma-like).

A stack computes in the dtype of the parameter arrays it is built from.
Training and prediction run in float32 (``TRAIN_DTYPE``): the forward and
backward passes and Adam's state, which hold nearly all the work and the
memory.  The loss and its gradient, the target scaling and the metrics
stay in float64.  ``init_params`` returns float64, so the reference tests
and the gradient check in them run float64 stacks.

The models of several folds are trained as one stack of one config:
every parameter tensor carries a leading model axis, and the forward pass,
backward pass, loss and optimizer step each run once for the models whose
batches share a shape (``_stack_by_shape``, for training steps and
validation alike).  The models stay independent: each has its own seed,
data, shuffle order, target scaling, Adam state and best epoch, and ends
bit for bit where training it alone would.  A stack's parameters, gradients and
Adam moments are flat (models, P) buffers with named views, kept in the
stored form ``_gate_signs`` describes.  Its passes share one workspace,
allocated once from ``_buffer_plan``, so a training step allocates no large
array; ``stack_bytes`` counts what a stack allocates, so callers can size stacks.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data_io import (AmbitraceError, DataError, ModelConfig, TrainConfig, _check_int,
                      _check_real, parse_section, write_file)
from .metrics import _concordance

CHECKPOINT_MAGIC = "ambitrace-checkpoint"
CHECKPOINT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The dtype every training and prediction pass runs in; not a setting.
TRAIN_DTYPE = np.float32


class TrainingError(AmbitraceError, RuntimeError):
    """Training could not proceed (empty data, unusable targets or a lost worker)."""

    exit_code = 4
    prefix = "training failed: "


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


def _param_count(cfg) -> int:
    """P, the length of a flat parameter row."""
    return sum(math.prod(shape) for shape in _param_shapes(cfg).values())


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


def _buffer_plan(cfg, shapes):
    """Per model, the elements each user of a workspace buffer takes at any of
    the (T, B) batch shapes ``shapes``: {buffer: {user: elements}}.  A buffer's
    users take it in turn within a pass, so it holds the largest of them."""
    D, H, P = cfg.input_dim, cfg.hidden_dim, _param_count(cfg)
    rows = max((T * B for T, B in shapes), default=0)
    states = H * max(((T + 1) * B for T, B in shapes), default=0)  # with the initial state
    batch = max((B for _, B in shapes), default=0)
    plan = {
        # The top layer's dz scratch, then each layer's d loss/d h (read only
        # in its time loop, before it writes the next), then the gradient rows.
        "d_h": {"l1.spare": rows * H, "d_h": rows * H, "grads": P},
        # tanh(c) and the dc/dh factor, then the model-major copies of the inputs.
        "tanh_c": {"tanh_c": rows * H, "inputs": rows * max(D, H)},
        "y": {"y": rows}, "z": {"z": 4 * H * batch},
        **{name: {name: H * batch} for name in ("ig", "dh", "dc", "dh+", "dc+")},
    }
    for layer, width in enumerate([D] + [H] * (cfg.num_layers - 1)):
        name = f"l{layer}."
        plan[name + "gates"] = {name + "gates": 4 * H * rows}
        plan[name + "c"] = {name + "c": states, name + "block": 4 * H * max(width, H)}
        plan[name + "h"] = {name + "h": states}
    # Once the backward pass is done with them, the gates take Adam's scratch
    # rows; once its time loop is, the top layer's c the dz scratch below it.
    plan["l0.gates"]["update"] = plan["l1.gates"]["denom"] = P
    plan["l1.c"]["l0.spare"] = rows * H
    return plan


def _batch_shapes(train_cfg, runs):
    """The (T, B) batch shapes of a stack's training steps and validation passes,
    from each model's (training lengths, validation lengths) in ``runs``."""
    shapes = set()
    for train, val in runs:
        segments = Counter(stop - start for length in train
                           for start, stop in _segment_bounds(length, train_cfg.segment_length))
        shapes.update((T, min(n, train_cfg.batch_segments)) for T, n in segments.items())
        shapes.update(Counter(val).items())
    return shapes


class _Workspace:
    """The scratch buffers of every pass over a stack of ``n_models``, each
    allocated once at the most its users take in ``_buffer_plan``.  ``get``
    returns a C-contiguous view of the first elements of a user's buffer (a
    shape beyond the plan fails to reshape): the layout numpy gives the
    temporaries these views replace, so sums over them add in the same order
    and the results are bit-identical."""

    def __init__(self, cfg, n_models, shapes, dtype):
        plan = _buffer_plan(cfg, shapes)
        self._buffers = {name: np.empty(n_models * max(users.values()), dtype)
                         for name, users in plan.items()}
        self._lenders = {user: name for name, users in plan.items() for user in users}

    def get(self, user, shape):
        return self._buffers[self._lenders[user]][:math.prod(shape)].reshape(shape)


def _layer_forward(inp, params, layer, ws):
    """One LSTM layer over time-major (T, Mx, B, D) inputs; returns its cache.

    The input projection runs for all steps before the time loop, into
    the gate buffer.  The gate buffer is model-major, (M, T, B, 4H), so the
    backward pass forms ``dz`` in place over it.  The gate layout is i, f,
    g, o; index 0 of ``c`` and ``h`` holds the zero initial state.
    ``tanh(c)`` is not kept: the backward pass takes it again.  ``params``
    are in stored form, so the sigmoid gates' pre-activations come out
    negated.  A saturated gate's ``exp`` may overflow (above 88 in
    float32); 1 / (1 + inf) = 0 is then the exact sigmoid, so the overflow
    is not reported.
    """
    T, _, B, _ = inp.shape
    Wx, Wh, b = (params[f"l{layer}.{n}"] for n in ("Wx", "Wh", "b"))
    M, H = Wh.shape[0], Wh.shape[1]
    name = f"l{layer}."
    gates = ws.get(name + "gates", (M, T, B, 4 * H))
    steps = gates.transpose(1, 0, 2, 3)
    np.matmul(inp, Wx, out=steps)
    steps += b[:, None, :]
    c = ws.get(name + "c", (T + 1, M, B, H))
    h = ws.get(name + "h", (T + 1, M, B, H))
    c[0] = 0.0
    h[0] = 0.0
    z = ws.get("z", (M, B, 4 * H))
    ig = ws.get("ig", (M, B, H))
    i, f, g, o = (z[..., k * H : (k + 1) * H] for k in range(4))
    with np.errstate(over="ignore"):
        for t in range(T):
            # A step's gates are formed in z, whose (M, B, 4H) block is
            # contiguous, and stored in the cache with one copy; g's tanh
            # waits in ig while every column of z passes the sigmoid.
            np.matmul(h[t], Wh, out=z)
            z += steps[t]
            np.tanh(g, out=ig)
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)
            np.copyto(g, ig)
            steps[t] = z
            c_t = c[t + 1]
            np.multiply(f, c[t], out=c_t)
            np.multiply(i, g, out=ig)
            c_t += ig
            np.tanh(c_t, out=ig)
            np.multiply(o, ig, out=h[t + 1])
    return {"inp": inp, "gates": gates, "c": c, "h": h}


def _forward(params, cfg, x, ws):
    """Run a stack of M models over a (M, B, T, D) batch.

    Every tensor in ``params`` has a leading model axis of length M and is
    in stored form (see ``_gate_signs``); an input with a leading axis of
    1 feeds the same batch to every model.  The pass runs in the dtype of
    ``params``, to which ``x`` is cast.  Returns the (M, B, T) outputs and
    the cache for ``_backward``, which lives in ``ws`` until its next pass.
    """
    dtype = params["head.b"].dtype
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 4:
        raise ValueError(f"expected a (models, batch, time, features) array, got {x.shape}")
    if x.shape[3] != cfg.input_dim:
        raise ValueError(f"expected input_dim {cfg.input_dim}, got {x.shape[3]}")
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
    The blocks are added as (M, P*Q) rows: on a 3-D view into a flat
    gradient row, numpy's in-place add would allocate a copy.
    """
    rows = max(1, _MAX_PRODUCT_MACS // (a.shape[2] * b.shape[2]))
    np.matmul(a[:, :rows].transpose(0, 2, 1), b[:, :rows], out=out)
    total, block = out.reshape(len(out), -1), part.reshape(len(part), -1)
    for start in range(rows, a.shape[1], rows):
        np.matmul(a[:, start : start + rows].transpose(0, 2, 1), b[:, start : start + rows],
                  out=part)
        total += block


def _dz_factors(lc, spare, tanh_c):
    """Overwrite a layer's cache with the parts of its ``dz`` known before backprop.

    ``dz = [dc*g*i', dc*c_prev*f', dc*i*g', dh*tanh(c)*o']``; the parts that
    do not depend on the gradients carried back through time are formed
    here, in place over the model-major gate buffer, and scaled in place in
    the time loop.  The stored form's sigmoid' is (s-1)*s, the exact
    negation of s*(1-s).  ``tanh(c)`` is taken again, into ``tanh_c``, which
    is left holding the loop's dc/dh factor tanh'(c)*o; the forget gate,
    which the loop also reads, moves to ``c[1:]`` once ``c`` is dead.
    ``spare`` and ``tanh_c`` have shape (T, M, B, H).  Each pair of parts
    reads both of its inputs, so the pair is formed in these two buffers
    and then copied in; an operation that read one gate's columns into
    another's would make numpy copy its input.
    """
    gates, c = lc["gates"], lc["c"]
    H = tanh_c.shape[3]
    i, f, g, o = (gates.transpose(1, 0, 2, 3)[..., k * H : (k + 1) * H] for k in range(4))
    np.subtract(i, 1.0, out=spare)
    spare *= i
    spare *= g
    np.square(g, out=tanh_c)
    np.subtract(1.0, tanh_c, out=tanh_c)
    tanh_c *= i
    np.copyto(i, spare)
    np.copyto(g, tanh_c)
    np.tanh(c[1:], out=tanh_c)
    np.copyto(spare, f)
    np.subtract(spare, 1.0, out=f)
    f *= spare
    f *= c[:-1]
    np.copyto(c[1:], spare)
    np.subtract(o, 1.0, out=spare)
    spare *= o
    spare *= tanh_c
    np.square(tanh_c, out=tanh_c)
    np.subtract(1.0, tanh_c, out=tanh_c)
    tanh_c *= o
    np.copyto(o, spare)


def _layer_backward(lc, params, layer, d_out, dc_dh, ws):
    """Backprop through time for one layer, given d loss/d h of shape (T, M, B, H).

    ``lc`` holds what ``_dz_factors`` left of the layer's cache, and
    ``dc_dh`` the dc/dh factor it formed; the time loop finishes the
    layer's ``dz`` in place.  Returns d loss/d input, or None for the first
    layer.
    """
    Wx, Wh = params[f"l{layer}.Wx"], params[f"l{layer}.Wh"]
    dz, forget = lc["gates"], lc["c"][1:]
    M, T, B, H4 = dz.shape
    H = H4 // 4
    dz_t = dz.transpose(1, 0, 2, 3)
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
        np.multiply(dc, forget[t], out=dc_next)
        np.matmul(dz_t[t], Wh_T, out=dh_next)
    if layer == 0:
        return None
    d_in = ws.get("d_h", (M, T, B, Wx.shape[1]))
    np.matmul(dz, Wx.transpose(0, 2, 1)[:, None], out=d_in)
    return d_in.transpose(1, 0, 2, 3)


def _weight_grads(lc, layer, grads, ws):
    """Write a layer's weight gradients, from its finished ``dz``, into ``grads``.

    They sum over (t, b) rows within each model, so the model-major ``dz`` needs no copy."""
    dz = lc["gates"]
    M, T, B, H4 = dz.shape
    dz = dz.reshape(M, T * B, H4)
    name = f"l{layer}."
    for a, key in ((lc["inp"], "Wx"), (lc["h"][:-1], "Wh")):
        rows = ws.get("inputs", (M, T, B, a.shape[3]))
        np.copyto(rows, a.transpose(1, 0, 2, 3))
        out = grads[name + key]
        _row_products(rows.reshape(M, T * B, -1), dz, out, ws.get(name + "block", out.shape))
    grads[name + "b"][...] = dz.sum(axis=1)


def _backward(params, cfg, cache, dy):
    """Per-model gradients of a summed loss, given d loss/d y of shape (M, B, T).

    Returns a (M, P) buffer of the workspace, with rows as ``_views``
    reads them and in stored form like ``params``; it holds until the
    workspace's next pass.  ``dy`` is cast to the dtype of ``params``.  The
    pass consumes the cache.
    """
    ws = cache["ws"]
    y = cache["y"]
    layers = cache["layers"]
    top = layers[-1]["h"][1:]
    ds = np.asarray(dy, dtype=y.dtype).transpose(2, 0, 1) * (1.0 - y**2)
    tanh_c = ws.get("tanh_c", top.shape)
    d_out = ws.get("d_h", top.shape)
    for layer in range(cfg.num_layers - 1, -1, -1):
        _dz_factors(layers[layer], ws.get(f"l{layer}.spare", top.shape), tanh_c)
        if layer == cfg.num_layers - 1:  # its dz scratch was d_out's buffer
            np.multiply(ds[..., None], params["head.w"][:, None, :], out=d_out)
        d_out = _layer_backward(layers[layer], params, layer, d_out, tanh_c, ws)
    # The weight gradients need only the finished dz's and inputs: they come last.
    flat = ws.get("grads", (top.shape[1], _param_count(cfg)))
    grads = _views(flat, cfg)
    grads["head.w"][...] = np.multiply(ds[..., None], top, out=tanh_c).sum(axis=(0, 2))
    # Summed over b within each step, then step by step: a plain sum over
    # both axes would add a one-model stack's (T, 1, B) block in another
    # order than a larger stack's, and a model would not end where it
    # ends trained beside others.
    grads["head.b"][...] = np.cumsum(ds.sum(axis=2), axis=0)[-1][:, None]
    for layer, lc in enumerate(layers):
        _weight_grads(lc, layer, grads, ws)
    return flat


def ccc_loss_grad(pred, target):
    """Concordance loss 1 - ccc and its gradient w.r.t. the prediction.

    Works on the last axis, so a (..., T) stack of segments gives (...)
    losses and a (..., T) gradient.  The concordance is the metric's
    (``metrics._concordance``): a degenerate segment (flat prediction and
    target with equal means) has loss 1 and zero gradient.
    """
    value, xc, yc, mx, my, denom, usable = _concordance(pred, target)
    n = xc.shape[-1]
    dcov = yc / n
    ddenom = 2.0 * xc / n + 2.0 * (mx - my)[..., None] / n
    dccc = (2.0 * dcov - value[..., None] * ddenom) / denom[..., None]
    return 1.0 - value, np.where(usable[..., None], -dccc, 0.0)


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

    def step(self, params, grads, models, scratch):
        """Update the rows ``models`` of ``params``.

        ``grads`` holds the gradient rows of just those models, in that
        order.  ``scratch`` is two buffers of the shape of ``grads`` that
        the step may overwrite.
        """
        sel = _as_rows(models)
        self.t[sel] += 1
        b1t = (1.0 - ADAM_BETA1 ** self.t[sel])[:, None].astype(params.dtype)
        b2t = (1.0 - ADAM_BETA2 ** self.t[sel])[:, None].astype(params.dtype)
        m, v, w = self.m[sel], self.v[sel], params[sel]
        update, denom = scratch
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


def _segment_bounds(length, segment_length):
    """(start, stop) of each piece of ``segment_length`` steps that a sequence
    is cut into, but a last piece of one step, which has no variance."""
    return [(start, min(start + segment_length, length))
            for start in range(0, length, segment_length) if length - start >= 2]


def _segment(features, targets, segment_length):
    segments = []
    for X, y in zip(features, targets):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise TrainingError("feature/target length mismatch")
        segments += [(X[start:stop], y[start:stop])
                     for start, stop in _segment_bounds(len(X), segment_length)]
    return segments


def _stack_by_length(features, targets):
    """One model's sequences stacked per length, in first-seen order.

    Returns (sequence indices, X of shape (B, T, D) in ``TRAIN_DTYPE``, Y of
    shape (B, T)) per length.
    """
    by_length = {}
    for idx, X in enumerate(features):
        by_length.setdefault(len(X), []).append(idx)
    return [(members, np.stack([np.asarray(features[i], dtype=TRAIN_DTYPE) for i in members]),
             np.stack([targets[i] for i in members]))
            for members in by_length.values()]


def _stack_by_shape(runs):
    """Per-model (key, X, Y) triples stacked by the shape of X, in first-seen order.

    Returns (keys, X, Y) per shape, X and Y with a leading model axis.
    """
    groups = {}
    for key, X, Y in runs:
        groups.setdefault(X.shape, []).append((key, X, Y))
    return [([key for key, _, _ in group], np.stack([X for _, X, _ in group]),
             np.stack([Y for _, _, Y in group]))
            for group in groups.values()]


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
        self.rank = np.empty(len(usable), dtype=int)
        self.X, self.Y = {}, {}
        for members, X, Y in _stack_by_length(*zip(*usable)):
            self.rank[members] = np.arange(len(members))
            self.X[X.shape[1]], self.Y[X.shape[1]] = X, Y

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
    scaled targets.  Returns ((model, sequence indices) per stacked model,
    X of shape (M, B, T, D) in ``TRAIN_DTYPE``, Y of shape (M, B, T)) per
    batch shape.
    """
    return _stack_by_shape(((m, seqs), X, Y)
                           for m, (feats, targets) in enumerate(zip(features, targets_scaled))
                           for seqs, X, Y in _stack_by_length(feats, targets))


def _validation_loss(flat, cfg, groups, ws):
    """Mean CCC loss over each model's validation sequences, one value per model."""
    counts = np.zeros(len(flat), dtype=int)
    for keys, _, _ in groups:
        for m, seqs in keys:
            counts[m] += len(seqs)
    losses = [np.empty(n) for n in counts]
    for keys, X, Y in groups:
        pred, _ = _forward(_views(flat[_as_rows([m for m, _ in keys])], cfg), cfg, X, ws)
        for (m, seqs), loss in zip(keys, 1.0 - _concordance(pred, Y)[0]):
            losses[m][seqs] = loss
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
        grads = _backward(params, cfg, cache, grad / np.maximum(counted, 1)[:, None, None])
        if not active.all():
            grads, members = grads[active], np.asarray(members)[active]
        opt.step(flat, grads, members, [ws.get(n, grads.shape) for n in ("update", "denom")])
    return loss.sum(axis=1), counted


def stack_bytes(cfg: ModelConfig, train_cfg: TrainConfig, runs) -> int:
    """The bytes ``train_stack`` allocates for a stack's workspace and flat
    parameter, best and Adam rows, given each model's (training lengths,
    validation lengths) in ``runs``."""
    plan = _buffer_plan(cfg, _batch_shapes(train_cfg, runs))
    workspace = sum(max(users.values()) for users in plan.values())
    rows = 4 * _param_count(cfg)  # flat, best and Adam's two moments
    return len(runs) * ((workspace + rows) * np.dtype(TRAIN_DTYPE).itemsize
                        + np.dtype(int).itemsize)  # Adam's step count


def train_stack(cfg: ModelConfig, train_cfg: TrainConfig, runs) -> list[TrainedModel]:
    """Fit one model per run, as one stack.

    Each run is (seed, features, targets, val_features, val_targets); the
    four lists hold per-sequence arrays, and the run's model is ``cfg``
    with that seed.  Each model's targets are scaled into [-margin, margin]
    from its training-split range, and the scaling travels with the
    returned model.  Each model keeps the epoch with its best validation
    loss.  At every batch index, and for validation, the models are
    grouped by batch shape and each group takes one stacked pass; a model
    without a batch there, or whose batch rows are all degenerate, takes no
    optimizer step.  Training starts from the ``TRAIN_DTYPE`` rounding of
    each seeded init and runs in that dtype, and the returned parameters
    have it.  Deterministic given (seeds, data, config).
    """
    seeds, features, targets, val_features, val_targets = zip(*runs)
    if not all(features) or not all(val_features):
        raise TrainingError("empty training or validation set")
    if cfg.input_dim is None:
        raise ValueError("a model config needs input_dim, the feature width")
    configs = [replace(cfg, seed=seed) for seed in seeds]
    n_models = len(configs)
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
                            for c in configs], cfg)
    lengths = [([len(x) for x in f], [len(x) for x in v]) for f, v in zip(features, val_features)]
    ws = _Workspace(cfg, n_models, _batch_shapes(train_cfg, lengths), flat.dtype)
    best_flat = flat.copy()
    best_loss = _validation_loss(flat, cfg, val_groups, ws)
    best_epoch = np.zeros(n_models, dtype=int)
    train_curve, val_curve = [], [best_loss.copy()]

    opt = Adam(flat, train_cfg.learning_rate, train_cfg.weight_decay)
    rngs = [np.random.default_rng(seed + 1) for seed in seeds]
    for epoch in range(1, train_cfg.max_epochs + 1):
        batches = [p.batches(rng, train_cfg.batch_segments) for p, rng in zip(pools, rngs)]
        total = np.zeros(n_models)
        for step in range(max(map(len, batches))):
            ready = [(m, *pools[m].take(batches[m][step]))
                     for m in range(n_models) if step < len(batches[m])]
            for members, X, Y in _stack_by_shape(ready):
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
            config=configs[m],
            scaling=scalings[m],
            best_epoch=int(best_epoch[m]),
            skipped_segments=int(skipped[m]),
            train_loss=[None] + [float(c[m]) for c in train_curve],
            val_loss=[float(c[m]) for c in val_curve],
        )
        for m in range(n_models)
    ]


def predict_stack(models, sequences):
    """Every model's predictions on each (T, D) sequence, as one (models, T) array each.

    The models must agree on everything but the seed and share a dtype.
    Each sequence takes one stacked forward pass with a batch of one, so
    row m of its result is, bit for bit, what ``predict_stack([models[m]], ...)``
    gives.
    """
    cfg = models[0].config
    flat, stored = stack_params([m.params for m in models], cfg)
    ws = _Workspace(cfg, len(models), {(len(x), 1) for x in sequences}, flat.dtype)
    results = []
    for x in sequences:
        y, _ = _forward(stored, cfg, np.asarray(x)[None, None], ws)
        results.append(np.stack([m.scaling.invert(row) for m, row in zip(models, y[:, 0])]))
    return results


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
    write_file(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
               + b"".join(blocks))


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint; an unreadable or malformed one is a ``DataError`` naming ``path``.

    The weights come back in ``TRAIN_DTYPE``, so ``predict_stack`` on a
    loaded model runs as the evaluation in ``train-eval`` did.  Format 1 held
    float64 weights of models trained in float64; it is refused.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    with fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise DataError(f"{path}: not a model checkpoint: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint")
        try:
            version = header.get("format_version")
            if version == 1:
                raise ValueError("unsupported format_version 1 (float64 weights from an "
                                 "earlier release); re-run train-eval to write format 2")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported format_version {version!r}")
            config = parse_section("config", header["config"], ModelConfig)
            _check_int("config.input_dim", config.input_dim, 1)
            scaling = TargetScaling(**header["scaling"])
            _check_real("scaling.scale", scaling.scale, lambda v: v != 0 and math.isfinite(v),
                        "a finite non-zero number")
            _check_real("scaling.shift", scaling.shift, math.isfinite, "a finite number")
            _check_int("best_epoch", header["best_epoch"], 0)
            _check_int("skipped_segments", header["skipped_segments"], 0)
        except KeyError as exc:
            raise DataError(f"{path}: checkpoint header lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
        layout = [[name, list(shape)] for name, shape in sorted(_param_shapes(config).items())]
        if header.get("layout") != layout:
            raise DataError(f"{path}: weight layout does not match the config's shapes")
        params = {}
        for name, shape in layout:
            count = int(np.prod(shape))
            buf = fh.read(count * 4)
            if len(buf) != count * 4:
                raise DataError(f"{path}: truncated weight block for {name}")
            params[name] = np.frombuffer(buf, dtype="<f4").reshape(shape).astype(TRAIN_DTYPE)
    return TrainedModel(
        params=params,
        config=config,
        scaling=scaling,
        best_epoch=header["best_epoch"],
        skipped_segments=header["skipped_segments"],
    )
