"""Neural slice selection: encoder / mixer / decoder over request features.

A request is embedded as a short sequence (one position per feature).  The
input encoder stacks four convolution steps (ReLU, depthwise-separable
convolution, per-position layer normalization) with residual additions;
the I/O mixer concatenates the encoded input with the encoded output
history; the decoder runs the same convolution stack plus scaled
dot-product attention back onto the encoder output, and a linear head
produces one logit per slice.

Everything is implemented directly on float64 NumPy arrays with
hand-written backward passes so gradients can be finite-difference
checked.  Inside, activations are held channels-first, as (channels,
length, batch), so that every contraction is a BLAS matrix product; the
public functions take and return (length, channels) and (batch, features)
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Optional, Sequence

import numpy as np

from .domain import ServiceType

LN_EPS = 1e-5
DROP_PROB = 0.5
N_CLASSES = 3
ENC_KERNELS = (3, 3, 15, 15)
ATTN_KERNEL = 5
DEFAULT_D_MODEL = 8
# The widest model a scenario or ``train-slicenet`` may ask for: 1.75 M
# parameters at 7 features.
MAX_D_MODEL = 256
DEFAULT_N_FEATURES = 7
LEARNING_RATE_RANGE = (0.001, 0.1)
# Rows per forward pass in ``SliceNetModel.logits``.
LOGITS_CHUNK_ROWS = 64


class DivergedModelError(RuntimeError):
    """Forward pass produced non-finite logits."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class SliceFeatureVector:
    """Normalized request features: service one-hot, SLA fairness, identity
    hash, capacity hint and mobility, each in [0, 1]."""

    service_type: ServiceType
    fair_sla: float
    imsi_hash: float
    capacity: float
    mobility: float

    def __post_init__(self):
        for name in ("fair_sla", "imsi_hash", "capacity", "mobility"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be normalized to [0, 1] (got {v!r})")

    def to_array(self) -> np.ndarray:
        onehot = [0.0, 0.0, 0.0]
        onehot[_CLASS_INDEX[self.service_type]] = 1.0
        return np.array(
            onehot + [self.fair_sla, self.imsi_hash, self.capacity, self.mobility],
            dtype=np.float64,
        )


_CLASS_INDEX = {ServiceType.EMBB: 0, ServiceType.URLLC: 1, ServiceType.MMTC: 2}
_INDEX_CLASS = {v: k for k, v in _CLASS_INDEX.items()}


@dataclass(frozen=True)
class SliceDecision:
    indicator: tuple[int, int, int]
    slice_id: str
    confidence: float

    def __post_init__(self):
        if self.indicator not in ((0, 0, 1), (0, 1, 0), (1, 1, 1)):
            raise ValueError(f"unknown slice indicator {self.indicator!r}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must be in [0, 1]")


# ---------------------------------------------------------------------------
# primitive ops (batched, with hand-written backward passes)
# ---------------------------------------------------------------------------


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@lru_cache(maxsize=8)
def timing_signal(length: int, channels: int) -> np.ndarray:
    """Sinusoidal position table added to the attention target (read-only,
    built once per shape)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(channels, dtype=np.float64)[None, :]
    rates = 1.0 / np.power(10000.0, (2.0 * (idx // 2)) / max(channels, 1))
    table = pos * rates
    signal = np.where(idx % 2 == 0, np.sin(table), np.cos(table))
    signal.flags.writeable = False
    return signal


@dataclass
class ConvStepParams:
    """One convolution step: depthwise kernel, pointwise mix, layer norm."""

    dw: np.ndarray  # (kernel, c_in)
    pw: np.ndarray  # (c_in, c_out)
    pb: np.ndarray  # (c_out,)
    ln_gain: np.ndarray  # (c_out,)
    ln_bias: np.ndarray  # (c_out,)

    @property
    def kernel(self) -> int:
        return self.dw.shape[0]


@lru_cache(maxsize=8)
def _tap_index(length: int, kernel: int) -> np.ndarray:
    """``idx[l, m]``: the tap joining output ``l`` to input ``m`` in a
    same-length convolution, or ``kernel`` (a zero column) outside the band."""
    tap = np.arange(length)[None, :] - np.arange(length)[:, None] + (kernel - 1) // 2
    idx = np.where((tap >= 0) & (tap < kernel), tap, kernel)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=8)
def _tap_fold(length: int, kernel: int) -> np.ndarray:
    """``fold[l * length + m, t]`` is 1 where ``_tap_index`` joins output
    ``l`` to input ``m`` through tap ``t``, else 0: a flattened band
    gradient times it is the kernel gradient."""
    idx = _tap_index(length, kernel).reshape(-1, 1)
    fold = (idx == np.arange(kernel)).astype(np.float64)
    fold.flags.writeable = False
    return fold


@lru_cache(maxsize=8)
def _band_index(shapes: tuple[tuple[int, int], ...], length: int) -> np.ndarray:
    """Where each entry of a stack of depthwise bands sits among the
    kernels' entries laid end to end, row-major, with one zero appended.

    A (taps, channels) kernel ``dw`` has one (length, length) band per
    channel, ``band[c, l, m] = dw[m - l + pad, c]`` inside the band and the
    appended zero outside; the kernels' bands are stacked along the channel
    axis, in the order of ``shapes``.
    """
    size = sum(k * c for k, c in shapes)
    parts, offset = [], 0
    for kernel, channels in shapes:
        tap = _tap_index(length, kernel)
        idx = offset + tap * channels + np.arange(channels)[:, None, None]
        parts.append(np.where(tap == kernel, size, idx))
        offset += kernel * channels
    index = np.concatenate(parts)
    index.flags.writeable = False
    return index


def _bands(kernels: Sequence[np.ndarray], length: int) -> list[np.ndarray]:
    """The (channels, length, length) band of each depthwise kernel, all from
    one ``take``.  A same-length depthwise convolution along the length axis
    of a (channels, length, batch) array ``a`` is ``band @ a``."""
    entries = np.concatenate([dw.ravel() for dw in kernels] + [np.zeros(1)])
    bands = entries.take(_band_index(tuple(dw.shape for dw in kernels), length))
    ends = accumulate(dw.shape[1] for dw in kernels)
    return [bands[end - dw.shape[1] : end] for dw, end in zip(kernels, ends)]


def _depthwise_bwd(dout: np.ndarray, a: np.ndarray, band: np.ndarray, kernel: int):
    """Gradients of the depthwise convolution ``band @ a`` for its input and
    its kernel."""
    c, length, _ = a.shape
    da = band.swapaxes(1, 2) @ dout
    d_band = dout @ a.swapaxes(1, 2)
    d_dw = (d_band.reshape(c, -1) @ _tap_fold(length, kernel)).T
    return da, d_dw


def _conv_step_fwd(p: ConvStepParams, x: np.ndarray, band: np.ndarray):
    """LN(pointwise(depthwise(relu(x)))) with everything cached for backward;
    ``band`` is ``p.dw``'s band."""
    a = np.maximum(x, 0.0)
    d = band @ a
    c_in, length, b = d.shape
    s = p.pw.T @ d.reshape(c_in, -1) + p.pb[:, None]
    c = len(s)
    # the same operations as s.mean and s.var, with s - mean taken once
    xc = s - s.sum(axis=0) / c
    var = (xc * xc).sum(axis=0) / c
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = p.ln_gain[:, None] * xhat + p.ln_bias[:, None]
    cache = (x, a, band, d, xhat, inv)
    return out.reshape(c, length, b), cache


def _conv_step_bwd(p: ConvStepParams, cache, dout: np.ndarray, grads: dict, prefix: str):
    x, a, band, d, xhat, inv = cache
    c = len(xhat)
    dout = dout.reshape(c, -1)
    # each step's gradient views are written once per backward pass
    np.sum(dout * xhat, axis=1, out=grads[prefix + "ln_gain"])
    np.sum(dout, axis=1, out=grads[prefix + "ln_bias"])
    dxhat = dout * p.ln_gain[:, None]
    ds = inv / c * (
        c * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
    )
    grads[prefix + "pw"] += d.reshape(len(d), -1) @ ds.T
    np.sum(ds, axis=1, out=grads[prefix + "pb"])
    dd = (p.pw @ ds).reshape(d.shape)
    da, d_dw = _depthwise_bwd(dd, a, band, p.kernel)
    grads[prefix + "dw"] += d_dw
    return da * (x > 0.0)


def conv_step(params: ConvStepParams, x: np.ndarray) -> np.ndarray:
    """Single-instance convolution step on a (length, channels) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("conv_step input must be (length, channels)")
    if x.shape[1] != params.dw.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, kernel expects {params.dw.shape[1]}"
        )
    (band,) = _bands([params.dw], len(x))
    out, _ = _conv_step_fwd(params, x.T[:, :, None], band)
    return out[:, :, 0].T


@dataclass
class ConvModuleParams:
    """Four convolution steps with residual additions after steps 2 and 4."""

    steps: list[ConvStepParams]

    def __post_init__(self):
        if len(self.steps) != 4:
            raise ValueError("the convolution module stacks exactly four steps")


def _conv_module_fwd(
    m: ConvModuleParams,
    x: np.ndarray,
    bands: Sequence[np.ndarray],
    training: bool,
    rng: Optional[np.random.Generator],
):
    h1, c1 = _conv_step_fwd(m.steps[0], x, bands[0])
    s2, c2 = _conv_step_fwd(m.steps[1], h1, bands[1])
    h2 = x + s2
    h3, c3 = _conv_step_fwd(m.steps[2], h2, bands[2])
    s4, c4 = _conv_step_fwd(m.steps[3], h3, bands[3])
    h4 = x + s4
    if training:
        if rng is None:
            raise ValueError("training mode needs an rng for dropout")
        # drawn as (batch, length, channels), the order the stream is pinned in
        mask = (rng.random(h4.shape[::-1]) >= DROP_PROB).astype(np.float64).T
        out = h4 * mask / (1.0 - DROP_PROB)
    else:
        mask = None
        out = h4
    return out, (c1, c2, c3, c4, mask)


def _conv_module_bwd(m: ConvModuleParams, cache, dout: np.ndarray, grads: dict, prefix: str):
    c1, c2, c3, c4, mask = cache
    if mask is not None:
        dout = dout * mask / (1.0 - DROP_PROB)
    dh3 = _conv_step_bwd(m.steps[3], c4, dout, grads, prefix + "4_")
    dh2 = _conv_step_bwd(m.steps[2], c3, dh3, grads, prefix + "3_")
    dh1 = _conv_step_bwd(m.steps[1], c2, dh2, grads, prefix + "2_")
    # residuals into h4 and h2
    return dout + dh2 + _conv_step_bwd(m.steps[0], c1, dh1, grads, prefix + "1_")


def conv_module(
    params: ConvModuleParams,
    x: np.ndarray,
    mode: str = "inference",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Single-instance module: h1..h4 with residuals, dropout when training."""
    if mode not in ("training", "inference"):
        raise ValueError("mode must be 'training' or 'inference'")
    x = np.asarray(x, dtype=np.float64)
    bands = _bands([step.dw for step in params.steps], len(x))
    out, _ = _conv_module_fwd(params, x.T[:, :, None], bands, mode == "training", rng)
    return out[:, :, 0].T


@dataclass
class AttentionParams:
    """Two projection steps feeding scaled dot-product attention."""

    proj1: ConvStepParams  # target channels -> target channels
    proj2: ConvStepParams  # target channels -> source channels


def _attention_fwd(
    p: AttentionParams, source: np.ndarray, target: np.ndarray, bands: Sequence[np.ndarray]
):
    ct, lt, _ = target.shape
    t_in = target + timing_signal(lt, ct).T[:, :, None]
    q1, c1 = _conv_step_fwd(p.proj1, t_in, bands[0])
    q2, c2 = _conv_step_fwd(p.proj2, q1, bands[1])
    scale = 1.0 / math.sqrt(len(source))
    # batch-first copies: each row's (positions, channels) matrices are
    # the operands of one batched matmul
    q = np.ascontiguousarray(q2.T)
    src = np.ascontiguousarray(source.T)
    scores = (q @ src.swapaxes(1, 2)) * scale
    weights = softmax(scores, axis=-1)
    out = (weights @ src).T
    cache = (c1, c2, q, src, weights, scale)
    return out, cache


def _attention_bwd(p: AttentionParams, cache, dout: np.ndarray, grads: dict, prefix: str):
    c1, c2, q, src, weights, scale = cache
    dout = np.ascontiguousarray(dout.T)
    d_weights = dout @ src.swapaxes(1, 2)
    d_src = weights.swapaxes(1, 2) @ dout
    # softmax backward per target row
    tmp = (d_weights * weights).sum(axis=-1, keepdims=True)
    d_scores = weights * (d_weights - tmp)
    d_q = (d_scores @ src) * scale
    d_src += (d_scores.swapaxes(1, 2) @ q) * scale
    d_q1 = _conv_step_bwd(p.proj2, c2, d_q.T, grads, prefix + "2_")
    d_tin = _conv_step_bwd(p.proj1, c1, d_q1, grads, prefix + "1_")
    return d_src.T, d_tin  # timing signal is constant


def attention_module(
    params: AttentionParams, source: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Single-instance attention of the target onto the source positions."""
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim != 2 or target.ndim != 2:
        raise ValueError("source and target must be (length, channels)")
    bands = _bands([params.proj1.dw, params.proj2.dw], len(target))
    out, _ = _attention_fwd(params, source.T[:, :, None], target.T[:, :, None], bands)
    return out[:, :, 0].T


def attention_weights(
    params: AttentionParams, source: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """The softmax weight matrix (target positions x source positions)."""
    bands = _bands([params.proj1.dw, params.proj2.dw], len(target))
    _, cache = _attention_fwd(params, source.T[:, :, None], target.T[:, :, None], bands)
    return cache[4][0]


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


def _init_conv_step(rng: np.random.Generator, kernel: int, c_in: int, c_out: int) -> ConvStepParams:
    return ConvStepParams(
        dw=rng.uniform(-1, 1, size=(kernel, c_in)) / math.sqrt(kernel),
        pw=rng.uniform(-1, 1, size=(c_in, c_out)) / math.sqrt(c_in),
        pb=np.zeros(c_out),
        ln_gain=np.ones(c_out),
        ln_bias=np.zeros(c_out),
    )


class SliceNetModel:
    """Encoder, I/O mixer and decoder over request feature sequences."""

    def __init__(
        self,
        n_features: int = DEFAULT_N_FEATURES,
        d_model: int = DEFAULT_D_MODEL,
        rng: Optional[np.random.Generator] = None,
    ):
        if rng is None:
            rng = np.random.default_rng(0)
        self.n_features = n_features
        self.d_model = d_model
        c, c2 = d_model, 2 * d_model
        self.lift_w = rng.uniform(-1, 1, size=(n_features, c))
        self.lift_b = np.zeros((n_features, c))
        self.encoder = ConvModuleParams(
            [_init_conv_step(rng, k, c, c) for k in ENC_KERNELS]
        )
        self.decoder = ConvModuleParams(
            [_init_conv_step(rng, k, c2, c2) for k in ENC_KERNELS]
        )
        self.attention = AttentionParams(
            proj1=_init_conv_step(rng, ATTN_KERNEL, c2, c2),
            proj2=_init_conv_step(rng, ATTN_KERNEL, c2, c),
        )
        self.head_w = rng.uniform(-1, 1, size=(3 * c, N_CLASSES)) / math.sqrt(3 * c)
        self.head_b = np.zeros(N_CLASSES)

        # Every tensor becomes a view of one flat array, so that gradients
        # and the optimizer handle the whole model in a few array operations.
        slots = list(self._slots())
        tensors = [getattr(owner, attr) for _, owner, attr in slots]
        ends = accumulate(t.size for t in tensors)
        self._layout = [
            (name, end - t.size, end, t.shape)
            for (name, _, _), t, end in zip(slots, tensors, ends)
        ]
        self.flat = np.concatenate([t.ravel() for t in tensors])
        for (_, owner, attr), view in zip(slots, self.tensor_views(self.flat).values()):
            setattr(owner, attr, view)

    # -- parameter bookkeeping ------------------------------------------------

    def _slots(self) -> Iterator[tuple[str, object, str]]:
        """(name, owner, attribute) of every trainable tensor in declaration order."""
        yield "lift_w", self, "lift_w"
        yield "lift_b", self, "lift_b"
        for prefix, steps in (
            ("enc", self.encoder.steps),
            ("dec", self.decoder.steps),
            ("attn", (self.attention.proj1, self.attention.proj2)),
        ):
            for i, step in enumerate(steps, start=1):
                for f in fields(step):
                    yield f"{prefix}{i}_{f.name}", step, f.name
        yield "head_w", self, "head_w"
        yield "head_b", self, "head_b"

    def tensor_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a flat array laid out like ``self.flat``."""
        return {name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in self._layout}

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable tensors in fixed declaration order."""
        return {name: getattr(owner, attr) for name, owner, attr in self._slots()}

    def set_parameter(self, name: str, value: np.ndarray) -> None:
        current = self.parameters()[name]
        if current.shape != value.shape:
            raise ValueError(f"shape mismatch for {name}")
        current[...] = value

    # -- forward / backward ----------------------------------------------------

    def _lift(self, features: np.ndarray) -> np.ndarray:
        # (batch, n_features) scalars -> (channels, length, batch)
        return self.lift_w.T[:, :, None] * features.T + self.lift_b.T[:, :, None]

    def _forward(
        self,
        features: np.ndarray,
        history: Optional[np.ndarray],
        training: bool,
        rng: Optional[np.random.Generator],
    ):
        x = self._lift(features)
        steps = [*self.encoder.steps, *self.decoder.steps, self.attention.proj1, self.attention.proj2]
        bands = _bands([step.dw for step in steps], x.shape[1])
        enc, enc_cache = _conv_module_fwd(self.encoder, x, bands[:4], training, rng)
        if history is None:
            hist = np.zeros_like(enc)
        else:
            hist = np.broadcast_to(history, enc.shape[::-1]).T
        mix = np.concatenate([enc, hist], axis=0)
        dec, dec_cache = _conv_module_fwd(self.decoder, mix, bands[4:8], training, rng)
        attn, attn_cache = _attention_fwd(self.attention, enc, dec, bands[8:])
        pooled = np.concatenate([dec, attn], axis=0).mean(axis=1)
        logits = pooled.T @ self.head_w + self.head_b
        cache = (features, x, enc_cache, dec_cache, attn_cache, pooled)
        return logits, cache

    def _backward(self, cache, dlogits: np.ndarray) -> np.ndarray:
        """The gradient of every tensor, laid out like ``self.flat``."""
        features, x, enc_cache, dec_cache, attn_cache, pooled = cache
        flat_grad = np.zeros_like(self.flat)
        grads = self.tensor_views(flat_grad)
        grads["head_w"] += pooled @ dlogits
        np.sum(dlogits, axis=0, out=grads["head_b"])
        c3, length, b = len(pooled), x.shape[1], len(dlogits)
        d_pooled = (self.head_w @ dlogits.T) / length
        d_combined = np.broadcast_to(d_pooled[:, None, :], (c3, length, b))
        c2 = 2 * self.d_model
        d_enc_src, d_dec_t = _attention_bwd(
            self.attention, attn_cache, d_combined[c2:], grads, "attn"
        )
        d_dec = d_combined[:c2] + d_dec_t
        d_mix = _conv_module_bwd(self.decoder, dec_cache, d_dec, grads, "dec")
        d_enc = d_mix[: self.d_model] + d_enc_src  # history half is constant
        d_x = _conv_module_bwd(self.encoder, enc_cache, d_enc, grads, "enc")
        grads["lift_w"] += (d_x * features.T).sum(axis=2).T
        np.sum(d_x, axis=2, out=grads["lift_b"].T)
        return flat_grad

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Inference-mode logits for a batch of feature rows.

        Rows are evaluated ``LOGITS_CHUNK_ROWS`` at a time: a forward pass
        builds every layer's backward cache for every row it holds, so one
        pass over all rows would take memory in proportion to them.  A last
        chunk of one row is folded into the one before it: a one-row pass
        takes a different BLAS path, and with every chunk at two rows or
        more the result equals one full pass bit for bit.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        bounds = range(LOGITS_CHUNK_ROWS, len(features) - 1, LOGITS_CHUNK_ROWS)
        return np.concatenate(
            [
                self._forward(chunk, None, training=False, rng=None)[0]
                for chunk in np.split(features, bounds)
            ]
        )

    def loss_and_flat_grad(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[float, np.ndarray]:
        """Mean cross-entropy over a batch and its gradient, laid out like
        ``self.flat``."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels = np.asarray(labels, dtype=np.int64).ravel()
        logits, cache = self._forward(features, None, training, rng)
        probs = softmax(logits, axis=-1)
        n = len(labels)
        eps = 1e-300
        loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        return loss, self._backward(cache, dlogits)

    def loss_and_grads(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean cross-entropy over a batch plus gradients for every tensor."""
        loss, flat_grad = self.loss_and_flat_grad(features, labels, training, rng)
        return loss, self.tensor_views(flat_grad)


def encode_mix_decode(
    model: SliceNetModel,
    input_features: Sequence[float],
    output_history: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full forward pass of one feature row; returns the slice logit row."""
    features = np.asarray(input_features, dtype=np.float64)[None, :]
    logits, _ = model._forward(features, output_history, training=False, rng=None)
    return logits[0]


def select_slice(model: SliceNetModel, features: SliceFeatureVector) -> SliceDecision:
    """Deterministic inference: softmax over slices, first-max tie break."""
    logits = encode_mix_decode(model, features.to_array())
    if not np.all(np.isfinite(logits)):
        raise DivergedModelError(f"non-finite logits {logits!r}")
    probs = softmax(logits)
    cls = int(np.argmax(probs))
    service = _INDEX_CLASS[cls]
    return SliceDecision(
        indicator=service.indicator,
        slice_id=service.slice_id,
        confidence=float(probs[cls]),
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class LossCurve:
    epochs: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    def rows(self) -> list[str]:
        header = "epoch,loss,accuracy"
        body = [
            f"{e},{l:.9g},{a:.9g}"
            for e, l, a in zip(self.epochs, self.losses, self.accuracies)
        ]
        return [header] + body


class AdamOptimizer:
    """Adaptive-moment gradient descent on one flat parameter array.

    Every operation is elementwise, so one update of ``SliceNetModel.flat``
    equals a separate update of each tensor, bit for bit.
    """

    def __init__(self, params: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        self.m = self.beta1 * self.m + (1 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1 - self.beta2) * grads * grads
        params -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


def accuracy(model: SliceNetModel, features: np.ndarray, labels: np.ndarray) -> float:
    preds = np.argmax(model.logits(features), axis=-1)
    return float(np.mean(preds == np.asarray(labels).ravel()))


def train(
    model: SliceNetModel,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
    batch_size: int = 32,
) -> LossCurve:
    """Cross-entropy training with Adam; loss and accuracy logged per epoch."""
    lo, hi = LEARNING_RATE_RANGE
    if not (lo <= learning_rate <= hi):
        raise ValueError(f"learning_rate must be within [{lo}, {hi}]")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1 (got {epochs!r})")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if len(features) == 0:
        raise ValueError("dataset must be nonempty")

    opt = AdamOptimizer(model.flat, learning_rate)
    curve = LossCurve()
    n = len(features)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grad = model.loss_and_flat_grad(
                features[idx], labels[idx], training=True, rng=rng
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}, batch offset {start}"
                )
            opt.step(model.flat, grad)
            epoch_loss += loss * len(idx)
        curve.epochs.append(epoch)
        curve.losses.append(epoch_loss / n)
        curve.accuracies.append(accuracy(model, features, labels))
    return curve


def make_separable_dataset(
    n: int, rng: np.random.Generator, n_features: int = DEFAULT_N_FEATURES
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic labeled rows whose class is encoded in the leading one-hot,
    with mild noise on every component."""
    labels = rng.integers(0, N_CLASSES, size=n)
    features = rng.uniform(0.0, 1.0, size=(n, n_features))
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), labels] = 1.0
    noise = rng.uniform(-0.1, 0.1, size=(n, N_CLASSES))
    features[:, :N_CLASSES] = np.clip(onehot + noise, 0.0, 1.0)
    return features, labels
